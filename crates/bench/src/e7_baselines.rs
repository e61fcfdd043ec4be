//! E7 — the baseline comparison motivating the paper's design.
//!
//! Scenario: two clusters evolve separately (one fast, one slow) and are
//! then joined by a single bridge edge carrying skew `≫ B0`. We compare
//! three algorithms on three axes:
//!
//! * **peak old-edge skew** after the merge — MaxSync propagates the merge
//!   as a jump wave over old edges; the gradient algorithms keep old edges
//!   within budget.
//! * **peak `Lmax − L` lag at the ahead-side bridge endpoint** — the
//!   constant-budget baseline blocks that node immediately (the fresh edge
//!   already exceeds `B0`), dragging it behind the network max; the aging
//!   budget leaves fresh edges unconstrained.
//! * **bridge settle time** — MaxSync "settles" instantly (by jumping);
//!   the gradient algorithms take `Θ(skew/B0)` rounds, the price of the
//!   gradient property (and provably unavoidable, Theorem 4.1).

use gcs_analysis::Table;
use gcs_clocks::time::at;
use gcs_clocks::HardwareClock;
use gcs_clocks::ScheduleDrift;
use gcs_core::baseline::MaxSyncNode;
use gcs_core::{AlgoParams, BudgetPolicy, GradientNode};

use gcs_net::{node, Edge, ScheduleSource, TopologySchedule};
use gcs_sim::{Automaton, DelayStrategy, ModelParams, SimBuilder, Simulator};

/// Configuration for E7.
#[derive(Clone, Debug)]
pub struct Config {
    /// Total node count (two clusters of `n/2`).
    pub n: usize,
    /// Model parameters (high drift recommended).
    pub model: ModelParams,
    /// Subjective resend interval.
    pub delta_h: f64,
    /// When the bridge appears.
    pub t_bridge: f64,
    /// Observation window after the bridge.
    pub window: f64,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            n: 24,
            model: ModelParams::new(0.1, 1.0, 2.0),
            delta_h: 0.5,
            t_bridge: 500.0,
            window: 150.0,
        }
    }
}

/// Metrics for one algorithm.
#[derive(Clone, Debug)]
pub struct Row {
    /// Algorithm label.
    pub name: &'static str,
    /// Bridge skew at formation.
    pub initial_skew: f64,
    /// Worst old-edge skew during the observation window.
    pub peak_old_edge: f64,
    /// Worst `Lmax − L` at the ahead-side bridge endpoint.
    pub peak_lag: f64,
    /// First time (after formation) the bridge skew fell below the
    /// gradient stable bound, if it did.
    pub settle_time: Option<f64>,
}

/// The cluster-merge topology (see [`crate::scenario::merge`]): two
/// disjoint paths bridged at `t_bridge`, with the ahead-side bridge
/// endpoint on a slow clock so that it tracks its cluster's max by
/// chasing.
fn merge_scenario(config: &Config) -> (TopologySchedule, Vec<HardwareClock>, usize, Edge) {
    let m = crate::scenario::merge(config.n, config.model, config.t_bridge);
    let ahead = config.n / 2 - 1;
    (m.schedule, m.clocks, ahead, m.bridge)
}

fn measure<A: Automaton>(
    sim: &mut Simulator<A>,
    config: &Config,
    m: usize,
    bridge: Edge,
    old_edges: &[Edge],
    settle_threshold: f64,
) -> Row {
    sim.run_until(at(config.t_bridge));
    let initial_skew = (sim.logical(bridge.lo()) - sim.logical(bridge.hi())).abs();
    let mut peak_old_edge: f64 = 0.0;
    let mut peak_lag: f64 = 0.0;
    let mut settle_time = None;
    let mut t = config.t_bridge;
    while t < config.t_bridge + config.window {
        t += 0.5;
        sim.run_until(at(t));
        for e in old_edges {
            peak_old_edge = peak_old_edge.max((sim.logical(e.lo()) - sim.logical(e.hi())).abs());
        }
        peak_lag = peak_lag.max(sim.max_estimate_of(node(m)) - sim.logical(node(m)));
        let bridge_skew = (sim.logical(bridge.lo()) - sim.logical(bridge.hi())).abs();
        if bridge_skew <= settle_threshold {
            settle_time.get_or_insert(t - config.t_bridge);
        } else {
            settle_time = None;
        }
    }
    Row {
        name: "",
        initial_skew,
        peak_old_edge,
        peak_lag,
        settle_time,
    }
}

/// Runs the three algorithms through the same scenario.
pub fn run(config: &Config) -> Vec<Row> {
    let (schedule, clocks, m, bridge) = merge_scenario(config);
    let old_edges: Vec<Edge> = schedule.initial_edges().collect();
    let b0 = AlgoParams::with_minimal_b0(config.model, config.n, config.delta_h).b0;
    let aging = AlgoParams::with_policy(
        config.model,
        config.n,
        config.delta_h,
        b0,
        BudgetPolicy::Aging,
    );
    let threshold = aging.stable_local_skew();

    let mut rows = Vec::new();
    for policy in [BudgetPolicy::Aging, BudgetPolicy::Constant] {
        let params = AlgoParams::with_policy(config.model, config.n, config.delta_h, b0, policy);
        let mut sim = SimBuilder::topology(config.model, ScheduleSource::new(schedule.clone()))
            .drift(ScheduleDrift::new(clocks.clone()))
            .delay(DelayStrategy::Max)
            .build_with(|_| GradientNode::new(params));
        let mut row = measure(&mut sim, config, m, bridge, &old_edges, threshold);
        row.name = match policy {
            BudgetPolicy::Aging => "Algorithm 2 (aging budget)",
            BudgetPolicy::Constant => "constant budget [13]",
            BudgetPolicy::Custom { .. } => unreachable!("E7 compares the named policies"),
        };
        rows.push(row);
    }
    {
        let delta_h = config.delta_h;
        let mut sim = SimBuilder::topology(config.model, ScheduleSource::new(schedule))
            .drift(ScheduleDrift::new(clocks))
            .delay(DelayStrategy::Max)
            .build_with(|_| MaxSyncNode::new(delta_h));
        let mut row = measure(&mut sim, config, m, bridge, &old_edges, threshold);
        row.name = "max-sync [18]";
        rows.push(row);
    }
    rows
}

/// Renders the comparison table.
pub fn render(rows: &[Row]) -> Table {
    let mut t = Table::new(
        "E7 — cluster merge: gradient vs baselines",
        &[
            "algorithm",
            "initial bridge skew",
            "peak old-edge skew",
            "peak Lmax−L lag",
            "bridge settle time",
        ],
    );
    for r in rows {
        t.row(&[
            r.name.to_string(),
            format!("{:.2}", r.initial_skew),
            format!("{:.2}", r.peak_old_edge),
            format!("{:.2}", r.peak_lag),
            r.settle_time
                .map(|s| format!("{s:.1}"))
                .unwrap_or_else(|| "—".into()),
        ]);
    }
    t
}

/// E7 behind the [`Scenario`](crate::scenario::Scenario) surface.
#[derive(Clone, Debug, Default)]
pub struct Experiment {
    /// Baseline-comparison configuration.
    pub config: Config,
}

impl crate::scenario::Scenario for Experiment {
    fn id(&self) -> &'static str {
        "E7"
    }
    fn title(&self) -> &'static str {
        "aging budget vs constant budget vs max-sync on a cluster merge"
    }
    fn claim(&self) -> &'static str {
        "§1 motivation — only the aging budget gives a dynamic gradient"
    }
    fn family(&self) -> crate::scenario::ScenarioFamily {
        crate::scenario::ScenarioFamily::Claim
    }
    fn run_scenario(&self) -> crate::scenario::ScenarioReport {
        let rows = run(&self.config);
        let mut rep = crate::scenario::ScenarioReport::new();
        rep.table(render(&rows));
        rep
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baselines_separate_as_the_paper_predicts() {
        let config = Config::default();
        let rows = run(&config);
        let aging = &rows[0];
        let constant = &rows[1];
        let max_sync = &rows[2];
        // Everyone starts from the same (large) bridge skew.
        assert!(aging.initial_skew > 20.0);
        assert!((aging.initial_skew - max_sync.initial_skew).abs() < aging.initial_skew * 0.5);
        // MaxSync's merge wave hits old edges with ~the full skew; the
        // gradient algorithms keep old edges an order of magnitude lower.
        assert!(
            max_sync.peak_old_edge > 3.0 * aging.peak_old_edge,
            "max-sync old-edge {} vs aging {}",
            max_sync.peak_old_edge,
            aging.peak_old_edge
        );
        // The constant budget blocks the ahead endpoint; the aging budget
        // does not.
        assert!(
            constant.peak_lag > aging.peak_lag + 1.0,
            "constant lag {} vs aging lag {}",
            constant.peak_lag,
            aging.peak_lag
        );
    }
}
