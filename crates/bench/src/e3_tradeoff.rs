//! E3 — Corollary 6.14: the adaptability tradeoff.
//!
//! The time to bring a fresh edge's skew down to the stable bound is
//! `O(n/B0)`, and the lower bound (Theorem 4.1) shows `Ω(n/s̄(n))` is
//! unavoidable — so doubling the stable budget should roughly halve the
//! stabilization time, and scaling the accumulated skew with `n` (as the
//! paper's analysis does) should scale it back up. We run the cluster
//! merge with initial skew proportional to `n`, sweep `B0` multipliers
//! and `n`, measure the settle time of the bridge edge, and fit the
//! log–log slope of settle time against `B0` (expected ≈ −1).

use crate::scenario;
use gcs_analysis::stats::loglog_slope;
use gcs_analysis::{parallel_map, Recorder, Table};
use gcs_clocks::time::at;
use gcs_clocks::ScheduleDrift;
use gcs_core::{AlgoParams, GradientNode};
use gcs_net::ScheduleSource;
use gcs_sim::{DelayStrategy, ModelParams, SimBuilder};

/// Configuration for E3.
#[derive(Clone, Debug)]
pub struct Config {
    /// Node counts to sweep.
    pub ns: Vec<usize>,
    /// Multipliers applied to the minimal admissible `B0`.
    pub b0_multipliers: Vec<f64>,
    /// Model parameters.
    pub model: ModelParams,
    /// Subjective resend interval.
    pub delta_h: f64,
    /// Initial bridge skew per node (`target skew = skew_per_node · n`).
    pub skew_per_node: f64,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            ns: vec![24, 48],
            b0_multipliers: vec![1.0, 2.0, 4.0, 8.0],
            model: ModelParams::new(0.05, 1.0, 2.0),
            delta_h: 0.5,
            skew_per_node: 2.0,
        }
    }
}

/// One sweep cell.
#[derive(Clone, Debug)]
pub struct Cell {
    /// Node count.
    pub n: usize,
    /// Stable budget used.
    pub b0: f64,
    /// Skew on the bridge at formation.
    pub initial_skew: f64,
    /// Measured time until the bridge skew stayed at or below the settle
    /// threshold (`None` if it never settled within the horizon).
    pub settle_time: Option<f64>,
    /// The reference scale `n/B0`.
    pub n_over_b0: f64,
}

/// Sweep outcome.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// All sweep cells.
    pub cells: Vec<Cell>,
    /// Log–log slope of settle time vs `B0` at the largest `n` (expected
    /// negative, ideally ≈ −1: inverse proportionality).
    pub slope_vs_b0: f64,
}

/// Runs the sweep (parallel over cells).
pub fn run(config: &Config) -> Outcome {
    let mut tasks = Vec::new();
    for &n in &config.ns {
        for &m in &config.b0_multipliers {
            tasks.push((n, m));
        }
    }
    let cells = parallel_map(&tasks, |&(n, mult)| run_cell(config, n, mult));
    let n_max = *config.ns.iter().max().expect("non-empty ns");
    let fit_cells: Vec<&Cell> = cells
        .iter()
        .filter(|c| c.n == n_max && c.settle_time.is_some())
        .collect();
    let slope_vs_b0 = if fit_cells.len() >= 2 {
        let xs: Vec<f64> = fit_cells.iter().map(|c| c.b0).collect();
        let ys: Vec<f64> = fit_cells.iter().map(|c| c.settle_time.unwrap()).collect();
        loglog_slope(&xs, &ys)
    } else {
        f64::NAN
    };
    Outcome { cells, slope_vs_b0 }
}

fn run_cell(config: &Config, n: usize, b0_multiplier: f64) -> Cell {
    let minimal = AlgoParams::with_minimal_b0(config.model, n, config.delta_h);
    let b0 = minimal.b0 * b0_multiplier;
    let params = AlgoParams::new(config.model, n, config.delta_h, b0);
    let target_skew = config.skew_per_node * n as f64;
    let t_bridge = scenario::t_bridge_for_skew(config.model, target_skew);
    let m = scenario::merge(n, config.model, t_bridge);
    // Horizon: generous multiple of the expected closure time plus the
    // stabilization window.
    let horizon = t_bridge + 6.0 * (target_skew / b0 + 1.0) * params.tau() + 4.0 * params.w();
    let mut sim = SimBuilder::topology(config.model, ScheduleSource::new(m.schedule.clone()))
        .drift(ScheduleDrift::new(m.clocks.clone()))
        .delay(DelayStrategy::Max)
        .build_with(|_| GradientNode::new(params));
    sim.run_until(at(t_bridge));
    let initial_skew = (sim.logical(m.bridge.lo()) - sim.logical(m.bridge.hi())).abs();
    let mut rec = Recorder::new(0.5).watch(m.bridge);
    rec.run(&mut sim, at(horizon));
    // Settle threshold: a fixed small multiple of B0 (comparing different
    // B0 runs against their own stable skew would move the goalposts).
    let threshold = 1.5 * minimal.b0;
    let settle_time = rec.settle_time(0, threshold).map(|t| t - t_bridge);
    Cell {
        n,
        b0,
        initial_skew,
        settle_time,
        n_over_b0: n as f64 / b0,
    }
}

/// Renders the tradeoff table.
pub fn render(outcome: &Outcome) -> Table {
    let mut t = Table::new(
        "E3 / Corollary 6.14 — stabilization time vs B0 and n",
        &["n", "B0", "initial skew", "settle time", "n/B0"],
    );
    for c in &outcome.cells {
        t.row(&[
            c.n.to_string(),
            format!("{:.1}", c.b0),
            format!("{:.2}", c.initial_skew),
            c.settle_time
                .map(|s| format!("{s:.1}"))
                .unwrap_or_else(|| "—".into()),
            format!("{:.2}", c.n_over_b0),
        ]);
    }
    t
}

/// E3 behind the [`Scenario`](crate::scenario::Scenario) surface.
#[derive(Clone, Debug, Default)]
pub struct Experiment {
    /// Tradeoff-sweep configuration.
    pub config: Config,
}

impl crate::scenario::Scenario for Experiment {
    fn id(&self) -> &'static str {
        "E3"
    }
    fn title(&self) -> &'static str {
        "stabilization time vs stable budget B0"
    }
    fn claim(&self) -> &'static str {
        "Corollary 6.14 — settle time proportional to n/B0"
    }
    fn family(&self) -> crate::scenario::ScenarioFamily {
        crate::scenario::ScenarioFamily::Claim
    }
    fn run_scenario(&self) -> crate::scenario::ScenarioReport {
        let out = run(&self.config);
        let mut rep = crate::scenario::ScenarioReport::new();
        rep.table(render(&out));
        rep.note(format!(
            "log-log slope of settle time vs B0 (largest n): {:.3} (expected ~ -1)",
            out.slope_vs_b0
        ));
        rep
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn larger_budget_settles_faster() {
        let config = Config {
            ns: vec![24],
            b0_multipliers: vec![1.0, 4.0],
            ..Config::default()
        };
        let out = run(&config);
        let small = &out.cells[0];
        let large = &out.cells[1];
        assert!(small.b0 < large.b0);
        let ts = small.settle_time.expect("small-B0 cell settled");
        let tl = large.settle_time.expect("large-B0 cell settled");
        assert!(
            tl < ts,
            "larger budget should settle faster: B0={} took {ts}, B0={} took {tl}",
            small.b0,
            large.b0
        );
    }

    #[test]
    fn more_skew_takes_longer_at_fixed_budget() {
        // n doubles ⇒ accumulated skew doubles ⇒ settle time grows.
        let config = Config {
            ns: vec![16, 32],
            b0_multipliers: vec![1.0],
            ..Config::default()
        };
        let out = run(&config);
        // The minimal B0 depends only on the model and ΔH (τ is
        // n-independent), so the two cells share the same budget and the
        // comparison is apples-to-apples.
        assert_eq!(out.cells[0].b0, out.cells[1].b0);
        let t16 = out.cells[0].settle_time.expect("n=16 settled");
        let t32 = out.cells[1].settle_time.expect("n=32 settled");
        assert!(
            t32 > t16,
            "doubling the accumulated skew should slow stabilization: {t16} vs {t32}"
        );
    }
}
