//! E8 — ablations of the algorithm's design choices (beyond the paper's
//! stated results; validates the *reasons* behind the budget function's
//! shape, per DESIGN.md §5).
//!
//! * **Initial-budget ablation.** The paper sets `B(0) = 5G(n) + (1+ρ)τ +
//!   B0 > G(n)` so a fresh edge can never constrain anyone. We sweep the
//!   initial value below and above the accumulated skew: once `B(0)`
//!   drops below the skew a new edge carries, the ahead endpoint gets
//!   blocked and lags behind `Lmax` — the failure the paper's choice
//!   avoids by construction.
//! * **Slope ablation.** The paper hardens the budget at rate
//!   `B0/((1+ρ)τ)`. Hardening much faster re-introduces blocking before
//!   the skew has closed; hardening much slower just delays the moment
//!   the stable guarantee attaches (the local skew bound converges later).
//! * **Wrong-`n` ablation.** Nodes only know `n` (the paper assumes they
//!   do, §5). Overestimating `n` inflates `G(n)` — safe but with weaker
//!   stable guarantees; underestimating it shrinks the fresh-edge budget
//!   below the real skew — the same blocking failure.
//! * **ΔH sensitivity.** Faster resends shrink `ΔT`, `τ`, and therefore
//!   the admissible `B0` and the achieved local skew, at the cost of more
//!   messages — the cost/precision knob of the protocol.

use crate::scenario;
use gcs_analysis::{parallel_map, Table};
use gcs_clocks::time::at;
use gcs_clocks::DriftModel;
use gcs_clocks::ScheduleDrift;
use gcs_core::{AlgoParams, BudgetPolicy, GradientNode};
use gcs_net::{generators, node, ScheduleSource, TopologySchedule};
use gcs_sim::{DelayStrategy, ModelParams, SimBuilder};

/// Configuration for the budget-shape ablations.
#[derive(Clone, Debug)]
pub struct Config {
    /// Nodes in the merge scenario.
    pub n: usize,
    /// Model (high drift so skew accumulates fast).
    pub model: ModelParams,
    /// Resend interval.
    pub delta_h: f64,
    /// Initial bridge skew to accumulate.
    pub target_skew: f64,
    /// Observation window after the merge.
    pub window: f64,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            n: 24,
            model: ModelParams::new(0.1, 1.0, 2.0),
            delta_h: 0.5,
            target_skew: 80.0,
            window: 120.0,
        }
    }
}

/// One ablation cell.
#[derive(Clone, Debug)]
pub struct Cell {
    /// Human-readable variant label.
    pub label: String,
    /// Peak `Lmax − L` lag at the ahead-side bridge endpoint.
    pub peak_lag: f64,
    /// Time until the bridge settled below `1.5 × B0` (None = never).
    pub settle_time: Option<f64>,
}

fn run_merge_with(config: &Config, params: AlgoParams, label: String) -> Cell {
    let t_bridge = scenario::t_bridge_for_skew(config.model, config.target_skew);
    let m = scenario::merge(config.n, config.model, t_bridge);
    let mut sim = SimBuilder::topology(config.model, ScheduleSource::new(m.schedule.clone()))
        .drift(ScheduleDrift::new(m.clocks.clone()))
        .delay(DelayStrategy::Max)
        .build_with(|_| GradientNode::new(params));
    sim.run_until(at(t_bridge));
    // The ahead endpoint is the fast-cluster side of the bridge.
    let ahead = m.bridge.lo();
    let mut peak_lag: f64 = 0.0;
    let mut settle_time = None;
    let threshold = 1.5 * params.b0;
    let mut t = t_bridge;
    while t < t_bridge + config.window {
        t += 0.5;
        sim.run_until(at(t));
        peak_lag = peak_lag.max(sim.max_estimate_of(ahead) - sim.logical(ahead));
        let skew = (sim.logical(m.bridge.lo()) - sim.logical(m.bridge.hi())).abs();
        if skew <= threshold {
            settle_time.get_or_insert(t - t_bridge);
        } else {
            settle_time = None;
        }
    }
    Cell {
        label,
        peak_lag,
        settle_time,
    }
}

/// Initial-budget ablation: `B(0)` as a multiple of the accumulated skew.
pub fn run_initial_budget(config: &Config) -> Vec<Cell> {
    let base = AlgoParams::with_minimal_b0(config.model, config.n, config.delta_h);
    let paper_slope = base.b0 / ((1.0 + config.model.rho) * base.tau());
    let multipliers = [0.25, 0.5, 1.0, 2.0];
    let mut variants: Vec<(String, AlgoParams)> = multipliers
        .iter()
        .map(|&m| {
            let initial = m * config.target_skew;
            let params = AlgoParams::with_policy(
                config.model,
                config.n,
                config.delta_h,
                base.b0,
                BudgetPolicy::Custom {
                    initial,
                    slope: paper_slope,
                },
            );
            (format!("B(0) = {m:.2} x skew"), params)
        })
        .collect();
    variants.push(("paper: B(0) = 5G+(1+rho)tau+B0".into(), base));
    parallel_map(&variants, |(label, params)| {
        run_merge_with(config, *params, label.clone())
    })
}

/// Slope ablation: hardening rate as a multiple of the paper's.
pub fn run_slope(config: &Config) -> Vec<Cell> {
    let base = AlgoParams::with_minimal_b0(config.model, config.n, config.delta_h);
    let paper_slope = base.b0 / ((1.0 + config.model.rho) * base.tau());
    let initial = base.budget(0.0);
    let variants: Vec<(String, AlgoParams)> = [0.25, 1.0, 4.0, 16.0]
        .iter()
        .map(|&m| {
            let params = AlgoParams::with_policy(
                config.model,
                config.n,
                config.delta_h,
                base.b0,
                BudgetPolicy::Custom {
                    initial,
                    slope: m * paper_slope,
                },
            );
            (format!("slope = {m:.2} x paper"), params)
        })
        .collect();
    parallel_map(&variants, |(label, params)| {
        run_merge_with(config, *params, label.clone())
    })
}

/// Wrong-`n` ablation: nodes believe the network has `n_assumed` nodes.
pub fn run_wrong_n(config: &Config) -> Vec<Cell> {
    let variants: Vec<(String, AlgoParams)> = [
        (config.n / 4, "n/4 (underestimate)"),
        (config.n, "n (exact)"),
        (4 * config.n, "4n (overestimate)"),
    ]
    .iter()
    .map(|&(n_assumed, label)| {
        let params = AlgoParams::with_minimal_b0(config.model, n_assumed, config.delta_h);
        (label.to_string(), params)
    })
    .collect();
    parallel_map(&variants, |(label, params)| {
        run_merge_with(config, *params, label.clone())
    })
}

/// ΔH sensitivity on a static path: achieved steady local skew vs message
/// cost.
#[derive(Clone, Debug)]
pub struct DeltaHCell {
    /// Resend interval.
    pub delta_h: f64,
    /// Minimal admissible stable budget for that ΔH.
    pub b0: f64,
    /// Steady-state worst local skew.
    pub steady_local_skew: f64,
    /// Messages sent over the run.
    pub messages: u64,
}

/// Runs the ΔH sweep.
pub fn run_delta_h(model: ModelParams, n: usize, delta_hs: &[f64]) -> Vec<DeltaHCell> {
    parallel_map(delta_hs, |&delta_h| {
        let params = AlgoParams::with_minimal_b0(model, n, delta_h);
        let horizon = 300.0;
        let schedule = TopologySchedule::static_graph(n, generators::path(n));
        let mut sim = SimBuilder::topology(model, ScheduleSource::new(schedule))
            .drift_model(DriftModel::FastUpTo(n / 2), horizon)
            .delay(DelayStrategy::Max)
            .build_with(|_| GradientNode::new(params));
        sim.run_until(at(horizon * 0.75));
        let mut worst: f64 = 0.0;
        let mut t = horizon * 0.75;
        while t < horizon {
            t += 1.0;
            sim.run_until(at(t));
            for i in 0..n - 1 {
                worst = worst.max((sim.logical(node(i)) - sim.logical(node(i + 1))).abs());
            }
        }
        DeltaHCell {
            delta_h,
            b0: params.b0,
            steady_local_skew: worst,
            messages: sim.stats().messages_sent,
        }
    })
}

/// Renders the merge-scenario ablations.
pub fn render_cells(title: &str, cells: &[Cell]) -> Table {
    let mut t = Table::new(title, &["variant", "peak Lmax−L lag", "settle time"]);
    for c in cells {
        t.row(&[
            c.label.clone(),
            format!("{:.2}", c.peak_lag),
            c.settle_time
                .map(|s| format!("{s:.1}"))
                .unwrap_or_else(|| "—".into()),
        ]);
    }
    t
}

/// Renders the ΔH sweep.
pub fn render_delta_h(cells: &[DeltaHCell]) -> Table {
    let mut t = Table::new(
        "E8d — ΔH sensitivity (path, steady state)",
        &["ΔH", "minimal B0", "steady local skew", "messages"],
    );
    for c in cells {
        t.row(&[
            format!("{:.2}", c.delta_h),
            format!("{:.1}", c.b0),
            format!("{:.3}", c.steady_local_skew),
            c.messages.to_string(),
        ]);
    }
    t
}

/// E8 behind the [`Scenario`](crate::scenario::Scenario) surface; runs
/// all four ablations.
#[derive(Clone, Debug, Default)]
pub struct Experiment {
    /// Shared ablation configuration.
    pub config: Config,
}

impl crate::scenario::Scenario for Experiment {
    fn id(&self) -> &'static str {
        "E8"
    }
    fn title(&self) -> &'static str {
        "parameter ablations: B(0), hardening slope, assumed n, ΔH"
    }
    fn claim(&self) -> &'static str {
        "§5–6 — every parameter choice in Algorithm 2 is load-bearing"
    }
    fn family(&self) -> crate::scenario::ScenarioFamily {
        crate::scenario::ScenarioFamily::Claim
    }
    fn run_scenario(&self) -> crate::scenario::ScenarioReport {
        let mut rep = crate::scenario::ScenarioReport::new();
        rep.table(render_cells(
            "E8a — initial budget B(0) (paper: 5G(n) + (1+rho)tau + B0 > any possible skew)",
            &run_initial_budget(&self.config),
        ));
        rep.table(render_cells(
            "E8b — hardening slope (paper: B0 / ((1+rho)tau))",
            &run_slope(&self.config),
        ));
        rep.table(render_cells(
            "E8c — assumed n (paper: nodes know n)",
            &run_wrong_n(&self.config),
        ));
        rep.table(render_delta_h(&run_delta_h(
            crate::default_model(),
            32,
            &[0.25, 0.5, 1.0, 1.9],
        )));
        rep.note(
            "a lag of ~0 means nobody was blocked; '—' means the bridge never settled \
             within the window",
        );
        rep
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config() -> Config {
        Config {
            n: 16,
            target_skew: 60.0,
            window: 80.0,
            ..Config::default()
        }
    }

    #[test]
    fn small_initial_budget_blocks_ahead_endpoint() {
        let cells = run_initial_budget(&quick_config());
        let tight = &cells[0]; // B(0) = 0.25 x skew
        let paper = cells.last().unwrap();
        assert!(
            tight.peak_lag > paper.peak_lag + 1.0,
            "undersized B(0) should cause blocking: tight {} vs paper {}",
            tight.peak_lag,
            paper.peak_lag
        );
    }

    #[test]
    fn paper_slope_avoids_blocking_but_fast_slopes_do_not() {
        let cells = run_slope(&quick_config());
        let paper = &cells[1];
        let fastest = &cells[3]; // 16x hardening
        assert!(
            fastest.peak_lag > paper.peak_lag,
            "over-fast hardening should block: fast {} vs paper {}",
            fastest.peak_lag,
            paper.peak_lag
        );
        assert!(paper.peak_lag < 0.5, "paper slope should not block");
    }

    #[test]
    fn underestimating_n_blocks_overestimating_is_safe() {
        let cells = run_wrong_n(&quick_config());
        let under = &cells[0];
        let exact = &cells[1];
        let over = &cells[2];
        assert!(
            under.peak_lag > exact.peak_lag + 1.0,
            "n/4: {} vs exact {}",
            under.peak_lag,
            exact.peak_lag
        );
        assert!(over.peak_lag <= exact.peak_lag + 0.5);
    }

    #[test]
    fn faster_resends_buy_tighter_local_skew_for_more_messages() {
        let model = ModelParams::new(0.01, 1.0, 2.0);
        let cells = run_delta_h(model, 16, &[0.25, 1.0]);
        assert!(cells[0].messages > cells[1].messages);
        assert!(cells[0].b0 < cells[1].b0, "smaller ΔH admits smaller B0");
    }
}
