//! E1 — Theorem 6.9: the algorithm guarantees a global skew of
//! `G(n) = ((1+ρ)T + 2ρD)(n−1)` at all times.
//!
//! We sweep `n` over paths (worst diameter) under the block-split drift
//! adversary (the left half of the path at `1+ρ`, the right half at
//! `1−ρ`, so skew accumulates across the whole diameter) and maximal
//! message delays, measure the peak global skew over a long horizon, and
//! check (a) the bound holds, (b) the measured skew grows linearly in `n`
//! (the paper's shape), via a least-squares fit.

use gcs_analysis::stats::linear_fit;
use gcs_analysis::{parallel_map, Recorder, Table};
use gcs_clocks::time::at;
use gcs_clocks::DriftModel;
use gcs_core::{AlgoParams, GradientNode, InvariantMonitor};
use gcs_net::{generators, ScheduleSource, TopologySchedule};
use gcs_sim::{DelayStrategy, ModelParams, SimBuilder};

/// Configuration for E1.
#[derive(Clone, Debug)]
pub struct Config {
    /// Node counts to sweep.
    pub ns: Vec<usize>,
    /// Model parameters.
    pub model: ModelParams,
    /// Subjective resend interval.
    pub delta_h: f64,
    /// Engine worker count (`None` = engine default). Traces — and
    /// therefore the whole report — are identical for every value.
    pub threads: Option<usize>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            ns: vec![8, 16, 32, 64, 128],
            model: ModelParams::new(0.01, 1.0, 2.0),
            delta_h: 0.5,
            threads: None,
        }
    }
}

/// One sweep point.
#[derive(Clone, Debug)]
pub struct Point {
    /// Node count.
    pub n: usize,
    /// Peak measured global skew.
    pub measured: f64,
    /// The bound `G(n)`.
    pub bound: f64,
    /// Invariant violations observed (must be 0).
    pub violations: usize,
}

/// Full result of the sweep.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Per-`n` measurements.
    pub points: Vec<Point>,
    /// Least-squares fit of measured skew against `n`: (slope, intercept,
    /// r²).
    pub fit: (f64, f64, f64),
}

/// Runs the sweep (parallel over `n`).
pub fn run(config: &Config) -> Outcome {
    let points = parallel_map(&config.ns, |&n| {
        let params = AlgoParams::with_minimal_b0(config.model, n, config.delta_h);
        // Long enough for the worst-case skew profile to form across the
        // whole diameter.
        let horizon = 8.0 * n as f64 + 200.0;
        let schedule = TopologySchedule::static_graph(n, generators::path(n));
        let mut builder = SimBuilder::topology(config.model, ScheduleSource::new(schedule))
            .drift_model(DriftModel::FastUpTo(n / 2), horizon)
            .delay(DelayStrategy::Max);
        if let Some(t) = config.threads {
            builder = builder.threads(t);
        }
        let mut sim = builder.build_with(|_| GradientNode::new(params));
        let mut rec = Recorder::new(2.0).with_monitor(InvariantMonitor::new(params));
        rec.run(&mut sim, at(horizon));
        Point {
            n,
            measured: rec.peak_global_skew(),
            bound: params.global_skew_bound(),
            violations: rec.monitor().unwrap().violations().len(),
        }
    });
    let xs: Vec<f64> = points.iter().map(|p| p.n as f64).collect();
    let ys: Vec<f64> = points.iter().map(|p| p.measured).collect();
    let fit = linear_fit(&xs, &ys);
    Outcome { points, fit }
}

/// E1's fail-closed gates, run by `run_scenario` (so by `exp E1` and
/// `run_all`) and by the unit test: at every swept `n` the invariant
/// monitor saw no violation and `0 < measured ≤ G(n)` (Theorem 6.9), and
/// the least-squares fit of measured skew against `n` has a positive
/// slope with `r² > 0.9` (the bound's linear shape).
///
/// # Panics
/// On the first gate that fails, naming it and its values.
pub fn check(outcome: &Outcome) {
    for p in &outcome.points {
        assert!(
            p.violations == 0,
            "E1 monitor gate at n = {}: {} invariant violations, must be 0",
            p.n,
            p.violations
        );
        assert!(
            p.measured > 0.0 && p.measured <= p.bound,
            "E1 bound gate at n = {}: measured skew {} outside (0, G(n) = {}]",
            p.n,
            p.measured,
            p.bound
        );
    }
    let (slope, _, r2) = outcome.fit;
    assert!(
        slope > 0.0 && r2 > 0.9,
        "E1 shape gate: linear fit of skew vs n has slope {slope} and r² {r2}, \
         must be > 0 and > 0.9"
    );
}

/// Renders the paper-vs-measured table.
pub fn render(outcome: &Outcome) -> Table {
    let mut t = Table::new(
        "E1 / Theorem 6.9 — global skew vs n (path, split drift, max delays)",
        &[
            "n",
            "G(n) bound",
            "measured peak",
            "measured/bound",
            "violations",
        ],
    );
    for p in &outcome.points {
        t.row(&[
            p.n.to_string(),
            format!("{:.2}", p.bound),
            format!("{:.2}", p.measured),
            format!("{:.3}", p.measured / p.bound),
            p.violations.to_string(),
        ]);
    }
    t
}

/// E1 behind the [`Scenario`](crate::scenario::Scenario) surface.
#[derive(Clone, Debug, Default)]
pub struct Experiment {
    /// Sweep configuration.
    pub config: Config,
}

impl crate::scenario::Scenario for Experiment {
    fn id(&self) -> &'static str {
        "E1"
    }
    fn title(&self) -> &'static str {
        "global skew vs n (path, split drift, max delays)"
    }
    fn claim(&self) -> &'static str {
        "Theorem 6.9 — global skew ≤ G(n), linear in n"
    }
    fn family(&self) -> crate::scenario::ScenarioFamily {
        crate::scenario::ScenarioFamily::Claim
    }
    fn run_scenario(&self) -> crate::scenario::ScenarioReport {
        let out = run(&self.config);
        check(&out);
        let mut rep = crate::scenario::ScenarioReport::new();
        rep.table(render(&out));
        let (slope, intercept, r2) = out.fit;
        rep.note(format!(
            "linear fit of measured skew vs n: slope {slope:.4}, intercept {intercept:.3}, \
             r^2 {r2:.4}"
        ));
        rep.csv(
            "e1_global_skew.csv",
            &["n", "bound", "measured"],
            out.points
                .iter()
                .map(|p| vec![p.n as f64, p.bound, p.measured])
                .collect(),
        );
        rep
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_sweep_respects_bound_and_is_linear() {
        let config = Config {
            ns: vec![8, 16, 32],
            ..Config::default()
        };
        check(&run(&config));
    }

    /// An outcome that passes every gate: skew `n/8` under `G(n) = n`,
    /// exactly linear.
    fn passing() -> Outcome {
        let point = |n: usize| Point {
            n,
            measured: n as f64 / 8.0,
            bound: n as f64,
            violations: 0,
        };
        Outcome {
            points: vec![point(8), point(16)],
            fit: (0.125, 0.0, 1.0),
        }
    }

    #[test]
    fn monitor_gate_rejects_a_violation() {
        check(&passing());
        let mut out = passing();
        out.points[1].violations = 2;
        crate::assert_gate_fails(
            "E1 monitor gate at n = 16: 2 invariant violations, must be 0",
            || check(&out),
        );
    }

    #[test]
    fn bound_gate_rejects_skew_outside_zero_to_g() {
        for measured in [16.5, 0.0] {
            let mut out = passing();
            out.points[1].measured = measured;
            crate::assert_gate_fails(
                &format!(
                    "E1 bound gate at n = 16: measured skew {measured} outside (0, G(n) = 16]"
                ),
                || check(&out),
            );
        }
    }

    #[test]
    fn shape_gate_rejects_a_flat_or_scattered_fit() {
        for (slope, r2) in [(0.0, 1.0), (0.125, 0.5)] {
            let mut out = passing();
            out.fit = (slope, 0.0, r2);
            crate::assert_gate_fails(
                &format!("E1 shape gate: linear fit of skew vs n has slope {slope} and r² {r2}"),
                || check(&out),
            );
        }
    }
}
