//! E6 — Lemma 6.8 (Max Propagation): under `(T+D)`-interval connectivity,
//! `Lmax(t) − Lmax_u(t) ≤ ((1+ρ)T + 2ρD)(n−1)` for every node `u` — even
//! when the topology never stabilizes.
//!
//! We run the algorithm on a rotating star (every edge lives only a little
//! longer than `T+D`) and on a staggered ring, track the worst estimate
//! gap over time, and compare with the lemma's bound.

use gcs_analysis::{parallel_map, Table};
use gcs_clocks::time::at;
use gcs_clocks::{DriftModel, Duration};
use gcs_core::{AlgoParams, GradientNode};
use gcs_net::{churn, connectivity, node, ScheduleSource};
use gcs_sim::{DelayStrategy, ModelParams, SimBuilder};

/// Which churn pattern to use.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Churn {
    /// Star whose hub migrates continuously.
    RotatingStar,
    /// Ring whose edges take turns failing.
    StaggeredRing,
}

/// Configuration for E6.
#[derive(Clone, Debug)]
pub struct Config {
    /// Node counts to sweep.
    pub ns: Vec<usize>,
    /// Churn pattern.
    pub churn: Churn,
    /// Model parameters.
    pub model: ModelParams,
    /// Subjective resend interval.
    pub delta_h: f64,
    /// Run length.
    pub horizon: f64,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            ns: vec![8, 16, 32],
            churn: Churn::RotatingStar,
            model: ModelParams::new(0.01, 1.0, 2.0),
            delta_h: 0.5,
            horizon: 400.0,
        }
    }
}

/// One sweep point.
#[derive(Clone, Debug)]
pub struct Point {
    /// Node count.
    pub n: usize,
    /// Worst estimate gap `max_u (Lmax − Lmax_u)` observed.
    pub worst_gap: f64,
    /// The Lemma 6.8 bound `((1+ρ)T + 2ρD)(n−1)`.
    pub bound: f64,
    /// Whether the generated schedule was verified `(T+D)`-interval
    /// connected.
    pub interval_connected: bool,
}

/// Runs the sweep (parallel over `n`).
pub fn run(config: &Config) -> Vec<Point> {
    parallel_map(&config.ns, |&n| {
        let schedule = match config.churn {
            Churn::RotatingStar => {
                // Overlap just above T+D keeps the schedule
                // (T+D)-interval connected while every edge is short-lived.
                let overlap = config.model.t + config.model.d + 1.0;
                churn::rotating_star(n, 2.5 * overlap, overlap, config.horizon)
            }
            Churn::StaggeredRing => churn::staggered_ring(
                n,
                2.0 * (config.model.t + config.model.d),
                config.model.t,
                5.0,
                config.horizon,
            ),
        };
        let interval_connected = connectivity::is_interval_connected(
            &schedule,
            Duration::new(config.model.t + config.model.d),
            at(config.horizon),
        );
        let params = AlgoParams::with_minimal_b0(config.model, n, config.delta_h);
        let mut sim = SimBuilder::topology(config.model, ScheduleSource::new(schedule))
            .drift_model(DriftModel::SplitExtremes, config.horizon)
            .delay(DelayStrategy::Max)
            .build_with(|_| GradientNode::new(params));
        let mut worst_gap: f64 = 0.0;
        let mut t = 0.0;
        while t < config.horizon {
            t += 2.0;
            sim.run_until(at(t));
            let estimates: Vec<f64> = (0..n).map(|i| sim.max_estimate_of(node(i))).collect();
            let lmax = estimates.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let min = estimates.iter().cloned().fold(f64::INFINITY, f64::min);
            worst_gap = worst_gap.max(lmax - min);
        }
        Point {
            n,
            worst_gap,
            bound: params.global_skew_bound(),
            interval_connected,
        }
    })
}

/// Renders the sweep table.
pub fn render(points: &[Point], churn: Churn) -> Table {
    let mut t = Table::new(
        format!("E6 / Lemma 6.8 — max-estimate propagation under churn ({churn:?})"),
        &[
            "n",
            "worst gap",
            "bound",
            "gap/bound",
            "(T+D)-interval connected",
        ],
    );
    for p in points {
        t.row(&[
            p.n.to_string(),
            format!("{:.3}", p.worst_gap),
            format!("{:.2}", p.bound),
            format!("{:.3}", p.worst_gap / p.bound),
            p.interval_connected.to_string(),
        ]);
    }
    t
}

/// E6 behind the [`Scenario`](crate::scenario::Scenario) surface; runs
/// both churn regimes of the experiment.
#[derive(Clone, Debug, Default)]
pub struct Experiment {
    /// Base configuration (the churn field is overridden per regime).
    pub config: Config,
}

impl crate::scenario::Scenario for Experiment {
    fn id(&self) -> &'static str {
        "E6"
    }
    fn title(&self) -> &'static str {
        "max-estimate propagation under rotating-star and staggered-ring churn"
    }
    fn claim(&self) -> &'static str {
        "Lemma 6.8 — Lmax reaches every node within the propagation window"
    }
    fn family(&self) -> crate::scenario::ScenarioFamily {
        crate::scenario::ScenarioFamily::Claim
    }
    fn run_scenario(&self) -> crate::scenario::ScenarioReport {
        let mut rep = crate::scenario::ScenarioReport::new();
        for churn in [Churn::RotatingStar, Churn::StaggeredRing] {
            let config = Config {
                churn,
                ..self.config.clone()
            };
            let points = run(&config);
            rep.table(render(&points, churn));
        }
        rep
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimate_gap_bounded_on_rotating_star() {
        let config = Config {
            ns: vec![8, 16],
            horizon: 200.0,
            ..Config::default()
        };
        let points = run(&config);
        for p in &points {
            assert!(p.interval_connected, "n={}: churn schedule broken", p.n);
            assert!(
                p.worst_gap <= p.bound,
                "n={}: gap {} exceeds bound {}",
                p.n,
                p.worst_gap,
                p.bound
            );
            assert!(p.worst_gap > 0.0);
        }
    }

    #[test]
    fn estimate_gap_bounded_on_staggered_ring() {
        let config = Config {
            ns: vec![8],
            churn: Churn::StaggeredRing,
            horizon: 150.0,
            ..Config::default()
        };
        let points = run(&config);
        assert!(points[0].interval_connected);
        assert!(points[0].worst_gap <= points[0].bound);
    }
}
