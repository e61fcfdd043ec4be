//! E10 — the weighted-graph extension (paper §7 / companion paper \[9\]).
//!
//! Edge weights model per-link delay uncertainty: a tight link (e.g. a
//! reference-broadcast pair) gets weight `w ≪ 1` and its budget floors at
//! `B0·w`. The visible effect appears when budgets bind — during skew
//! absorption — so we run the cluster merge with the *old* edges
//! down-weighted and sweep the weight: peak old-edge skew should scale
//! ≈ linearly with `w`, and closure time inversely (the per-edge
//! Theorem 4.1 tradeoff).

use crate::scenario;
use gcs_analysis::{parallel_map, Table};
use gcs_clocks::time::at;
use gcs_clocks::ScheduleDrift;
use gcs_core::{AlgoParams, GradientNode};
use gcs_net::{node, NodeId, ScheduleSource};
use gcs_sim::{DelayStrategy, ModelParams, SimBuilder};
use std::collections::BTreeMap;

/// Configuration for E10.
#[derive(Clone, Debug)]
pub struct Config {
    /// Nodes in the merge scenario.
    pub n: usize,
    /// Old-edge weights to sweep (the bridge always has weight 1).
    pub weights: Vec<f64>,
    /// Model parameters.
    pub model: ModelParams,
    /// Resend interval.
    pub delta_h: f64,
    /// Target initial bridge skew.
    pub target_skew: f64,
    /// Observation window after the merge.
    pub window: f64,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            n: 16,
            weights: vec![1.0, 0.5, 0.25],
            model: ModelParams::new(0.1, 1.0, 2.0),
            delta_h: 0.5,
            target_skew: 60.0,
            window: 250.0,
        }
    }
}

/// One sweep point.
#[derive(Clone, Debug)]
pub struct Point {
    /// Old-edge weight.
    pub weight: f64,
    /// Effective old-edge budget floor `B0·w`.
    pub floor: f64,
    /// Peak skew on any old edge during the merge wave.
    pub peak_old_edge: f64,
    /// Bridge closure time (below `1.5·B0`), if reached.
    pub closure_time: Option<f64>,
}

/// Runs the weight sweep (parallel).
pub fn run(config: &Config) -> Vec<Point> {
    parallel_map(&config.weights, |&w| {
        let params = AlgoParams::with_minimal_b0(config.model, config.n, config.delta_h);
        let t_bridge = scenario::t_bridge_for_skew(config.model, config.target_skew);
        let m = scenario::merge(config.n, config.model, t_bridge);
        let old_edges = m.old_edges.clone();
        let weights_for = |i: usize| -> BTreeMap<NodeId, f64> {
            old_edges
                .iter()
                .filter(|e| e.touches(node(i)))
                .map(|e| (e.other(node(i)), w))
                .collect()
        };
        let mut sim = SimBuilder::topology(config.model, ScheduleSource::new(m.schedule.clone()))
            .drift(ScheduleDrift::new(m.clocks.clone()))
            .delay(DelayStrategy::Max)
            .build_with(|i| GradientNode::with_weights(params, weights_for(i)));
        sim.run_until(at(t_bridge));
        let mut peak_old: f64 = 0.0;
        let mut closure_time = None;
        let mut t = t_bridge;
        while t < t_bridge + config.window {
            t += 0.5;
            sim.run_until(at(t));
            for e in &old_edges {
                peak_old = peak_old.max((sim.logical(e.lo()) - sim.logical(e.hi())).abs());
            }
            let bridge_skew = (sim.logical(m.bridge.lo()) - sim.logical(m.bridge.hi())).abs();
            if bridge_skew <= 1.5 * params.b0 {
                closure_time.get_or_insert(t - t_bridge);
            } else {
                closure_time = None;
            }
        }
        Point {
            weight: w,
            floor: w * params.b0,
            peak_old_edge: peak_old,
            closure_time,
        }
    })
}

/// Renders the sweep table.
pub fn render(points: &[Point]) -> Table {
    let mut t = Table::new(
        "E10 — weighted edges: old-edge protection vs closure speed",
        &[
            "old-edge weight",
            "budget floor B0·w",
            "peak old-edge skew",
            "closure time",
        ],
    );
    for p in points {
        t.row(&[
            format!("{:.2}", p.weight),
            format!("{:.2}", p.floor),
            format!("{:.2}", p.peak_old_edge),
            p.closure_time
                .map(|c| format!("{c:.1}"))
                .unwrap_or_else(|| "—".into()),
        ]);
    }
    t
}

/// E10 behind the [`Scenario`](crate::scenario::Scenario) surface.
#[derive(Clone, Debug, Default)]
pub struct Experiment {
    /// Weighted-extension configuration.
    pub config: Config,
}

impl crate::scenario::Scenario for Experiment {
    fn id(&self) -> &'static str {
        "E10"
    }
    fn title(&self) -> &'static str {
        "per-edge weighted budgets (reference-broadcast style links)"
    }
    fn claim(&self) -> &'static str {
        "§7 extension — stable skew floors at B0·w per edge"
    }
    fn family(&self) -> crate::scenario::ScenarioFamily {
        crate::scenario::ScenarioFamily::Claim
    }
    fn run_scenario(&self) -> crate::scenario::ScenarioReport {
        let points = run(&self.config);
        let mut rep = crate::scenario::ScenarioReport::new();
        rep.table(render(&points));
        rep
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weight_scales_protection_and_slows_closure() {
        let config = Config::default();
        let points = run(&config);
        assert_eq!(points.len(), 3);
        // Peak old-edge skew decreases with the weight…
        assert!(points[1].peak_old_edge < points[0].peak_old_edge);
        assert!(points[2].peak_old_edge < points[1].peak_old_edge);
        // …and closure slows down.
        let c0 = points[0].closure_time.expect("w=1 closed");
        let c2 = points[2].closure_time.expect("w=0.25 closed");
        assert!(c2 > c0, "closure {c2} should exceed {c0}");
    }
}
