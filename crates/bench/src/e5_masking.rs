//! E5 — Lemma 4.2 (the Masking Lemma): at any time
//! `t > T·d·(1 + 1/ρ)`, the adversary can have built skew
//! `≥ T·d/4` between nodes at flexible distance `d`, while every delay —
//! including on the constrained (masked) links — stays legal.
//!
//! We sweep the flexible distance on a masked path, run the real algorithm
//! under the β adversary, measure the skew, and numerically verify the
//! legality of every delay the adversary would assign (the four-case
//! analysis of the lemma's Part II) on the same `gcs_sim::delay` formulas
//! the engine runs. [`check`] gates both: a violation at any distance
//! panics.

use gcs_analysis::{parallel_map, Table};
use gcs_clocks::time::at;
use gcs_clocks::ScheduleDrift;
use gcs_core::{AlgoParams, GradientNode};
use gcs_lowerbound::mask::{flexible_layers, DelayMask};
use gcs_lowerbound::masking;
use gcs_net::{generators, node, ScheduleSource, TopologySchedule};
use gcs_sim::{DelayStrategy, ModelParams, SimBuilder};

/// Configuration for E5.
#[derive(Clone, Debug)]
pub struct Config {
    /// Flexible distances to sweep (path length = d + masked prefix).
    pub distances: Vec<usize>,
    /// Number of constrained (masked) edges prefixed to the path.
    pub masked_prefix: usize,
    /// Model parameters.
    pub model: ModelParams,
    /// Subjective resend interval.
    pub delta_h: f64,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            distances: vec![2, 4, 8, 16],
            masked_prefix: 2,
            model: ModelParams::new(0.01, 1.0, 2.0),
            delta_h: 0.5,
        }
    }
}

/// One sweep point.
#[derive(Clone, Debug)]
pub struct Point {
    /// Flexible distance `d = dist_M(u, v)`.
    pub d: usize,
    /// Time at which the lemma guarantee applies.
    pub ready_time: f64,
    /// Measured skew in the β execution at that time.
    pub measured: f64,
    /// The bound `T·d/4`.
    pub bound: f64,
    /// Delay-legality violations found by the Part II checker (must be 0).
    pub legality_violations: usize,
}

/// Runs the sweep (parallel over distances).
pub fn run(config: &Config) -> Vec<Point> {
    parallel_map(&config.distances, |&d| {
        let n = config.masked_prefix + d + 1;
        let edges = generators::path(n);
        // Constrain the first `masked_prefix` edges at delay T.
        let mask = DelayMask::uniform(
            edges.iter().copied().take(config.masked_prefix),
            config.model.t,
        );
        let u = node(0);
        let v = node(n - 1);
        let layers = flexible_layers(n, edges.clone(), &mask, u);
        assert_eq!(layers[v.index()], d);

        // Numerically verify the Part II case analysis across all ramp
        // phases.
        let ready = masking::lemma42_ready_time(d, config.model.t, config.model.rho);
        let send_times: Vec<f64> = (0..600).map(|i| i as f64 * ready / 500.0).collect();
        let violations = masking::verify_beta_legality(
            &edges,
            &layers,
            &mask,
            config.model.rho,
            config.model.t,
            0.0,
            &send_times,
        );

        // Run the β execution against the real algorithm.
        let params = AlgoParams::with_minimal_b0(config.model, n, config.delta_h);
        let clocks = layers
            .iter()
            .map(|&j| {
                gcs_clocks::HardwareClock::new(
                    gcs_clocks::drift::layered_beta(j, config.model.rho, config.model.t),
                    config.model.rho,
                )
            })
            .collect();
        let mut sim = SimBuilder::topology(
            config.model,
            ScheduleSource::new(TopologySchedule::static_graph(n, edges)),
        )
        .drift(ScheduleDrift::new(clocks))
        .delay(DelayStrategy::BetaLayered {
            layer: layers,
            constrained: mask.pattern().clone(),
            rho: config.model.rho,
            intra: 0.0,
        })
        .build_with(|_| GradientNode::new(params));
        sim.run_until(at(ready + 10.0));
        Point {
            d,
            ready_time: ready,
            measured: (sim.logical(u) - sim.logical(v)).abs(),
            bound: masking::lemma42_skew_bound(d, config.model.t),
            legality_violations: violations.len(),
        }
    })
}

/// E5's fail-closed gates (Lemma 4.2) at every swept distance `d`: the
/// Part II checker finds no illegal delay, and the β execution has built
/// a measured skew of at least `T·d/4`.
///
/// # Panics
/// On the first gate that fails, naming the distance, the gate and its
/// values.
pub fn check(points: &[Point]) {
    for p in points {
        assert!(
            p.legality_violations == 0,
            "E5 legality gate at d = {}: {} illegal delays, must be 0",
            p.d,
            p.legality_violations
        );
        assert!(
            p.measured >= p.bound,
            "E5 skew gate at d = {}: measured skew {} below the T·d/4 bound {}",
            p.d,
            p.measured,
            p.bound
        );
    }
}

/// Renders the sweep table.
pub fn render(points: &[Point]) -> Table {
    let mut t = Table::new(
        "E5 / Lemma 4.2 — masked skew buildup vs flexible distance",
        &[
            "dist_M(u,v)",
            "ready time",
            "measured skew",
            "T·d/4 bound",
            "measured/bound",
            "illegal delays",
        ],
    );
    for p in points {
        t.row(&[
            p.d.to_string(),
            format!("{:.0}", p.ready_time),
            format!("{:.2}", p.measured),
            format!("{:.2}", p.bound),
            format!("{:.2}", p.measured / p.bound),
            p.legality_violations.to_string(),
        ]);
    }
    t
}

/// E5 behind the [`Scenario`](crate::scenario::Scenario) surface.
#[derive(Clone, Debug, Default)]
pub struct Experiment {
    /// Masking-lemma configuration.
    pub config: Config,
}

impl crate::scenario::Scenario for Experiment {
    fn id(&self) -> &'static str {
        "E5"
    }
    fn title(&self) -> &'static str {
        "skew built by legal delay masking on a chain"
    }
    fn claim(&self) -> &'static str {
        "Lemma 4.2 (Masking Lemma) — ≥ T·d/4 skew with legal delays"
    }
    fn family(&self) -> crate::scenario::ScenarioFamily {
        crate::scenario::ScenarioFamily::Claim
    }
    fn run_scenario(&self) -> crate::scenario::ScenarioReport {
        let points = run(&self.config);
        check(&points);
        let mut rep = crate::scenario::ScenarioReport::new();
        rep.table(render(&points));
        rep
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masked_skew_meets_lemma_bound() {
        let config = Config {
            distances: vec![2, 4, 8],
            ..Config::default()
        };
        let points = run(&config);
        check(&points);
        // Shape: skew grows with flexible distance.
        assert!(points[2].measured > points[0].measured);
    }

    #[test]
    fn each_gate_rejects_its_doctored_point() {
        // Two points that pass both gates; the second is doctored.
        let point = |d: usize| Point {
            d,
            ready_time: 101.0 * d as f64,
            measured: d as f64,
            bound: 0.25 * d as f64,
            legality_violations: 0,
        };
        check(&[point(2), point(4)]);
        let illegal = Point {
            legality_violations: 3,
            ..point(4)
        };
        crate::assert_gate_fails(
            "E5 legality gate at d = 4: 3 illegal delays, must be 0",
            || check(&[point(2), illegal]),
        );
        let short = Point {
            measured: 0.5,
            ..point(4)
        };
        crate::assert_gate_fails(
            "E5 skew gate at d = 4: measured skew 0.5 below the T·d/4 bound 1",
            || check(&[point(2), short]),
        );
    }
}
