//! E2 — Corollary 6.13: the dynamic local skew function.
//!
//! Two clusters drift apart for `t_bridge` time, then a bridge edge joins
//! them, carrying skew `≈ 2ρ·t_bridge` (the cluster-merge scenario, see
//! [`crate::scenario`]). We sample the bridge skew as a function of edge
//! age and compare against the paper's envelope
//! `s(n, Δt) = B((1−ρ)(Δt − ΔT − D − W)⁺) + 2ρW`, while also tracking the
//! worst *old*-edge skew — which must stay within the stable bound
//! throughout (the gradient property).

use crate::scenario;
use gcs_analysis::Table;
use gcs_clocks::time::at;
use gcs_clocks::ScheduleDrift;
use gcs_core::{AlgoParams, GradientNode};
use gcs_net::ScheduleSource;
use gcs_sim::{DelayStrategy, ModelParams, SimBuilder};

/// Configuration for E2.
#[derive(Clone, Debug)]
pub struct Config {
    /// Number of nodes (two clusters of `n/2`).
    pub n: usize,
    /// Model parameters (high drift recommended so skew accumulates
    /// quickly).
    pub model: ModelParams,
    /// Subjective resend interval.
    pub delta_h: f64,
    /// Target skew on the bridge at formation (sets `t_bridge`; capped
    /// in spirit by `B(0) > 5·G(n)` so the envelope stays honest).
    pub target_skew: f64,
    /// Sampling cadence after the bridge.
    pub sample_dt: f64,
    /// How many stabilization windows `W` to observe.
    pub windows: f64,
    /// Engine worker count (`None` = engine default). Traces — and
    /// therefore the whole report — are identical for every value.
    pub threads: Option<usize>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            n: 48,
            model: ModelParams::new(0.05, 1.0, 2.0),
            delta_h: 0.5,
            target_skew: 60.0,
            sample_dt: 2.0,
            windows: 2.0,
            threads: None,
        }
    }
}

/// One sampled point of the decay curve.
#[derive(Clone, Debug)]
pub struct DecayPoint {
    /// Edge age `Δt` (real time since the bridge appeared).
    pub age: f64,
    /// Measured bridge skew.
    pub bridge_skew: f64,
    /// The envelope `s(n, Δt)`.
    pub bound: f64,
    /// Worst skew over the old edges at this instant.
    pub worst_old_edge: f64,
}

/// Result of the decay experiment.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Skew on the bridge at formation.
    pub initial_skew: f64,
    /// Decay curve.
    pub curve: Vec<DecayPoint>,
    /// The stable local skew bound `B0 + 2ρW`.
    pub stable_bound: f64,
    /// Algorithm parameters used.
    pub params: AlgoParams,
}

/// Runs the decay experiment.
pub fn run(config: &Config) -> Outcome {
    let n = config.n;
    let params = AlgoParams::with_minimal_b0(config.model, n, config.delta_h);
    let t_bridge = scenario::t_bridge_for_skew(config.model, config.target_skew);
    let m = scenario::merge(n, config.model, t_bridge);
    let horizon = t_bridge + config.windows * params.w() + 100.0;
    let mut builder = SimBuilder::topology(config.model, ScheduleSource::new(m.schedule.clone()))
        .drift(ScheduleDrift::new(m.clocks.clone()))
        .delay(DelayStrategy::Max);
    if let Some(t) = config.threads {
        builder = builder.threads(t);
    }
    let mut sim = builder.build_with(|_| GradientNode::new(params));

    sim.run_until(at(t_bridge));
    let initial_skew = (sim.logical(m.bridge.lo()) - sim.logical(m.bridge.hi())).abs();

    let mut curve = Vec::new();
    let mut t = t_bridge;
    while t < horizon {
        t = (t + config.sample_dt).min(horizon);
        sim.run_until(at(t));
        let age = t - t_bridge;
        let worst_old_edge = m
            .old_edges
            .iter()
            .map(|e| (sim.logical(e.lo()) - sim.logical(e.hi())).abs())
            .fold(0.0, f64::max);
        curve.push(DecayPoint {
            age,
            bridge_skew: (sim.logical(m.bridge.lo()) - sim.logical(m.bridge.hi())).abs(),
            bound: params.dynamic_local_skew(age),
            worst_old_edge,
        });
    }
    Outcome {
        initial_skew,
        curve,
        stable_bound: params.stable_local_skew(),
        params,
    }
}

/// Renders the decay table (subsampled to ~14 rows).
pub fn render(outcome: &Outcome) -> Table {
    let mut t = Table::new(
        format!(
            "E2 / Corollary 6.13 — bridge-edge skew vs edge age (initial skew {:.1})",
            outcome.initial_skew
        ),
        &[
            "age",
            "bridge skew",
            "s(n, age)",
            "worst old edge",
            "stable bound",
        ],
    );
    let stride = (outcome.curve.len() / 14).max(1);
    for p in outcome.curve.iter().step_by(stride) {
        t.row(&[
            format!("{:.0}", p.age),
            format!("{:.3}", p.bridge_skew),
            format!("{:.3}", p.bound),
            format!("{:.3}", p.worst_old_edge),
            format!("{:.3}", outcome.stable_bound),
        ]);
    }
    t
}

/// E2 behind the [`Scenario`](crate::scenario::Scenario) surface.
#[derive(Clone, Debug, Default)]
pub struct Experiment {
    /// Decay-curve configuration.
    pub config: Config,
}

impl crate::scenario::Scenario for Experiment {
    fn id(&self) -> &'static str {
        "E2"
    }
    fn title(&self) -> &'static str {
        "bridge-edge skew decay vs edge age (cluster merge)"
    }
    fn claim(&self) -> &'static str {
        "Corollary 6.13 — dynamic local skew envelope s(n, Δt)"
    }
    fn family(&self) -> crate::scenario::ScenarioFamily {
        crate::scenario::ScenarioFamily::Claim
    }
    fn run_scenario(&self) -> crate::scenario::ScenarioReport {
        let out = run(&self.config);
        let mut rep = crate::scenario::ScenarioReport::new();
        rep.table(render(&out));
        rep.note(format!(
            "initial bridge skew {:.2}; W = {:.1}, budget settle age = {:.1}, \
             stable bound = {:.3}",
            out.initial_skew,
            out.params.w(),
            out.params.budget_settle_age(),
            out.stable_bound
        ));
        rep.csv(
            "e2_local_skew_decay.csv",
            &["age", "bridge_skew", "envelope", "worst_old_edge"],
            out.curve
                .iter()
                .map(|p| vec![p.age, p.bridge_skew, p.bound, p.worst_old_edge])
                .collect(),
        );
        rep
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decay_respects_envelope_and_old_edges() {
        let config = Config {
            n: 24,
            target_skew: 40.0,
            windows: 1.5,
            ..Config::default()
        };
        let out = run(&config);
        assert!(
            out.initial_skew > 2.0 * out.stable_bound,
            "need substantial skew to decay, got {} vs stable bound {}",
            out.initial_skew,
            out.stable_bound
        );
        for p in &out.curve {
            assert!(
                p.bridge_skew <= p.bound + 1e-6,
                "age {}: skew {} above envelope {}",
                p.age,
                p.bridge_skew,
                p.bound
            );
            assert!(
                p.worst_old_edge <= out.stable_bound + 1e-6,
                "old-edge skew {} above stable bound",
                p.worst_old_edge
            );
        }
        // Shape: the bridge settles to (well below) the stable bound.
        let last = out.curve.last().unwrap();
        assert!(last.bridge_skew <= out.stable_bound + 1e-6);
        assert!(last.bridge_skew < out.initial_skew / 4.0);
    }
}
