//! E15 — the fault-and-adversary scenario family.
//!
//! Three sub-families stress what E1–E13 deliberately keep clean:
//!
//! * **Fault recovery** — a path network under a typed [`FaultPlan`]:
//!   two crash/restart cycles with full state loss, a global message-loss
//!   window, and a delay spike pinned to the model bound `T`. The paper's
//!   analysis assumes none of these; the experiment measures how far the
//!   execution departs (peak global skew) and how quickly the gradient
//!   protocol re-enters the Theorem 6.9 envelope after the last restart.
//! * **Adversarial chords** — the empirical companion to Theorem 4.1:
//!   [`greedy_worst_case`] searches chord placement and timing on the
//!   two-island path whose halves drift apart at the full model rate
//!   ([`DriftModel::FastUpTo`]), maximizing the peak *local* skew the
//!   moment distant clocks become neighbors. The score is compared
//!   against the best well-behaved workload (the E2/E7 cluster merge) at
//!   the same `n`: the searched attack must dominate, because the
//!   adversary also *chooses* the bridging instant the merge fixes.
//! * **Negative control** — a drift excursion pushes one node's observed
//!   hardware rate *outside* `[1−ρ, 1+ρ]`, deliberately breaking the
//!   model assumption. The run is correct only if the
//!   [`InvariantMonitor`] trips (max-rate, Property 6.7): a monitor that
//!   stays silent here would be vacuous, so E15 fails closed on a clean
//!   report.
//!
//! All three run under the engine's canonical event order, so every
//! number is bit-identical at any worker count — pinned by
//! `crates/bench/tests/faults.rs`.

use crate::engine_bench::smoke_n;
use crate::scenario::{merge, ScenarioFamily, ScenarioReport};
use gcs_analysis::Recorder;
use gcs_clocks::time::at;
use gcs_clocks::DriftModel;
use gcs_core::{AlgoParams, GradientNode, InvariantMonitor};
use gcs_net::{
    adversarial_churn, generators, greedy_worst_case, BridgeAttack, Edge, ScheduleSource,
    TopologySchedule,
};
use gcs_sim::{DelayStrategy, FaultEvent, FaultPlan, ModelParams, SimBuilder, Simulator};

/// E15 configuration.
#[derive(Clone, Debug)]
pub struct Config {
    /// Node count of the fault and adversary families.
    pub n: usize,
    /// Real-time horizon per run.
    pub horizon: f64,
    /// Model parameters.
    pub model: ModelParams,
    /// Subjective resend interval.
    pub delta_h: f64,
    /// Sampling interval for skew trajectories and the monitor.
    pub sample_dt: f64,
    /// Hill-climb refinement rounds of the adversary search.
    pub refine_steps: usize,
}

impl Default for Config {
    /// The headline run, shrunk to `GCS_SMOKE_N` nodes when that is set
    /// ([`smoke_n`]).
    fn default() -> Self {
        Config {
            n: smoke_n(64),
            horizon: 600.0,
            model: ModelParams::new(0.05, 1.0, 2.0),
            delta_h: 0.5,
            sample_dt: 1.0,
            refine_steps: 4,
        }
    }
}

impl Config {
    fn params(&self) -> AlgoParams {
        AlgoParams::with_minimal_b0(self.model, self.n, self.delta_h)
    }
}

/// The fault plan of the recovery family: two crash/restart cycles, one
/// global loss window, one delay spike at the model bound `T`. All times
/// scale with the horizon so smoke runs exercise every fault kind.
pub fn recovery_plan(config: &Config) -> FaultPlan {
    let h = config.horizon;
    let quarter = config.n / 4;
    let half = config.n / 2;
    FaultPlan::new(vec![
        FaultEvent::crash(0.20 * h, gcs_net::node(quarter)),
        FaultEvent::restart(0.30 * h, gcs_net::node(quarter)),
        FaultEvent::crash(0.45 * h, gcs_net::node(half)),
        FaultEvent::restart(0.55 * h, gcs_net::node(half)),
        FaultEvent::drop_window(0.60 * h, 0.05 * h),
        FaultEvent::delay_spike(0.70 * h, config.model.t, 0.05 * h),
    ])
}

/// Outcome of the fault-recovery family.
#[derive(Clone, Debug)]
pub struct FaultOutcome {
    /// Peak global skew over the sampled trajectory.
    pub peak_global: f64,
    /// Global skew at the horizon.
    pub final_global: f64,
    /// Real time from the last restart until global skew re-entered the
    /// Theorem 6.9 envelope `G(n)` (`None` if it never did).
    pub recovery_s: Option<f64>,
    /// Fault-plane counters from the engine.
    pub crashes: u64,
    /// Restarts applied.
    pub restarts: u64,
    /// Deliveries lost to crashed nodes plus loss windows.
    pub dropped: u64,
    /// Sends whose delay was overridden by the spike window.
    pub delay_spiked: u64,
    /// Total events dispatched.
    pub events: u64,
}

/// Outcome of the adversary family.
#[derive(Clone, Debug)]
pub struct AdversaryOutcome {
    /// The attack the greedy search settled on.
    pub attack: BridgeAttack,
    /// Peak local skew under that attack.
    pub peak_local: f64,
    /// Peak local skew of the best well-behaved workload (cluster merge)
    /// at the same `n` — the yardstick the attack must beat.
    pub baseline_peak_local: f64,
    /// Candidates (including refinements) the search evaluated.
    pub evaluations: usize,
}

/// Outcome of the negative-control family.
#[derive(Clone, Debug)]
pub struct ControlOutcome {
    /// Monitor violations recorded (must be `> 0`).
    pub violations: u64,
    /// First violation, for the report.
    pub first_violation: Option<String>,
}

/// All three family outcomes.
#[derive(Clone, Debug)]
pub struct Outcomes {
    /// Crash/restart + windows family.
    pub fault: FaultOutcome,
    /// Worst-case chord family.
    pub adversary: AdversaryOutcome,
    /// Drift-excursion negative control.
    pub control: ControlOutcome,
}

fn path_sim(config: &Config, faults: Option<FaultPlan>) -> Simulator<GradientNode> {
    let params = config.params();
    let schedule = TopologySchedule::static_graph(config.n, generators::path(config.n));
    let mut builder = SimBuilder::topology(config.model, ScheduleSource::new(schedule))
        .drift_model(DriftModel::SplitExtremes, config.horizon)
        .delay(DelayStrategy::Max);
    if let Some(plan) = faults {
        builder = builder.faults(plan);
    }
    builder.build_with(move |_| GradientNode::new(params))
}

/// Runs the fault-recovery family.
pub fn run_fault(config: &Config) -> FaultOutcome {
    let mut sim = path_sim(config, Some(recovery_plan(config)));
    let mut rec = Recorder::new(config.sample_dt);
    rec.run(&mut sim, at(config.horizon));
    let g = config.params().global_skew_bound();
    let last_restart = 0.55 * config.horizon;
    let peak_global = rec
        .samples()
        .iter()
        .map(|s| s.global_skew)
        .fold(0.0, f64::max);
    let final_global = rec.samples().last().map(|s| s.global_skew).unwrap_or(0.0);
    let recovery_s = rec
        .samples()
        .iter()
        .find(|s| s.t >= last_restart && s.global_skew <= g)
        .map(|s| s.t - last_restart);
    let stats = sim.stats();
    FaultOutcome {
        peak_global,
        final_global,
        recovery_s,
        crashes: stats.crashes,
        restarts: stats.restarts,
        dropped: stats.dropped_crashed + stats.dropped_fault_window,
        delay_spiked: stats.delay_spiked,
        events: stats.events_processed,
    }
}

/// Peak local skew of the gradient protocol under one chord attack on
/// the two-island path whose left island runs fast
/// ([`DriftModel::FastUpTo`]).
pub fn attack_peak_local(config: &Config, attack: BridgeAttack) -> f64 {
    let params = config.params();
    let source = ScheduleSource::new(adversarial_churn(config.n, &[attack]));
    let mut sim = SimBuilder::topology(config.model, source)
        .drift_model(DriftModel::FastUpTo(config.n / 2), config.horizon)
        .delay(DelayStrategy::Max)
        .build_with(move |_| GradientNode::new(params));
    let mut rec = Recorder::new(config.sample_dt);
    rec.run(&mut sim, at(config.horizon));
    rec.peak_local_skew()
}

/// Peak local skew of the best *well-behaved* workload at the same `n`:
/// the E2/E7 cluster merge, bridged mid-run.
pub fn baseline_peak_local(config: &Config) -> f64 {
    let params = config.params();
    let m = merge(config.n, config.model, 0.5 * config.horizon);
    let mut sim = SimBuilder::topology(config.model, ScheduleSource::new(m.schedule))
        .drift(gcs_clocks::ScheduleDrift::new(m.clocks))
        .delay(DelayStrategy::Max)
        .build_with(move |_| GradientNode::new(params));
    let mut rec = Recorder::new(config.sample_dt);
    rec.run(&mut sim, at(config.horizon));
    rec.peak_local_skew()
}

/// The candidate attacks the greedy search starts from: three chord
/// spans (full path, half path, middle half) × three insertion times.
pub fn candidate_attacks(config: &Config) -> Vec<BridgeAttack> {
    let n = config.n;
    let edges = [
        Edge::between(0, n - 1),
        Edge::between(0, n / 2),
        Edge::between(n / 4, 3 * n / 4),
    ];
    let times = [0.3, 0.5, 0.7].map(|f| f * config.horizon);
    let mut out = Vec::new();
    for e in edges {
        for t in times {
            out.push(BridgeAttack::permanent(t, e));
        }
    }
    out
}

/// Runs the adversary family: greedy worst-case search vs the merge
/// baseline.
pub fn run_adversary(config: &Config) -> AdversaryOutcome {
    let mut evaluations = 0;
    let (attack, peak_local) =
        greedy_worst_case(candidate_attacks(config), config.refine_steps, |a| {
            evaluations += 1;
            attack_peak_local(config, a)
        });
    AdversaryOutcome {
        attack,
        peak_local,
        baseline_peak_local: baseline_peak_local(config),
        evaluations,
    }
}

/// Runs the negative control: a 16-node ring with one node's observed
/// rate warped far outside `[1−ρ, 1+ρ]` mid-run. The invariant monitor
/// must trip (max-rate, Property 6.7) — silence is the failure mode.
pub fn run_control(config: &Config) -> ControlOutcome {
    let n = 16;
    let params = AlgoParams::with_minimal_b0(config.model, n, config.delta_h);
    let horizon = 120.0_f64.min(config.horizon);
    let schedule = TopologySchedule::static_graph(n, generators::ring(n));
    // Rate delta +1.0 doubles node 0's observed rate for a sixth of the
    // run — far beyond 1+ρ, so Lmax grows at a rate the monitor rejects.
    let plan = FaultPlan::new(vec![FaultEvent::drift_excursion(
        0.4 * horizon,
        gcs_net::node(0),
        1.0,
        horizon / 6.0,
    )]);
    let mut sim = SimBuilder::topology(config.model, ScheduleSource::new(schedule))
        .drift_model(DriftModel::Perfect, horizon)
        .delay(DelayStrategy::Max)
        .faults(plan)
        .build_with(move |_| GradientNode::new(params));
    let mut rec = Recorder::new(config.sample_dt).with_monitor(InvariantMonitor::new(params));
    rec.run(&mut sim, at(horizon));
    let monitor = rec.monitor().expect("monitor attached");
    ControlOutcome {
        violations: monitor.violations().len() as u64,
        first_violation: monitor
            .violations()
            .first()
            .map(|v| format!("t={:.1}: {}", v.time.seconds(), v.what)),
    }
}

/// Runs all three families.
pub fn run(config: &Config) -> Outcomes {
    Outcomes {
        fault: run_fault(config),
        adversary: run_adversary(config),
        control: run_control(config),
    }
}

/// E15's fail-closed gates: the negative control tripped the invariant
/// monitor (a silent monitor would make every green report vacuous),
/// the searched attack dominates the well-behaved merge baseline, and
/// every crash was followed by its restart.
///
/// # Panics
/// On the first gate that fails, naming it and its values.
pub fn check(out: &Outcomes) {
    assert!(
        out.control.violations > 0,
        "E15 negative-control gate: the drift excursion left the invariant monitor silent"
    );
    let a = &out.adversary;
    assert!(
        a.peak_local >= a.baseline_peak_local,
        "E15 adversary gate: the searched attack ({:.3}) must dominate the well-behaved \
         merge baseline ({:.3})",
        a.peak_local,
        a.baseline_peak_local
    );
    assert_eq!(
        out.fault.crashes, out.fault.restarts,
        "E15 crash-restart gate: {} crashes but {} restarts",
        out.fault.crashes, out.fault.restarts
    );
}

/// Renders the outcomes into a scenario report after [`check`] passes.
pub fn report(config: &Config, out: &Outcomes) -> ScenarioReport {
    check(out);
    let mut rep = ScenarioReport::new();
    let g = config.params().global_skew_bound();
    let mut t = gcs_analysis::Table::new(
        format!("E15 fault & adversary families (n = {})", config.n),
        &["family", "metric", "value"],
    );
    t.row(&[
        "fault".into(),
        "peak global skew".into(),
        format!("{:.2}", out.fault.peak_global),
    ]);
    t.row(&[
        "fault".into(),
        "final global skew".into(),
        format!("{:.2} (G(n) = {:.2})", out.fault.final_global, g),
    ]);
    t.row(&[
        "fault".into(),
        "recovery after last restart".into(),
        out.fault
            .recovery_s
            .map(|s| format!("{s:.1}s"))
            .unwrap_or_else(|| "never".into()),
    ]);
    t.row(&[
        "adversary".into(),
        "worst attack".into(),
        format!(
            "chord {:?} at t = {:.1}",
            out.adversary.attack.edge, out.adversary.attack.time
        ),
    ]);
    t.row(&[
        "adversary".into(),
        "peak local skew".into(),
        format!(
            "{:.2} (merge baseline {:.2})",
            out.adversary.peak_local, out.adversary.baseline_peak_local
        ),
    ]);
    t.row(&[
        "control".into(),
        "monitor violations".into(),
        format!("{} (must be > 0)", out.control.violations),
    ]);
    rep.table(t);
    rep.note(format!(
        "fault plane: {} crashes, {} restarts, {} deliveries dropped, {} sends spiked over {} events \
         (horizon {}s)",
        out.fault.crashes, out.fault.restarts, out.fault.dropped, out.fault.delay_spiked,
        out.fault.events, config.horizon
    ));
    rep.note(format!(
        "adversary search: {} evaluations ({} refinement rounds); attack peak {:.2} >= \
         merge baseline {:.2}: {}",
        out.adversary.evaluations,
        config.refine_steps,
        out.adversary.peak_local,
        out.adversary.baseline_peak_local,
        out.adversary.peak_local >= out.adversary.baseline_peak_local
    ));
    if let Some(v) = &out.control.first_violation {
        rep.note(format!("negative control tripped as required: {v}"));
    }
    rep.csv(
        "e15_faults.csv",
        &["family", "peak", "final_or_baseline"],
        vec![
            vec![0.0, out.fault.peak_global, out.fault.final_global],
            vec![
                1.0,
                out.adversary.peak_local,
                out.adversary.baseline_peak_local,
            ],
            vec![2.0, out.control.violations as f64, 0.0],
        ],
    );
    rep
}

/// E15 behind the [`Scenario`](crate::scenario::Scenario) surface.
#[derive(Clone, Debug, Default)]
pub struct Experiment {
    /// Family configuration.
    pub config: Config,
}

impl crate::scenario::Scenario for Experiment {
    fn id(&self) -> &'static str {
        "E15"
    }
    fn title(&self) -> &'static str {
        "fault & adversary families (crash/restart, loss, spikes, worst-case chords)"
    }
    fn claim(&self) -> &'static str {
        "Theorem 4.1 (adversarial chord skew) + fail-closed model-violation detection"
    }
    fn family(&self) -> ScenarioFamily {
        ScenarioFamily::Fault
    }
    fn run_scenario(&self) -> ScenarioReport {
        let out = run(&self.config);
        report(&self.config, &out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Config {
        Config {
            n: 16,
            horizon: 120.0,
            refine_steps: 1,
            ..Config::default()
        }
    }

    #[test]
    fn fault_family_recovers_into_the_envelope() {
        let out = run_fault(&small());
        assert_eq!(out.crashes, 2);
        assert_eq!(out.restarts, 2);
        assert!(out.delay_spiked > 0, "spike window must override delays");
        assert!(
            out.recovery_s.is_some(),
            "global skew must re-enter G(n) after the last restart (peak {:.2}, final {:.2})",
            out.peak_global,
            out.final_global
        );
    }

    #[test]
    fn adversary_beats_the_well_behaved_baseline() {
        let config = small();
        let out = run_adversary(&config);
        assert!(
            out.peak_local >= out.baseline_peak_local,
            "searched attack ({:.3}) must dominate the merge baseline ({:.3})",
            out.peak_local,
            out.baseline_peak_local
        );
        assert!(out.evaluations >= candidate_attacks(&config).len());
    }

    /// Turns a passing outcome into one that fails a single gate.
    type Doctor = fn(&mut Outcomes);

    #[test]
    fn each_gate_rejects_its_doctored_outcome() {
        let outcomes = |doctor: Doctor| {
            let mut out = Outcomes {
                fault: FaultOutcome {
                    peak_global: 0.0,
                    final_global: 0.0,
                    recovery_s: None,
                    crashes: 2,
                    restarts: 2,
                    dropped: 0,
                    delay_spiked: 0,
                    events: 0,
                },
                adversary: AdversaryOutcome {
                    attack: BridgeAttack::permanent(1.0, Edge::between(0, 1)),
                    peak_local: 2.0,
                    baseline_peak_local: 1.0,
                    evaluations: 1,
                },
                control: ControlOutcome {
                    violations: 1,
                    first_violation: None,
                },
            };
            doctor(&mut out);
            out
        };
        check(&outcomes(|_| {}));
        let cases: [(&str, Doctor); 3] = [
            (
                "E15 negative-control gate: the drift excursion left the invariant monitor silent",
                |o| o.control.violations = 0,
            ),
            (
                "E15 adversary gate: the searched attack (0.500) must dominate the \
                 well-behaved merge baseline (1.000)",
                |o| o.adversary.peak_local = 0.5,
            ),
            ("E15 crash-restart gate: 2 crashes but 1 restarts", |o| {
                o.fault.restarts = 1
            }),
        ];
        for (expected, doctor) in cases {
            let out = outcomes(doctor);
            crate::assert_gate_fails(expected, || check(&out));
        }
    }

    #[test]
    fn negative_control_trips_the_monitor() {
        let out = run_control(&small());
        assert!(
            out.violations > 0,
            "a drift excursion outside [1-rho, 1+rho] must trip the invariant monitor"
        );
    }
}
