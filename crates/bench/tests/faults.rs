//! Fault-plane regression tests: injections must not cost determinism.
//!
//! Faults join the same canonical `(time, class, seq)` event order as
//! topology changes, so a run with crashes, restarts, loss windows,
//! delay spikes, and adversarial chords must stay *bit-identical* across
//! worker counts and across replays — the fault stream is part of the
//! trace's pure input, not a side channel. Divergence here is a
//! dispatcher bug, never tolerance noise.

use gcs_bench::e15_faults;
use gcs_bench::scenario::Scenario;
use gcs_clocks::time::at;
use gcs_clocks::DriftModel;
use gcs_core::{AlgoParams, GradientNode, InvariantMonitor};
use gcs_net::{
    adversarial_churn, generators, BridgeAttack, Edge, ScheduleSource, TopologySchedule,
};
use gcs_sim::{DelayStrategy, FaultEvent, FaultPlan, ModelParams, SimBuilder, Simulator};

const THREAD_COUNTS: [usize; 2] = [1, 8];

fn model() -> ModelParams {
    ModelParams::new(0.05, 1.0, 2.0)
}

/// A plan exercising every fault kind in one run.
fn full_plan(n: usize, horizon: f64) -> FaultPlan {
    FaultPlan::new(vec![
        FaultEvent::crash(0.15 * horizon, gcs_net::node(n / 3)),
        FaultEvent::restart(0.25 * horizon, gcs_net::node(n / 3)),
        FaultEvent::drop_window(0.30 * horizon, 0.05 * horizon),
        FaultEvent::drop_edge(0.40 * horizon, Edge::between(0, 1), 0.10 * horizon),
        FaultEvent::delay_spike(0.55 * horizon, model().t, 0.05 * horizon),
        FaultEvent::drift_excursion(0.70 * horizon, gcs_net::node(n / 2), 0.5, 0.1 * horizon),
    ])
}

fn faulted_sim(n: usize, horizon: f64, threads: usize) -> Simulator<GradientNode> {
    let m = model();
    let params = AlgoParams::with_minimal_b0(m, n, 0.5);
    let schedule = TopologySchedule::static_graph(n, generators::path(n));
    SimBuilder::topology(m, ScheduleSource::new(schedule))
        .drift_model(DriftModel::SplitExtremes, horizon)
        .delay(DelayStrategy::Uniform { lo: 0.0, hi: 1.0 })
        .seed(4242)
        .threads(threads)
        .faults(full_plan(n, horizon))
        .build_with(move |_| GradientNode::new(params))
}

#[test]
fn faulted_traces_bit_identical_across_thread_counts() {
    // n = 96 crosses the dispatcher's parallel threshold, so worker
    // threads genuinely run; randomized delays make the ordering
    // contract load-bearing.
    let (n, horizon) = (96, 60.0);
    let mut sims: Vec<Simulator<GradientNode>> = THREAD_COUNTS
        .iter()
        .map(|&t| faulted_sim(n, horizon, t))
        .collect();
    let mut t = 0.0;
    while t < horizon {
        t = (t + 2.5).min(horizon);
        let mut reference: Option<Vec<f64>> = None;
        for (sim, &threads) in sims.iter_mut().zip(&THREAD_COUNTS) {
            sim.run_until(at(t));
            let snap = sim.logical_snapshot();
            match &reference {
                None => reference = Some(snap),
                Some(r) => {
                    for (i, (x, y)) in r.iter().zip(&snap).enumerate() {
                        assert!(
                            x.to_bits() == y.to_bits(),
                            "t={t}: node {i} diverged at {threads} threads: {y:?} vs serial {x:?}"
                        );
                    }
                }
            }
        }
    }
    let reference_stats = *sims[0].stats();
    for (sim, &threads) in sims.iter().zip(&THREAD_COUNTS) {
        assert_eq!(
            *sim.stats(),
            reference_stats,
            "counters diverged at {threads} threads"
        );
    }
    // Every fault kind must actually have fired.
    assert_eq!(reference_stats.crashes, 1);
    assert_eq!(reference_stats.restarts, 1);
    assert!(reference_stats.dropped_crashed + reference_stats.suppressed_crashed > 0);
    assert!(reference_stats.dropped_fault_window > 0);
    assert!(reference_stats.delay_spiked > 0);
    assert_eq!(reference_stats.faults_applied, 6);
}

#[test]
fn adversary_source_traces_bit_identical_across_thread_counts() {
    let (n, horizon) = (96, 60.0);
    let m = model();
    let params = AlgoParams::with_minimal_b0(m, n, 0.5);
    let attack = BridgeAttack::transient(0.4 * horizon, Edge::between(0, n - 1), 0.3 * horizon);
    let mut sims: Vec<Simulator<GradientNode>> = THREAD_COUNTS
        .iter()
        .map(|&threads| {
            SimBuilder::topology(m, ScheduleSource::new(adversarial_churn(n, &[attack])))
                .drift_model(DriftModel::FastUpTo(n / 2), horizon)
                .delay(DelayStrategy::Uniform { lo: 0.0, hi: 1.0 })
                .seed(7)
                .threads(threads)
                .build_with(move |_| GradientNode::new(params))
        })
        .collect();
    for sim in sims.iter_mut() {
        sim.run_until(at(horizon));
    }
    let reference = sims[0].logical_snapshot();
    for sim in &sims[1..] {
        for (x, y) in reference.iter().zip(sim.logical_snapshot()) {
            assert!(x.to_bits() == y.to_bits());
        }
        assert_eq!(*sim.stats(), *sims[0].stats());
    }
    // The chord was added and later removed.
    assert!(sims[0].stats().topology_events >= 2);
}

#[test]
fn crash_restart_replay_is_bit_identical() {
    // Rebooted state is a pure function of the trace: two independent
    // runs of the same faulted workload must agree bit-for-bit at every
    // sample instant, including instants while the node is down.
    let (n, horizon) = (48, 50.0);
    let mut a = faulted_sim(n, horizon, 1);
    let mut b = faulted_sim(n, horizon, 8);
    let mut t = 0.0;
    while t < horizon {
        t = (t + 1.0).min(horizon);
        a.run_until(at(t));
        b.run_until(at(t));
        for (x, y) in a.logical_snapshot().iter().zip(b.logical_snapshot()) {
            assert!(x.to_bits() == y.to_bits(), "replay diverged at t={t}");
        }
    }
    assert_eq!(*a.stats(), *b.stats());
    assert_eq!(a.stats().crashes, 1);
    assert_eq!(a.stats().restarts, 1);
}

#[test]
fn e15_reports_identical_across_thread_counts() {
    // The whole E15 report — every table cell, note, and CSV value — is
    // a pure function of the traces, so it must match across worker
    // counts too. GCS_SIM_THREADS is the env knob; the builder setting
    // is its per-run equivalent and overrides it.
    let config = e15_faults::Config {
        n: 16,
        horizon: 120.0,
        refine_steps: 1,
        ..Default::default()
    };
    let reports: Vec<_> = THREAD_COUNTS
        .iter()
        .map(|&t| {
            std::env::set_var("GCS_SIM_THREADS", t.to_string());
            let rep = e15_faults::Experiment {
                config: config.clone(),
            }
            .run_scenario();
            std::env::remove_var("GCS_SIM_THREADS");
            rep
        })
        .collect();
    assert_eq!(reports[0], reports[1], "E15 report diverged across threads");
}

#[test]
fn drift_excursion_negative_control_trips_the_monitor() {
    // A run that violates the drift model must be *detected* — the
    // monitor staying silent would make every green report vacuous.
    let n = 16;
    let m = model();
    let params = AlgoParams::with_minimal_b0(m, n, 0.5);
    let horizon = 120.0;
    let schedule = TopologySchedule::static_graph(n, generators::ring(n));
    let plan = FaultPlan::new(vec![FaultEvent::drift_excursion(
        0.4 * horizon,
        gcs_net::node(0),
        1.0,
        horizon / 6.0,
    )]);
    let mut sim = SimBuilder::topology(m, ScheduleSource::new(schedule))
        .drift_model(DriftModel::Perfect, horizon)
        .delay(DelayStrategy::Max)
        .faults(plan)
        .build_with(move |_| GradientNode::new(params));
    let mut rec = gcs_analysis::Recorder::new(1.0).with_monitor(InvariantMonitor::new(params));
    rec.run(&mut sim, at(horizon));
    let violations = rec.monitor().expect("monitor attached").violations();
    assert!(
        !violations.is_empty(),
        "excursion outside [1-rho, 1+rho] must trip the invariant monitor"
    );

    // And the control's dual: the identical run *without* the excursion
    // must stay clean, or the monitor is just noisy.
    let clean_schedule = TopologySchedule::static_graph(n, generators::ring(n));
    let mut clean = SimBuilder::topology(m, ScheduleSource::new(clean_schedule))
        .drift_model(DriftModel::Perfect, horizon)
        .delay(DelayStrategy::Max)
        .build_with(move |_| GradientNode::new(params));
    let mut rec = gcs_analysis::Recorder::new(1.0).with_monitor(InvariantMonitor::new(params));
    rec.run(&mut clean, at(horizon));
    assert!(rec.monitor().unwrap().violations().is_empty());
}
