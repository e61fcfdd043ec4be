//! Compact-plane equivalence: eviction sweeps must be *bit-invisible*.
//! Running a workload with quiescent nodes packed into the cold tier at
//! deterministic boundaries must produce the same logical-clock bits at
//! every checkpoint and the same execution counters as the identical run
//! that never evicts — at every thread count. The sweeps ride on the
//! shared parameters and idle parking (the other two compact-plane
//! legs), so these pins cover the whole compact plane: one
//! `GradientShared` serves every node's closed-form budget, parking
//! stops no protocol-visible tick, and pack/rehydrate round-trips every
//! byte of automaton state.
//!
//! The churn builders keep a connected backbone, so no backbone node
//! ever isolates; eviction is exercised by overlaying E14-style
//! *visitors* — extra nodes hanging off the backbone by one edge that
//! departs mid-run (every even visitor later returns, forcing a
//! rehydration on contact).

use gcs_bench::engine_bench::Workload;
use gcs_clocks::time::at;
use gcs_clocks::DriftModel;
use gcs_core::{AlgoParams, GradientNode, GradientShared};
use gcs_net::schedule::{add_at, remove_at};
use gcs_net::{churn, generators, node, Edge, ScheduleSource, TopologySchedule};
use gcs_sim::{DelayStrategy, FaultEvent, FaultPlan, ModelParams, SimBuilder, Simulator};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

const THREAD_COUNTS: [usize; 2] = [1, 8];
const VISITORS: usize = 16;

/// Appends `VISITORS` visitor nodes to `base`: visitor `i` starts
/// attached to backbone node `(7·i) mod n`, departs at `8 + i/2`
/// seconds, and — when `i` is even — reattaches at `26 + i/4` seconds.
/// Departed visitors park, quiesce, and become evictable; returning
/// ones must rehydrate on the discovery touch.
fn with_visitors(base: &TopologySchedule) -> TopologySchedule {
    let n = base.n() + VISITORS;
    let mut initial: Vec<Edge> = base.initial_edges().collect();
    let mut events = base.events().to_vec();
    for i in 0..VISITORS {
        let e = Edge::between(base.n() + i, (7 * i) % base.n());
        initial.push(e);
        events.push(remove_at(8.0 + i as f64 * 0.5, e));
        if i % 2 == 0 {
            events.push(add_at(26.0 + i as f64 * 0.25, e));
        }
    }
    TopologySchedule::new(n, initial, events)
}

/// Runs `evicting` with a cold-tier sweep at every checkpoint and
/// `flat` without any, comparing logical bits at each boundary and the
/// full counter set at the horizon. Eviction totals live on the engine
/// (not in `SimStats`), so counter equality is exact.
fn run_and_compare(
    mut evicting: Simulator<GradientNode>,
    mut flat: Simulator<GradientNode>,
    horizon: f64,
    step: f64,
) {
    let mut t = 0.0;
    while t < horizon {
        t = (t + step).min(horizon);
        evicting.run_until(at(t));
        evicting.evict_quiescent();
        flat.run_until(at(t));
        for (i, (x, y)) in flat
            .logical_snapshot()
            .iter()
            .zip(evicting.logical_snapshot())
            .enumerate()
        {
            assert!(
                x.to_bits() == y.to_bits(),
                "t={t}: node {i} diverged: evicting {y:?} vs flat {x:?}"
            );
        }
    }
    assert_eq!(evicting.stats(), flat.stats(), "counters diverged");
    assert!(
        evicting.evictions() > 0,
        "the sweep never packed a node — the pin is vacuous"
    );
    assert!(
        evicting.rehydrations() > 0,
        "no evicted node was ever touched again — rehydration is unexercised"
    );
    assert_eq!(flat.evictions(), 0, "the flat run must never evict");
}

/// E1-style churn (the engine-bench workload schedule: path backbone
/// plus flapping chords) with the visitor overlay, pinned at test width.
#[test]
fn e1_churn_eviction_sweeps_bit_identical() {
    let w = Workload {
        n: 80,
        horizon: 40.0,
        churn: true,
        seed: 77,
        threads: 1,
    };
    let schedule = with_visitors(&w.schedule());
    let n = schedule.n();
    let shared = Arc::new(
        GradientShared::new(AlgoParams::with_minimal_b0(w.model(), n, 0.5)).with_idle_parking(true),
    );
    let mk = |threads: usize| {
        SimBuilder::topology(w.model(), ScheduleSource::new(schedule.clone()))
            .delay(DelayStrategy::Max)
            .seed(w.seed)
            .threads(threads)
            .build_with(|_| GradientNode::with_shared(shared.clone()))
    };
    for threads in THREAD_COUNTS {
        run_and_compare(mk(threads), mk(threads), w.horizon, 2.0);
    }
}

/// The E13 churn-walk combination — multi-segment random-walk drift over
/// a churning path — exercises eviction against the lazy clock plane:
/// packing a node drops its drift cursor, and the snapshot/rehydrate
/// paths must rebuild it bit-exactly.
#[test]
fn e13_churn_walk_eviction_sweeps_bit_identical() {
    let (n, horizon, seed) = (80usize, 40.0, 77u64);
    let model = ModelParams::new(0.01, 1.0, 2.0);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x000c_4e1d);
    let schedule = with_visitors(&churn::random_churn(
        n,
        generators::path(n),
        n / 4,
        (6.0, 12.0),
        (2.0, 4.0),
        horizon,
        &mut rng,
    ));
    let total = schedule.n();
    let shared = Arc::new(
        GradientShared::new(AlgoParams::with_minimal_b0(model, total, 0.5)).with_idle_parking(true),
    );
    let mk = |threads: usize| {
        SimBuilder::topology(model, ScheduleSource::new(schedule.clone()))
            .drift_model(DriftModel::RandomWalk { step: 3.0 }, horizon)
            .delay(DelayStrategy::Max)
            .seed(seed)
            .threads(threads)
            .build_with(|_| GradientNode::with_shared(shared.clone()))
    };
    for threads in THREAD_COUNTS {
        run_and_compare(mk(threads), mk(threads), horizon, 2.0);
    }
}

/// The eviction census: a packed node frees its hot heap bytes (they
/// move into the cold tier), the logical snapshot still reads it
/// correctly while cold, and touching it again restores the identical
/// hot state.
#[test]
fn eviction_census_frees_hot_bytes_and_snapshot_survives() {
    let (n, horizon, seed) = (64usize, 40.0, 5u64);
    let model = ModelParams::new(0.01, 1.0, 2.0);
    let schedule = with_visitors(&TopologySchedule::static_graph(n, generators::path(n)));
    let total = schedule.n();
    let shared = Arc::new(
        GradientShared::new(AlgoParams::with_minimal_b0(model, total, 0.5)).with_idle_parking(true),
    );
    let mk = || {
        SimBuilder::topology(model, ScheduleSource::new(schedule.clone()))
            .delay(DelayStrategy::Max)
            .seed(seed)
            .threads(1)
            .build_with(|_| GradientNode::with_shared(shared.clone()))
    };
    let mut sim = mk();
    // By t = 22 every visitor has departed (last removal at 15.5),
    // parked, and shed its armed timers; none has returned yet (first
    // re-add at 26).
    sim.run_until(at(22.0));
    let before_planes = sim.plane_bytes();
    let before_snapshot = sim.logical_snapshot();
    let evicted = sim.evict_quiescent();
    assert_eq!(evicted, VISITORS, "every departed visitor must pack");
    let after_planes = sim.plane_bytes();
    assert!(
        after_planes.automaton_hot < before_planes.automaton_hot,
        "packing must free hot bytes ({} -> {})",
        before_planes.automaton_hot,
        after_planes.automaton_hot
    );
    assert!(
        after_planes.automaton_cold > 0,
        "packed bytes must show up in the cold plane"
    );
    assert_eq!(
        sim.telemetry().cold_nodes,
        evicted,
        "census disagrees with sweep"
    );
    // The snapshot reads cold nodes from their inline scalars — packing
    // must not move a single bit of any logical value.
    for (i, (x, y)) in before_snapshot
        .iter()
        .zip(sim.logical_snapshot())
        .enumerate()
    {
        assert!(
            x.to_bits() == y.to_bits(),
            "node {i} moved while being packed: {x:?} -> {y:?}"
        );
    }
    // Running on rehydrates the even visitors as they reattach; the
    // horizon state must match the never-evicted twin bit for bit.
    sim.run_until(at(horizon));
    assert_eq!(
        sim.rehydrations() as usize,
        VISITORS / 2,
        "every returning visitor must rehydrate on contact"
    );
    let mut flat = mk();
    flat.run_until(at(horizon));
    assert_eq!(sim.stats(), flat.stats());
    for (x, y) in flat.logical_snapshot().iter().zip(sim.logical_snapshot()) {
        assert!(x.to_bits() == y.to_bits(), "rehydrated state diverged");
    }
}

/// Faults on evicted nodes: a visitor crashed and restarted while cold,
/// a visitor crashed for good while cold, and a backbone node crashed and
/// restarted between sweeps. The crash barrier bumps the generations a
/// cold node keeps in its slots, and the restart wakes it before the
/// reboot; the never-evicted twin must match bit for bit.
#[test]
fn faults_on_evicted_nodes_bit_identical() {
    let (n, horizon, seed) = (64usize, 40.0, 5u64);
    let model = ModelParams::new(0.01, 1.0, 2.0);
    let schedule = with_visitors(&TopologySchedule::static_graph(n, generators::path(n)));
    let total = schedule.n();
    let shared = Arc::new(
        GradientShared::new(AlgoParams::with_minimal_b0(model, total, 0.5)).with_idle_parking(true),
    );
    // Visitor 1 departs at 8.5 s and is swept cold at 10 s; visitor 3
    // departs at 9.5 s and is cold from 11 s.
    let (visitor1, visitor3) = (node(n + 1), node(n + 3));
    let faults = FaultPlan::new(vec![
        FaultEvent::crash(11.0, visitor1),
        FaultEvent::restart(13.0, visitor1),
        FaultEvent::crash(12.0, visitor3),
        FaultEvent::crash(15.0, node(5)),
        FaultEvent::restart(17.0, node(5)),
    ]);
    let mk = |threads: usize| {
        SimBuilder::topology(model, ScheduleSource::new(schedule.clone()))
            .faults(faults.clone())
            .delay(DelayStrategy::Max)
            .seed(seed)
            .threads(threads)
            .build_with(|_| GradientNode::with_shared(shared.clone()))
    };
    for threads in THREAD_COUNTS {
        run_and_compare(mk(threads), mk(threads), horizon, 1.0);
    }
}
