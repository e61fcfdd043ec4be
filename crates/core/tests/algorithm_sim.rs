//! End-to-end tests: Algorithm 2 running in the simulator, checked against
//! the paper's theorems.

use gcs_clocks::time::at;
use gcs_clocks::DriftModel;
use gcs_clocks::ScheduleDrift;
use gcs_core::baseline::MaxSyncNode;
use gcs_core::{AlgoParams, BudgetPolicy, GradientNode, InvariantMonitor};
use gcs_net::schedule::add_at;
use gcs_net::{churn, generators, node, Edge, ScheduleSource, TopologySchedule};
use gcs_sim::{DelayStrategy, ModelParams, SimBuilder, Simulator};

fn model() -> ModelParams {
    ModelParams::new(0.01, 1.0, 2.0)
}

fn global_skew<A: gcs_sim::Automaton>(sim: &Simulator<A>) -> f64 {
    let l = sim.logical_snapshot();
    let max = l.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let min = l.iter().cloned().fold(f64::INFINITY, f64::min);
    max - min
}

fn max_local_skew<A: gcs_sim::Automaton>(sim: &Simulator<A>) -> f64 {
    sim.graph()
        .edges()
        .map(|e| (sim.logical(e.lo()) - sim.logical(e.hi())).abs())
        .fold(0.0, f64::max)
}

/// Drives a gradient-node simulation while feeding an invariant monitor.
fn run_checked(
    sim: &mut Simulator<GradientNode>,
    params: AlgoParams,
    horizon: f64,
    sample_dt: f64,
) -> InvariantMonitor {
    let mut monitor = InvariantMonitor::new(params);
    let mut t = 0.0;
    while t < horizon {
        t = (t + sample_dt).min(horizon);
        sim.run_until(at(t));
        let logical = sim.logical_snapshot();
        let lmax: Vec<f64> = (0..sim.n()).map(|i| sim.max_estimate_of(node(i))).collect();
        monitor.observe(at(t), &logical, &lmax);
    }
    monitor
}

#[test]
fn static_path_respects_all_invariants() {
    let n = 16;
    let params = AlgoParams::with_minimal_b0(model(), n, 0.5);
    let schedule = TopologySchedule::static_graph(n, generators::path(n));
    let mut sim = SimBuilder::topology(model(), ScheduleSource::new(schedule))
        .drift_model(DriftModel::SplitExtremes, 400.0)
        .delay(DelayStrategy::Max)
        .build_with(|_| GradientNode::new(params));
    let monitor = run_checked(&mut sim, params, 400.0, 1.0);
    monitor.assert_clean();
    assert!(monitor.max_global_skew() <= params.global_skew_bound());
}

#[test]
fn stable_edges_settle_below_dynamic_local_skew_bound() {
    let n = 16;
    let params = AlgoParams::with_minimal_b0(model(), n, 0.5);
    let schedule = TopologySchedule::static_graph(n, generators::path(n));
    let horizon = 3.0 * (params.w() + params.delta_t() + params.model.d) + 50.0;
    let mut sim = SimBuilder::topology(model(), ScheduleSource::new(schedule))
        .drift_model(DriftModel::SplitExtremes, horizon)
        .delay(DelayStrategy::Max)
        .build_with(|_| GradientNode::new(params));
    sim.run_until(at(horizon));
    // All edges have existed since time 0, so Corollary 6.13 bounds their
    // skew by s(n, horizon) — which has converged to the stable skew.
    let bound = params.dynamic_local_skew(horizon);
    let measured = max_local_skew(&sim);
    assert!(
        measured <= bound + 1e-6,
        "local skew {measured} exceeds s(n, {horizon}) = {bound}"
    );
    assert!(
        (bound - params.stable_local_skew()).abs() < 1e-6,
        "bound should have settled"
    );
}

#[test]
fn ring_with_random_drift_and_delays_is_clean() {
    let n = 12;
    let params = AlgoParams::with_minimal_b0(model(), n, 0.5);
    let schedule = TopologySchedule::static_graph(n, generators::ring(n));
    let mut sim = SimBuilder::topology(model(), ScheduleSource::new(schedule))
        .drift_model(DriftModel::RandomWalk { step: 5.0 }, 300.0)
        .delay(DelayStrategy::Uniform { lo: 0.0, hi: 1.0 })
        .seed(17)
        .build_with(|_| GradientNode::new(params));
    let monitor = run_checked(&mut sim, params, 300.0, 1.0);
    monitor.assert_clean();
}

#[test]
fn rotating_star_churn_is_clean() {
    // Heavy churn: the star hub migrates every 10 time units with overlap
    // 4 > T + D/2; the schedule is (T+D)=3-interval connected.
    let n = 8;
    let params = AlgoParams::with_minimal_b0(model(), n, 0.5);
    let schedule = churn::rotating_star(n, 10.0, 4.0, 300.0);
    assert!(gcs_net::connectivity::is_interval_connected(
        &schedule,
        gcs_clocks::Duration::new(3.0),
        at(300.0)
    ));
    let mut sim = SimBuilder::topology(model(), ScheduleSource::new(schedule))
        .drift_model(DriftModel::SplitExtremes, 300.0)
        .delay(DelayStrategy::Uniform { lo: 0.0, hi: 1.0 })
        .seed(5)
        .build_with(|_| GradientNode::new(params));
    let monitor = run_checked(&mut sim, params, 300.0, 1.0);
    monitor.assert_clean();
}

#[test]
fn staggered_ring_churn_is_clean() {
    let n = 10;
    let params = AlgoParams::with_minimal_b0(model(), n, 0.5);
    let schedule = churn::staggered_ring(n, 8.0, 2.0, 5.0, 250.0);
    let mut sim = SimBuilder::topology(model(), ScheduleSource::new(schedule))
        .drift_model(DriftModel::Alternating { period: 20.0 }, 250.0)
        .delay(DelayStrategy::Max)
        .build_with(|_| GradientNode::new(params));
    let monitor = run_checked(&mut sim, params, 250.0, 1.0);
    monitor.assert_clean();
}

/// The paper's headline dynamic scenario: a long path accumulates skew
/// between its endpoints, then a direct edge between them appears.
#[test]
fn new_bridge_edge_skew_decays_without_disturbing_old_edges() {
    let n = 24;
    let params = AlgoParams::with_minimal_b0(model(), n, 0.5);
    let t_bridge = 150.0;
    let bridge = Edge::between(0, n - 1);
    let schedule = TopologySchedule::static_graph(n, generators::path(n))
        .with_extra_events(vec![add_at(t_bridge, bridge)]);
    let horizon = t_bridge + 3.0 * params.w() + 100.0;
    let mut sim = SimBuilder::topology(model(), ScheduleSource::new(schedule))
        .drift_model(DriftModel::SplitExtremes, horizon)
        .delay(DelayStrategy::Max)
        .build_with(|_| GradientNode::new(params));

    sim.run_until(at(t_bridge));
    let skew_at_formation = (sim.logical(node(0)) - sim.logical(node(n - 1))).abs();

    // Track the worst old-edge skew while the bridge closes.
    let mut worst_old_edge: f64 = 0.0;
    let mut t = t_bridge;
    while t < horizon {
        t += 1.0;
        sim.run_until(at(t));
        for e in generators::path(n) {
            worst_old_edge = worst_old_edge.max((sim.logical(e.lo()) - sim.logical(e.hi())).abs());
        }
    }
    let final_bridge_skew = (sim.logical(node(0)) - sim.logical(node(n - 1))).abs();

    // The bridge's skew must have closed to within the converged dynamic
    // local skew bound…
    let age = horizon - t_bridge;
    assert!(
        final_bridge_skew <= params.dynamic_local_skew(age) + 1e-6,
        "bridge skew {final_bridge_skew} vs bound {}",
        params.dynamic_local_skew(age)
    );
    // …and the old path edges never exceeded their (settled) bound.
    assert!(
        worst_old_edge <= params.stable_local_skew() + 1e-6,
        "old-edge skew {worst_old_edge} exceeded stable bound {}",
        params.stable_local_skew()
    );
    // Sanity: there actually was some skew to close (otherwise the test
    // proves nothing).
    assert!(
        skew_at_formation > 0.0,
        "expected nonzero endpoint skew at bridge formation"
    );
}

#[test]
fn max_sync_baseline_keeps_small_global_skew() {
    let n = 16;
    let schedule = TopologySchedule::static_graph(n, generators::path(n));
    let mut sim = SimBuilder::topology(model(), ScheduleSource::new(schedule))
        .drift_model(DriftModel::SplitExtremes, 300.0)
        .delay(DelayStrategy::Max)
        .build_with(|_| MaxSyncNode::new(0.5));
    sim.run_until(at(300.0));
    let params = AlgoParams::with_minimal_b0(model(), n, 0.5);
    assert!(global_skew(&sim) <= params.global_skew_bound());
}

#[test]
fn constant_budget_baseline_drags_cluster_behind_lmax() {
    // Why the aging budget matters. Two clusters run disconnected for a
    // while: F = nodes 0..=11 (nodes 0..=10 at rate 1+ρ, node 11 — the
    // future bridge endpoint "m" — at 1−ρ) and S = nodes 12..=23 (rate
    // 1−ρ). During the disconnected phase F's max clock races ahead of S
    // by ≈ 2ρ·t. When the bridge {11, 12} forms, the fresh edge carries
    // that skew:
    //
    // * With the *constant* budget (static algorithm of [13]), node 11 is
    //   immediately blocked by its far-behind new neighbor and can no
    //   longer chase `Lmax` — its lag grows at ≈ 2ρ until S closes the gap
    //   in B0-sized staircase steps.
    // * With the paper's *aging* budget, the fresh edge imposes no
    //   constraint (B(0) > G(n)), so node 11 keeps tracking `Lmax` while S
    //   catches up gracefully.
    let rho = 0.1;
    let model = ModelParams::new(rho, 1.0, 2.0);
    let n = 24;
    let m = 11; // F-side bridge endpoint
    let t_bridge = 500.0;
    let horizon = t_bridge + 60.0;
    let bridge = Edge::between(m, m + 1);
    let cluster_edges = || {
        let mut edges: Vec<Edge> = (0..m).map(|i| Edge::between(i, i + 1)).collect();
        edges.extend((m + 1..n - 1).map(|i| Edge::between(i, i + 1)));
        edges
    };
    let run = |policy: BudgetPolicy| {
        let b0 = AlgoParams::with_minimal_b0(model, n, 0.5).b0;
        let params = AlgoParams::with_policy(model, n, 0.5, b0, policy);
        let clocks: Vec<_> = (0..n)
            .map(|i| {
                let rate = if i < m { 1.0 + rho } else { 1.0 - rho };
                gcs_clocks::HardwareClock::constant(rate, rho)
            })
            .collect();
        let schedule = TopologySchedule::static_graph(n, cluster_edges())
            .with_extra_events(vec![add_at(t_bridge, bridge)]);
        let mut sim = SimBuilder::topology(model, ScheduleSource::new(schedule))
            .drift(ScheduleDrift::new(clocks))
            .delay(DelayStrategy::Max)
            .build_with(|_| GradientNode::new(params));
        sim.run_until(at(t_bridge));
        let skew = sim.logical(node(0)) - sim.logical(node(n - 1));
        assert!(
            skew > 2.0 * params.b0,
            "setup: want bridge skew ≫ B0, got {skew} vs B0 {}",
            params.b0
        );
        // Worst lag of node m behind its own max estimate after bridging.
        let mut worst_lag: f64 = 0.0;
        let mut t = t_bridge;
        while t < horizon {
            t += 0.5;
            sim.run_until(at(t));
            let lag = sim.max_estimate_of(node(m)) - sim.logical(node(m));
            worst_lag = worst_lag.max(lag);
        }
        worst_lag
    };
    let lag_aging = run(BudgetPolicy::Aging);
    let lag_constant = run(BudgetPolicy::Constant);
    assert!(
        lag_constant > lag_aging + 1.0,
        "constant budget should visibly block the ahead endpoint: constant={lag_constant}, aging={lag_aging}"
    );
}

#[test]
fn gradient_runs_are_deterministic() {
    let n = 10;
    let params = AlgoParams::with_minimal_b0(model(), n, 0.5);
    let run = || {
        let schedule = TopologySchedule::static_graph(n, generators::ring(n));
        let mut sim = SimBuilder::topology(model(), ScheduleSource::new(schedule))
            .drift_model(DriftModel::RandomWalk { step: 4.0 }, 120.0)
            .delay(DelayStrategy::Uniform { lo: 0.0, hi: 1.0 })
            .seed(99)
            .build_with(|_| GradientNode::new(params));
        sim.run_until(at(120.0));
        (sim.logical_snapshot(), *sim.stats())
    };
    let (l1, s1) = run();
    let (l2, s2) = run();
    assert_eq!(l1, l2);
    assert_eq!(s1, s2);
}

#[test]
fn logical_clocks_progress_at_least_half_rate() {
    // Spot-check validity directly on a churning topology.
    let n = 8;
    let params = AlgoParams::with_minimal_b0(model(), n, 0.5);
    let schedule = churn::rotating_star(n, 12.0, 5.0, 200.0);
    let mut sim = SimBuilder::topology(model(), ScheduleSource::new(schedule))
        .drift_model(DriftModel::SplitExtremes, 200.0)
        .delay(DelayStrategy::Max)
        .build_with(|_| GradientNode::new(params));
    sim.run_until(at(100.0));
    let mid: Vec<f64> = sim.logical_snapshot();
    sim.run_until(at(200.0));
    let end: Vec<f64> = sim.logical_snapshot();
    for (i, (a, b)) in mid.iter().zip(end.iter()).enumerate() {
        let rate = (b - a) / 100.0;
        assert!(rate >= 0.5, "node {i} rate {rate} < 1/2");
        assert!(rate <= 1.0 + 0.01 + 1e-9, "node {i} rate {rate} > 1+ρ");
    }
}

/// A node's stream materializes exactly when something draws from it:
/// under uniformly random delays every node of a connected path draws for
/// its sends, under maximal delays none does.
#[test]
fn node_streams_exist_exactly_for_drawing_delays() {
    let n = 6;
    let params = AlgoParams::with_minimal_b0(model(), n, 0.5);
    let streams = |delay: DelayStrategy| {
        let schedule = TopologySchedule::static_graph(n, generators::path(n));
        let mut sim = SimBuilder::topology(model(), ScheduleSource::new(schedule))
            .delay(delay)
            .seed(5)
            .build_with(|_| GradientNode::new(params));
        sim.run_until(at(20.0));
        sim.telemetry().rng_streams
    };
    assert_eq!(streams(DelayStrategy::Uniform { lo: 0.0, hi: 1.0 }), n);
    assert_eq!(streams(DelayStrategy::Max), 0);
}
