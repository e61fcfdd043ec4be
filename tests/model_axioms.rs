//! Integration tests pinning the environment axioms of Section 3.2 as
//! observed *through the public API*, with the real algorithm running —
//! the engine-level tests in `gcs-sim` check the same properties with a
//! toy protocol.

use gcs_net::ScheduleSource;
use gradient_clock_sync::net::schedule::{add_at, remove_at};
use gradient_clock_sync::prelude::*;
use gradient_clock_sync::sim::{
    Automaton, Context, LinkChange, LinkChangeKind, Message, RebootUnsupported, TimerKind,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

fn model() -> ModelParams {
    ModelParams::new(0.01, 1.0, 2.0)
}

/// Messages delivered within T: with maximal delays and the slowest
/// resend rate, a neighbor estimate is never staler than τ (Property 6.1
/// manifested as Lemma 6.5's estimate quality).
#[test]
fn estimate_staleness_bounded_by_tau() {
    let n = 6;
    let params = AlgoParams::with_minimal_b0(model(), n, 0.5);
    let schedule = TopologySchedule::static_graph(n, generators::ring(n));
    let mut sim = SimBuilder::topology(model(), ScheduleSource::new(schedule))
        .drift_model(DriftModel::SplitExtremes, 100.0)
        .delay(DelayStrategy::Max)
        .build_with(|_| GradientNode::new(params));
    // After the first ΔT + D, every node has all its neighbors in Γ.
    let mut t = params.delta_t() + model().d + 1.0;
    while t < 100.0 {
        sim.run_until(at(t));
        for i in 0..n {
            let u = node(i);
            let hw = sim.hardware(u);
            let gn = sim.node(u);
            let gamma: Vec<NodeId> = gn.gamma().collect();
            assert_eq!(gamma.len(), 2, "ring node {i} should have 2 Γ-neighbors");
            for v in gamma {
                // Lemma 6.5: L^v_u(t) >= L_v(t − τ).
                let est = gn.estimate_of(v, hw).unwrap();
                let actual_then = {
                    // L_v(t − τ): rewind via a bound — L_v decreased by at
                    // most (1+ρ)τ from now.
                    sim.logical(v) - (1.0 + model().rho) * params.tau()
                };
                assert!(
                    est >= actual_then - 1e-6,
                    "node {i}: estimate of {v:?} too stale: {est} < {actual_then}"
                );
            }
        }
        t += 7.0;
    }
}

/// After an edge is removed and the removal discovered, the endpoints
/// drop each other from Γ and Υ within bounded time (Property 6.2's
/// converse direction).
#[test]
fn removal_clears_neighbor_sets_within_bounds() {
    let params = AlgoParams::with_minimal_b0(model(), 2, 0.5);
    let e = Edge::between(0, 1);
    let schedule = TopologySchedule::new(2, [e], vec![remove_at(50.0, e)]);
    let mut sim = SimBuilder::topology(model(), ScheduleSource::new(schedule))
        .delay(DelayStrategy::Max)
        .build_with(|_| GradientNode::new(params));
    sim.run_until(at(49.0));
    assert_eq!(sim.node(node(0)).gamma().count(), 1);
    // Removal at 50, discovered at 52; Γ and Υ empty right after.
    sim.run_until(at(52.5));
    for i in 0..2 {
        assert_eq!(
            sim.node(node(i)).gamma().count(),
            0,
            "node {i} Γ not cleared"
        );
        assert_eq!(
            sim.node(node(i)).upsilon().count(),
            0,
            "node {i} Υ not cleared"
        );
    }
}

/// A silent neighbor (edge removed but removal *undiscovered* due to the
/// lost timer firing first) is dropped from Γ after ΔT′ subjective time —
/// the lost-timer path of Algorithm 2.
#[test]
fn lost_timer_drops_silent_neighbors() {
    let params = AlgoParams::with_minimal_b0(model(), 2, 0.5);
    let e = Edge::between(0, 1);
    let schedule = TopologySchedule::new(2, [e], vec![remove_at(50.0, e)]);
    // Discovery takes the full D = 2; the lost timer ΔT′ ≈ 1.53 fires
    // first, so Γ must already be empty before the discover event.
    let mut sim = SimBuilder::topology(model(), ScheduleSource::new(schedule))
        .delay(DelayStrategy::Zero)
        .build_with(|_| GradientNode::new(params));
    // Before the discovery instant (50 + D), but after 50 + ΔT′/(1−ρ):
    let check = 50.0 + params.delta_t_prime() / (1.0 - model().rho) + 0.05;
    assert!(check < 52.0, "test setup: lost timer must beat discovery");
    sim.run_until(at(check));
    for i in 0..2 {
        assert_eq!(
            sim.node(node(i)).gamma().count(),
            0,
            "node {i} should have timed out its silent neighbor"
        );
        // …but the neighbor is still in Υ (only discovery removes it).
        assert_eq!(sim.node(node(i)).upsilon().count(), 1);
    }
}

/// Both endpoints of a persistent edge end up in each other's Γ within
/// ΔT + D (Property 6.2).
#[test]
fn persistent_edge_joins_gamma_within_bound() {
    let params = AlgoParams::with_minimal_b0(model(), 3, 0.5);
    let schedule = TopologySchedule::static_graph(3, generators::path(3)).with_extra_events(vec![
        gradient_clock_sync::net::schedule::add_at(30.0, Edge::between(0, 2)),
    ]);
    let mut sim = SimBuilder::topology(model(), ScheduleSource::new(schedule))
        .delay(DelayStrategy::Max)
        .build_with(|_| GradientNode::new(params));
    let deadline = 30.0 + params.delta_t() + model().d;
    sim.run_until(at(deadline));
    assert!(sim.node(node(0)).gamma().any(|v| v == node(2)));
    assert!(sim.node(node(2)).gamma().any(|v| v == node(0)));
}

/// `Lmax` rate bound (Property 6.7): the network-wide max estimate never
/// advances faster than 1+ρ, across any adversary we can throw at it.
#[test]
fn lmax_rate_bounded() {
    let n = 8;
    let params = AlgoParams::with_minimal_b0(model(), n, 0.5);
    let schedule = churn::staggered_ring(n, 8.0, 2.0, 5.0, 200.0);
    let mut sim = SimBuilder::topology(model(), ScheduleSource::new(schedule))
        .drift_model(DriftModel::RandomWalk { step: 2.0 }, 200.0)
        .delay(DelayStrategy::Uniform { lo: 0.0, hi: 1.0 })
        .seed(3)
        .build_with(|_| GradientNode::new(params));
    let lmax_of = |sim: &Simulator<GradientNode>| {
        (0..n)
            .map(|i| sim.max_estimate_of(node(i)))
            .fold(f64::NEG_INFINITY, f64::max)
    };
    let mut t = 0.0;
    let mut prev = lmax_of(&sim);
    while t < 200.0 {
        t += 2.0;
        sim.run_until(at(t));
        let cur = lmax_of(&sim);
        assert!(
            cur - prev <= (1.0 + model().rho) * 2.0 + 1e-6,
            "Lmax advanced too fast at t={t}: {}",
            cur - prev
        );
        assert!(cur >= prev, "Lmax decreased");
        prev = cur;
    }
}

/// Counts the alarm handlers that run. On its first boot node 0 arms
/// `Lost(1)` 5 s ahead; the replacement `try_reboot` builds arms nothing.
struct ArmsOnFirstBoot {
    first_boot: bool,
    alarms: Arc<AtomicU64>,
}

impl Automaton for ArmsOnFirstBoot {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        if self.first_boot && ctx.node == node(0) {
            ctx.set_timer(5.0, TimerKind::Lost(node(1)));
        }
    }
    fn on_receive(&mut self, _: &mut Context<'_>, _: NodeId, _: Message) {}
    fn on_discover(&mut self, _: &mut Context<'_>, _: LinkChange) {}
    fn on_alarm(&mut self, _: &mut Context<'_>, _: TimerKind) {
        self.alarms.fetch_add(1, Ordering::Relaxed);
    }
    fn logical_clock(&self, hw: f64) -> f64 {
        hw
    }
    fn try_reboot(&self) -> Result<Self, RebootUnsupported> {
        Ok(ArmsOnFirstBoot {
            first_boot: false,
            alarms: self.alarms.clone(),
        })
    }
}

/// Crash/restart with state loss (§3): an alarm armed before the crash
/// never reaches the restarted automaton. It pops as stale, and no
/// handler runs.
#[test]
fn alarm_armed_before_a_crash_is_stale_after_the_restart() {
    let alarms = Arc::new(AtomicU64::new(0));
    let schedule = TopologySchedule::static_graph(2, [Edge::between(0, 1)]);
    let mut sim = SimBuilder::topology(model(), ScheduleSource::new(schedule))
        .faults(FaultPlan::new(vec![
            FaultEvent::crash(1.0, node(0)),
            FaultEvent::restart(2.0, node(0)),
        ]))
        .build_with(|_| ArmsOnFirstBoot {
            first_boot: true,
            alarms: alarms.clone(),
        });
    sim.run_until(at(10.0));
    assert_eq!(alarms.load(Ordering::Relaxed), 0, "an alarm handler ran");
    assert_eq!(sim.stats().alarms_fired, 0);
    assert_eq!(sim.stats().alarms_stale, 1);
}

/// What a [`Witness`] run saw, shared across reboots.
#[derive(Debug, Default)]
struct WitnessLog {
    /// `(node, real time, change)` for every discovery handled.
    discoveries: Vec<(NodeId, f64, LinkChange)>,
    /// Real times at which node 0 sent to node 1.
    sends: Vec<f64>,
}

/// Logs every discovery it handles. With `send_after` set, node 0 arms a
/// tick that far ahead at every boot and, when it fires, sends one
/// message to node 1 whether or not the two are neighbors.
struct Witness {
    log: Arc<Mutex<WitnessLog>>,
    send_after: Option<f64>,
}

impl Automaton for Witness {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        if let (Some(dt), true) = (self.send_after, ctx.node == node(0)) {
            ctx.set_timer(dt, TimerKind::Tick);
        }
    }
    fn on_receive(&mut self, _: &mut Context<'_>, _: NodeId, _: Message) {}
    fn on_discover(&mut self, ctx: &mut Context<'_>, change: LinkChange) {
        let mut log = self.log.lock().unwrap();
        log.discoveries.push((ctx.node, ctx.now.seconds(), change));
    }
    fn on_alarm(&mut self, ctx: &mut Context<'_>, _: TimerKind) {
        self.log.lock().unwrap().sends.push(ctx.now.seconds());
        let msg = Message {
            logical: ctx.hw,
            max_estimate: ctx.hw,
        };
        ctx.send(node(1), msg);
    }
    fn logical_clock(&self, hw: f64) -> f64 {
        hw
    }
    fn try_reboot(&self) -> Result<Self, RebootUnsupported> {
        Ok(Witness {
            log: self.log.clone(),
            send_after: self.send_after,
        })
    }
}

/// Runs two [`Witness`] nodes over `schedule` and `faults` until t = 30.
fn witness(
    schedule: TopologySchedule,
    faults: Vec<FaultEvent>,
    send_after: Option<f64>,
) -> WitnessLog {
    let log = Arc::new(Mutex::new(WitnessLog::default()));
    let mut sim = SimBuilder::topology(model(), ScheduleSource::new(schedule))
        .faults(FaultPlan::new(faults))
        .build_with(|_| Witness {
            log: log.clone(),
            send_after,
        });
    sim.run_until(at(30.0));
    drop(sim);
    Arc::into_inner(log).unwrap().into_inner().unwrap()
}

/// Every discovery the engine schedules lands exactly `D` after its
/// cause (§3 allows any time within `D`; the engine takes the bound in
/// full): both endpoints of a scheduled add and of a scheduled remove,
/// the sender of a message to a non-neighbor, and a restarted node
/// rediscovering its live edges.
#[test]
fn every_discovery_lands_exactly_d_after_its_cause() {
    let d = model().d;
    let e = Edge::between(0, 1);
    let change = |kind| LinkChange { kind, edge: e };
    let (added, removed) = (
        change(LinkChangeKind::Added),
        change(LinkChangeKind::Removed),
    );

    let churn = TopologySchedule::new(2, [], vec![add_at(5.0, e), remove_at(20.0, e)]);
    assert_eq!(
        witness(churn, vec![], None).discoveries,
        [
            (node(0), 5.0 + d, added),
            (node(1), 5.0 + d, added),
            (node(0), 20.0 + d, removed),
            (node(1), 20.0 + d, removed),
        ],
        "scheduled changes"
    );

    // A removal's own discovery reaches a sender before any discovery a
    // later send triggers, which then is stale. A restart forgets what the
    // node learned, so node 0, rebooted after its edge went down, handles
    // the `discover(remove)` of its send (at 12) to the former neighbor.
    let cut = TopologySchedule::new(2, [e], vec![remove_at(5.0, e)]);
    let reboot = vec![
        FaultEvent::crash(8.0, node(0)),
        FaultEvent::restart(9.0, node(0)),
    ];
    let log = witness(cut, reboot, Some(3.0));
    assert_eq!(log.sends, [3.0, 12.0]);
    assert_eq!(
        log.discoveries,
        [
            (node(0), 0.0, added),
            (node(1), 0.0, added),
            (node(0), 5.0 + d, removed),
            (node(1), 5.0 + d, removed),
            (node(0), log.sends[1] + d, removed),
        ],
        "send to a non-neighbor"
    );

    let linked = TopologySchedule::static_graph(2, [e]);
    let restart = vec![
        FaultEvent::crash(4.0, node(0)),
        FaultEvent::restart(6.0, node(0)),
    ];
    assert_eq!(
        witness(linked, restart, None).discoveries,
        [
            (node(0), 0.0, added),
            (node(1), 0.0, added),
            (node(0), 6.0 + d, added),
        ],
        "restart rediscovery"
    );
}
