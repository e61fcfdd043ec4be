//! Engine semantics tests, exercised through a tiny flooding protocol.
//!
//! These pin down the model guarantees of Section 3.2 — delay bounds, FIFO
//! order, drop-on-removal with sender notification, discovery latency `≤ D`,
//! subjective timers — independently of the clock-sync algorithm itself.

use gcs_clocks::time::at;
use gcs_clocks::{DriftModel, HardwareClock, RateSchedule, ScheduleDrift, Time};
use gcs_net::schedule::{add_at, remove_at};
use gcs_net::{
    generators, node, Edge, NodeId, ScheduleSource, TopologyEvent, TopologySchedule, TopologySource,
};
use gcs_sim::engine::DiscoveryDelay;
use gcs_sim::{
    Automaton, Context, DelayStrategy, FaultEvent, FaultSource, LinkChange, LinkChangeKind,
    Message, ModelParams, SimBuilder, TimerKind,
};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// A flooding automaton: spreads the maximum `value` seen; logs everything
/// it observes so tests can assert on the environment's behaviour.
struct Flood {
    value: f64,
    delta_h: f64,
    counter: f64,
    neighbors: BTreeSet<NodeId>,
    /// (real time, from, payload counter) for every received message.
    received: Vec<(f64, NodeId, f64)>,
    /// (real time, change) for every discovery.
    discoveries: Vec<(f64, LinkChange)>,
    ticks: u64,
}

impl Flood {
    fn new(value: f64, delta_h: f64) -> Self {
        Flood {
            value,
            delta_h,
            counter: 0.0,
            neighbors: BTreeSet::new(),
            received: Vec::new(),
            discoveries: Vec::new(),
            ticks: 0,
        }
    }
}

impl Automaton for Flood {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.set_timer(self.delta_h, TimerKind::Tick);
    }

    fn on_receive(&mut self, ctx: &mut Context<'_>, from: NodeId, msg: Message) {
        self.value = self.value.max(msg.logical);
        self.received
            .push((ctx.now.seconds(), from, msg.max_estimate));
    }

    fn on_discover(&mut self, ctx: &mut Context<'_>, change: LinkChange) {
        self.discoveries.push((ctx.now.seconds(), change));
        let other = change.edge.other(ctx.node);
        match change.kind {
            LinkChangeKind::Added => {
                self.neighbors.insert(other);
            }
            LinkChangeKind::Removed => {
                self.neighbors.remove(&other);
            }
        }
    }

    fn on_alarm(&mut self, ctx: &mut Context<'_>, kind: TimerKind) {
        assert_eq!(kind, TimerKind::Tick);
        self.ticks += 1;
        for &v in &self.neighbors {
            self.counter += 1.0;
            ctx.send(
                v,
                Message {
                    logical: self.value,
                    max_estimate: self.counter,
                },
            );
        }
        ctx.set_timer(self.delta_h, TimerKind::Tick);
    }

    fn logical_clock(&self, _hw: f64) -> f64 {
        self.value
    }
}

fn params() -> ModelParams {
    ModelParams::new(0.01, 1.0, 2.0)
}

#[test]
fn flood_converges_on_path() {
    let n = 8;
    let schedule = TopologySchedule::static_graph(n, generators::path(n));
    let mut sim = SimBuilder::topology(params(), ScheduleSource::new(schedule))
        .delay(DelayStrategy::Max)
        .build_with(|i| Flood::new(i as f64, 0.5));
    // Information needs ≤ (n-1) hops; each hop takes ≤ ΔH/(1-ρ) + T.
    sim.run_until(at((n as f64) * 2.0));
    for i in 0..n {
        assert_eq!(
            sim.node(node(i)).value,
            (n - 1) as f64,
            "node {i} did not learn the max"
        );
    }
}

#[test]
fn initial_edges_discovered_at_time_zero() {
    let schedule = TopologySchedule::static_graph(3, generators::path(3));
    let mut sim = SimBuilder::topology(params(), ScheduleSource::new(schedule))
        .build_with(|_| Flood::new(0.0, 0.5));
    sim.run_until(at(0.0));
    // Node 1 touches both initial edges.
    let d = &sim.node(node(1)).discoveries;
    assert_eq!(d.len(), 2);
    assert!(d
        .iter()
        .all(|(t, c)| *t == 0.0 && c.kind == LinkChangeKind::Added));
}

#[test]
fn topology_changes_discovered_within_d() {
    let schedule = TopologySchedule::new(
        2,
        [],
        vec![
            add_at(5.0, Edge::between(0, 1)),
            remove_at(20.0, Edge::between(0, 1)),
        ],
    );
    let mut sim = SimBuilder::topology(params(), ScheduleSource::new(schedule))
        .discovery(DiscoveryDelay::Uniform { lo: 0.5, hi: 2.0 })
        .seed(3)
        .build_with(|_| Flood::new(0.0, 0.5));
    sim.run_until(at(30.0));
    for i in 0..2 {
        let d = &sim.node(node(i)).discoveries;
        let add = d
            .iter()
            .find(|(_, c)| c.kind == LinkChangeKind::Added)
            .expect("add discovered");
        assert!(add.0 > 5.0 && add.0 <= 5.0 + 2.0, "add at {}", add.0);
        // Note: the sender may learn of the removal *at* the removal
        // instant via a dropped in-flight message (which is within the
        // model's send+D obligation), hence `>=` rather than `>`.
        let rem = d
            .iter()
            .find(|(_, c)| c.kind == LinkChangeKind::Removed)
            .expect("remove discovered");
        assert!(rem.0 >= 20.0 && rem.0 <= 20.0 + 2.0, "remove at {}", rem.0);
    }
}

#[test]
fn messages_dropped_after_removal_notify_sender() {
    // Edge removed at t=10; discovery takes the full D=2, so node 0 keeps
    // sending into the void for a while. Every such message must be dropped
    // and node 0 must get a discover(remove) no later than send + D.
    let schedule = TopologySchedule::new(
        2,
        [Edge::between(0, 1)],
        vec![remove_at(10.0, Edge::between(0, 1))],
    );
    let mut sim = SimBuilder::topology(params(), ScheduleSource::new(schedule))
        .discovery(DiscoveryDelay::Constant(2.0))
        .build_with(|_| Flood::new(1.0, 0.5));
    sim.run_until(at(30.0));
    let stats = sim.stats();
    assert!(stats.dropped_no_edge > 0, "{stats:?}");
    // After discovery (≤ 12.0), no more sends happen; total sends stop.
    let n0 = sim.node(node(0));
    let rem = n0
        .discoveries
        .iter()
        .find(|(_, c)| c.kind == LinkChangeKind::Removed)
        .expect("sender learned of removal");
    assert!(rem.0 <= 12.0 + 1e-9);
    assert!(n0.neighbors.is_empty());
}

#[test]
fn in_flight_message_dropped_when_edge_dies() {
    // Max delay T=1; removal at 10.25 catches messages sent at 10.0-.
    // (tick at subjective 0.5 with perfect clocks => sends at 0.5, 1.0, …)
    let schedule = TopologySchedule::new(
        2,
        [Edge::between(0, 1)],
        vec![remove_at(10.25, Edge::between(0, 1))],
    );
    let mut sim = SimBuilder::topology(params(), ScheduleSource::new(schedule))
        .delay(DelayStrategy::Max)
        .build_with(|_| Flood::new(1.0, 0.5));
    sim.run_until(at(15.0));
    assert!(sim.stats().dropped_in_flight > 0, "{:?}", sim.stats());
}

#[test]
fn fifo_per_directed_link_under_random_delays() {
    let schedule = TopologySchedule::static_graph(2, [Edge::between(0, 1)]);
    let mut sim = SimBuilder::topology(params(), ScheduleSource::new(schedule))
        .delay(DelayStrategy::Uniform { lo: 0.0, hi: 1.0 })
        .seed(9)
        .build_with(|_| Flood::new(0.0, 0.05)); // fast ticks => many overlaps
    sim.run_until(at(50.0));
    for i in 0..2 {
        let log = &sim.node(node(i)).received;
        assert!(log.len() > 100, "expected many messages, got {}", log.len());
        // Payload counters per sender must arrive in increasing order.
        let mut last = f64::NEG_INFINITY;
        for &(_, _, ctr) in log {
            assert!(ctr > last, "FIFO violated: {ctr} after {last}");
            last = ctr;
        }
    }
}

#[test]
fn delays_never_exceed_bound() {
    // With max delays and ticks every 0.5 subjective, messages sent at s
    // arrive at exactly s + T. Verify arrival spacing is bounded by
    // ΔH/(1-ρ) + T (the ΔT of the paper).
    let schedule = TopologySchedule::static_graph(2, [Edge::between(0, 1)]);
    let mut sim = SimBuilder::topology(params(), ScheduleSource::new(schedule))
        .drift_model(DriftModel::SplitExtremes, 100.0)
        .delay(DelayStrategy::Uniform { lo: 0.0, hi: 1.0 })
        .seed(4)
        .build_with(|_| Flood::new(0.0, 0.5));
    sim.run_until(at(100.0));
    let delta_t = 0.5 / (1.0 - 0.01) + 1.0;
    for i in 0..2 {
        let log = &sim.node(node(i)).received;
        for w in log.windows(2) {
            let gap = w[1].0 - w[0].0;
            assert!(
                gap <= delta_t + 1e-9,
                "arrival gap {gap} exceeds ΔT {delta_t}"
            );
        }
    }
}

#[test]
fn subjective_timers_follow_hardware_rate() {
    // Node 0 at rate 1+ρ, node 1 at rate 1−ρ; over the same real horizon
    // the fast node fires more ticks, in ratio ≈ (1+ρ)/(1−ρ).
    let rho = 0.01;
    let schedule = TopologySchedule::static_graph(2, [Edge::between(0, 1)]);
    let clocks = vec![
        HardwareClock::new(RateSchedule::constant(1.0 + rho), rho),
        HardwareClock::new(RateSchedule::constant(1.0 - rho), rho),
    ];
    let mut sim = SimBuilder::topology(
        ModelParams::new(rho, 1.0, 2.0),
        ScheduleSource::new(schedule),
    )
    .drift(ScheduleDrift::new(clocks))
    .build_with(|_| Flood::new(0.0, 0.5));
    sim.run_until(at(1000.0));
    let fast = sim.node(node(0)).ticks as f64;
    let slow = sim.node(node(1)).ticks as f64;
    let ratio = fast / slow;
    let expect = (1.0 + rho) / (1.0 - rho);
    assert!(
        (ratio - expect).abs() < 0.005,
        "tick ratio {ratio}, expected {expect}"
    );
}

#[test]
fn runs_are_deterministic_per_seed() {
    let run = |seed: u64| {
        let schedule = TopologySchedule::static_graph(6, generators::ring(6));
        let mut sim = SimBuilder::topology(params(), ScheduleSource::new(schedule))
            .drift_model(DriftModel::RandomWalk { step: 3.0 }, 60.0)
            .delay(DelayStrategy::Uniform { lo: 0.0, hi: 1.0 })
            .seed(seed)
            .build_with(|i| Flood::new(i as f64, 0.5));
        sim.run_until(at(60.0));
        (
            *sim.stats(),
            sim.logical_snapshot(),
            sim.node(node(0)).received.clone(),
        )
    };
    let (s1, v1, log1) = run(42);
    let (s2, v2, log2) = run(42);
    assert_eq!(s1, s2);
    assert_eq!(v1, v2);
    assert_eq!(log1.len(), log2.len());
    for (a, b) in log1.iter().zip(log2.iter()) {
        assert_eq!(a, b);
    }
    // Different seed ⇒ different delays ⇒ (almost surely) different arrival
    // times in the message log (counters alone can coincide).
    let (_, _, log3) = run(43);
    assert_ne!(log1, log3);
}

#[test]
fn run_until_is_idempotent_at_boundaries() {
    let schedule = TopologySchedule::static_graph(3, generators::path(3));
    let mut sim = SimBuilder::topology(params(), ScheduleSource::new(schedule))
        .build_with(|i| Flood::new(i as f64, 0.5));
    sim.run_until(at(5.0));
    let snap1 = sim.logical_snapshot();
    sim.run_until(at(5.0));
    assert_eq!(snap1, sim.logical_snapshot());
}

#[test]
fn stepwise_equals_batch_advance() {
    let build = || {
        let schedule = TopologySchedule::static_graph(4, generators::ring(4));
        SimBuilder::topology(params(), ScheduleSource::new(schedule))
            .delay(DelayStrategy::Uniform { lo: 0.0, hi: 1.0 })
            .seed(7)
            .build_with(|i| Flood::new(i as f64, 0.5))
    };
    let mut a = build();
    a.run_until(at(20.0));
    let mut b = build();
    let mut t = 0.0;
    while t < 20.0 {
        t += 0.25;
        b.run_until(at(t));
    }
    assert_eq!(a.logical_snapshot(), b.logical_snapshot());
    assert_eq!(a.stats(), b.stats());
}

#[test]
fn transient_change_may_be_skipped() {
    // Edge flaps down and up within a window shorter than the discovery
    // latency: the re-add is discovered, and the node may never observe the
    // removal (version-skip). Either way the final neighbor view is
    // coherent (the edge is up).
    let e = Edge::between(0, 1);
    let schedule = TopologySchedule::new(2, [e], vec![remove_at(10.0, e), add_at(10.5, e)]);
    let mut sim = SimBuilder::topology(params(), ScheduleSource::new(schedule))
        .discovery(DiscoveryDelay::Uniform { lo: 0.2, hi: 2.0 })
        .seed(12)
        .build_with(|_| Flood::new(1.0, 0.5));
    sim.run_until(at(20.0));
    for i in 0..2 {
        let nbrs = &sim.node(node(i)).neighbors;
        assert_eq!(nbrs.len(), 1, "node {i} ended with wrong view: {nbrs:?}");
    }
}

#[test]
fn untouched_nodes_cost_zero_drift_and_node_state() {
    // Only node 0 ever does anything; nodes 1..n see no events at all.
    // The lazy clock plane must materialize exactly one drift cursor and
    // the node tables must stop at the touched watermark — untouched
    // nodes cost zero bytes of engine state, which is what lets the
    // drift plane scale independently of n.
    struct TickOnly {
        active: bool,
    }
    impl Automaton for TickOnly {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            if self.active {
                ctx.set_timer(0.5, TimerKind::Tick);
            }
        }
        fn on_receive(&mut self, _: &mut Context<'_>, _: NodeId, _: Message) {}
        fn on_discover(&mut self, _: &mut Context<'_>, _: LinkChange) {}
        fn on_alarm(&mut self, ctx: &mut Context<'_>, _: TimerKind) {
            ctx.set_timer(0.5, TimerKind::Tick);
        }
        fn logical_clock(&self, hw: f64) -> f64 {
            hw
        }
    }
    let n = 64;
    let schedule = TopologySchedule::static_graph(n, []);
    let mut sim = SimBuilder::topology(params(), ScheduleSource::new(schedule))
        .drift_model(DriftModel::RandomWalk { step: 1.0 }, 50.0)
        .build_with(|i| TickOnly { active: i == 0 });
    sim.run_until(at(50.0));
    assert!(sim.stats().alarms_fired > 10);
    assert_eq!(
        sim.drift_cursors(),
        1,
        "only the ticking node pays drift-plane state"
    );
    assert_eq!(
        sim.node_state_watermark(),
        1,
        "node tables stop at the touched watermark"
    );
    assert_eq!(
        sim.telemetry().rng_streams,
        0,
        "nothing drew from a node stream"
    );
    // Untouched nodes stay queryable through the cold path, and agree
    // with the materialized schedule bit for bit.
    let hw_tail = sim.hardware(node(n - 1));
    assert!(hw_tail > 0.0);
    // Explicit eager clocks keep the plane stateless: no cursors at all.
    let clocks = vec![HardwareClock::perfect(0.01); 4];
    let mut eager = SimBuilder::topology(
        params(),
        ScheduleSource::new(TopologySchedule::static_graph(4, [])),
    )
    .drift(ScheduleDrift::new(clocks))
    .build_with(|_| TickOnly { active: true });
    eager.run_until(at(20.0));
    assert_eq!(eager.drift_cursors(), 0, "eager adapters keep no cursors");
}

#[test]
fn alarms_cancelled_before_firing_are_stale() {
    // A node that re-sets its tick timer on every receive will invalidate
    // pending alarms; the engine must count them as stale, not fire them.
    struct Resetter {
        resets: u64,
    }
    impl Automaton for Resetter {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            ctx.set_timer(10.0, TimerKind::Tick);
            // Immediately replace it: the first alarm must be stale.
            ctx.set_timer(20.0, TimerKind::Tick);
            self.resets += 1;
        }
        fn on_receive(&mut self, _: &mut Context<'_>, _: NodeId, _: Message) {}
        fn on_discover(&mut self, _: &mut Context<'_>, _: LinkChange) {}
        fn on_alarm(&mut self, _: &mut Context<'_>, kind: TimerKind) {
            assert_eq!(kind, TimerKind::Tick);
        }
        fn logical_clock(&self, hw: f64) -> f64 {
            hw
        }
    }
    let schedule = TopologySchedule::static_graph(2, [Edge::between(0, 1)]);
    let mut sim = SimBuilder::topology(params(), ScheduleSource::new(schedule))
        .build_with(|_| Resetter { resets: 0 });
    sim.run_until(at(50.0));
    assert_eq!(sim.stats().alarms_stale, 2); // one per node
    assert_eq!(sim.stats().alarms_fired, 2);
}

/// Builds a two-node path under `discovery` with `D = 2`.
fn build_with_discovery(discovery: DiscoveryDelay) {
    let schedule = TopologySchedule::static_graph(2, generators::path(2));
    SimBuilder::topology(params(), ScheduleSource::new(schedule))
        .discovery(discovery)
        .build_with(|_| Flood::new(0.0, 0.5));
}

#[test]
#[should_panic(expected = "discovery delay 5 outside (0, D = 2]")]
fn constant_discovery_above_d_rejected() {
    build_with_discovery(DiscoveryDelay::Constant(5.0));
}

#[test]
#[should_panic(expected = "discovery delay 0 outside (0, D = 2]")]
fn constant_discovery_of_zero_rejected() {
    build_with_discovery(DiscoveryDelay::Constant(0.0));
}

#[test]
#[should_panic(expected = "discovery delay NaN outside (0, D = 2]")]
fn non_finite_discovery_rejected() {
    build_with_discovery(DiscoveryDelay::Constant(f64::NAN));
}

#[test]
#[should_panic(expected = "discovery range [0, 1] outside 0 < lo <= hi <= D = 2")]
fn uniform_discovery_from_zero_rejected() {
    build_with_discovery(DiscoveryDelay::Uniform { lo: 0.0, hi: 1.0 });
}

#[test]
#[should_panic(expected = "discovery range [1.5, 0.5] outside 0 < lo <= hi <= D = 2")]
fn inverted_uniform_discovery_rejected() {
    build_with_discovery(DiscoveryDelay::Uniform { lo: 1.5, hi: 0.5 });
}

#[test]
#[should_panic(expected = "discovery range [0.5, 2.5] outside 0 < lo <= hi <= D = 2")]
fn uniform_discovery_above_d_rejected() {
    build_with_discovery(DiscoveryDelay::Uniform { lo: 0.5, hi: 2.5 });
}

/// Builds a two-node path under the delay strategy `delay` with `T = 1`.
fn build_with_delay(delay: DelayStrategy) {
    let schedule = TopologySchedule::static_graph(2, generators::path(2));
    SimBuilder::topology(params(), ScheduleSource::new(schedule))
        .delay(delay)
        .build_with(|_| Flood::new(0.0, 0.5));
}

/// `{0,1}` mapped to `d`: a one-edge delay pattern.
fn one_edge(d: f64) -> BTreeMap<Edge, f64> {
    [(Edge::between(0, 1), d)].into_iter().collect()
}

#[test]
#[should_panic(expected = "constant delay 5 outside [0, T = 1]")]
fn constant_delay_above_t_rejected() {
    build_with_delay(DelayStrategy::Constant(5.0));
}

#[test]
#[should_panic(expected = "constant delay NaN outside [0, T = 1]")]
fn non_finite_constant_delay_rejected() {
    build_with_delay(DelayStrategy::Constant(f64::NAN));
}

#[test]
#[should_panic(expected = "delay range [0.8, 0.2] outside 0 <= lo <= hi <= T = 1")]
fn inverted_uniform_delay_rejected() {
    build_with_delay(DelayStrategy::Uniform { lo: 0.8, hi: 0.2 });
}

#[test]
#[should_panic(expected = "delay range [-0.5, 1] outside 0 <= lo <= hi <= T = 1")]
fn negative_uniform_delay_rejected() {
    build_with_delay(DelayStrategy::Uniform { lo: -0.5, hi: 1.0 });
}

#[test]
#[should_panic(expected = "masked {n0,n1} delay 1.5 outside [0, T = 1]")]
fn masked_pattern_above_t_rejected() {
    build_with_delay(DelayStrategy::Masked {
        pattern: one_edge(1.5),
        default: Box::new(DelayStrategy::Max),
    });
}

#[test]
#[should_panic(expected = "delay range [0, 2] outside 0 <= lo <= hi <= T = 1")]
fn masked_default_is_validated() {
    build_with_delay(DelayStrategy::Masked {
        pattern: one_edge(0.5),
        default: Box::new(DelayStrategy::Uniform { lo: 0.0, hi: 2.0 }),
    });
}

#[test]
#[should_panic(expected = "delay layer vector has 1 entries for n = 2 nodes")]
fn short_layer_vector_rejected() {
    build_with_delay(DelayStrategy::Layered {
        layer: vec![0],
        constrained: one_edge(0.5),
        intra: 0.0,
    });
}

#[test]
#[should_panic(expected = "constrained {n0,n1} delay -1 outside [0, T = 1]")]
fn layered_constrained_delay_below_zero_rejected() {
    build_with_delay(DelayStrategy::Layered {
        layer: vec![0, 1],
        constrained: one_edge(-1.0),
        intra: 0.0,
    });
}

#[test]
#[should_panic(expected = "intra-layer delay 3 outside [0, T = 1]")]
fn beta_layered_intra_delay_above_t_rejected() {
    build_with_delay(DelayStrategy::BetaLayered {
        layer: vec![0, 0],
        constrained: one_edge(0.5),
        rho: 0.01,
        intra: 3.0,
    });
}

#[test]
#[should_panic(expected = "beta drift bound rho = -0.01 must be finite and >= 0")]
fn beta_layered_negative_rho_rejected() {
    build_with_delay(DelayStrategy::BetaLayered {
        layer: vec![0, 1],
        constrained: one_edge(0.5),
        rho: -0.01,
        intra: 0.0,
    });
}

/// A hand-written source over 4 nodes that hands the engine `initial`
/// and `events` verbatim — no validation — so each test can break one
/// clause of the pull contract.
struct Scripted {
    initial: Vec<Edge>,
    events: VecDeque<TopologyEvent>,
}

impl Scripted {
    fn new(initial: Vec<Edge>, events: Vec<TopologyEvent>) -> Self {
        Scripted {
            initial,
            events: events.into(),
        }
    }
}

impl TopologySource for Scripted {
    fn n(&self) -> usize {
        4
    }
    fn initial_edges(&mut self) -> Vec<Edge> {
        self.initial.clone()
    }
    fn peek_time(&mut self) -> Option<Time> {
        self.events.front().map(|ev| ev.time)
    }
    fn pull_until(&mut self, until: Time, buf: &mut Vec<TopologyEvent>) {
        while self.events.front().is_some_and(|ev| ev.time <= until) {
            buf.extend(self.events.pop_front());
        }
    }
}

/// Builds a simulator over `source` with `threads` workers (the parallel
/// threshold at 1, so at two or more threads every segment between the
/// topology batches is forked) and runs it to `t = 10`.
fn run_scripted(source: impl TopologySource + 'static, threads: usize) {
    let mut sim = SimBuilder::topology(params(), source)
        .threads(threads)
        .par_threshold(1)
        .build_with(|_| Flood::new(0.0, 0.5));
    sim.run_until(at(10.0));
}

#[test]
#[should_panic(expected = "source initial edges must be sorted and distinct")]
fn unsorted_initial_edges_rejected() {
    let source = Scripted::new(vec![Edge::between(1, 2), Edge::between(0, 1)], vec![]);
    SimBuilder::topology(params(), source).build_with(|_| Flood::new(0.0, 0.5));
}

#[test]
#[should_panic(expected = "source initial edges must be sorted and distinct")]
fn duplicate_initial_edges_rejected() {
    let source = Scripted::new(vec![Edge::between(0, 1), Edge::between(0, 1)], vec![]);
    SimBuilder::topology(params(), source).build_with(|_| Flood::new(0.0, 0.5));
}

#[test]
#[should_panic(expected = "edge {n2,n4} out of range for n=4")]
fn initial_edge_beyond_n_rejected() {
    let source = Scripted::new(vec![Edge::between(1, 2), Edge::between(2, 4)], vec![]);
    SimBuilder::topology(params(), source).build_with(|_| Flood::new(0.0, 0.5));
}

#[test]
#[should_panic(expected = "edge {n1,n4} out of range for n=4")]
fn pulled_edge_beyond_n_rejected() {
    let source = Scripted::new(vec![], vec![add_at(1.0, Edge::between(1, 4))]);
    run_scripted(source, 1);
}

/// Re-adds the live initial edge `{1,2}`.
fn double_add() -> Scripted {
    Scripted::new(
        vec![Edge::between(1, 2)],
        vec![add_at(1.0, Edge::between(1, 2))],
    )
}

/// Removes `{1,3}`, which never came up.
fn absent_remove() -> Scripted {
    Scripted::new(
        vec![Edge::between(1, 2)],
        vec![remove_at(1.0, Edge::between(1, 3))],
    )
}

#[test]
#[should_panic(expected = "edge {n1,n2} already present")]
fn double_add_rejected() {
    run_scripted(double_add(), 1);
}

#[test]
#[should_panic(expected = "edge {n1,n2} already present")]
fn double_add_rejected_at_two_threads() {
    run_scripted(double_add(), 2);
}

#[test]
#[should_panic(expected = "edge {n1,n3} not present")]
fn absent_remove_rejected() {
    run_scripted(absent_remove(), 1);
}

#[test]
#[should_panic(expected = "edge {n1,n3} not present")]
fn absent_remove_rejected_at_two_threads() {
    run_scripted(absent_remove(), 2);
}

#[test]
#[should_panic(expected = "topology source must emit nondecreasing times")]
fn topology_going_back_in_time_rejected() {
    let source = Scripted::new(
        vec![],
        vec![
            add_at(2.0, Edge::between(0, 1)),
            add_at(1.0, Edge::between(0, 2)),
        ],
    );
    run_scripted(source, 1);
}

#[test]
#[should_panic(expected = "does not follow the current time")]
fn topology_at_time_zero_rejected() {
    let source = Scripted::new(vec![], vec![add_at(0.0, Edge::between(0, 1))]);
    run_scripted(source, 1);
}

/// A topology source whose `peek_time` promises an event at `t = 1`
/// that `pull_until` never emits — without the check, the pump would
/// spin on that promise forever.
struct PhantomTopology;

impl TopologySource for PhantomTopology {
    fn n(&self) -> usize {
        4
    }
    fn initial_edges(&mut self) -> Vec<Edge> {
        Vec::new()
    }
    fn peek_time(&mut self) -> Option<Time> {
        Some(at(1.0))
    }
    fn pull_until(&mut self, _: Time, _: &mut Vec<TopologyEvent>) {}
}

#[test]
#[should_panic(expected = "peek_time promised an event")]
fn topology_source_promising_a_phantom_event_rejected() {
    run_scripted(PhantomTopology, 1);
}

/// A fault source that emits `faults` verbatim (no sorting, unlike
/// [`FaultPlan`](gcs_sim::FaultPlan)).
struct ScriptedFaults(VecDeque<FaultEvent>);

impl FaultSource for ScriptedFaults {
    fn peek_time(&mut self) -> Option<Time> {
        self.0.front().map(|ev| ev.time)
    }
    fn pull_until(&mut self, until: Time, buf: &mut Vec<FaultEvent>) {
        while self.0.front().is_some_and(|ev| ev.time <= until) {
            buf.extend(self.0.pop_front());
        }
    }
}

#[test]
#[should_panic(expected = "fault source must emit nondecreasing times")]
fn faults_going_back_in_time_rejected() {
    let faults = [
        FaultEvent::crash(2.0, node(0)),
        FaultEvent::crash(1.5, node(1)),
    ];
    let schedule = TopologySchedule::static_graph(2, [Edge::between(0, 1)]);
    let mut sim = SimBuilder::topology(params(), ScheduleSource::new(schedule))
        .faults(ScriptedFaults(VecDeque::from(faults)))
        .build_with(|_| Flood::new(0.0, 0.5));
    sim.run_until(at(10.0));
}

/// The fault-plane twin of [`PhantomTopology`].
struct PhantomFaults;

impl FaultSource for PhantomFaults {
    fn peek_time(&mut self) -> Option<Time> {
        Some(at(1.0))
    }
    fn pull_until(&mut self, _: Time, _: &mut Vec<FaultEvent>) {}
}

#[test]
#[should_panic(expected = "peek_time promised a fault")]
fn fault_source_promising_a_phantom_fault_rejected() {
    let schedule = TopologySchedule::static_graph(2, [Edge::between(0, 1)]);
    let mut sim = SimBuilder::topology(params(), ScheduleSource::new(schedule))
        .faults(PhantomFaults)
        .build_with(|_| Flood::new(0.0, 0.5));
    sim.run_until(at(10.0));
}

#[test]
#[should_panic(expected = "SimBuilder::threads(0) is not a worker count in 1..=64")]
fn zero_threads_rejected() {
    let schedule = TopologySchedule::static_graph(2, [Edge::between(0, 1)]);
    let _ = SimBuilder::topology(params(), ScheduleSource::new(schedule)).threads(0);
}

#[test]
#[should_panic(expected = "SimBuilder::threads(65) is not a worker count in 1..=64")]
fn more_than_64_threads_rejected() {
    let schedule = TopologySchedule::static_graph(2, [Edge::between(0, 1)]);
    let _ = SimBuilder::topology(params(), ScheduleSource::new(schedule)).threads(65);
}
