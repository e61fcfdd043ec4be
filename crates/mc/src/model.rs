//! The executable model: a serial, decision-instrumented interpreter of
//! the engine's event semantics.
//!
//! [`Model`] runs exactly the state machine that `gcs_sim::Simulator`
//! executes — the same event total order `(time, class, seq)` and the
//! same canonical effect merge order `(trigger seq, emission index)` —
//! on the engine's own state types: queued [`EventPayload`]s, per-node
//! [`TimerSlots`] and [`PeerLocal`] entries and per-edge [`EdgeShared`]
//! entries. The timer-generation, discovery-staleness, FIFO, edge-epoch
//! and edge-transition rules are those types' methods, so the model and
//! the engine's dispatch call one definition of each. The model
//!
//! * runs strictly serially over a handful of nodes,
//! * treats every live-edge message delay as an explicit **decision
//!   point** resolved by a [`DelayDecider`] (the engine draws it from a
//!   [`gcs_sim::DelayStrategy`]), and
//! * exposes a canonical [`encode`](Model::encode) of its complete state,
//!   which is what makes bounded exhaustive exploration
//!   ([`mod@crate::explore`]) possible.
//!
//! Bit-identity with the engine is not aspirational: every `f64` the
//! model produces goes through the *same* code the engine calls —
//! [`HardwareClock::read`]/[`HardwareClock::fire_time`] for clocks, the
//! automaton's own handlers for protocol state, [`Time`]/[`Duration`]
//! arithmetic for event times — so replaying a recorded decision sequence
//! through the real engine ([`crate::replay`]) reproduces the model's
//! trace exactly, at every thread count.

use gcs_clocks::{Duration, HardwareClock, Time};
use gcs_core::GradientNode;
use gcs_net::schedule::{TopologyEventKind, TopologySchedule};
use gcs_net::{Edge, NodeId, TopologyEvent};
use gcs_sim::event::{EventPayload, QueuedEvent};
use gcs_sim::{
    Action, Automaton, Context, EdgeShared, FaultEvent, FaultKind, LinkChange, LinkChangeKind,
    PeerLocal, TimerKind, TimerSlots,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// One bounded-model-checking configuration: the closed world the
/// explorer enumerates decision interleavings in.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Display name (also the exported trace name).
    pub name: String,
    /// Algorithm parameters (carry the model constants `ρ, T, D`).
    pub algo: gcs_core::AlgoParams,
    /// Per-node constant hardware rates, each within `[1−ρ, 1+ρ]`.
    pub rates: Vec<f64>,
    /// Initial edge set `E₀`, sorted ascending.
    pub initial_edges: Vec<Edge>,
    /// Scheduled churn, sorted by `(time, edge)`, all times `> 0`.
    pub topology: Vec<TopologyEvent>,
    /// Scheduled crash/restart faults, sorted by time, all times `> 0`.
    pub faults: Vec<FaultEvent>,
    /// The quantized delay alternatives offered at every live-edge send
    /// (each within `[0, T]`); their count is the branching factor.
    pub delay_choices: Vec<f64>,
    /// Real-time horizon: events after it stay unexplored.
    pub horizon: f64,
}

impl Scenario {
    /// Validates the bounds the model relies on. Called by the explorer
    /// and the fuzzer before any run.
    pub fn validate(&self) {
        let n = self.algo.n;
        let m = &self.algo.model;
        assert_eq!(self.rates.len(), n, "one rate per node");
        for &r in &self.rates {
            assert!(
                (1.0 - m.rho..=1.0 + m.rho).contains(&r),
                "rate {r} outside [1−ρ, 1+ρ]"
            );
        }
        assert!(
            self.initial_edges.windows(2).all(|w| w[0] < w[1]),
            "initial edges must be sorted and distinct"
        );
        assert!(
            self.topology
                .windows(2)
                .all(|w| (w[0].time, w[0].edge) <= (w[1].time, w[1].edge)),
            "topology events must be sorted by (time, edge)"
        );
        // The engine's own validator of the event-log rules: endpoints
        // `< n`, times `> 0`, adds of absent and removals of present edges.
        TopologySchedule::new(n, self.initial_edges.iter().copied(), self.topology.clone());
        assert!(
            self.faults.windows(2).all(|w| w[0].time <= w[1].time),
            "fault events must be sorted by time"
        );
        for f in &self.faults {
            assert!(f.time > Time::ZERO, "faults occur after time 0");
            let (FaultKind::Crash { node } | FaultKind::Restart { node }) = f.kind else {
                panic!("the model supports crash/restart faults only");
            };
            assert!(
                node.index() < n,
                "fault victim {node:?} out of range for n={n}"
            );
        }
        assert!(!self.delay_choices.is_empty(), "need at least one delay");
        for &d in &self.delay_choices {
            assert!((0.0..=m.t).contains(&d), "delay {d} outside [0, T]");
        }
        assert!(
            self.horizon.is_finite() && self.horizon > 0.0,
            "horizon must be positive"
        );
    }
}

/// How the model resolves the delay of one live-edge send — the only
/// nondeterminism the explorer enumerates.
#[derive(Debug)]
pub enum DelayDecider {
    /// Exhaustive-exploration mode: follow a forced prefix of choice
    /// indices into [`Scenario::delay_choices`], pick index 0 beyond it,
    /// and record `(arity, chosen)` for every decision so the explorer
    /// can schedule the untaken branches.
    Trail {
        /// Forced choice prefix.
        forced: Vec<usize>,
        /// Decisions made so far: `(arity, chosen index)` per decision.
        record: Vec<(usize, usize)>,
    },
    /// Fuzz mode: draw a uniform delay in `[0, T]` from a seeded stream,
    /// recording every draw for shrinking and replay.
    Random {
        /// The fuzz stream.
        rng: StdRng,
        /// Delay bound `T`.
        t: f64,
        /// Every delay drawn, in global send order.
        record: Vec<f64>,
    },
    /// Replay mode: feed back a recorded delay list (shrunken or not);
    /// past its end, fall back to `fallback` (the worst-case `T`).
    Scripted {
        /// The recorded delays, in global send order.
        delays: Vec<f64>,
        /// Next index to serve.
        pos: usize,
        /// Delay served once `delays` is exhausted.
        fallback: f64,
    },
}

impl DelayDecider {
    /// An exploration decider over `forced` choice indices.
    pub fn trail(forced: Vec<usize>) -> Self {
        DelayDecider::Trail {
            forced,
            record: Vec::new(),
        }
    }

    /// A fuzz decider drawing uniformly from `[0, t]` under `seed`.
    pub fn random(seed: u64, t: f64) -> Self {
        DelayDecider::Random {
            rng: StdRng::seed_from_u64(seed),
            t,
            record: Vec::new(),
        }
    }

    /// A replay decider over a recorded delay list.
    pub fn scripted(delays: Vec<f64>, fallback: f64) -> Self {
        DelayDecider::Scripted {
            delays,
            pos: 0,
            fallback,
        }
    }

    /// Number of decisions resolved so far.
    pub fn decisions(&self) -> usize {
        match self {
            DelayDecider::Trail { record, .. } => record.len(),
            DelayDecider::Random { record, .. } => record.len(),
            DelayDecider::Scripted { pos, .. } => *pos,
        }
    }

    fn next_delay(&mut self, choices: &[f64]) -> f64 {
        match self {
            DelayDecider::Trail { forced, record } => {
                let pos = record.len();
                let chosen = forced.get(pos).copied().unwrap_or(0);
                assert!(
                    chosen < choices.len(),
                    "decision {pos}: forced choice {chosen} out of range for {} delay choices",
                    choices.len()
                );
                record.push((choices.len(), chosen));
                choices[chosen]
            }
            DelayDecider::Random { rng, t, record } => {
                let d = rng.gen_range(0.0..=*t);
                record.push(d);
                d
            }
            DelayDecider::Scripted {
                delays,
                pos,
                fallback,
            } => {
                let d = delays.get(*pos).copied().unwrap_or(*fallback);
                *pos += 1;
                d
            }
        }
    }
}

/// An automaton the model checker can run: cloneable (the explorer
/// snapshots whole models at instant boundaries and resumes runs from
/// clones of them), probe-able (for the invariant oracle), and exactly
/// encodable (for the seen-state set).
pub trait ModelNode: Automaton + Clone {
    /// The oracle's view of this node at hardware reading `hw`.
    fn probe(&self, hw: f64) -> NodeProbe;

    /// Appends an exact encoding of the node's complete dynamic state
    /// (stable across paths: two nodes behaving identically forever must
    /// encode identically, and vice versa).
    fn encode(&self, out: &mut Vec<u64>);
}

/// Everything the invariant oracle reads from one node.
#[derive(Clone, Debug)]
pub struct NodeProbe {
    /// `L_u` at the probed reading.
    pub logical: f64,
    /// `Lmax_u` at the probed reading.
    pub max_estimate: f64,
    /// The node's *own* report of the Definition 6.1 blocked predicate.
    pub blocked: bool,
    /// The neighbor caps `(L^v_u, B^v_u)` in ascending node-id order —
    /// the tuples the specification-side predicate recomputation consumes.
    pub caps: Vec<(f64, f64)>,
}

impl ModelNode for GradientNode {
    fn probe(&self, hw: f64) -> NodeProbe {
        NodeProbe {
            logical: self.logical_clock(hw),
            max_estimate: self.max_estimate(hw),
            blocked: self.is_blocked(hw),
            caps: self.neighbor_caps(hw).collect(),
        }
    }

    fn encode(&self, out: &mut Vec<u64>) {
        // ClockVar state is an offset from the hardware clock; probing at
        // hw = 0 returns exactly that offset (`offset + 0.0 == offset`).
        out.extend_from_slice(&[
            self.logical_clock(0.0).to_bits(),
            self.max_estimate(0.0).to_bits(),
        ]);
        counted(out, 3, |out| {
            for (v, st) in self.gamma_states() {
                out.extend_from_slice(&[
                    v.index() as u64,
                    st.joined_hw.to_bits(),
                    st.estimate.offset().to_bits(),
                ]);
            }
        });
        counted(out, 1, |out| {
            out.extend(self.upsilon().map(|v| v.index() as u64));
        });
    }
}

/// Appends a count, then the `width`-word records `records` appends, and
/// back-patches the count: one pass over a table whose record count is
/// known only once it has been walked.
fn counted(out: &mut Vec<u64>, width: usize, records: impl FnOnce(&mut Vec<u64>)) {
    let at = out.len();
    out.push(0);
    records(out);
    out[at] = ((out.len() - at - 1) / width) as u64;
}

/// The model's event queue: same total order as the engine's wheel —
/// `(time, class, seq)` with `seq` assigned at push. The events are kept
/// sorted by that key, so the earliest instant is a prefix.
#[derive(Debug, Default)]
struct ModelQueue {
    events: Vec<QueuedEvent>,
    next_seq: u64,
}

impl Clone for ModelQueue {
    fn clone(&self) -> Self {
        ModelQueue {
            events: self.events.clone(),
            next_seq: self.next_seq,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        let ModelQueue { events, next_seq } = source;
        self.events.clone_from(events);
        self.next_seq = *next_seq;
    }
}

impl ModelQueue {
    fn push(&mut self, time: Time, payload: EventPayload) {
        let seq = self.next_seq;
        self.next_seq += 1;
        // `seq` exceeds every queued one, so the event goes after every
        // event at or before its `(time, class)`. Queued times are
        // non-negative, where an `f64`'s bits order like its value.
        assert!(
            time.seconds().is_sign_positive(),
            "queued times are non-negative"
        );
        let key = (time.seconds().to_bits(), payload.class_rank());
        let at = self
            .events
            .partition_point(|e| (e.time.seconds().to_bits(), e.payload.class_rank()) <= key);
        self.events.insert(at, QueuedEvent { time, seq, payload });
    }

    fn peek_time(&self) -> Option<Time> {
        self.events.first().map(|e| e.time)
    }

    /// Moves every event at the earliest pending time into `round`, in
    /// `(class, seq)` order — the engine's `pop_instant` — and returns
    /// that time. Events pushed afterwards at the same time form the next
    /// round, exactly as the wheel's larger sequence numbers do.
    fn pop_instant(&mut self, round: &mut Vec<QueuedEvent>) -> Option<Time> {
        let t = self.peek_time()?;
        let len = self.events.partition_point(|e| e.time == t);
        round.extend(self.events.drain(..len));
        Some(t)
    }
}

/// A deferred effect, merged after each segment in `(seq, k)` order.
#[derive(Clone, Copy, Debug)]
struct ModelEffect {
    seq: u64,
    k: u32,
    time: Time,
    payload: EventPayload,
}

/// One recorded live-edge send: the replayable decision outcome.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SendRecord {
    /// Sender.
    pub from: NodeId,
    /// Receiver.
    pub to: NodeId,
    /// The chosen delay.
    pub delay: f64,
}

/// A per-instant snapshot of the observable clock values — one ITF state.
#[derive(Clone, Debug, PartialEq)]
pub struct InstantState {
    /// Real time of the snapshot.
    pub time: f64,
    /// `L_u` for every node, in id order.
    pub logical: Vec<f64>,
    /// `Lmax_u` for every node, in id order.
    pub lmax: Vec<f64>,
}

/// The scenario data a run reads but never changes, built once by
/// [`Model::new`] and shared by every copy of the model.
#[derive(Debug)]
struct Fixed {
    algo: gcs_core::AlgoParams,
    clocks: Vec<HardwareClock>,
    topology: Vec<TopologyEvent>,
    faults: Vec<FaultEvent>,
    delay_choices: Vec<f64>,
}

/// The serial model interpreter over one [`Scenario`].
///
/// Its per-node and per-edge entries are the engine's own types —
/// [`TimerSlots`], [`PeerLocal`], [`EdgeShared`] and the queued
/// [`EventPayload`]s — driven by the same rule methods the engine's
/// dispatch calls. The tables are vectors sorted by key, iterated in the
/// ascending order a `BTreeMap` would give, so a copy is one buffer per
/// table and [`Clone::clone_from`] reuses it.
#[derive(Debug)]
pub struct Model<N: ModelNode> {
    fixed: Arc<Fixed>,
    nodes: Vec<N>,
    /// Per node: its timer generations.
    timers: Vec<TimerSlots>,
    /// Per node: its view of each peer it has touched, sorted by
    /// neighbor.
    peers: Vec<Vec<PeerLocal>>,
    /// Every edge ever contacted, sorted by `(lo, hi)`.
    edges: Vec<(Edge, EdgeShared)>,
    crashed: Vec<NodeId>,
    restart_count: Vec<u64>,
    queue: ModelQueue,
    now: Time,
    topo_cursor: usize,
    fault_cursor: usize,
    sends: Vec<SendRecord>,
    /// Scratch stream handed to [`Context`]; Algorithm 2 never draws, and
    /// the engine's scratch stream is equally unobservable.
    scratch_rng: StdRng,
    /// Per-instant scratch buffers, empty between uses, so copies carry
    /// nothing in them.
    round: Vec<QueuedEvent>,
    effects: Vec<ModelEffect>,
    actions: Vec<Action>,
}

impl<N: ModelNode> Clone for Model<N> {
    fn clone(&self) -> Self {
        Model {
            fixed: Arc::clone(&self.fixed),
            nodes: self.nodes.clone(),
            timers: self.timers.clone(),
            peers: self.peers.clone(),
            edges: self.edges.clone(),
            crashed: self.crashed.clone(),
            restart_count: self.restart_count.clone(),
            queue: self.queue.clone(),
            now: self.now,
            topo_cursor: self.topo_cursor,
            fault_cursor: self.fault_cursor,
            sends: self.sends.clone(),
            scratch_rng: self.scratch_rng.clone(),
            round: Vec::new(),
            effects: Vec::new(),
            actions: Vec::new(),
        }
    }

    /// Copies `source` into `self`'s buffers, allocating only where one
    /// is too small. The exhaustive destructuring makes a new field fail
    /// to compile until it is copied here.
    fn clone_from(&mut self, source: &Self) {
        let Model {
            fixed,
            nodes,
            timers,
            peers,
            edges,
            crashed,
            restart_count,
            queue,
            now,
            topo_cursor,
            fault_cursor,
            sends,
            scratch_rng,
            round: _,
            effects: _,
            actions: _,
        } = source;
        // Copies of one model share its fixed data: keep the `Arc` instead
        // of paying two atomic refcount updates per copy.
        if !Arc::ptr_eq(&self.fixed, fixed) {
            self.fixed = Arc::clone(fixed);
        }
        self.nodes.clone_from(nodes);
        self.timers.clone_from(timers);
        self.peers.clone_from(peers);
        self.edges.clone_from(edges);
        self.crashed.clone_from(crashed);
        self.restart_count.clone_from(restart_count);
        self.queue.clone_from(queue);
        self.now = *now;
        self.topo_cursor = *topo_cursor;
        self.fault_cursor = *fault_cursor;
        self.sends.clone_from(sends);
        self.scratch_rng.clone_from(scratch_rng);
    }
}

/// The state of `edge` in `edges` (sorted by edge), created on first
/// contact — the engine's `EdgeStore` entry.
fn edge_entry(edges: &mut Vec<(Edge, EdgeShared)>, edge: Edge) -> &mut EdgeShared {
    let i = match edges.binary_search_by_key(&edge, |&(e, _)| e) {
        Ok(i) => i,
        Err(i) => {
            edges.insert(i, (edge, EdgeShared::new(edge.hi())));
            i
        }
    };
    &mut edges[i].1
}

/// The state of `edge`, if any contact has happened.
fn edge_state(edges: &[(Edge, EdgeShared)], edge: Edge) -> Option<&EdgeShared> {
    let i = edges.binary_search_by_key(&edge, |&(e, _)| e).ok()?;
    Some(&edges[i].1)
}

impl<N: ModelNode> Model<N> {
    /// Builds the time-0 state, mirroring `SimBuilder::build_with`:
    /// initial edges are live at epoch 1 / version 1 with both endpoint
    /// discoveries queued at time 0, then every node's `on_start` runs in
    /// id order with its effects merged per node.
    ///
    /// # Panics
    ///
    /// If an `on_start` sends on a live edge: the decision tree starts
    /// after time 0, so such a send would take delay `T` outside it.
    pub fn new(sc: &Scenario, mut make: impl FnMut(usize) -> N) -> Self {
        let n = sc.algo.n;
        let mut model = Model {
            fixed: Arc::new(Fixed {
                algo: sc.algo,
                clocks: sc
                    .rates
                    .iter()
                    .map(|&r| HardwareClock::constant(r, sc.algo.model.rho))
                    .collect(),
                topology: sc.topology.clone(),
                faults: sc.faults.clone(),
                delay_choices: sc.delay_choices.clone(),
            }),
            nodes: (0..n).map(&mut make).collect(),
            timers: vec![TimerSlots::default(); n],
            peers: vec![Vec::new(); n],
            edges: Vec::new(),
            crashed: Vec::new(),
            restart_count: vec![0; n],
            queue: ModelQueue::default(),
            now: Time::ZERO,
            topo_cursor: 0,
            fault_cursor: 0,
            sends: Vec::new(),
            scratch_rng: StdRng::seed_from_u64(0),
            round: Vec::new(),
            effects: Vec::new(),
            actions: Vec::new(),
        };
        for &e in &sc.initial_edges {
            edge_entry(&mut model.edges, e).mark_initial();
            for w in [e.lo(), e.hi()] {
                model.queue.push(
                    Time::ZERO,
                    EventPayload::Discover {
                        node: w,
                        change: LinkChange {
                            kind: LinkChangeKind::Added,
                            edge: e,
                        },
                        version: 1,
                    },
                );
            }
        }
        // `on_start` per node in id order, effects merged per node — the
        // engine's build loop.
        let mut decider = DelayDecider::scripted(Vec::new(), sc.algo.model.t);
        for i in 0..n {
            let u = NodeId::from_index(i);
            model.with_effects(|m, effects| {
                m.run_handler(u, 0, &mut decider, effects, |a, c| a.on_start(c));
            });
            assert_eq!(
                decider.decisions(),
                0,
                "node {i}'s on_start sent on a live edge; the model decides delays only after time 0"
            );
        }
        model
    }

    /// Current real time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// The algorithm parameters this model runs under.
    pub fn algo(&self) -> &gcs_core::AlgoParams {
        &self.fixed.algo
    }

    /// Every recorded live-edge send so far, in global order.
    pub fn sends(&self) -> &[SendRecord] {
        &self.sends
    }

    /// Times a node has been restarted (the oracle resets its logical-
    /// clock monotonicity floor across restarts).
    pub fn restarts_of(&self, u: NodeId) -> u64 {
        self.restart_count[u.index()]
    }

    /// Whether `u` is currently crashed.
    pub fn is_crashed(&self, u: NodeId) -> bool {
        self.crashed.binary_search(&u).is_ok()
    }

    /// The oracle probe of node `u` at the current time.
    pub fn probe(&self, u: NodeId) -> NodeProbe {
        self.nodes[u.index()].probe(self.read_hw(u, self.now))
    }

    /// The observable clock snapshot at the current time.
    pub fn snapshot(&self) -> InstantState {
        let n = self.nodes.len();
        let mut logical = Vec::with_capacity(n);
        let mut lmax = Vec::with_capacity(n);
        for i in 0..n {
            let u = NodeId::from_index(i);
            let hw = self.read_hw(u, self.now);
            logical.push(self.nodes[i].logical_clock(hw));
            lmax.push(self.nodes[i].max_estimate(hw));
        }
        InstantState {
            time: self.now.seconds(),
            logical,
            lmax,
        }
    }

    /// Runs the model to `horizon`, resolving send delays through
    /// `decider` and calling `on_instant` after every completed instant
    /// (with `now()` at that instant, and the number of decisions made so
    /// far as the second argument) plus once at the final processed
    /// instant. Returning `false` from the callback stops the run early
    /// (the explorer's seen-state pruning). Afterwards `now()` is the
    /// horizon (unless stopped early).
    ///
    /// This mirrors `Simulator::run_until(horizon)` exactly: sources are
    /// pumped before every pop with a `T` lookahead, instants split into
    /// topology barriers, fault barriers and one protocol segment, and
    /// all segment effects merge in `(trigger seq, emission idx)` order.
    pub fn run(
        &mut self,
        horizon: f64,
        decider: &mut DelayDecider,
        mut on_instant: impl FnMut(&Model<N>, usize) -> bool,
    ) -> RunStatus {
        let until = Time::new(horizon);
        assert!(until >= self.now, "cannot run backwards");
        loop {
            self.pump_topology();
            self.pump_faults();
            let Some(t) = self.queue.peek_time() else {
                break;
            };
            if t > until {
                break;
            }
            if t > self.now && !on_instant(self, decider.decisions()) {
                return RunStatus::Stopped;
            }
            let mut round = std::mem::take(&mut self.round);
            self.now = self
                .queue
                .pop_instant(&mut round)
                .expect("peek said non-empty");
            self.run_round(&round, decider);
            round.clear();
            self.round = round;
        }
        let go_on = on_instant(self, decider.decisions());
        self.now = until;
        if go_on {
            RunStatus::Completed
        } else {
            RunStatus::Stopped
        }
    }

    /// Streams due topology into the queue — the engine's
    /// `pump_topology`: pull while the source's next event is at or
    /// before the queue's next pop (or the queue is empty), with a `T`
    /// lookahead per pull.
    fn pump_topology(&mut self) {
        loop {
            let Some(ts) = self.fixed.topology.get(self.topo_cursor).map(|e| e.time) else {
                return;
            };
            if let Some(next) = self.queue.peek_time() {
                if ts > next {
                    return;
                }
            }
            let until = ts + Duration::new(self.fixed.algo.model.t);
            while let Some(&ev) = self
                .fixed
                .topology
                .get(self.topo_cursor)
                .filter(|e| e.time <= until)
            {
                self.topo_cursor += 1;
                self.schedule_topology(ev);
            }
        }
    }

    fn pump_faults(&mut self) {
        loop {
            let Some(ts) = self.fixed.faults.get(self.fault_cursor).map(|e| e.time) else {
                return;
            };
            if let Some(next) = self.queue.peek_time() {
                if ts > next {
                    return;
                }
            }
            let until = ts + Duration::new(self.fixed.algo.model.t);
            while let Some(&ev) = self
                .fixed
                .faults
                .get(self.fault_cursor)
                .filter(|e| e.time <= until)
            {
                self.fault_cursor += 1;
                self.queue
                    .push(ev.time, EventPayload::Fault { kind: ev.kind });
            }
        }
    }

    /// Assigns the pulled event its per-edge change version and queues it
    /// plus both endpoint discoveries at `time + D`, as the engine does.
    fn schedule_topology(&mut self, ev: TopologyEvent) {
        let version = edge_entry(&mut self.edges, ev.edge).next_version();
        let kind = match ev.kind {
            TopologyEventKind::Add => LinkChangeKind::Added,
            TopologyEventKind::Remove => LinkChangeKind::Removed,
        };
        self.queue.push(
            ev.time,
            EventPayload::Topology {
                kind,
                edge: ev.edge,
                version,
            },
        );
        let discovered = ev.time + Duration::new(self.fixed.algo.model.d);
        for w in [ev.edge.lo(), ev.edge.hi()] {
            self.queue.push(
                discovered,
                EventPayload::Discover {
                    node: w,
                    change: LinkChange {
                        kind,
                        edge: ev.edge,
                    },
                    version,
                },
            );
        }
    }

    /// One instant: topology barriers, then fault barriers, then a single
    /// protocol segment — the order the `(time, class, seq)` sort already
    /// put the round in.
    fn run_round(&mut self, round: &[QueuedEvent], decider: &mut DelayDecider) {
        let mut i = 0;
        while i < round.len() {
            match round[i].payload {
                EventPayload::Topology {
                    kind,
                    edge,
                    version,
                } => {
                    edge_entry(&mut self.edges, edge).apply(kind, edge, version);
                    i += 1;
                }
                EventPayload::Fault { kind } => {
                    self.apply_fault(kind, round[i].seq, decider);
                    i += 1;
                }
                _ => break,
            }
        }
        if i == round.len() {
            return;
        }
        self.with_effects(|m, effects| {
            for ev in &round[i..] {
                debug_assert_eq!(ev.payload.class_rank(), 2, "barriers sort first");
                m.run_event(ev, decider, effects);
            }
        });
    }

    /// The engine's fault barrier for the crash/restart family.
    fn apply_fault(&mut self, kind: FaultKind, seq: u64, decider: &mut DelayDecider) {
        match kind {
            FaultKind::Crash { node } => {
                if let Err(i) = self.crashed.binary_search(&node) {
                    self.crashed.insert(i, node);
                    // All armed timers go stale; entries stay so post-
                    // restart arms never alias in-flight generations.
                    self.timers[node.index()].cancel_all();
                }
            }
            FaultKind::Restart { node } => {
                if let Ok(i) = self.crashed.binary_search(&node) {
                    self.crashed.remove(i);
                }
                self.restart_count[node.index()] += 1;
                let fresh = self.nodes[node.index()]
                    .try_reboot()
                    .expect("model automata support reboot");
                self.nodes[node.index()] = fresh;
                self.timers[node.index()].cancel_all();
                for peer in &mut self.peers[node.index()] {
                    peer.discovered_version = 0;
                }
                // `on_start` at the restart instant, merged under the
                // fault's sequence number.
                self.with_effects(|m, effects| {
                    m.run_handler(node, seq, decider, effects, |a, c| a.on_start(c));
                });
                // Rediscover currently-live edges D later, under each
                // edge's last applied add version.
                let discovered = self.now + Duration::new(self.fixed.algo.model.d);
                for v in (0..self.nodes.len()).map(NodeId::from_index) {
                    if v == node {
                        continue;
                    }
                    let edge = Edge::new(node, v);
                    let Some(state) = edge_state(&self.edges, edge).filter(|e| e.live) else {
                        continue;
                    };
                    let version = state.last_add_version;
                    self.queue.push(
                        discovered,
                        EventPayload::Discover {
                            node,
                            change: LinkChange {
                                kind: LinkChangeKind::Added,
                                edge,
                            },
                            version,
                        },
                    );
                }
            }
            _ => unreachable!("Scenario::validate admits crash/restart only"),
        }
    }

    /// Hardware reading of `u` at `t`: `H(0) = 0`, else the node's clock —
    /// the engine's stateless-plane path bit for bit.
    fn read_hw(&self, u: NodeId, t: Time) -> f64 {
        if t == Time::ZERO {
            return 0.0;
        }
        self.fixed.clocks[u.index()].read(t)
    }

    /// One non-barrier event — the engine's `dispatch::run_event`.
    fn run_event(
        &mut self,
        ev: &QueuedEvent,
        decider: &mut DelayDecider,
        effects: &mut Vec<ModelEffect>,
    ) {
        let owner = ev.payload.owner();
        // A crashed node executes nothing: deliveries to it vanish, its
        // alarms and discoveries are suppressed; watermarks are left
        // untouched.
        if self.is_crashed(owner) {
            return;
        }
        match ev.payload {
            EventPayload::Deliver {
                from,
                to,
                msg,
                epoch,
            } => {
                let edge = Edge::new(from, to);
                let state = edge_state(&self.edges, edge);
                if state.is_some_and(|e| e.delivers(epoch)) {
                    self.run_handler(owner, ev.seq, decider, effects, |a, c| {
                        a.on_receive(c, from, msg)
                    });
                } else {
                    // Dropped in flight: the sender learns of the removal
                    // now (≤ send + T < send + D).
                    let version = state.map(|e| e.last_remove_version).unwrap_or(0);
                    effects.push(ModelEffect {
                        seq: ev.seq,
                        k: 0,
                        time: self.now,
                        payload: EventPayload::Discover {
                            node: from,
                            change: LinkChange {
                                kind: LinkChangeKind::Removed,
                                edge,
                            },
                            version,
                        },
                    });
                }
            }
            EventPayload::Alarm {
                kind, generation, ..
            } => {
                let timers = &mut self.timers[owner.index()];
                if timers.get(kind) != Some(generation) {
                    return; // stale
                }
                timers.disarm(kind);
                self.run_handler(owner, ev.seq, decider, effects, |a, c| a.on_alarm(c, kind));
            }
            EventPayload::Discover {
                change, version, ..
            } => {
                let other = change.edge.other(owner);
                if !PeerLocal::entry(&mut self.peers[owner.index()], other).learn(version) {
                    return; // stale
                }
                self.run_handler(owner, ev.seq, decider, effects, |a, c| {
                    a.on_discover(c, change)
                });
            }
            _ => unreachable!(),
        }
    }

    /// Runs one handler and converts its actions into effects — the
    /// engine's `dispatch::run_handler`, with the delay draw replaced by
    /// the decider.
    fn run_handler(
        &mut self,
        u: NodeId,
        seq: u64,
        decider: &mut DelayDecider,
        effects: &mut Vec<ModelEffect>,
        f: impl FnOnce(&mut N, &mut Context<'_>),
    ) {
        let hw = self.read_hw(u, self.now);
        let mut actions = std::mem::take(&mut self.actions);
        {
            let mut ctx = Context::new(u, self.now, hw, &mut actions, &mut self.scratch_rng);
            f(&mut self.nodes[u.index()], &mut ctx);
        }
        let mut k = 0u32;
        for action in actions.drain(..) {
            match action {
                Action::Send { to, msg } => {
                    let edge = Edge::new(u, to);
                    let state = edge_state(&self.edges, edge);
                    if state.is_some_and(|e| e.live) {
                        let epoch = state.expect("live edge has an entry").epoch;
                        // THE decision point: the adversary picks the
                        // delay within [0, T] (the engine's strategy
                        // clamp applied for exactness).
                        let d = decider
                            .next_delay(&self.fixed.delay_choices)
                            .clamp(0.0, self.fixed.algo.model.t);
                        let due = self.now + Duration::new(d);
                        let deliver_at = PeerLocal::entry(&mut self.peers[u.index()], to).fifo(due);
                        self.sends.push(SendRecord {
                            from: u,
                            to,
                            delay: d,
                        });
                        effects.push(ModelEffect {
                            seq,
                            k,
                            time: deliver_at,
                            payload: EventPayload::Deliver {
                                from: u,
                                to,
                                msg,
                                epoch,
                            },
                        });
                    } else {
                        // No edge: not delivered, sender discovers D later.
                        let version = state.map(|e| e.last_remove_version).unwrap_or(0);
                        effects.push(ModelEffect {
                            seq,
                            k,
                            time: self.now + Duration::new(self.fixed.algo.model.d),
                            payload: EventPayload::Discover {
                                node: u,
                                change: LinkChange {
                                    kind: LinkChangeKind::Removed,
                                    edge,
                                },
                                version,
                            },
                        });
                    }
                    k += 1;
                }
                Action::SetTimer { delta, kind } => {
                    let generation = self.timers[u.index()].arm(kind);
                    let clock = &self.fixed.clocks[u.index()];
                    let fire = if self.now == Time::ZERO {
                        clock.fire_time(Time::ZERO, delta)
                    } else {
                        clock.fire_time(self.now, delta)
                    };
                    effects.push(ModelEffect {
                        seq,
                        k,
                        time: fire,
                        payload: EventPayload::Alarm {
                            node: u,
                            kind,
                            generation,
                        },
                    });
                    k += 1;
                }
                Action::CancelTimer { kind } => self.timers[u.index()].cancel(kind),
            }
        }
        self.actions = actions;
    }

    /// Runs `f` with the (empty) effects buffer, then merges what it
    /// collected in canonical order: sorted by `(trigger seq, emission
    /// idx)` and pushed in that order, so new events get the engine's
    /// tie-break order.
    fn with_effects(&mut self, f: impl FnOnce(&mut Self, &mut Vec<ModelEffect>)) {
        let mut effects = std::mem::take(&mut self.effects);
        f(self, &mut effects);
        effects.sort_unstable_by_key(|e| (e.seq, e.k));
        for e in effects.drain(..) {
            self.queue.push(e.time, e.payload);
        }
        self.effects = effects;
    }

    /// Appends an exact canonical encoding of the complete model state.
    ///
    /// Queue sequence numbers are remapped to their pop-order rank:
    /// absolute values grow with history length, but only their *order*
    /// is observable (they never enter any `f64` computation), so two
    /// states agreeing on everything but the absolute values behave
    /// identically forever. Everything else — times, offsets, epochs,
    /// versions, generations — is encoded raw.
    pub fn encode(&self, out: &mut Vec<u64>) {
        out.push(self.now.seconds().to_bits());
        for (i, node) in self.nodes.iter().enumerate() {
            out.push(u64::from(self.is_crashed(NodeId::from_index(i))));
            node.encode(out);
            let timers = self.timers[i].iter();
            out.push(timers.len() as u64);
            for (kind, gen) in timers {
                out.extend_from_slice(&[timer_code(kind), gen]);
            }
            // Engine peer slots materialize lazily with fresh content, so
            // fresh entries encode as absent.
            counted(out, 3, |out| {
                for p in &self.peers[i] {
                    if *p != PeerLocal::new(p.neighbor) {
                        out.extend_from_slice(&[
                            p.neighbor.index() as u64,
                            p.discovered_version,
                            p.fifo_out.seconds().to_bits(),
                        ]);
                    }
                }
            });
        }
        out.push(self.edges.len() as u64);
        for (e, st) in &self.edges {
            out.extend_from_slice(&[
                e.lo().index() as u64,
                e.hi().index() as u64,
                u64::from(st.live),
                st.epoch,
                st.versions,
                st.last_add_version,
                st.last_remove_version,
            ]);
        }
        out.extend_from_slice(&[self.topo_cursor as u64, self.fault_cursor as u64]);
        // The queue is kept in pop order.
        let pending = &self.queue.events;
        out.push(pending.len() as u64);
        for ev in pending {
            let time = ev.time.seconds().to_bits();
            match ev.payload {
                EventPayload::Deliver {
                    from,
                    to,
                    msg,
                    epoch,
                } => out.extend_from_slice(&[
                    time,
                    0,
                    from.index() as u64,
                    to.index() as u64,
                    msg.logical.to_bits(),
                    msg.max_estimate.to_bits(),
                    epoch,
                ]),
                EventPayload::Alarm {
                    node,
                    kind,
                    generation,
                } => out.extend_from_slice(&[
                    time,
                    1,
                    node.index() as u64,
                    timer_code(kind),
                    generation,
                ]),
                EventPayload::Topology {
                    kind,
                    edge,
                    version,
                } => out.extend_from_slice(&[
                    time,
                    2,
                    u64::from(kind == LinkChangeKind::Added),
                    edge.lo().index() as u64,
                    edge.hi().index() as u64,
                    version,
                ]),
                EventPayload::Discover {
                    node,
                    change,
                    version,
                } => out.extend_from_slice(&[
                    time,
                    3,
                    node.index() as u64,
                    u64::from(change.kind == LinkChangeKind::Added),
                    change.edge.lo().index() as u64,
                    change.edge.hi().index() as u64,
                    version,
                ]),
                EventPayload::Fault { kind } => {
                    let (code, node) = match kind {
                        FaultKind::Crash { node } => (0, node),
                        FaultKind::Restart { node } => (1, node),
                        _ => unreachable!("validated scenario"),
                    };
                    out.extend_from_slice(&[time, 4, code, node.index() as u64]);
                }
            }
        }
    }
}

/// How a [`Model::run`] ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunStatus {
    /// Ran to the horizon.
    Completed,
    /// The instant callback requested an early stop (seen state or
    /// violation).
    Stopped,
}

fn timer_code(kind: TimerKind) -> u64 {
    match kind {
        TimerKind::Tick => 0,
        TimerKind::Lost(v) => 1 + v.index() as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcs_core::AlgoParams;
    use gcs_sim::{Message, ModelParams};

    fn tiny_scenario() -> Scenario {
        let model = ModelParams::new(0.05, 1.0, 2.0);
        Scenario {
            name: "tiny".into(),
            algo: AlgoParams::with_minimal_b0(model, 2, 0.5),
            rates: vec![1.05, 0.95],
            initial_edges: vec![Edge::new(NodeId::from_index(0), NodeId::from_index(1))],
            topology: Vec::new(),
            faults: Vec::new(),
            delay_choices: vec![0.0, 1.0],
            horizon: 2.0,
        }
    }

    #[test]
    fn model_runs_to_horizon_and_snapshots() {
        let sc = tiny_scenario();
        sc.validate();
        let mut m = Model::new(&sc, |_| GradientNode::new(sc.algo));
        let mut decider = DelayDecider::trail(Vec::new());
        let mut instants = 0;
        let status = m.run(sc.horizon, &mut decider, |_, _| {
            instants += 1;
            true
        });
        assert_eq!(status, RunStatus::Completed);
        assert!(instants > 0, "ticks and discoveries produce instants");
        assert!(decider.decisions() > 0, "live-edge sends are decisions");
        let snap = m.snapshot();
        assert_eq!(snap.time, sc.horizon);
        // The fast node's logical clock tracks its hardware clock.
        assert!(snap.logical[0] > 0.0 && snap.lmax[0] >= snap.logical[0]);
    }

    #[test]
    fn encode_is_deterministic_across_identical_runs() {
        let sc = tiny_scenario();
        let run = |choices: Vec<usize>| {
            let mut m = Model::new(&sc, |_| GradientNode::new(sc.algo));
            let mut d = DelayDecider::trail(choices);
            m.run(sc.horizon, &mut d, |_, _| true);
            let mut enc = Vec::new();
            m.encode(&mut enc);
            enc
        };
        assert_eq!(run(vec![0, 1]), run(vec![0, 1]));
        assert_ne!(
            run(vec![0, 0]),
            run(vec![1, 1]),
            "different delay choices reach different states"
        );
    }

    #[test]
    fn scripted_decider_replays_a_recorded_run_exactly() {
        let sc = tiny_scenario();
        let mut m1 = Model::new(&sc, |_| GradientNode::new(sc.algo));
        let mut d1 = DelayDecider::trail(vec![1, 0, 1]);
        m1.run(sc.horizon, &mut d1, |_, _| true);
        let delays: Vec<f64> = m1.sends().iter().map(|s| s.delay).collect();

        let mut m2 = Model::new(&sc, |_| GradientNode::new(sc.algo));
        let mut d2 = DelayDecider::scripted(delays, sc.algo.model.t);
        m2.run(sc.horizon, &mut d2, |_, _| true);
        assert_eq!(m1.sends(), m2.sends());
        let (mut e1, mut e2) = (Vec::new(), Vec::new());
        m1.encode(&mut e1);
        m2.encode(&mut e2);
        assert_eq!(e1, e2);
    }

    fn node(i: usize) -> NodeId {
        NodeId::from_index(i)
    }

    #[test]
    #[should_panic(expected = "endpoint out of range for n=2")]
    fn validate_rejects_a_topology_endpoint_outside_the_nodes() {
        let mut sc = tiny_scenario();
        sc.topology = vec![TopologyEvent::add_at(0.5, Edge::new(node(0), node(2)))];
        sc.validate();
    }

    #[test]
    #[should_panic(expected = "add of already-present edge")]
    fn validate_rejects_an_add_of_a_live_edge() {
        let mut sc = tiny_scenario();
        sc.topology = vec![TopologyEvent::add_at(0.5, sc.initial_edges[0])];
        sc.validate();
    }

    #[test]
    #[should_panic(expected = "remove of absent edge")]
    fn validate_rejects_a_removal_of_an_absent_edge() {
        let mut sc = tiny_scenario();
        sc.topology = vec![
            TopologyEvent::remove_at(0.5, sc.initial_edges[0]),
            TopologyEvent::remove_at(0.7, sc.initial_edges[0]),
        ];
        sc.validate();
    }

    #[test]
    #[should_panic(expected = "fault victim n2 out of range for n=2")]
    fn validate_rejects_a_fault_victim_outside_the_nodes() {
        let mut sc = tiny_scenario();
        sc.faults = vec![FaultEvent::crash(0.5, node(2))];
        sc.validate();
    }

    #[test]
    #[should_panic(expected = "decision 1: forced choice 2 out of range for 2 delay choices")]
    fn trail_decider_rejects_a_forced_choice_outside_the_choices() {
        let sc = tiny_scenario();
        let mut m = Model::new(&sc, |_| GradientNode::new(sc.algo));
        m.run(sc.horizon, &mut DelayDecider::trail(vec![1, 2]), |_, _| {
            true
        });
    }

    /// A node that messages its one neighbor from `on_start`.
    #[derive(Clone)]
    struct EagerSender(NodeId);

    impl Automaton for EagerSender {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            let msg = Message {
                logical: 0.0,
                max_estimate: 0.0,
            };
            ctx.send(self.0, msg);
        }
        fn on_receive(&mut self, _: &mut Context<'_>, _: NodeId, _: Message) {}
        fn on_discover(&mut self, _: &mut Context<'_>, _: LinkChange) {}
        fn on_alarm(&mut self, _: &mut Context<'_>, _: TimerKind) {}
        fn logical_clock(&self, hw: f64) -> f64 {
            hw
        }
    }

    impl ModelNode for EagerSender {
        fn probe(&self, hw: f64) -> NodeProbe {
            NodeProbe {
                logical: hw,
                max_estimate: hw,
                blocked: false,
                caps: Vec::new(),
            }
        }
        fn encode(&self, _: &mut Vec<u64>) {}
    }

    #[test]
    #[should_panic(expected = "node 0's on_start sent on a live edge")]
    fn model_rejects_a_send_from_on_start() {
        let sc = tiny_scenario();
        Model::new(&sc, |i| EagerSender(node(1 - i)));
    }
}
