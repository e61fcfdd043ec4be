//! The deterministic parallel discrete-event simulation engine.
//!
//! [`Simulator`] replays a topology stream — any [`TopologySource`], with
//! eager [`TopologySchedule`](gcs_net::TopologySchedule)s adapted
//! through [`ScheduleSource`](gcs_net::ScheduleSource) —
//! against a set of protocol [`Automaton`]s, enforcing the model
//! guarantees of Section 3.2:
//!
//! * **Delays**: every delivered message takes `[0, T]` real time, FIFO per
//!   directed link (enforced by clamping a later message's delivery to the
//!   previous one's, which never exceeds the `T` bound because sends are
//!   ordered).
//! * **Removal semantics**: a message in flight on an edge that goes down
//!   is dropped, and the *sender* is handed a `discover(remove)` no later
//!   than `send time + D` (we schedule it at the failed delivery instant,
//!   which is `≤ send + T < send + D`).
//! * **Discovery**: each endpoint of a changed edge receives a
//!   `discover` event within `D`; per-edge version numbers let the engine
//!   skip *stale* discoveries (an older change superseded by a newer one),
//!   which models the paper's "transient link formations or failures … may
//!   or may not be detected".
//! * **Subjective timers**: `set_timer(Δt)` fires when the node's hardware
//!   clock has advanced by exactly `Δt`, computed by exact inversion of the
//!   node's rate schedule (through the lazy drift plane — see below).
//!
//! ## The streaming topology pipeline
//!
//! Topology is **pulled, not pre-loaded**: before each instant the engine
//! asks the source for any events due at or before the next pending
//! event (`Simulator::pump_topology`, with a small fixed lookahead
//! window to amortize pulls). Each pulled event is assigned its per-edge
//! change version (stream order, via the `EdgeStore` counter) and
//! **staged, not pushed**: it parks in a compact per-source staging
//! buffer in near-native form, holding three *reserved* wheel sequence
//! numbers (the change plus its two endpoint `Discover`s — reserved at
//! pull time, exactly where a direct push would have assigned them).
//! Admission into the wheel is horizon-gated: a staged event converts
//! into its wheel-event trio only once it is due no later than the
//! wheel's next event, with discovery latencies drawn at admission from
//! a dedicated per-`(edge, version, endpoint)` stream — a pure function
//! of the event identity, never a node's stream, so the draw is
//! independent of *when* the event is pulled or admitted. The pulled
//! backlog therefore never materializes as full events (no overflow-map
//! churn on the push path), and peak memory is `O(backlog window)`
//! compact records, independent of the total churn-event count. Pull
//! decisions compare the source against the merged front of the wheel
//! *and* both staging buffers — exactly the set of pending events the
//! pre-staging engine kept in the wheel — so pull timing, reserved
//! sequence numbers, and with them the trace are bit-identical to the
//! eager-push pipeline, across thread counts and arbitrary `run_until`
//! splits.
//!
//! ## The lazy clock plane
//!
//! Hardware rates stream the same way: the engine holds one immutable
//! [`DriftSource`] instead of `n` materialized `RateSchedule`s, and the
//! only per-node drift state is an O(1) cursor in the owning shard,
//! created the first time a node's clock is evaluated past time 0
//! (`H(0) = 0` needs nothing). Eager per-node clocks are adapted
//! through `ScheduleDrift` (stateless — no cursors at all), and
//! node-local engine state lives in a struct-of-arrays table sized by
//! the touched-node watermark, so untouched nodes cost zero bytes of
//! clock, RNG, timer, and peer state. Every evaluation path produces
//! the identical bits the materialized schedule would — pinned by
//! `crates/bench/tests/lazy_drift.rs`.
//!
//! ## The hot path: instants, segments, shards
//!
//! Events live in a [`TimeWheel`] calendar queue keyed on the delay bound
//! `T` and popped in `(time, class, seq)` order — topology events sort
//! before same-instant protocol events (a change takes effect *at* its
//! instant), insertion order breaks remaining ties.
//! [`Simulator::run_until`] drains the wheel one **instant** (all
//! events at the earliest pending time) at a time. The instant's
//! topology events form a contiguous prefix (the class sort above) and
//! are applied as **one batch**, serially in seq order, to the edge
//! store before any handler runs. That edge store is the engine's only
//! record of the live edge set `E(t)`; [`Simulator::graph`] reads it
//! through a [`GraphView`]. The
//! rest of the instant (fault events are serial barriers) is cut into
//! *segments*; all events inside a segment target node-exclusive state,
//! so a segment is dispatched **sharded by owning [`NodeId`]** — round-robin
//! over [`SimBuilder::threads`] worker shards. Wide segments (at least
//! [`SimBuilder::par_threshold`] events, default 64) run through one
//! **scoped fork/join** (`dispatch::fork_join`): the shards are cut into
//! one chunk per lane, the first chunk runs on the coordinating thread
//! and each other chunk on a thread spawned for that segment alone.
//! Handler-emitted actions are buffered and merged back
//! into the wheel in the canonical `(triggering event seq, emission
//! index)` order, and every random draw comes from the consuming node's
//! private stream, so the trace is **bit-identical for every thread
//! count and threshold** — pinned by
//! `crates/bench/tests/determinism.rs` and `crates/sim/tests/pool.rs`,
//! with eager-vs-streaming equivalence pinned by
//! `crates/bench/tests/streaming.rs`.

use crate::automaton::Automaton;
use crate::delay::DelayStrategy;
use crate::dispatch::{self, DispatchCtx, Effect, PAR_MIN_EVENTS};
use crate::event::{EventPayload, LinkChange, LinkChangeKind, QueuedEvent};
use crate::fault::{FaultEvent, FaultKind, FaultSource, FaultState};
use crate::model::ModelParams;
use crate::shard::{EdgeStore, GraphView, NodeTable, Shards};
use crate::stats::SimStats;
use crate::wheel::TimeWheel;
use gcs_clocks::{DriftModel, DriftSource, Duration, ModelDrift, Time};
use gcs_net::schedule::TopologyEventKind;
use gcs_net::{Edge, NodeId, TopologyEvent, TopologySource};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

/// Environment variable consulted for the default worker count, so a CI
/// matrix (or an operator) can exercise the parallel path without touching
/// code: `GCS_SIM_THREADS=8 cargo test`. Read by [`threads_from_env`].
pub const THREADS_ENV: &str = "GCS_SIM_THREADS";

/// Hard cap on worker shards — far above any sensible host, it only guards
/// against absurd shard counts.
const MAX_THREADS: usize = 64;

/// The worker count [`THREADS_ENV`] asks for: 1 when the variable is
/// unset. The default of [`SimBuilder::threads`], and the one parser of
/// the variable for every binary that honours it.
///
/// # Panics
/// When the variable is set to anything but an integer in `1..=64`
/// (surrounding whitespace allowed); the message names the variable and
/// its value, so a typo cannot silently run single-threaded.
pub fn threads_from_env() -> usize {
    // Invalid UTF-8 turns into U+FFFD, which never parses as a count.
    std::env::var_os(THREADS_ENV).map_or(1, |value| parse_threads(&value.to_string_lossy()))
}

/// Parses one [`THREADS_ENV`] value; see [`threads_from_env`].
fn parse_threads(value: &str) -> usize {
    checked_threads(
        value.trim().parse().ok(),
        format_args!("{THREADS_ENV}={value:?}"),
    )
}

/// The one range check on worker counts, shared by [`THREADS_ENV`] and
/// [`SimBuilder::threads`]: returns `threads` when it is in
/// `1..=MAX_THREADS`, else panics naming `origin` and the range.
fn checked_threads(threads: Option<usize>, origin: std::fmt::Arguments<'_>) -> usize {
    match threads {
        Some(t) if (1..=MAX_THREADS).contains(&t) => t,
        _ => panic!("{origin} is not a worker count in 1..={MAX_THREADS}"),
    }
}

/// How long the environment waits before telling an endpoint about a
/// topology change. Every variant is validated against the bound `D`
/// when the simulator is built: values must be finite, `0 < delay ≤ D`
/// and `0 < lo ≤ hi ≤ D`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum DiscoveryDelay {
    /// Every change discovered exactly `delay` after it happens.
    Constant(f64),
    /// Uniformly random discovery latency in `[lo, hi]`.
    Uniform {
        /// Lower bound (must be `> 0`).
        lo: f64,
        /// Upper bound (must be `≤ D`).
        hi: f64,
    },
}

impl DiscoveryDelay {
    /// Panics unless every latency this model can produce lies in
    /// `(0, d_bound]` — the model's discovery bound `D`.
    fn validate(&self, d_bound: f64) {
        let ok = |v: f64| v.is_finite() && v > 0.0 && v <= d_bound;
        match *self {
            DiscoveryDelay::Constant(d) => {
                assert!(ok(d), "discovery delay {d} outside (0, D = {d_bound}]")
            }
            DiscoveryDelay::Uniform { lo, hi } => assert!(
                ok(lo) && ok(hi) && lo <= hi,
                "discovery range [{lo}, {hi}] outside 0 < lo <= hi <= D = {d_bound}"
            ),
        }
    }

    /// True when [`sample`](Self::sample) may draw from the RNG — same
    /// contract as [`DelayStrategy::draws`]: the engine only materializes
    /// a node's lazy stream for drawing models.
    pub(crate) fn draws(&self) -> bool {
        match self {
            DiscoveryDelay::Constant(_) => false,
            DiscoveryDelay::Uniform { lo, hi } => lo != hi,
        }
    }

    pub(crate) fn sample(&self, d_bound: f64, rng: &mut StdRng) -> f64 {
        let v = match self {
            DiscoveryDelay::Constant(d) => *d,
            DiscoveryDelay::Uniform { lo, hi } => {
                if lo == hi {
                    *lo
                } else {
                    rng.gen_range(*lo..=*hi)
                }
            }
        };
        debug_assert!(
            v > 0.0 && v <= d_bound + 1e-12,
            "discovery delay {v} outside (0, {d_bound}]"
        );
        v.clamp(f64::MIN_POSITIVE, d_bound)
    }

    /// Latency of a *scheduled* topology discovery, drawn from a dedicated
    /// stream keyed by `(seed, edge, version, endpoint)`. Topology is
    /// pulled lazily, so this draw must not touch any node's private
    /// stream: its position there would depend on how far the simulation
    /// had progressed when the pull happened, and with it the trace.
    /// A keyed one-shot stream makes the latency a pure function of the
    /// event identity instead.
    pub(crate) fn scheduled_latency(
        &self,
        d_bound: f64,
        seed: u64,
        edge: Edge,
        version: u64,
        endpoint: NodeId,
    ) -> f64 {
        match self {
            DiscoveryDelay::Constant(d) => d.clamp(f64::MIN_POSITIVE, d_bound),
            DiscoveryDelay::Uniform { .. } => {
                let mut rng =
                    StdRng::seed_from_u64(discovery_stream_seed(seed, edge, version, endpoint));
                self.sample(d_bound, &mut rng)
            }
        }
    }
}

/// Domain-separation salt for restart-rediscovery latency streams: a
/// rebooted node re-learns a live edge under the edge's last applied add
/// version, and the latency draw must not collide with the draw the
/// original discovery of that `(edge, version, endpoint)` already made.
const RESTART_DISCOVERY_SALT: u64 = 0x94D0_49BB_1331_11EB;

/// Decorrelated one-shot stream seed for scheduled-discovery latencies.
fn discovery_stream_seed(seed: u64, edge: Edge, version: u64, endpoint: NodeId) -> u64 {
    seed ^ 0xBB67_AE85_84CA_A73B
        ^ (edge.lo().index() as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (edge.hi().index() as u64 + 1).wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
        ^ version.wrapping_mul(0xD6E8_FEB8_6659_FD93)
        ^ (endpoint.index() as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F)
}

/// A pulled topology event parked in the staging buffer: the compact
/// form the horizon-gated admission path holds instead of the three
/// materialized wheel events (change + two discovers). `seq` is the
/// first of the trio's three *reserved* wheel sequence numbers, claimed
/// at pull time so the eventual pop order is fixed by the pull order —
/// exactly as if the trio had been pushed eagerly — no matter when
/// admission happens. The version is also assigned at pull time (stream
/// order); only the discovery-latency draws (pure functions of
/// `(edge, version, endpoint)`) are deferred to admission.
#[derive(Clone, Copy, Debug)]
struct StagedTopology {
    time: Time,
    seq: u64,
    edge: Edge,
    version: u64,
    kind: LinkChangeKind,
}

/// A pulled fault event parked in the staging buffer, with its one
/// reserved wheel sequence number (see [`StagedTopology`]).
#[derive(Clone, Copy, Debug)]
struct StagedFault {
    time: Time,
    seq: u64,
    kind: FaultKind,
}

/// How the builder was told to generate hardware clocks; resolved into
/// one [`DriftSource`] plane at build time.
enum DriftSpec {
    /// Perfect clocks (the default).
    Perfect,
    /// A [`DriftModel`] evaluated lazily ([`ModelDrift`]), keyed by the
    /// builder's *final* seed.
    Model { model: DriftModel, horizon: f64 },
    /// A caller-supplied plane.
    Source(Box<dyn DriftSource>),
}

/// Builder for [`Simulator`].
///
/// The canonical surface is the **source-plane triple**: every input
/// plane of the model is one pull-based stream —
///
/// * [`topology`](Self::topology) takes the edge stream (any
///   [`TopologySource`]),
/// * [`drift`](Self::drift) takes the clock plane (any [`DriftSource`];
///   [`drift_model`](Self::drift_model) is the seed-deferred sugar for
///   [`DriftModel`]s),
/// * [`faults`](Self::faults) takes the fault plane (any
///   [`FaultSource`]).
pub struct SimBuilder {
    params: ModelParams,
    source: Box<dyn TopologySource>,
    n: usize,
    drift: DriftSpec,
    faults: Option<Box<dyn FaultSource>>,
    delay: DelayStrategy,
    discovery: DiscoveryDelay,
    seed: u64,
    threads: Option<usize>,
    par_threshold: Option<usize>,
}

impl SimBuilder {
    /// Starts a builder over a topology stream — the canonical
    /// constructor. Eager [`TopologySchedule`](gcs_net::TopologySchedule)s
    /// adapt through [`ScheduleSource`](gcs_net::ScheduleSource); lazy
    /// sources keep peak memory independent of the total churn-event
    /// count. Defaults: perfect clocks, no faults, maximum delays,
    /// worst-case (`= D`) discovery latency, seed 0, worker count from
    /// [`threads_from_env`].
    pub fn topology(params: ModelParams, source: impl TopologySource + 'static) -> Self {
        let n = source.n();
        SimBuilder {
            discovery: DiscoveryDelay::Constant(params.d),
            params,
            source: Box::new(source),
            n,
            drift: DriftSpec::Perfect,
            faults: None,
            delay: DelayStrategy::Max,
            seed: 0,
            threads: None,
            par_threshold: None,
        }
    }

    /// Uses a caller-supplied drift plane (any [`DriftSource`]) — the
    /// canonical clock input, mirroring [`topology`](Self::topology).
    /// Eager per-node [`HardwareClock`](gcs_clocks::HardwareClock)s adapt
    /// through [`ScheduleDrift`](gcs_clocks::ScheduleDrift);
    /// [`DriftModel`]s through [`drift_model`](Self::drift_model) (which
    /// defers seeding to build time — prefer it for models).
    pub fn drift(mut self, source: impl DriftSource + 'static) -> Self {
        self.drift = DriftSpec::Source(Box::new(source));
        self
    }

    /// Generates clocks from a drift model with rate changes confined to
    /// `[0, horizon]` (queries beyond continue the final rate — the
    /// deterministic-extension contract of [`DriftModel::build`]).
    ///
    /// The model is evaluated **lazily**: nothing is materialized per
    /// node; each node's rates are generated on demand from its own
    /// keyed stream (a pure function of the builder's *final* seed and
    /// the node index, resolved at [`build_with`](Self::build_with) —
    /// `.drift_model(..).seed(s)` and `.seed(s).drift_model(..)` are
    /// equivalent). Drift streams are domain-separated from
    /// delay/discovery streams. This is the sugar form of
    /// [`drift`](Self::drift) for models; it exists because a
    /// [`ModelDrift`] built *here* would have to commit to a seed before
    /// [`seed`](Self::seed) runs.
    pub fn drift_model(mut self, model: DriftModel, horizon: f64) -> Self {
        self.drift = DriftSpec::Model { model, horizon };
        self
    }

    /// Attaches a fault plane (any [`FaultSource`]): crash/restart,
    /// message-loss and delay-spike windows, and drift excursions, pulled
    /// lazily and applied as serial barriers in `(time, class, seq)`
    /// order — see [`crate::fault`]. Without this call the engine skips
    /// every fault check (clean runs pay nothing).
    pub fn faults(mut self, source: impl FaultSource + 'static) -> Self {
        self.faults = Some(Box::new(source));
        self
    }

    /// Sets the delay adversary.
    pub fn delay(mut self, delay: DelayStrategy) -> Self {
        self.delay = delay;
        self
    }

    /// Sets the discovery-latency model (validated against `D` by
    /// [`build_with`](Self::build_with)).
    pub fn discovery(mut self, discovery: DiscoveryDelay) -> Self {
        self.discovery = discovery;
        self
    }

    /// Seeds all randomness (per-node streams, discovery jitter, drift
    /// generation).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Number of worker shards for parallel dispatch, in `1..=64`. The
    /// trace is bit-identical for every value; only wall-clock time
    /// changes. Overrides [`THREADS_ENV`].
    ///
    /// # Panics
    /// When `threads` is outside `1..=64` — the same check, and the same
    /// message, as a malformed [`THREADS_ENV`].
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(checked_threads(
            Some(threads),
            format_args!("SimBuilder::threads({threads})"),
        ));
        self
    }

    /// Minimum events in a segment before it is forked across threads
    /// (≥ 1); narrower ones run inline. Defaults to 64. Scheduling only —
    /// the trace is bit-identical for every value (pinned by the
    /// boundary proptest in `crates/sim/tests/pool.rs`).
    /// The effective value is recorded in [`SimStats::par_min_events`].
    pub fn par_threshold(mut self, events: usize) -> Self {
        assert!(events >= 1, "threshold of 0 would parallelize empty work");
        self.par_threshold = Some(events);
        self
    }

    /// Finalizes the simulator; `make_node(i)` constructs the automaton for
    /// node `i`. `on_start` handlers run immediately, followed by the
    /// discovery of the initial edge set at time 0. Scheduled topology is
    /// **not** pre-loaded — it streams from the source as the simulation
    /// advances.
    ///
    /// # Panics
    /// When the discovery model violates the bound `D` (see
    /// [`DiscoveryDelay`]), when a static delay of the delay strategy is
    /// not in `[0, T]` or its layer vector does not cover the `n` nodes,
    /// when the source's initial edges are not sorted and distinct or
    /// name a node `≥ n`, or when [`THREADS_ENV`] is malformed and no
    /// explicit [`threads`](Self::threads) was given.
    /// Later pulls panic as well when the source breaks its contract
    /// (see [`Simulator::run_until`]).
    pub fn build_with<A: Automaton>(mut self, make_node: impl FnMut(usize) -> A) -> Simulator<A> {
        self.discovery.validate(self.params.d);
        self.delay.validate(self.params.t, self.n);
        let n = self.n;
        let workers = self.threads.unwrap_or_else(threads_from_env);
        let shard_count = workers.min(n.max(1));
        let par_min = self.par_threshold.unwrap_or(PAR_MIN_EVENTS);
        // Resolve the drift spec into the one plane every evaluation goes
        // through. The model plane's stream seed keeps the historical
        // `seed ^ GOLDEN` domain separation from node streams.
        let drift: Box<dyn DriftSource> = match self.drift {
            DriftSpec::Perfect => Box::new(ModelDrift::new(
                DriftModel::Perfect,
                self.params.rho,
                1.0,
                self.seed,
            )),
            DriftSpec::Model { model, horizon } => Box::new(ModelDrift::new(
                model,
                self.params.rho,
                horizon,
                self.seed ^ 0x9e37_79b9_7f4a_7c15,
            )),
            DriftSpec::Source(source) => source,
        };
        let nodes: Vec<A> = (0..n).map(make_node).collect();
        let shards = Shards::build(shard_count, nodes);
        // Canonical edge state: initial edges now, churned edges as their
        // first event is pulled.
        let mut edges = EdgeStore::new(n);

        // Bucket width tied to the delay bound: most deliveries span a
        // handful of buckets, timers a few more.
        let mut queue = TimeWheel::new(self.params.t / 4.0);

        // Initial edges exist (and are discovered) at time 0. The store
        // rejects an edge naming a node `≥ n`.
        let initial = self.source.initial_edges();
        assert!(
            initial.windows(2).all(|w| w[0] < w[1]),
            "source initial edges must be sorted and distinct"
        );
        for &e in &initial {
            edges.insert_initial(e);
            for w in [e.lo(), e.hi()] {
                queue.push(
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

        let mut sim = Simulator {
            params: self.params,
            drift,
            queue,
            shards,
            edges,
            source: self.source,
            fault_source: self.faults,
            faults: FaultState::default(),
            delay: self.delay,
            discovery: self.discovery,
            seed: self.seed,
            now: Time::ZERO,
            stats: SimStats::default(),
            topo_staged: VecDeque::new(),
            fault_staged: VecDeque::new(),
            fault_pull_buf: Vec::new(),
            // Pull lookahead: one delay bound of simulated time per pull.
            // Messages in flight span up to T, so the wheel is touched a
            // handful of times per T anyway — pumping once per T adds no
            // measurable overhead, and the topology backlog is bounded by
            // the events falling inside one T-window (independent of the
            // horizon and of the total event count, though it still
            // scales with the churn *rate* within the window).
            pull_chunk: self.params.t,
            pull_buf: Vec::new(),
            workers,
            os_workers: shard_count.min(
                std::thread::available_parallelism()
                    .map(|p| p.get())
                    .unwrap_or(1)
                    .max(2),
            ),
            observing: false,
            n,
            round_buf: Vec::new(),
            effects_buf: Vec::new(),
            touched_buf: Vec::new(),
            par_min,
            topology_apply: std::time::Duration::ZERO,
        };
        sim.stats.par_min_events = par_min as u64;
        // `on_start` before any event (matching "at the beginning of the
        // execution"), one node at a time in id order so emitted events are
        // enqueued exactly as the per-event engine enqueued them.
        for i in 0..n {
            sim.dispatch_start(NodeId::from_index(i));
            sim.merge_effects();
        }
        sim
    }
}

/// Heap-byte census of the engine's memory planes, one meter per plane:
///
/// * `topology` — the canonical edge store (rows, lower-neighbor ids),
/// * `drift` — hardware memo columns and materialized drift cursors,
/// * `automaton_hot` — automaton structs and their heap state, plus the
///   engine-side per-node columns (timers, peers, RNG streams),
/// * `automaton_cold` — packed blobs of evicted quiescent nodes,
/// * `wheel` — the pending-event calendar queue (packed records plus the
///   payload arena),
/// * `staging` — pulled-but-not-yet-due topology/fault events held in
///   compact staged form by the horizon-gated admission path.
///
/// Capacities (not lengths) are counted where observable; B-tree node
/// overhead is approximated by entry payloads. The census is exact enough
/// to attribute peak memory to a plane, not an allocator-level audit.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlaneBytes {
    /// The canonical edge store: per-edge rows plus lower-neighbor ids,
    /// both grown to the touched watermark.
    pub topology: usize,
    /// Hardware memo columns plus materialized drift cursors.
    pub drift: usize,
    /// Hot automaton structs/heap plus engine-side node columns.
    pub automaton_hot: usize,
    /// Packed cold-tier blobs.
    pub automaton_cold: usize,
    /// Pending-event calendar queue (packed records + payload arena).
    pub wheel: usize,
    /// Compact staged topology/fault events awaiting admission.
    pub staging: usize,
    /// Dispatch scratch reused across segments: the round / effect-merge
    /// / touched / pull buffers and the per-shard event, effect, action
    /// and touched buffers. Steady-state capacity, not per-segment churn
    /// — these buffers are allocated once and recycled.
    pub dispatch_scratch: usize,
}

impl PlaneBytes {
    /// Sum over all planes.
    pub fn total(&self) -> usize {
        self.topology
            + self.drift
            + self.automaton_hot
            + self.automaton_cold
            + self.wheel
            + self.staging
            + self.dispatch_scratch
    }
}

/// Everything the engine reports about one run, read at one instant by
/// [`Simulator::telemetry`]. The trace-derived fields are identical
/// across thread counts (except the scheduling-only [`SimStats`]
/// counters); `threads` and `topology_apply_s` describe how the host ran
/// the trace.
#[derive(Clone, Copy, Debug, Default)]
pub struct Telemetry {
    /// Trace and scheduling counters ([`Simulator::stats`]).
    pub stats: SimStats,
    /// Byte census of the memory planes ([`Simulator::plane_bytes`]).
    pub planes: PlaneBytes,
    /// [`Simulator::wheel_pending_peaks`], indexed `[topology, fault,
    /// deliver, alarm, discover]`.
    pub wheel_pending_peaks: [usize; 5],
    /// Configured worker count.
    pub threads: usize,
    /// [`Simulator::drift_cursors`].
    pub drift_cursors: usize,
    /// [`Simulator::node_state_watermark`].
    pub node_state_watermark: usize,
    /// Lazy per-node RNG streams materialized — zero for runs whose
    /// delay/discovery strategies and automata never draw.
    pub rng_streams: usize,
    /// Nodes packed into the cold tier (their bytes are
    /// `planes.automaton_cold`).
    pub cold_nodes: usize,
    /// [`Simulator::evictions`].
    pub evictions: u64,
    /// [`Simulator::rehydrations`].
    pub rehydrations: u64,
    /// [`Simulator::topology_apply_seconds`].
    pub topology_apply_s: f64,
}

/// The simulation engine; see the module docs for semantics.
pub struct Simulator<A: Automaton> {
    params: ModelParams,
    /// The drift plane: rates are evaluated on demand (per-node cursors
    /// live in the owning shard; stateless adapters keep none).
    drift: Box<dyn DriftSource>,
    queue: TimeWheel,
    /// Automata plus node-local engine state, sharded by owner.
    shards: Shards<A>,
    /// Canonical per-edge state (liveness, epochs, change/removal
    /// versions) — the only record of the live edge set — written only
    /// between segments.
    edges: EdgeStore,
    /// The topology stream; pulled incrementally by `pump_topology`.
    source: Box<dyn TopologySource>,
    /// The fault stream, if any; pulled incrementally by `pump_faults`.
    fault_source: Option<Box<dyn FaultSource>>,
    /// Accumulated fault state, written only at fault barriers.
    faults: FaultState,
    delay: DelayStrategy,
    discovery: DiscoveryDelay,
    /// Simulation seed (scheduled-discovery latency streams key off it).
    seed: u64,
    now: Time,
    stats: SimStats,
    /// Pulled topology events awaiting admission into the wheel, in pull
    /// (= nondecreasing time) order — the compact backlog of the
    /// horizon-gated admission path.
    topo_staged: VecDeque<StagedTopology>,
    /// Pulled fault events awaiting admission, in pull order.
    fault_staged: VecDeque<StagedFault>,
    /// Scratch buffer for fault pulls.
    fault_pull_buf: Vec<FaultEvent>,
    /// Lookahead window (seconds) pulled beyond the next due event.
    pull_chunk: f64,
    /// Scratch buffer for pulls.
    pull_buf: Vec<TopologyEvent>,
    /// Configured worker count (shard count is `min(workers, n)`).
    workers: usize,
    /// Lanes per wide segment, counting the caller's:
    /// `min(shard count, max(2, host parallelism))`. Caps oversubscription
    /// when the host has fewer cores than configured shards; floored at 2
    /// so the concurrent dispatch path runs on every host. Scheduling
    /// only — traces never depend on it.
    os_workers: usize,
    /// Whether the current drain collects touched nodes for an observer.
    observing: bool,
    n: usize,
    round_buf: Vec<QueuedEvent>,
    effects_buf: Vec<Effect>,
    touched_buf: Vec<NodeId>,
    /// Effective parallel threshold (events) for segments; see
    /// [`SimBuilder::par_threshold`].
    par_min: usize,
    /// Wall-clock time spent applying topology batches to the edge
    /// store. Host-dependent by nature, so it lives here
    /// rather than in [`SimStats`], whose counters must compare equal
    /// across thread counts.
    topology_apply: std::time::Duration,
}

impl<A: Automaton> Simulator<A> {
    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Current simulation time (last processed event, or the target of the
    /// last `run_until`).
    pub fn now(&self) -> Time {
        self.now
    }

    /// Model parameters.
    pub fn params(&self) -> ModelParams {
        self.params
    }

    /// Execution counters.
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// The live edge set `E(t)` at the current time, read from the
    /// engine's canonical edge store.
    pub fn graph(&self) -> GraphView<'_> {
        GraphView::new(&self.edges)
    }

    /// Immutable access to a node's automaton.
    pub fn node(&self, u: NodeId) -> &A {
        self.shards.node(u)
    }

    /// Hardware clock reading of `u` at the current time.
    ///
    /// Answered without mutating anything: the memoized per-instant
    /// reading when current, else the node's cursor (its segment when the
    /// query falls inside it, a cloned probe when it falls ahead), else a
    /// cold walk from time 0. All paths produce the identical bits the
    /// hot path would. Observed readings include any drift-excursion warp
    /// from the fault plane (exactly `0.0` when none applies).
    pub fn hardware(&self, u: NodeId) -> f64 {
        let base = self.hardware_base(u);
        let warp = self.faults.hw_warp(u, self.now);
        if warp != 0.0 {
            base + warp
        } else {
            base
        }
    }

    /// The un-warped (base-plane) reading — what the drift plane alone
    /// says. Memoized values are kept on this plane; warp is re-applied
    /// per observation (see `dispatch::run_handler`).
    fn hardware_base(&self, u: NodeId) -> f64 {
        let now = self.now;
        if now == Time::ZERO {
            return 0.0;
        }
        if self.drift.stateless() {
            return self.drift.read_at(u.index(), now);
        }
        let table = &self.shards.shards[self.shards.shard_of(u)].table;
        let local = u.index() / self.shards.count();
        if local < table.watermark() {
            if table.hw_time[local] == now {
                return table.hw[local];
            }
            if let Some(cursor) = &table.drift[local] {
                if now >= cursor.seg_start() {
                    if cursor.seg_end().is_none_or(|end| now < end) {
                        return cursor.eval(now);
                    }
                    let mut probe = (**cursor).clone();
                    return self.drift.read(u.index(), &mut probe, now);
                }
            }
        }
        self.drift.read_at(u.index(), now)
    }

    /// Drift cursors currently materialized — the drift plane's entire
    /// per-node memory footprint. Zero for untouched nodes and for
    /// stateless (eagerly materialized) planes; identical across thread
    /// counts, like everything else derived from the trace.
    pub fn drift_cursors(&self) -> usize {
        self.table_sum(NodeTable::drift_cursors)
    }

    /// Node-local state slots materialized across all shards (the sum of
    /// the per-shard touched watermarks).
    pub fn node_state_watermark(&self) -> usize {
        self.table_sum(NodeTable::watermark)
    }

    /// Evictions performed so far. Kept off [`SimStats`] deliberately:
    /// eviction is a memory policy, not protocol behavior, so `stats()`
    /// must compare equal between eviction-on and eviction-off runs.
    pub fn evictions(&self) -> u64 {
        self.table_sum(|t| t.evictions)
    }

    /// Rehydrations performed so far (see [`Self::evictions`]).
    pub fn rehydrations(&self) -> u64 {
        self.table_sum(|t| t.rehydrations)
    }

    /// Sums one node-table census over all shards.
    fn table_sum<T: std::iter::Sum>(&self, census: impl Fn(&NodeTable) -> T) -> T {
        self.shards.shards.iter().map(|s| census(&s.table)).sum()
    }

    /// Sweeps every touched node and evicts the quiescent ones into the
    /// packed cold tier; returns how many moved. A serial barrier, and
    /// every per-node predicate (`NodeTable::pack_node`) reads only
    /// node-local state — so which nodes evict is a function of the
    /// trace alone, identical across thread counts.
    ///
    /// Callers choose the cadence (e.g. between scenario phases); the
    /// engine never evicts on its own.
    pub fn evict_quiescent(&mut self) -> usize {
        let mut evicted = 0;
        for shard in &mut self.shards.shards {
            for local in 0..shard.table.watermark() {
                if shard.table.pack_node(local, &mut shard.nodes[local]) {
                    evicted += 1;
                }
            }
        }
        evicted
    }

    /// Byte census of the engine's memory planes (see [`PlaneBytes`]).
    pub fn plane_bytes(&self) -> PlaneBytes {
        use std::mem::size_of;
        let mut p = PlaneBytes {
            topology: self.edges.heap_bytes(),
            wheel: self.queue.heap_bytes(),
            staging: self.topo_staged.capacity() * size_of::<StagedTopology>()
                + self.fault_staged.capacity() * size_of::<StagedFault>(),
            dispatch_scratch: self.round_buf.capacity() * size_of::<QueuedEvent>()
                + self.effects_buf.capacity() * size_of::<Effect>()
                + self.touched_buf.capacity() * size_of::<NodeId>()
                + self.pull_buf.capacity() * size_of::<TopologyEvent>()
                + self.fault_pull_buf.capacity() * size_of::<FaultEvent>(),
            ..PlaneBytes::default()
        };
        for shard in &self.shards.shards {
            p.drift += shard.table.drift_bytes();
            p.automaton_hot += shard.nodes.capacity() * size_of::<A>()
                + shard.nodes.iter().map(|n| n.heap_bytes()).sum::<usize>()
                + shard.table.engine_hot_bytes();
            p.automaton_cold += shard.table.cold_bytes();
            p.dispatch_scratch += shard.events.capacity() * size_of::<QueuedEvent>()
                + shard.effects.capacity() * size_of::<Effect>()
                + shard.actions.capacity() * size_of::<crate::automaton::Action>()
                + shard.touched.capacity() * size_of::<NodeId>();
        }
        p
    }

    /// Per-lane peak pending-event counts inside the wheel, indexed
    /// `[topology, fault, deliver, alarm, discover]` — the high-water
    /// occupancy of each payload arena lane. Trace-derived, identical
    /// across thread counts.
    pub fn wheel_pending_peaks(&self) -> [usize; 5] {
        self.queue.pending_peaks()
    }

    /// Wall-clock seconds spent applying topology batches to the edge
    /// store so far. Host-dependent by nature — this is a performance
    /// meter, not part of the deterministic trace.
    pub fn topology_apply_seconds(&self) -> f64 {
        self.topology_apply.as_secs_f64()
    }

    /// Everything the engine reports about the run so far (see
    /// [`Telemetry`]). The plane census walks every node, so read it once
    /// per run, not per event.
    pub fn telemetry(&self) -> Telemetry {
        Telemetry {
            stats: self.stats,
            planes: self.plane_bytes(),
            wheel_pending_peaks: self.wheel_pending_peaks(),
            threads: self.workers,
            drift_cursors: self.drift_cursors(),
            node_state_watermark: self.node_state_watermark(),
            rng_streams: self.table_sum(NodeTable::rng_streams),
            cold_nodes: self.table_sum(NodeTable::cold_nodes),
            evictions: self.evictions(),
            rehydrations: self.rehydrations(),
            topology_apply_s: self.topology_apply_seconds(),
        }
    }

    /// Logical clock `L_u` at the current time.
    pub fn logical(&self, u: NodeId) -> f64 {
        self.node(u).logical_clock(self.hardware(u))
    }

    /// Max estimate `Lmax_u` at the current time.
    pub fn max_estimate_of(&self, u: NodeId) -> f64 {
        self.node(u).max_estimate(self.hardware(u))
    }

    /// All logical clocks at the current time.
    pub fn logical_snapshot(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.n());
        self.logical_snapshot_into(&mut out);
        out
    }

    /// Writes all logical clocks at the current time into `out`
    /// (cleared first) — the allocation-free variant for fixed-cadence
    /// sampling loops, which would otherwise allocate one `Vec<f64>` per
    /// sample (see `gcs_analysis`'s recorder and metrics).
    pub fn logical_snapshot_into(&self, out: &mut Vec<f64>) {
        out.clear();
        out.extend((0..self.n()).map(|i| self.logical(NodeId::from_index(i))));
    }

    /// Runs until all events at time `≤ until` are processed, then advances
    /// the clock to `until` so state queries observe that instant.
    ///
    /// # Panics
    /// When `until` is before the current time, or when a pulled source
    /// event breaks the pull contract: a topology or fault event not
    /// after the current time or out of time order, an edge naming a node
    /// `≥ n`, or a topology change that adds a live edge or removes an
    /// absent one.
    pub fn run_until(&mut self, until: Time) {
        self.observing = false;
        self.drain(until, |_, _, _| {});
    }

    /// Like [`run_until`](Self::run_until), but invokes `observe` after
    /// every processed instant with the simulator (in a consistent state),
    /// the instant's time, and the ascending, deduplicated list of nodes
    /// whose handlers ran at that instant.
    ///
    /// This is the engine half of the streaming observability API: an
    /// observer can maintain incremental metrics (per-edge skew, counters,
    /// CSV rows) without ever taking `O(n + m)` snapshots — see
    /// `gcs_analysis::probe`.
    pub fn run_until_with(&mut self, until: Time, mut observe: impl FnMut(&Self, Time, &[NodeId])) {
        self.observing = true;
        self.drain(until, &mut observe);
        self.observing = false;
    }

    /// The time of the earliest pending event anywhere: the wheel's next
    /// pop merged with the fronts of both staging buffers (staged
    /// buffers are FIFO in nondecreasing time, so their fronts are their
    /// minima; a staged topology event's materialized trio would pop at
    /// its own instant — the discovery latencies are strictly positive).
    /// This is exactly the set of events the pre-staging engine kept in
    /// the wheel, so pull decisions keyed on it are unchanged.
    fn effective_next(&mut self) -> Option<Time> {
        let mut next = self.queue.peek_time();
        let staged = [
            self.topo_staged.front().map(|s| s.time),
            self.fault_staged.front().map(|s| s.time),
        ];
        for t in staged.into_iter().flatten() {
            next = Some(next.map_or(t, |n| n.min(t)));
        }
        next
    }

    /// Streams due topology into the staging buffer: while the source's
    /// next event is at or before the next pending event anywhere (or
    /// nothing is pending), pull everything up to that time plus the
    /// lookahead window and stage it. Pull decisions depend only on the
    /// merged pending state at instant boundaries — never on the
    /// `run_until` target or the thread count — so traces are invariant
    /// under both.
    fn pump_topology(&mut self) {
        loop {
            let Some(ts) = self.source.peek_time() else {
                return;
            };
            if let Some(next) = self.effective_next() {
                if ts > next {
                    return;
                }
            }
            let mut buf = std::mem::take(&mut self.pull_buf);
            buf.clear();
            self.source
                .pull_until(ts + Duration::new(self.pull_chunk), &mut buf);
            assert!(!buf.is_empty(), "peek_time promised an event at {ts:?}");
            for ev in &buf {
                self.stage_topology(*ev);
            }
            self.pull_buf = buf;
        }
    }

    /// Streams due faults into the staging buffer, mirroring
    /// [`pump_topology`](Self::pump_topology): the fault plane is the
    /// third input stream and obeys the identical pull discipline, so
    /// fault pull timing is a function of the instant sequence alone.
    /// Pumped *after* topology each round — each pump's exit guarantee
    /// ("my stream's next event is later than the next pending pop") is
    /// preserved by the other's staging, which only moves the merged
    /// front earlier, never later than either exit threshold.
    fn pump_faults(&mut self) {
        if self.fault_source.is_none() {
            return;
        }
        loop {
            let Some(ts) = self.fault_source.as_mut().and_then(|s| s.peek_time()) else {
                return;
            };
            if let Some(next) = self.effective_next() {
                if ts > next {
                    return;
                }
            }
            let mut buf = std::mem::take(&mut self.fault_pull_buf);
            buf.clear();
            self.fault_source
                .as_mut()
                .expect("checked above")
                .pull_until(ts + Duration::new(self.pull_chunk), &mut buf);
            assert!(!buf.is_empty(), "peek_time promised a fault at {ts:?}");
            for ev in &buf {
                assert!(
                    self.fault_staged.back().is_none_or(|s| s.time <= ev.time),
                    "fault source must emit nondecreasing times"
                );
                assert!(
                    ev.time > self.now,
                    "fault at {:?} does not follow the current time {:?}",
                    ev.time,
                    self.now
                );
                let seq = self.queue.reserve_seqs(1);
                self.fault_staged.push_back(StagedFault {
                    time: ev.time,
                    seq,
                    kind: ev.kind,
                });
                self.stats.faults_pulled += 1;
            }
            self.fault_pull_buf = buf;
            self.note_staged_peak();
        }
    }

    /// Assigns a pulled event its per-edge version, reserves the wheel
    /// sequence numbers of its three-event trio (change + two endpoint
    /// discoveries — in that order, matching what an eager push would
    /// have assigned), and parks it in the staging buffer.
    ///
    /// The pull discipline leaves every valid event strictly after the
    /// current time, so the time checks below also catch a source that
    /// goes back before an instant already processed; the edge store
    /// rejects an edge naming a node `≥ n`.
    fn stage_topology(&mut self, ev: TopologyEvent) {
        assert!(
            self.topo_staged.back().is_none_or(|s| s.time <= ev.time),
            "topology source must emit nondecreasing times"
        );
        assert!(
            ev.time > self.now,
            "topology event at {:?} does not follow the current time {:?}",
            ev.time,
            self.now
        );
        let version = self.edges.next_version(ev.edge);
        let kind = match ev.kind {
            TopologyEventKind::Add => LinkChangeKind::Added,
            TopologyEventKind::Remove => LinkChangeKind::Removed,
        };
        let seq = self.queue.reserve_seqs(3);
        self.topo_staged.push_back(StagedTopology {
            time: ev.time,
            seq,
            edge: ev.edge,
            version,
            kind,
        });
        self.stats.topology_pulled += 1;
        let backlog = self.stats.topology_pulled - self.stats.topology_events;
        self.stats.peak_topology_backlog = self.stats.peak_topology_backlog.max(backlog);
        self.note_staged_peak();
    }

    #[inline]
    fn note_staged_peak(&mut self) {
        let staged = (self.topo_staged.len() + self.fault_staged.len()) as u64;
        self.stats.peak_staged_events = self.stats.peak_staged_events.max(staged);
    }

    /// Admits every staged event that is due: while a staging front's
    /// time is at or before the wheel's next event (or the wheel is
    /// empty), convert it into its wheel events under its reserved
    /// sequence numbers. Runs after the pumps at every instant boundary,
    /// so by the time an instant pops, everything belonging to it is in
    /// the wheel: a staged event still parked afterwards is strictly
    /// later than the wheel's next pop, and its discoveries (which fire
    /// even later) cannot belong to the popping instant either. Pop
    /// order is then fixed by the reserved `(time, class, seq)` keys
    /// alone — bit-identical to the eager-push engine.
    fn admit_due(&mut self) {
        loop {
            let wheel_next = self.queue.peek_time();
            let due = |t: Time| wheel_next.is_none_or(|w| t <= w);
            if let Some(s) = self.topo_staged.front() {
                if due(s.time) {
                    let s = self.topo_staged.pop_front().expect("front peeked");
                    self.admit_topology(s);
                    continue;
                }
            }
            if let Some(s) = self.fault_staged.front() {
                if due(s.time) {
                    let s = self.fault_staged.pop_front().expect("front peeked");
                    self.queue
                        .push_reserved(s.time, s.seq, EventPayload::Fault { kind: s.kind });
                    continue;
                }
            }
            return;
        }
    }

    /// Materializes one staged topology event into the wheel: the change
    /// plus its two endpoint discoveries, under the trio's reserved
    /// sequence numbers. Discovery latencies are drawn here — they are
    /// pure functions of `(seed, edge, version, endpoint)`, so drawing
    /// at admission instead of pull time changes nothing.
    fn admit_topology(&mut self, s: StagedTopology) {
        self.queue.push_reserved(
            s.time,
            s.seq,
            EventPayload::Topology {
                kind: s.kind,
                edge: s.edge,
                version: s.version,
            },
        );
        for (i, w) in [s.edge.lo(), s.edge.hi()].into_iter().enumerate() {
            let lat =
                self.discovery
                    .scheduled_latency(self.params.d, self.seed, s.edge, s.version, w);
            self.queue.push_reserved(
                s.time + Duration::new(lat),
                s.seq + 1 + i as u64,
                EventPayload::Discover {
                    node: w,
                    change: LinkChange {
                        kind: s.kind,
                        edge: s.edge,
                    },
                    version: s.version,
                },
            );
        }
    }

    fn drain(&mut self, until: Time, mut observe: impl FnMut(&Self, Time, &[NodeId])) {
        assert!(until >= self.now, "cannot run backwards");
        let mut round = std::mem::take(&mut self.round_buf);
        loop {
            self.pump_topology();
            self.pump_faults();
            // After admission, every staged event is strictly later than
            // the wheel's next pop, so the wheel front *is* the global
            // front.
            self.admit_due();
            match self.queue.peek_time() {
                Some(t) if t <= until => {}
                _ => break,
            }
            round.clear();
            let t = self
                .queue
                .pop_instant(&mut round)
                .expect("peek said non-empty");
            self.now = t;
            self.stats.events_processed += round.len() as u64;
            self.run_round(&round);
            if self.observing {
                let mut touched = std::mem::take(&mut self.touched_buf);
                for shard in &mut self.shards.shards {
                    touched.append(&mut shard.touched);
                }
                touched.sort_unstable();
                touched.dedup();
                observe(self, t, &touched);
                touched.clear();
                self.touched_buf = touched;
            }
        }
        self.round_buf = round;
        self.now = until;
    }

    /// Processes the single earliest event. Returns false if none pending.
    ///
    /// Stepping and [`run_until`](Self::run_until) produce bit-identical
    /// traces: both go through the same dispatch core and the same
    /// canonical effect ordering.
    pub fn step(&mut self) -> bool {
        self.pump_topology();
        self.pump_faults();
        self.admit_due();
        let Some(ev) = self.queue.pop() else {
            return false;
        };
        debug_assert!(ev.time >= self.now, "event queue went backwards");
        self.now = ev.time;
        self.stats.events_processed += 1;
        match ev.payload {
            EventPayload::Topology { .. } => {
                // A single-event batch: same mutations, same counters per
                // event; only the batch granularity differs from a
                // `run_until` drain of the same trace.
                self.apply_topology_batch(std::slice::from_ref(&ev));
            }
            EventPayload::Fault { kind } => self.apply_fault(kind, ev.seq),
            _ => {
                let owner = DispatchCtx::owner(&ev.payload);
                let (ctx, shards) = self.split_dispatch();
                let shard_idx = shards.shard_of(owner);
                dispatch::run_event(&ctx, &mut shards.shards[shard_idx], owner, &ev);
                self.merge_effects();
            }
        }
        true
    }

    /// One instant: apply its topology prefix as one batch, then split
    /// the rest into segments at fault barriers, dispatch each segment
    /// sharded by owner, and merge effects canonically after each. Class
    /// ranks order each instant as topology changes, then faults, then
    /// protocol events — so the whole instant's changes form a
    /// contiguous prefix (one batch, one barrier), a fault observes the
    /// topology of its instant, and protocol events observe the faults.
    fn run_round(&mut self, round: &[QueuedEvent]) {
        let topo = crate::wheel::topology_prefix_len(round);
        if topo > 0 {
            self.apply_topology_batch(&round[..topo]);
        }
        let mut i = topo;
        while i < round.len() {
            if let EventPayload::Fault { kind } = round[i].payload {
                self.apply_fault(kind, round[i].seq);
                i += 1;
                continue;
            }
            let end = i + round[i..]
                .iter()
                .position(|ev| matches!(ev.payload, EventPayload::Fault { .. }))
                .unwrap_or(round.len() - i);
            self.run_segment(&round[i..end]);
            i = end;
        }
    }

    /// Dispatches one topology-free segment and merges its effects.
    ///
    /// Wide segments (≥ `par_min` events, more than one shard) are cut
    /// into one contiguous chunk of shards per lane and run through
    /// [`dispatch::fork_join`]. Inline and forked dispatch run the same
    /// body over the same disjoint `&mut` shard partition and merge
    /// effects in the same canonical order, so the threshold is
    /// scheduling only.
    fn run_segment(&mut self, seg: &[QueuedEvent]) {
        let shard_count = self.shards.count();
        let parallel = shard_count > 1 && seg.len() >= self.par_min;
        if !parallel {
            self.stats.segments_inline += 1;
            let (ctx, shards) = self.split_dispatch();
            for ev in seg {
                let owner = DispatchCtx::owner(&ev.payload);
                let s = shards.shard_of(owner);
                dispatch::run_event(&ctx, &mut shards.shards[s], owner, ev);
            }
            self.merge_effects();
            return;
        }
        self.stats.segments_parallel += 1;
        for ev in seg {
            let owner = DispatchCtx::owner(&ev.payload);
            let s = owner.index() % shard_count;
            self.shards.shards[s].events.push(*ev);
        }
        // One lane can serve several shards: shard count fixes the
        // (trace-relevant) data partition, `os_workers` only caps
        // oversubscription. Contiguous chunking is safe because shards
        // are mutually independent within a segment.
        let per_lane = shard_count.div_ceil(self.os_workers);
        let (ctx, shards) = self.split_dispatch();
        let jobs = shards
            .shards
            .chunks_mut(per_lane)
            .filter(|chunk| chunk.iter().any(|s| !s.events.is_empty()))
            .map(|chunk| {
                move || {
                    for shard in chunk.iter_mut().filter(|s| !s.events.is_empty()) {
                        dispatch::run_shard(&ctx, shard);
                    }
                }
            })
            .collect();
        dispatch::fork_join(jobs);
        self.merge_effects();
    }

    /// Splits the borrow of `self` into the read-only dispatch context and
    /// the mutable shard set (disjoint fields, checked by the compiler).
    fn split_dispatch(&mut self) -> (DispatchCtx<'_>, &mut Shards<A>) {
        let ctx = DispatchCtx {
            edges: &self.edges,
            drift: &*self.drift,
            delay: &self.delay,
            discovery: &self.discovery,
            faults: &self.faults,
            params: self.params,
            now: self.now,
            seed: self.seed,
            shard_count: self.shards.count(),
            observing: self.observing,
        };
        (ctx, &mut self.shards)
    }

    /// Startup dispatch of `on_start` for one node (serial, build time).
    fn dispatch_start(&mut self, u: NodeId) {
        let (ctx, shards) = self.split_dispatch();
        let shard_idx = shards.shard_of(u);
        let local = u.index() / shards.count();
        dispatch::run_handler(&ctx, &mut shards.shards[shard_idx], u, local, 0, |a, c| {
            a.on_start(c)
        });
    }

    /// Collects per-shard effects, sorts them into the canonical
    /// `(trigger seq, emission idx)` order, enqueues them, and folds the
    /// per-shard stats deltas into the global counters.
    fn merge_effects(&mut self) {
        let mut buf = std::mem::take(&mut self.effects_buf);
        buf.clear();
        for shard in &mut self.shards.shards {
            self.stats.absorb(&shard.stats);
            shard.stats = SimStats::default();
            buf.append(&mut shard.effects);
        }
        buf.sort_unstable_by_key(|e| (e.seq, e.k));
        for e in &buf {
            self.queue.push(e.time, e.payload);
        }
        self.effects_buf = buf;
    }

    /// Applies one fault injection as a serial barrier. `seq` is the
    /// fault event's queue sequence number; a restart's `on_start` effects
    /// are tagged with it, keeping the canonical merge order.
    fn apply_fault(&mut self, kind: FaultKind, seq: u64) {
        self.stats.faults_applied += 1;
        let now = self.now;
        // Prune closed windows here — a trace-deterministic point — so
        // the lists workers scan stay short under sustained injection.
        self.faults.prune(now);
        match kind {
            FaultKind::Crash { node } => {
                assert!(node.index() < self.n, "crash of unknown node {node:?}");
                if self.faults.crash(node) {
                    self.stats.crashes += 1;
                    // All armed timers go stale; entries stay so post-
                    // restart arms never alias in-flight generations. A
                    // cold node rehydrates first so the generation bumps
                    // land in the live slots, not a stale blob.
                    let s = self.shards.shard_of(node);
                    let local = node.index() / self.shards.count();
                    let shard = &mut self.shards.shards[s];
                    if local < shard.table.watermark() {
                        shard.table.rehydrate(local, &mut shard.nodes[local]);
                        shard.table.timers[local].cancel_all();
                    }
                }
            }
            FaultKind::Restart { node } => {
                assert!(node.index() < self.n, "restart of unknown node {node:?}");
                self.faults.restart(node);
                self.stats.restarts += 1;
                let shard_count = self.shards.count();
                let s = self.shards.shard_of(node);
                let local = node.index() / shard_count;
                // State loss: the automaton is replaced by a time-0-fresh
                // instance. Engine-side protocol state (timers, discovery
                // watermarks) resets with it; the hardware clock, drift
                // cursor, RNG stream and FIFO horizons survive — they
                // model the oscillator, the environment's randomness and
                // the link discipline, not protocol state.
                // A cold node rehydrates before the reboot so its timer
                // generations are restored ahead of the `cancel_all`
                // bumps and `on_start`'s fresh arm (a first arm against
                // drained slots would restart at generation 1 and alias
                // any stale in-flight alarm), and so no stale blob
                // lingers next to the fresh automaton.
                {
                    let shard = &mut self.shards.shards[s];
                    if local < shard.table.watermark() {
                        shard.table.rehydrate(local, &mut shard.nodes[local]);
                    }
                }
                let fresh = self.shards.shards[s].nodes[local].reboot();
                self.shards.shards[s].nodes[local] = fresh;
                let table = &mut self.shards.shards[s].table;
                if local < table.watermark() {
                    table.timers[local].cancel_all();
                    for p in table.peers[local].iter_mut() {
                        p.discovered_version = 0;
                    }
                }
                // `on_start` runs at the restart instant, its effects
                // merged under the fault's sequence number.
                let (ctx, shards) = self.split_dispatch();
                dispatch::run_handler(&ctx, &mut shards.shards[s], node, local, seq, |a, c| {
                    a.on_start(c)
                });
                self.merge_effects();
                // The rebooted node rediscovers its currently-live edges
                // within D, in ascending neighbor order, under each edge's
                // last *applied* add version (stale-suppression then still
                // admits any newer change).
                for (v, shared) in self.edges.incident(node).filter(|(_, e)| e.live) {
                    let edge = Edge::new(node, v);
                    let version = shared.last_add_version;
                    let lat = self.discovery.scheduled_latency(
                        self.params.d,
                        self.seed ^ RESTART_DISCOVERY_SALT,
                        edge,
                        version,
                        node,
                    );
                    self.queue.push(
                        now + Duration::new(lat),
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
            FaultKind::DropWindow { edge, duration } => {
                self.faults.open_drop(now, duration, edge);
            }
            FaultKind::DelaySpike { delay, duration } => {
                self.faults.open_delay(now, duration, delay);
            }
            FaultKind::DriftExcursion {
                node,
                rate_delta,
                duration,
            } => {
                assert!(node.index() < self.n, "excursion at unknown node {node:?}");
                self.faults.open_excursion(node, now, duration, rate_delta);
            }
        }
    }

    /// Applies one instant's topology changes as a single batch — one
    /// barrier per instant instead of one per event — serially in
    /// `(seq)` order. Each change touches only its edge's canonical
    /// entry (the lower-neighbor ids of the other endpoint were written
    /// when the edge was first pulled).
    ///
    /// # Panics
    /// When a change contradicts the live edge set (an add of a live
    /// edge, a removal of an absent one).
    fn apply_topology_batch(&mut self, batch: &[QueuedEvent]) {
        let started = std::time::Instant::now();
        self.stats.topology_events += batch.len() as u64;
        self.stats.topology_batches += 1;
        self.stats.peak_batch_len = self.stats.peak_batch_len.max(batch.len() as u64);
        for ev in batch {
            let EventPayload::Topology {
                kind,
                edge,
                version,
            } = ev.payload
            else {
                unreachable!("caller passes the instant's topology prefix only")
            };
            self.edges.apply(kind, edge, version);
        }
        self.topology_apply += started.elapsed();
    }
}

#[cfg(test)]
mod tests {
    use super::parse_threads;

    #[test]
    fn thread_counts_in_range_parse() {
        assert_eq!(parse_threads("1"), 1);
        assert_eq!(parse_threads(" 8\n"), 8);
        assert_eq!(parse_threads("64"), 64);
    }

    #[test]
    fn malformed_thread_counts_panic_naming_variable_and_value() {
        for bad in ["0", "65", "abc", "", "-1", "2.5"] {
            let err = std::panic::catch_unwind(|| parse_threads(bad)).expect_err(bad);
            let msg = err
                .downcast_ref::<String>()
                .expect("formatted panic message");
            assert_eq!(
                *msg,
                format!("GCS_SIM_THREADS={bad:?} is not a worker count in 1..=64")
            );
        }
    }
}
