//! Span and counter accounting for the traced run.
//!
//! [`Spanned`] wraps a value behind one of the workspace's trait
//! boundaries (`TopologySource`, `DriftSource`, `Automaton`,
//! `ModelNode`) and forwards every method unchanged, timing the calls
//! that do work. The wrapper is `#[repr(transparent)]`, so it adds no
//! bytes per node; all accounting lives in one log per OS thread.
//!
//! Each thread keeps a stack of open spans. When a span closes, its
//! duration minus the time covered by spans opened inside it (its
//! *self* time) is added to its kind's total, so a drift read made from
//! inside the skew observer counts as drift, not as observation, and the
//! self times of one thread never overlap.

use gcs_clocks::{DriftCursor, DriftSource, Time};
use gcs_mc::{ModelNode, NodeProbe};
use gcs_net::{Edge, NodeId, TopologyEvent, TopologySource};
use gcs_sim::{Automaton, Context, LinkChange, Message, RebootUnsupported, TimerKind};
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A timed layer boundary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Span {
    /// Building the topology source or schedule (workload construction).
    SourceBuild,
    /// `TopologySource::initial_edges`.
    InitialEdges,
    /// `TopologySource::pull_until` and `peek_time`.
    Pull,
    /// Every `DriftSource` method that evaluates or advances a clock.
    Drift,
    /// `Automaton::on_start`.
    Start,
    /// `Automaton::on_receive`, `on_discover` and `on_alarm`.
    Handler,
    /// The `SkewStream` observer passed to `run_until_with`.
    Observe,
    /// `Simulator::evict_quiescent`.
    Evict,
}

/// Number of [`Span`] kinds.
pub const SPANS: usize = 8;

/// A counted event at a layer boundary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Count {
    /// `pull_until` calls.
    PullCalls,
    /// Topology events returned by `pull_until`.
    EventsPulled,
    /// Clock readings (`read`, `read_at`).
    ReadCalls,
    /// Timer inversions (`fire_time`, `fire_at`).
    FireCalls,
    /// Drift segments opened on engine-held cursors.
    SegmentsOpened,
    /// Drift cursors created (`init`).
    CursorInits,
    /// `on_start` calls.
    StartCalls,
    /// `on_receive` calls.
    ReceiveCalls,
    /// `on_alarm` calls.
    AlarmCalls,
    /// `on_discover` calls.
    DiscoverCalls,
    /// `pack_cold` calls.
    PackCalls,
    /// `unpack_cold` calls.
    UnpackCalls,
    /// Observer invocations.
    ObserveCalls,
    /// Nodes handed to the observer, summed over invocations.
    TouchedNodes,
}

/// Number of [`Count`] kinds.
pub const COUNTS: usize = 14;

/// One thread's accumulated self times (nanoseconds) and counts. Only
/// the owning thread writes; readers take a [`snapshot`] once the
/// writers are quiet, so relaxed ordering suffices (the values publish
/// no other data).
struct ThreadLog {
    leader: AtomicBool,
    nanos: [AtomicU64; SPANS],
    counts: [AtomicU64; COUNTS],
}

static REGISTRY: Mutex<Vec<Arc<ThreadLog>>> = Mutex::new(Vec::new());

/// The calling thread's log plus its stack of open spans (the child time
/// accumulated by each), in one thread-local so a span costs two
/// thread-local accesses.
struct Local {
    log: Arc<ThreadLog>,
    stack: RefCell<Vec<u64>>,
}

thread_local! {
    static LOCAL: Local = {
        let log = Arc::new(ThreadLog {
            leader: AtomicBool::new(false),
            nanos: Default::default(),
            counts: Default::default(),
        });
        REGISTRY
            .lock()
            .expect("trace registry poisoned by a panicking thread")
            .push(log.clone());
        Local {
            log,
            stack: RefCell::new(Vec::new()),
        }
    };
}

fn bump(cell: &AtomicU64, by: u64) {
    cell.store(cell.load(Relaxed) + by, Relaxed);
}

/// Marks the calling thread as the leader: the thread that builds the
/// simulator and calls `run_until`. Every other thread is a worker lane.
pub fn claim_leader() {
    LOCAL.with(|l| l.log.leader.store(true, Relaxed));
}

/// Runs `f` inside a span of kind `kind` on the calling thread.
pub fn span<R>(kind: Span, f: impl FnOnce() -> R) -> R {
    counted_span(kind, None, f)
}

/// [`span`] that also adds one to counter `calls`.
fn counted_span<R>(kind: Span, calls: Option<Count>, f: impl FnOnce() -> R) -> R {
    LOCAL.with(|l| l.stack.borrow_mut().push(0));
    let start = Instant::now();
    let out = f();
    let total = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    LOCAL.with(|l| {
        let mut stack = l.stack.borrow_mut();
        let child = stack.pop().expect("span stack underflow");
        if let Some(parent) = stack.last_mut() {
            *parent += total;
        }
        bump(&l.log.nanos[kind as usize], total.saturating_sub(child));
        if let Some(calls) = calls {
            bump(&l.log.counts[calls as usize], 1);
        }
    });
    out
}

/// Adds `by` to counter `kind` on the calling thread.
pub fn count(kind: Count, by: u64) {
    LOCAL.with(|l| bump(&l.log.counts[kind as usize], by));
}

/// Summed accounting of a set of threads.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Side {
    nanos: [u64; SPANS],
    counts: [u64; COUNTS],
}

impl Side {
    /// Self seconds spent in spans of `kind`.
    pub fn secs(&self, kind: Span) -> f64 {
        self.nanos[kind as usize] as f64 * 1e-9
    }

    /// Self seconds summed over every span kind.
    pub fn total_secs(&self) -> f64 {
        self.nanos.iter().sum::<u64>() as f64 * 1e-9
    }

    /// Value of counter `kind`.
    pub fn count(&self, kind: Count) -> u64 {
        self.counts[kind as usize]
    }

    fn add(&mut self, log: &ThreadLog) {
        for (acc, v) in self.nanos.iter_mut().zip(&log.nanos) {
            *acc += v.load(Relaxed);
        }
        for (acc, v) in self.counts.iter_mut().zip(&log.counts) {
            *acc += v.load(Relaxed);
        }
    }

    fn minus(&self, earlier: &Side) -> Side {
        let mut out = *self;
        for (o, e) in out.nanos.iter_mut().zip(&earlier.nanos) {
            *o -= e;
        }
        for (o, e) in out.counts.iter_mut().zip(&earlier.counts) {
            *o -= e;
        }
        out
    }

    fn plus(&self, other: &Side) -> Side {
        let mut out = *self;
        for (o, e) in out.nanos.iter_mut().zip(&other.nanos) {
            *o += e;
        }
        for (o, e) in out.counts.iter_mut().zip(&other.counts) {
            *o += e;
        }
        out
    }
}

/// Accounting split between the leader thread and the worker lanes.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Totals {
    /// The leader thread (lane 0 of the engine's pool).
    pub leader: Side,
    /// Every other thread (the pool's worker lanes).
    pub lanes: Side,
}

impl Totals {
    /// What accumulated between `earlier` and `self`.
    pub fn since(&self, earlier: &Totals) -> Totals {
        Totals {
            leader: self.leader.minus(&earlier.leader),
            lanes: self.lanes.minus(&earlier.lanes),
        }
    }

    /// Leader and lanes together.
    pub fn all(&self) -> Side {
        self.leader.plus(&self.lanes)
    }
}

/// Reads every thread's log. Call it while no traced code is running on
/// another thread (between `run_until` calls the pool's lanes are idle).
pub fn snapshot() -> Totals {
    let mut totals = Totals::default();
    for log in REGISTRY
        .lock()
        .expect("trace registry poisoned by a panicking thread")
        .iter()
    {
        if log.leader.load(Relaxed) {
            totals.leader.add(log);
        } else {
            totals.lanes.add(log);
        }
    }
    totals
}

/// A value behind a traced trait boundary. Every trait method is
/// forwarded unchanged; see the module docs.
#[derive(Clone, Debug)]
#[repr(transparent)]
pub struct Spanned<T>(pub T);

impl<T: TopologySource> TopologySource for Spanned<T> {
    fn n(&self) -> usize {
        self.0.n()
    }

    fn initial_edges(&mut self) -> Vec<Edge> {
        span(Span::InitialEdges, || self.0.initial_edges())
    }

    fn peek_time(&mut self) -> Option<Time> {
        span(Span::Pull, || self.0.peek_time())
    }

    fn pull_until(&mut self, until: Time, buf: &mut Vec<TopologyEvent>) {
        let before = buf.len();
        span(Span::Pull, || self.0.pull_until(until, buf));
        count(Count::PullCalls, 1);
        count(Count::EventsPulled, (buf.len() - before) as u64);
    }
}

impl<T: DriftSource> DriftSource for Spanned<T> {
    fn rho(&self) -> f64 {
        self.0.rho()
    }

    fn init(&self, index: usize) -> DriftCursor {
        counted_span(Span::Drift, Some(Count::CursorInits), || self.0.init(index))
    }

    fn next_segment(&self, index: usize, cursor: &mut DriftCursor) {
        counted_span(Span::Drift, Some(Count::SegmentsOpened), || {
            self.0.next_segment(index, cursor)
        })
    }

    fn stateless(&self) -> bool {
        self.0.stateless()
    }

    fn read(&self, index: usize, cursor: &mut DriftCursor, t: Time) -> f64 {
        let step = cursor.step();
        let h = counted_span(Span::Drift, Some(Count::ReadCalls), || {
            self.0.read(index, cursor, t)
        });
        count(Count::SegmentsOpened, cursor.step() - step);
        h
    }

    fn fire_time(&self, index: usize, cursor: &mut DriftCursor, now: Time, delta: f64) -> Time {
        let step = cursor.step();
        let at = counted_span(Span::Drift, Some(Count::FireCalls), || {
            self.0.fire_time(index, cursor, now, delta)
        });
        count(Count::SegmentsOpened, cursor.step() - step);
        at
    }

    fn read_at(&self, index: usize, t: Time) -> f64 {
        counted_span(Span::Drift, Some(Count::ReadCalls), || {
            self.0.read_at(index, t)
        })
    }

    fn fire_at(&self, index: usize, now: Time, delta: f64) -> Time {
        counted_span(Span::Drift, Some(Count::FireCalls), || {
            self.0.fire_at(index, now, delta)
        })
    }
}

impl<A: Automaton> Automaton for Spanned<A> {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        counted_span(Span::Start, Some(Count::StartCalls), || {
            self.0.on_start(ctx)
        })
    }

    fn on_receive(&mut self, ctx: &mut Context<'_>, from: NodeId, msg: Message) {
        counted_span(Span::Handler, Some(Count::ReceiveCalls), || {
            self.0.on_receive(ctx, from, msg)
        })
    }

    fn on_discover(&mut self, ctx: &mut Context<'_>, change: LinkChange) {
        counted_span(Span::Handler, Some(Count::DiscoverCalls), || {
            self.0.on_discover(ctx, change)
        })
    }

    fn on_alarm(&mut self, ctx: &mut Context<'_>, kind: TimerKind) {
        counted_span(Span::Handler, Some(Count::AlarmCalls), || {
            self.0.on_alarm(ctx, kind)
        })
    }

    fn logical_clock(&self, hw: f64) -> f64 {
        self.0.logical_clock(hw)
    }

    fn max_estimate(&self, hw: f64) -> f64 {
        self.0.max_estimate(hw)
    }

    fn try_reboot(&self) -> Result<Self, RebootUnsupported> {
        self.0.try_reboot().map(Spanned)
    }

    fn quiescent(&self) -> bool {
        self.0.quiescent()
    }

    fn pack_cold(&mut self, out: &mut Vec<u8>) -> bool {
        count(Count::PackCalls, 1);
        self.0.pack_cold(out)
    }

    fn unpack_cold(&mut self, bytes: &[u8]) {
        count(Count::UnpackCalls, 1);
        self.0.unpack_cold(bytes)
    }

    fn heap_bytes(&self) -> usize {
        self.0.heap_bytes()
    }
}

impl<N: ModelNode> ModelNode for Spanned<N> {
    fn probe(&self, hw: f64) -> NodeProbe {
        self.0.probe(hw)
    }

    fn encode(&self, out: &mut Vec<u64>) {
        self.0.encode(out)
    }
}
