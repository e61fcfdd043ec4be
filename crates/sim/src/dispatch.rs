//! The deterministic dispatch core shared by every execution mode.
//!
//! One function, [`run_event`], embodies the engine's event semantics.
//! It is called
//!
//! * from the threads of a [`fork_join`] during wide segments (each job
//!   takes a chunk of shards and processes each shard's slice of the
//!   segment in event-seq order),
//! * and inline on the serial fast path (small segments, `threads = 1`).
//!
//! ## Why both modes produce bit-identical traces
//!
//! Within a segment (a run of same-instant events between topology
//! barriers), a handler can only observe
//!
//! 1. its own node's state (automaton, timers, discovery watermarks, FIFO
//!    horizons, RNG stream, drift cursor) — owner-exclusive, mutated in
//!    the node's own event-seq order regardless of which thread runs it,
//! 2. the canonical edge state — read-only inside a segment (only
//!    topology events write it, and they are barriers),
//! 3. the drift plane — an immutable [`DriftSource`]; all *mutable*
//!    evaluation state is the owner's private cursor (point 1), and
//!    cursor evaluation is bit-identical to the materialized schedule,
//!    so lazy generation can never show in a trace.
//!
//! Everything a handler *emits* — message deliveries, alarms, drop
//! notifications — is buffered as an [`Effect`] tagged with the
//! triggering event's queue sequence number and the emission index within
//! that event. Each shard's buffer is therefore already ascending in
//! `(trigger seq, emission idx)`. After the segment, the engine merges
//! the shards' buffers ([`merge_runs`]) and pushes them into the wheel in
//! that canonical order, so new events receive the same sequence numbers
//! (and therefore the same tie-break order) no matter how many workers
//! ran or how their execution interleaved. Randomness cannot break ties
//! either: every draw comes from the consuming node's private stream
//! (see [`Context::rng`](crate::Context::rng)), never from a shared one.

use crate::automaton::{Action, Automaton, Context, RngHandle};
use crate::delay::DelayStrategy;
use crate::engine::MAX_THREADS;
use crate::event::{EventPayload, LinkChange, LinkChangeKind, QueuedEvent};
use crate::fault::FaultState;
use crate::model::ModelParams;
use crate::shard::{EdgeStore, Shard};
use crate::wheel::TimeWheel;
use gcs_clocks::{DriftCursor, DriftSource, Duration, Time};
use gcs_net::{Edge, NodeId};

/// Default parallel threshold: segments shorter than this run inline on
/// the coordinating thread — forking threads for a few events costs
/// more than running them. The threshold affects scheduling only —
/// traces are identical either way — and is tunable per run via
/// `SimBuilder::par_threshold`.
pub(crate) const PAR_MIN_EVENTS: usize = 64;

/// A deferred engine effect: an event to enqueue once the segment's
/// canonical merge runs.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Effect {
    /// Queue sequence number of the triggering event.
    pub seq: u64,
    /// Emission index within the triggering event.
    pub k: u32,
    /// When the new event fires.
    pub time: Time,
    /// What it is.
    pub payload: EventPayload,
}

impl Effect {
    /// The canonical merge key `(trigger seq, emission idx)`.
    #[inline]
    pub fn key(&self) -> (u64, u32) {
        (self.seq, self.k)
    }
}

/// Pushes the effects of the per-shard `runs` into `queue` in the
/// canonical `(trigger seq, emission idx)` order.
///
/// Each run is one shard's effects since the last merge. A shard
/// dispatches its slice of a segment in seq order and numbers each
/// event's emissions from 0, so its run is already ascending, and no
/// trigger seq occurs in two runs (an event has one owner). The order is
/// therefore a merge, not a sort: one run drains as it is, several (one
/// per shard, so at most `MAX_THREADS`) are merged by a linear scan of
/// their heads.
///
/// # Panics
/// When the pushed keys do not strictly increase — a run out of order,
/// or a key in two runs — in release builds too. That costs one compare
/// per effect and turns a broken run into a panic instead of a silently
/// reordered trace.
pub(crate) fn merge_runs<'a>(runs: impl IntoIterator<Item = &'a [Effect]>, queue: &mut TimeWheel) {
    let mut last = None;
    let mut push = |e: &Effect| {
        let key = Some(e.key());
        assert!(
            last < key,
            "effect (trigger seq, emission idx) {:?} merged after {:?}: \
             an effect run is out of canonical order",
            e.key(),
            last.unwrap_or_default()
        );
        last = key;
        queue.push(e.time, e.payload);
    };
    let mut runs = runs.into_iter().filter(|run| !run.is_empty());
    let Some(first) = runs.next() else {
        return;
    };
    let Some(second) = runs.next() else {
        first.iter().for_each(push);
        return;
    };
    let mut heads: [&[Effect]; MAX_THREADS] = [&[]; MAX_THREADS];
    heads[0] = first;
    heads[1] = second;
    let mut live = 2;
    for run in runs {
        heads[live] = run;
        live += 1;
    }
    // `heads[..live]` are the unconsumed, non-empty rests; an exhausted
    // run's slot takes the last one's (the order of heads is irrelevant,
    // only the minimum is taken).
    while live > 1 {
        let mut min = 0;
        for i in 1..live {
            if heads[i][0].key() < heads[min][0].key() {
                min = i;
            }
        }
        let (head, rest) = heads[min].split_first().expect("live runs are non-empty");
        push(head);
        if rest.is_empty() {
            live -= 1;
            heads[min] = heads[live];
        } else {
            heads[min] = rest;
        }
    }
    heads[0].iter().for_each(push);
}

/// The read-only world shared by every worker during one segment.
#[derive(Clone, Copy)]
pub(crate) struct DispatchCtx<'a> {
    pub edges: &'a EdgeStore,
    /// The drift plane; per-node evaluation state lives in the owner's
    /// shard as a lazy cursor.
    pub drift: &'a dyn DriftSource,
    pub delay: &'a DelayStrategy,
    /// Accumulated fault state (crashed set, loss/delay windows, drift
    /// warp) — written only at fault barriers, read by every worker.
    pub faults: &'a FaultState,
    pub params: ModelParams,
    pub now: Time,
    /// Simulation seed (lazy per-node streams key off it).
    pub seed: u64,
    /// Number of shards (for the id → local-index mapping).
    pub shard_count: usize,
    /// Whether to record touched nodes for an attached observer.
    pub observing: bool,
}

/// Hardware reading of `u` at `t` through the lazy drift plane.
///
/// `H(0) = 0` by the model's convention, so queries at time 0 touch
/// nothing. Stateless planes (eager adapters) answer directly from their
/// materialized schedules. Otherwise the node's cursor — created here on
/// first use — advances to `t` (per-node query times are monotone: one
/// memoized read per instant, instants in time order).
pub(crate) fn read_hw(
    ctx: &DispatchCtx<'_>,
    slot: &mut Option<Box<DriftCursor>>,
    u: NodeId,
    t: Time,
) -> f64 {
    if t == Time::ZERO {
        return 0.0;
    }
    if ctx.drift.stateless() {
        return ctx.drift.read_at(u.index(), t);
    }
    let cursor = slot.get_or_insert_with(|| Box::new(ctx.drift.init(u.index())));
    ctx.drift.read(u.index(), cursor, t)
}

/// Subjective-timer inversion for `u` at `now` through the lazy plane.
///
/// The look-ahead past `now` runs on a probe clone, so the persistent
/// cursor never advances beyond `now`. At time 0 the cursor would stay
/// in its initial state, so none is persisted — a node whose only
/// activity is `on_start` keeps zero drift state.
pub(crate) fn fire_hw(
    ctx: &DispatchCtx<'_>,
    slot: &mut Option<Box<DriftCursor>>,
    u: NodeId,
    now: Time,
    delta: f64,
) -> Time {
    if ctx.drift.stateless() {
        return ctx.drift.fire_at(u.index(), now, delta);
    }
    match slot {
        Some(cursor) => ctx.drift.fire_time(u.index(), cursor, now, delta),
        None if now == Time::ZERO => ctx.drift.fire_at(u.index(), now, delta),
        None => {
            let mut cursor = Box::new(ctx.drift.init(u.index()));
            let t = ctx.drift.fire_time(u.index(), &mut cursor, now, delta);
            *slot = Some(cursor);
            t
        }
    }
}

/// Processes one shard's slice of a segment, in event-seq order.
pub(crate) fn run_shard<A: Automaton>(ctx: &DispatchCtx<'_>, shard: &mut Shard<A>) {
    let events = std::mem::take(&mut shard.events);
    for ev in &events {
        let owner = ev.payload.owner();
        run_event(ctx, shard, owner, ev);
    }
    shard.events = events;
    shard.events.clear();
}

/// Processes a single non-topology event against its owner's shard.
pub(crate) fn run_event<A: Automaton>(
    ctx: &DispatchCtx<'_>,
    shard: &mut Shard<A>,
    owner: NodeId,
    ev: &QueuedEvent,
) {
    let local = owner.index() / ctx.shard_count;
    // A crashed node executes nothing: deliveries to it vanish (the edge
    // is up, so the sender is *not* notified — unlike a removal, a crash
    // is silent), its alarms and discoveries are suppressed. Watermarks
    // are left untouched so a restarted node re-learns its edges through
    // the fresh discoveries the restart schedules.
    if ctx.faults.is_crashed(owner) {
        match ev.payload {
            EventPayload::Deliver { .. } => shard.stats.dropped_crashed += 1,
            _ => shard.stats.suppressed_crashed += 1,
        }
        return;
    }
    shard.table.ensure(local);
    match ev.payload {
        EventPayload::Deliver {
            from,
            to,
            msg,
            epoch,
            ..
        } => {
            let edge = Edge::new(from, to);
            let state = ctx.edges.find(edge);
            if state.is_some_and(|e| e.delivers(epoch)) {
                shard.stats.messages_delivered += 1;
                run_handler(ctx, shard, owner, local, ev.seq, |a, c| {
                    a.on_receive(c, from, msg)
                });
            } else {
                // Dropped in flight: the model obliges the environment to
                // tell the sender within D of the send; we tell it now
                // (≤ send + T).
                shard.stats.dropped_in_flight += 1;
                let version = state.map(|e| e.last_remove_version).unwrap_or(0);
                shard.effects.push(Effect {
                    seq: ev.seq,
                    k: 0,
                    time: ctx.now,
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
            if shard.table.timers[local].get(kind) != Some(generation) {
                shard.stats.alarms_stale += 1;
                return;
            }
            shard.table.timers[local].disarm(kind);
            shard.stats.alarms_fired += 1;
            run_handler(ctx, shard, owner, local, ev.seq, |a, c| a.on_alarm(c, kind));
        }
        EventPayload::Discover {
            change, version, ..
        } => {
            let other = change.edge.other(owner);
            if !shard.table.peer(local, other).learn(version) {
                shard.stats.discovers_stale += 1;
                return;
            }
            shard.stats.discovers_delivered += 1;
            run_handler(ctx, shard, owner, local, ev.seq, |a, c| {
                a.on_discover(c, change)
            });
        }
        EventPayload::Topology { .. } | EventPayload::Fault { .. } => {
            unreachable!("barrier events are applied serially between segments")
        }
    }
}

/// Runs one handler on its owner and turns the produced [`Action`]s into
/// effects, applying owner-local side effects (timer generations, FIFO
/// horizons, RNG draws, cursor advances) immediately so later events of
/// the *same* node in the same segment observe them — exactly as the
/// per-event engine did. A cold owner wakes first: this is the one place
/// a handler reads an evicted automaton.
pub(crate) fn run_handler<A: Automaton>(
    ctx: &DispatchCtx<'_>,
    shard: &mut Shard<A>,
    u: NodeId,
    local: usize,
    seq: u64,
    f: impl FnOnce(&mut A, &mut Context<'_>),
) {
    let Shard {
        nodes,
        table,
        effects,
        stats,
        touched,
        actions,
        ..
    } = shard;
    table.wake(local, &mut nodes[local]);
    // One drift-plane evaluation per node per instant (two events at the
    // same instant read the same hardware value by definition). At time 0
    // every clock reads exactly 0, so `on_start` dispatch touches no
    // table slot — a node whose start handler does nothing never
    // materializes any engine state at all.
    let base = if ctx.now == Time::ZERO {
        0.0
    } else {
        table.ensure(local);
        if table.hw_time[local] != ctx.now {
            table.hw[local] = read_hw(ctx, &mut table.drift[local], u, ctx.now);
            table.hw_time[local] = ctx.now;
        }
        table.hw[local]
    };
    // The *observed* reading adds any drift-excursion warp. The memo and
    // the cursor stay on the base plane — warp is a pure function of
    // `(node, now)` given the applied faults, so re-adding it at every
    // observation point keeps all paths (handlers, `Simulator::hardware`,
    // later instants) consistent. Exactly 0.0 on clean runs, so fault-free
    // traces are bit-identical to builds without a fault plane.
    let warp = ctx.faults.hw_warp(u, ctx.now);
    let hw = if warp != 0.0 { base + warp } else { base };
    actions.clear();
    // The RNG slot rides outside the table during the handler so a
    // not-yet-materialized node only claims its slots if the handler
    // actually did something (drew, or emitted actions).
    let ensured = local < table.watermark();
    let mut rng_slot = if ensured {
        table.rng[local].take()
    } else {
        None
    };
    {
        let mut c = Context::with_lazy_rng(u, ctx.now, hw, actions, &mut rng_slot, ctx.seed);
        f(&mut nodes[local], &mut c);
    }
    if ensured || rng_slot.is_some() || !actions.is_empty() {
        table.ensure(local);
        table.rng[local] = rng_slot;
    }
    if ctx.observing {
        touched.push(u);
    }
    let mut k = 0u32;
    for action in actions.drain(..) {
        match action {
            Action::Send { to, msg } => {
                stats.messages_sent += 1;
                let edge = Edge::new(u, to);
                // An open loss window swallows the send silently: no
                // delivery, no sender notification — unlike a removed
                // edge, the window is invisible to the protocol.
                if ctx.faults.drops(ctx.now, edge) {
                    stats.dropped_fault_window += 1;
                    k += 1;
                    continue;
                }
                let state = ctx.edges.find(edge);
                if state.map(|e| e.live).unwrap_or(false) {
                    let epoch = state.expect("live edge has an entry").epoch;
                    // A delay spike overrides the strategy (and skips its
                    // draw — spike windows are deterministic, so this is
                    // thread-count invariant); otherwise the strategy gets
                    // the node's lazy stream, which materializes only if
                    // it draws.
                    let d = if let Some(spike) = ctx.faults.delay_override(ctx.now) {
                        stats.delay_spiked += 1;
                        spike
                    } else {
                        let mut rng = RngHandle::Lazy {
                            slot: &mut table.rng[local],
                            seed: ctx.seed,
                            index: u.index(),
                        };
                        ctx.delay.delay(edge, u, ctx.now, ctx.params.t, &mut rng)
                    };
                    let due = ctx.now + Duration::new(d);
                    let deliver_at = table.peer(local, to).fifo(due);
                    effects.push(Effect {
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
                    // The edge does not exist: the message is not delivered
                    // and the sender discovers that D after the send.
                    stats.dropped_no_edge += 1;
                    let version = state.map(|e| e.last_remove_version).unwrap_or(0);
                    effects.push(Effect {
                        seq,
                        k,
                        time: ctx.now + Duration::new(ctx.params.d),
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
                let generation = table.timers[local].arm(kind);
                let fire = fire_hw(ctx, &mut table.drift[local], u, ctx.now, delta);
                effects.push(Effect {
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
            Action::CancelTimer { kind } => table.timers[local].cancel(kind),
        }
    }
}

/// Runs `jobs` in parallel and returns once every one of them has
/// stopped: the first on the calling thread, each other on a scoped
/// thread spawned for this call alone. No job outlives the scope, so a
/// job may borrow shards `&mut` for one segment with no lifetime
/// erasure. Scheduling only: the engine hands every job the same
/// `run_shard` body over a disjoint shard chunk, so the trace is the
/// inline path's.
///
/// **Panics**: no job unwinds the call while another still runs. Once
/// all have stopped, the payload of the first panicking job (in job
/// order) is re-raised unchanged. The handles are joined here because
/// `std::thread::scope` would replace a thread's payload with its own
/// "a scoped thread panicked".
pub(crate) fn fork_join<F: FnOnce() + Send>(jobs: Vec<F>) {
    let mut jobs = jobs.into_iter();
    let Some(lead) = jobs.next() else {
        return;
    };
    let panic = std::thread::scope(|scope| {
        let handles: Vec<_> = jobs.map(|job| scope.spawn(job)).collect();
        let lead = std::panic::catch_unwind(std::panic::AssertUnwindSafe(lead)).err();
        let rest: Vec<_> = handles.into_iter().map(|h| h.join().err()).collect();
        std::iter::once(lead).chain(rest).flatten().next()
    });
    if let Some(payload) = panic {
        std::panic::resume_unwind(payload);
    }
}

#[cfg(test)]
mod tests {
    use super::{fork_join, merge_runs, Effect};
    use crate::event::{EventPayload, Message, TimerKind};
    use crate::wheel::TimeWheel;
    use gcs_clocks::time::at;
    use gcs_net::node;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Condvar, Mutex};

    /// An effect whose payload names its key, so a pop shows which
    /// effect took which wheel sequence number.
    fn effect(seq: u64, k: u32, time: f64) -> Effect {
        let payload = if k.is_multiple_of(2) {
            EventPayload::Alarm {
                node: node(seq as usize),
                kind: TimerKind::Tick,
                generation: u64::from(k),
            }
        } else {
            EventPayload::Deliver {
                from: node(seq as usize),
                to: node(k as usize),
                msg: Message {
                    logical: seq as f64,
                    max_estimate: f64::from(k),
                },
                epoch: 0,
            }
        };
        Effect {
            seq,
            k,
            time: at(time),
            payload,
        }
    }

    fn merged(runs: &[Vec<Effect>]) -> TimeWheel {
        let mut wheel = TimeWheel::new(0.25);
        merge_runs(runs.iter().map(Vec::as_slice), &mut wheel);
        wheel
    }

    /// Differential test of the canonical merge against the sort it
    /// replaced (concatenate the runs, then sort by `(seq, k)`): random
    /// segments over 1–9 shards, owners dealt round-robin as the engine
    /// deals them, some shards silent, 0–4 effects per trigger, and a
    /// handful of effect times so that equal-time ties expose any
    /// difference in push order.
    #[test]
    fn merge_pushes_what_concatenate_then_sort_pushed() {
        let mut rng = StdRng::seed_from_u64(0x5eed);
        for case in 0..400 {
            let shards = rng.gen_range(1..=9usize);
            let silent: Vec<bool> = (0..shards).map(|_| rng.gen_bool(0.2)).collect();
            let mut runs = vec![Vec::new(); shards];
            let mut seq = rng.gen_range(0..1_000u64);
            for _ in 0..rng.gen_range(0..300) {
                seq += rng.gen_range(1..4u64);
                let shard = rng.gen_range(0..4 * shards) % shards;
                if silent[shard] {
                    continue;
                }
                for k in 0..rng.gen_range(0..=4u32) {
                    let time = [1.0, 1.05, 1.1, 1.3, 2.0][rng.gen_range(0..5usize)];
                    runs[shard].push(effect(seq, k, time));
                }
            }
            let mut sorted = runs.concat();
            sorted.sort_unstable_by_key(Effect::key);
            let mut want = TimeWheel::new(0.25);
            for e in &sorted {
                want.push(e.time, e.payload);
            }
            let mut got = merged(&runs);
            assert_eq!(got.len(), sorted.len(), "case {case}");
            while let Some(a) = want.pop() {
                let b = got.pop().expect("same length");
                assert_eq!((a.time, a.seq), (b.time, b.seq), "case {case}");
                assert_eq!(a.payload, b.payload, "case {case}");
            }
        }
    }

    /// The merge fails closed in release builds too: a run out of order
    /// among several runs panics instead of reordering the trace.
    #[test]
    #[should_panic(expected = "an effect run is out of canonical order")]
    fn merge_rejects_an_out_of_order_run() {
        merged(&[
            vec![effect(1, 0, 1.0), effect(4, 0, 1.0)],
            vec![effect(3, 0, 1.0), effect(2, 0, 1.0)],
            vec![],
        ]);
    }

    /// Every other way a run can break the canonical order: a lone
    /// unsorted run (the one-run path), emission indices out of order
    /// within one trigger, and one key in two runs.
    #[test]
    fn merge_rejects_every_broken_run_shape() {
        let cases = [
            vec![vec![effect(5, 0, 1.0), effect(3, 0, 1.0)]],
            vec![vec![effect(2, 1, 1.0), effect(2, 0, 1.0)], vec![]],
            vec![vec![effect(2, 0, 1.0)], vec![effect(2, 0, 1.0)]],
        ];
        for runs in cases {
            let err = catch_unwind(|| merged(&runs)).expect_err("broken run merged");
            let msg = err.downcast_ref::<String>().expect("formatted message");
            assert!(msg.contains("out of canonical order"), "{msg}");
        }
    }

    #[test]
    fn fork_join_runs_every_job_and_the_first_on_the_caller() {
        fork_join(Vec::<fn()>::new()); // nothing to run, nothing spawned
        let caller = std::thread::current().id();
        let mut slots = [(0, None); 4];
        fork_join(
            slots
                .iter_mut()
                .enumerate()
                .map(|(lane, slot)| move || *slot = (lane + 1, Some(std::thread::current().id())))
                .collect(),
        );
        assert_eq!(slots.map(|s| s.0), [1, 2, 3, 4]);
        assert_eq!(slots[0].1, Some(caller), "the first job runs on the caller");
        assert!(
            slots[1..]
                .iter()
                .all(|s| s.1.is_some_and(|id| id != caller)),
            "every other job runs on a spawned thread"
        );
    }

    /// For 1 to 4 lanes and every non-empty set of panicking lanes, the
    /// call re-raises the first panicking lane's payload, and only after
    /// every healthy lane has finished. A healthy lane finishes only once
    /// every panicking lane has started to panic, so an unwind that did
    /// not wait for the other jobs would miss it.
    #[test]
    fn fork_join_reraises_the_first_panic_after_every_healthy_job() {
        for lanes in 1..=4usize {
            for panicking in 1u32..1 << lanes {
                let finished = AtomicUsize::new(0);
                let panics = (Mutex::new(0), Condvar::new());
                let result = catch_unwind(AssertUnwindSafe(|| {
                    fork_join(
                        (0..lanes)
                            .map(|lane| {
                                let (finished, (count, started)) = (&finished, &panics);
                                move || {
                                    if panicking & 1 << lane != 0 {
                                        *count.lock().unwrap() += 1;
                                        started.notify_all();
                                        panic!("lane {lane} exploded");
                                    }
                                    let all = panicking.count_ones();
                                    let guard = count.lock().unwrap();
                                    drop(started.wait_while(guard, |n| *n < all).unwrap());
                                    finished.fetch_add(1, Ordering::SeqCst);
                                }
                            })
                            .collect(),
                    )
                }));
                let case = format!("{lanes} lanes, panicking set {panicking:#b}");
                let payload = result.expect_err(&case);
                let first = panicking.trailing_zeros();
                assert_eq!(
                    payload.downcast_ref::<String>(),
                    Some(&format!("lane {first} exploded")),
                    "{case}: the first panicking job's payload"
                );
                assert_eq!(
                    finished.load(Ordering::SeqCst),
                    lanes - panicking.count_ones() as usize,
                    "{case}: every healthy job finished before the unwind"
                );
            }
        }
    }
}
