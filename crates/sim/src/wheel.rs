//! A bucketed calendar queue ("time wheel") for the hot event path.
//!
//! [`TimeWheel`] replaces a global [`std::collections::BinaryHeap`]
//! (the test-only `EventQueue` it is checked against) with an array of
//! time buckets of width `width` (chosen from the model's delay bound `T`, so
//! one bucket spans a fraction of a message delay). A push lands in
//!
//! * the **current heap** when the event falls into the bucket being
//!   drained (events scheduled "now"),
//! * the **ring** of [`SLOTS`] buckets when it falls within the wheel's
//!   horizon `SLOTS · width` (the common case: delays `≤ T`, subjective
//!   timers a few `T`s out),
//! * the **overflow** map beyond that (pre-scheduled topology churn far in
//!   the future).
//!
//! ## The packed event plane
//!
//! Buckets do not hold full [`QueuedEvent`]s. Each pending event is a
//! 24-byte `PackedEvent` record — `(time, seq)` plus a lane tag and a
//! `u32` handle — and its payload lives in the payload arena's per-lane
//! struct-of-arrays columns until the pop reconstructs the
//! [`QueuedEvent`]. Two consequences: bucket sorts move 24-byte records
//! (keyed on 17 bytes) instead of 56-byte payload enums, and the
//! payload columns are sized by the *global* per-lane pending peak
//! instead of paying the payload width once per bucket high-water mark,
//! which is what made the wheel the largest memory plane at scale.
//! Slots recycle on pop, so steady state allocates nothing.
//!
//! Draining is strictly bucket-by-bucket: the cursor only ever advances to
//! the earliest non-empty bucket — found by a trailing-zeros scan over a
//! [`SLOTS`]-bit occupancy bitmap rather than a linear ring probe — and
//! within a bucket events are ordered through one contiguous sort.
//! Because an event at real time `t` always belongs to bucket
//! `⌊t/width⌋` and later buckets hold strictly later times, the pop
//! order is **exactly** the `(time, class, seq)` order of the global
//! heap — the wheel is a drop-in, trace-identical replacement that turns
//! most pushes into a `Vec::push` into a small contiguous bucket.
//!
//! Sequence numbers are normally assigned at push time, but callers that
//! *stage* events outside the wheel (the engine's horizon-gated topology
//! admission) can [`reserve_seqs`](TimeWheel::reserve_seqs) at the
//! moment the event is pulled and admit it later with
//! [`push_reserved`](TimeWheel::push_reserved): the pop order is a
//! function of the reserved key alone, so *when* the event is admitted
//! cannot change the trace — provided it is admitted before its instant
//! pops, which the engine's admission loop guarantees.
//!
//! Invariants that make this work (checked in debug builds):
//!
//! * pushes never go backwards in *time*: `time` is at or after the last
//!   popped event. The bucket index may still be `≤ cursor` — the cursor
//!   skips empty buckets, and a lazily pulled topology event can land in
//!   a skipped one — in which case the push joins the spill heap, which
//!   every pop consults, so the pop order is unaffected,
//! * a non-empty ring slot holds events of exactly one bucket index
//!   (within any window of `SLOTS` consecutive buckets, each residue
//!   `index mod SLOTS` occurs once), and its occupancy bit is set iff the
//!   slot is non-empty (the cursor's own slot is never occupied: a push
//!   into the cursor bucket spills, and a wrap-around to the same residue
//!   is at least `SLOTS` buckets away, which overflows),
//! * the same bucket index may appear in both the ring and the overflow
//!   (pushed under different cursors); advancing drains both.

use crate::event::{lane_class, EventPayload, PayloadArena, QueuedEvent, LANES};
use gcs_clocks::Time;
use std::cmp::Ordering;
use std::collections::{BTreeMap, BinaryHeap};

/// Number of ring buckets. With `width = T/4` the ring covers `128·T` of
/// simulated time ahead of the cursor before events spill to the overflow
/// map.
pub const SLOTS: usize = 512;

/// Words in the ring occupancy bitmap.
const WORDS: usize = SLOTS / 64;

/// The fixed-size queue record of one pending event: the total-order key
/// `(time, class, seq)` (class derived from the lane tag) plus the
/// payload's arena address. 24 bytes against the 56 of a full
/// [`QueuedEvent`].
#[derive(Clone, Copy, Debug)]
struct PackedEvent {
    /// When the event fires.
    time: Time,
    /// Insertion (or reservation) sequence number.
    seq: u64,
    /// Slot index in the payload lane.
    handle: u32,
    /// Payload lane (see `event::LANE_*`); encodes the class rank.
    lane: u8,
}

impl PackedEvent {
    /// The total-order key all queues pop in — identical to
    /// [`QueuedEvent::key`] of the reconstructed event.
    #[inline]
    fn key(&self) -> (Time, u8, u64) {
        (self.time, lane_class(self.lane), self.seq)
    }
}

impl PartialEq for PackedEvent {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for PackedEvent {}

impl Ord for PackedEvent {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest key pops first.
        other.key().cmp(&self.key())
    }
}

impl PartialOrd for PackedEvent {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A calendar event queue with heap-identical pop order.
///
/// The cursor bucket is drained by **sorting once** and walking an index —
/// one `O(b log b)` contiguous sort instead of `2b` heap sift operations —
/// with a small side heap (`spill`) for the rare events scheduled *into*
/// the cursor bucket while it drains (e.g. drop-notification discoveries
/// pushed at the current instant).
#[derive(Debug)]
pub struct TimeWheel {
    /// Bucket width in seconds of real (simulated) time.
    width: f64,
    /// Ring of future buckets; slot `b % SLOTS` holds bucket `b` while
    /// `cursor < b < cursor + SLOTS`.
    ring: Box<[Vec<PackedEvent>]>,
    /// One bit per ring slot, set iff the slot is non-empty; `advance`
    /// finds the next bucket with a trailing-zeros scan instead of
    /// probing up to `SLOTS` `Vec` headers.
    occupied: [u64; WORDS],
    /// Events in ring slots (excludes `current`, `spill` and `overflow`).
    ring_len: usize,
    /// Absolute index of the bucket currently being drained.
    cursor: u64,
    /// Events of bucket `cursor`, sorted ascending by key; `cur_idx`
    /// points at the next one to pop.
    current: Vec<PackedEvent>,
    /// Consumption index into `current`.
    cur_idx: usize,
    /// Events pushed into bucket `cursor` after it was sorted.
    spill: BinaryHeap<PackedEvent>,
    /// Buckets at or beyond `cursor + SLOTS` at push time.
    overflow: BTreeMap<u64, Vec<PackedEvent>>,
    /// Payload storage for every pending record.
    arena: PayloadArena,
    /// Total pending events.
    len: usize,
    /// Insertion sequence counter (global tie-break, like `EventQueue`).
    next_seq: u64,
    /// Time of the last popped event — the floor below which a push would
    /// be genuine time travel (checked in debug builds).
    last_popped: Time,
}

impl TimeWheel {
    /// An empty wheel with the given bucket `width` (seconds).
    pub fn new(width: f64) -> Self {
        assert!(
            width.is_finite() && width > 0.0,
            "bucket width must be positive, got {width}"
        );
        TimeWheel {
            width,
            ring: (0..SLOTS).map(|_| Vec::new()).collect(),
            occupied: [0; WORDS],
            ring_len: 0,
            cursor: 0,
            current: Vec::new(),
            cur_idx: 0,
            spill: BinaryHeap::new(),
            overflow: BTreeMap::new(),
            arena: PayloadArena::default(),
            len: 0,
            next_seq: 0,
            last_popped: Time::ZERO,
        }
    }

    /// The absolute bucket index of a time point.
    #[inline]
    fn bucket_of(&self, time: Time) -> u64 {
        (time.seconds() / self.width) as u64
    }

    /// Schedules `payload` at `time`. Equal `(time, class)` pops in push
    /// order; topology payloads order before others at the same instant
    /// (see [`QueuedEvent::key`]).
    pub fn push(&mut self, time: Time, payload: EventPayload) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.insert(time, seq, payload);
    }

    /// Claims `n` consecutive sequence numbers without inserting anything,
    /// returning the first. A caller staging events outside the wheel
    /// reserves their seqs at *pull* time — the point a direct `push`
    /// would have assigned them — so later pushes keep the exact sequence
    /// numbers they would have had, and the staged events' eventual
    /// admission order is fixed by the reservation, not the admission
    /// instant.
    pub fn reserve_seqs(&mut self, n: u64) -> u64 {
        let first = self.next_seq;
        self.next_seq += n;
        first
    }

    /// Schedules `payload` at `time` under a previously
    /// [reserved](Self::reserve_seqs) sequence number. The caller must
    /// admit the event before its instant pops (the engine admits staged
    /// events whenever they are due no later than the wheel's next event).
    pub fn push_reserved(&mut self, time: Time, seq: u64, payload: EventPayload) {
        debug_assert!(seq < self.next_seq, "seq {seq} was never reserved");
        self.insert(time, seq, payload);
    }

    fn insert(&mut self, time: Time, seq: u64, payload: EventPayload) {
        debug_assert!(
            time >= self.last_popped,
            "push at {time:?} behind the last popped event ({:?})",
            self.last_popped
        );
        let (lane, handle) = self.arena.alloc(&payload);
        let ev = PackedEvent {
            time,
            seq,
            handle,
            lane,
        };
        let bucket = self.bucket_of(time);
        self.len += 1;
        if bucket <= self.cursor {
            // Either the cursor bucket itself, or a bucket the cursor
            // skipped while it was empty (a lazily pulled topology event
            // can be earlier than everything pending). The spill heap is
            // consulted on every pop, so order is preserved either way.
            self.spill.push(ev);
        } else if bucket < self.cursor + SLOTS as u64 {
            let slot = (bucket % SLOTS as u64) as usize;
            if self.ring[slot].is_empty() {
                self.occupied[slot / 64] |= 1u64 << (slot % 64);
            }
            self.ring[slot].push(ev);
            self.ring_len += 1;
        } else {
            self.overflow.entry(bucket).or_default().push(ev);
        }
    }

    /// True if the cursor bucket still has unconsumed events.
    #[inline]
    fn cursor_has_events(&self) -> bool {
        self.cur_idx < self.current.len() || !self.spill.is_empty()
    }

    /// The earliest non-empty ring bucket strictly after the cursor, via
    /// the occupancy bitmap: scan words starting at the cursor's
    /// successor slot, mask off the bits behind the start, and take the
    /// first set bit. Distance from the cursor grows monotonically along
    /// the scan (low bits are lower slot numbers), so the first hit is
    /// the minimum.
    fn next_ring_bucket(&self) -> Option<u64> {
        if self.ring_len == 0 {
            return None;
        }
        let base = (self.cursor % SLOTS as u64) as usize;
        let start = (base + 1) % SLOTS;
        let (sw, sb) = (start / 64, start % 64);
        for i in 0..=WORDS {
            let w = (sw + i) % WORDS;
            let mut bits = self.occupied[w];
            if i == 0 {
                bits &= !0u64 << sb;
            } else if i == WORDS {
                // Wrapped back to the start word: only the slots *before*
                // `start` remain unexamined.
                bits &= !(!0u64 << sb);
            }
            if bits != 0 {
                let slot = w * 64 + bits.trailing_zeros() as usize;
                let d = ((slot + SLOTS - base) % SLOTS) as u64;
                debug_assert!(d != 0, "the cursor's own slot is never occupied");
                return Some(self.cursor + d);
            }
        }
        unreachable!("ring_len > 0 but no occupancy bit set")
    }

    /// Moves the cursor to the earliest non-empty bucket, sorts it once,
    /// and resets the consumption index. Requires the cursor bucket to be
    /// fully consumed and at least one pending event somewhere.
    fn advance(&mut self) {
        debug_assert!(!self.cursor_has_events() && self.len > 0);
        let ring_next = self.next_ring_bucket();
        let overflow_next = self.overflow.keys().next().copied();
        let next = match (ring_next, overflow_next) {
            (Some(r), Some(o)) => r.min(o),
            (Some(r), None) => r,
            (None, Some(o)) => o,
            (None, None) => unreachable!("len > 0 but no bucket holds events"),
        };
        self.cursor = next;
        let slot = (next % SLOTS as u64) as usize;
        self.ring_len -= self.ring[slot].len();
        self.occupied[slot / 64] &= !(1u64 << (slot % 64));
        // Swap buffers so the drained slot inherits the consumed
        // allocation — steady state allocates nothing.
        self.current.clear();
        self.cur_idx = 0;
        std::mem::swap(&mut self.current, &mut self.ring[slot]);
        if let Some(extra) = self.overflow.remove(&next) {
            self.current.extend(extra);
        }
        debug_assert!(self
            .current
            .iter()
            .all(|ev| (ev.time.seconds() / self.width) as u64 == next));
        self.current.sort_unstable_by_key(PackedEvent::key);
    }

    /// Makes the cursor bucket non-empty (advancing if needed); false when
    /// no events are pending at all.
    #[inline]
    fn ensure_front(&mut self) -> bool {
        if !self.cursor_has_events() {
            if self.len == 0 {
                return false;
            }
            self.advance();
        }
        true
    }

    /// Whether the next pop must come from the spill heap rather than the
    /// sorted bucket array.
    #[inline]
    fn front_is_spill(&self) -> bool {
        match (self.current.get(self.cur_idx), self.spill.peek()) {
            (Some(c), Some(s)) => s.key() < c.key(),
            (None, Some(_)) => true,
            _ => false,
        }
    }

    /// Removes and returns the earliest event, reconstructing the full
    /// payload from the arena (which recycles the slot).
    pub fn pop(&mut self) -> Option<QueuedEvent> {
        if !self.ensure_front() {
            return None;
        }
        self.len -= 1;
        let pe = if self.front_is_spill() {
            self.spill.pop().expect("front_is_spill peeked an event")
        } else {
            let pe = self.current[self.cur_idx];
            self.cur_idx += 1;
            pe
        };
        self.last_popped = pe.time;
        Some(QueuedEvent {
            time: pe.time,
            seq: pe.seq,
            payload: self.arena.take(pe.lane, pe.handle),
        })
    }

    /// The earliest pending record, advancing the cursor if needed.
    fn front(&mut self) -> Option<&PackedEvent> {
        if !self.ensure_front() {
            return None;
        }
        if self.front_is_spill() {
            self.spill.peek()
        } else {
            self.current.get(self.cur_idx)
        }
    }

    /// Time of the earliest event without removing it. `&mut` because the
    /// cursor may need to advance to find it.
    pub fn peek_time(&mut self) -> Option<Time> {
        self.front().map(|e| e.time)
    }

    /// Earliest `(time, seq)` still pending in the cursor bucket (array or
    /// spill), *without* advancing the cursor. Used by [`pop_instant`]:
    /// events of one instant all live in one bucket, and not advancing
    /// keeps the cursor parked there so the engine can push follow-up
    /// events at the same instant after the round.
    ///
    /// [`pop_instant`]: Self::pop_instant
    fn peek_in_cursor(&self) -> Option<&PackedEvent> {
        let cur = self.current.get(self.cur_idx);
        let sp = self.spill.peek();
        match (cur, sp) {
            (Some(c), Some(s)) => Some(if s.key() < c.key() { s } else { c }),
            (Some(c), None) => Some(c),
            (None, sp) => sp,
        }
    }

    /// Drains the complete run of earliest events sharing one instant into
    /// `buf` (appending, in `(time, seq)` order) and returns that instant.
    ///
    /// This is the engine's round extraction: everything at the same time
    /// forms one dispatch round. Events pushed *while* the round executes
    /// land behind it (larger sequence numbers) and are picked up by the
    /// next call, even at the same instant.
    pub fn pop_instant(&mut self, buf: &mut Vec<QueuedEvent>) -> Option<Time> {
        let first = self.pop()?;
        let t = first.time;
        buf.push(first);
        // All remaining events at time `t` share the first event's bucket,
        // so peeking inside the cursor bucket is exhaustive — and it leaves
        // the cursor in place for same-instant pushes after the round.
        while self.peek_in_cursor().map(|e| e.time) == Some(t) {
            buf.push(self.pop().expect("peek said non-empty"));
        }
        Some(t)
    }

    /// Heap bytes held by the packed records (ring buckets, cursor bucket,
    /// spill heap, overflow map) plus the payload arena columns (the wheel
    /// plane's memory meter; B-tree node overhead is approximated by the
    /// entry payloads).
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        let ev = size_of::<PackedEvent>();
        self.ring.len() * size_of::<Vec<PackedEvent>>()
            + self.ring.iter().map(|b| b.capacity() * ev).sum::<usize>()
            + self.current.capacity() * ev
            + self.spill.capacity() * ev
            + self
                .overflow
                .values()
                .map(|v| size_of::<u64>() + size_of::<Vec<PackedEvent>>() + v.capacity() * ev)
                .sum::<usize>()
            + self.arena.heap_bytes()
    }

    /// Per-lane peak pending-event counts, indexed
    /// `[topology, fault, deliver, alarm, discover]` — the high-water
    /// occupancy of each payload lane over the wheel's lifetime. A
    /// function of the trace (what was pending when), identical across
    /// thread counts.
    pub fn pending_peaks(&self) -> [usize; LANES] {
        self.arena.peaks()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// Length of the topology-class prefix of an instant popped by
/// [`TimeWheel::pop_instant`].
///
/// `pop_instant` returns the round in `(time, class, seq)` order and
/// topology has the lowest class rank, so *all* of an instant's topology
/// events form a contiguous prefix — this is the property that lets the
/// engine apply them as one batch (one barrier per instant instead of
/// one per event). Effects emitted mid-round are protocol-class and land
/// behind the round, so a later same-instant pop starts its own prefix.
pub(crate) fn topology_prefix_len(round: &[QueuedEvent]) -> usize {
    let k = round
        .iter()
        .take_while(|ev| matches!(ev.payload, EventPayload::Topology { .. }))
        .count();
    debug_assert!(
        round[k..]
            .iter()
            .all(|ev| !matches!(ev.payload, EventPayload::Topology { .. })),
        "class ranks must sort all topology events to the instant's prefix"
    );
    k
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventQueue, LinkChange, LinkChangeKind, Message, TimerKind};
    use crate::fault::FaultKind;
    use gcs_clocks::time::at;
    use gcs_net::node;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn alarm(n: usize) -> EventPayload {
        EventPayload::Alarm {
            node: node(n),
            kind: TimerKind::Tick,
            generation: 0,
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut w = TimeWheel::new(0.25);
        w.push(at(3.0), alarm(3));
        w.push(at(1.0), alarm(1));
        w.push(at(2.0), alarm(2));
        let order: Vec<f64> = std::iter::from_fn(|| w.pop())
            .map(|e| e.time.seconds())
            .collect();
        assert_eq!(order, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn ties_pop_in_insertion_order() {
        let mut w = TimeWheel::new(0.25);
        for i in 0..10 {
            w.push(at(5.0), alarm(i));
        }
        let order: Vec<u64> = std::iter::from_fn(|| w.pop()).map(|e| e.seq).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn pop_reconstructs_the_pushed_payload() {
        // The packed plane splits key from payload; a pop must hand back
        // exactly the payload that went in, for every lane.
        let mut w = TimeWheel::new(0.25);
        let payloads = vec![
            EventPayload::Topology {
                kind: LinkChangeKind::Added,
                edge: gcs_net::Edge::between(1, 2),
                version: 7,
            },
            EventPayload::Fault {
                kind: FaultKind::Crash { node: node(3) },
            },
            EventPayload::Deliver {
                from: node(4),
                to: node(5),
                msg: Message {
                    logical: 1.5,
                    max_estimate: 2.5,
                },
                epoch: 9,
            },
            EventPayload::Alarm {
                node: node(6),
                kind: TimerKind::Lost(node(7)),
                generation: 11,
            },
            EventPayload::Discover {
                node: node(8),
                change: LinkChange {
                    kind: LinkChangeKind::Removed,
                    edge: gcs_net::Edge::between(8, 9),
                },
                version: 13,
            },
        ];
        for (i, p) in payloads.iter().enumerate() {
            w.push(at(1.0 + i as f64), *p);
        }
        for p in &payloads {
            assert_eq!(&w.pop().unwrap().payload, p);
        }
        assert!(w.is_empty());
        // Every lane peaked at exactly one pending event.
        assert_eq!(w.pending_peaks(), [1, 1, 1, 1, 1]);
    }

    #[test]
    fn reserved_seqs_fix_the_order_regardless_of_admission_time() {
        // Reserve a trio up front, push later events first, then admit the
        // reserved ones — ties at the same instant must still pop in
        // reservation order, exactly as if they had been pushed eagerly.
        let mut w = TimeWheel::new(0.25);
        let first = w.reserve_seqs(2);
        assert_eq!(first, 0);
        w.push(at(2.0), alarm(100)); // seq 2
        w.push_reserved(at(2.0), first + 1, alarm(1));
        w.push_reserved(at(2.0), first, alarm(0));
        let order: Vec<u64> = std::iter::from_fn(|| w.pop()).map(|e| e.seq).collect();
        assert_eq!(order, vec![0, 1, 2]);
    }

    #[test]
    fn pop_instant_sorts_topology_into_one_prefix() {
        let mut w = TimeWheel::new(0.25);
        let topo = |i: usize| EventPayload::Topology {
            kind: crate::event::LinkChangeKind::Added,
            edge: gcs_net::Edge::between(i, i + 1),
            version: 1,
        };
        // Interleave pushes: protocol, topology, protocol, topology.
        w.push(at(1.0), alarm(0));
        w.push(at(1.0), topo(0));
        w.push(at(1.0), alarm(1));
        w.push(at(1.0), topo(2));
        w.push(at(2.0), topo(4)); // different instant, stays behind
        let mut round = Vec::new();
        assert_eq!(w.pop_instant(&mut round), Some(at(1.0)));
        assert_eq!(round.len(), 4);
        assert_eq!(
            topology_prefix_len(&round),
            2,
            "all same-instant topology events form the prefix"
        );
        // Within each class, insertion order (seq) is preserved.
        let prefix_edges: Vec<_> = round[..2]
            .iter()
            .map(|ev| match ev.payload {
                EventPayload::Topology { edge, .. } => edge,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(
            prefix_edges,
            vec![gcs_net::Edge::between(0, 1), gcs_net::Edge::between(2, 3)]
        );
        round.clear();
        assert_eq!(w.pop_instant(&mut round), Some(at(2.0)));
        assert_eq!(topology_prefix_len(&round), 1);
    }

    #[test]
    fn far_future_overflow_round_trips() {
        let mut w = TimeWheel::new(0.25);
        // Far beyond the ring horizon (512 · 0.25 = 128 s).
        w.push(at(1000.0), alarm(0));
        w.push(at(500.0), alarm(1));
        w.push(at(0.1), alarm(2));
        assert_eq!(w.len(), 3);
        assert_eq!(w.peek_time(), Some(at(0.1)));
        let times: Vec<f64> = std::iter::from_fn(|| w.pop())
            .map(|e| e.time.seconds())
            .collect();
        assert_eq!(times, vec![0.1, 500.0, 1000.0]);
        assert!(w.is_empty());
    }

    #[test]
    fn push_at_cursor_time_during_drain() {
        let mut w = TimeWheel::new(0.25);
        w.push(at(1.0), alarm(0));
        w.push(at(1.0001), alarm(1));
        let first = w.pop().unwrap();
        assert_eq!(first.time, at(1.0));
        // An event scheduled "now" (same bucket as the cursor) must pop
        // before the rest of the bucket when its time is earlier-or-equal
        // by (time, seq).
        w.push(at(1.00005), alarm(2));
        assert_eq!(w.pop().unwrap().time, at(1.00005));
        assert_eq!(w.pop().unwrap().time, at(1.0001));
        assert!(w.pop().is_none());
    }

    /// One random payload, cycling through every lane so class ranks and
    /// arena round-trips both get differential coverage.
    fn mixed_payload(step: usize, rng: &mut StdRng) -> EventPayload {
        match rng.gen_range(0..5) {
            0 => EventPayload::Topology {
                kind: if step.is_multiple_of(2) {
                    LinkChangeKind::Added
                } else {
                    LinkChangeKind::Removed
                },
                edge: gcs_net::Edge::between(step, step + 1),
                version: step as u64,
            },
            1 => EventPayload::Fault {
                kind: FaultKind::Crash { node: node(step) },
            },
            2 => EventPayload::Deliver {
                from: node(step),
                to: node(step + 1),
                msg: Message {
                    logical: step as f64,
                    max_estimate: step as f64 + 0.5,
                },
                epoch: step as u64,
            },
            3 => EventPayload::Discover {
                node: node(step),
                change: LinkChange {
                    kind: LinkChangeKind::Added,
                    edge: gcs_net::Edge::between(step, step + 2),
                },
                version: step as u64,
            },
            _ => alarm(step),
        }
    }

    #[test]
    fn matches_heap_order_on_random_workload() {
        // Differential test: random interleaved push/pop against
        // EventQueue, over *mixed* payload classes — same-instant ties
        // across Topology/Fault/protocol exercise the class ranking, the
        // far-future spikes exercise the overflow map, and pushes at or
        // just after a pop land in cursor/skipped buckets (the spill
        // path). Payload equality checks the arena round-trip under
        // recycling.
        let mut rng = StdRng::seed_from_u64(7);
        let mut heap = EventQueue::new();
        let mut wheel = TimeWheel::new(0.25);
        let mut t = 0.0f64;
        let mut popped = Vec::new();
        let mut popped_h = Vec::new();
        for step in 0..5000 {
            if rng.gen_bool(0.6) || heap.is_empty() {
                // Pushes go to "now or later" with occasional far-future
                // spikes, like pre-scheduled churn; dt = 0.0 re-targets
                // the instant (and bucket) that just popped.
                let dt = if rng.gen_bool(0.02) {
                    rng.gen_range(100.0..400.0)
                } else if rng.gen_bool(0.1) {
                    0.0
                } else {
                    rng.gen_range(0.0..3.0)
                };
                let payload = mixed_payload(step, &mut rng);
                heap.push(at(t + dt), payload);
                wheel.push(at(t + dt), payload);
            } else {
                let a = heap.pop().unwrap();
                let b = wheel.pop().unwrap();
                assert_eq!((a.time, a.seq), (b.time, b.seq), "step {step}");
                assert_eq!(a.payload, b.payload, "step {step}");
                t = a.time.seconds();
                popped_h.push(a.seq);
                popped.push(b.seq);
            }
            assert_eq!(heap.len(), wheel.len());
        }
        while let Some(a) = heap.pop() {
            let b = wheel.pop().unwrap();
            assert_eq!((a.time, a.seq), (b.time, b.seq));
            assert_eq!(a.payload, b.payload);
        }
        assert!(wheel.is_empty());
        assert_eq!(popped, popped_h);
    }

    #[test]
    fn matches_heap_order_through_skipped_buckets_and_spill() {
        // Force the paths the uniform workload hits only rarely: long
        // cursor jumps (ring wrap + overflow promotion) followed by
        // pushes *behind* the cursor into skipped buckets.
        let mut rng = StdRng::seed_from_u64(23);
        let mut heap = EventQueue::new();
        let mut wheel = TimeWheel::new(0.25);
        let mut t = 0.0f64;
        for step in 0..2000 {
            match rng.gen_range(0..4) {
                // A far-future anchor, then drain to it: the cursor leaps
                // over hundreds of empty (skipped) buckets.
                0 => {
                    let far = t + rng.gen_range(50.0..300.0);
                    let p = mixed_payload(step, &mut rng);
                    heap.push(at(far), p);
                    wheel.push(at(far), p);
                }
                // A push at the current instant or barely after — the
                // cursor bucket (spill) path.
                1 => {
                    let dt = rng.gen_range(0.0..0.05);
                    let p = mixed_payload(step, &mut rng);
                    heap.push(at(t + dt), p);
                    wheel.push(at(t + dt), p);
                }
                // A "lazily pulled" event between now and the next
                // pending event: often a skipped bucket behind the
                // cursor after a long jump.
                2 => {
                    let next = wheel.peek_time().map_or(t + 10.0, |n| n.seconds());
                    if next > t {
                        let mid = t + (next - t) * rng.gen_range(0.0..1.0);
                        let p = mixed_payload(step, &mut rng);
                        heap.push(at(mid), p);
                        wheel.push(at(mid), p);
                    }
                }
                _ => {
                    if let Some(a) = heap.pop() {
                        let b = wheel.pop().unwrap();
                        assert_eq!((a.time, a.seq), (b.time, b.seq), "step {step}");
                        assert_eq!(a.payload, b.payload, "step {step}");
                        t = a.time.seconds();
                    }
                }
            }
            assert_eq!(heap.len(), wheel.len());
        }
        while let Some(a) = heap.pop() {
            let b = wheel.pop().unwrap();
            assert_eq!((a.time, a.seq), (b.time, b.seq));
            assert_eq!(a.payload, b.payload);
        }
        assert!(wheel.is_empty());
    }

    #[test]
    fn pop_instant_drains_exactly_one_time_tie_group() {
        let mut w = TimeWheel::new(0.25);
        for i in 0..5 {
            w.push(at(2.0), alarm(i));
        }
        w.push(at(3.0), alarm(5));
        let mut buf = Vec::new();
        assert_eq!(w.pop_instant(&mut buf), Some(at(2.0)));
        assert_eq!(buf.len(), 5);
        assert!(buf.iter().all(|e| e.time == at(2.0)));
        assert_eq!(
            buf.iter().map(|e| e.seq).collect::<Vec<_>>(),
            (0..5).collect::<Vec<_>>(),
            "within an instant the order is insertion order"
        );
        buf.clear();
        assert_eq!(w.pop_instant(&mut buf), Some(at(3.0)));
        assert_eq!(buf.len(), 1);
        buf.clear();
        assert_eq!(w.pop_instant(&mut buf), None);
        assert!(w.is_empty());
    }

    #[test]
    #[should_panic(expected = "bucket width")]
    fn zero_width_rejected() {
        let _ = TimeWheel::new(0.0);
    }

    fn topo(i: usize) -> EventPayload {
        EventPayload::Topology {
            kind: crate::event::LinkChangeKind::Added,
            edge: gcs_net::Edge::between(i, i + 1),
            version: 1,
        }
    }

    #[test]
    fn topology_sorts_before_other_payloads_at_the_same_instant() {
        // The lazily pulled schedule can push a topology event *after*
        // same-instant protocol events already entered the wheel; the
        // class rank must still apply it first (§3.2: a change takes
        // effect at its instant).
        let mut w = TimeWheel::new(0.25);
        w.push(at(2.0), alarm(0));
        w.push(at(2.0), topo(0));
        w.push(at(2.0), alarm(1));
        w.push(at(2.0), topo(2));
        let order: Vec<u8> = std::iter::from_fn(|| w.pop())
            .map(|e| e.payload.class_rank())
            .collect();
        assert_eq!(order, vec![0, 0, 2, 2]);
    }

    #[test]
    fn push_into_skipped_bucket_pops_in_order() {
        // The cursor skips empty buckets; a late (pulled) push can then
        // target one of them. It must land in the spill heap and pop in
        // correct time order.
        let mut w = TimeWheel::new(0.25);
        w.push(at(1.0), alarm(0));
        w.push(at(100.0), alarm(1));
        assert_eq!(w.pop().unwrap().time, at(1.0));
        // Peeking advances the cursor to the 100.0 bucket...
        assert_eq!(w.peek_time(), Some(at(100.0)));
        // ...then a pulled event lands in a long-skipped bucket.
        w.push(at(50.0), topo(0));
        w.push(at(100.0), topo(1));
        let order: Vec<f64> = std::iter::from_fn(|| w.pop())
            .map(|e| e.time.seconds())
            .collect();
        assert_eq!(order, vec![50.0, 100.0, 100.0]);
    }

    #[test]
    fn pop_instant_includes_spilled_same_instant_events() {
        let mut w = TimeWheel::new(0.25);
        w.push(at(10.0), alarm(0));
        assert_eq!(w.peek_time(), Some(at(10.0)));
        w.push(at(10.0), topo(0));
        let mut buf = Vec::new();
        assert_eq!(w.pop_instant(&mut buf), Some(at(10.0)));
        assert_eq!(buf.len(), 2);
        assert_eq!(buf[0].payload.class_rank(), 0, "topology first");
    }

    #[test]
    fn occupancy_bitmap_tracks_ring_slots_across_wraps() {
        // March the cursor several times around the ring with sparse
        // events, so `advance` repeatedly crosses word boundaries and the
        // wrap-around word of the bitmap scan.
        let mut w = TimeWheel::new(0.25);
        let mut expect = Vec::new();
        // Slot stride of 97 (coprime to 512) visits residues in a
        // scattered order while staying inside the ring horizon.
        for i in 0..300u64 {
            let t = 0.26 + ((i * 97) % 511) as f64 * 0.25;
            expect.push(t);
            w.push(at(t), alarm(i as usize));
        }
        expect.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let got: Vec<f64> = std::iter::from_fn(|| w.pop())
            .map(|e| e.time.seconds())
            .collect();
        assert_eq!(got, expect);
        assert!(w.is_empty());
    }
}
