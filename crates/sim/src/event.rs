//! Event types and the deterministic event queue.

use gcs_clocks::Time;
use gcs_net::{Edge, NodeId};
use std::cmp::Ordering;
#[cfg(test)]
use std::collections::BinaryHeap;

/// The message format of Algorithm 2: `⟨L_u, Lmax_u⟩`. All protocols in
/// this library exchange (logical clock, max-estimate) pairs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Message {
    /// The sender's logical clock value at send time.
    pub logical: f64,
    /// The sender's estimate of the maximum logical clock in the network.
    pub max_estimate: f64,
}

/// Timers available to protocols — exactly the two used by Algorithm 2.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TimerKind {
    /// The periodic `tick` timer (fires every subjective `ΔH`).
    Tick,
    /// The `lost(v)` timer (fires `ΔT′` subjective time after the last
    /// message from `v`).
    Lost(NodeId),
}

/// Direction of a discovered link change.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LinkChangeKind {
    /// `discover(add({u,v}))`
    Added,
    /// `discover(remove({u,v}))`
    Removed,
}

/// A discovered link change, delivered to an endpoint via `on_discover`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkChange {
    /// Which way the link changed.
    pub kind: LinkChangeKind,
    /// The affected edge (the receiving node is one of its endpoints).
    pub edge: Edge,
}

/// Internal event payloads processed by the engine.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum EventPayload {
    /// A message arriving at `to`.
    Deliver {
        /// Sending node.
        from: NodeId,
        /// Receiving node.
        to: NodeId,
        /// Payload.
        msg: Message,
        /// Edge epoch at send time; mismatch at delivery means the edge
        /// went down (and possibly came back) in flight — the message is
        /// dropped.
        epoch: u64,
    },
    /// A timer alarm at `node`. `generation` invalidates cancelled/reset
    /// timers.
    Alarm {
        /// Owner of the timer.
        node: NodeId,
        /// Which timer.
        kind: TimerKind,
        /// Set/cancel generation at scheduling time.
        generation: u64,
    },
    /// An actual topology change (from the schedule).
    Topology {
        /// Added or removed.
        kind: LinkChangeKind,
        /// The edge.
        edge: Edge,
        /// Monotone per-edge version number.
        version: u64,
    },
    /// An endpoint learning about a topology change.
    Discover {
        /// The endpoint being informed.
        node: NodeId,
        /// What it learns.
        change: LinkChange,
        /// Version of the underlying topology event; stale discovers
        /// (older than something already delivered) are skipped.
        version: u64,
    },
    /// A fault injection (from the fault plane). Like topology changes,
    /// faults are serial barriers: they mutate global engine state
    /// (crashed set, loss/delay windows, drift warp) that every worker
    /// reads, so they split the instant into segments.
    Fault {
        /// The injection.
        kind: crate::fault::FaultKind,
    },
}

impl EventPayload {
    /// Class rank within an instant: `Topology` events order before every
    /// other payload at the same time, regardless of when they were
    /// pushed. This encodes the §3.2 convention that a change "takes
    /// effect at its instant" (an edge removed at `t` is not in `E(t)`):
    /// with the schedule now *pulled* lazily, a topology event can be
    /// pushed long after a same-instant delivery, so insertion order alone
    /// can no longer guarantee changes apply before deliveries observe
    /// them. `Fault` events rank between the two: a fault at `t` observes
    /// the topology of `t` (a crash at the instant an edge appears crashes
    /// a node that *has* that edge) and takes effect before any protocol
    /// event at `t` (a message delivered at the crash instant is lost).
    #[inline]
    pub fn class_rank(&self) -> u8 {
        match self {
            EventPayload::Topology { .. } => 0,
            EventPayload::Fault { .. } => 1,
            _ => 2,
        }
    }

    /// The node whose state a protocol event may mutate: the receiver of
    /// a delivery, the owner of an alarm, the endpoint a discovery
    /// informs.
    ///
    /// # Panics
    /// On topology and fault events: they are barriers with no single
    /// owner and are never dispatched to a node.
    #[inline]
    pub fn owner(&self) -> NodeId {
        match self {
            EventPayload::Deliver { to, .. } => *to,
            EventPayload::Alarm { node, .. } => *node,
            EventPayload::Discover { node, .. } => *node,
            EventPayload::Topology { .. } | EventPayload::Fault { .. } => {
                unreachable!("topology and fault events are barriers, not dispatched")
            }
        }
    }
}

/// A queued event: totally ordered by `(time, class, seq)` — earliest
/// time first, topology changes before other payloads at the same
/// instant, insertion order on remaining ties. Sequence numbers are
/// assigned at insertion, so simultaneous same-class events are processed
/// in the order they were scheduled — this both makes runs deterministic
/// and preserves FIFO for same-instant deliveries.
#[derive(Clone, Copy, Debug)]
pub struct QueuedEvent {
    /// When the event fires.
    pub time: Time,
    /// Insertion sequence number (tie-break).
    pub seq: u64,
    /// What happens.
    pub payload: EventPayload,
}

impl QueuedEvent {
    /// The total-order key all queues pop in.
    #[inline]
    pub fn key(&self) -> (Time, u8, u64) {
        (self.time, self.payload.class_rank(), self.seq)
    }
}

impl PartialEq for QueuedEvent {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for QueuedEvent {}

impl Ord for QueuedEvent {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest key pops first.
        other.key().cmp(&self.key())
    }
}

impl PartialOrd for QueuedEvent {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Payload lane indices of the packed event plane. The lane tag both
/// selects the arena column group a payload lives in and encodes its
/// class rank ([`lane_class`]): topology and faults keep their dedicated
/// ranks 0 and 1, the three protocol lanes all rank 2.
pub(crate) const LANE_TOPOLOGY: u8 = 0;
pub(crate) const LANE_FAULT: u8 = 1;
pub(crate) const LANE_DELIVER: u8 = 2;
pub(crate) const LANE_ALARM: u8 = 3;
pub(crate) const LANE_DISCOVER: u8 = 4;
/// Number of payload lanes.
pub(crate) const LANES: usize = 5;

/// Class rank of a lane — identical to [`EventPayload::class_rank`] of
/// any payload stored in it, so packed queue records can be ordered
/// without touching the arena.
#[inline]
pub(crate) fn lane_class(lane: u8) -> u8 {
    lane.min(2)
}

/// Per-lane slot bookkeeping: the free list plus live/peak occupancy.
#[derive(Debug, Default)]
struct LaneSlots {
    /// Recycled slot indices; popping an event frees its slot here.
    free: Vec<u32>,
    /// Slots currently holding a pending payload.
    live: usize,
    /// High-water mark of `live` (per-class pending-event peak).
    peak: usize,
}

impl LaneSlots {
    /// Claims a slot: a recycled one when available, else the next fresh
    /// index (`fresh` = current column length). Returns the slot index and
    /// whether the columns must grow by one.
    #[inline]
    fn claim(&mut self, fresh: usize) -> (u32, bool) {
        self.live += 1;
        self.peak = self.peak.max(self.live);
        match self.free.pop() {
            Some(h) => (h, false),
            None => (fresh as u32, true),
        }
    }

    #[inline]
    fn release(&mut self, handle: u32) {
        self.live -= 1;
        self.free.push(handle);
    }
}

/// Slab arenas for pending-event payloads — the storage half of the
/// packed event plane.
///
/// A queued event's payload no longer travels with its ordering key:
/// the [`TimeWheel`](crate::wheel::TimeWheel) keeps a small fixed-size
/// record per pending event and parks the payload here, in per-lane
/// struct-of-arrays columns addressed by a `u32` handle. Popping an
/// event takes the payload back out and recycles its slot, so steady
/// state allocates nothing and each column's length tracks the lane's
/// high-water mark, not the sum of per-bucket peaks.
#[derive(Debug, Default)]
pub(crate) struct PayloadArena {
    // Deliver lane columns.
    deliver_from: Vec<NodeId>,
    deliver_to: Vec<NodeId>,
    deliver_msg: Vec<Message>,
    deliver_epoch: Vec<u64>,
    // Alarm lane columns.
    alarm_node: Vec<NodeId>,
    alarm_kind: Vec<TimerKind>,
    alarm_gen: Vec<u64>,
    // Discover lane columns.
    discover_node: Vec<NodeId>,
    discover_change: Vec<LinkChange>,
    discover_version: Vec<u64>,
    // Topology lane columns.
    topo_kind: Vec<LinkChangeKind>,
    topo_edge: Vec<Edge>,
    topo_version: Vec<u64>,
    // Fault lane column (one wide enum — faults are rare and never bulk).
    fault_kind: Vec<crate::fault::FaultKind>,
    /// Free lists and occupancy, indexed by lane.
    lanes: [LaneSlots; LANES],
}

impl PayloadArena {
    /// Stores `payload`, returning its `(lane, handle)` address.
    pub(crate) fn alloc(&mut self, payload: &EventPayload) -> (u8, u32) {
        match *payload {
            EventPayload::Deliver {
                from,
                to,
                msg,
                epoch,
            } => {
                let (h, grow) = self.lanes[LANE_DELIVER as usize].claim(self.deliver_from.len());
                if grow {
                    self.deliver_from.push(from);
                    self.deliver_to.push(to);
                    self.deliver_msg.push(msg);
                    self.deliver_epoch.push(epoch);
                } else {
                    let i = h as usize;
                    self.deliver_from[i] = from;
                    self.deliver_to[i] = to;
                    self.deliver_msg[i] = msg;
                    self.deliver_epoch[i] = epoch;
                }
                (LANE_DELIVER, h)
            }
            EventPayload::Alarm {
                node,
                kind,
                generation,
            } => {
                let (h, grow) = self.lanes[LANE_ALARM as usize].claim(self.alarm_node.len());
                if grow {
                    self.alarm_node.push(node);
                    self.alarm_kind.push(kind);
                    self.alarm_gen.push(generation);
                } else {
                    let i = h as usize;
                    self.alarm_node[i] = node;
                    self.alarm_kind[i] = kind;
                    self.alarm_gen[i] = generation;
                }
                (LANE_ALARM, h)
            }
            EventPayload::Discover {
                node,
                change,
                version,
            } => {
                let (h, grow) = self.lanes[LANE_DISCOVER as usize].claim(self.discover_node.len());
                if grow {
                    self.discover_node.push(node);
                    self.discover_change.push(change);
                    self.discover_version.push(version);
                } else {
                    let i = h as usize;
                    self.discover_node[i] = node;
                    self.discover_change[i] = change;
                    self.discover_version[i] = version;
                }
                (LANE_DISCOVER, h)
            }
            EventPayload::Topology {
                kind,
                edge,
                version,
            } => {
                let (h, grow) = self.lanes[LANE_TOPOLOGY as usize].claim(self.topo_kind.len());
                if grow {
                    self.topo_kind.push(kind);
                    self.topo_edge.push(edge);
                    self.topo_version.push(version);
                } else {
                    let i = h as usize;
                    self.topo_kind[i] = kind;
                    self.topo_edge[i] = edge;
                    self.topo_version[i] = version;
                }
                (LANE_TOPOLOGY, h)
            }
            EventPayload::Fault { kind } => {
                let (h, grow) = self.lanes[LANE_FAULT as usize].claim(self.fault_kind.len());
                if grow {
                    self.fault_kind.push(kind);
                } else {
                    self.fault_kind[h as usize] = kind;
                }
                (LANE_FAULT, h)
            }
        }
    }

    /// Takes the payload at `(lane, handle)` back out, recycling the slot.
    pub(crate) fn take(&mut self, lane: u8, handle: u32) -> EventPayload {
        self.lanes[lane as usize].release(handle);
        let i = handle as usize;
        match lane {
            LANE_DELIVER => EventPayload::Deliver {
                from: self.deliver_from[i],
                to: self.deliver_to[i],
                msg: self.deliver_msg[i],
                epoch: self.deliver_epoch[i],
            },
            LANE_ALARM => EventPayload::Alarm {
                node: self.alarm_node[i],
                kind: self.alarm_kind[i],
                generation: self.alarm_gen[i],
            },
            LANE_DISCOVER => EventPayload::Discover {
                node: self.discover_node[i],
                change: self.discover_change[i],
                version: self.discover_version[i],
            },
            LANE_TOPOLOGY => EventPayload::Topology {
                kind: self.topo_kind[i],
                edge: self.topo_edge[i],
                version: self.topo_version[i],
            },
            LANE_FAULT => EventPayload::Fault {
                kind: self.fault_kind[i],
            },
            _ => unreachable!("invalid payload lane {lane}"),
        }
    }

    /// Per-lane peak pending counts, indexed by lane constant.
    pub(crate) fn peaks(&self) -> [usize; LANES] {
        std::array::from_fn(|l| self.lanes[l].peak)
    }

    /// Heap bytes held by the payload columns and free lists (capacities,
    /// matching the rest of the plane census).
    pub(crate) fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.deliver_from.capacity() * size_of::<NodeId>()
            + self.deliver_to.capacity() * size_of::<NodeId>()
            + self.deliver_msg.capacity() * size_of::<Message>()
            + self.deliver_epoch.capacity() * size_of::<u64>()
            + self.alarm_node.capacity() * size_of::<NodeId>()
            + self.alarm_kind.capacity() * size_of::<TimerKind>()
            + self.alarm_gen.capacity() * size_of::<u64>()
            + self.discover_node.capacity() * size_of::<NodeId>()
            + self.discover_change.capacity() * size_of::<LinkChange>()
            + self.discover_version.capacity() * size_of::<u64>()
            + self.topo_kind.capacity() * size_of::<LinkChangeKind>()
            + self.topo_edge.capacity() * size_of::<Edge>()
            + self.topo_version.capacity() * size_of::<u64>()
            + self.fault_kind.capacity() * size_of::<crate::fault::FaultKind>()
            + self
                .lanes
                .iter()
                .map(|l| l.free.capacity() * size_of::<u32>())
                .sum::<usize>()
    }
}

/// Deterministic priority queue of events: a plain binary heap over the
/// `(time, class, seq)` key, kept as the differential oracle the
/// [`TimeWheel`](crate::wheel::TimeWheel) tests compare against.
#[cfg(test)]
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<QueuedEvent>,
    next_seq: u64,
}

#[cfg(test)]
impl EventQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `payload` at `time`.
    pub fn push(&mut self, time: Time, payload: EventPayload) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(QueuedEvent { time, seq, payload });
    }

    /// Claims `n` consecutive sequence numbers, returning the first (see
    /// [`TimeWheel::reserve_seqs`](crate::wheel::TimeWheel::reserve_seqs)).
    pub fn reserve_seqs(&mut self, n: u64) -> u64 {
        let first = self.next_seq;
        self.next_seq += n;
        first
    }

    /// Schedules `payload` at `time` under a reserved sequence number.
    pub fn push_reserved(&mut self, time: Time, seq: u64, payload: EventPayload) {
        self.heap.push(QueuedEvent { time, seq, payload });
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<QueuedEvent> {
        self.heap.pop()
    }

    /// Time of the earliest event without removing it.
    pub fn peek_time(&self) -> Option<Time> {
        self.heap.peek().map(|e| e.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcs_clocks::time::at;
    use gcs_net::node;

    fn alarm(n: usize) -> EventPayload {
        EventPayload::Alarm {
            node: node(n),
            kind: TimerKind::Tick,
            generation: 0,
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(at(3.0), alarm(3));
        q.push(at(1.0), alarm(1));
        q.push(at(2.0), alarm(2));
        let order: Vec<f64> = std::iter::from_fn(|| q.pop())
            .map(|e| e.time.seconds())
            .collect();
        assert_eq!(order, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn ties_pop_in_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.push(at(5.0), alarm(i));
        }
        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|e| e.seq).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn peek_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(at(2.0), alarm(0));
        q.push(at(1.0), alarm(1));
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(at(1.0)));
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.push(at(5.0), alarm(0));
        q.push(at(1.0), alarm(1));
        assert_eq!(q.pop().unwrap().time, at(1.0));
        q.push(at(3.0), alarm(2));
        q.push(at(0.5), alarm(3));
        assert_eq!(q.pop().unwrap().time, at(0.5));
        assert_eq!(q.pop().unwrap().time, at(3.0));
        assert_eq!(q.pop().unwrap().time, at(5.0));
        assert!(q.pop().is_none());
    }
}
