//! Sharded per-node engine state and the canonical edge store.
//!
//! The parallel dispatcher (see [`crate::dispatch`]) relies on a strict
//! ownership discipline:
//!
//! * **Node-local state** — the automaton itself, its armed timers, its
//!   per-neighbor discovery watermarks and FIFO horizons, its private
//!   RNG stream, and its drift cursor — lives in the [`Shard`] that owns
//!   the node (`shard = node mod shard_count`). During a parallel segment
//!   each fork/join job holds `&mut` over a disjoint chunk of shards, so
//!   owner-exclusive mutation is enforced by the borrow checker, not by
//!   locks.
//!
//!   Within a shard this state is a compact **struct-of-arrays**
//!   [`NodeTable`] sized by the *touched-node watermark*: the arrays grow
//!   only to the highest local index whose handlers have actually run, so
//!   a node no event ever reaches costs zero bytes of engine state. The
//!   two expensive per-node members are additionally lazy inside their
//!   slots: the RNG stream materializes on the node's **first draw**
//!   (runs under `DelayStrategy::Max` never allocate one), and the
//!   [`DriftCursor`] materializes on the node's first hardware-clock
//!   evaluation past time 0 (see [`crate::dispatch::read_hw`]). Both are
//!   trace-neutral: a stream seeds identically whenever it is created,
//!   and cursor evaluation is bit-identical to the eager schedule.
//! * **Canonical edge state** — liveness, epoch, removal version and the
//!   per-edge schedule-version counter of every edge, kept on the edge's
//!   *lower* endpoint — lives in the [`EdgeStore`], the engine's one and
//!   only record of the live edge set `E(t)` (the public read-only view
//!   is [`GraphView`]). Each node additionally keeps the ids of its
//!   *lower* neighbors, so adjacency is answerable from both endpoints.
//!   The store is only ever written *between* segments (by topology
//!   pulls and applications, and by the serial start pass).
//!   Entries are created **incrementally**: initial edges at build time,
//!   churned edges the moment their first event is pulled from the
//!   `TopologySource` — the store never needs to know the future, which
//!   is what lets topology stream instead of materializing — and its
//!   per-node rows grow to the touched watermark like [`NodeTable`]'s.
//!   During a segment every worker reads it through a shared `&`, which
//!   is safe precisely because deliveries cannot change liveness or
//!   epochs. Liveness changes only at the topology barrier between
//!   segments, where each instant's batch is applied serially in `(seq)`
//!   order. The store is indexed by node id, not sharded: a batch
//!   touches only its edges' lower-endpoint rows, and the lower-id
//!   column is written only at pull and build time.
//!
//! The node → shard assignment is round-robin by id. It affects only data
//! layout, never semantics: traces are identical for every shard count
//! (pinned by `crates/bench/tests/determinism.rs`).

use crate::event::{LinkChangeKind, TimerKind};
use gcs_clocks::{DriftCursor, Time};
use gcs_net::{Edge, NodeId};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Canonical per-edge state, stored on the lower endpoint's row (sorted
/// by the higher endpoint). Entries are created on first contact and are
/// sticky: churn toggles fields instead of reshaping the row.
///
/// The methods are the §3.2 edge rules — initial presence, per-edge
/// change versions, add/remove transitions and in-flight loss — shared
/// by the engine's edge store and the model checker's edge table.
#[derive(Clone, Copy, Debug)]
pub struct EdgeShared {
    /// The higher endpoint of the edge.
    pub neighbor: NodeId,
    /// Whether the edge is in the live edge set `E(t)` — the engine's one
    /// record of it, read publicly through [`GraphView`].
    pub live: bool,
    /// Incremented when the edge is (re-)added. Deliveries carry the epoch
    /// they were sent in; a mismatch at delivery means the edge went down
    /// (and possibly came back) in flight.
    pub epoch: u64,
    /// Version of the most recent removal.
    pub last_remove_version: u64,
    /// Version of the most recent *applied* add (1 for initial edges).
    /// Restart rediscovery re-announces a live edge under this version —
    /// never under `versions`, which may already name a pulled-but-
    /// unapplied future change whose own discovery must not be
    /// suppressed as stale.
    pub last_add_version: u64,
    /// Monotone per-edge change-version counter: initial presence counts
    /// as version 1, every pulled topology event takes the next value.
    /// Assigned at pull time (stream order), carried by the `Topology`
    /// and `Discover` payloads, and used to suppress stale discoveries.
    pub versions: u64,
}

impl EdgeShared {
    /// The entry of a never-seen edge to `neighbor`: down, epoch 0, no
    /// version assigned.
    #[inline]
    pub fn new(neighbor: NodeId) -> Self {
        EdgeShared {
            neighbor,
            live: false,
            epoch: 0,
            last_remove_version: 0,
            last_add_version: 0,
            versions: 0,
        }
    }

    /// Marks an initial edge live at epoch 1, change-version 1.
    #[inline]
    pub fn mark_initial(&mut self) {
        self.live = true;
        self.epoch = 1;
        self.versions = 1;
        self.last_add_version = 1;
    }

    /// Assigns the edge's next change version. Called at pull time, in
    /// stream order, so versions are monotone per edge.
    #[inline]
    pub fn next_version(&mut self) -> u64 {
        self.versions += 1;
        self.versions
    }

    /// Applies one pulled change of `edge` (this entry's edge, named in
    /// the panic message) under `version`: an add goes live in a new
    /// epoch, a removal goes down.
    ///
    /// # Panics
    /// When the change contradicts liveness — adding a live edge or
    /// removing an absent one — i.e. the source broke its contract.
    pub fn apply(&mut self, kind: LinkChangeKind, edge: Edge, version: u64) {
        match kind {
            LinkChangeKind::Added => {
                assert!(
                    !self.live,
                    "edge {edge:?} already present at change version {version}"
                );
                self.epoch += 1;
                self.live = true;
                self.last_add_version = version;
            }
            LinkChangeKind::Removed => {
                assert!(
                    self.live,
                    "edge {edge:?} not present at change version {version}"
                );
                self.last_remove_version = version;
                self.live = false;
            }
        }
    }

    /// Whether a message sent in `epoch` arrives: the edge is live and
    /// has not gone down (and possibly come back) while it was in flight.
    #[inline]
    pub fn delivers(&self, epoch: u64) -> bool {
        self.live && self.epoch == epoch
    }
}

/// Heap bytes of a per-node column: its headers plus every node's entries.
fn column_bytes<T>(column: &Vec<Vec<T>>) -> usize {
    use std::mem::size_of;
    column.capacity() * size_of::<Vec<T>>()
        + column
            .iter()
            .map(|v| v.capacity() * size_of::<T>())
            .sum::<usize>()
}

/// `v[i]`, first growing `v` with empty entries to cover `i` — per-node
/// columns grow to the touched watermark instead of being sized to `n`.
/// Capacity doubles as usual but never exceeds `max_len`, the node
/// count.
fn grown<T>(v: &mut Vec<Vec<T>>, i: usize, max_len: usize) -> &mut Vec<T> {
    if i >= v.len() {
        if i >= v.capacity() {
            v.reserve_exact((i + 1).max(2 * v.capacity()).min(max_len) - v.len());
        }
        v.resize_with(i + 1, Vec::new);
    }
    &mut v[i]
}

/// The canonical edge state of the whole network — the engine's only
/// record of the live edge set.
///
/// Entries appear when an edge first matters (initial set at build,
/// churned edges at pull time) and add/remove deltas are applied per
/// instant as the pulled events fire. Content is a function of the event
/// stream alone — never of the worker count or of pull timing — which is
/// why traces do not depend on the worker count.
///
/// Reads go through a shared reference during parallel segments; writes
/// happen only at barriers between segments, on the coordinating thread.
#[derive(Debug)]
pub(crate) struct EdgeStore {
    /// `rows[lo]` = the entries of every edge `{lo, hi > lo}`, sorted by
    /// `hi`.
    rows: Vec<Vec<EdgeShared>>,
    /// `lower[hi]` = every `lo < hi` whose row holds an entry for
    /// `{lo, hi}`, ascending (sticky like the entries themselves).
    lower: Vec<Vec<NodeId>>,
    /// Number of nodes; edges must lie within `0..n`.
    n: usize,
}

impl EdgeStore {
    /// An empty store over `n` nodes; nothing per node is allocated until
    /// an edge touches it.
    pub fn new(n: usize) -> Self {
        EdgeStore {
            rows: Vec::new(),
            lower: Vec::new(),
            n,
        }
    }

    /// Applies one pulled topology change. The entry of `edge` exists
    /// since the pull that assigned `version`.
    ///
    /// # Panics
    /// When the change contradicts the live edge set — adding a live edge
    /// or removing an absent one — i.e. the source broke its contract.
    pub fn apply(&mut self, kind: LinkChangeKind, edge: Edge, version: u64) {
        let row = &mut self.rows[edge.lo().index()];
        let i = row
            .binary_search_by_key(&edge.hi(), |e| e.neighbor)
            .expect("every pulled edge has an entry");
        row[i].apply(kind, edge, version);
    }

    /// Marks an initial edge live at epoch 1, change-version 1.
    #[inline]
    pub fn insert_initial(&mut self, edge: Edge) {
        self.entry(edge).mark_initial();
    }

    /// Assigns the next change version of `edge` (creating the entry on
    /// first contact). Called at pull time, in stream order, so version
    /// numbers are monotone per edge and independent of thread count.
    #[inline]
    pub fn next_version(&mut self, edge: Edge) -> u64 {
        self.entry(edge).next_version()
    }

    /// `u`'s row: the entries of its edges to higher neighbors (empty
    /// past the touched watermark).
    #[inline]
    fn row(&self, u: NodeId) -> &[EdgeShared] {
        self.rows.get(u.index()).map_or(&[], Vec::as_slice)
    }

    /// The canonical state of `edge`, if any contact has happened.
    #[inline]
    pub fn find(&self, edge: Edge) -> Option<&EdgeShared> {
        let row = self.row(edge.lo());
        row.binary_search_by_key(&edge.hi(), |e| e.neighbor)
            .ok()
            .map(|i| &row[i])
    }

    /// Every entry incident to `u`, live or not, in ascending neighbor
    /// order: the lower neighbors (each entry found in that neighbor's
    /// row), then `u`'s own row.
    pub fn incident(&self, u: NodeId) -> impl Iterator<Item = (NodeId, &EdgeShared)> + '_ {
        let lower = self.lower.get(u.index()).map_or(&[][..], Vec::as_slice);
        let lower = lower.iter().map(move |&v| {
            let row = self.row(v);
            let k = row
                .binary_search_by_key(&u, |e| e.neighbor)
                .expect("a lower-neighbor id names an entry");
            (v, &row[k])
        });
        lower.chain(self.row(u).iter().map(|e| (e.neighbor, e)))
    }

    /// The canonical state of `edge`, created on first contact. Runs only
    /// at build and pull time, which makes it the one writer of the
    /// lower-neighbor ids.
    ///
    /// # Panics
    /// When `edge` names a node `≥ n` — a source outside its node set,
    /// which would otherwise grow the per-node columns past `n`.
    fn entry(&mut self, edge: Edge) -> &mut EdgeShared {
        let n = self.n;
        let (lo, hi) = (edge.lo().index(), edge.hi().index());
        assert!(hi < n, "edge {edge:?} out of range for n={n}");
        let row = grown(&mut self.rows, lo, n);
        let i = match row.binary_search_by_key(&edge.hi(), |e| e.neighbor) {
            Ok(i) => i,
            Err(i) => {
                row.insert(i, EdgeShared::new(edge.hi()));
                let lower = grown(&mut self.lower, hi, n);
                lower.insert(lower.partition_point(|&v| v < edge.lo()), edge.lo());
                i
            }
        };
        &mut self.rows[lo][i]
    }

    /// Heap bytes of the canonical edge state (topology plane meter).
    pub fn heap_bytes(&self) -> usize {
        column_bytes(&self.rows) + column_bytes(&self.lower)
    }
}

/// Read-only view of the live edge set `E(t)` at the simulator's current
/// instant, answered from the engine's canonical edge store — see
/// [`Simulator::graph`](crate::Simulator::graph).
#[derive(Clone, Copy, Debug)]
pub struct GraphView<'a> {
    store: &'a EdgeStore,
}

impl<'a> GraphView<'a> {
    pub(crate) fn new(store: &'a EdgeStore) -> Self {
        GraphView { store }
    }

    /// True if `e` is currently up.
    pub fn contains(&self, e: Edge) -> bool {
        self.store.find(e).is_some_and(|s| s.live)
    }

    /// Current neighbors of `u`, in ascending order.
    pub fn neighbors(&self, u: NodeId) -> impl Iterator<Item = NodeId> + 'a {
        let store: &'a EdgeStore = self.store;
        store.incident(u).filter(|(_, e)| e.live).map(|(v, _)| v)
    }

    /// All edges currently up, in ascending `(lo, hi)` order.
    pub fn edges(&self) -> impl Iterator<Item = Edge> + 'a {
        let store: &'a EdgeStore = self.store;
        (0..store.rows.len()).flat_map(move |i| {
            let lo = NodeId::from_index(i);
            store
                .row(lo)
                .iter()
                .filter(|e| e.live)
                .map(move |e| Edge::new(lo, e.neighbor))
        })
    }
}

/// One node's timers, sorted by kind. An *armed* timer is an entry whose
/// `armed` flag is set and whose generation must match the alarm's;
/// cancelling bumps the generation and clears the flag but keeps the
/// entry (generation continuity — removing it would let a later `arm`
/// restart at generation 1 and alias a stale in-flight alarm); firing
/// removes the entry.
///
/// These are the §3.2 timer rules — a reset or cancel supersedes the old
/// alarm — shared by the engine's node table and the model checker.
#[derive(Debug, Default)]
pub struct TimerSlots {
    /// `(kind, generation, armed)`.
    v: Vec<(TimerKind, u64, bool)>,
}

impl Clone for TimerSlots {
    fn clone(&self) -> Self {
        TimerSlots { v: self.v.clone() }
    }

    /// Copies `source` into `self`'s buffer, allocating only when it is
    /// too small (the model checker copies whole models per branch).
    fn clone_from(&mut self, source: &Self) {
        let TimerSlots { v } = source;
        self.v.clone_from(v);
    }
}

impl TimerSlots {
    /// The generation of `kind`'s entry, armed or cancelled; `None` once
    /// fired or never set. An alarm is live iff it carries this value.
    #[inline]
    pub fn get(&self, kind: TimerKind) -> Option<u64> {
        self.v
            .binary_search_by_key(&kind, |e| e.0)
            .ok()
            .map(|i| self.v[i].1)
    }

    /// `set_timer`: bump the generation (inserting at 0 first) and return
    /// the new value.
    #[inline]
    pub fn arm(&mut self, kind: TimerKind) -> u64 {
        match self.v.binary_search_by_key(&kind, |e| e.0) {
            Ok(i) => {
                self.v[i].1 = self.v[i].1.wrapping_add(1);
                self.v[i].2 = true;
                self.v[i].1
            }
            Err(i) => {
                self.v.insert(i, (kind, 1, true));
                1
            }
        }
    }

    /// `cancel`: bump the generation if present (entry stays).
    #[inline]
    pub fn cancel(&mut self, kind: TimerKind) {
        if let Ok(i) = self.v.binary_search_by_key(&kind, |e| e.0) {
            self.v[i].1 = self.v[i].1.wrapping_add(1);
            self.v[i].2 = false;
        }
    }

    /// A fired alarm consumes its entry.
    #[inline]
    pub fn disarm(&mut self, kind: TimerKind) {
        if let Ok(i) = self.v.binary_search_by_key(&kind, |e| e.0) {
            self.v.remove(i);
        }
    }

    /// Crash and restart support: bump *every* timer's generation so all
    /// in-flight alarms go stale. Entries stay present (like
    /// [`cancel`](Self::cancel)).
    pub fn cancel_all(&mut self) {
        for e in &mut self.v {
            e.1 = e.1.wrapping_add(1);
            e.2 = false;
        }
    }

    /// `(kind, generation)` of every entry, armed or cancelled, in kind
    /// order.
    #[inline]
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (TimerKind, u64)> + '_ {
        self.v
            .iter()
            .map(|&(kind, generation, _)| (kind, generation))
    }

    /// True if any timer is armed (an alarm is genuinely in flight).
    /// Cancelled entries — generation counters kept for continuity — do
    /// not count.
    #[inline]
    pub(crate) fn any_armed(&self) -> bool {
        self.v.iter().any(|e| e.2)
    }

    /// Heap bytes backing the entry array.
    #[inline]
    pub(crate) fn heap_bytes(&self) -> usize {
        self.v.capacity() * std::mem::size_of::<(TimerKind, u64, bool)>()
    }
}

/// A node's view of one neighbor: state that only this node ever touches.
///
/// The methods are the §3.2 per-link rules — FIFO delivery on a directed
/// link and discovery staleness — shared by the engine's node table and
/// the model checker.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PeerLocal {
    /// The other endpoint.
    pub neighbor: NodeId,
    /// Highest change version this node has been told about.
    pub discovered_version: u64,
    /// Latest delivery already scheduled from this node to `neighbor`
    /// (FIFO enforcement for the directed link).
    pub fifo_out: Time,
}

impl PeerLocal {
    /// A node's fresh view of `neighbor`: nothing discovered, nothing
    /// sent.
    #[inline]
    pub fn new(neighbor: NodeId) -> Self {
        PeerLocal {
            neighbor,
            discovered_version: 0,
            fifo_out: Time::ZERO,
        }
    }

    /// The entry for `v` in `peers` (sorted by neighbor), inserted fresh
    /// on first contact.
    #[inline]
    pub fn entry(peers: &mut Vec<PeerLocal>, v: NodeId) -> &mut PeerLocal {
        match peers.binary_search_by_key(&v, |p| p.neighbor) {
            Ok(i) => &mut peers[i],
            Err(i) => {
                peers.insert(i, PeerLocal::new(v));
                &mut peers[i]
            }
        }
    }

    /// FIFO on the directed link: a message due at `due` arrives no
    /// earlier than the one scheduled before it. Records and returns the
    /// delivery time.
    #[inline]
    pub fn fifo(&mut self, due: Time) -> Time {
        self.fifo_out = due.max(self.fifo_out);
        self.fifo_out
    }

    /// Discovery staleness: a change under `version` is news only when it
    /// is newer than every change already learned on this link, since a
    /// discovery may skip a superseded change. Records it and returns
    /// `true` if news, else returns `false` (stale).
    #[inline]
    pub fn learn(&mut self, version: u64) -> bool {
        if version <= self.discovered_version {
            return false;
        }
        self.discovered_version = version;
        true
    }
}

/// The node-local engine state of one shard, laid out struct-of-arrays
/// and sized by the **touched-node watermark**: every array covers local
/// indices `0..watermark()`, where the watermark is the highest local
/// index any event has reached (plus one). Untouched nodes occupy no
/// slots at all; touched nodes occupy compact fixed-size slots whose two
/// heap members (RNG stream, drift cursor) stay `None` until genuinely
/// needed.
#[derive(Debug, Default)]
pub(crate) struct NodeTable {
    /// Armed timers with generation counters.
    pub timers: Vec<TimerSlots>,
    /// Per-neighbor local state, sorted by neighbor id.
    pub peers: Vec<Vec<PeerLocal>>,
    /// The node's private random stream (delay sampling and
    /// `Context::rng`), seeded from `(simulation seed, node id)` on the
    /// **first draw** — identical stream whenever created, so laziness
    /// never shows in a trace.
    pub rng: Vec<Option<Box<StdRng>>>,
    /// Memoized hardware reading at `hw_time` (one drift-plane
    /// evaluation per node per instant; `H(0) = 0` makes the default
    /// slot a valid memo).
    pub hw: Vec<f64>,
    /// The time `hw` was evaluated at.
    pub hw_time: Vec<Time>,
    /// The node's lazy drift cursor — the *only* per-node state of the
    /// drift plane. `None` until the node's clock is first evaluated
    /// past time 0 (and permanently for stateless eager adapters).
    pub drift: Vec<Option<Box<DriftCursor>>>,
    /// The cold tier: `Some` while the node is evicted, holding the bytes
    /// its automaton's `pack_cold` drained (an empty box allocates
    /// nothing); `None` while hot. The node's timer and peer slots stay
    /// in place, shrunk to fit; the next handler wakes the automaton (see
    /// [`NodeTable::wake`]).
    pub cold: Vec<Option<Box<[u8]>>>,
    /// Nodes evicted so far (engine diagnostic; deliberately *not* in
    /// [`crate::SimStats`], so stats stay equal between runs that do and
    /// do not evict).
    pub evictions: u64,
    /// Cold nodes woken so far.
    pub rehydrations: u64,
}

impl NodeTable {
    /// Grows every array to cover `local` (the touched-node watermark).
    #[inline]
    pub fn ensure(&mut self, local: usize) {
        if local >= self.timers.len() {
            let n = local + 1;
            self.timers.resize_with(n, TimerSlots::default);
            self.peers.resize_with(n, Vec::new);
            self.rng.resize_with(n, || None);
            self.hw.resize(n, 0.0);
            self.hw_time.resize(n, Time::ZERO);
            self.drift.resize_with(n, || None);
            self.cold.resize_with(n, || None);
        }
    }

    /// Slots currently materialized (the touched-node watermark).
    #[inline]
    pub fn watermark(&self) -> usize {
        self.timers.len()
    }

    /// Node `local`'s state for neighbor `v`, created on first contact.
    #[inline]
    pub fn peer(&mut self, local: usize, v: NodeId) -> &mut PeerLocal {
        PeerLocal::entry(&mut self.peers[local], v)
    }

    /// Drift cursors materialized in this table.
    pub fn drift_cursors(&self) -> usize {
        self.drift.iter().filter(|c| c.is_some()).count()
    }

    /// RNG streams materialized in this table.
    pub fn rng_streams(&self) -> usize {
        self.rng.iter().filter(|r| r.is_some()).count()
    }

    /// True if node `local` currently lives in the cold tier.
    #[inline]
    pub fn is_cold(&self, local: usize) -> bool {
        local < self.cold.len() && self.cold[local].is_some()
    }

    /// Nodes currently in the cold tier.
    pub fn cold_nodes(&self) -> usize {
        self.cold.iter().filter(|c| c.is_some()).count()
    }

    /// Bytes the cold tier holds: every cold node's automaton bytes plus
    /// its shrunk timer and peer entries (the automaton-cold meter).
    pub fn cold_bytes(&self) -> usize {
        let cold = self.cold.iter().enumerate();
        cold.filter_map(|(local, c)| Some(c.as_ref()?.len() + self.slot_bytes(local)))
            .sum()
    }

    /// Heap bytes of node `local`'s timer and peer entries.
    fn slot_bytes(&self, local: usize) -> usize {
        self.timers[local].heap_bytes()
            + self.peers[local].capacity() * std::mem::size_of::<PeerLocal>()
    }

    /// Tries to evict node `local` into the cold tier. Succeeds only when
    /// the node is genuinely quiescent from every angle the engine can
    /// see *locally* — which is what keeps the sweep thread-invariant:
    ///
    /// * the automaton reports [`Automaton::quiescent`] and agrees to
    ///   pack,
    /// * no timer is armed, so every alarm still in the wheel is stale
    ///   and no alarm ever wakes a cold node,
    /// * no RNG stream has materialized (stream position is not
    ///   reconstructible from the seed).
    ///
    /// On success the automaton's drained heap state moves into the
    /// `cold` column, the node's timer and peer slots shrink in place —
    /// generations and watermarks never leave them, so crash, restart and
    /// staleness checks read them as on a hot node — and the drift cursor
    /// is dropped (re-materialization is bit-neutral by the lazy-drift
    /// contract). Inline state — clocks, hardware memo — stays hot, so
    /// snapshots of cold nodes read exactly.
    ///
    /// [`Automaton::quiescent`]: crate::Automaton::quiescent
    pub fn pack_node<A: crate::automaton::Automaton>(
        &mut self,
        local: usize,
        node: &mut A,
    ) -> bool {
        if self.is_cold(local)
            || local >= self.watermark()
            || self.rng[local].is_some()
            || self.timers[local].any_armed()
            || !node.quiescent()
        {
            return false;
        }
        let mut bytes = Vec::new();
        if !node.pack_cold(&mut bytes) {
            return false;
        }
        self.timers[local].v.shrink_to_fit();
        self.peers[local].shrink_to_fit();
        self.drift[local] = None;
        self.cold[local] = Some(bytes.into_boxed_slice());
        self.evictions += 1;
        true
    }

    /// Wakes node `local` if it is cold: its automaton unpacks the bytes
    /// it packed. Runs before anything reads the automaton — at the top
    /// of every handler and before a reboot. A hot node pays one load and
    /// a branch.
    #[inline]
    pub fn wake<A: crate::automaton::Automaton>(&mut self, local: usize, node: &mut A) {
        if self.is_cold(local) {
            let bytes = self.cold[local]
                .take()
                .expect("a cold node holds its bytes");
            node.unpack_cold(&bytes);
            self.rehydrations += 1;
        }
    }

    /// Heap bytes of the drift plane's share of this table: the hardware
    /// memo columns, the cursor column, and the materialized cursor
    /// boxes.
    pub fn drift_bytes(&self) -> usize {
        use std::mem::size_of;
        self.hw.capacity() * size_of::<f64>()
            + self.hw_time.capacity() * size_of::<Time>()
            + self.drift.capacity() * size_of::<Option<Box<DriftCursor>>>()
            + self.drift.iter().flatten().count() * size_of::<DriftCursor>()
    }

    /// Heap bytes of the engine-side node state counted into the
    /// automaton-hot plane: timer/peer/RNG/cold columns plus the hot
    /// nodes' timer and peer entries and materialized RNG boxes.
    /// (Automaton struct and heap bytes, the cold tier and drift state are
    /// metered separately.)
    pub fn engine_hot_bytes(&self) -> usize {
        use std::mem::size_of;
        let columns = self.timers.capacity() * size_of::<TimerSlots>()
            + self.peers.capacity() * size_of::<Vec<PeerLocal>>()
            + self.rng.capacity() * size_of::<Option<Box<StdRng>>>()
            + self.cold.capacity() * size_of::<Option<Box<[u8]>>>();
        let slots: usize = (0..self.watermark())
            .filter(|&local| !self.is_cold(local))
            .map(|local| self.slot_bytes(local))
            .sum();
        columns + slots + self.rng.iter().flatten().count() * size_of::<StdRng>()
    }
}

/// The node's private stream, materialized on first use (seeding is a
/// pure function of `(seed, index)`, so when it happens is unobservable).
#[inline]
pub(crate) fn lazy_rng(slot: &mut Option<Box<StdRng>>, seed: u64, index: usize) -> &mut StdRng {
    slot.get_or_insert_with(|| Box::new(StdRng::seed_from_u64(node_stream_seed(seed, index))))
}

/// Decorrelated per-node stream seed: the golden-ratio multiply spreads
/// consecutive indices across the seed space before `seed_from_u64`'s
/// SplitMix expansion. The extra constant domain-separates node streams
/// from the builder's drift-generation stream (`seed ^ GOLDEN`), which
/// node 0's stream (`seed ^ 1·GOLDEN`) would otherwise collide with —
/// correlating the delay adversary with the drift adversary.
pub(crate) fn node_stream_seed(seed: u64, index: usize) -> u64 {
    seed ^ 0xA076_1D64_78BD_642F ^ (index as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// The nodes owned by one worker, plus that worker's scratch buffers.
#[derive(Debug)]
pub(crate) struct Shard<A> {
    /// Automata of the owned nodes, indexed by local id.
    pub nodes: Vec<A>,
    /// Node-local engine state, struct-of-arrays, watermark-sized.
    pub table: NodeTable,
    /// Deferred effects produced during the current segment.
    pub effects: Vec<crate::dispatch::Effect>,
    /// Per-segment stats delta (merged and cleared after each segment).
    pub stats: crate::stats::SimStats,
    /// Nodes whose handlers ran in the current instant (only collected
    /// when an observer is attached).
    pub touched: Vec<NodeId>,
    /// Scratch action buffer for handler dispatch.
    pub actions: Vec<crate::automaton::Action>,
    /// This shard's slice of the current segment (reused across rounds).
    pub events: Vec<crate::event::QueuedEvent>,
}

/// All shards plus the id ↔ (shard, local) mapping.
#[derive(Debug)]
pub(crate) struct Shards<A> {
    pub shards: Vec<Shard<A>>,
    count: usize,
}

impl<A> Shards<A> {
    /// Distributes the `n` nodes round-robin over `count` shards, taking
    /// them from `nodes` in id order: each shard reserves its exact share
    /// up front and every automaton moves straight into its shard, so the
    /// automaton plane is resident once. Node-local engine state is
    /// **not** allocated here — the [`NodeTable`]s start empty and grow to
    /// the touched watermark.
    pub fn build<I>(count: usize, nodes: I) -> Self
    where
        I: IntoIterator<Item = A>,
        I::IntoIter: ExactSizeIterator,
    {
        assert!(count >= 1);
        let nodes = nodes.into_iter();
        let n = nodes.len();
        let mut shards: Vec<Shard<A>> = (0..count)
            .map(|s| Shard {
                // Ids `s, s + count, …` below `n`.
                nodes: Vec::with_capacity((n + count - 1 - s) / count),
                table: NodeTable::default(),
                effects: Vec::new(),
                stats: crate::stats::SimStats::default(),
                touched: Vec::new(),
                actions: Vec::new(),
                events: Vec::new(),
            })
            .collect();
        for (i, node) in nodes.enumerate() {
            shards[i % count].nodes.push(node);
        }
        Shards { shards, count }
    }

    /// Number of shards.
    #[inline]
    pub fn count(&self) -> usize {
        self.count
    }

    /// The shard index owning `u`.
    #[inline]
    pub fn shard_of(&self, u: NodeId) -> usize {
        u.index() % self.count
    }

    /// The automaton of `u`.
    #[inline]
    pub fn node(&self, u: NodeId) -> &A {
        &self.shards[u.index() % self.count].nodes[u.index() / self.count]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcs_net::node;

    #[test]
    fn edge_store_rows_live_on_the_lower_endpoint() {
        let mut store = EdgeStore::new(10);
        let e = Edge::between(4, 7);
        assert!(store.find(e).is_none());
        store.entry(e).live = true;
        store.entry(e).epoch = 2;
        let shared = store.find(e).expect("entry created");
        assert!(shared.live);
        assert_eq!(shared.epoch, 2);
        assert_eq!(shared.neighbor, node(7));
        // A different edge off the same lower endpoint sorts after.
        store.entry(Edge::between(4, 9));
        let row: Vec<NodeId> = store.row(node(4)).iter().map(|e| e.neighbor).collect();
        assert_eq!(row, vec![node(7), node(9)]);
        // Per-node columns cover the touched watermark only: node 4's
        // row and node 9's lower ids.
        assert_eq!(store.rows.len(), 5);
        assert_eq!(store.lower.len(), 10);
        assert!(store.rows[..4].iter().all(Vec::is_empty));
    }

    #[test]
    fn incident_entries_come_from_both_endpoints_in_ascending_order() {
        let mut store = EdgeStore::new(6);
        for (i, j) in [(3, 5), (0, 3), (3, 4), (1, 3)] {
            store.entry(Edge::between(i, j));
        }
        let incident: Vec<NodeId> = store.incident(node(3)).map(|(v, _)| v).collect();
        assert_eq!(incident, vec![node(0), node(1), node(4), node(5)]);
        let from_high: Vec<NodeId> = store.incident(node(5)).map(|(v, _)| v).collect();
        assert_eq!(from_high, vec![node(3)]);
        assert_eq!(store.incident(node(2)).count(), 0, "untouched node");
    }

    #[test]
    fn edge_versions_count_from_initial_presence() {
        let mut store = EdgeStore::new(6);
        let seeded = Edge::between(0, 1);
        store.insert_initial(seeded);
        assert_eq!(store.find(seeded).unwrap().versions, 1);
        assert_eq!(store.next_version(seeded), 2, "first change is v2");
        assert_eq!(store.next_version(seeded), 3);
        // A churn-only edge starts counting at 1.
        let fresh = Edge::between(2, 5);
        assert_eq!(store.next_version(fresh), 1);
        assert!(!store.find(fresh).unwrap().live, "pull does not apply");
    }

    #[test]
    fn timer_slots_generation_discipline() {
        let mut t = TimerSlots::default();
        assert_eq!(t.get(TimerKind::Tick), None);
        assert_eq!(t.arm(TimerKind::Tick), 1);
        assert_eq!(t.arm(TimerKind::Tick), 2);
        t.cancel(TimerKind::Tick);
        assert_eq!(t.get(TimerKind::Tick), Some(3));
        t.disarm(TimerKind::Tick);
        assert_eq!(t.get(TimerKind::Tick), None);
        // Re-arming after a fire continues the old count? No: the entry was
        // consumed, so arming restarts at 1 — matching the legacy engine's
        // HashMap semantics where a fired timer's entry was removed.
        assert_eq!(t.arm(TimerKind::Tick), 1);
    }

    #[test]
    fn node_table_grows_to_the_touched_watermark() {
        let mut t = NodeTable::default();
        assert_eq!(t.watermark(), 0, "no state before the first touch");
        t.ensure(4);
        assert_eq!(t.watermark(), 5);
        assert_eq!(t.drift_cursors(), 0, "cursors stay lazy inside slots");
        assert_eq!(t.rng_streams(), 0, "streams stay lazy inside slots");
        t.ensure(2); // never shrinks
        assert_eq!(t.watermark(), 5);
        // First contact creates a peer slot; the rng materializes on
        // first draw with the exact keyed stream.
        t.peer(3, node(9)).discovered_version = 7;
        assert_eq!(t.peer(3, node(9)).discovered_version, 7);
        use rand::RngCore;
        let drawn = lazy_rng(&mut t.rng[1], 42, 1).next_u64();
        let mut reference = StdRng::seed_from_u64(node_stream_seed(42, 1));
        assert_eq!(drawn, reference.next_u64());
        assert_eq!(t.rng_streams(), 1);
    }

    #[test]
    fn shards_round_robin_mapping() {
        let shards = Shards::build(3, (0..8u32).collect::<Vec<_>>());
        assert_eq!(shards.count(), 3);
        for i in 0..8usize {
            assert_eq!(shards.shard_of(node(i)), i % 3);
            assert_eq!(*shards.node(node(i)), i as u32);
        }
        assert_eq!(shards.shards[0].nodes, vec![0, 3, 6]);
        assert_eq!(shards.shards[1].nodes, vec![1, 4, 7]);
        assert_eq!(shards.shards[2].nodes, vec![2, 5]);
    }

    #[test]
    fn timer_slots_track_armed_state() {
        let mut t = TimerSlots::default();
        assert!(!t.any_armed());
        t.arm(TimerKind::Tick);
        assert!(t.any_armed());
        t.cancel(TimerKind::Tick);
        assert!(!t.any_armed(), "cancelled entry keeps gen, not armed");
        assert_eq!(t.get(TimerKind::Tick), Some(2), "generation continuity");
        t.arm(TimerKind::Lost(node(3)));
        t.cancel_all();
        assert!(!t.any_armed());
    }

    /// Minimal automaton with one heap member, for cold-tier round trips.
    struct PackMe {
        data: Vec<u8>,
    }

    impl crate::automaton::Automaton for PackMe {
        fn on_start(&mut self, _ctx: &mut crate::automaton::Context<'_>) {}
        fn on_receive(
            &mut self,
            _ctx: &mut crate::automaton::Context<'_>,
            _from: NodeId,
            _msg: crate::event::Message,
        ) {
        }
        fn on_discover(
            &mut self,
            _ctx: &mut crate::automaton::Context<'_>,
            _change: crate::event::LinkChange,
        ) {
        }
        fn on_alarm(&mut self, _ctx: &mut crate::automaton::Context<'_>, _kind: TimerKind) {}
        fn logical_clock(&self, hw: f64) -> f64 {
            hw
        }
        fn quiescent(&self) -> bool {
            true
        }
        fn pack_cold(&mut self, out: &mut Vec<u8>) -> bool {
            out.extend_from_slice(&self.data);
            self.data = Vec::new();
            true
        }
        fn unpack_cold(&mut self, bytes: &[u8]) {
            self.data = bytes.to_vec();
        }
        fn heap_bytes(&self) -> usize {
            self.data.capacity()
        }
    }

    #[test]
    fn cold_pack_rehydrate_roundtrips_engine_state() {
        let mut t = NodeTable::default();
        t.ensure(0);
        let mut a = PackMe {
            data: vec![9, 8, 7],
        };
        // Build engine-side state: a cancelled timer (generation must
        // survive), and a peer with a version and FIFO horizon.
        t.timers[0].arm(TimerKind::Tick);
        t.timers[0].arm(TimerKind::Lost(node(5)));
        t.timers[0].cancel(TimerKind::Tick);
        t.timers[0].cancel(TimerKind::Lost(node(5)));
        t.peer(0, node(5)).discovered_version = 3;
        t.peer(0, node(5)).fifo_out = Time::new(1.25);
        let hot = t.engine_hot_bytes();
        assert!(t.pack_node(0, &mut a), "quiescent node must pack");
        assert!(t.is_cold(0));
        assert_eq!(t.cold_nodes(), 1);
        assert!(a.data.is_empty(), "automaton drained");
        // Generations and watermarks stay in their slots, shrunk to fit;
        // the cold meter counts them with the automaton's bytes.
        assert_eq!(t.timers[0].get(TimerKind::Tick), Some(2));
        assert_eq!(t.timers[0].get(TimerKind::Lost(node(5))), Some(2));
        assert_eq!(t.peers[0].len(), 1, "peers stay in place");
        assert_eq!(t.cold_bytes(), 3 + t.slot_bytes(0));
        assert!(
            t.engine_hot_bytes() + t.slot_bytes(0) <= hot,
            "hot meter shrank"
        );
        assert_eq!(t.evictions, 1);
        // Double eviction is refused.
        assert!(!t.pack_node(0, &mut a));

        t.wake(0, &mut a);
        assert!(!t.is_cold(0));
        assert_eq!(t.cold_bytes(), 0);
        assert_eq!(a.data, vec![9, 8, 7]);
        assert_eq!(t.timers[0].get(TimerKind::Tick), Some(2));
        assert_eq!(t.timers[0].get(TimerKind::Lost(node(5))), Some(2));
        assert!(!t.timers[0].any_armed());
        assert_eq!(t.peer(0, node(5)).discovered_version, 3);
        assert_eq!(t.peer(0, node(5)).fifo_out, Time::new(1.25));
        assert_eq!(t.rehydrations, 1);
        // Waking a hot node is a no-op.
        t.wake(0, &mut a);
        assert_eq!(t.rehydrations, 1);
    }

    #[test]
    fn armed_timers_and_live_rng_block_eviction() {
        let mut t = NodeTable::default();
        t.ensure(1);
        let mut a = PackMe { data: vec![1] };
        t.timers[0].arm(TimerKind::Tick);
        assert!(!t.pack_node(0, &mut a), "armed timer blocks");
        assert_eq!(a.data, vec![1], "refusal must not drain");
        use rand::RngCore;
        lazy_rng(&mut t.rng[1], 7, 1).next_u64();
        assert!(!t.pack_node(1, &mut a), "materialized stream blocks");
    }

    #[test]
    fn node_streams_are_decorrelated_and_stable() {
        use rand::{Rng, RngCore, SeedableRng};
        let mut a = StdRng::seed_from_u64(node_stream_seed(42, 0));
        let mut b = StdRng::seed_from_u64(node_stream_seed(42, 1));
        let mut a2 = StdRng::seed_from_u64(node_stream_seed(42, 0));
        assert_eq!(a.next_u64(), a2.next_u64());
        let collisions = (0..64)
            .filter(|_| a.gen_range(0u64..1 << 32) == b.gen_range(0u64..1 << 32))
            .count();
        assert!(collisions < 4, "streams should differ: {collisions}/64");
    }
}
