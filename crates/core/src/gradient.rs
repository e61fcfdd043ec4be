//! Algorithm 2 as a [`gcs_sim::Automaton`].
//!
//! The implementation follows the paper's event handlers line by line; the
//! only interpretation notes are:
//!
//! 1. **`L^v_u` refresh.** The pseudocode's indentation puts `L^v_u ← L_v`
//!    inside the `if v ∉ Γ_u` branch, but the analysis (Lemma 6.5:
//!    "upon receiving the message node u sets `L^v_u ← L_v(t_s)`", FIFO
//!    argument) requires the estimate to be refreshed on *every* receipt.
//!    We refresh on every receipt.
//! 2. **`Γ ⊆ Υ` on early messages.** Discovery is per-endpoint, so a
//!    message can arrive from a neighbor whose `discover(add)` is still in
//!    flight. To preserve the paper's stated invariant `Γ_u ⊆ Υ_u` we also
//!    insert the sender into `Υ_u` on receipt (receiving a message is proof
//!    the edge exists).
//! 3. All clock-valued state is stored as offsets from the hardware clock
//!    ([`ClockVar`]), so "between events, the variables are increased at
//!    the rate of u's hardware clock" holds exactly.
//!
//! Per-neighbor state lives in one flat table of `Υ_u` sorted by node id
//! rather than in tree maps: each entry carries a `Γ_u` flag and the pair
//! `(C^v_u, L^v_u)`, so `Γ ⊆ Υ` holds by construction and a receive finds
//! its sender with one binary search. The per-event path (`AdjustClock`
//! scan, estimate refresh, tick broadcast) walks one contiguous array,
//! memory stays `O(degree)` per node even at the `n = 2^23` scale of E14,
//! and iteration order is ascending node id — identical to the old
//! `BTreeMap` order, so execution traces are unchanged.

use crate::params::AlgoParams;
use crate::predicate;
use gcs_clocks::ClockVar;
use gcs_net::NodeId;
use gcs_sim::{Automaton, Context, LinkChange, LinkChangeKind, Message, TimerKind};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Per-neighbor state for `v ∈ Γ_u`.
#[derive(Clone, Copy, Debug)]
pub struct NeighborState {
    /// `C^v_u`: our hardware reading when `v` was last added to `Γ_u`.
    pub joined_hw: f64,
    /// `L^v_u`: estimate of `v`'s logical clock (grows at our rate).
    pub estimate: ClockVar,
}

/// Immutable configuration shared by every [`GradientNode`] of a run: the
/// algorithm parameters, the idle-parking policy and the edge weights.
/// One `Arc` replaces the inline 72-byte `AlgoParams` copy in each of the
/// `n = 2^23` automata.
#[derive(Debug)]
pub struct GradientShared {
    params: AlgoParams,
    park_idle: bool,
    /// Per-neighbor edge weights for the §7 weighted-graph extension: the
    /// budget toward `v` floors at `B0·w` instead of `B0`. Sparse: only
    /// configured edges have an entry, every other edge has weight 1 (the
    /// plain algorithm), and the empty map of an unweighted run allocates
    /// nothing. In the companion-paper reading, the weight is the edge's
    /// relative delay uncertainty — e.g. a reference-broadcast link gets
    /// `w ≪ 1` and therefore a much tighter stable skew guarantee.
    weights: BTreeMap<NodeId, f64>,
}

impl GradientShared {
    /// Builds the shared plane for `params`, idle parking off, every edge
    /// of weight 1.
    pub fn new(params: AlgoParams) -> Self {
        GradientShared {
            params,
            park_idle: false,
            weights: BTreeMap::new(),
        }
    }

    /// Enables idle parking: a node with empty `Υ_u` does not keep a tick
    /// timer armed and re-arms it on first contact (receive or
    /// discover-add). Protocol-invisible — an isolated node has `Γ_u = ∅`
    /// and `L_u = Lmax_u`, so its skipped ticks would neither send nor
    /// adjust anything — but it changes *event traces* (timer
    /// generations), so it is opt-in and default-off; existing recorded
    /// runs are untouched.
    pub fn with_idle_parking(mut self, on: bool) -> Self {
        self.park_idle = on;
        self
    }

    /// The algorithm parameters.
    pub fn params(&self) -> &AlgoParams {
        &self.params
    }
}

/// One `v ∈ Υ_u`: its `Γ_u` flag and, while the flag is set, its state.
#[derive(Clone, Copy, Debug)]
struct Entry {
    v: NodeId,
    /// `v ∈ Γ_u`. A `Lost` alarm clears it; `state` is stale while clear
    /// and overwritten when `v` rejoins.
    in_gamma: bool,
    state: NeighborState,
}

/// A node's neighbor table: `Υ_u` as one entry array sorted by node id, or
/// `Parked` — idle parking holds the tick timer disarmed, which it does
/// only while `Υ_u = ∅`. `Parked` fits in the `Vec`'s niche, so the table
/// is one `Vec` header wide.
#[derive(Debug)]
enum Table {
    Live(Vec<Entry>),
    Parked,
}

impl Clone for Table {
    fn clone(&self) -> Self {
        match self {
            Table::Live(entries) => Table::Live(entries.clone()),
            Table::Parked => Table::Parked,
        }
    }

    /// Reuses `self`'s entry array when both sides are live.
    fn clone_from(&mut self, source: &Self) {
        match (self, source) {
            (Table::Live(mine), Table::Live(theirs)) => mine.clone_from(theirs),
            (mine, source) => *mine = source.clone(),
        }
    }
}

impl Table {
    /// `Υ_u` in ascending node-id order.
    #[inline]
    fn entries(&self) -> &[Entry] {
        match self {
            Table::Live(entries) => entries,
            Table::Parked => &[],
        }
    }

    /// `Γ_u` in ascending node-id order.
    #[inline]
    fn gamma(&self) -> impl Iterator<Item = &Entry> {
        self.entries().iter().filter(|e| e.in_gamma)
    }

    /// The index of `v` in `Υ_u`, or where it would be inserted.
    #[inline]
    fn slot(&self, v: NodeId) -> Result<usize, usize> {
        self.entries().binary_search_by_key(&v, |e| e.v)
    }

    /// Removes `v` from `Υ_u`, and with it from `Γ_u`.
    fn remove(&mut self, v: NodeId) {
        if let (Ok(i), Table::Live(entries)) = (self.slot(v), &mut *self) {
            entries.remove(i);
        }
    }

    /// Removes `v` from `Γ_u` only.
    fn lose(&mut self, v: NodeId) {
        if let (Ok(i), Table::Live(entries)) = (self.slot(v), &mut *self) {
            entries[i].in_gamma = false;
        }
    }
}

/// One node running Algorithm 2.
#[derive(Debug)]
pub struct GradientNode {
    shared: Arc<GradientShared>,
    /// `L_u`.
    l: ClockVar,
    /// `Lmax_u`.
    lmax: ClockVar,
    /// `Υ_u` with `Γ_u` flagged inside it, or the parked state.
    table: Table,
}

// The node is the per-node term of the automaton plane: 8 B of shared
// pointer, two 8 B clock offsets and one 24 B table header.
const _: () = assert!(std::mem::size_of::<GradientNode>() <= 48);

impl Clone for GradientNode {
    fn clone(&self) -> Self {
        GradientNode {
            shared: Arc::clone(&self.shared),
            l: self.l,
            lmax: self.lmax,
            table: self.table.clone(),
        }
    }

    /// Copies `source` into `self`'s neighbor table, allocating only
    /// where it is too small (the model checker copies nodes at every
    /// explored state). The exhaustive destructuring makes a new field
    /// fail to compile until it is copied here.
    fn clone_from(&mut self, source: &Self) {
        let GradientNode {
            shared,
            l,
            lmax,
            table,
        } = source;
        self.shared.clone_from(shared);
        self.l = *l;
        self.lmax = *lmax;
        self.table.clone_from(table);
    }
}

impl GradientNode {
    /// A node at time 0: `L_u = Lmax_u = H_u = 0`, no neighbors.
    ///
    /// Builds a private [`GradientShared`]; scale scenarios should build
    /// one shared plane and use [`GradientNode::with_shared`] so the
    /// parameters are stored once, not `n` times.
    pub fn new(params: AlgoParams) -> Self {
        Self::with_shared(Arc::new(GradientShared::new(params)))
    }

    /// A node over an existing shared plane (one `Arc` per run).
    pub fn with_shared(shared: Arc<GradientShared>) -> Self {
        GradientNode {
            shared,
            l: ClockVar::zeroed(),
            lmax: ClockVar::zeroed(),
            table: Table::Live(Vec::new()),
        }
    }

    /// A node with per-neighbor edge weights (the weighted-graph extension
    /// sketched in the paper's conclusion; weights must be in `(0, 1]` so
    /// the standard analysis still upper-bounds every budget), over a
    /// private shared plane that holds them.
    pub fn with_weights(params: AlgoParams, weights: BTreeMap<NodeId, f64>) -> Self {
        for (&v, &w) in &weights {
            assert!(
                w > 0.0 && w <= 1.0,
                "edge weight toward {v:?} must be in (0, 1], got {w}"
            );
        }
        Self::with_shared(Arc::new(GradientShared {
            weights,
            ..GradientShared::new(params)
        }))
    }

    /// The weight of the edge toward `v` (1.0 unless configured).
    pub fn weight_of(&self, v: NodeId) -> f64 {
        // Every budget lookup lands here: keep an unweighted run's empty
        // map to one inlined branch.
        let weights = &self.shared.weights;
        if weights.is_empty() {
            return 1.0;
        }
        weights.get(&v).copied().unwrap_or(1.0)
    }

    /// The effective budget toward `v` at subjective edge age `dt`:
    /// `max{B0·w_v, unfloored B(dt)}`.
    fn budget_at(&self, v: NodeId, dt: f64) -> f64 {
        predicate::effective_budget(
            self.shared.params.budget_unfloored(dt),
            self.shared.params.b0 * self.weight_of(v),
        )
    }

    /// The parameters this node runs with.
    pub fn params(&self) -> &AlgoParams {
        &self.shared.params
    }

    /// The shared plane this node resolves budgets against.
    pub fn shared(&self) -> &Arc<GradientShared> {
        &self.shared
    }

    /// Current `Γ_u`.
    pub fn gamma(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.table.gamma().map(|e| e.v)
    }

    /// Current `Υ_u`.
    pub fn upsilon(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.table.entries().iter().map(|e| e.v)
    }

    /// Per-neighbor state, if `v ∈ Γ_u`.
    pub fn neighbor_state(&self, v: NodeId) -> Option<&NeighborState> {
        let e = &self.table.entries()[self.table.slot(v).ok()?];
        e.in_gamma.then_some(&e.state)
    }

    /// `B^v_u` — the current budget toward `v`, if `v ∈ Γ_u`.
    pub fn budget_for(&self, v: NodeId, hw: f64) -> Option<f64> {
        self.neighbor_state(v)
            .map(|st| self.budget_at(v, hw - st.joined_hw))
    }

    /// `L^v_u` — the current estimate of `v`'s clock, if `v ∈ Γ_u`.
    pub fn estimate_of(&self, v: NodeId, hw: f64) -> Option<f64> {
        self.neighbor_state(v).map(|st| st.estimate.value(hw))
    }

    /// The neighbor caps `(L^v_u, B^v_u)` for every `v ∈ Γ_u` at hardware
    /// reading `hw`, in ascending node-id order — exactly the tuples the
    /// pure [`predicate`] functions consume. The model checker rebuilds
    /// the Definition 6.1 predicate from this same iterator, so automaton
    /// and checker share one encoding.
    pub fn neighbor_caps(&self, hw: f64) -> impl Iterator<Item = (f64, f64)> + '_ {
        self.table.gamma().map(move |e| {
            (
                e.state.estimate.value(hw),
                self.budget_at(e.v, hw - e.state.joined_hw),
            )
        })
    }

    /// Definition 6.1: `u` is *blocked* if `Lmax_u > L_u` and some
    /// `v ∈ Γ_u` has `L_u − L^v_u > B^v_u`.
    pub fn is_blocked(&self, hw: f64) -> bool {
        predicate::is_blocked(
            self.l.value(hw),
            self.lmax.value(hw),
            self.neighbor_caps(hw),
        )
    }

    /// A neighbor currently blocking `u`, if any.
    pub fn blocking_neighbor(&self, hw: f64) -> Option<NodeId> {
        let l = self.l.value(hw);
        if self.lmax.value(hw) <= l {
            return None;
        }
        self.table.gamma().find_map(|e| {
            let b = self.budget_at(e.v, hw - e.state.joined_hw);
            predicate::neighbor_blocks(l, e.state.estimate.value(hw), b).then_some(e.v)
        })
    }

    /// Procedure `AdjustClock`:
    /// `L_u ← max{L_u, min{Lmax_u, min_{v∈Γ}(L^v_u + B(H_u − C^v_u))}}`.
    fn adjust_clock(&mut self, hw: f64) {
        let target = predicate::advance_target(self.lmax.value(hw), self.neighbor_caps(hw));
        if predicate::should_jump(target, self.l.value(hw)) {
            self.l.set(target, hw);
        }
    }

    fn message(&self, hw: f64) -> Message {
        Message {
            logical: self.l.value(hw),
            max_estimate: self.lmax.value(hw),
        }
    }

    /// Re-arms the tick timer if idle parking had it disarmed, and returns
    /// the live `Υ_u` table. Called on first contact (receive,
    /// discover-add); a parked node has `Υ_u = ∅` and `L_u = Lmax_u`, so
    /// no tick was observable while parked.
    fn wake(&mut self, ctx: &mut Context<'_>) -> &mut Vec<Entry> {
        if let Table::Parked = self.table {
            self.table = Table::Live(Vec::new());
            ctx.set_timer(self.shared.params.delta_h, TimerKind::Tick);
        }
        match &mut self.table {
            Table::Live(entries) => entries,
            Table::Parked => unreachable!("a woken node's table is live"),
        }
    }
}

impl Automaton for GradientNode {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        if self.shared.park_idle && self.table.entries().is_empty() {
            self.table = Table::Parked;
        } else {
            ctx.set_timer(self.shared.params.delta_h, TimerKind::Tick);
        }
    }

    // Crash/restart with state loss: parameters and edge weights are
    // configuration (the shared plane), every clock and neighbor variable
    // resets to the time-0 state of [`GradientNode::new`].
    fn try_reboot(&self) -> Result<Self, gcs_sim::RebootUnsupported> {
        Ok(Self::with_shared(self.shared.clone()))
    }

    // Lines 15–24 of Algorithm 2.
    fn on_receive(&mut self, ctx: &mut Context<'_>, from: NodeId, msg: Message) {
        let hw = ctx.hw;
        let table = self.wake(ctx);
        ctx.cancel_timer(TimerKind::Lost(from));
        match table.binary_search_by_key(&from, |e| e.v) {
            // Refresh the estimate (module note 1); FIFO delivery makes
            // this the freshest information about v.
            Ok(i) if table[i].in_gamma => table[i].state.estimate.overwrite(msg.logical, hw),
            // v joins Γ_u: C^v_u ← H_u, L^v_u ← L_v — and Υ_u too if it
            // is not there yet (module note 2).
            slot => {
                let joined = Entry {
                    v: from,
                    in_gamma: true,
                    state: NeighborState {
                        joined_hw: hw,
                        estimate: ClockVar::with_value(msg.logical, hw),
                    },
                };
                match slot {
                    Ok(i) => table[i] = joined,
                    Err(at) => table.insert(at, joined),
                }
            }
        }
        // Line 21: Lmax_u ← max{Lmax_u, Lmax_v}.
        self.lmax.raise_to(msg.max_estimate, hw);
        self.adjust_clock(hw);
        ctx.set_timer(self.shared.params.delta_t_prime(), TimerKind::Lost(from));
    }

    // Lines 1–10.
    fn on_discover(&mut self, ctx: &mut Context<'_>, change: LinkChange) {
        let other = change.edge.other(ctx.node);
        match change.kind {
            LinkChangeKind::Added => {
                let msg = self.message(ctx.hw);
                let table = self.wake(ctx);
                ctx.send(other, msg);
                if let Err(at) = table.binary_search_by_key(&other, |e| e.v) {
                    let discovered = Entry {
                        v: other,
                        in_gamma: false,
                        state: NeighborState {
                            joined_hw: 0.0,
                            estimate: ClockVar::zeroed(),
                        },
                    };
                    table.insert(at, discovered);
                }
            }
            LinkChangeKind::Removed => self.table.remove(other),
        }
        self.adjust_clock(ctx.hw);
    }

    // Lines 11–14 (lost) and 25–30 (tick).
    fn on_alarm(&mut self, ctx: &mut Context<'_>, kind: TimerKind) {
        match kind {
            TimerKind::Lost(v) => {
                self.table.lose(v);
                self.adjust_clock(ctx.hw);
            }
            TimerKind::Tick => {
                let msg = self.message(ctx.hw);
                for e in self.table.entries() {
                    ctx.send(e.v, msg);
                }
                self.adjust_clock(ctx.hw);
                if self.shared.park_idle && self.table.entries().is_empty() {
                    // Idle parking: an isolated node has Γ_u = ∅ (the
                    // Γ ⊆ Υ invariant) and L_u = Lmax_u, so further
                    // ticks would neither send nor adjust — stop
                    // re-arming until first contact wakes us.
                    self.table = Table::Parked;
                } else {
                    ctx.set_timer(self.shared.params.delta_h, TimerKind::Tick);
                }
            }
        }
    }

    fn logical_clock(&self, hw: f64) -> f64 {
        self.l.value(hw)
    }

    fn max_estimate(&self, hw: f64) -> f64 {
        self.lmax.value(hw)
    }

    // The compact-plane cold tier. Only a quiescent node (`Υ_u = ∅`, so
    // `Γ_u = ∅`) may pack, so there is no per-neighbor state to encode:
    // packing releases the empty table's capacity (a parked node stays
    // parked) and writes nothing, and rehydration (the trait's default
    // `unpack_cold`) restores nothing. Edge weights live in the shared
    // plane, so weighted nodes pack like any other.

    fn quiescent(&self) -> bool {
        self.table.entries().is_empty()
    }

    fn pack_cold(&mut self, _out: &mut Vec<u8>) -> bool {
        if !self.quiescent() {
            return false;
        }
        if let Table::Live(entries) = &mut self.table {
            *entries = Vec::new();
        }
        true
    }

    fn heap_bytes(&self) -> usize {
        match &self.table {
            Table::Live(entries) => entries.capacity() * std::mem::size_of::<Entry>(),
            Table::Parked => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcs_clocks::Time;
    use gcs_net::{node, Edge};
    use gcs_sim::{Action, ModelParams};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn params() -> AlgoParams {
        AlgoParams::with_minimal_b0(ModelParams::new(0.01, 1.0, 2.0), 8, 0.5)
    }

    fn ctx_at<'a>(hw: f64, actions: &'a mut Vec<Action>, rng: &'a mut StdRng) -> Context<'a> {
        Context::new(node(0), Time::new(hw), hw, actions, rng)
    }

    #[test]
    fn starts_with_tick_timer() {
        let mut n = GradientNode::new(params());
        let mut actions = Vec::new();
        let mut rng = StdRng::seed_from_u64(0);
        n.on_start(&mut ctx_at(0.0, &mut actions, &mut rng));
        assert_eq!(
            actions,
            vec![Action::SetTimer {
                delta: 0.5,
                kind: TimerKind::Tick
            }]
        );
    }

    #[test]
    fn receive_installs_neighbor_and_estimate() {
        let mut n = GradientNode::new(params());
        let mut actions = Vec::new();
        let mut rng = StdRng::seed_from_u64(0);
        n.on_receive(
            &mut ctx_at(10.0, &mut actions, &mut rng),
            node(1),
            Message {
                logical: 7.0,
                max_estimate: 12.0,
            },
        );
        assert_eq!(n.gamma().collect::<Vec<_>>(), vec![node(1)]);
        assert_eq!(n.upsilon().collect::<Vec<_>>(), vec![node(1)]);
        assert_eq!(n.estimate_of(node(1), 10.0), Some(7.0));
        // Estimate grows at our hardware rate.
        assert_eq!(n.estimate_of(node(1), 13.0), Some(10.0));
        assert_eq!(n.neighbor_state(node(1)).unwrap().joined_hw, 10.0);
        // Lmax was raised to 12 and L jumped to min(Lmax, est + B(0)).
        assert_eq!(n.max_estimate(10.0), 12.0);
        assert_eq!(n.logical_clock(10.0), 12.0); // B(0) huge => cap is Lmax
                                                 // lost timer armed with ΔT′.
        assert!(actions.iter().any(|a| matches!(
            a,
            Action::SetTimer { kind: TimerKind::Lost(v), delta } if *v == node(1) && (*delta - params().delta_t_prime()).abs() < 1e-12
        )));
        assert!(actions.iter().any(
            |a| matches!(a, Action::CancelTimer { kind: TimerKind::Lost(v) } if *v == node(1))
        ));
    }

    #[test]
    fn budget_constrains_after_settling() {
        let p = params();
        let mut n = GradientNode::new(p);
        let mut actions = Vec::new();
        let mut rng = StdRng::seed_from_u64(0);
        // Neighbor joins at hw = 0 with estimate 0.
        n.on_receive(
            &mut ctx_at(0.0, &mut actions, &mut rng),
            node(1),
            Message {
                logical: 0.0,
                max_estimate: 0.0,
            },
        );
        // Long afterwards (budget settled to B0), a huge Lmax arrives from
        // another neighbor; L may only rise to est(v) + B0.
        let hw = p.budget_settle_age() + 10.0;
        n.on_receive(
            &mut ctx_at(hw, &mut actions, &mut rng),
            node(2),
            Message {
                logical: 0.0,
                max_estimate: 1e6,
            },
        );
        // estimate of node 1 at hw grew to ~hw; cap = hw + B0 (node 2's
        // budget is fresh and huge, node 1's is settled at B0).
        let expect = hw + p.b0;
        assert!(
            (n.logical_clock(hw) - expect).abs() < 1e-9,
            "L = {}, expected {}",
            n.logical_clock(hw),
            expect
        );
        assert!(n.is_blocked(hw), "node should be blocked by node 1");
        assert_eq!(n.blocking_neighbor(hw), Some(node(1)));
    }

    #[test]
    fn adjust_without_neighbors_jumps_to_lmax() {
        let mut n = GradientNode::new(params());
        let mut actions = Vec::new();
        let mut rng = StdRng::seed_from_u64(0);
        n.on_receive(
            &mut ctx_at(5.0, &mut actions, &mut rng),
            node(1),
            Message {
                logical: 3.0,
                max_estimate: 50.0,
            },
        );
        // Remove the neighbor via lost timer; AdjustClock then has no
        // Γ-constraint and L jumps to Lmax.
        n.on_alarm(
            &mut ctx_at(6.0, &mut actions, &mut rng),
            TimerKind::Lost(node(1)),
        );
        assert_eq!(n.gamma().count(), 0);
        assert_eq!(n.logical_clock(6.0), n.max_estimate(6.0));
    }

    #[test]
    fn discover_add_sends_current_state() {
        let mut n = GradientNode::new(params());
        let mut actions = Vec::new();
        let mut rng = StdRng::seed_from_u64(0);
        n.on_discover(
            &mut ctx_at(4.0, &mut actions, &mut rng),
            LinkChange {
                kind: LinkChangeKind::Added,
                edge: Edge::between(0, 3),
            },
        );
        assert_eq!(n.upsilon().collect::<Vec<_>>(), vec![node(3)]);
        assert!(matches!(
            actions[0],
            Action::Send { to, msg } if to == node(3) && msg.logical == 4.0
        ));
    }

    #[test]
    fn discover_remove_clears_both_sets() {
        let mut n = GradientNode::new(params());
        let mut actions = Vec::new();
        let mut rng = StdRng::seed_from_u64(0);
        n.on_receive(
            &mut ctx_at(1.0, &mut actions, &mut rng),
            node(2),
            Message {
                logical: 1.0,
                max_estimate: 1.0,
            },
        );
        n.on_discover(
            &mut ctx_at(2.0, &mut actions, &mut rng),
            LinkChange {
                kind: LinkChangeKind::Removed,
                edge: Edge::between(0, 2),
            },
        );
        assert_eq!(n.gamma().count(), 0);
        assert_eq!(n.upsilon().count(), 0);
    }

    #[test]
    fn tick_broadcasts_to_upsilon_and_rearms() {
        let mut n = GradientNode::new(params());
        let mut actions = Vec::new();
        let mut rng = StdRng::seed_from_u64(0);
        for i in 1..4 {
            n.on_discover(
                &mut ctx_at(0.0, &mut actions, &mut rng),
                LinkChange {
                    kind: LinkChangeKind::Added,
                    edge: Edge::between(0, i),
                },
            );
        }
        actions.clear();
        n.on_alarm(&mut ctx_at(1.0, &mut actions, &mut rng), TimerKind::Tick);
        let sends = actions
            .iter()
            .filter(|a| matches!(a, Action::Send { .. }))
            .count();
        assert_eq!(sends, 3);
        assert!(actions.iter().any(|a| matches!(
            a,
            Action::SetTimer {
                kind: TimerKind::Tick,
                ..
            }
        )));
    }

    #[test]
    fn rejoining_neighbor_resets_budget_age() {
        let p = params();
        let mut n = GradientNode::new(p);
        let mut actions = Vec::new();
        let mut rng = StdRng::seed_from_u64(0);
        n.on_receive(
            &mut ctx_at(0.0, &mut actions, &mut rng),
            node(1),
            Message {
                logical: 0.0,
                max_estimate: 0.0,
            },
        );
        // Drop v from Γ via the lost alarm, then hear from it again much
        // later: C^v_u must be re-stamped (budget restarts from B(0)).
        n.on_alarm(
            &mut ctx_at(50.0, &mut actions, &mut rng),
            TimerKind::Lost(node(1)),
        );
        n.on_receive(
            &mut ctx_at(100.0, &mut actions, &mut rng),
            node(1),
            Message {
                logical: 90.0,
                max_estimate: 120.0,
            },
        );
        assert_eq!(n.neighbor_state(node(1)).unwrap().joined_hw, 100.0);
        let b = n.budget_for(node(1), 100.0).unwrap();
        assert!((b - p.budget(0.0)).abs() < 1e-9);
    }

    #[test]
    fn weighted_edges_floor_at_scaled_b0() {
        let p = params();
        let mut n =
            GradientNode::with_weights(p, [(node(1), 0.25), (node(2), 1.0)].into_iter().collect());
        assert_eq!(n.weight_of(node(1)), 0.25);
        assert_eq!(n.weight_of(node(3)), 1.0); // default
        let mut actions = Vec::new();
        let mut rng = StdRng::seed_from_u64(0);
        for v in [1, 2] {
            n.on_receive(
                &mut ctx_at(0.0, &mut actions, &mut rng),
                node(v),
                Message {
                    logical: 0.0,
                    max_estimate: 0.0,
                },
            );
        }
        // Far beyond the settle age, the budgets floor at B0·w.
        let hw = p.budget_settle_age() * 2.0;
        let b1 = n.budget_for(node(1), hw).unwrap();
        let b2 = n.budget_for(node(2), hw).unwrap();
        assert!((b1 - 0.25 * p.b0).abs() < 1e-9, "weighted floor: {b1}");
        assert!((b2 - p.b0).abs() < 1e-9, "unit floor: {b2}");
        // At age 0 both budgets equal the (huge) fresh-edge value.
        let mut n2 = GradientNode::with_weights(p, [(node(1), 0.25)].into_iter().collect());
        n2.on_receive(
            &mut ctx_at(0.0, &mut actions, &mut rng),
            node(1),
            Message {
                logical: 0.0,
                max_estimate: 0.0,
            },
        );
        assert!((n2.budget_for(node(1), 0.0).unwrap() - p.budget(0.0)).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "must be in (0, 1]")]
    fn oversized_weight_rejected() {
        let _ = GradientNode::with_weights(params(), [(node(1), 1.5)].into_iter().collect());
    }

    #[test]
    fn idle_parking_arms_no_tick_until_contact() {
        let shared = Arc::new(GradientShared::new(params()).with_idle_parking(true));
        let mut n = GradientNode::with_shared(shared);
        let mut actions = Vec::new();
        let mut rng = StdRng::seed_from_u64(0);
        n.on_start(&mut ctx_at(0.0, &mut actions, &mut rng));
        assert!(actions.is_empty(), "parked start must emit nothing");
        // First contact wakes the node: the tick timer is re-armed.
        n.on_discover(
            &mut ctx_at(2.0, &mut actions, &mut rng),
            LinkChange {
                kind: LinkChangeKind::Added,
                edge: Edge::between(0, 1),
            },
        );
        assert!(actions.iter().any(|a| matches!(
            a,
            Action::SetTimer {
                kind: TimerKind::Tick,
                ..
            }
        )));
        // Neighbor leaves; the next tick finds Υ empty and re-parks.
        n.on_discover(
            &mut ctx_at(3.0, &mut actions, &mut rng),
            LinkChange {
                kind: LinkChangeKind::Removed,
                edge: Edge::between(0, 1),
            },
        );
        actions.clear();
        n.on_alarm(&mut ctx_at(3.5, &mut actions, &mut rng), TimerKind::Tick);
        assert!(
            actions.is_empty(),
            "tick with empty Υ must neither send nor re-arm: {actions:?}"
        );
        // A late Lost alarm and a repeated removal reach the parked node
        // without waking it.
        n.on_alarm(
            &mut ctx_at(3.6, &mut actions, &mut rng),
            TimerKind::Lost(node(1)),
        );
        n.on_discover(
            &mut ctx_at(3.7, &mut actions, &mut rng),
            LinkChange {
                kind: LinkChangeKind::Removed,
                edge: Edge::between(0, 1),
            },
        );
        assert!(actions.is_empty(), "parked node woke: {actions:?}");
        assert_eq!(n.heap_bytes(), 0, "a parked node holds no table");
        // A receive also wakes.
        n.on_receive(
            &mut ctx_at(4.0, &mut actions, &mut rng),
            node(2),
            Message {
                logical: 1.0,
                max_estimate: 1.0,
            },
        );
        assert!(actions.iter().any(|a| matches!(
            a,
            Action::SetTimer {
                kind: TimerKind::Tick,
                ..
            }
        )));
    }

    #[test]
    fn cold_pack_refuses_live_neighbors_and_writes_nothing_when_quiescent() {
        let mut n = GradientNode::new(params());
        let mut actions = Vec::new();
        let mut rng = StdRng::seed_from_u64(0);
        n.on_receive(
            &mut ctx_at(1.0, &mut actions, &mut rng),
            node(3),
            Message {
                logical: 0.25,
                max_estimate: 9.0,
            },
        );
        let mut blob = Vec::new();
        assert!(!n.pack_cold(&mut blob), "Γ ≠ ∅ must refuse");
        assert!(blob.is_empty());
        assert_eq!(n.gamma().collect::<Vec<_>>(), vec![node(3)]);
        assert_eq!(n.upsilon().collect::<Vec<_>>(), vec![node(3)]);
        assert_eq!(n.neighbor_state(node(3)).unwrap().joined_hw, 1.0);

        n.on_discover(
            &mut ctx_at(2.0, &mut actions, &mut rng),
            LinkChange {
                kind: LinkChangeKind::Removed,
                edge: Edge::between(0, 3),
            },
        );
        let (l, lmax) = (n.logical_clock(5.0), n.max_estimate(5.0));
        assert!(n.pack_cold(&mut blob), "quiescent node must pack");
        assert!(blob.is_empty(), "nothing to encode: {blob:?}");
        assert_eq!(n.heap_bytes(), 0, "packed node holds no heap");
        assert_eq!(n.logical_clock(5.0).to_bits(), l.to_bits());
        assert_eq!(n.max_estimate(5.0).to_bits(), lmax.to_bits());
    }

    #[test]
    fn quiescent_weighted_nodes_pack_and_keep_their_weights() {
        let mut n = GradientNode::with_weights(params(), [(node(1), 0.25)].into_iter().collect());
        assert!(n.quiescent());
        let mut blob = Vec::new();
        assert!(
            n.pack_cold(&mut blob),
            "a quiescent weighted node must pack"
        );
        assert!(blob.is_empty(), "nothing to encode: {blob:?}");
        let rebooted = n.try_reboot().expect("Algorithm 2 reboots");
        for m in [&n, &rebooted] {
            assert_eq!(m.weight_of(node(1)), 0.25);
            assert_eq!(m.weight_of(node(2)), 1.0);
        }
    }

    #[test]
    fn logical_clock_never_decreases_and_tracks_hw_between_events() {
        let mut n = GradientNode::new(params());
        let mut actions = Vec::new();
        let mut rng = StdRng::seed_from_u64(0);
        n.on_receive(
            &mut ctx_at(1.0, &mut actions, &mut rng),
            node(1),
            Message {
                logical: 0.5,
                max_estimate: 9.0,
            },
        );
        let l1 = n.logical_clock(1.0);
        // Between events L grows exactly with hw.
        assert_eq!(n.logical_clock(3.5), l1 + 2.5);
        // A later event can only raise it further.
        n.on_receive(
            &mut ctx_at(4.0, &mut actions, &mut rng),
            node(1),
            Message {
                logical: 2.0,
                max_estimate: 20.0,
            },
        );
        assert!(n.logical_clock(4.0) >= l1 + 3.0);
    }
}
