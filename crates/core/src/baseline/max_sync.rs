//! The max-chasing baseline.
//!
//! Every node floods `⟨L, Lmax⟩` every `ΔH` subjective time and sets
//! `L ← Lmax` after every event. This is the classical approach to optimal
//! global skew (cf. Srikanth–Toueg \[18\]); it provides *no* gradient
//! property: whatever skew exists between two nodes when an edge forms
//! between them is resolved by an instantaneous jump of the behind node,
//! which then propagates as a jump wave over its old edges.

use gcs_clocks::ClockVar;
use gcs_net::NodeId;
use gcs_sim::{Automaton, Context, LinkChange, LinkChangeKind, Message, TimerKind};
use std::collections::BTreeSet;

/// One node of the max-chasing baseline.
#[derive(Clone, Debug)]
pub struct MaxSyncNode {
    delta_h: f64,
    l: ClockVar,
    lmax: ClockVar,
    upsilon: BTreeSet<NodeId>,
    jumps: u64,
}

impl MaxSyncNode {
    /// A node with resend interval `ΔH`.
    pub fn new(delta_h: f64) -> Self {
        assert!(delta_h > 0.0);
        MaxSyncNode {
            delta_h,
            l: ClockVar::zeroed(),
            lmax: ClockVar::zeroed(),
            upsilon: BTreeSet::new(),
            jumps: 0,
        }
    }

    /// Believed neighbors.
    pub fn upsilon(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.upsilon.iter().copied()
    }

    /// Number of discrete jumps of `L` so far.
    pub fn jump_count(&self) -> u64 {
        self.jumps
    }

    fn chase(&mut self, hw: f64) {
        let lmax = self.lmax.value(hw);
        if lmax > self.l.value(hw) {
            self.l.set(lmax, hw);
            self.jumps += 1;
        }
    }

    fn message(&self, hw: f64) -> Message {
        Message {
            logical: self.l.value(hw),
            max_estimate: self.lmax.value(hw),
        }
    }
}

impl Automaton for MaxSyncNode {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.set_timer(self.delta_h, TimerKind::Tick);
    }

    // Crash/restart with state loss: only the tick period is configuration.
    fn try_reboot(&self) -> Result<Self, gcs_sim::RebootUnsupported> {
        Ok(MaxSyncNode::new(self.delta_h))
    }

    fn on_receive(&mut self, ctx: &mut Context<'_>, from: NodeId, msg: Message) {
        self.upsilon.insert(from);
        self.lmax
            .raise_to(msg.max_estimate.max(msg.logical), ctx.hw);
        self.chase(ctx.hw);
    }

    fn on_discover(&mut self, ctx: &mut Context<'_>, change: LinkChange) {
        let other = change.edge.other(ctx.node);
        match change.kind {
            LinkChangeKind::Added => {
                ctx.send(other, self.message(ctx.hw));
                self.upsilon.insert(other);
            }
            LinkChangeKind::Removed => {
                self.upsilon.remove(&other);
            }
        }
    }

    fn on_alarm(&mut self, ctx: &mut Context<'_>, kind: TimerKind) {
        if kind == TimerKind::Tick {
            let msg = self.message(ctx.hw);
            for &v in &self.upsilon {
                ctx.send(v, msg);
            }
            ctx.set_timer(self.delta_h, TimerKind::Tick);
        }
    }

    fn logical_clock(&self, hw: f64) -> f64 {
        self.l.value(hw)
    }

    fn max_estimate(&self, hw: f64) -> f64 {
        self.lmax.value(hw)
    }

    // Compact-plane cold tier: the baseline's only heap state is Υ, and
    // only a quiescent node (`Υ = ∅`) may pack, so packing releases the
    // empty set's capacity and writes nothing; the inline clocks stay.
    // The baseline never parks its tick timer, so the engine's eviction
    // sweep (which requires no armed timer) evicts only crashed nodes.
    fn quiescent(&self) -> bool {
        self.upsilon.is_empty()
    }

    fn pack_cold(&mut self, _out: &mut Vec<u8>) -> bool {
        if !self.quiescent() {
            return false;
        }
        self.upsilon = BTreeSet::new();
        true
    }

    // Υ's keys; the B-tree's node overhead is not counted.
    fn heap_bytes(&self) -> usize {
        self.upsilon.len() * std::mem::size_of::<NodeId>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcs_clocks::Time;
    use gcs_net::{node, Edge};
    use gcs_sim::Action;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ctx_at<'a>(hw: f64, actions: &'a mut Vec<Action>, rng: &'a mut StdRng) -> Context<'a> {
        Context::new(node(0), Time::new(hw), hw, actions, rng)
    }

    #[test]
    fn jumps_to_received_max_immediately() {
        let mut n = MaxSyncNode::new(0.5);
        let mut actions = Vec::new();
        let mut rng = StdRng::seed_from_u64(0);
        n.on_receive(
            &mut ctx_at(2.0, &mut actions, &mut rng),
            node(1),
            Message {
                logical: 40.0,
                max_estimate: 50.0,
            },
        );
        assert_eq!(n.logical_clock(2.0), 50.0);
        assert_eq!(n.max_estimate(2.0), 50.0);
        assert_eq!(n.jump_count(), 1);
    }

    #[test]
    fn logical_equals_lmax_after_every_event() {
        let mut n = MaxSyncNode::new(0.5);
        let mut actions = Vec::new();
        let mut rng = StdRng::seed_from_u64(0);
        for (hw, lv) in [(1.0, 3.0), (2.0, 2.0), (3.0, 9.0)] {
            n.on_receive(
                &mut ctx_at(hw, &mut actions, &mut rng),
                node(1),
                Message {
                    logical: lv,
                    max_estimate: lv,
                },
            );
            assert_eq!(n.logical_clock(hw), n.max_estimate(hw));
        }
    }

    #[test]
    fn tick_floods_and_rearms() {
        let mut n = MaxSyncNode::new(0.5);
        let mut actions = Vec::new();
        let mut rng = StdRng::seed_from_u64(0);
        n.on_discover(
            &mut ctx_at(0.0, &mut actions, &mut rng),
            LinkChange {
                kind: LinkChangeKind::Added,
                edge: Edge::between(0, 1),
            },
        );
        actions.clear();
        n.on_alarm(&mut ctx_at(1.0, &mut actions, &mut rng), TimerKind::Tick);
        assert!(matches!(actions[0], Action::Send { to, .. } if to == node(1)));
        assert!(matches!(
            actions[1],
            Action::SetTimer {
                kind: TimerKind::Tick,
                ..
            }
        ));
    }

    #[test]
    fn removal_stops_sending() {
        let mut n = MaxSyncNode::new(0.5);
        let mut actions = Vec::new();
        let mut rng = StdRng::seed_from_u64(0);
        n.on_discover(
            &mut ctx_at(0.0, &mut actions, &mut rng),
            LinkChange {
                kind: LinkChangeKind::Added,
                edge: Edge::between(0, 1),
            },
        );
        n.on_discover(
            &mut ctx_at(1.0, &mut actions, &mut rng),
            LinkChange {
                kind: LinkChangeKind::Removed,
                edge: Edge::between(0, 1),
            },
        );
        actions.clear();
        n.on_alarm(&mut ctx_at(2.0, &mut actions, &mut rng), TimerKind::Tick);
        assert!(!actions.iter().any(|a| matches!(a, Action::Send { .. })));
    }

    #[test]
    fn cold_pack_refuses_live_neighbors_and_writes_nothing_when_quiescent() {
        let mut n = MaxSyncNode::new(0.5);
        let mut actions = Vec::new();
        let mut rng = StdRng::seed_from_u64(0);
        n.on_discover(
            &mut ctx_at(0.0, &mut actions, &mut rng),
            LinkChange {
                kind: LinkChangeKind::Added,
                edge: Edge::between(0, 4),
            },
        );
        n.on_receive(
            &mut ctx_at(1.0, &mut actions, &mut rng),
            node(4),
            Message {
                logical: 7.0,
                max_estimate: 7.0,
            },
        );
        let mut blob = Vec::new();
        assert!(!n.pack_cold(&mut blob), "Υ ≠ ∅ must refuse");
        assert!(blob.is_empty());
        assert_eq!(n.upsilon().collect::<Vec<_>>(), vec![node(4)]);

        n.on_discover(
            &mut ctx_at(2.0, &mut actions, &mut rng),
            LinkChange {
                kind: LinkChangeKind::Removed,
                edge: Edge::between(0, 4),
            },
        );
        let (l, lmax) = (n.logical_clock(3.0), n.max_estimate(3.0));
        assert!(n.pack_cold(&mut blob), "quiescent node must pack");
        assert!(blob.is_empty(), "nothing to encode: {blob:?}");
        assert_eq!(n.heap_bytes(), 0);
        assert_eq!(n.logical_clock(3.0).to_bits(), l.to_bits());
        assert_eq!(n.max_estimate(3.0).to_bits(), lmax.to_bits());
    }

    #[test]
    fn clock_never_decreases() {
        let mut n = MaxSyncNode::new(0.5);
        let mut actions = Vec::new();
        let mut rng = StdRng::seed_from_u64(0);
        n.on_receive(
            &mut ctx_at(1.0, &mut actions, &mut rng),
            node(1),
            Message {
                logical: 10.0,
                max_estimate: 10.0,
            },
        );
        let before = n.logical_clock(1.0);
        // A stale (smaller) value cannot pull the clock down.
        n.on_receive(
            &mut ctx_at(1.5, &mut actions, &mut rng),
            node(2),
            Message {
                logical: 1.0,
                max_estimate: 1.0,
            },
        );
        assert!(n.logical_clock(1.5) >= before);
    }
}
