//! Property-based tests on the Algorithm 2 state machine.
//!
//! We drive a single [`GradientNode`] with arbitrary (but time-ordered)
//! event sequences and check that the paper's structural invariants hold
//! after every step:
//!
//! * the logical clock never decreases and never exceeds `Lmax`
//!   (Property 6.3),
//! * `Γ ⊆ Υ`,
//! * between events the clock grows exactly at the hardware rate,
//! * discrete jumps never overshoot the `AdjustClock` cap,
//! * the budget toward any neighbor never exceeds `B(0)` and never drops
//!   below `B0`.
//!
//! Every sequence runs twice: on a plain node and on one with idle
//! parking on, started parked. The parking run also checks that a tick
//! finding `Υ_u = ∅` emits nothing, that `Lost` alarms and
//! discover-removes reaching a parked node emit nothing, and that the
//! next receive or discover-add re-arms the tick exactly once.

use gcs_clocks::Time;
use gcs_core::{AlgoParams, GradientNode, GradientShared};
use gcs_net::{node, Edge, NodeId};
use gcs_sim::{
    Action, Automaton, Context, LinkChange, LinkChangeKind, Message, ModelParams, TimerKind,
};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::Arc;

#[derive(Clone, Debug)]
enum Ev {
    Receive {
        from: usize,
        logical: f64,
        lmax: f64,
    },
    DiscoverAdd {
        other: usize,
    },
    DiscoverRemove {
        other: usize,
    },
    Lost {
        other: usize,
    },
    Tick,
}

fn arb_event() -> impl Strategy<Value = Ev> {
    prop_oneof![
        (1usize..6, 0.0f64..500.0, 0.0f64..500.0).prop_map(|(from, a, b)| Ev::Receive {
            from,
            logical: a.min(b),
            lmax: a.max(b),
        }),
        (1usize..6).prop_map(|other| Ev::DiscoverAdd { other }),
        (1usize..6).prop_map(|other| Ev::DiscoverRemove { other }),
        (1usize..6).prop_map(|other| Ev::Lost { other }),
        Just(Ev::Tick),
    ]
}

fn params() -> AlgoParams {
    AlgoParams::with_minimal_b0(ModelParams::new(0.01, 1.0, 2.0), 8, 0.5)
}

/// A node started at hardware reading 0, without and with idle parking:
/// the first ticks, the second starts parked (`Υ_u = ∅`).
fn started(p: AlgoParams, park_idle: bool, actions: &mut Vec<Action>) -> GradientNode {
    use rand::{rngs::StdRng, SeedableRng};
    let shared = GradientShared::new(p).with_idle_parking(park_idle);
    let mut n = GradientNode::with_shared(Arc::new(shared));
    actions.clear();
    let mut rng = StdRng::seed_from_u64(0);
    let mut ctx = Context::new(node(0), Time::ZERO, 0.0, actions, &mut rng);
    n.on_start(&mut ctx);
    n
}

fn apply(n: &mut GradientNode, hw: f64, ev: &Ev, actions: &mut Vec<Action>) {
    use rand::{rngs::StdRng, SeedableRng};
    actions.clear();
    let mut rng = StdRng::seed_from_u64(0);
    let mut ctx = Context::new(node(0), Time::new(hw), hw, actions, &mut rng);
    match *ev {
        Ev::Receive {
            from,
            logical,
            lmax,
        } => n.on_receive(
            &mut ctx,
            node(from),
            Message {
                logical,
                max_estimate: lmax,
            },
        ),
        Ev::DiscoverAdd { other } => n.on_discover(
            &mut ctx,
            LinkChange {
                kind: LinkChangeKind::Added,
                edge: Edge::between(0, other),
            },
        ),
        Ev::DiscoverRemove { other } => n.on_discover(
            &mut ctx,
            LinkChange {
                kind: LinkChangeKind::Removed,
                edge: Edge::between(0, other),
            },
        ),
        Ev::Lost { other } => n.on_alarm(&mut ctx, TimerKind::Lost(node(other))),
        Ev::Tick => n.on_alarm(&mut ctx, TimerKind::Tick),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn invariants_hold_under_arbitrary_event_sequences(
        events in prop::collection::vec((arb_event(), 0.01f64..3.0), 1..60)
    ) {
        let p = params();
        for park_idle in [false, true] {
            let mut actions = Vec::new();
            let mut n = started(p, park_idle, &mut actions);
            let mut hw = 0.0f64;
            let mut prev_l = n.logical_clock(hw);
            for (ev, gap) in &events {
                // Between events the clock must grow exactly with hw.
                let mid = hw + gap / 2.0;
                prop_assert!((n.logical_clock(mid) - (prev_l + gap / 2.0)).abs() < 1e-9);
                hw += gap;
                let before = n.logical_clock(hw);
                apply(&mut n, hw, ev, &mut actions);
                let after = n.logical_clock(hw);
                // Never decreases at an event.
                prop_assert!(after >= before - 1e-9, "clock decreased: {before} -> {after}");
                // Never exceeds Lmax (Property 6.3).
                prop_assert!(after <= n.max_estimate(hw) + 1e-9,
                    "L {after} exceeds Lmax {}", n.max_estimate(hw));
                // Γ ⊆ Υ.
                let gamma: BTreeSet<NodeId> = n.gamma().collect();
                let upsilon: BTreeSet<NodeId> = n.upsilon().collect();
                prop_assert!(gamma.is_subset(&upsilon), "Γ ⊄ Υ: {gamma:?} vs {upsilon:?}");
                // Budgets bounded between B0 and B(0).
                for v in n.gamma() {
                    let b = n.budget_for(v, hw).unwrap();
                    prop_assert!(b >= p.b0 - 1e-9 && b <= p.budget(0.0) + 1e-9);
                }
                prev_l = after;
            }
        }
    }

    /// Idle parking over the same random sequences. A parked node keeps
    /// no tick armed, so the model tracks it: parked at start (`Υ = ∅`)
    /// and after every tick that finds `Υ = ∅`, woken by the next
    /// receive or discover-add. `Lost` alarms and discover-removes reach
    /// the parked node like any other.
    #[test]
    fn idle_parking_elides_empty_ticks_and_wakes_once(
        events in prop::collection::vec((arb_event(), 0.01f64..3.0), 1..60)
    ) {
        let mut actions = Vec::new();
        let mut n = started(params(), true, &mut actions);
        prop_assert!(actions.is_empty(), "a node with Υ = ∅ must start parked: {actions:?}");
        let mut parked = true;
        let mut hw = 0.0f64;
        for (ev, gap) in &events {
            hw += gap;
            let empty_before = n.upsilon().next().is_none();
            apply(&mut n, hw, ev, &mut actions);
            let arms = actions
                .iter()
                .filter(|a| matches!(a, Action::SetTimer { kind: TimerKind::Tick, .. }))
                .count();
            match ev {
                Ev::Tick if empty_before => {
                    prop_assert!(actions.is_empty(),
                        "a tick finding Υ = ∅ must emit nothing: {actions:?}");
                    parked = true;
                }
                Ev::Tick => prop_assert_eq!(arms, 1, "a tick over Υ ≠ ∅ re-arms"),
                Ev::Receive { .. } | Ev::DiscoverAdd { .. } => {
                    prop_assert_eq!(arms, usize::from(parked),
                        "first contact re-arms the tick exactly once (parked: {})", parked);
                    parked = false;
                }
                Ev::Lost { .. } | Ev::DiscoverRemove { .. } => prop_assert!(actions.is_empty(),
                    "{ev:?} emitted {actions:?} (parked: {parked})"),
            }
            let gamma: BTreeSet<NodeId> = n.gamma().collect();
            let upsilon: BTreeSet<NodeId> = n.upsilon().collect();
            prop_assert!(gamma.is_subset(&upsilon), "Γ ⊄ Υ: {gamma:?} vs {upsilon:?}");
            if parked {
                prop_assert!(upsilon.is_empty() && n.quiescent(), "parked with Υ = {upsilon:?}");
                prop_assert_eq!(n.logical_clock(hw), n.max_estimate(hw));
            }
        }
    }

    /// After AdjustClock, the clock equals the cap whenever it jumped:
    /// min(Lmax, min_v (est_v + B_v)) — and respects it always.
    #[test]
    fn adjust_clock_respects_cap(
        events in prop::collection::vec((arb_event(), 0.01f64..3.0), 1..40)
    ) {
        let p = params();
        for park_idle in [false, true] {
            let mut actions = Vec::new();
            let mut n = started(p, park_idle, &mut actions);
            let mut hw = 0.0;
            for (ev, gap) in &events {
                hw += gap;
                apply(&mut n, hw, ev, &mut actions);
                let l = n.logical_clock(hw);
                let mut cap = n.max_estimate(hw);
                for v in n.gamma() {
                    cap = cap.min(n.estimate_of(v, hw).unwrap() + n.budget_for(v, hw).unwrap());
                }
                // The clock may be above the Γ part of the cap only if it
                // got there by hardware growth while blocked, never by a
                // jump at this instant; but it must never exceed Lmax.
                prop_assert!(l <= n.max_estimate(hw) + 1e-9);
                // If u is not blocked and Lmax > L, AdjustClock would have
                // raised L to the cap: so after an event, either L == cap
                // (up to fp) or L >= cap (blocked by some neighbor).
                if l + 1e-9 < n.max_estimate(hw) {
                    prop_assert!(l + 1e-9 >= cap,
                        "L {l} below cap {cap} but also below Lmax — AdjustClock missed a raise");
                }
            }
        }
    }

    /// The blocked predicate agrees with Definition 6.1.
    #[test]
    fn blocked_predicate_consistent(
        events in prop::collection::vec((arb_event(), 0.01f64..3.0), 1..40)
    ) {
        let p = params();
        for park_idle in [false, true] {
            let mut actions = Vec::new();
            let mut n = started(p, park_idle, &mut actions);
            let mut hw = 0.0;
            for (ev, gap) in &events {
                hw += gap;
                apply(&mut n, hw, ev, &mut actions);
                let l = n.logical_clock(hw);
                let manually_blocked = n.max_estimate(hw) > l
                    && n.gamma().any(|v| {
                        l - n.estimate_of(v, hw).unwrap() > n.budget_for(v, hw).unwrap()
                    });
                prop_assert_eq!(n.is_blocked(hw), manually_blocked);
                if manually_blocked {
                    prop_assert!(n.blocking_neighbor(hw).is_some());
                }
            }
        }
    }
}
