//! The blocked/advance decision logic of Algorithm 2 as pure functions.
//!
//! These five functions are the *entire* decision core of Algorithm 2:
//! the Definition 6.1 **blocked** predicate and the `AdjustClock` advance
//! rule, expressed over plain `f64` values with no node state attached.
//! [`GradientNode`](crate::GradientNode) calls them from its handlers, and
//! the model checker (`gcs-mc`) calls the *same* functions when it
//! recomputes the predicate over explored states — encode once, call
//! twice. Because both callers execute identical operations in identical
//! order, the automaton and the checker cannot drift apart in the last
//! `f64` bit (pinned end to end by `crates/bench/tests/predicate_pin.rs`).
//!
//! A *cap* below is the pair `(L^v_u, B^v_u)` for one neighbor
//! `v ∈ Γ_u`: the estimate of `v`'s logical clock and the current budget
//! toward `v`. Cap iterators must yield neighbors in **ascending node-id
//! order** — the order `GradientNode`'s neighbor table iterates —
//! because `f64::min` folds are order-sensitive in the presence of ties
//! broken by NaN-free but unequal rounding; both callers iterate the
//! same order so this is a contract, not a tolerance.

/// The effective budget toward a neighbor: the aging curve value floored
/// at the (possibly weight-scaled) `B0` floor —
/// `B^v_u = max{floor, B(Δt)}`.
///
/// `unfloored` is [`AlgoParams::budget_unfloored`](crate::AlgoParams::budget_unfloored)
/// at the edge age, `floor` is `B0 · w_v`.
#[inline]
pub fn effective_budget(unfloored: f64, floor: f64) -> f64 {
    unfloored.max(floor)
}

/// Whether one neighbor blocks `u` (the per-neighbor clause of
/// Definition 6.1): `L_u − L^v_u > B^v_u`.
#[inline]
pub fn neighbor_blocks(l: f64, estimate: f64, budget: f64) -> bool {
    l - estimate > budget
}

/// Definition 6.1: `u` is *blocked* iff `Lmax_u > L_u` and some neighbor
/// cap has `L_u − L^v_u > B^v_u`.
#[inline]
pub fn is_blocked(l: f64, lmax: f64, caps: impl IntoIterator<Item = (f64, f64)>) -> bool {
    lmax > l
        && caps
            .into_iter()
            .any(|(estimate, budget)| neighbor_blocks(l, estimate, budget))
}

/// The `AdjustClock` advance target:
/// `min{Lmax_u, min_{v∈Γ}(L^v_u + B^v_u)}`, folded in cap order.
#[inline]
pub fn advance_target(lmax: f64, caps: impl IntoIterator<Item = (f64, f64)>) -> f64 {
    caps.into_iter().fold(lmax, |target, (estimate, budget)| {
        target.min(estimate + budget)
    })
}

/// Whether `AdjustClock` performs a discrete jump: the target strictly
/// exceeds the current logical clock (`L_u` never decreases).
#[inline]
pub fn should_jump(target: f64, l: f64) -> bool {
    target > l
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_budget_floors_the_aging_curve() {
        assert_eq!(effective_budget(100.0, 20.0), 100.0, "fresh edge");
        assert_eq!(effective_budget(-5.0, 20.0), 20.0, "settled edge");
        assert_eq!(effective_budget(f64::NEG_INFINITY, 20.0), 20.0);
        // Weighted floors scale down, never up.
        assert_eq!(effective_budget(-5.0, 5.0), 5.0);
    }

    #[test]
    fn neighbor_blocks_is_a_strict_inequality() {
        assert!(neighbor_blocks(30.0, 9.0, 20.0)); // 21 > 20
        assert!(!neighbor_blocks(29.0, 9.0, 20.0)); // 20 > 20 fails
        assert!(!neighbor_blocks(5.0, 9.0, 20.0)); // ahead neighbors never block
    }

    #[test]
    fn is_blocked_requires_both_clauses() {
        let caps = [(0.0, 10.0), (100.0, 10.0)];
        // Lmax > L and the first cap blocks.
        assert!(is_blocked(50.0, 60.0, caps));
        // No headroom: Lmax == L.
        assert!(!is_blocked(50.0, 50.0, caps));
        // Headroom but nobody blocks.
        assert!(!is_blocked(5.0, 60.0, caps));
        // No neighbors at all.
        assert!(!is_blocked(5.0, 60.0, []));
    }

    #[test]
    fn advance_target_is_the_min_over_lmax_and_caps() {
        assert_eq!(advance_target(40.0, []), 40.0, "no caps: chase Lmax");
        assert_eq!(advance_target(40.0, [(10.0, 5.0), (100.0, 1.0)]), 15.0);
        assert_eq!(advance_target(12.0, [(10.0, 5.0)]), 12.0, "Lmax caps");
    }

    #[test]
    fn should_jump_only_on_strict_increase() {
        assert!(should_jump(10.0, 9.0));
        assert!(!should_jump(10.0, 10.0));
        assert!(!should_jump(9.0, 10.0), "L never decreases");
    }

    #[test]
    fn blocked_and_advance_agree_on_the_boundary() {
        // When a neighbor blocks exactly, the advance target equals the
        // cap and the node sits on the Definition 6.1 boundary: raising
        // Lmax past the cap makes it blocked, the target stays capped.
        let (l, est, b) = (25.0, 10.0, 14.0);
        assert!(neighbor_blocks(l, est, b)); // 15 > 14
        let target = advance_target(1e9, [(est, b)]);
        assert_eq!(target, 24.0);
        assert!(!should_jump(target, l), "a blocked node cannot advance");
        assert!(is_blocked(l, 1e9, [(est, b)]));
    }
}
