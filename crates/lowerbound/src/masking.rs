//! The Masking Lemma (Lemma 4.2), executable.
//!
//! Execution α: all hardware clocks run at rate 1; constrained edges carry
//! their prescribed delay `P(e)`, unconstrained edges carry `T` uphill
//! (away from `u`) and `0` downhill.
//!
//! Execution β: a node at flexible distance `j` has
//! `H^β(t) = t + min{ρt, T·j}` (rate `1+ρ` until `t = jT/ρ`, then 1);
//! delays are adjusted so β is indistinguishable from α. The adjusted
//! delay of a message β-sent at `tβ_s` is obtained by mapping through the
//! clock correspondence: `tα_s = H^β_x(tβ_s)`, `tα_r = tα_s + delay_α`,
//! `tβ_r = (H^β_y)⁻¹(tα_r)`.
//!
//! The mapping itself is [`gcs_sim::delay::alpha_delay`] and
//! [`gcs_sim::delay::beta_delay`], the formulas the engine's
//! `DelayStrategy::{Layered, BetaLayered}` adversaries run. This module
//! provides [`verify_beta_legality`], which checks the lemma's Part II
//! case analysis numerically on those same formulas: every adjusted delay
//! lies in `[0, T]`, and constrained edges stay within
//! `[P(e)/(1+ρ), P(e)]`.

use crate::mask::DelayMask;
use gcs_net::{Edge, NodeId};
use gcs_sim::delay::{alpha_delay, beta_delay};

/// One legality violation found by [`verify_beta_legality`].
#[derive(Clone, Debug, PartialEq)]
pub struct LegalityViolation {
    /// Offending edge.
    pub edge: Edge,
    /// Sending endpoint.
    pub from: NodeId,
    /// β send time.
    pub tb_send: f64,
    /// Computed β delay.
    pub delay: f64,
    /// Allowed range.
    pub range: (f64, f64),
}

/// Verifies the Part II case analysis over a grid of send times: for every
/// edge, direction and send time, the β-delay must lie in `[0, T]`; on
/// constrained edges it must lie in `[P(e)/(1+ρ), P(e)]`.
pub fn verify_beta_legality(
    edges: &[Edge],
    layers: &[usize],
    mask: &DelayMask,
    rho: f64,
    big_t: f64,
    intra: f64,
    send_times: &[f64],
) -> Vec<LegalityViolation> {
    let eps = 1e-9;
    let mut violations = Vec::new();
    for &e in edges {
        let prescribed = mask.delay_of(e);
        let range = match prescribed {
            Some(p) => (p / (1.0 + rho), p),
            None => (0.0, big_t),
        };
        for from in [e.lo(), e.hi()] {
            let (jx, jy) = (layers[from.index()], layers[e.other(from).index()]);
            let alpha = alpha_delay(prescribed, jx, jy, big_t, intra);
            for &t in send_times {
                let d = beta_delay(alpha, t, jx, jy, rho, big_t);
                if d < range.0 - eps || d > range.1 + eps {
                    violations.push(LegalityViolation {
                        edge: e,
                        from,
                        tb_send: t,
                        delay: d,
                        range,
                    });
                }
            }
        }
    }
    violations
}

/// The skew the Masking Lemma builds between `u` and a node at flexible
/// distance `d` by time `t > T·d·(1 + 1/ρ)`: at least `T·d/4` in one of
/// the two executions.
pub fn lemma42_skew_bound(flexible_distance: usize, big_t: f64) -> f64 {
    0.25 * big_t * flexible_distance as f64
}

/// The time after which the lemma's skew guarantee holds:
/// `T·d·(1 + 1/ρ)`.
pub fn lemma42_ready_time(flexible_distance: usize, big_t: f64, rho: f64) -> f64 {
    big_t * flexible_distance as f64 * (1.0 + 1.0 / rho)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mask::flexible_layers;
    use gcs_net::{generators, node};
    use gcs_sim::delay::{beta_hw, beta_hw_inverse};

    fn e(i: usize, j: usize) -> Edge {
        Edge::between(i, j)
    }

    const RHO: f64 = 0.01;
    const T: f64 = 1.0;

    #[test]
    fn post_ramp_uphill_is_zero_downhill_is_t() {
        // Layers 0 and 1 on an unconstrained edge; the ramp for layer 1
        // ends at t = T/ρ = 100.
        let d_up = beta_delay(alpha_delay(None, 0, 1, T, 0.0), 500.0, 0, 1, RHO, T);
        assert!(
            d_up.abs() < 1e-9,
            "uphill post-ramp should be 0, got {d_up}"
        );
        let d_down = beta_delay(alpha_delay(None, 1, 0, T, 0.0), 500.0, 1, 0, RHO, T);
        assert!(
            (d_down - T).abs() < 1e-9,
            "downhill post-ramp should be T, got {d_down}"
        );
    }

    #[test]
    fn pre_ramp_uphill_scales() {
        // At t=0 both clocks aligned; uphill delay = T/(1+ρ).
        let d = beta_delay(alpha_delay(None, 0, 1, T, 0.0), 0.0, 0, 1, RHO, T);
        assert!((d - T / (1.0 + RHO)).abs() < 1e-9);
        // Downhill at t=0: α-delay 0 maps to min(ρt, …) = 0.
        let d2 = beta_delay(alpha_delay(None, 1, 0, T, 0.0), 0.0, 1, 0, RHO, T);
        assert!(d2.abs() < 1e-9);
    }

    #[test]
    fn constrained_edge_delay_in_prescribed_band() {
        // Both endpoints in layer 0, edge prescribed at 0.8.
        let mask = DelayMask::uniform([e(0, 1)], 0.8);
        for t in [0.0, 10.0, 50.0, 79.9, 80.0, 200.0] {
            let alpha = alpha_delay(mask.delay_of(e(0, 1)), 0, 0, T, 0.0);
            let d = beta_delay(alpha, t, 0, 0, RHO, T);
            assert!(
                (0.8 / 1.01 - 1e-9..=0.8 + 1e-9).contains(&d),
                "t={t}: constrained delay {d} outside band"
            );
        }
    }

    #[test]
    fn legality_holds_on_masked_path() {
        // Path of 8 with a constrained prefix, dense grid of send times
        // covering all ramp phases.
        let n = 8;
        let edges = generators::path(n);
        let mask = DelayMask::uniform([e(0, 1), e(1, 2)], T);
        let layers = flexible_layers(n, edges.clone(), &mask, node(0));
        let send_times: Vec<f64> = (0..2000).map(|i| i as f64 * 0.5).collect();
        let violations = verify_beta_legality(&edges, &layers, &mask, RHO, T, 0.0, &send_times);
        assert!(violations.is_empty(), "violations: {violations:?}");
    }

    #[test]
    fn legality_holds_on_two_chain_network() {
        let tc = generators::TwoChain::new(20);
        let edges = tc.edges();
        let k = 2.0;
        let mask = DelayMask::uniform(tc.e_block(k), T);
        let layers = flexible_layers(tc.n, edges.clone(), &mask, tc.u(k));
        let send_times: Vec<f64> = (0..3000).map(|i| i as f64 * 0.7).collect();
        let violations = verify_beta_legality(&edges, &layers, &mask, RHO, T, 0.0, &send_times);
        assert!(violations.is_empty(), "violations: {violations:?}");
    }

    #[test]
    fn ready_time_and_bound_formulas() {
        assert_eq!(lemma42_skew_bound(8, 1.0), 2.0);
        assert!((lemma42_ready_time(8, 1.0, 0.01) - 8.0 * 101.0).abs() < 1e-9);
    }

    #[test]
    fn beta_hw_roundtrip() {
        for layer in [0usize, 1, 3, 7] {
            for t in [0.0, 5.0, 99.9, 100.0, 1000.0] {
                let h = beta_hw(t, layer, RHO, T);
                let back = beta_hw_inverse(h, layer, RHO, T);
                assert!((back - t).abs() < 1e-7, "layer={layer} t={t}");
            }
        }
    }
}
