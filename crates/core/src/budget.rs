//! The budget function `B` of Section 5, in isolation.
//!
//! ```text
//! B(Δt) = max{ B0,  5·G(n) + (1+ρ)τ + B0 − B0/((1+ρ)τ) · Δt }
//! ```
//!
//! `Δt` is the *subjective* age of the edge's `Γ`-membership
//! (`H_u − C^v_u`). The initial value `B(0) = 5G(n) + (1+ρ)τ + B0` exceeds
//! the global skew bound, so a fresh edge imposes no effective constraint;
//! the budget then decays linearly with slope `B0/((1+ρ)τ)` per subjective
//! time unit until it reaches the floor `B0`.

/// Evaluates the aging budget.
///
/// * `dt` — subjective age `H_u − C^v_u` (clamped at 0 from below),
/// * `b0` — the stable budget floor `B0`,
/// * `g` — the global skew bound `G(n)`,
/// * `rho` — drift bound,
/// * `tau` — the staleness bound `τ`.
///
/// This sits on the per-event hot path (`AdjustClock` evaluates it once
/// per neighbor, over the flat entries of [`crate::GradientNode`]'s
/// neighbor table), hence the `#[inline]`.
#[inline]
pub fn aging_budget(dt: f64, b0: f64, g: f64, rho: f64, tau: f64) -> f64 {
    debug_assert!(dt >= -1e-9, "edge age must be non-negative, got {dt}");
    let t1 = (1.0 + rho) * tau;
    let linear = 5.0 * g + t1 + b0 - b0 / t1 * dt.max(0.0);
    linear.max(b0)
}

/// The subjective age at which the budget first equals `b0`.
pub fn settle_age(b0: f64, g: f64, rho: f64, tau: f64) -> f64 {
    let t1 = (1.0 + rho) * tau;
    (5.0 * g + t1) * t1 / b0
}

#[cfg(test)]
mod tests {
    use super::*;

    const B0: f64 = 20.0;
    const G: f64 = 100.0;
    const RHO: f64 = 0.01;
    const TAU: f64 = 5.0;

    #[test]
    fn initial_value_formula() {
        let b = aging_budget(0.0, B0, G, RHO, TAU);
        assert!((b - (5.0 * G + 1.01 * TAU + B0)).abs() < 1e-12);
        assert!(b > G, "fresh edges must not constrain");
    }

    #[test]
    fn linear_slope() {
        let t1 = 1.01 * TAU;
        let b_a = aging_budget(1.0, B0, G, RHO, TAU);
        let b_b = aging_budget(2.0, B0, G, RHO, TAU);
        assert!(((b_a - b_b) - B0 / t1).abs() < 1e-9);
    }

    #[test]
    fn floors_at_b0() {
        let s = settle_age(B0, G, RHO, TAU);
        assert!((aging_budget(s, B0, G, RHO, TAU) - B0).abs() < 1e-9);
        assert_eq!(aging_budget(s + 100.0, B0, G, RHO, TAU), B0);
        assert_eq!(aging_budget(1e12, B0, G, RHO, TAU), B0);
    }

    #[test]
    fn settle_age_is_where_linear_hits_floor() {
        let s = settle_age(B0, G, RHO, TAU);
        assert!(aging_budget(s * 0.999, B0, G, RHO, TAU) > B0);
    }

    #[test]
    fn monotone_non_increasing() {
        let mut last = f64::INFINITY;
        for i in 0..1000 {
            let b = aging_budget(i as f64, B0, G, RHO, TAU);
            assert!(b <= last);
            last = b;
        }
    }

    #[test]
    fn negative_age_clamped() {
        // Tiny negative ages (floating point) behave like zero.
        assert_eq!(
            aging_budget(-1e-12, B0, G, RHO, TAU),
            aging_budget(0.0, B0, G, RHO, TAU)
        );
    }
}
