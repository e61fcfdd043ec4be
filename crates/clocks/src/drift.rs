//! Drift-pattern generators.
//!
//! The paper treats the hardware clock rates as adversarial within
//! `[1−ρ, 1+ρ]`. Experiments need several concrete adversaries:
//!
//! * [`DriftModel::Perfect`] — every clock runs at exactly 1 (isolates
//!   message-delay effects).
//! * [`DriftModel::SplitExtremes`] — half the nodes at `1−ρ`, half at `1+ρ`;
//!   the worst constant-rate adversary, drives skew growth at rate `2ρ`.
//! * [`DriftModel::RandomConstant`] — per-node constant rate drawn uniformly
//!   from `[1−ρ, 1+ρ]`.
//! * [`DriftModel::RandomWalk`] — rate performs a bounded random walk,
//!   modelling temperature-varying oscillators.
//! * [`DriftModel::Alternating`] — rate toggles between `1+ρ` and `1−ρ`
//!   every `period` seconds, out of phase across nodes.
//! * [`layered_beta`] — the exact rate schedule of the paper's Lemma 4.2
//!   execution β: `H^β_x(t) = t + min{ρt, T·dist_M(u,x)}`, i.e. a node in
//!   layer `j` runs at `1+ρ` until real time `j·T/ρ` and at 1 afterwards.

use crate::rate::{RateSchedule, RateSegment};
use crate::time::Time;
use crate::validate_rho;
use rand::Rng;

/// A family of drift adversaries; `build` instantiates the schedule for one
/// node.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum DriftModel {
    /// All clocks perfect (rate 1).
    Perfect,
    /// Every node runs at the single given constant rate.
    Constant(f64),
    /// Even-indexed nodes at `1−ρ`, odd-indexed at `1+ρ`.
    ///
    /// Every node then borders both rates — the worst adversary for *edge*
    /// skew growth. For *distance-proportional* skew (a fast cluster far
    /// from a slow cluster) use [`DriftModel::FastUpTo`].
    SplitExtremes,
    /// Nodes with index `< boundary` run at `1+ρ`, the rest at `1−ρ` — a
    /// fast block and a slow block, the adversary that makes skew grow
    /// with the distance between the blocks.
    FastUpTo(usize),
    /// Per-node constant rate drawn uniformly from `[1−ρ, 1+ρ]`.
    RandomConstant,
    /// Bounded random walk: every `step` seconds the rate moves by a
    /// uniform increment in `[−ρ/4, ρ/4]`, clamped to `[1−ρ, 1+ρ]`.
    RandomWalk {
        /// Real-time spacing of rate changes.
        step: f64,
    },
    /// Square-wave drift: `1+ρ` and `1−ρ` alternating every `period`
    /// seconds; odd-indexed nodes start in the opposite phase.
    Alternating {
        /// Real-time half-period of the square wave.
        period: f64,
    },
}

impl DriftModel {
    /// Builds the rate schedule for node number `node_index` under drift
    /// bound `rho`, covering real times `[0, horizon]`.
    ///
    /// ## Horizon contract (deterministic extension)
    ///
    /// Every rate *change* lies within `[0, horizon]`; the final segment
    /// extends to `+∞`, so queries past the horizon are well defined and
    /// deterministically continue the last in-horizon rate (see the
    /// [`RateSchedule`] type docs). This is asserted below — a generator
    /// can never emit a change beyond the horizon and have queries
    /// silently extrapolate a rate the horizon never contained. The lazy
    /// plane ([`crate::source::ModelDrift`]) generates the identical
    /// segment sequence on demand and honours the same extension.
    pub fn build<R: Rng>(
        &self,
        rho: f64,
        horizon: f64,
        node_index: usize,
        rng: &mut R,
    ) -> RateSchedule {
        validate_rho(rho);
        assert!(horizon.is_finite() && horizon > 0.0, "horizon must be > 0");
        let schedule = match *self {
            DriftModel::Perfect => RateSchedule::real_time(),
            DriftModel::Constant(rate) => RateSchedule::constant(rate),
            DriftModel::SplitExtremes => {
                if node_index.is_multiple_of(2) {
                    RateSchedule::constant(1.0 - rho)
                } else {
                    RateSchedule::constant(1.0 + rho)
                }
            }
            DriftModel::FastUpTo(boundary) => {
                if node_index < boundary {
                    RateSchedule::constant(1.0 + rho)
                } else {
                    RateSchedule::constant(1.0 - rho)
                }
            }
            DriftModel::RandomConstant => {
                RateSchedule::constant(rng.gen_range(1.0 - rho..=1.0 + rho))
            }
            DriftModel::RandomWalk { step } => {
                assert!(step > 0.0, "random-walk step must be > 0");
                let mut segments = Vec::new();
                let mut rate = 1.0f64;
                let mut t = 0.0f64;
                while t <= horizon {
                    segments.push(RateSegment {
                        start: Time::new(t),
                        rate,
                    });
                    let delta = rng.gen_range(-rho / 4.0..=rho / 4.0);
                    rate = (rate + delta).clamp(1.0 - rho, 1.0 + rho);
                    t += step;
                }
                RateSchedule::from_segments(segments)
            }
            DriftModel::Alternating { period } => {
                assert!(period > 0.0, "alternation period must be > 0");
                let mut segments = Vec::new();
                let mut high = node_index.is_multiple_of(2);
                let mut t = 0.0f64;
                while t <= horizon {
                    segments.push(RateSegment {
                        start: Time::new(t),
                        rate: if high { 1.0 + rho } else { 1.0 - rho },
                    });
                    high = !high;
                    t += period;
                }
                RateSchedule::from_segments(segments)
            }
        };
        let last_start = schedule
            .segments()
            .last()
            .expect("schedules are non-empty")
            .start
            .seconds();
        assert!(
            last_start <= horizon,
            "{self:?} emitted a rate change at {last_start} beyond horizon {horizon}"
        );
        schedule
    }
}

/// The β-execution schedule of the paper's Masking Lemma (Lemma 4.2).
///
/// A node at flexible distance `layer` from the reference node `u` runs at
/// `1+ρ` during real times `[0, layer·T/ρ)` and at rate 1 afterwards, which
/// yields exactly `H^β_x(t) = t + min{ρ·t, T·layer}` (Equation (1) in the
/// paper).
pub fn layered_beta(layer: usize, rho: f64, big_t: f64) -> RateSchedule {
    validate_rho(rho);
    assert!(big_t > 0.0, "message-delay bound T must be > 0");
    if layer == 0 {
        return RateSchedule::real_time();
    }
    let switch = layer as f64 * big_t / rho;
    RateSchedule::from_pairs(&[(0.0, 1.0 + rho), (switch, 1.0)])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::at;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    #[test]
    fn perfect_is_identity() {
        let s = DriftModel::Perfect.build(0.01, 100.0, 0, &mut rng());
        assert_eq!(s.value_at(at(50.0)), 50.0);
    }

    #[test]
    fn fast_up_to_splits_in_blocks() {
        let m = DriftModel::FastUpTo(3);
        for idx in 0..6 {
            let s = m.build(0.02, 10.0, idx, &mut rng());
            let expect = if idx < 3 { 1.02 } else { 0.98 };
            assert_eq!(s.rate_at(at(0.0)), expect);
        }
    }

    #[test]
    fn split_extremes_alternates_by_parity() {
        let s0 = DriftModel::SplitExtremes.build(0.01, 10.0, 0, &mut rng());
        let s1 = DriftModel::SplitExtremes.build(0.01, 10.0, 1, &mut rng());
        assert_eq!(s0.rate_at(at(0.0)), 0.99);
        assert_eq!(s1.rate_at(at(0.0)), 1.01);
    }

    #[test]
    fn random_models_respect_bound() {
        let rho = 0.02;
        for model in [
            DriftModel::RandomConstant,
            DriftModel::RandomWalk { step: 5.0 },
            DriftModel::Alternating { period: 7.0 },
        ] {
            for idx in 0..8 {
                let s = model.build(rho, 200.0, idx, &mut rng());
                assert!(
                    s.respects_drift_bound(rho),
                    "{model:?} node {idx} violates bound"
                );
            }
        }
    }

    #[test]
    fn random_walk_is_deterministic_per_seed() {
        let m = DriftModel::RandomWalk { step: 3.0 };
        let a = m.build(0.01, 100.0, 0, &mut rng());
        let b = m.build(0.01, 100.0, 0, &mut rng());
        assert_eq!(a, b);
    }

    #[test]
    fn layered_beta_matches_closed_form() {
        let rho = 0.01;
        let big_t = 1.0;
        for layer in 0..6usize {
            let s = layered_beta(layer, rho, big_t);
            for &t in &[0.0, 10.0, 99.9, 100.0, 250.0, 1000.0] {
                let expect = t + (rho * t).min(big_t * layer as f64);
                let got = s.value_at(at(t));
                assert!(
                    (got - expect).abs() < 1e-6,
                    "layer={layer} t={t}: got {got}, want {expect}"
                );
            }
        }
    }

    #[test]
    fn alternating_phases_differ_between_neighbors() {
        let m = DriftModel::Alternating { period: 2.0 };
        let a = m.build(0.05, 20.0, 0, &mut rng());
        let b = m.build(0.05, 20.0, 1, &mut rng());
        assert_eq!(a.rate_at(at(1.0)), 1.05);
        assert_eq!(b.rate_at(at(1.0)), 0.95);
        assert_eq!(a.rate_at(at(3.0)), 0.95);
        assert_eq!(b.rate_at(at(3.0)), 1.05);
    }

    #[test]
    fn horizon_extension_is_the_final_in_horizon_segment() {
        // The deterministic-extension contract, tested at the boundary:
        // build to `horizon`, then query at, just past, and far past it —
        // all must continue the final in-horizon rate linearly.
        let (rho, horizon) = (0.02, 17.0);
        for model in [
            DriftModel::RandomWalk { step: 5.0 },
            DriftModel::Alternating { period: 4.0 },
            DriftModel::SplitExtremes,
        ] {
            for idx in 0..4 {
                let s = model.build(rho, horizon, idx, &mut rng());
                let last = *s.segments().last().unwrap();
                assert!(
                    last.start.seconds() <= horizon,
                    "{model:?}: change beyond the horizon"
                );
                assert_eq!(s.final_rate(), last.rate);
                let anchor = s.value_at(at(horizon));
                for &dt in &[0.0, 1e-9, 1.0, 1000.0] {
                    let t = horizon + dt;
                    assert_eq!(s.rate_at(at(t)), last.rate, "{model:?} t={t}");
                    let got = s.value_at(at(t));
                    let expect = anchor + last.rate * dt;
                    assert!(
                        (got - expect).abs() < 1e-9,
                        "{model:?} t={t}: {got} vs linear extension {expect}"
                    );
                }
            }
        }
    }
}
