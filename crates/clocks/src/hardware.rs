//! The hardware clock `H_u(t)` of the paper's model.
//!
//! A [`HardwareClock`] is a [`RateSchedule`] anchored at `H(0) = 0`, plus
//! the drift bound `ρ` it was built under. The paper requires
//! `(1−ρ)(t2−t1) ≤ H(t2)−H(t1) ≤ (1+ρ)(t2−t1)` for all `t1 < t2`; the clock
//! checks this bound at construction.

use crate::rate::RateSchedule;
use crate::time::Time;
use crate::validate_rho;

/// A node's continuous hardware clock with bounded drift.
#[derive(Clone, Debug, PartialEq)]
pub struct HardwareClock {
    schedule: RateSchedule,
    rho: f64,
}

impl HardwareClock {
    /// Wraps a rate schedule, verifying it respects the drift bound `ρ`.
    pub fn new(schedule: RateSchedule, rho: f64) -> Self {
        validate_rho(rho);
        assert!(
            schedule.respects_drift_bound(rho),
            "rate schedule violates drift bound rho={rho}: rates in [{}, {}]",
            schedule.min_rate(),
            schedule.max_rate()
        );
        HardwareClock { schedule, rho }
    }

    /// A perfect clock (rate exactly 1) under drift bound `ρ`.
    pub fn perfect(rho: f64) -> Self {
        Self::new(RateSchedule::real_time(), rho)
    }

    /// A clock running at constant `rate ∈ [1−ρ, 1+ρ]`.
    pub fn constant(rate: f64, rho: f64) -> Self {
        Self::new(RateSchedule::constant(rate), rho)
    }

    /// The drift bound this clock was constructed under.
    pub fn rho(&self) -> f64 {
        self.rho
    }

    /// The underlying rate schedule.
    pub fn schedule(&self) -> &RateSchedule {
        &self.schedule
    }

    /// Hardware clock reading at real time `t` (`H(0) = 0`).
    #[inline]
    pub fn read(&self, t: Time) -> f64 {
        self.schedule.value_at(t)
    }

    /// Instantaneous rate at real time `t`.
    #[inline]
    pub fn rate_at(&self, t: Time) -> f64 {
        self.schedule.rate_at(t)
    }

    /// The real time at which this clock will have advanced by the
    /// *subjective* duration `delta` past its reading at `t`.
    ///
    /// This is the primitive behind `set_timer(Δt)` in Algorithm 2: timers
    /// measure subjective (hardware) time, and the simulator uses this exact
    /// inversion to schedule the alarm.
    #[inline]
    pub fn fire_time(&self, now: Time, delta: f64) -> Time {
        self.schedule.time_after_advance(now, delta)
    }

    /// Hardware-clock advance across the real interval `[t1, t2]`.
    #[inline]
    pub fn advance_over(&self, t1: Time, t2: Time) -> f64 {
        self.schedule.advance_over(t1, t2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::at;

    #[test]
    fn perfect_clock_tracks_real_time() {
        let c = HardwareClock::perfect(0.01);
        assert_eq!(c.read(at(42.0)), 42.0);
    }

    #[test]
    fn fast_clock_reads_ahead() {
        let c = HardwareClock::constant(1.01, 0.01);
        assert!((c.read(at(100.0)) - 101.0).abs() < 1e-9);
    }

    #[test]
    fn fire_time_respects_drift_envelope() {
        let c = HardwareClock::constant(0.99, 0.01);
        let fire = c.fire_time(at(10.0), 5.0);
        // A subjective 5 takes between 5/(1+ρ) and 5/(1−ρ) real time.
        let elapsed = (fire - at(10.0)).seconds();
        assert!(elapsed >= 5.0 / 1.01);
        assert!(elapsed <= 5.0 / 0.99);
    }

    #[test]
    #[should_panic(expected = "violates drift bound")]
    fn out_of_bound_rate_rejected() {
        let _ = HardwareClock::constant(1.2, 0.01);
    }

    #[test]
    fn paper_drift_inequality_holds() {
        // (1−ρ)(t2−t1) ≤ H(t2)−H(t1) ≤ (1+ρ)(t2−t1) across segment joints.
        let sched = RateSchedule::from_pairs(&[(0.0, 0.99), (7.0, 1.01), (20.0, 1.0)]);
        let c = HardwareClock::new(sched, 0.01);
        for &(t1, t2) in &[(0.0, 5.0), (3.0, 9.0), (6.9, 25.0), (0.0, 100.0)] {
            let adv = c.advance_over(at(t1), at(t2));
            let span = t2 - t1;
            assert!(adv >= (1.0 - 0.01) * span - 1e-9);
            assert!(adv <= (1.0 + 0.01) * span + 1e-9);
        }
    }

    #[test]
    fn accessors() {
        let c = HardwareClock::perfect(0.02);
        assert_eq!(c.rho(), 0.02);
        assert_eq!(c.rate_at(at(1.0)), 1.0);
        assert_eq!(c.schedule().len(), 1);
    }
}
