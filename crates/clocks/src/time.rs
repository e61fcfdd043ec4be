//! Totally-ordered real-time newtypes.
//!
//! The simulator runs on continuous real time represented as `f64` seconds.
//! [`Time`] and [`Duration`] wrap `f64` and enforce finiteness at
//! construction so that the event queue's ordering is a genuine total order.

use std::cmp::Ordering;
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// A point in real time (seconds since the start of the execution).
///
/// All executions start at `Time::ZERO`; the paper assumes all hardware
/// clocks read 0 at that instant.
#[derive(Clone, Copy, PartialEq)]
pub struct Time(f64);

/// A signed span of real time (seconds).
#[derive(Clone, Copy, PartialEq)]
pub struct Duration(f64);

impl Time {
    /// The start of every execution.
    pub const ZERO: Time = Time(0.0);

    /// Creates a time point; panics on non-finite input.
    #[inline]
    pub fn new(seconds: f64) -> Self {
        assert!(seconds.is_finite(), "Time must be finite, got {seconds}");
        Time(seconds)
    }

    /// Raw seconds value.
    #[inline]
    pub fn seconds(self) -> f64 {
        self.0
    }

    /// The later of two time points.
    #[inline]
    pub fn max(self, other: Time) -> Time {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// The earlier of two time points.
    #[inline]
    pub fn min(self, other: Time) -> Time {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }

    /// True if this time is non-negative (all simulator times are).
    #[inline]
    pub fn is_valid_sim_time(self) -> bool {
        self.0 >= 0.0
    }
}

impl Duration {
    /// Zero-length duration.
    pub const ZERO: Duration = Duration(0.0);

    /// Creates a duration; panics on non-finite input.
    #[inline]
    pub fn new(seconds: f64) -> Self {
        assert!(
            seconds.is_finite(),
            "Duration must be finite, got {seconds}"
        );
        Duration(seconds)
    }

    /// Raw seconds value.
    #[inline]
    pub fn seconds(self) -> f64 {
        self.0
    }

    /// Absolute value.
    #[inline]
    pub fn abs(self) -> Duration {
        Duration(self.0.abs())
    }

    /// The larger of two durations.
    #[inline]
    pub fn max(self, other: Duration) -> Duration {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// The smaller of two durations.
    #[inline]
    pub fn min(self, other: Duration) -> Duration {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }
}

// `Time` and `Duration` never hold NaN, so ordering is total.
impl Eq for Time {}
impl Eq for Duration {}

impl Ord for Time {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.partial_cmp(&other.0).expect("Time is never NaN")
    }
}

impl PartialOrd for Time {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Duration {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.partial_cmp(&other.0).expect("Duration is never NaN")
    }
}

impl PartialOrd for Duration {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Add<Duration> for Time {
    type Output = Time;
    #[inline]
    fn add(self, rhs: Duration) -> Time {
        Time::new(self.0 + rhs.0)
    }
}

impl AddAssign<Duration> for Time {
    #[inline]
    fn add_assign(&mut self, rhs: Duration) {
        *self = *self + rhs;
    }
}

impl Sub<Duration> for Time {
    type Output = Time;
    #[inline]
    fn sub(self, rhs: Duration) -> Time {
        Time::new(self.0 - rhs.0)
    }
}

impl SubAssign<Duration> for Time {
    #[inline]
    fn sub_assign(&mut self, rhs: Duration) {
        *self = *self - rhs;
    }
}

impl Sub for Time {
    type Output = Duration;
    #[inline]
    fn sub(self, rhs: Time) -> Duration {
        Duration::new(self.0 - rhs.0)
    }
}

impl Add for Duration {
    type Output = Duration;
    #[inline]
    fn add(self, rhs: Duration) -> Duration {
        Duration::new(self.0 + rhs.0)
    }
}

impl AddAssign for Duration {
    #[inline]
    fn add_assign(&mut self, rhs: Duration) {
        *self = *self + rhs;
    }
}

impl Sub for Duration {
    type Output = Duration;
    #[inline]
    fn sub(self, rhs: Duration) -> Duration {
        Duration::new(self.0 - rhs.0)
    }
}

impl SubAssign for Duration {
    #[inline]
    fn sub_assign(&mut self, rhs: Duration) {
        *self = *self - rhs;
    }
}

impl Mul<f64> for Duration {
    type Output = Duration;
    #[inline]
    fn mul(self, rhs: f64) -> Duration {
        Duration::new(self.0 * rhs)
    }
}

impl Div<f64> for Duration {
    type Output = Duration;
    #[inline]
    fn div(self, rhs: f64) -> Duration {
        Duration::new(self.0 / rhs)
    }
}

impl Div for Duration {
    type Output = f64;
    #[inline]
    fn div(self, rhs: Duration) -> f64 {
        self.0 / rhs.0
    }
}

impl Neg for Duration {
    type Output = Duration;
    #[inline]
    fn neg(self) -> Duration {
        Duration(-self.0)
    }
}

impl Sum for Duration {
    fn sum<I: Iterator<Item = Duration>>(iter: I) -> Duration {
        iter.fold(Duration::ZERO, |a, b| a + b)
    }
}

impl fmt::Debug for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}", self.0)
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}", self.0)
    }
}

impl fmt::Debug for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Δ{:.6}", self.0)
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}", self.0)
    }
}

/// Convenience constructor: `secs(1.5)` reads better than
/// `Duration::new(1.5)` in test and experiment code.
#[inline]
pub fn secs(seconds: f64) -> Duration {
    Duration::new(seconds)
}

/// Convenience constructor for [`Time`].
#[inline]
pub fn at(seconds: f64) -> Time {
    Time::new(seconds)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_roundtrips() {
        let t = at(10.0);
        let d = secs(2.5);
        assert_eq!(t + d, at(12.5));
        assert_eq!((t + d) - d, t);
        assert_eq!(at(12.5) - t, d);
    }

    #[test]
    fn ordering_is_total() {
        let mut v = vec![at(3.0), at(1.0), at(2.0)];
        v.sort();
        assert_eq!(v, vec![at(1.0), at(2.0), at(3.0)]);
    }

    #[test]
    fn duration_scaling() {
        assert_eq!(secs(2.0) * 3.0, secs(6.0));
        assert_eq!(secs(6.0) / 3.0, secs(2.0));
        assert!((secs(6.0) / secs(3.0) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn duration_sum() {
        let total: Duration = vec![secs(1.0), secs(2.0), secs(3.0)].into_iter().sum();
        assert_eq!(total, secs(6.0));
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn nan_time_rejected() {
        let _ = Time::new(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn infinite_duration_rejected() {
        let _ = Duration::new(f64::INFINITY);
    }

    #[test]
    fn min_max_helpers() {
        assert_eq!(at(1.0).max(at(2.0)), at(2.0));
        assert_eq!(at(1.0).min(at(2.0)), at(1.0));
        assert_eq!(secs(-1.0).abs(), secs(1.0));
        assert_eq!(secs(1.0).max(secs(2.0)), secs(2.0));
        assert_eq!(secs(1.0).min(secs(2.0)), secs(1.0));
    }

    #[test]
    fn negation_and_predicates() {
        assert_eq!(-secs(2.0), secs(-2.0));
        assert!(at(0.0).is_valid_sim_time());
        assert!(!at(-1.0).is_valid_sim_time());
    }
}
