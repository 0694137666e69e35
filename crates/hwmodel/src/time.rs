//! Virtual time.
//!
//! The whole reproduction runs on *virtual* (simulated) time: application
//! code really executes, but the time it is charged comes from the analytic
//! cost model, not the wall clock. [`SimTime`] is a thin newtype over `f64`
//! seconds that provides total ordering (virtual times are never NaN by
//! construction) and the usual arithmetic.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in (or span of) virtual time, in seconds.
///
/// `SimTime` is both an instant and a duration; the simulation never needs
/// the distinction and keeping one type avoids a large amount of conversion
/// noise in cost-model code.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct SimTime(f64);

impl SimTime {
    /// The zero time (origin of every virtual clock).
    pub const ZERO: SimTime = SimTime(0.0);

    /// Construct from seconds. Panics (debug) on NaN or negative values:
    /// virtual time is monotone and the cost model never produces either.
    #[inline]
    pub fn from_secs(s: f64) -> Self {
        debug_assert!(s.is_finite() && s >= 0.0, "invalid SimTime: {s}");
        SimTime(s)
    }

    /// Construct from microseconds (the natural unit for network latencies).
    #[inline]
    pub fn from_micros(us: f64) -> Self {
        Self::from_secs(us * 1e-6)
    }

    /// Construct from nanoseconds.
    #[inline]
    pub fn from_nanos(ns: f64) -> Self {
        Self::from_secs(ns * 1e-9)
    }

    /// Construct from milliseconds.
    #[inline]
    pub fn from_millis(ms: f64) -> Self {
        Self::from_secs(ms * 1e-3)
    }

    /// Value in seconds.
    #[inline]
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// Value in microseconds.
    #[inline]
    pub fn as_micros(self) -> f64 {
        self.0 * 1e6
    }

    /// Value in nanoseconds.
    #[inline]
    pub fn as_nanos(self) -> f64 {
        self.0 * 1e9
    }

    /// The later of two times.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// The earlier of two times.
    #[inline]
    pub fn min(self, other: SimTime) -> SimTime {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }

    /// Saturating subtraction: `self - other`, clamped at zero.
    #[inline]
    pub fn saturating_sub(self, other: SimTime) -> SimTime {
        SimTime((self.0 - other.0).max(0.0))
    }

    /// True if this is exactly the zero time.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 == 0.0
    }
}

impl Eq for SimTime {}

// SimTime is never NaN (enforced at construction), so a total order exists.
#[expect(
    clippy::derive_ord_xor_partial_ord,
    reason = "the derived PartialOrd agrees with this Ord: SimTime is never NaN"
)]
impl Ord for SimTime {
    #[inline]
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0
            .partial_cmp(&other.0)
            .expect("SimTime is never NaN by construction")
    }
}

impl Add for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimTime {
        debug_assert!(self.0 >= rhs.0, "SimTime subtraction went negative");
        SimTime((self.0 - rhs.0).max(0.0))
    }
}

impl SubAssign for SimTime {
    #[inline]
    fn sub_assign(&mut self, rhs: SimTime) {
        *self = *self - rhs;
    }
}

impl Mul<f64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn mul(self, rhs: f64) -> SimTime {
        SimTime::from_secs(self.0 * rhs)
    }
}

impl Div<f64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn div(self, rhs: f64) -> SimTime {
        SimTime::from_secs(self.0 / rhs)
    }
}

impl Div<SimTime> for SimTime {
    type Output = f64;
    #[inline]
    fn div(self, rhs: SimTime) -> f64 {
        self.0 / rhs.0
    }
}

impl Sum for SimTime {
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        iter.fold(SimTime::ZERO, Add::add)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.0;
        if s == 0.0 {
            write!(f, "0 s")
        } else if s < 1e-6 {
            write!(f, "{:.1} ns", s * 1e9)
        } else if s < 1e-3 {
            write!(f, "{:.2} µs", s * 1e6)
        } else if s < 1.0 {
            write!(f, "{:.2} ms", s * 1e3)
        } else {
            write!(f, "{:.3} s", s)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_units() {
        assert_eq!(SimTime::from_micros(1.0).as_secs(), 1e-6);
        assert_eq!(SimTime::from_nanos(1.0).as_secs(), 1e-9);
        assert_eq!(SimTime::from_millis(1.0).as_secs(), 1e-3);
        assert_eq!(SimTime::from_secs(2.0).as_micros(), 2e6);
        assert_eq!(SimTime::from_secs(2.0).as_nanos(), 2e9);
    }

    #[test]
    fn ordering_is_total() {
        let a = SimTime::from_secs(1.0);
        let b = SimTime::from_secs(2.0);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        let mut v = vec![b, a, SimTime::ZERO];
        v.sort();
        assert_eq!(v, vec![SimTime::ZERO, a, b]);
    }

    #[test]
    fn arithmetic() {
        let a = SimTime::from_secs(1.5);
        let b = SimTime::from_secs(0.5);
        assert_eq!((a + b).as_secs(), 2.0);
        assert_eq!((a - b).as_secs(), 1.0);
        assert_eq!((a * 2.0).as_secs(), 3.0);
        assert_eq!((a / 3.0).as_secs(), 0.5);
        assert_eq!(a / b, 3.0);
        let mut c = a;
        c += b;
        assert_eq!(c.as_secs(), 2.0);
        c -= b;
        assert_eq!(c.as_secs(), 1.5);
    }

    #[test]
    fn saturating_sub_clamps() {
        let a = SimTime::from_secs(1.0);
        let b = SimTime::from_secs(2.0);
        assert_eq!(a.saturating_sub(b), SimTime::ZERO);
        assert_eq!(b.saturating_sub(a).as_secs(), 1.0);
    }

    #[test]
    fn sum_over_iterator() {
        let total: SimTime = (0..4).map(|i| SimTime::from_secs(i as f64)).sum();
        assert_eq!(total.as_secs(), 6.0);
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(format!("{}", SimTime::ZERO), "0 s");
        assert_eq!(format!("{}", SimTime::from_nanos(5.0)), "5.0 ns");
        assert_eq!(format!("{}", SimTime::from_micros(5.0)), "5.00 µs");
        assert_eq!(format!("{}", SimTime::from_millis(5.0)), "5.00 ms");
        assert_eq!(format!("{}", SimTime::from_secs(5.0)), "5.000 s");
    }

    #[test]
    fn is_zero() {
        assert!(SimTime::ZERO.is_zero());
        assert!(!SimTime::from_nanos(1.0).is_zero());
    }
}
