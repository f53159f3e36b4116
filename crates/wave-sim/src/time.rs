//! Virtual time.
//!
//! All latencies in the Wave reproduction are integer nanoseconds, which is
//! the natural unit of the paper's Table 2 (e.g. a 64-bit host MMIO read is
//! 750 ns). A `u64` of nanoseconds covers ~584 years of simulated time.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in (or span of) virtual time, in nanoseconds.
///
/// `SimTime` is used both as an absolute timestamp and as a duration; the
/// arithmetic is saturating on subtraction so latency bookkeeping can never
/// underflow.
///
/// # Examples
///
/// ```
/// use wave_sim::SimTime;
/// let t = SimTime::from_us(3) + SimTime::from_ns(500);
/// assert_eq!(t.as_ns(), 3_500);
/// assert_eq!(t.as_us_f64(), 3.5);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The zero timestamp (simulation start).
    pub const ZERO: SimTime = SimTime(0);
    /// The maximum representable timestamp.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates a time from nanoseconds.
    pub const fn from_ns(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Creates a time from microseconds.
    pub const fn from_us(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Creates a time from milliseconds.
    pub const fn from_ms(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Creates a time from seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// Nanosecond count.
    pub const fn as_ns(self) -> u64 {
        self.0
    }

    /// Fractional microseconds.
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Fractional milliseconds.
    pub fn as_ms_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating subtraction; returns [`SimTime::ZERO`] rather than
    /// underflowing.
    pub fn saturating_sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }

    /// The later of two times.
    pub fn max(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.max(rhs.0))
    }

    /// The earlier of two times.
    pub fn min(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.min(rhs.0))
    }

    /// Scales a duration by a dimensionless factor, rounding to
    /// nanoseconds. Useful for cycle-rate conversions (e.g. running a
    /// compute phase on a slower SmartNIC core).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or not finite.
    pub fn scale(self, factor: f64) -> SimTime {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "invalid scale factor: {factor}"
        );
        SimTime((self.0 as f64 * factor).round() as u64)
    }
}

impl Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    /// # Panics
    ///
    /// Panics on underflow in debug builds (like integer subtraction).
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl SubAssign for SimTime {
    fn sub_assign(&mut self, rhs: SimTime) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimTime {
    type Output = SimTime;
    fn mul(self, rhs: u64) -> SimTime {
        SimTime(self.0 * rhs)
    }
}

impl Div<u64> for SimTime {
    type Output = SimTime;
    fn div(self, rhs: u64) -> SimTime {
        SimTime(self.0 / rhs)
    }
}

impl Sum for SimTime {
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        iter.fold(SimTime::ZERO, Add::add)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SimTime({}ns)", self.0)
    }
}

impl fmt::Display for SimTime {
    /// Human-readable rendering with an adaptive unit.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns < 10_000 {
            write!(f, "{ns}ns")
        } else if ns < 10_000_000 {
            write!(f, "{:.2}us", ns as f64 / 1e3)
        } else if ns < 10_000_000_000 {
            write!(f, "{:.2}ms", ns as f64 / 1e6)
        } else {
            write!(f, "{:.3}s", ns as f64 / 1e9)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimTime::from_us(1), SimTime::from_ns(1_000));
        assert_eq!(SimTime::from_ms(1), SimTime::from_us(1_000));
        assert_eq!(SimTime::from_secs(1), SimTime::from_ms(1_000));
    }

    #[test]
    fn arithmetic() {
        let a = SimTime::from_ns(100);
        let b = SimTime::from_ns(40);
        assert_eq!((a + b).as_ns(), 140);
        assert_eq!((a - b).as_ns(), 60);
        assert_eq!(b.saturating_sub(a), SimTime::ZERO);
        assert_eq!((a * 3).as_ns(), 300);
        assert_eq!((a / 4).as_ns(), 25);
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
    }

    #[test]
    fn scale_rounds() {
        assert_eq!(SimTime::from_ns(100).scale(1.5).as_ns(), 150);
        assert_eq!(SimTime::from_ns(3).scale(0.5).as_ns(), 2); // banker's-free round
        assert_eq!(SimTime::from_ns(100).scale(0.0), SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "invalid scale factor")]
    fn scale_rejects_nan() {
        let _ = SimTime::from_ns(1).scale(f64::NAN);
    }

    #[test]
    fn display_units() {
        assert_eq!(SimTime::from_ns(750).to_string(), "750ns");
        assert_eq!(SimTime::from_us(42).to_string(), "42.00us");
        assert_eq!(SimTime::from_ms(13).to_string(), "13.00ms");
        assert_eq!(SimTime::from_secs(38).to_string(), "38.000s");
    }

    #[test]
    fn sum_iterator() {
        let total: SimTime = (1..=4).map(SimTime::from_ns).sum();
        assert_eq!(total.as_ns(), 10);
    }
}
