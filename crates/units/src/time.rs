//! Simulation time: absolute instants ([`SimTime`]) and spans
//! ([`Duration`]), both with nanosecond resolution.
//!
//! The paper's simulator uses memory accesses as clock events at 12 ns per
//! access, so "83,000 events correspond to one millisecond" (§3.2). We keep
//! the underlying clock in nanoseconds and let the engine convert events to
//! nanoseconds with its configured per-reference cost.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A span of simulated time, in nanoseconds.
///
/// # Examples
///
/// ```
/// use gms_units::Duration;
/// let d = Duration::from_micros(270);
/// assert_eq!(d.as_nanos(), 270_000);
/// assert_eq!(format!("{d}"), "270.000us");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(u64);

impl Duration {
    /// The zero-length span.
    pub const ZERO: Duration = Duration(0);

    /// Creates a span of `ns` nanoseconds.
    #[must_use]
    pub const fn from_nanos(ns: u64) -> Self {
        Duration(ns)
    }

    /// Creates a span of `us` microseconds.
    ///
    /// # Panics
    ///
    /// Panics if the value overflows `u64` nanoseconds.
    #[must_use]
    pub const fn from_micros(us: u64) -> Self {
        Duration(us * 1_000)
    }

    /// Creates a span of `ms` milliseconds.
    ///
    /// # Panics
    ///
    /// Panics if the value overflows `u64` nanoseconds.
    #[must_use]
    pub const fn from_millis(ms: u64) -> Self {
        Duration(ms * 1_000_000)
    }

    /// Creates a span from a fractional number of milliseconds, rounding to
    /// the nearest nanosecond. Negative inputs are clamped to zero.
    #[must_use]
    pub fn from_millis_f64(ms: f64) -> Self {
        if ms <= 0.0 {
            return Duration::ZERO;
        }
        Duration((ms * 1e6).round() as u64)
    }

    /// Creates a span from a fractional number of seconds, rounding to the
    /// nearest nanosecond. Negative inputs are clamped to zero.
    #[must_use]
    pub fn from_secs_f64(secs: f64) -> Self {
        if secs <= 0.0 {
            return Duration::ZERO;
        }
        Duration((secs * 1e9).round() as u64)
    }

    /// The span in whole nanoseconds.
    #[must_use]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// The span as fractional microseconds.
    #[must_use]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// The span as fractional milliseconds.
    #[must_use]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// The span as fractional seconds.
    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating subtraction: returns zero instead of underflowing.
    #[must_use]
    pub const fn saturating_sub(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_sub(rhs.0))
    }

    /// Checked addition.
    #[must_use]
    pub const fn checked_add(self, rhs: Duration) -> Option<Duration> {
        match self.0.checked_add(rhs.0) {
            Some(v) => Some(Duration(v)),
            None => None,
        }
    }

    /// The larger of two spans.
    #[must_use]
    pub fn max(self, other: Duration) -> Duration {
        Duration(self.0.max(other.0))
    }

    /// The smaller of two spans.
    #[must_use]
    pub fn min(self, other: Duration) -> Duration {
        Duration(self.0.min(other.0))
    }

    /// Multiplies by a non-negative floating factor, rounding to the
    /// nearest nanosecond.
    #[must_use]
    pub fn mul_f64(self, factor: f64) -> Duration {
        debug_assert!(factor >= 0.0, "duration factor must be non-negative");
        Duration((self.0 as f64 * factor).round() as u64)
    }
}

impl Add for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0.checked_add(rhs.0).expect("duration overflow"))
    }
}

impl AddAssign for Duration {
    fn add_assign(&mut self, rhs: Duration) {
        *self = *self + rhs;
    }
}

impl Sub for Duration {
    type Output = Duration;
    fn sub(self, rhs: Duration) -> Duration {
        Duration(self.0.checked_sub(rhs.0).expect("duration underflow"))
    }
}

impl SubAssign for Duration {
    fn sub_assign(&mut self, rhs: Duration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for Duration {
    type Output = Duration;
    fn mul(self, rhs: u64) -> Duration {
        Duration(self.0.checked_mul(rhs).expect("duration overflow"))
    }
}

impl Div<u64> for Duration {
    type Output = Duration;
    fn div(self, rhs: u64) -> Duration {
        Duration(self.0 / rhs)
    }
}

impl Sum for Duration {
    fn sum<I: Iterator<Item = Duration>>(iter: I) -> Duration {
        iter.fold(Duration::ZERO, Add::add)
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if ns >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else if ns >= 1_000 {
            write!(f, "{:.3}us", self.as_micros_f64())
        } else {
            write!(f, "{ns}ns")
        }
    }
}

/// An absolute instant on the simulation clock, in nanoseconds since the
/// start of the run.
///
/// # Examples
///
/// ```
/// use gms_units::{Duration, SimTime};
/// let t = SimTime::ZERO + Duration::from_micros(520);
/// assert_eq!(t.elapsed_since(SimTime::ZERO), Duration::from_micros(520));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The start of simulated time.
    pub const ZERO: SimTime = SimTime(0);

    /// The far future: later than every reachable instant. Useful as a
    /// sentinel deadline ("no other node constrains this one"); adding
    /// any non-zero [`Duration`] to it overflows, so treat it as a bound
    /// for comparisons, not a real point on the clock.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant `ns` nanoseconds after the start of the run.
    #[must_use]
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Nanoseconds since the start of the run.
    #[must_use]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Fractional milliseconds since the start of the run.
    #[must_use]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// The span from `earlier` to `self`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is after `self`.
    #[must_use]
    pub fn elapsed_since(self, earlier: SimTime) -> Duration {
        Duration(
            self.0
                .checked_sub(earlier.0)
                .expect("elapsed_since: earlier instant is in the future"),
        )
    }

    /// The span from `earlier` to `self`, or zero if `earlier` is later.
    #[must_use]
    pub const fn saturating_since(self, earlier: SimTime) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }

    /// The later of two instants.
    #[must_use]
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    /// The earlier of two instants.
    #[must_use]
    pub fn min(self, other: SimTime) -> SimTime {
        SimTime(self.0.min(other.0))
    }
}

impl Add<Duration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: Duration) -> SimTime {
        SimTime(
            self.0
                .checked_add(rhs.as_nanos())
                .expect("sim clock overflow"),
        )
    }
}

impl AddAssign<Duration> for SimTime {
    fn add_assign(&mut self, rhs: Duration) {
        *self = *self + rhs;
    }
}

impl Sub<Duration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: Duration) -> SimTime {
        SimTime(
            self.0
                .checked_sub(rhs.as_nanos())
                .expect("sim clock underflow"),
        )
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}", Duration(self.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(Duration::from_micros(1), Duration::from_nanos(1_000));
        assert_eq!(Duration::from_millis(1), Duration::from_micros(1_000));
        assert_eq!(Duration::from_millis_f64(1.5), Duration::from_micros(1_500));
        assert_eq!(Duration::from_secs_f64(0.001), Duration::from_millis(1));
    }

    #[test]
    fn duration_negative_float_clamps_to_zero() {
        assert_eq!(Duration::from_millis_f64(-3.0), Duration::ZERO);
        assert_eq!(Duration::from_secs_f64(-0.1), Duration::ZERO);
    }

    #[test]
    fn duration_arithmetic() {
        let a = Duration::from_micros(10);
        let b = Duration::from_micros(4);
        assert_eq!(a + b, Duration::from_micros(14));
        assert_eq!(a - b, Duration::from_micros(6));
        assert_eq!(a * 3, Duration::from_micros(30));
        assert_eq!(a / 2, Duration::from_micros(5));
        assert_eq!(b.saturating_sub(a), Duration::ZERO);
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
    }

    #[test]
    #[should_panic(expected = "duration underflow")]
    fn duration_sub_underflow_panics() {
        let _ = Duration::from_nanos(1) - Duration::from_nanos(2);
    }

    #[test]
    fn duration_mul_f64_rounds() {
        assert_eq!(
            Duration::from_nanos(10).mul_f64(0.25),
            Duration::from_nanos(3)
        );
        assert_eq!(
            Duration::from_nanos(100).mul_f64(1.5),
            Duration::from_nanos(150)
        );
    }

    #[test]
    fn duration_sum() {
        let total: Duration = (1..=4).map(Duration::from_micros).sum();
        assert_eq!(total, Duration::from_micros(10));
    }

    #[test]
    fn duration_display_picks_unit() {
        assert_eq!(format!("{}", Duration::from_nanos(12)), "12ns");
        assert_eq!(format!("{}", Duration::from_micros(520)), "520.000us");
        assert_eq!(format!("{}", Duration::from_millis_f64(1.48)), "1.480ms");
        assert_eq!(format!("{}", Duration::from_secs_f64(2.0)), "2.000s");
    }

    #[test]
    fn simtime_advances_and_measures() {
        let mut t = SimTime::ZERO;
        t += Duration::from_micros(270);
        t += Duration::from_micros(250);
        assert_eq!(t.elapsed_since(SimTime::ZERO), Duration::from_micros(520));
        assert_eq!(t.as_millis_f64(), 0.52);
    }

    #[test]
    fn simtime_saturating_since_clamps() {
        let early = SimTime::from_nanos(5);
        let late = SimTime::from_nanos(9);
        assert_eq!(early.saturating_since(late), Duration::ZERO);
        assert_eq!(late.saturating_since(early), Duration::from_nanos(4));
    }

    #[test]
    #[should_panic(expected = "in the future")]
    fn simtime_elapsed_since_future_panics() {
        let _ = SimTime::ZERO.elapsed_since(SimTime::from_nanos(1));
    }

    #[test]
    fn simtime_max_bounds_every_instant() {
        assert!(SimTime::MAX > SimTime::from_nanos(u64::MAX - 1));
        assert_eq!(SimTime::MAX.max(SimTime::ZERO), SimTime::MAX);
        assert_eq!(SimTime::MAX.min(SimTime::ZERO), SimTime::ZERO);
    }

    #[test]
    fn simtime_ordering_helpers() {
        let a = SimTime::from_nanos(3);
        let b = SimTime::from_nanos(7);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }
}
