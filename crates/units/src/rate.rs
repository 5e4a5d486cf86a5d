//! Transfer rates.

use core::fmt;

use crate::{Bytes, Duration};

/// A data-transfer rate in bytes per second.
///
/// # Examples
///
/// ```
/// use gms_units::{Bytes, BytesPerSec, Duration};
/// let ether = BytesPerSec::from_bits_per_sec(10_000_000);
/// assert_eq!(ether.time_for(Bytes::new(1250)), Duration::from_millis(1));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BytesPerSec(u64);

impl BytesPerSec {
    /// Creates a rate from bytes per second.
    ///
    /// # Panics
    ///
    /// Panics if `bytes_per_sec` is zero; a zero rate would make every
    /// transfer take forever.
    #[must_use]
    pub fn new(bytes_per_sec: u64) -> Self {
        assert!(bytes_per_sec > 0, "transfer rate must be non-zero");
        BytesPerSec(bytes_per_sec)
    }

    /// Creates a rate from bits per second (the unit networks are marketed
    /// in: AN2 ATM is 155 Mb/s, classic Ethernet 10 Mb/s).
    ///
    /// # Panics
    ///
    /// Panics if the rate rounds down to zero bytes per second.
    #[must_use]
    pub fn from_bits_per_sec(bits_per_sec: u64) -> Self {
        BytesPerSec::new(bits_per_sec / 8)
    }

    /// The rate in bytes per second.
    #[must_use]
    pub const fn get(self) -> u64 {
        self.0
    }

    /// Time to move `amount` at this rate, rounded to the nearest
    /// nanosecond.
    #[must_use]
    pub fn time_for(self, amount: Bytes) -> Duration {
        // 128-bit intermediate: ns = bytes * 1e9 / rate without overflow.
        let ns = (amount.get() as u128 * 1_000_000_000u128) / self.0 as u128;
        Duration::from_nanos(ns as u64)
    }

    /// Time per single byte as a fractional number of nanoseconds.
    #[must_use]
    pub fn nanos_per_byte(self) -> f64 {
        1e9 / self.0 as f64
    }

    /// Scales the effective rate by `factor` (e.g. 0.5 for a link running
    /// at half its nominal throughput under load).
    ///
    /// # Panics
    ///
    /// Panics if the scaled rate rounds down to zero.
    #[must_use]
    pub fn scaled(self, factor: f64) -> BytesPerSec {
        debug_assert!(factor > 0.0, "rate factor must be positive");
        BytesPerSec::new((self.0 as f64 * factor).round() as u64)
    }
}

impl fmt::Display for BytesPerSec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mbps = self.0 as f64 * 8.0 / 1e6;
        write!(f, "{mbps:.1}Mb/s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atm_wire_time_for_a_page() {
        // 8 KB over 155 Mb/s is about 423 microseconds.
        let atm = BytesPerSec::from_bits_per_sec(155_000_000);
        let t = atm.time_for(Bytes::kib(8));
        let us = t.as_micros_f64();
        assert!((420.0..=426.0).contains(&us), "got {us} us");
    }

    #[test]
    fn time_scales_linearly() {
        let r = BytesPerSec::new(1_000_000);
        assert_eq!(r.time_for(Bytes::new(1000)), Duration::from_millis(1));
        assert_eq!(r.time_for(Bytes::new(2000)), Duration::from_millis(2));
        assert_eq!(r.time_for(Bytes::ZERO), Duration::ZERO);
    }

    #[test]
    fn scaled_rate_halves_throughput() {
        let r = BytesPerSec::new(2_000_000).scaled(0.5);
        assert_eq!(r.get(), 1_000_000);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_rate_panics() {
        let _ = BytesPerSec::new(0);
    }

    #[test]
    fn display_in_megabits() {
        let atm = BytesPerSec::from_bits_per_sec(155_000_000);
        // 155 Mb/s loses a fraction to the /8 truncation.
        assert_eq!(format!("{atm}"), "155.0Mb/s");
    }

    #[test]
    fn nanos_per_byte_matches_time_for() {
        let r = BytesPerSec::from_bits_per_sec(155_000_000);
        let per_byte = r.nanos_per_byte();
        let direct = r.time_for(Bytes::new(10_000)).as_nanos() as f64;
        assert!((per_byte * 10_000.0 - direct).abs() < 2.0);
    }
}
