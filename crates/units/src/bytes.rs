//! Byte counts.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A count of bytes.
///
/// Used for page, subpage and message sizes throughout the workspace.
///
/// # Examples
///
/// ```
/// use gms_units::Bytes;
/// let page = Bytes::kib(8);
/// let subpage = Bytes::new(1024);
/// assert_eq!(page / subpage, 8);
/// assert_eq!(format!("{page}"), "8KiB");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Bytes(u64);

impl Bytes {
    /// Zero bytes.
    pub const ZERO: Bytes = Bytes(0);

    /// Creates a byte count.
    #[must_use]
    pub const fn new(n: u64) -> Self {
        Bytes(n)
    }

    /// Creates a count of `n` kibibytes (1024-byte units).
    ///
    /// # Panics
    ///
    /// Panics if the result overflows `u64`.
    #[must_use]
    pub const fn kib(n: u64) -> Self {
        Bytes(n * 1024)
    }

    /// Creates a count of `n` mebibytes.
    ///
    /// # Panics
    ///
    /// Panics if the result overflows `u64`.
    #[must_use]
    pub const fn mib(n: u64) -> Self {
        Bytes(n * 1024 * 1024)
    }

    /// The raw byte count.
    #[must_use]
    pub const fn get(self) -> u64 {
        self.0
    }

    /// True when the count is zero.
    #[must_use]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// True when the count is a power of two.
    #[must_use]
    pub const fn is_power_of_two(self) -> bool {
        self.0.is_power_of_two()
    }

    /// Saturating subtraction.
    #[must_use]
    pub const fn saturating_sub(self, rhs: Bytes) -> Bytes {
        Bytes(self.0.saturating_sub(rhs.0))
    }

    /// Division rounding up; how many `chunk`-sized messages cover `self`.
    ///
    /// # Panics
    ///
    /// Panics if `chunk` is zero.
    #[must_use]
    pub const fn div_ceil(self, chunk: Bytes) -> u64 {
        assert!(chunk.0 != 0, "chunk size must be non-zero");
        self.0.div_ceil(chunk.0)
    }

    /// The larger of two counts.
    #[must_use]
    pub fn max(self, other: Bytes) -> Bytes {
        Bytes(self.0.max(other.0))
    }

    /// The smaller of two counts.
    #[must_use]
    pub fn min(self, other: Bytes) -> Bytes {
        Bytes(self.0.min(other.0))
    }
}

impl Add for Bytes {
    type Output = Bytes;
    fn add(self, rhs: Bytes) -> Bytes {
        Bytes(self.0.checked_add(rhs.0).expect("byte count overflow"))
    }
}

impl AddAssign for Bytes {
    fn add_assign(&mut self, rhs: Bytes) {
        *self = *self + rhs;
    }
}

impl Sub for Bytes {
    type Output = Bytes;
    fn sub(self, rhs: Bytes) -> Bytes {
        Bytes(self.0.checked_sub(rhs.0).expect("byte count underflow"))
    }
}

impl SubAssign for Bytes {
    fn sub_assign(&mut self, rhs: Bytes) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for Bytes {
    type Output = Bytes;
    fn mul(self, rhs: u64) -> Bytes {
        Bytes(self.0.checked_mul(rhs).expect("byte count overflow"))
    }
}

/// Whole number of `rhs`-sized units in `self` (truncating).
impl Div<Bytes> for Bytes {
    type Output = u64;
    fn div(self, rhs: Bytes) -> u64 {
        assert!(rhs.0 != 0, "division by zero bytes");
        self.0 / rhs.0
    }
}

impl Sum for Bytes {
    fn sum<I: Iterator<Item = Bytes>>(iter: I) -> Bytes {
        iter.fold(Bytes::ZERO, Add::add)
    }
}

impl From<u64> for Bytes {
    fn from(n: u64) -> Bytes {
        Bytes(n)
    }
}

impl fmt::Display for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let n = self.0;
        if n >= 1024 * 1024 && n.is_multiple_of(1024 * 1024) {
            write!(f, "{}MiB", n / (1024 * 1024))
        } else if n >= 1024 && n.is_multiple_of(1024) {
            write!(f, "{}KiB", n / 1024)
        } else {
            write!(f, "{n}B")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        assert_eq!(Bytes::kib(8).get(), 8192);
        assert_eq!(Bytes::mib(1).get(), 1024 * 1024);
        assert_eq!(Bytes::from(7u64), Bytes::new(7));
    }

    #[test]
    fn arithmetic() {
        let a = Bytes::new(100);
        let b = Bytes::new(30);
        assert_eq!(a + b, Bytes::new(130));
        assert_eq!(a - b, Bytes::new(70));
        assert_eq!(a * 2, Bytes::new(200));
        assert_eq!(a / b, 3);
        assert_eq!(b.saturating_sub(a), Bytes::ZERO);
    }

    #[test]
    fn div_ceil_counts_messages() {
        assert_eq!(Bytes::kib(8).div_ceil(Bytes::new(4096)), 2);
        assert_eq!(Bytes::new(8193).div_ceil(Bytes::new(4096)), 3);
        assert_eq!(Bytes::ZERO.div_ceil(Bytes::new(1)), 0);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn div_ceil_zero_chunk_panics() {
        let _ = Bytes::kib(8).div_ceil(Bytes::ZERO);
    }

    #[test]
    fn power_of_two_check() {
        assert!(Bytes::new(256).is_power_of_two());
        assert!(!Bytes::new(768).is_power_of_two());
        assert!(!Bytes::ZERO.is_power_of_two());
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(format!("{}", Bytes::new(256)), "256B");
        assert_eq!(format!("{}", Bytes::kib(2)), "2KiB");
        assert_eq!(format!("{}", Bytes::mib(3)), "3MiB");
        assert_eq!(format!("{}", Bytes::new(1500)), "1500B");
    }

    #[test]
    fn sum_and_order() {
        let total: Bytes = (1..=3).map(Bytes::kib).sum();
        assert_eq!(total, Bytes::kib(6));
        assert_eq!(Bytes::new(1).max(Bytes::new(2)), Bytes::new(2));
        assert_eq!(Bytes::new(1).min(Bytes::new(2)), Bytes::new(1));
    }
}
