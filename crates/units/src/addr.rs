//! Virtual addresses.

use core::fmt;
use core::ops::{Add, Sub};

use crate::Bytes;

/// A virtual address in the traced application's address space.
///
/// Traces are sequences of [`VirtAddr`] accesses; the memory subsystem
/// decomposes them into page and subpage indices.
///
/// # Examples
///
/// ```
/// use gms_units::{Bytes, VirtAddr};
/// let a = VirtAddr::new(0x1_0000_2345);
/// assert_eq!(a + Bytes::new(0x10), VirtAddr::new(0x1_0000_2355));
/// assert_eq!(format!("{a}"), "0x100002345");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VirtAddr(u64);

impl VirtAddr {
    /// Creates an address from its raw value.
    #[must_use]
    pub const fn new(raw: u64) -> Self {
        VirtAddr(raw)
    }

    /// The raw address value.
    #[must_use]
    pub const fn get(self) -> u64 {
        self.0
    }

    /// The address rounded down to a multiple of `align`.
    ///
    /// # Panics
    ///
    /// Panics if `align` is not a power of two.
    #[must_use]
    pub fn align_down(self, align: Bytes) -> VirtAddr {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        VirtAddr(self.0 & !(align.get() - 1))
    }

    /// The offset of this address within an `align`-sized naturally-aligned
    /// block.
    ///
    /// # Panics
    ///
    /// Panics if `align` is not a power of two.
    #[must_use]
    pub fn offset_in(self, align: Bytes) -> Bytes {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        Bytes::new(self.0 & (align.get() - 1))
    }

    /// Checked addition of a byte offset.
    #[must_use]
    pub fn checked_add(self, offset: Bytes) -> Option<VirtAddr> {
        self.0.checked_add(offset.get()).map(VirtAddr)
    }
}

impl Add<Bytes> for VirtAddr {
    type Output = VirtAddr;
    fn add(self, rhs: Bytes) -> VirtAddr {
        VirtAddr(self.0.checked_add(rhs.get()).expect("address overflow"))
    }
}

impl Sub<Bytes> for VirtAddr {
    type Output = VirtAddr;
    fn sub(self, rhs: Bytes) -> VirtAddr {
        VirtAddr(self.0.checked_sub(rhs.get()).expect("address underflow"))
    }
}

/// Byte distance between two addresses.
impl Sub<VirtAddr> for VirtAddr {
    type Output = Bytes;
    fn sub(self, rhs: VirtAddr) -> Bytes {
        Bytes::new(
            self.0
                .checked_sub(rhs.0)
                .expect("address distance underflow"),
        )
    }
}

impl From<u64> for VirtAddr {
    fn from(raw: u64) -> VirtAddr {
        VirtAddr(raw)
    }
}

impl fmt::Display for VirtAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alignment_helpers() {
        let a = VirtAddr::new(0x2345);
        assert_eq!(a.align_down(Bytes::new(0x1000)), VirtAddr::new(0x2000));
        assert_eq!(a.offset_in(Bytes::new(0x1000)), Bytes::new(0x345));
        // Already aligned stays put.
        assert_eq!(
            VirtAddr::new(0x4000).align_down(Bytes::new(0x1000)),
            VirtAddr::new(0x4000)
        );
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn align_down_rejects_non_power_of_two() {
        let _ = VirtAddr::new(0x100).align_down(Bytes::new(768));
    }

    #[test]
    fn address_arithmetic() {
        let a = VirtAddr::new(100);
        assert_eq!(a + Bytes::new(28), VirtAddr::new(128));
        assert_eq!(VirtAddr::new(128) - Bytes::new(28), a);
        assert_eq!(VirtAddr::new(128) - a, Bytes::new(28));
        assert_eq!(a.checked_add(Bytes::new(u64::MAX)), None);
    }

    #[test]
    fn display_is_hex() {
        assert_eq!(format!("{}", VirtAddr::new(0xdead)), "0xdead");
    }
}
