//! Per-page subpage valid-bit masks.

use core::fmt;

use crate::SubpageIndex;

/// The set of valid (resident) subpages of one page.
///
/// The prototype "keeps 32 subpage valid bits for each page"; this mask
/// generalizes to any 1–64 subpages per page.
///
/// # Examples
///
/// ```
/// use gms_mem::{SubpageIndex, SubpageMask};
///
/// let mut mask = SubpageMask::empty(8);
/// mask.set(SubpageIndex::new(3));
/// assert!(mask.contains(SubpageIndex::new(3)));
/// assert!(!mask.is_full());
/// assert_eq!(mask.count(), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SubpageMask {
    bits: u64,
    n: u32,
}

impl SubpageMask {
    /// The most subpages one mask (and so one page) can track.
    pub const MAX_WIDTH: u32 = u64::BITS;

    /// A mask over `n` subpages with none valid.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not in `1..=64`.
    #[must_use]
    pub fn empty(n: u32) -> Self {
        assert!(
            (1..=Self::MAX_WIDTH).contains(&n),
            "mask width {n} out of range"
        );
        SubpageMask { bits: 0, n }
    }

    /// A mask over `n` subpages with all valid.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not in `1..=64`.
    #[must_use]
    pub fn full(n: u32) -> Self {
        let mut mask = SubpageMask::empty(n);
        mask.bits = if n == 64 { u64::MAX } else { (1u64 << n) - 1 };
        mask
    }

    /// A mask over `n` subpages with only `i` valid.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not in `1..=64` or `i` is outside the mask.
    #[must_use]
    pub fn single(n: u32, i: SubpageIndex) -> Self {
        let mut mask = SubpageMask::empty(n);
        mask.set(i);
        mask
    }

    /// Number of subpages tracked by this mask.
    #[must_use]
    pub const fn width(self) -> u32 {
        self.n
    }

    /// The raw word: bit `i` is set when subpage `i` is valid.
    #[must_use]
    pub const fn bits(self) -> u64 {
        self.bits
    }

    /// Marks subpage `i` valid. Returns `true` if it was newly set.
    ///
    /// # Panics
    ///
    /// Panics if `i` is outside the mask.
    pub fn set(&mut self, i: SubpageIndex) -> bool {
        self.check(i);
        let bit = 1u64 << i.get();
        let fresh = self.bits & bit == 0;
        self.bits |= bit;
        fresh
    }

    /// Marks subpage `i` invalid. Returns `true` if it was set.
    ///
    /// # Panics
    ///
    /// Panics if `i` is outside the mask.
    pub fn clear(&mut self, i: SubpageIndex) -> bool {
        self.check(i);
        let bit = 1u64 << i.get();
        let was = self.bits & bit != 0;
        self.bits &= !bit;
        was
    }

    /// Whether subpage `i` is valid.
    ///
    /// # Panics
    ///
    /// Panics if `i` is outside the mask.
    #[must_use]
    pub fn contains(self, i: SubpageIndex) -> bool {
        self.check(i);
        self.bits & (1u64 << i.get()) != 0
    }

    /// Whether every subpage is valid — the page is complete and full
    /// hardware access can be re-enabled.
    #[must_use]
    pub fn is_full(self) -> bool {
        self == SubpageMask::full(self.n)
    }

    /// Whether no subpage is valid.
    #[must_use]
    pub fn is_empty(self) -> bool {
        self.bits == 0
    }

    /// Number of valid subpages.
    #[must_use]
    pub const fn count(self) -> u32 {
        self.bits.count_ones()
    }

    /// Iterates over the valid subpage indices, ascending.
    pub fn iter(self) -> impl Iterator<Item = SubpageIndex> {
        (0..self.n as u8)
            .filter(move |i| self.bits & (1u64 << i) != 0)
            .map(SubpageIndex::new)
    }

    /// Iterates over the *missing* subpage indices, ascending.
    pub fn missing(self) -> impl Iterator<Item = SubpageIndex> {
        (0..self.n as u8)
            .filter(move |i| self.bits & (1u64 << i) == 0)
            .map(SubpageIndex::new)
    }

    /// In-place union with another mask of the same width.
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    pub fn union_with(&mut self, other: SubpageMask) {
        assert_eq!(self.n, other.n, "mask width mismatch");
        self.bits |= other.bits;
    }

    /// The subpages valid here but not in `other`, a mask of the same
    /// width.
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    #[must_use]
    pub fn difference(self, other: SubpageMask) -> SubpageMask {
        assert_eq!(self.n, other.n, "mask width mismatch");
        SubpageMask {
            bits: self.bits & !other.bits,
            n: self.n,
        }
    }

    fn check(self, i: SubpageIndex) {
        assert!(
            (i.get() as u32) < self.n,
            "subpage {i} outside mask of width {}",
            self.n
        );
    }
}

impl fmt::Display for SubpageMask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in (0..self.n as u8).rev() {
            let bit = self.bits & (1u64 << i) != 0;
            f.write_str(if bit { "1" } else { "." })?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_full() {
        assert_eq!(SubpageMask::empty(8).count(), 0);
        assert!(SubpageMask::empty(8).is_empty());
        assert!(SubpageMask::full(8).is_full());
        assert_eq!(SubpageMask::full(8).count(), 8);
        assert!(SubpageMask::full(64).is_full());
        assert_eq!(SubpageMask::full(1).count(), 1);
    }

    #[test]
    fn set_reports_freshness() {
        let mut m = SubpageMask::empty(4);
        assert!(m.set(SubpageIndex::new(2)));
        assert!(!m.set(SubpageIndex::new(2)));
        assert_eq!(m.count(), 1);
    }

    #[test]
    fn clear_reports_presence() {
        let mut m = SubpageMask::full(4);
        assert!(m.clear(SubpageIndex::new(0)));
        assert!(!m.clear(SubpageIndex::new(0)));
        assert!(!m.is_full());
        assert_eq!(m.count(), 3);
    }

    #[test]
    fn filling_one_by_one_reaches_full() {
        let mut m = SubpageMask::empty(8);
        for i in 0..8 {
            assert!(!m.is_full());
            m.set(SubpageIndex::new(i));
        }
        assert!(m.is_full());
    }

    #[test]
    fn iter_and_missing_partition_the_width() {
        let mut m = SubpageMask::empty(8);
        m.set(SubpageIndex::new(1));
        m.set(SubpageIndex::new(6));
        let present: Vec<u8> = m.iter().map(|i| i.get()).collect();
        let missing: Vec<u8> = m.missing().map(|i| i.get()).collect();
        assert_eq!(present, vec![1, 6]);
        assert_eq!(missing, vec![0, 2, 3, 4, 5, 7]);
    }

    #[test]
    fn union_combines() {
        let mut a = SubpageMask::empty(8);
        a.set(SubpageIndex::new(0));
        let mut b = SubpageMask::empty(8);
        b.set(SubpageIndex::new(7));
        a.union_with(b);
        assert_eq!(a.count(), 2);
        assert!(a.contains(SubpageIndex::new(7)));
    }

    #[test]
    fn single_bits_and_difference() {
        let top = SubpageMask::single(64, SubpageIndex::new(63));
        assert_eq!(top.bits(), 1 << 63);
        let rest = SubpageMask::full(64).difference(top);
        assert_eq!(rest.count(), 63);
        assert!(!rest.contains(SubpageIndex::new(63)));
        assert!(rest.difference(rest).is_empty());
    }

    #[test]
    #[should_panic(expected = "outside mask")]
    fn out_of_width_access_panics() {
        let m = SubpageMask::empty(4);
        let _ = m.contains(SubpageIndex::new(4));
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn union_width_mismatch_panics() {
        let mut a = SubpageMask::empty(4);
        a.union_with(SubpageMask::empty(8));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn zero_width_panics() {
        let _ = SubpageMask::empty(0);
    }

    #[test]
    fn display_draws_bits_msb_first() {
        let mut m = SubpageMask::empty(4);
        m.set(SubpageIndex::new(0));
        m.set(SubpageIndex::new(3));
        assert_eq!(format!("{m}"), "1..1");
    }
}
