//! Run-length-encoded trace operations.
//!
//! A [`Run`] is `count` references starting at `start`, each `stride` bytes
//! after the previous one. The paper's traces contain ~10⁸ references;
//! run-length encoding lets the simulator consume them in O(page
//! crossings) rather than O(references).

use core::fmt;

use gms_units::{Bytes, VirtAddr};

use crate::{Access, AccessKind};

/// A strided burst of memory references.
///
/// # Examples
///
/// ```
/// use gms_trace::{AccessKind, Run};
/// use gms_units::VirtAddr;
///
/// // A sequential 8-byte-element scan of one 1 KB buffer.
/// let run = Run::new(VirtAddr::new(0x8000), 8, 128, AccessKind::Read);
/// assert_eq!(run.count(), 128);
/// assert_eq!(run.last_addr(), VirtAddr::new(0x8000 + 127 * 8));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Run {
    start: VirtAddr,
    stride: i64,
    count: u64,
    kind: AccessKind,
}

impl Run {
    /// Creates a run of `count` references beginning at `start` and moving
    /// `stride` bytes per reference (negative strides walk downward).
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero, or if the final address would leave the
    /// `u64` address space.
    #[must_use]
    pub fn new(start: VirtAddr, stride: i64, count: u64, kind: AccessKind) -> Self {
        assert!(count > 0, "a run must contain at least one reference");
        // Validate that every address in the run is representable.
        let span = (count - 1).checked_mul(stride.unsigned_abs());
        let last = span.and_then(|s| {
            if stride >= 0 {
                start.get().checked_add(s)
            } else {
                start.get().checked_sub(s)
            }
        });
        assert!(last.is_some(), "run walks outside the address space");
        Run {
            start,
            stride,
            count,
            kind,
        }
    }

    /// A run consisting of a single reference.
    #[must_use]
    pub fn single(addr: VirtAddr, kind: AccessKind) -> Self {
        Run::new(addr, 0, 1, kind)
    }

    /// First referenced address.
    #[must_use]
    pub const fn start(self) -> VirtAddr {
        self.start
    }

    /// Byte distance between consecutive references.
    #[must_use]
    pub const fn stride(self) -> i64 {
        self.stride
    }

    /// Number of references in the run.
    #[must_use]
    pub const fn count(self) -> u64 {
        self.count
    }

    /// Whether the references read or write.
    #[must_use]
    pub const fn kind(self) -> AccessKind {
        self.kind
    }

    /// The address of reference `i` (zero-based).
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.count()`.
    #[must_use]
    pub fn addr_at(self, i: u64) -> VirtAddr {
        assert!(i < self.count, "reference index {i} out of range");
        let delta = i as i128 * self.stride as i128;
        VirtAddr::new((self.start.get() as i128 + delta) as u64)
    }

    /// The address of the final reference.
    #[must_use]
    pub fn last_addr(self) -> VirtAddr {
        self.addr_at(self.count - 1)
    }

    /// The lowest and highest addresses touched by the run.
    #[must_use]
    pub fn bounds(self) -> (VirtAddr, VirtAddr) {
        let last = self.last_addr();
        if last < self.start {
            (last, self.start)
        } else {
            (self.start, last)
        }
    }

    /// Total bytes between the lowest and highest touched address,
    /// inclusive of one element. Useful as a footprint estimate.
    #[must_use]
    pub fn span(self) -> Bytes {
        let (lo, hi) = self.bounds();
        (hi - lo) + Bytes::new(1)
    }

    /// Splits the run after `i` references: `(first_i, rest)`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is zero or `i >= self.count()` (both halves must be
    /// non-empty).
    #[must_use]
    pub fn split_at(self, i: u64) -> (Run, Run) {
        assert!(i > 0 && i < self.count, "split point must be interior");
        let first = Run { count: i, ..self };
        let rest = Run {
            start: self.addr_at(i),
            count: self.count - i,
            ..self
        };
        (first, rest)
    }

    /// Iterates over the individual [`Access`]es of the run.
    pub fn iter(self) -> RunIter {
        RunIter { run: self, next: 0 }
    }
}

impl IntoIterator for Run {
    type Item = Access;
    type IntoIter = RunIter;
    fn into_iter(self) -> RunIter {
        self.iter()
    }
}

impl fmt::Display for Run {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} x{} stride {:+}",
            self.kind, self.start, self.count, self.stride
        )
    }
}

/// Iterator over a run's individual references. Created by [`Run::iter`].
#[derive(Debug, Clone)]
pub struct RunIter {
    run: Run,
    next: u64,
}

impl Iterator for RunIter {
    type Item = Access;

    fn next(&mut self) -> Option<Access> {
        if self.next >= self.run.count {
            return None;
        }
        let access = Access {
            addr: self.run.addr_at(self.next),
            kind: self.run.kind,
        };
        self.next += 1;
        Some(access)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = (self.run.count - self.next) as usize;
        (left, Some(left))
    }
}

impl ExactSizeIterator for RunIter {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addresses_follow_stride() {
        let run = Run::new(VirtAddr::new(100), 8, 4, AccessKind::Read);
        let addrs: Vec<u64> = run.iter().map(|a| a.addr.get()).collect();
        assert_eq!(addrs, vec![100, 108, 116, 124]);
        assert_eq!(run.last_addr(), VirtAddr::new(124));
    }

    #[test]
    fn negative_stride_walks_down() {
        let run = Run::new(VirtAddr::new(100), -8, 3, AccessKind::Write);
        let addrs: Vec<u64> = run.iter().map(|a| a.addr.get()).collect();
        assert_eq!(addrs, vec![100, 92, 84]);
        assert_eq!(run.bounds(), (VirtAddr::new(84), VirtAddr::new(100)));
        assert_eq!(run.span(), Bytes::new(17));
    }

    #[test]
    fn zero_stride_repeats_one_address() {
        let run = Run::new(VirtAddr::new(5), 0, 10, AccessKind::Read);
        assert!(run.iter().all(|a| a.addr == VirtAddr::new(5)));
        assert_eq!(run.span(), Bytes::new(1));
    }

    #[test]
    fn split_preserves_sequence() {
        let run = Run::new(VirtAddr::new(0), 16, 10, AccessKind::Read);
        let (a, b) = run.split_at(4);
        let joined: Vec<_> = a.iter().chain(b.iter()).collect();
        let direct: Vec<_> = run.iter().collect();
        assert_eq!(joined, direct);
        assert_eq!(a.count(), 4);
        assert_eq!(b.count(), 6);
        assert_eq!(b.start(), VirtAddr::new(64));
    }

    #[test]
    #[should_panic(expected = "interior")]
    fn split_at_end_panics() {
        let run = Run::new(VirtAddr::new(0), 8, 4, AccessKind::Read);
        let _ = run.split_at(4);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn empty_run_panics() {
        let _ = Run::new(VirtAddr::new(0), 8, 0, AccessKind::Read);
    }

    #[test]
    #[should_panic(expected = "outside the address space")]
    fn overflowing_run_panics() {
        let _ = Run::new(VirtAddr::new(u64::MAX - 8), 8, 3, AccessKind::Read);
    }

    #[test]
    fn iterator_reports_exact_size() {
        let run = Run::new(VirtAddr::new(0), 4, 7, AccessKind::Read);
        let mut it = run.iter();
        assert_eq!(it.len(), 7);
        it.next();
        assert_eq!(it.len(), 6);
    }

    #[test]
    fn single_is_one_reference() {
        let run = Run::single(VirtAddr::new(42), AccessKind::Write);
        assert_eq!(run.count(), 1);
        assert_eq!(run.last_addr(), VirtAddr::new(42));
    }

    #[test]
    fn display_mentions_all_fields() {
        let run = Run::new(VirtAddr::new(0x10), 8, 3, AccessKind::Read);
        assert_eq!(format!("{run}"), "R 0x10 x3 stride +8");
    }
}
