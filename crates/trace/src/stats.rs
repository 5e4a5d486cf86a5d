//! Trace statistics.

use gms_units::{Bytes, FastSet};

use crate::{Run, TraceSource};

/// Summary statistics of a reference trace.
///
/// Used to validate that synthetic application models match the paper's
/// published per-trace numbers (reference counts, footprints).
///
/// # Examples
///
/// ```
/// use gms_trace::{Run, AccessKind, TraceStats, VecSource};
/// use gms_units::{Bytes, VirtAddr};
///
/// let mut src = VecSource::new(vec![
///     Run::new(VirtAddr::new(0), 8, 1024, AccessKind::Read),
///     Run::new(VirtAddr::new(8192), 8, 10, AccessKind::Write),
/// ]);
/// let stats = TraceStats::collect(&mut src, Bytes::kib(8));
/// assert_eq!(stats.total_refs, 1034);
/// assert_eq!(stats.writes, 10);
/// assert_eq!(stats.distinct_pages, 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TraceStats {
    /// Total number of references.
    pub total_refs: u64,
    /// Number of write references.
    pub writes: u64,
    /// Number of runs (RLE operations).
    pub runs: u64,
    /// Number of distinct pages touched, at the page size passed to
    /// [`TraceStats::collect`].
    pub distinct_pages: u64,
    /// Lowest address referenced (zero for an empty trace).
    pub min_addr: u64,
    /// Highest address referenced (zero for an empty trace).
    pub max_addr: u64,
}

impl TraceStats {
    /// Drains `source` and gathers statistics, counting distinct pages at
    /// the given `page_size`.
    ///
    /// # Panics
    ///
    /// Panics if `page_size` is not a power of two.
    pub fn collect<S: TraceSource + ?Sized>(source: &mut S, page_size: Bytes) -> Self {
        assert!(
            page_size.is_power_of_two(),
            "page size must be a power of two"
        );
        let shift = page_size.get().trailing_zeros();
        let mut stats = TraceStats::default();
        let mut pages: FastSet<u64> = FastSet::default();
        let mut min = u64::MAX;
        let mut max = 0u64;

        while let Some(run) = source.next_run() {
            stats.runs += 1;
            stats.total_refs += run.count();
            if run.kind().is_write() {
                stats.writes += run.count();
            }
            let (lo, hi) = run.bounds();
            min = min.min(lo.get());
            max = max.max(hi.get());
            insert_run_pages(&mut pages, run, shift);
        }

        if stats.total_refs > 0 {
            stats.min_addr = min;
            stats.max_addr = max;
        }
        stats.distinct_pages = pages.len() as u64;
        stats
    }

    /// Fraction of references that are writes, in `[0, 1]`; zero for an
    /// empty trace.
    #[must_use]
    pub fn write_fraction(&self) -> f64 {
        if self.total_refs == 0 {
            0.0
        } else {
            self.writes as f64 / self.total_refs as f64
        }
    }

    /// Touched footprint in bytes at the collection page size.
    #[must_use]
    pub fn footprint(&self, page_size: Bytes) -> Bytes {
        page_size * self.distinct_pages
    }
}

/// Inserts every page a run touches, in O(pages), handling arbitrary
/// strides without iterating per reference when the stride is small.
fn insert_run_pages(pages: &mut FastSet<u64>, run: Run, page_shift: u32) {
    let stride_abs = run.stride().unsigned_abs();
    let page_size = 1u64 << page_shift;
    if stride_abs <= page_size {
        // Dense: the run touches a contiguous range of pages.
        let (lo, hi) = run.bounds();
        for p in (lo.get() >> page_shift)..=(hi.get() >> page_shift) {
            pages.insert(p);
        }
    } else {
        // Sparse: touch pages one reference at a time.
        for i in 0..run.count() {
            pages.insert(run.addr_at(i).get() >> page_shift);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AccessKind, VecSource};
    use gms_units::VirtAddr;

    #[test]
    fn empty_trace_is_all_zero() {
        let mut src = VecSource::new(vec![]);
        let stats = TraceStats::collect(&mut src, Bytes::kib(8));
        assert_eq!(stats, TraceStats::default());
        assert_eq!(stats.write_fraction(), 0.0);
    }

    #[test]
    fn dense_run_counts_pages_by_range() {
        // 3 pages of 8 KB touched by an 8-byte-stride scan.
        let run = Run::new(VirtAddr::new(0), 8, 3 * 1024, AccessKind::Read);
        let mut src = VecSource::new(vec![run]);
        let stats = TraceStats::collect(&mut src, Bytes::kib(8));
        assert_eq!(stats.distinct_pages, 3);
        assert_eq!(stats.footprint(Bytes::kib(8)), Bytes::kib(24));
    }

    #[test]
    fn sparse_run_counts_exact_pages() {
        // Stride of 64 KB: each access on its own 8 KB page.
        let run = Run::new(VirtAddr::new(0), 65536, 5, AccessKind::Read);
        let mut src = VecSource::new(vec![run]);
        let stats = TraceStats::collect(&mut src, Bytes::kib(8));
        assert_eq!(stats.distinct_pages, 5);
    }

    #[test]
    fn write_fraction_counts_only_writes() {
        let mut src = VecSource::new(vec![
            Run::new(VirtAddr::new(0), 8, 30, AccessKind::Read),
            Run::new(VirtAddr::new(0), 8, 10, AccessKind::Write),
        ]);
        let stats = TraceStats::collect(&mut src, Bytes::kib(8));
        assert_eq!(stats.total_refs, 40);
        assert_eq!(stats.writes, 10);
        assert!((stats.write_fraction() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn min_max_addresses_cover_negative_strides() {
        let mut src = VecSource::new(vec![Run::new(
            VirtAddr::new(1000),
            -8,
            10,
            AccessKind::Read,
        )]);
        let stats = TraceStats::collect(&mut src, Bytes::new(256));
        assert_eq!(stats.min_addr, 1000 - 72);
        assert_eq!(stats.max_addr, 1000);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_page_panics() {
        let mut src = VecSource::new(vec![]);
        let _ = TraceStats::collect(&mut src, Bytes::new(3000));
    }
}
