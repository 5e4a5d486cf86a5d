//! A set-associative TLB model.
//!
//! The paper's argument for subpages over small pages (§2.1) is that small
//! pages shrink TLB coverage: "A major disadvantage of the small page
//! scheme, relative to subpages, is the reduced TLB coverage and therefore
//! higher TLB miss rate that small pages would incur." This model
//! quantifies that for the small-pages ablation.

use gms_units::{Bytes, Cycles};

use crate::PageId;

/// Hit/miss counters for a [`Tlb`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TlbStats {
    /// Translations that hit.
    pub hits: u64,
    /// Translations that missed (and paid the refill cost).
    pub misses: u64,
}

/// A set-associative translation lookaside buffer with LRU within each
/// set.
///
/// Defaults model the Alpha 21064A data TLB: 32 entries, fully
/// associative, with a ~40-cycle software refill.
///
/// # Examples
///
/// ```
/// use gms_mem::{PageId, Tlb};
///
/// let mut tlb = Tlb::alpha_dtlb();
/// assert!(!tlb.access(PageId::new(1))); // compulsory miss
/// assert!(tlb.access(PageId::new(1)));  // hit
/// ```
#[derive(Debug, Clone)]
pub struct Tlb {
    sets: Vec<Vec<PageId>>,
    ways: usize,
    refill: Cycles,
    stats: TlbStats,
}

impl Tlb {
    /// The Alpha 21064A data TLB: 32 entries, fully associative,
    /// 40-cycle refill.
    #[must_use]
    pub fn alpha_dtlb() -> Self {
        Tlb::new(1, 32, Cycles::new(40))
    }

    /// Creates a TLB of `sets × ways` entries with the given refill cost.
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `ways` is zero.
    #[must_use]
    pub fn new(sets: usize, ways: usize, refill: Cycles) -> Self {
        assert!(sets > 0 && ways > 0, "TLB must have at least one entry");
        Tlb {
            sets: vec![Vec::with_capacity(ways); sets],
            ways,
            refill,
            stats: TlbStats::default(),
        }
    }

    /// Total entries.
    #[must_use]
    pub fn entries(&self) -> usize {
        self.sets.len() * self.ways
    }

    /// Address-space coverage at the given page size.
    #[must_use]
    pub fn coverage(&self, page_size: Bytes) -> Bytes {
        page_size * self.entries() as u64
    }

    /// The cost of one miss.
    #[must_use]
    pub fn refill_cost(&self) -> Cycles {
        self.refill
    }

    /// Translates `page`, updating LRU state. Returns `true` on a hit.
    pub fn access(&mut self, page: PageId) -> bool {
        let set = (page.get() as usize) % self.sets.len();
        let entries = &mut self.sets[set];
        if let Some(pos) = entries.iter().position(|&e| e == page) {
            // Move to MRU position (the back).
            let hit = entries.remove(pos);
            entries.push(hit);
            self.stats.hits += 1;
            true
        } else {
            if entries.len() == self.ways {
                entries.remove(0); // evict LRU (the front)
            }
            entries.push(page);
            self.stats.misses += 1;
            false
        }
    }

    /// Invalidates `page` everywhere (e.g. on page eviction).
    pub fn invalidate(&mut self, page: PageId) {
        let set = (page.get() as usize) % self.sets.len();
        self.sets[set].retain(|&e| e != page);
    }

    /// The accumulated counters.
    #[must_use]
    pub fn stats(&self) -> TlbStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compulsory_miss_then_hit() {
        let mut tlb = Tlb::alpha_dtlb();
        assert!(!tlb.access(PageId::new(5)));
        assert!(tlb.access(PageId::new(5)));
        assert_eq!(tlb.stats(), TlbStats { hits: 1, misses: 1 });
    }

    #[test]
    fn capacity_eviction_is_lru() {
        let mut tlb = Tlb::new(1, 2, Cycles::new(40));
        tlb.access(PageId::new(1));
        tlb.access(PageId::new(2));
        tlb.access(PageId::new(1)); // 2 is now LRU
        tlb.access(PageId::new(3)); // evicts 2
        assert!(tlb.access(PageId::new(1)), "1 should still be present");
        assert!(!tlb.access(PageId::new(2)), "2 was evicted");
    }

    #[test]
    fn working_set_within_coverage_never_misses_after_warmup() {
        let mut tlb = Tlb::alpha_dtlb();
        for round in 0..3 {
            for i in 0..32 {
                let hit = tlb.access(PageId::new(i));
                assert_eq!(hit, round > 0, "page {i} round {round}");
            }
        }
    }

    /// The §2.1 effect: the same byte working set needs 8x the entries at
    /// 1 KB pages vs 8 KB pages, overflowing the TLB.
    #[test]
    fn small_pages_overflow_coverage() {
        // 64 pages of working set against a 32-entry TLB: every access in
        // a cyclic sweep misses.
        let mut tlb = Tlb::alpha_dtlb();
        let mut misses = 0;
        for _ in 0..3 {
            for i in 0..64 {
                if !tlb.access(PageId::new(i)) {
                    misses += 1;
                }
            }
        }
        assert_eq!(misses, 3 * 64, "cyclic overflow should always miss");
    }

    #[test]
    fn invalidate_removes_entry() {
        let mut tlb = Tlb::alpha_dtlb();
        tlb.access(PageId::new(9));
        tlb.invalidate(PageId::new(9));
        assert!(!tlb.access(PageId::new(9)));
    }

    #[test]
    fn coverage_scales_with_page_size() {
        let tlb = Tlb::alpha_dtlb();
        assert_eq!(tlb.coverage(Bytes::kib(8)), Bytes::kib(256));
        assert_eq!(tlb.coverage(Bytes::kib(1)), Bytes::kib(32));
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_ways_panics() {
        let _ = Tlb::new(1, 0, Cycles::new(1));
    }

    #[test]
    fn sets_partition_pages() {
        let mut tlb = Tlb::new(2, 1, Cycles::new(1));
        // Pages 0 and 2 share set 0; page 1 lives in set 1.
        tlb.access(PageId::new(0));
        tlb.access(PageId::new(1));
        tlb.access(PageId::new(2)); // evicts 0, not 1
        assert!(tlb.access(PageId::new(1)));
        assert!(!tlb.access(PageId::new(0)));
    }
}
