//! The PALcode load/store emulation cost model (Table 1).
//!
//! On the prototype, accesses to *incomplete* pages (pages with some
//! subpages missing) trap to PALcode, which checks the subpage valid bits
//! and emulates the access if the target subpage is resident. "The PALcode
//! caches the subpage valid bits for each emulated operation; a 'fast'
//! load or store occurs when an emulated operation is to the same page as
//! the previous emulated operation" (§3.1.1).

use gms_units::{ClockRate, Cycles, Duration};

use crate::PageId;

/// The cycle costs of Table 1, on the 266 MHz Alpha 250.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PalCosts {
    /// Emulated load, valid bits already cached (52 cycles / 195 ns).
    pub fast_load: Cycles,
    /// Emulated load, valid bits fetched (95 cycles / 361 ns).
    pub slow_load: Cycles,
    /// Emulated store, valid bits already cached (64 cycles / 241 ns).
    pub fast_store: Cycles,
    /// Emulated store, valid bits fetched (102 cycles / 383 ns).
    pub slow_store: Cycles,
    /// A PAL call that does nothing (15 cycles / 56 ns).
    pub null_call: Cycles,
    /// L1 cache hit, for comparison (3 cycles / 11 ns).
    pub l1_hit: Cycles,
    /// L2 cache hit (8 cycles / 30 ns).
    pub l2_hit: Cycles,
    /// L2 miss (84 cycles / 315 ns).
    pub l2_miss: Cycles,
}

impl PalCosts {
    /// Table 1's measured values.
    #[must_use]
    pub fn paper() -> Self {
        PalCosts {
            fast_load: Cycles::new(52),
            slow_load: Cycles::new(95),
            fast_store: Cycles::new(64),
            slow_store: Cycles::new(102),
            null_call: Cycles::new(15),
            l1_hit: Cycles::new(3),
            l2_hit: Cycles::new(8),
            l2_miss: Cycles::new(84),
        }
    }
}

impl Default for PalCosts {
    fn default() -> Self {
        PalCosts::paper()
    }
}

/// Counters for the emulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PalStats {
    /// Fast (same page as previous) emulated loads.
    pub fast_loads: u64,
    /// Slow emulated loads.
    pub slow_loads: u64,
    /// Fast emulated stores.
    pub fast_stores: u64,
    /// Slow emulated stores.
    pub slow_stores: u64,
    /// Total cycles spent emulating.
    pub cycles: Cycles,
}

/// The software subpage-protection emulator: charges Table 1 costs for
/// accesses to incomplete pages.
///
/// # Examples
///
/// ```
/// use gms_mem::{PageId, PalEmulator};
///
/// let mut pal = PalEmulator::paper();
/// let first = pal.emulated_access(PageId::new(1), false); // slow load
/// let second = pal.emulated_access(PageId::new(1), false); // fast load
/// assert!(first > second);
/// ```
#[derive(Debug, Clone)]
pub struct PalEmulator {
    costs: PalCosts,
    clock: ClockRate,
    last_page: Option<PageId>,
    stats: PalStats,
}

impl PalEmulator {
    /// The paper's emulator: Table 1 costs at 266 MHz.
    #[must_use]
    pub fn paper() -> Self {
        PalEmulator::new(PalCosts::paper(), ClockRate::from_mhz(266))
    }

    /// An emulator with explicit costs and clock rate.
    #[must_use]
    pub fn new(costs: PalCosts, clock: ClockRate) -> Self {
        PalEmulator {
            costs,
            clock,
            last_page: None,
            stats: PalStats::default(),
        }
    }

    /// Charges one emulated access to a *valid subpage of an incomplete
    /// page* and returns its time cost. `is_write` selects store vs load;
    /// the fast path applies when `page` matches the previous emulated
    /// access.
    pub fn emulated_access(&mut self, page: PageId, is_write: bool) -> Duration {
        let fast = self.last_page == Some(page);
        self.last_page = Some(page);
        let cycles = match (is_write, fast) {
            (false, true) => {
                self.stats.fast_loads += 1;
                self.costs.fast_load
            }
            (false, false) => {
                self.stats.slow_loads += 1;
                self.costs.slow_load
            }
            (true, true) => {
                self.stats.fast_stores += 1;
                self.costs.fast_store
            }
            (true, false) => {
                self.stats.slow_stores += 1;
                self.costs.slow_store
            }
        };
        self.stats.cycles += cycles;
        self.clock.time_for(cycles)
    }

    /// Notes that full hardware access was re-enabled (the page became
    /// complete or was evicted): the cached valid bits are invalidated.
    pub fn page_state_changed(&mut self, page: PageId) {
        if self.last_page == Some(page) {
            self.last_page = None;
        }
    }

    /// The accumulated counters.
    #[must_use]
    pub fn stats(&self) -> PalStats {
        self.stats
    }

    /// Total time spent emulating so far.
    #[must_use]
    pub fn total_time(&self) -> Duration {
        self.clock.time_for(self.stats.cycles)
    }

    /// The cost table in use.
    #[must_use]
    pub fn costs(&self) -> PalCosts {
        self.costs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_times_at_266mhz() {
        let mut pal = PalEmulator::paper();
        // First access to a page: slow load, 95 cycles = 357 ns.
        let slow = pal.emulated_access(PageId::new(1), false);
        assert!((355..365).contains(&slow.as_nanos()), "{slow}");
        // Same page: fast load, 52 cycles = 195 ns.
        let fast = pal.emulated_access(PageId::new(1), false);
        assert_eq!(fast.as_nanos(), 195);
        // Stores.
        let fast_store = pal.emulated_access(PageId::new(1), true);
        assert_eq!(fast_store.as_nanos(), 241);
        let slow_store = pal.emulated_access(PageId::new(2), true);
        assert!((380..390).contains(&slow_store.as_nanos()), "{slow_store}");
    }

    #[test]
    fn fast_path_requires_same_page() {
        let mut pal = PalEmulator::paper();
        pal.emulated_access(PageId::new(1), false);
        pal.emulated_access(PageId::new(2), false);
        pal.emulated_access(PageId::new(1), false);
        let s = pal.stats();
        assert_eq!(s.slow_loads, 3);
        assert_eq!(s.fast_loads, 0);
    }

    #[test]
    fn page_state_change_invalidates_cached_bits() {
        let mut pal = PalEmulator::paper();
        pal.emulated_access(PageId::new(1), false);
        pal.page_state_changed(PageId::new(1));
        pal.emulated_access(PageId::new(1), false);
        assert_eq!(pal.stats().slow_loads, 2);
        // Changing an unrelated page does not invalidate.
        pal.emulated_access(PageId::new(1), false);
        pal.page_state_changed(PageId::new(9));
        pal.emulated_access(PageId::new(1), false);
        assert_eq!(pal.stats().fast_loads, 2);
    }

    #[test]
    fn stats_accumulate_cycles_and_time() {
        let mut pal = PalEmulator::paper();
        pal.emulated_access(PageId::new(1), false); // 95
        pal.emulated_access(PageId::new(1), true); // 64
        assert_eq!(pal.stats().cycles, Cycles::new(159));
        let ns = pal.total_time().as_nanos();
        assert!((595..600).contains(&ns), "{ns}");
    }

    /// §3.1.1: "a fast load is 6.5 times slower than an L2 cache hit, and
    /// 1.6 times faster than an L2 miss".
    #[test]
    fn paper_ratios_hold() {
        let c = PalCosts::paper();
        let fast_vs_l2hit = c.fast_load.get() as f64 / c.l2_hit.get() as f64;
        let l2miss_vs_fast = c.l2_miss.get() as f64 / c.fast_load.get() as f64;
        assert!((6.0..7.0).contains(&fast_vs_l2hit), "{fast_vs_l2hit}");
        assert!((1.5..1.7).contains(&l2miss_vs_fast), "{l2miss_vs_fast}");
    }
}
