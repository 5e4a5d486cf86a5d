//! Resident-page tracking.

use gms_units::VirtAddr;

use crate::{Geometry, PageId, PageMap, SubpageIndex, SubpageMask};

/// The residency state of one page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageState {
    /// Which subpages are valid.
    pub mask: SubpageMask,
    /// Whether the page has been written since it was loaded (a dirty
    /// page must be pushed to remote memory on eviction; a clean one can
    /// be dropped).
    pub dirty: bool,
}

impl PageState {
    /// A page with only `first` valid (the just-faulted subpage).
    #[must_use]
    pub fn partial(n_subpages: u32, first: SubpageIndex) -> Self {
        PageState {
            mask: SubpageMask::single(n_subpages, first),
            dirty: false,
        }
    }

    /// A fully-resident clean page.
    #[must_use]
    pub fn complete(n_subpages: u32) -> Self {
        PageState {
            mask: SubpageMask::full(n_subpages),
            dirty: false,
        }
    }

    /// Whether all subpages are valid.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.mask.is_full()
    }
}

/// Maps resident pages to their [`PageState`], through a [`PageMap`]
/// over the node's footprint.
///
/// # Examples
///
/// ```
/// use gms_mem::{Geometry, PageSize, PageState, PageTable, SubpageSize};
/// use gms_units::VirtAddr;
///
/// let geom = Geometry::new(PageSize::P8K, SubpageSize::S1K);
/// let mut pt = PageTable::new(geom);
/// let addr = VirtAddr::new(0x2_0000);
/// assert!(!pt.is_subpage_resident(addr));
/// let (page, sub) = geom.decompose(addr);
/// pt.insert(page, PageState::partial(geom.subpages_per_page(), sub));
/// assert!(pt.is_subpage_resident(addr));
/// ```
#[derive(Debug, Clone)]
pub struct PageTable {
    geometry: Geometry,
    pages: PageMap<PageState>,
}

impl PageTable {
    /// An empty table for the given geometry, with no dense span.
    #[must_use]
    pub fn new(geometry: Geometry) -> Self {
        PageTable::with_span(geometry, PageId::new(0), 0)
    }

    /// An empty table indexing the `pages` pages from `first` directly
    /// (see [`PageMap::with_span`]).
    #[must_use]
    pub fn with_span(geometry: Geometry, first: PageId, pages: u64) -> Self {
        PageTable {
            geometry,
            pages: PageMap::with_span(first, pages),
        }
    }

    /// The table's geometry.
    #[must_use]
    pub fn geometry(&self) -> Geometry {
        self.geometry
    }

    /// Number of resident pages (complete or partial).
    #[must_use]
    pub fn len(&self) -> usize {
        self.pages.len()
    }

    /// Whether no pages are resident.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    /// Inserts (or replaces) a page's state. Returns the previous state.
    pub fn insert(&mut self, page: PageId, state: PageState) -> Option<PageState> {
        assert_eq!(
            state.mask.width(),
            self.geometry.subpages_per_page(),
            "mask width does not match geometry"
        );
        self.pages.insert(page, state)
    }

    /// Removes a page, returning its final state (e.g. to check dirtiness
    /// on eviction).
    pub fn remove(&mut self, page: PageId) -> Option<PageState> {
        self.pages.remove(page)
    }

    /// The state of `page`, if resident.
    #[must_use]
    pub fn get(&self, page: PageId) -> Option<&PageState> {
        self.pages.get(page)
    }

    /// Mutable state of `page`, if resident.
    pub fn get_mut(&mut self, page: PageId) -> Option<&mut PageState> {
        self.pages.get_mut(page)
    }

    /// Whether the specific subpage containing `addr` is valid.
    #[must_use]
    pub fn is_subpage_resident(&self, addr: VirtAddr) -> bool {
        let (page, sub) = self.geometry.decompose(addr);
        self.pages.get(page).is_some_and(|s| s.mask.contains(sub))
    }

    /// Marks subpage `sub` of `page` valid. Returns `true` if the page is
    /// resident and the bit was newly set.
    pub fn mark_valid(&mut self, page: PageId, sub: SubpageIndex) -> bool {
        self.pages.get_mut(page).is_some_and(|s| s.mask.set(sub))
    }

    /// Marks `page` dirty (a write touched it). Returns `false` if the
    /// page is not resident.
    pub fn mark_dirty(&mut self, page: PageId) -> bool {
        match self.pages.get_mut(page) {
            Some(s) => {
                s.dirty = true;
                true
            }
            None => false,
        }
    }

    /// Iterates over resident pages in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (PageId, &PageState)> {
        self.pages.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PageSize, SubpageSize};

    fn table() -> PageTable {
        PageTable::new(Geometry::new(PageSize::P8K, SubpageSize::S1K))
    }

    #[test]
    fn insert_get_remove_round_trip() {
        let mut pt = table();
        let page = PageId::new(7);
        let state = PageState::complete(8);
        assert_eq!(pt.insert(page, state), None);
        assert_eq!(pt.get(page), Some(&state));
        assert_eq!(pt.len(), 1);
        assert_eq!(pt.remove(page), Some(state));
        assert!(pt.is_empty());
    }

    #[test]
    fn partial_page_tracks_individual_subpages() {
        let mut pt = table();
        let geom = pt.geometry();
        let addr = VirtAddr::new(3 * 8192 + 5 * 1024);
        let (page, sub) = geom.decompose(addr);
        pt.insert(page, PageState::partial(8, sub));
        assert!(pt.is_subpage_resident(addr));
        // The neighbouring subpage is not yet valid.
        let neighbour = VirtAddr::new(3 * 8192 + 6 * 1024);
        assert!(!pt.is_subpage_resident(neighbour));
        assert!(!pt.get(page).expect("resident").is_complete());
    }

    #[test]
    fn mark_valid_completes_page() {
        let mut pt = table();
        let page = PageId::new(1);
        pt.insert(page, PageState::partial(8, SubpageIndex::new(0)));
        for i in 1..8 {
            assert!(pt.mark_valid(page, SubpageIndex::new(i)));
        }
        assert!(pt.get(page).expect("resident").is_complete());
        // Setting an already-set bit is not "newly set".
        assert!(!pt.mark_valid(page, SubpageIndex::new(3)));
        // Nonresident pages cannot be marked.
        assert!(!pt.mark_valid(PageId::new(99), SubpageIndex::new(0)));
    }

    #[test]
    fn dirtiness_is_per_page() {
        let mut pt = table();
        let page = PageId::new(2);
        pt.insert(page, PageState::complete(8));
        assert!(!pt.get(page).expect("resident").dirty);
        assert!(pt.mark_dirty(page));
        assert!(pt.get(page).expect("resident").dirty);
        assert!(!pt.mark_dirty(PageId::new(50)));
    }

    #[test]
    #[should_panic(expected = "mask width")]
    fn wrong_width_state_panics() {
        let mut pt = table();
        pt.insert(PageId::new(0), PageState::complete(4));
    }

    #[test]
    fn iter_visits_all_pages() {
        let mut pt = table();
        for i in 0..5 {
            pt.insert(PageId::new(i), PageState::complete(8));
        }
        let mut ids: Vec<u64> = pt.iter().map(|(p, _)| p.get()).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
    }
}
