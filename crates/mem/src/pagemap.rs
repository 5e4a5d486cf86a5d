//! Maps keyed by one node's own page ids.

use gms_units::FastMap;

use crate::PageId;

/// A map from a node's page ids to `V`, indexed directly over the span
/// of pages the node expects to touch and hashed outside it.
///
/// A node replays one trace whose footprint is known before the run
/// starts, so its page table and replacement index can hold a slot per
/// footprint page and find a page with one bounds check and one array
/// index instead of a hash probe. Ids outside the span — a trace that
/// strays past its declared footprint, or a map built with
/// [`PageMap::new`] and no span at all — go to a [`FastMap`] spill, so
/// they behave, and cost memory, exactly as a plain hash map would.
///
/// Keys that are global (namespaced across nodes) or sparse stay in a
/// [`FastMap`]: a dense span only pays when most of it is occupied.
///
/// # Examples
///
/// ```
/// use gms_mem::{PageId, PageMap};
///
/// let mut map = PageMap::with_span(PageId::new(100), 8);
/// map.insert(PageId::new(103), "in span");
/// map.insert(PageId::new(7), "spilled");
/// assert_eq!(map.get(PageId::new(103)), Some(&"in span"));
/// assert_eq!(map.get(PageId::new(7)), Some(&"spilled"));
/// assert_eq!(map.len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct PageMap<V> {
    /// The page id of `dense[0]`.
    first: u64,
    dense: Vec<Option<V>>,
    spill: FastMap<PageId, V>,
    len: usize,
}

impl<V> Default for PageMap<V> {
    fn default() -> Self {
        PageMap::new()
    }
}

impl<V> PageMap<V> {
    /// An empty map with no dense span: every id goes to the spill.
    #[must_use]
    pub fn new() -> Self {
        PageMap::with_span(PageId::new(0), 0)
    }

    /// An empty map indexing `pages` ids from `first` directly.
    ///
    /// # Panics
    ///
    /// Panics if the span runs past the last page id or does not fit in
    /// the address space.
    #[must_use]
    pub fn with_span(first: PageId, pages: u64) -> Self {
        assert!(
            first.get().checked_add(pages).is_some(),
            "a span of {pages} pages from {first} overflows the page-id space"
        );
        let pages = usize::try_from(pages).expect("page span fits in memory");
        let mut dense = Vec::new();
        dense.resize_with(pages, || None);
        PageMap {
            first: first.get(),
            dense,
            spill: FastMap::default(),
            len: 0,
        }
    }

    /// The dense slot of `page`, if it lies in the span.
    #[inline]
    fn slot(&self, page: PageId) -> Option<usize> {
        // Ids below `first` wrap to huge offsets and miss the span too.
        let offset = page.get().wrapping_sub(self.first);
        (offset < self.dense.len() as u64).then_some(offset as usize)
    }

    /// Number of pages mapped.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no page is mapped.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The value of `page`, if mapped.
    #[inline]
    #[must_use]
    pub fn get(&self, page: PageId) -> Option<&V> {
        match self.slot(page) {
            Some(i) => self.dense[i].as_ref(),
            None => self.spill.get(&page),
        }
    }

    /// The mutable value of `page`, if mapped.
    #[inline]
    pub fn get_mut(&mut self, page: PageId) -> Option<&mut V> {
        match self.slot(page) {
            Some(i) => self.dense[i].as_mut(),
            None => self.spill.get_mut(&page),
        }
    }

    /// Whether `page` is mapped.
    #[must_use]
    pub fn contains(&self, page: PageId) -> bool {
        self.get(page).is_some()
    }

    /// Maps `page` to `value`, returning the value it replaced.
    pub fn insert(&mut self, page: PageId, value: V) -> Option<V> {
        let old = match self.slot(page) {
            Some(i) => self.dense[i].replace(value),
            None => self.spill.insert(page, value),
        };
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// Unmaps `page`, returning its value.
    pub fn remove(&mut self, page: PageId) -> Option<V> {
        let old = match self.slot(page) {
            Some(i) => self.dense[i].take(),
            None => self.spill.remove(&page),
        };
        if old.is_some() {
            self.len -= 1;
        }
        old
    }

    /// Every mapped page and its value: the span in ascending id order,
    /// then the spill in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (PageId, &V)> {
        let first = self.first;
        self.dense
            .iter()
            .enumerate()
            .filter_map(move |(i, v)| v.as_ref().map(|v| (PageId::new(first + i as u64), v)))
            .chain(self.spill.iter().map(|(k, v)| (*k, v)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(n: u64) -> PageId {
        PageId::new(n)
    }

    #[test]
    fn span_and_spill_share_one_count() {
        let mut map = PageMap::with_span(p(10), 4);
        assert!(map.is_empty());
        for id in [9, 10, 13, 14, u64::MAX] {
            assert_eq!(map.insert(p(id), id), None, "page {id}");
        }
        assert_eq!(map.len(), 5);
        assert_eq!(map.insert(p(13), 0), Some(13));
        assert_eq!(map.insert(p(9), 0), Some(9));
        assert_eq!(map.len(), 5);
        assert_eq!(map.remove(p(10)), Some(10));
        assert_eq!(map.remove(p(10)), None);
        assert_eq!(map.remove(p(14)), Some(14));
        assert_eq!(map.len(), 3);
        assert!(map.contains(p(u64::MAX)) && !map.contains(p(11)));
    }

    #[test]
    fn iter_lists_the_span_in_order_then_the_spill() {
        let mut map = PageMap::with_span(p(4), 4);
        for id in [7, 2, 5, 4] {
            map.insert(p(id), ());
        }
        let ids: Vec<u64> = map.iter().map(|(k, ())| k.get()).collect();
        assert_eq!(ids, [4, 5, 7, 2]);
    }

    #[test]
    fn an_empty_span_spills_everything() {
        let mut map = PageMap::new();
        map.insert(p(0), 'a');
        *map.get_mut(p(0)).expect("mapped") = 'b';
        assert_eq!(map.get(p(0)), Some(&'b'));
        assert_eq!(map.len(), 1);
    }
}
