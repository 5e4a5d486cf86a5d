//! A cluster node's global page cache.

use gms_mem::PageId;
use gms_units::{FastMap, NodeId};

/// A page held in a node's global cache on behalf of another node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GlobalEntry {
    /// Whether the stored copy is the only up-to-date one (it was dirty
    /// when its owner evicted it).
    pub dirty: bool,
    /// Logical timestamp of when the page entered this cache; older pages
    /// are evicted first, and epochs weight nodes by the age of their
    /// oldest pages.
    pub stored_at: u64,
}

/// One node of the cluster: identity plus the global-cache frames it
/// donates to the network.
///
/// "Local" (actively used) memory of the faulting node is managed by the
/// simulator engine; `Node` models only the *global* portion — the idle
/// memory GMS harvests.
///
/// # Examples
///
/// ```
/// use gms_cluster::Node;
/// use gms_mem::PageId;
/// use gms_units::NodeId;
///
/// let mut node = Node::new(NodeId::new(1), 2);
/// assert_eq!(node.store(PageId::new(10), false, 1), None);
/// assert_eq!(node.store(PageId::new(11), false, 2), None);
/// // Full: storing a third page pushes out the oldest.
/// assert_eq!(node.store(PageId::new(12), false, 3), Some(PageId::new(10)));
/// ```
#[derive(Debug, Clone)]
pub struct Node {
    id: NodeId,
    capacity: u64,
    down: bool,
    pages: FastMap<PageId, GlobalEntry>,
}

impl Node {
    /// A node donating `capacity` global frames.
    #[must_use]
    pub fn new(id: NodeId, capacity: u64) -> Self {
        Node {
            id,
            capacity,
            down: false,
            pages: FastMap::default(),
        }
    }

    /// The node's identity.
    #[must_use]
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Donated frames.
    #[must_use]
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Whether the node is crashed (its cache is lost and it receives
    /// nothing until recovery).
    #[must_use]
    pub fn is_down(&self) -> bool {
        self.down
    }

    /// Whether the node can store and serve pages right now.
    #[must_use]
    pub fn is_available(&self) -> bool {
        self.capacity > 0 && !self.down
    }

    /// Crashes the node: every cached page is lost (returned so the
    /// caller can repair the directory) and the node stops receiving
    /// evictions until [`Node::recover`].
    pub fn crash(&mut self) -> Vec<(PageId, GlobalEntry)> {
        self.down = true;
        self.pages.drain().collect()
    }

    /// Brings a crashed node back, empty: it re-joins placement with
    /// all frames free.
    ///
    /// # Panics
    ///
    /// Panics if the node is not down.
    pub fn recover(&mut self) {
        assert!(self.down, "{} is not down", self.id);
        debug_assert!(self.pages.is_empty(), "crash drained the cache");
        self.down = false;
    }

    /// Pages currently cached.
    #[must_use]
    pub fn len(&self) -> usize {
        self.pages.len()
    }

    /// Whether the cache is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    /// Free frames.
    #[must_use]
    pub fn free(&self) -> u64 {
        self.capacity - self.pages.len() as u64
    }

    /// Whether `page` is cached here.
    #[must_use]
    pub fn contains(&self, page: PageId) -> bool {
        self.pages.contains_key(&page)
    }

    /// The cache entry for `page`, if cached here.
    #[must_use]
    pub fn entry(&self, page: PageId) -> Option<&GlobalEntry> {
        self.pages.get(&page)
    }

    /// Stores `page`. If the cache is full, the oldest page is pushed out
    /// first and returned (in the real system it would go to disk — "the
    /// oldest page in the network").
    ///
    /// # Panics
    ///
    /// Panics if `page` is already stored here (the directory should have
    /// prevented a duplicate store).
    pub fn store(&mut self, page: PageId, dirty: bool, now: u64) -> Option<PageId> {
        assert!(
            !self.pages.contains_key(&page),
            "{page} stored twice on {}",
            self.id
        );
        let displaced = if self.pages.len() as u64 >= self.capacity {
            let oldest = self.oldest().expect("full cache has an oldest page");
            self.pages.remove(&oldest);
            Some(oldest)
        } else {
            None
        };
        self.pages.insert(
            page,
            GlobalEntry {
                dirty,
                stored_at: now,
            },
        );
        displaced
    }

    /// Removes and returns `page` (getpage *moves* pages: once fetched,
    /// the global copy is gone).
    pub fn take(&mut self, page: PageId) -> Option<GlobalEntry> {
        self.pages.remove(&page)
    }

    /// The oldest cached page, if any.
    #[must_use]
    pub fn oldest(&self) -> Option<PageId> {
        self.pages
            .iter()
            .min_by_key(|(page, e)| (e.stored_at, page.get()))
            .map(|(page, _)| *page)
    }

    /// Age (now minus stored-at) of the oldest page; zero when empty.
    #[must_use]
    pub fn oldest_age(&self, now: u64) -> u64 {
        self.oldest()
            .and_then(|p| self.pages.get(&p))
            .map_or(0, |e| now.saturating_sub(e.stored_at))
    }

    /// Iterates over the cached pages in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (PageId, &GlobalEntry)> {
        self.pages.iter().map(|(k, v)| (*k, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(cap: u64) -> Node {
        Node::new(NodeId::new(3), cap)
    }

    #[test]
    fn store_take_round_trip() {
        let mut n = node(4);
        n.store(PageId::new(1), true, 10);
        assert!(n.contains(PageId::new(1)));
        assert_eq!(n.free(), 3);
        let e = n.take(PageId::new(1)).expect("stored");
        assert!(e.dirty);
        assert_eq!(e.stored_at, 10);
        assert!(!n.contains(PageId::new(1)));
        assert_eq!(n.take(PageId::new(1)), None);
    }

    #[test]
    fn full_cache_displaces_oldest() {
        let mut n = node(2);
        n.store(PageId::new(1), false, 1);
        n.store(PageId::new(2), false, 5);
        let displaced = n.store(PageId::new(3), false, 9);
        assert_eq!(displaced, Some(PageId::new(1)));
        assert!(n.contains(PageId::new(2)));
        assert!(n.contains(PageId::new(3)));
        assert_eq!(n.len(), 2);
    }

    #[test]
    fn oldest_age_tracks_clock() {
        let mut n = node(4);
        assert_eq!(n.oldest_age(100), 0);
        n.store(PageId::new(1), false, 10);
        n.store(PageId::new(2), false, 60);
        assert_eq!(n.oldest(), Some(PageId::new(1)));
        assert_eq!(n.oldest_age(100), 90);
    }

    #[test]
    fn oldest_ties_break_deterministically() {
        let mut n = node(4);
        n.store(PageId::new(9), false, 5);
        n.store(PageId::new(2), false, 5);
        assert_eq!(n.oldest(), Some(PageId::new(2)));
    }

    #[test]
    #[should_panic(expected = "stored twice")]
    fn duplicate_store_panics() {
        let mut n = node(4);
        n.store(PageId::new(1), false, 1);
        n.store(PageId::new(1), false, 2);
    }

    #[test]
    fn iter_covers_contents() {
        let mut n = node(4);
        n.store(PageId::new(1), false, 1);
        n.store(PageId::new(2), true, 2);
        let mut pages: Vec<u64> = n.iter().map(|(p, _)| p.get()).collect();
        pages.sort_unstable();
        assert_eq!(pages, vec![1, 2]);
    }
}
