//! The global cache directory (GCD).
//!
//! GMS locates pages with a distributed directory: each page has a
//! *custodian* node, determined by hashing its identity, which records
//! where the page's global copies currently live. The directory is
//! sharded by custodian — one map per node — so that a custodian crash
//! destroys exactly one shard, which is then rebuilt from the
//! announcements of surviving replica holders (see
//! [`Directory::rebuild_shard`]).
//!
//! Each entry is an *ordered replica set*: the first holder is the
//! primary (the node a getpage is sent to), later holders are standby
//! copies written by replicated putpage. The order is insertion order,
//! which coincides with ascending store clock — a property the rebuild
//! path relies on to reconstruct sets byte-identically.

use gms_mem::PageId;
use gms_units::{FastMap, NodeId};

/// An ordered set of nodes holding copies of one page.
///
/// `One` keeps the common unreplicated case allocation-free.
#[derive(Debug, Clone, PartialEq, Eq)]
enum ReplicaSet {
    One(NodeId),
    Many(Vec<NodeId>),
}

impl ReplicaSet {
    fn as_slice(&self) -> &[NodeId] {
        match self {
            ReplicaSet::One(n) => std::slice::from_ref(n),
            ReplicaSet::Many(v) => v,
        }
    }

    fn len(&self) -> usize {
        match self {
            ReplicaSet::One(_) => 1,
            ReplicaSet::Many(v) => v.len(),
        }
    }

    fn push(&mut self, node: NodeId) {
        match self {
            ReplicaSet::One(first) => *self = ReplicaSet::Many(vec![*first, node]),
            ReplicaSet::Many(v) => v.push(node),
        }
    }
}

/// Maps pages to the ordered set of nodes caching their global copies.
///
/// # Examples
///
/// ```
/// use gms_cluster::Directory;
/// use gms_mem::PageId;
/// use gms_units::NodeId;
///
/// let mut dir = Directory::new(4);
/// dir.record(PageId::new(7), NodeId::new(2));
/// assert_eq!(dir.lookup(PageId::new(7)), Some(NodeId::new(2)));
/// dir.clear(PageId::new(7));
/// assert_eq!(dir.lookup(PageId::new(7)), None);
/// ```
#[derive(Debug, Clone)]
pub struct Directory {
    n_nodes: u32,
    target_replicas: u32,
    /// One shard per custodian node, indexed by `custodian(page)`.
    shards: Vec<FastMap<PageId, ReplicaSet>>,
    /// Entries with at least one copy but fewer than `target_replicas`,
    /// maintained incrementally so the engine can poll it cheaply.
    under_replicated: usize,
}

impl Directory {
    /// A directory for a cluster of `n_nodes` nodes, one copy per page.
    ///
    /// # Panics
    ///
    /// Panics if `n_nodes` is zero.
    #[must_use]
    pub fn new(n_nodes: u32) -> Self {
        Directory::with_replicas(n_nodes, 1)
    }

    /// A directory for `n_nodes` nodes targeting `replicas` copies per
    /// page. Entries holding fewer (but more than zero) copies count as
    /// [under-replicated](Directory::under_replicated).
    ///
    /// # Panics
    ///
    /// Panics if `n_nodes` or `replicas` is zero.
    #[must_use]
    pub fn with_replicas(n_nodes: u32, replicas: u32) -> Self {
        assert!(n_nodes > 0, "a cluster needs at least one node");
        assert!(replicas > 0, "a page needs at least one replica");
        Directory {
            n_nodes,
            target_replicas: replicas,
            shards: vec![FastMap::default(); n_nodes as usize],
            under_replicated: 0,
        }
    }

    /// The replica target this directory was built for.
    #[must_use]
    pub fn target_replicas(&self) -> u32 {
        self.target_replicas
    }

    /// The node responsible for `page`'s directory entry. Deterministic
    /// hash of the page id, uniformly spread over the cluster.
    #[must_use]
    pub fn custodian(&self, page: PageId) -> NodeId {
        // Fibonacci hashing: cheap, deterministic, well-mixed.
        let h = page.get().wrapping_mul(0x9E37_79B9_7F4A_7C15);
        NodeId::new((h >> 32) as u32 % self.n_nodes)
    }

    fn shard(&self, page: PageId) -> &FastMap<PageId, ReplicaSet> {
        &self.shards[self.custodian(page).as_usize()]
    }

    fn shard_mut(&mut self, page: PageId) -> &mut FastMap<PageId, ReplicaSet> {
        let idx = self.custodian(page).as_usize();
        &mut self.shards[idx]
    }

    fn is_under(&self, len: usize) -> bool {
        len > 0 && len < self.target_replicas as usize
    }

    /// Adjusts the under-replication counter for an entry whose copy
    /// count moved from `before` to `after`.
    fn note_len_change(&mut self, before: usize, after: usize) {
        match (self.is_under(before), self.is_under(after)) {
            (false, true) => self.under_replicated += 1,
            (true, false) => self.under_replicated -= 1,
            _ => {}
        }
    }

    /// Where `page`'s primary global copy lives, if anywhere.
    #[must_use]
    pub fn lookup(&self, page: PageId) -> Option<NodeId> {
        self.shard(page).get(&page).map(|set| set.as_slice()[0])
    }

    /// The full ordered replica set for `page` (empty if unrecorded).
    /// The first element is the primary.
    #[must_use]
    pub fn replicas(&self, page: PageId) -> &[NodeId] {
        self.shard(page)
            .get(&page)
            .map_or(&[], ReplicaSet::as_slice)
    }

    /// Records that `node` now holds the primary copy of `page`,
    /// replacing any previous replica set. Returns the previous primary,
    /// if any (which indicates a protocol bug upstream).
    pub fn record(&mut self, page: PageId, node: NodeId) -> Option<NodeId> {
        let previous = self.shard_mut(page).insert(page, ReplicaSet::One(node));
        let before = previous.as_ref().map_or(0, ReplicaSet::len);
        self.note_len_change(before, 1);
        previous.map(|set| set.as_slice()[0])
    }

    /// Appends `node` as a standby copy of `page`. Creates the entry if
    /// `page` was unrecorded (making `node` the primary).
    ///
    /// # Panics
    ///
    /// Panics if `node` already holds a copy of `page`.
    pub fn add_replica(&mut self, page: PageId, node: NodeId) {
        let shard = self.shard_mut(page);
        let (before, after) = match shard.get_mut(&page) {
            Some(set) => {
                assert!(
                    !set.as_slice().contains(&node),
                    "{node} already holds a replica of {page}"
                );
                set.push(node);
                (set.len() - 1, set.len())
            }
            None => {
                shard.insert(page, ReplicaSet::One(node));
                (0, 1)
            }
        };
        self.note_len_change(before, after);
    }

    /// Removes `node` from `page`'s replica set, dropping the entry when
    /// the last copy goes. Returns `true` if `node` held a copy.
    pub fn remove_replica(&mut self, page: PageId, node: NodeId) -> bool {
        let idx = self.custodian(page).as_usize();
        let (removed, before, after) = match self.shards[idx].get_mut(&page) {
            None => (false, 0, 0),
            Some(ReplicaSet::One(only)) => {
                if *only == node {
                    self.shards[idx].remove(&page);
                    (true, 1, 0)
                } else {
                    (false, 1, 1)
                }
            }
            Some(ReplicaSet::Many(v)) => {
                let before = v.len();
                match v.iter().position(|&n| n == node) {
                    Some(pos) => {
                        v.remove(pos);
                        let after = v.len();
                        if after == 0 {
                            self.shards[idx].remove(&page);
                        }
                        (true, before, after)
                    }
                    None => (false, before, before),
                }
            }
        };
        self.note_len_change(before, after);
        removed
    }

    /// Removes `page`'s entry entirely (its global copies were consumed
    /// or dropped). Returns the primary holder it was mapped to.
    pub fn clear(&mut self, page: PageId) -> Option<NodeId> {
        let previous = self.shard_mut(page).remove(&page);
        let before = previous.as_ref().map_or(0, ReplicaSet::len);
        self.note_len_change(before, 0);
        previous.map(|set| set.as_slice()[0])
    }

    /// Number of pages with live global copies.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards.iter().map(FastMap::len).sum()
    }

    /// Whether no global copies are recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(FastMap::is_empty)
    }

    /// Total copies across all entries (`len()` when unreplicated).
    #[must_use]
    pub fn total_replicas(&self) -> usize {
        self.shards
            .iter()
            .flat_map(FastMap::values)
            .map(ReplicaSet::len)
            .sum()
    }

    /// Number of entries holding fewer than the target copy count. The
    /// engine treats any non-zero value as an open window of
    /// vulnerability.
    #[must_use]
    pub fn under_replicated(&self) -> usize {
        self.under_replicated
    }

    /// Iterates over `(page, primary holder)` entries in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (PageId, NodeId)> + '_ {
        self.shards
            .iter()
            .flat_map(FastMap::iter)
            .map(|(k, v)| (*k, v.as_slice()[0]))
    }

    /// Iterates over `(page, replica set)` entries in arbitrary order.
    pub fn iter_replicas(&self) -> impl Iterator<Item = (PageId, &[NodeId])> + '_ {
        self.shards
            .iter()
            .flat_map(FastMap::iter)
            .map(|(k, v)| (*k, v.as_slice()))
    }

    /// Rebuilds the shard custodied by `custodian` from replica
    /// *announcements* — `(page, holder, stored_at)` triples collected
    /// from surviving nodes' caches. The shard is cleared and each
    /// page's set reconstructed in ascending `stored_at` order, which is
    /// the order the copies were originally recorded in. Announcements
    /// for pages custodied elsewhere are ignored. Returns the number of
    /// entries rebuilt.
    pub fn rebuild_shard(
        &mut self,
        custodian: NodeId,
        announcements: impl IntoIterator<Item = (PageId, NodeId, u64)>,
    ) -> usize {
        let idx = custodian.as_usize();
        let dropped_under = self.shards[idx]
            .values()
            .filter(|set| self.is_under(set.len()))
            .count();
        self.under_replicated -= dropped_under;
        self.shards[idx].clear();

        let mut claims: Vec<(PageId, NodeId, u64)> = announcements
            .into_iter()
            .filter(|&(page, _, _)| self.custodian(page) == custodian)
            .collect();
        claims.sort_unstable_by_key(|&(page, _, stored_at)| (stored_at, page));
        let mut rebuilt = 0;
        for (page, holder, _) in claims {
            match self.shards[idx].get_mut(&page) {
                Some(set) => set.push(holder),
                None => {
                    self.shards[idx].insert(page, ReplicaSet::One(holder));
                    rebuilt += 1;
                }
            }
        }
        let added_under = self.shards[idx]
            .values()
            .filter(|set| self.is_under(set.len()))
            .count();
        self.under_replicated += added_under;
        rebuilt
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_lookup_clear_cycle() {
        let mut dir = Directory::new(3);
        assert!(dir.is_empty());
        assert_eq!(dir.record(PageId::new(1), NodeId::new(2)), None);
        assert_eq!(dir.lookup(PageId::new(1)), Some(NodeId::new(2)));
        assert_eq!(dir.len(), 1);
        assert_eq!(dir.clear(PageId::new(1)), Some(NodeId::new(2)));
        assert_eq!(dir.lookup(PageId::new(1)), None);
    }

    #[test]
    fn record_returns_previous_holder() {
        let mut dir = Directory::new(3);
        dir.record(PageId::new(1), NodeId::new(0));
        assert_eq!(
            dir.record(PageId::new(1), NodeId::new(1)),
            Some(NodeId::new(0))
        );
    }

    #[test]
    fn custodianship_is_deterministic_and_in_range() {
        let dir = Directory::new(5);
        for i in 0..1000 {
            let c = dir.custodian(PageId::new(i));
            assert!(c.index() < 5);
            assert_eq!(c, dir.custodian(PageId::new(i)));
        }
    }

    #[test]
    fn custodianship_spreads_over_nodes() {
        let dir = Directory::new(4);
        let mut counts = [0u32; 4];
        for i in 0..4000 {
            counts[dir.custodian(PageId::new(i)).as_usize()] += 1;
        }
        for (node, &c) in counts.iter().enumerate() {
            assert!(
                (700..1300).contains(&c),
                "node {node} got {c} of 4000 pages"
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn empty_cluster_panics() {
        let _ = Directory::new(0);
    }

    #[test]
    #[should_panic(expected = "at least one replica")]
    fn zero_replica_target_panics() {
        let _ = Directory::with_replicas(3, 0);
    }

    #[test]
    fn iter_lists_entries() {
        let mut dir = Directory::new(2);
        dir.record(PageId::new(1), NodeId::new(0));
        dir.record(PageId::new(2), NodeId::new(1));
        assert_eq!(dir.iter().count(), 2);
    }

    #[test]
    fn replica_sets_keep_insertion_order() {
        let mut dir = Directory::with_replicas(4, 3);
        let page = PageId::new(9);
        dir.record(page, NodeId::new(2));
        dir.add_replica(page, NodeId::new(0));
        dir.add_replica(page, NodeId::new(3));
        assert_eq!(
            dir.replicas(page),
            &[NodeId::new(2), NodeId::new(0), NodeId::new(3)]
        );
        assert_eq!(dir.lookup(page), Some(NodeId::new(2)));
        assert_eq!(dir.len(), 1);
        assert_eq!(dir.total_replicas(), 3);
    }

    #[test]
    fn remove_replica_promotes_next_and_drops_empty() {
        let mut dir = Directory::with_replicas(4, 2);
        let page = PageId::new(9);
        dir.record(page, NodeId::new(2));
        dir.add_replica(page, NodeId::new(0));
        assert!(dir.remove_replica(page, NodeId::new(2)));
        assert_eq!(dir.lookup(page), Some(NodeId::new(0)));
        assert!(!dir.remove_replica(page, NodeId::new(2)));
        assert!(dir.remove_replica(page, NodeId::new(0)));
        assert_eq!(dir.lookup(page), None);
        assert!(dir.is_empty());
    }

    #[test]
    fn under_replication_is_tracked() {
        let mut dir = Directory::with_replicas(4, 2);
        let page = PageId::new(9);
        assert_eq!(dir.under_replicated(), 0);
        dir.record(page, NodeId::new(2));
        assert_eq!(dir.under_replicated(), 1);
        dir.add_replica(page, NodeId::new(0));
        assert_eq!(dir.under_replicated(), 0);
        dir.remove_replica(page, NodeId::new(0));
        assert_eq!(dir.under_replicated(), 1);
        dir.clear(page);
        assert_eq!(dir.under_replicated(), 0);
    }

    #[test]
    fn rebuild_shard_reconstructs_order_from_clocks() {
        let mut dir = Directory::with_replicas(4, 2);
        // Find two pages custodied by node 1.
        let pages: Vec<PageId> = (0..1000)
            .map(PageId::new)
            .filter(|&p| dir.custodian(p) == NodeId::new(1))
            .take(2)
            .collect();
        dir.record(pages[0], NodeId::new(3));
        dir.add_replica(pages[0], NodeId::new(0));
        dir.record(pages[1], NodeId::new(2));
        let before: Vec<Vec<NodeId>> = pages.iter().map(|&p| dir.replicas(p).to_vec()).collect();

        // Announcements arrive unordered; clocks restore insertion order.
        let announcements = vec![
            (pages[0], NodeId::new(0), 11),
            (pages[1], NodeId::new(2), 14),
            (pages[0], NodeId::new(3), 7),
            // Custodied elsewhere: must be ignored.
            (PageId::new(u64::MAX), NodeId::new(2), 1),
        ];
        let rebuilt = dir.rebuild_shard(NodeId::new(1), announcements);
        assert_eq!(rebuilt, 2);
        for (page, expect) in pages.iter().zip(before) {
            assert_eq!(dir.replicas(*page), expect.as_slice());
        }
        assert_eq!(dir.under_replicated(), 1);
    }
}
