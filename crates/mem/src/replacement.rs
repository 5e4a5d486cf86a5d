//! Page-replacement policies.
//!
//! The paper's simulator uses LRU by default ("Paging policy is determined
//! by a configurable memory management module; an LRU policy is used by
//! default", §3.2). [`Lru`] is the faithful policy; [`Fifo`], [`Clock`]
//! and [`Random2`] exist for the replacement-policy ablation bench.

use std::collections::VecDeque;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::{PageId, PageMap};

/// A local page-replacement policy: tracks resident pages and nominates
/// victims.
///
/// The policy tracks membership only; the caller owns the page table and
/// frame pool. Every implementation indexes its pages through a
/// [`PageMap`]: `new` gives it no dense span, `with_span` one over the
/// node's footprint, and the two behave identically. All
/// implementations uphold two invariants, checked by the shared test
/// suite:
///
/// 1. `evict` never returns a page that was not inserted (or was removed).
/// 2. After `touch(p)`, an immediate `evict` on a policy with ≥2 pages
///    never returns `p` for recency-based policies.
pub trait ReplacementPolicy {
    /// Notes that `page` was just inserted (made resident). The page must
    /// not already be tracked.
    fn insert(&mut self, page: PageId);

    /// Notes that `page` was just accessed. Untracked pages are ignored.
    fn touch(&mut self, page: PageId);

    /// Selects and removes a victim. `None` if no pages are tracked.
    fn evict(&mut self) -> Option<PageId>;

    /// Stops tracking `page` (e.g. it was discarded for another reason).
    fn remove(&mut self, page: PageId);

    /// Number of tracked pages.
    fn len(&self) -> usize;

    /// Whether no pages are tracked.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The policy's name for reports.
    fn name(&self) -> &'static str;
}

// ---------------------------------------------------------------------
// LRU: O(1) doubly-linked list over a slab.
// ---------------------------------------------------------------------

const NIL: usize = usize::MAX;

#[derive(Debug, Clone, Copy)]
struct Node {
    page: PageId,
    prev: usize,
    next: usize,
}

/// True least-recently-used replacement in O(1) per operation.
///
/// # Examples
///
/// ```
/// use gms_mem::{Lru, PageId, ReplacementPolicy};
///
/// let mut lru = Lru::new();
/// lru.insert(PageId::new(1));
/// lru.insert(PageId::new(2));
/// lru.touch(PageId::new(1)); // 2 is now the coldest
/// assert_eq!(lru.evict(), Some(PageId::new(2)));
/// ```
#[derive(Debug, Clone)]
pub struct Lru {
    map: PageMap<usize>,
    nodes: Vec<Node>,
    free: Vec<usize>,
    /// Most recently used.
    head: usize,
    /// Least recently used.
    tail: usize,
}

impl Default for Lru {
    fn default() -> Self {
        Lru::new()
    }
}

impl Lru {
    /// An empty LRU list.
    #[must_use]
    pub fn new() -> Self {
        Lru::with_span(PageId::new(0), 0)
    }

    /// An empty LRU list indexing the `pages` pages from `first`
    /// directly.
    #[must_use]
    pub fn with_span(first: PageId, pages: u64) -> Self {
        Lru {
            map: PageMap::with_span(first, pages),
            nodes: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }

    fn unlink(&mut self, slot: usize) {
        let Node { prev, next, .. } = self.nodes[slot];
        if prev != NIL {
            self.nodes[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.nodes[next].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, slot: usize) {
        self.nodes[slot].prev = NIL;
        self.nodes[slot].next = self.head;
        if self.head != NIL {
            self.nodes[self.head].prev = slot;
        }
        self.head = slot;
        if self.tail == NIL {
            self.tail = slot;
        }
    }
}

impl ReplacementPolicy for Lru {
    fn insert(&mut self, page: PageId) {
        assert!(!self.map.contains(page), "{page} inserted twice into LRU");
        let slot = if let Some(slot) = self.free.pop() {
            self.nodes[slot] = Node {
                page,
                prev: NIL,
                next: NIL,
            };
            slot
        } else {
            self.nodes.push(Node {
                page,
                prev: NIL,
                next: NIL,
            });
            self.nodes.len() - 1
        };
        self.map.insert(page, slot);
        self.push_front(slot);
    }

    fn touch(&mut self, page: PageId) {
        let Some(&slot) = self.map.get(page) else {
            return;
        };
        if self.head == slot {
            return;
        }
        self.unlink(slot);
        self.push_front(slot);
    }

    fn evict(&mut self) -> Option<PageId> {
        if self.tail == NIL {
            return None;
        }
        let slot = self.tail;
        let page = self.nodes[slot].page;
        self.unlink(slot);
        self.map.remove(page);
        self.free.push(slot);
        Some(page)
    }

    fn remove(&mut self, page: PageId) {
        if let Some(slot) = self.map.remove(page) {
            self.unlink(slot);
            self.free.push(slot);
        }
    }

    fn len(&self) -> usize {
        self.map.len()
    }

    fn name(&self) -> &'static str {
        "lru"
    }
}

// ---------------------------------------------------------------------
// FIFO.
// ---------------------------------------------------------------------

/// First-in-first-out replacement: eviction order ignores recency.
///
/// `remove` is lazy: it forgets the page but leaves its queue slot,
/// which eviction skips. Each insert stamps the page and its slot with
/// a fresh generation, so a page removed and inserted again owns only
/// its newest slot — a stale one can never evict the new copy early.
#[derive(Debug, Clone, Default)]
pub struct Fifo {
    queue: VecDeque<(PageId, u64)>,
    /// Resident pages and the generation of their live slot.
    present: PageMap<u64>,
    generation: u64,
}

impl Fifo {
    /// An empty FIFO queue.
    #[must_use]
    pub fn new() -> Self {
        Fifo::default()
    }

    /// An empty FIFO queue indexing the `pages` pages from `first`
    /// directly.
    #[must_use]
    pub fn with_span(first: PageId, pages: u64) -> Self {
        Fifo {
            present: PageMap::with_span(first, pages),
            ..Fifo::default()
        }
    }
}

impl ReplacementPolicy for Fifo {
    fn insert(&mut self, page: PageId) {
        self.generation += 1;
        assert!(
            self.present.insert(page, self.generation).is_none(),
            "{page} inserted twice into FIFO"
        );
        self.queue.push_back((page, self.generation));
    }

    fn touch(&mut self, _page: PageId) {}

    fn evict(&mut self) -> Option<PageId> {
        while let Some((page, generation)) = self.queue.pop_front() {
            if self.present.get(page) == Some(&generation) {
                self.present.remove(page);
                return Some(page);
            }
        }
        None
    }

    fn remove(&mut self, page: PageId) {
        // Lazy removal: the queue slot is skipped at eviction time.
        self.present.remove(page);
    }

    fn len(&self) -> usize {
        self.present.len()
    }

    fn name(&self) -> &'static str {
        "fifo"
    }
}

// ---------------------------------------------------------------------
// Clock (second chance).
// ---------------------------------------------------------------------

/// The classic clock / second-chance approximation of LRU, as in
/// Tanenbaum's *Modern Operating Systems*: the page that replaces an
/// eviction takes the victim's ring slot, and the hand moves one past
/// it.
///
/// Like [`Fifo`], `remove` is lazy and each insert stamps the page and
/// its ring slot with a fresh generation, so only a page's newest slot
/// is live. The hand drops stale slots in place, keeping the ring's
/// order.
#[derive(Debug, Clone, Default)]
pub struct Clock {
    ring: Vec<(PageId, u64)>,
    /// Resident pages: the generation of their live slot and the
    /// referenced bit.
    referenced: PageMap<(u64, bool)>,
    hand: usize,
    /// The slot the last eviction emptied, under the hand, until the
    /// next insert fills it. Another eviction first drops it as a
    /// stale slot.
    vacant: Option<usize>,
    generation: u64,
}

impl Clock {
    /// An empty clock.
    #[must_use]
    pub fn new() -> Self {
        Clock::default()
    }

    /// An empty clock indexing the `pages` pages from `first` directly.
    #[must_use]
    pub fn with_span(first: PageId, pages: u64) -> Self {
        Clock {
            referenced: PageMap::with_span(first, pages),
            ..Clock::default()
        }
    }
}

impl ReplacementPolicy for Clock {
    fn insert(&mut self, page: PageId) {
        self.generation += 1;
        assert!(
            self.referenced
                .insert(page, (self.generation, false))
                .is_none(),
            "{page} inserted twice into Clock"
        );
        let slot = (page, self.generation);
        match self.vacant.take() {
            Some(i) => {
                self.ring[i] = slot;
                self.hand = i + 1;
            }
            None => self.ring.push(slot),
        }
    }

    fn touch(&mut self, page: PageId) {
        if let Some((_, r)) = self.referenced.get_mut(page) {
            *r = true;
        }
    }

    fn evict(&mut self) -> Option<PageId> {
        self.vacant = None;
        if self.referenced.is_empty() {
            return None;
        }
        loop {
            if self.ring.is_empty() {
                return None;
            }
            self.hand %= self.ring.len();
            let (page, generation) = self.ring[self.hand];
            match self.referenced.get_mut(page) {
                Some((live, r)) if *live == generation => {
                    if *r {
                        *r = false;
                        self.hand += 1;
                    } else {
                        // The slot stays, stale, for the next insert.
                        self.referenced.remove(page);
                        self.vacant = Some(self.hand);
                        return Some(page);
                    }
                }
                _ => {
                    // Removed lazily (or superseded by a later insert
                    // of the same page): drop the stale slot, keeping
                    // the order of the slots behind it.
                    self.ring.remove(self.hand);
                }
            }
        }
    }

    fn remove(&mut self, page: PageId) {
        self.referenced.remove(page);
    }

    fn len(&self) -> usize {
        self.referenced.len()
    }

    fn name(&self) -> &'static str {
        "clock"
    }
}

// ---------------------------------------------------------------------
// Random two-choices.
// ---------------------------------------------------------------------

/// Evicts the older of two randomly-chosen resident pages (the
/// power-of-two-choices approximation of LRU).
#[derive(Debug, Clone)]
pub struct Random2 {
    pages: Vec<PageId>,
    /// Each tracked page's index in `pages` and its last-use stamp.
    entries: PageMap<(usize, u64)>,
    clock: u64,
    rng: SmallRng,
}

impl Random2 {
    /// An empty policy with the given RNG seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Random2::with_span(seed, PageId::new(0), 0)
    }

    /// An empty policy with the given RNG seed, indexing the `pages`
    /// pages from `first` directly.
    #[must_use]
    pub fn with_span(seed: u64, first: PageId, pages: u64) -> Self {
        Random2 {
            pages: Vec::new(),
            entries: PageMap::with_span(first, pages),
            clock: 0,
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    fn stamp(&self, page: PageId) -> u64 {
        self.entries.get(page).expect("tracked page").1
    }

    fn forget(&mut self, page: PageId) {
        if let Some((slot, _)) = self.entries.remove(page) {
            self.pages.swap_remove(slot);
            if let Some(&moved) = self.pages.get(slot) {
                self.entries.get_mut(moved).expect("tracked page").0 = slot;
            }
        }
    }
}

impl ReplacementPolicy for Random2 {
    fn insert(&mut self, page: PageId) {
        assert!(
            !self.entries.contains(page),
            "{page} inserted twice into Random2"
        );
        self.clock += 1;
        self.entries.insert(page, (self.pages.len(), self.clock));
        self.pages.push(page);
    }

    fn touch(&mut self, page: PageId) {
        if let Some((_, stamp)) = self.entries.get_mut(page) {
            self.clock += 1;
            *stamp = self.clock;
        }
    }

    fn evict(&mut self) -> Option<PageId> {
        if self.pages.is_empty() {
            return None;
        }
        let a = self.pages[self.rng.gen_range(0..self.pages.len())];
        let b = self.pages[self.rng.gen_range(0..self.pages.len())];
        let victim = if self.stamp(a) <= self.stamp(b) { a } else { b };
        self.forget(victim);
        Some(victim)
    }

    fn remove(&mut self, page: PageId) {
        self.forget(page);
    }

    fn len(&self) -> usize {
        self.pages.len()
    }

    fn name(&self) -> &'static str {
        "random2"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(n: u64) -> PageId {
        PageId::new(n)
    }

    /// Shared conformance checks for every policy.
    fn conformance(mut policy: impl ReplacementPolicy) {
        assert!(policy.is_empty());
        assert_eq!(policy.evict(), None);

        for i in 0..10 {
            policy.insert(p(i));
        }
        assert_eq!(policy.len(), 10);

        // Evicting drains exactly the inserted set, no duplicates.
        let mut evicted = std::collections::HashSet::new();
        while let Some(page) = policy.evict() {
            assert!(evicted.insert(page), "{page} evicted twice");
        }
        assert_eq!(evicted.len(), 10);
        assert!(policy.is_empty());

        // Removal prevents later eviction.
        policy.insert(p(100));
        policy.insert(p(101));
        policy.remove(p(100));
        assert_eq!(policy.evict(), Some(p(101)));
        assert_eq!(policy.evict(), None);

        // Touching an untracked page is a no-op.
        policy.touch(p(42));
        assert!(policy.is_empty());

        // A removed page inserted again is tracked once, as its new
        // copy: the first copy's slot must not stand in for it. FIFO
        // order (and a clock hand starting at the oldest slot) says 2
        // goes first; random two-choice may pick either, but each once.
        policy.insert(p(1));
        policy.insert(p(2));
        policy.remove(p(1));
        policy.insert(p(1));
        assert_eq!(policy.len(), 2);
        let first = policy.evict().expect("two pages tracked");
        if policy.name() != "random2" {
            assert_eq!(
                first,
                p(2),
                "{}: stale slot evicted the new copy",
                policy.name()
            );
        }
        let second = policy.evict().expect("one page left");
        assert_ne!(first, second, "{}: page evicted twice", policy.name());
        assert_eq!(policy.evict(), None);
    }

    #[test]
    fn all_policies_conform() {
        conformance(Lru::new());
        conformance(Fifo::new());
        conformance(Clock::new());
        conformance(Random2::new(7));
        // A span over part of the ids the suite uses: some pages index
        // directly, the rest spill.
        conformance(Lru::with_span(p(0), 50));
        conformance(Fifo::with_span(p(0), 50));
        conformance(Clock::with_span(p(0), 50));
        conformance(Random2::with_span(7, p(0), 50));
        conformance(Lru::default());
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut lru = Lru::new();
        for i in 0..4 {
            lru.insert(p(i));
        }
        lru.touch(p(0));
        lru.touch(p(1));
        // Order of coldness now: 2, 3, 0, 1.
        assert_eq!(lru.evict(), Some(p(2)));
        assert_eq!(lru.evict(), Some(p(3)));
        assert_eq!(lru.evict(), Some(p(0)));
        assert_eq!(lru.evict(), Some(p(1)));
    }

    #[test]
    fn lru_touch_of_head_is_stable() {
        let mut lru = Lru::new();
        lru.insert(p(1));
        lru.insert(p(2));
        lru.touch(p(2));
        lru.touch(p(2));
        assert_eq!(lru.evict(), Some(p(1)));
    }

    #[test]
    fn lru_reuses_slots_after_heavy_churn() {
        let mut lru = Lru::new();
        for round in 0..100u64 {
            lru.insert(p(round));
            if round >= 4 {
                lru.evict().expect("non-empty");
            }
        }
        // The slab should not have grown past the peak population plus
        // a small constant.
        assert!(lru.nodes.len() <= 8, "slab grew to {}", lru.nodes.len());
    }

    #[test]
    fn fifo_ignores_touches() {
        let mut fifo = Fifo::new();
        fifo.insert(p(1));
        fifo.insert(p(2));
        fifo.touch(p(1));
        assert_eq!(fifo.evict(), Some(p(1)));
    }

    #[test]
    fn clock_gives_second_chance() {
        let mut clock = Clock::new();
        clock.insert(p(1));
        clock.insert(p(2));
        clock.touch(p(1));
        // 1 is referenced: it survives the first sweep, 2 goes.
        assert_eq!(clock.evict(), Some(p(2)));
        assert_eq!(clock.evict(), Some(p(1)));
    }

    #[test]
    fn clock_refills_the_evicted_slot_in_place() {
        let mut clock = Clock::new();
        for i in 1..=3 {
            clock.insert(p(i));
        }
        // 1 goes, and 4 takes its slot: the ring reads 4, 2, 3 with the
        // hand on 2, so the next sweep visits the page after the victim
        // rather than the newest one.
        assert_eq!(clock.evict(), Some(p(1)));
        clock.insert(p(4));
        assert_eq!(clock.evict(), Some(p(2)));
        clock.insert(p(5));
        assert_eq!(clock.evict(), Some(p(3)));
        clock.insert(p(6));
        // A full turn later the hand is back on the first slot.
        assert_eq!(clock.evict(), Some(p(4)));
    }

    #[test]
    fn random2_prefers_older_pages() {
        let mut r2 = Random2::new(42);
        for i in 0..200 {
            r2.insert(p(i));
        }
        // Keep the second half hot.
        for _ in 0..5 {
            for i in 100..200 {
                r2.touch(p(i));
            }
        }
        // Evict half the pages; the survivors should be mostly hot
        // ones. Two-random-choice eviction picks a cold page with
        // probability 1 - (hot/total)^2, so over 100 evictions the
        // expected cold count is ~69 with a standard deviation of ~5;
        // 60 is a ~2-sigma bound that still rules out random eviction
        // (which would center on 50 and essentially never reach 60
        // while also draining cold pages this fast).
        let mut cold_evictions = 0;
        for _ in 0..100 {
            if r2.evict().expect("non-empty").get() < 100 {
                cold_evictions += 1;
            }
        }
        assert!(cold_evictions >= 60, "only {cold_evictions}/100 were cold");
    }

    #[test]
    #[should_panic(expected = "inserted twice")]
    fn lru_double_insert_panics() {
        let mut lru = Lru::new();
        lru.insert(p(1));
        lru.insert(p(1));
    }

    #[test]
    fn names_are_distinct() {
        let names = [
            Lru::new().name(),
            Fifo::new().name(),
            Clock::new().name(),
            Random2::new(0).name(),
        ];
        let set: std::collections::HashSet<_> = names.into_iter().collect();
        assert_eq!(set.len(), 4);
    }
}
