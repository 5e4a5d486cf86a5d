//! Property tests for the memory substrate: TLB against a reference
//! model, `PageMap` against a hash map, and replacement-policy
//! population invariants.

use proptest::prelude::*;

use gms_mem::{
    Clock, Fifo, Lru, PageId, PageMap, Random2, ReplacementPolicy, SubpageIndex, SubpageMask, Tlb,
};
use gms_units::{Cycles, FastMap};

/// A straightforward fully-associative LRU reference model.
struct RefTlb {
    entries: Vec<u64>,
    capacity: usize,
}

impl RefTlb {
    fn access(&mut self, page: u64) -> bool {
        if let Some(pos) = self.entries.iter().position(|&e| e == page) {
            self.entries.remove(pos);
            self.entries.push(page);
            true
        } else {
            if self.entries.len() == self.capacity {
                self.entries.remove(0);
            }
            self.entries.push(page);
            false
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The fully-associative TLB agrees with the reference model on every
    /// access of an arbitrary page stream.
    #[test]
    fn tlb_matches_reference_model(pages in prop::collection::vec(0u64..64, 1..400)) {
        let mut tlb = Tlb::new(1, 32, Cycles::new(40));
        let mut reference = RefTlb { entries: Vec::new(), capacity: 32 };
        let mut hits = 0u64;
        for &p in &pages {
            let got = tlb.access(PageId::new(p));
            let want = reference.access(p);
            prop_assert_eq!(got, want, "page {}", p);
            if got {
                hits += 1;
            }
        }
        prop_assert_eq!(tlb.stats().hits, hits);
        prop_assert_eq!(tlb.stats().misses, pages.len() as u64 - hits);
    }

    /// Invalidation really removes entries, in both models.
    #[test]
    fn tlb_invalidate_agrees(ops in prop::collection::vec((0u64..32, prop::bool::ANY), 1..200)) {
        let mut tlb = Tlb::new(1, 8, Cycles::new(1));
        let mut reference = RefTlb { entries: Vec::new(), capacity: 8 };
        for (p, invalidate) in ops {
            if invalidate {
                tlb.invalidate(PageId::new(p));
                reference.entries.retain(|&e| e != p);
            } else {
                prop_assert_eq!(tlb.access(PageId::new(p)), reference.access(p));
            }
        }
    }

    /// Every replacement policy maintains exactly the inserted-minus-
    /// evicted/removed population, for arbitrary op sequences — with no
    /// dense span, and with one covering every id — and the two index
    /// layouts evict in the same order.
    #[test]
    fn replacement_population_invariant(
        ops in prop::collection::vec((0u64..64, 0u8..4), 1..300),
        which in 0usize..4,
    ) {
        let build = |span: u64| -> Box<dyn ReplacementPolicy> {
            let first = PageId::new(0);
            match which {
                0 => Box::new(Lru::with_span(first, span)),
                1 => Box::new(Fifo::with_span(first, span)),
                2 => Box::new(Clock::with_span(first, span)),
                _ => Box::new(Random2::with_span(9, first, span)),
            }
        };
        let mut victims = Vec::new();
        for span in [0, 64] {
            let mut policy = build(span);
            let mut present = std::collections::HashSet::new();
            let mut evicted = Vec::new();
            for &(p, op) in &ops {
                let page = PageId::new(p);
                match op {
                    0 => {
                        if !present.contains(&p) {
                            policy.insert(page);
                            present.insert(p);
                        }
                    }
                    1 => policy.touch(page),
                    2 => {
                        policy.remove(page);
                        present.remove(&p);
                    }
                    _ => {
                        let victim = policy.evict();
                        if let Some(victim) = victim {
                            prop_assert!(
                                present.remove(&victim.get()),
                                "evicted untracked {victim}"
                            );
                        } else {
                            prop_assert!(present.is_empty());
                        }
                        evicted.push(victim);
                    }
                }
                prop_assert_eq!(policy.len(), present.len());
            }
            victims.push(evicted);
        }
        prop_assert_eq!(&victims[0], &victims[1], "span changed the eviction order");
    }

    /// `PageMap` answers every operation as a hash map would, for ids
    /// below, inside and above its dense span, and with no span at all.
    #[test]
    fn page_map_matches_a_hash_map(
        first in 8u64..40,
        pages in 0u64..32,
        no_span in prop::bool::ANY,
        ops in prop::collection::vec((0u64..80, 0u8..5, 0u32..1000), 1..300),
    ) {
        let mut map = if no_span {
            PageMap::new()
        } else {
            PageMap::with_span(PageId::new(first), pages)
        };
        let mut model: FastMap<PageId, u32> = FastMap::default();
        for (id, op, value) in ops {
            let page = PageId::new(id);
            match op {
                0 => prop_assert_eq!(map.insert(page, value), model.insert(page, value)),
                1 => prop_assert_eq!(map.remove(page), model.remove(&page)),
                2 => prop_assert_eq!(map.get(page), model.get(&page)),
                3 => {
                    if let Some(v) = map.get_mut(page) {
                        *v += value;
                    }
                    if let Some(v) = model.get_mut(&page) {
                        *v += value;
                    }
                }
                _ => prop_assert_eq!(map.contains(page), model.contains_key(&page)),
            }
            prop_assert_eq!(map.len(), model.len());
            prop_assert_eq!(map.is_empty(), model.is_empty());
        }
        let mut listed: Vec<(u64, u32)> = map.iter().map(|(k, v)| (k.get(), *v)).collect();
        let mut want: Vec<(u64, u32)> = model.iter().map(|(k, v)| (k.get(), *v)).collect();
        listed.sort_unstable();
        want.sort_unstable();
        prop_assert_eq!(listed, want);
    }

    /// Mask display, iteration and counting stay mutually consistent
    /// under random set/clear sequences.
    #[test]
    fn mask_consistency(width in 1u32..=64, ops in prop::collection::vec((0u8..64, prop::bool::ANY), 0..200)) {
        let mut mask = SubpageMask::empty(width);
        let mut reference = std::collections::BTreeSet::new();
        for (i, set) in ops {
            if (i as u32) < width {
                if set {
                    mask.set(SubpageIndex::new(i));
                    reference.insert(i);
                } else {
                    mask.clear(SubpageIndex::new(i));
                    reference.remove(&i);
                }
            }
        }
        let from_iter: Vec<u8> = mask.iter().map(|s| s.get()).collect();
        let from_ref: Vec<u8> = reference.iter().copied().collect();
        prop_assert_eq!(from_iter, from_ref);
        prop_assert_eq!(mask.count() as usize, reference.len());
        let rendered = format!("{mask}");
        prop_assert_eq!(rendered.chars().filter(|c| *c == '1').count(), reference.len());
        prop_assert_eq!(rendered.len(), width as usize);
    }
}
