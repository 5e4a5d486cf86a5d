//! Property tests for the GMS protocol: the directory and node contents
//! stay mutually consistent under arbitrary operation sequences and
//! under node crashes.

use proptest::prelude::*;

use gms_cluster::{GetPageOutcome, Gms, ReplicationConfig};
use gms_mem::PageId;
use gms_units::NodeId;

/// One protocol operation chosen by the fuzzer.
#[derive(Debug, Clone)]
enum Op {
    Get(u64),
    Put(u64, bool),
    Discard(u64),
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0u64..200).prop_map(Op::Get),
        4 => ((0u64..200), prop::bool::ANY).prop_map(|(p, d)| Op::Put(p, d)),
        1 => (0u64..200).prop_map(Op::Discard),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// After any operation sequence: the directory maps exactly the
    /// cached pages; a page fetched and not put back always misses; a
    /// page put back always hits.
    #[test]
    fn protocol_keeps_directory_consistent(ops in prop::collection::vec(arb_op(), 1..120)) {
        let mut gms = Gms::new(4, 64);
        gms.warm_cache((0..100).map(PageId::new));
        let active = NodeId::new(0);
        // Track which pages should have a live global copy.
        let mut global: std::collections::HashSet<u64> = (0..100).collect();

        for op in ops {
            match op {
                Op::Get(p) => {
                    let expect_hit = global.contains(&p);
                    match gms.getpage(active, PageId::new(p)) {
                        GetPageOutcome::RemoteHit { .. } => {
                            prop_assert!(expect_hit, "unexpected hit for {p}");
                            global.remove(&p);
                        }
                        GetPageOutcome::Miss => {
                            prop_assert!(!expect_hit, "unexpected miss for {p}");
                        }
                    }
                }
                Op::Put(p, dirty) => {
                    let out = gms.putpage(active, PageId::new(p), dirty);
                    global.insert(p);
                    if let Some(old) = out.displaced {
                        global.remove(&old.get());
                    }
                }
                Op::Discard(p) => {
                    gms.discard(active, PageId::new(p));
                    global.remove(&p);
                }
            }
            prop_assert!(gms.is_consistent());
        }

        // Final audit: every tracked page hits, every untracked misses.
        let tracked: Vec<u64> = global.iter().copied().collect();
        for p in tracked {
            prop_assert!(matches!(
                gms.getpage(active, PageId::new(p)),
                GetPageOutcome::RemoteHit { .. }
            ), "page {p} lost");
        }
    }

    /// Node departure by crash: after removing an arbitrary idle node,
    /// every surviving directory entry names a live custodian, the loss
    /// is accounted, and re-inserting the lost pages round-trips
    /// through live custodians (whether or not the node recovered).
    #[test]
    fn crash_leaves_directory_live_and_reinsertion_round_trips(
        pages in 1u64..60,
        victim in 1u32..5,
        recover in prop::bool::ANY,
    ) {
        let mut gms = Gms::new(5, 64);
        gms.warm_cache((0..pages).map(PageId::new));
        let victim = NodeId::new(victim);
        let crash = gms.crash_node(victim);
        prop_assert!(gms.is_consistent());
        for (page, custodian) in gms.directory().iter() {
            prop_assert!(custodian != victim, "{page} still maps to the crashed node");
            prop_assert!(!gms.node_is_down(custodian), "{page} maps to a down node");
        }
        prop_assert_eq!(gms.stats().pages_lost_to_crash, crash.pages_lost);
        if recover {
            gms.recover_node(victim);
            prop_assert!(!gms.node_is_down(victim));
        }
        // Re-insertion round-trips: putpage lands every lost page on a
        // live custodian and the directory finds it again.
        let active = NodeId::new(0);
        for p in 0..pages {
            let page = PageId::new(p);
            if gms.locate(page).is_none() {
                let out = gms
                    .try_putpage(active, page, false)
                    .expect("live custodians remain");
                prop_assert!(!gms.node_is_down(out.stored_at));
                prop_assert_eq!(gms.locate(page), Some(out.stored_at));
            }
        }
        prop_assert!(gms.is_consistent());
    }

    /// A custodian crash rebuilds its directory shard from surviving
    /// replica announcements: afterwards each warmed page maps to
    /// exactly its surviving holders, in the original order.
    #[test]
    fn crash_rebuild_reconstructs_surviving_holders(
        pages in 1u64..80,
        victim in 1u32..6,
        k in 1u32..3,
    ) {
        let mut gms = Gms::with_replication(
            6,
            1,
            64,
            ReplicationConfig { replicas: k, ..ReplicationConfig::default() },
        );
        gms.warm_cache((0..pages).map(PageId::new));
        let before: Vec<(PageId, Vec<NodeId>)> = (0..pages)
            .map(PageId::new)
            .map(|p| (p, gms.directory().replicas(p).to_vec()))
            .collect();
        let victim = NodeId::new(victim);
        gms.crash_node(victim);
        prop_assert_eq!(gms.stats().directory_rebuilds, 1);
        for (page, holders) in before {
            let survivors: Vec<NodeId> =
                holders.into_iter().filter(|&n| n != victim).collect();
            prop_assert_eq!(
                gms.directory().replicas(page),
                survivors.as_slice(),
                "{} not rebuilt from announcements",
                page
            );
        }
        prop_assert!(gms.is_consistent());
    }
}
