//! Property-based tests over the whole stack.

use proptest::prelude::*;

use gms_subpages::core::{ClusterSim, FetchPolicy, MemoryConfig, SimConfig, Simulator};
use gms_subpages::mem::{
    Geometry, Lru, PageId, PageSize, ReplacementPolicy, SubpageIndex, SubpageMask, SubpageSize,
};
use gms_subpages::net::{ClusterNetwork, NetParams, NetResource, RecvOverhead, TransferPlan};
use gms_subpages::trace::{apps, io, AccessKind, Run, TraceSource, VecSource};
use gms_subpages::units::{Bytes, Duration, NodeId, SimTime, VirtAddr};

/// Strategy: a valid run within a bounded address window.
fn arb_run() -> impl Strategy<Value = Run> {
    (
        0u64..(1 << 30),
        prop_oneof![
            Just(-64i64),
            -16i64..=-1,
            1i64..=64,
            Just(128i64),
            Just(8192i64),
            Just(0i64)
        ],
        1u64..2000,
        prop::bool::ANY,
    )
        .prop_map(|(start, stride, count, write)| {
            // Anchor high enough that negative strides cannot underflow.
            let base = 0x1_0000_0000u64 + start;
            let kind = if write {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            Run::new(VirtAddr::new(base), stride, count, kind)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Subpage masks: set/clear round-trip, counts never exceed width,
    /// and filling every index yields a full mask.
    #[test]
    fn mask_algebra(width in 1u32..=64, indices in prop::collection::vec(0u8..64, 0..128)) {
        let mut mask = SubpageMask::empty(width);
        let mut reference = std::collections::HashSet::new();
        for &i in indices.iter().filter(|i| (**i as u32) < width) {
            let fresh = mask.set(SubpageIndex::new(i));
            prop_assert_eq!(fresh, reference.insert(i));
        }
        prop_assert_eq!(mask.count() as usize, reference.len());
        prop_assert_eq!(mask.iter().count(), reference.len());
        prop_assert_eq!(mask.is_full(), reference.len() == width as usize);
        for &i in &reference {
            prop_assert!(mask.contains(SubpageIndex::new(i)));
        }
    }

    /// Address decomposition round-trips for every geometry.
    #[test]
    fn geometry_round_trip(addr in 0u64..u64::MAX / 2, sub_pow in 8u32..=13) {
        let page = PageSize::P8K;
        let sub = SubpageSize::new(Bytes::new(1 << sub_pow));
        let geom = Geometry::new(page, sub);
        let a = VirtAddr::new(addr);
        let (p, s) = geom.decompose(a);
        let reconstructed = geom.addr_of(p, s);
        // The reconstruction is the subpage base: at or below the
        // address, within one subpage of it.
        prop_assert!(reconstructed <= a);
        prop_assert!(a - reconstructed < sub.bytes());
        prop_assert_eq!(geom.page_of(reconstructed), p);
        prop_assert_eq!(geom.subpage_of(reconstructed), s);
    }

    /// LRU never evicts the most recently touched page while others
    /// remain, and preserves the full population.
    #[test]
    fn lru_protects_most_recent(ops in prop::collection::vec((0u64..40, prop::bool::ANY), 1..200)) {
        let mut lru = Lru::new();
        let mut present = std::collections::HashSet::new();
        let mut last_touch = None;
        for (page, touch) in ops {
            let page = PageId::new(page);
            if touch {
                lru.touch(page);
                if present.contains(&page) {
                    last_touch = Some(page);
                }
            } else if !present.contains(&page) {
                lru.insert(page);
                present.insert(page);
                last_touch = Some(page);
            }
        }
        prop_assert_eq!(lru.len(), present.len());
        if present.len() >= 2 {
            if let Some(hot) = last_touch {
                let victim = lru.evict().expect("non-empty");
                prop_assert_ne!(victim, hot, "evicted the hottest page");
            }
        }
    }

    /// Fault-timeline causality for arbitrary plans on a two-node
    /// network: the program resumes after
    /// the fault; completion is the max arrival; follow-on arrivals are
    /// monotone; a later fault never resumes before an earlier one.
    #[test]
    fn timeline_causality(
        sizes in prop::collection::vec(1u64..9000, 1..6),
        gap_us in 0u64..2000,
        zero_overhead in prop::bool::ANY,
    ) {
        let overhead = if zero_overhead { RecvOverhead::Zero } else { RecvOverhead::Measured };
        let plan = TransferPlan::new(sizes.into_iter().map(Bytes::new).collect(), overhead);
        let (req, srv) = (NodeId::new(0), NodeId::new(1));
        let mut net = ClusterNetwork::new(NetParams::paper(), 2);
        let f1 = net.fault(SimTime::ZERO, req, srv, &plan);
        prop_assert!(f1.resume_at > f1.fault_at);
        let max_arrival = f1.arrivals.iter().map(|a| a.available_at).max().expect("non-empty");
        prop_assert_eq!(f1.page_complete_at, max_arrival);
        // Follow-on messages complete their DMA in send order. (The
        // *availability* of a small message can precede that of a larger
        // earlier one, because the receive copy is proportional to size.)
        for w in f1.arrivals[1..].windows(2) {
            let dma0 = w[0].available_at - w[0].recv_cpu;
            let dma1 = w[1].available_at - w[1].recv_cpu;
            prop_assert!(dma0 <= dma1);
        }
        let at2 = f1.resume_at + gms_subpages::units::Duration::from_micros(gap_us);
        let f2 = net.fault(at2, req, srv, &plan);
        prop_assert!(f2.resume_at >= f1.resume_at);
        prop_assert!(f2.resume_at > at2);
    }

    /// Trace files round-trip arbitrary run lists exactly.
    #[test]
    fn trace_io_round_trip(runs in prop::collection::vec(arb_run(), 0..50)) {
        let mut src = VecSource::new(runs.clone());
        let mut file = Vec::new();
        io::write_trace(&mut src, &mut file).expect("write");
        let mut replay = io::read_trace(file.as_slice()).expect("read");
        let mut got = Vec::new();
        while let Some(r) = replay.next_run() {
            got.push(r);
        }
        prop_assert_eq!(got, runs);
    }

    /// The engine conserves time and executes every reference for
    /// arbitrary (small) traces under arbitrary paper policies.
    #[test]
    fn engine_conservation_on_random_traces(
        runs in prop::collection::vec(arb_run(), 1..25),
        policy_pick in 0usize..5,
        frames in 2u64..64,
    ) {
        let policy = [
            FetchPolicy::fullpage(),
            FetchPolicy::eager(SubpageSize::S1K),
            FetchPolicy::eager(SubpageSize::S256),
            FetchPolicy::pipelined(SubpageSize::S2K),
            FetchPolicy::lazy(SubpageSize::S1K),
        ][policy_pick];
        let total_refs: u64 = runs.iter().map(|r| r.count()).sum();
        // Footprint: cover the whole window the strategy can address.
        let lo = runs.iter().map(|r| r.bounds().0).min().expect("non-empty");
        let hi = runs.iter().map(|r| r.bounds().1).max().expect("non-empty");
        let base = lo.align_down(Bytes::kib(8));
        let footprint = (hi - base) + Bytes::new(1);

        let mut source = VecSource::new(runs);
        let report = Simulator::new(
            SimConfig::builder()
                .policy(policy)
                .memory(MemoryConfig::Frames(frames))
                .build(),
        )
        .run_trace(&mut source, footprint, base);
        report.assert_conserved();
        prop_assert_eq!(report.total_refs, total_refs);
        prop_assert!(report.faults.total() > 0);
        prop_assert_eq!(report.fault_log.len() as u64, report.faults.total());
    }

    /// Multi-node network causality: no `(node, resource)` pair ever
    /// serves two transfers at overlapping times, and every fault's
    /// follow-on messages complete their DMA in send order, for
    /// arbitrary interleavings of faults and putpage sends.
    #[test]
    fn cluster_network_causality(
        n_nodes in 3u32..6,
        ops in prop::collection::vec(
            (
                prop::bool::ANY,
                0u32..6,
                0u32..6,
                0u64..3000,
                prop::collection::vec(1u64..9000, 1..5),
            ),
            1..20,
        ),
    ) {
        let mut net = ClusterNetwork::new(NetParams::paper(), n_nodes);
        net.record_occupancies();
        let mut now = SimTime::ZERO;
        let mut faults = Vec::new();
        for (is_fault, a, b, gap_us, sizes) in ops {
            let from = NodeId::new(a % n_nodes);
            let to = if b % n_nodes == a % n_nodes {
                NodeId::new((b + 1) % n_nodes)
            } else {
                NodeId::new(b % n_nodes)
            };
            now += Duration::from_micros(gap_us);
            if is_fault {
                let plan = TransferPlan::new(
                    sizes.into_iter().map(Bytes::new).collect(),
                    RecvOverhead::Measured,
                );
                let f = net.fault(now, from, to, &plan);
                prop_assert!(f.resume_at > now);
                faults.push(f);
            } else {
                let s = net.send(now, from, to, Bytes::kib(8));
                prop_assert!(s.delivered_at > now);
            }
        }
        // Serially-reusable resources: per (node, resource), recorded
        // occupancies never overlap.
        for node in 0..n_nodes {
            for res in NetResource::ALL {
                let mut spans: Vec<(SimTime, SimTime)> = net
                    .occupancies()
                    .iter()
                    .filter(|o| o.node == NodeId::new(node) && o.resource == res)
                    .map(|o| (o.start, o.end))
                    .collect();
                spans.sort();
                for w in spans.windows(2) {
                    prop_assert!(
                        w[0].1 <= w[1].0,
                        "node{node} {} served two transfers at once: \
                         [{}, {}] vs [{}, {}]",
                        res.label(),
                        w[0].0, w[0].1, w[1].0, w[1].1
                    );
                }
            }
        }
        // Per-flow monotonicity: follow-on DMA completions in send order.
        for f in &faults {
            for w in f.arrivals[1..].windows(2) {
                prop_assert!(
                    w[0].available_at - w[0].recv_cpu <= w[1].available_at - w[1].recv_cpu
                );
            }
        }
    }
}

proptest! {
    // Each case replays a full application twice, so keep the case count
    // modest; the input grid is only policies × memories × sizes anyway.
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A cluster with one active node is byte-identical to the serial
    /// `Simulator` across fetch policies × memory configurations ×
    /// cluster sizes: `Simulator::run` *is* the N=1 case.
    #[test]
    fn cluster_one_active_matches_serial(
        policy_pick in 0usize..6,
        memory_pick in 0usize..3,
        nodes in 3u32..7,
        app_pick in 0usize..2,
    ) {
        let policy = [
            FetchPolicy::disk(),
            FetchPolicy::fullpage(),
            FetchPolicy::eager(SubpageSize::S1K),
            FetchPolicy::eager(SubpageSize::S256),
            FetchPolicy::pipelined(SubpageSize::S2K),
            FetchPolicy::lazy(SubpageSize::S1K),
        ][policy_pick];
        let memory = [MemoryConfig::Full, MemoryConfig::Half, MemoryConfig::Quarter][memory_pick];
        let app = if app_pick == 0 {
            apps::gdb().scaled(0.05)
        } else {
            apps::ld().scaled(0.03)
        };
        let config = SimConfig::builder()
            .policy(policy)
            .memory(memory)
            .cluster_nodes(nodes)
            .build();
        let serial = Simulator::new(config.clone()).run(&app);
        let cluster = ClusterSim::new(config).run(std::slice::from_ref(&app));
        prop_assert_eq!(cluster.nodes.len(), 1);
        prop_assert_eq!(&cluster.nodes[0], &serial);
        prop_assert_eq!(cluster.makespan, serial.total_time);
        // Utilization figures are proper fractions, per node and in
        // aggregate, for every policy × memory × cluster size.
        let net = cluster.net;
        prop_assert!((0.0..=1.0).contains(&net.wire_utilization), "wire {}", net.wire_utilization);
        prop_assert!(
            (0.0..=1.0).contains(&net.min_node_utilization),
            "min {}", net.min_node_utilization
        );
        prop_assert!(
            (0.0..=1.0).contains(&net.max_node_utilization),
            "max {}", net.max_node_utilization
        );
        prop_assert!(net.min_node_utilization <= net.max_node_utilization);
        // Every transfer books both wire directions for one interval.
        prop_assert_eq!(net.wire_out_busy, net.wire_in_busy);
    }
}
