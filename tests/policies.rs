//! Cross-crate integration tests: policies, accounting, cluster traffic
//! and the facade API working together.

use gms_subpages::core::{
    AccessCost, FetchPolicy, MemoryConfig, PipelineStrategy, ReplacementKind, RunReport, SimConfig,
    Simulator,
};
use gms_subpages::mem::SubpageSize;
use gms_subpages::net::RecvOverhead;
use gms_subpages::obs::{Event, FlightRecorder, HeatMap, MemoryRecorder};
use gms_subpages::trace::apps::{self, AppProfile};
use gms_subpages::trace::{io, AccessKind, Run, TraceSource, VecSource};
use gms_subpages::units::{Bytes, Duration, VirtAddr};

fn run(app: &AppProfile, policy: FetchPolicy, memory: MemoryConfig) -> RunReport {
    Simulator::new(SimConfig::builder().policy(policy).memory(memory).build()).run(app)
}

/// Every policy × memory combination conserves time and executes the
/// full trace.
#[test]
fn all_policies_conserve_time_buckets() {
    let app = apps::gdb().scaled(0.3);
    let policies = [
        FetchPolicy::disk(),
        FetchPolicy::fullpage(),
        FetchPolicy::eager(SubpageSize::S256),
        FetchPolicy::eager(SubpageSize::S4K),
        FetchPolicy::pipelined(SubpageSize::S1K),
        FetchPolicy::lazy(SubpageSize::S2K),
        FetchPolicy::PipelinedSubpage {
            subpage: SubpageSize::S512,
            strategy: PipelineStrategy::Ascending,
            recv_overhead: RecvOverhead::Measured,
        },
    ];
    for policy in policies {
        for memory in [
            MemoryConfig::Full,
            MemoryConfig::Half,
            MemoryConfig::Quarter,
        ] {
            let report = run(&app, policy, memory);
            report.assert_conserved();
            assert_eq!(report.total_refs, app.target_refs(), "{}", policy.label());
            assert!(report.total_time > Duration::ZERO);
        }
    }
}

/// 128-byte subpages give a page 64 subpages, so every subpage mask —
/// the engine's prediction masks and the `Arrival`/`Prefetch` event
/// masks the recorders fold — must reach bit 63. Each 128 B policy runs
/// under every kind of recorder at once: the time buckets conserve, the
/// heat map's prefetch totals reconcile with the report's counters, and
/// some recorded mask sets a bit at or above 32.
#[test]
fn subpages_of_128_bytes_keep_every_mask_bit() {
    let app = apps::gdb().scaled(0.05);
    let s128 = SubpageSize::new(Bytes::new(128));
    let mut high_bit = false;
    for policy in [
        FetchPolicy::eager(s128),
        FetchPolicy::pipelined(s128),
        FetchPolicy::leap(s128),
        FetchPolicy::indigo(s128),
    ] {
        let cfg = SimConfig::builder()
            .policy(policy)
            .memory(MemoryConfig::Half)
            .build();
        let mut rec = (
            MemoryRecorder::new(),
            (FlightRecorder::new(4), HeatMap::new()),
        );
        let report = Simulator::new(cfg).run_recorded(&app, &mut rec);
        let (events, (flight, heat)) = rec;
        let label = policy.label();
        report.assert_conserved();
        assert_eq!(report.total_refs, app.target_refs(), "{label}");
        assert!(flight.retained() > 0, "{label}");
        let totals = heat.totals();
        assert_eq!(totals.total_faults(), report.faults.total(), "{label}");
        assert_eq!(
            totals.prefetched_subpages, report.prefetched_subpages,
            "{label}"
        );
        assert_eq!(
            totals.wasted_bytes, report.mispredicted_prefetch_bytes,
            "{label}"
        );
        high_bit |= events.iter().any(|e| match *e {
            Event::Arrival { subpages, .. } | Event::Prefetch { subpages, .. } => {
                subpages.leading_zeros() < 32
            }
            _ => false,
        });
    }
    assert!(high_bit, "no recorded mask reached past bit 31");
}

/// GMS protocol accounting matches the engine's: every remote fault is a
/// getpage hit, every eviction a putpage, and warm caches never miss
/// until a page is displaced.
#[test]
fn gms_traffic_matches_engine_counters() {
    let app = apps::gdb().scaled(0.5);
    let report = run(&app, FetchPolicy::fullpage(), MemoryConfig::Quarter);
    assert_eq!(report.gms.traffic.getpages, report.faults.total());
    assert_eq!(report.gms.remote_hits, report.faults.remote);
    assert_eq!(report.gms.traffic.putpages, report.evictions);
    assert_eq!(report.faults.disk, report.gms.misses);
}

/// Lazy fetch transfers less but faults more; eager transfers the whole
/// page per fault.
#[test]
fn lazy_trades_transfers_for_faults() {
    let app = apps::gdb().scaled(0.5);
    let eager = run(
        &app,
        FetchPolicy::eager(SubpageSize::S1K),
        MemoryConfig::Half,
    );
    let lazy = run(
        &app,
        FetchPolicy::lazy(SubpageSize::S1K),
        MemoryConfig::Half,
    );
    assert!(lazy.faults.total() > eager.faults.total());
    assert_eq!(eager.faults.lazy_subpage, 0);
    assert!(lazy.faults.lazy_subpage > 0);
    // The paper's conclusion: "simply reducing the page size to support
    // smaller pages would actually degrade performance" for these
    // locality patterns.
    assert!(lazy.total_time > eager.total_time);
}

/// Replacement ablation: LRU beats FIFO on these workloads (recency
/// matters), and all policies produce valid runs.
#[test]
fn replacement_policies_are_ordered_sanely() {
    let app = apps::gdb().scaled(0.5);
    let mut by_policy = Vec::new();
    for replacement in [
        ReplacementKind::Lru,
        ReplacementKind::Clock,
        ReplacementKind::Fifo,
        ReplacementKind::Random2 { seed: 3 },
    ] {
        let report = Simulator::new(
            SimConfig::builder()
                .policy(FetchPolicy::fullpage())
                .memory(MemoryConfig::Quarter)
                .replacement(replacement)
                .build(),
        )
        .run(&app);
        report.assert_conserved();
        by_policy.push((replacement.name(), report.faults.total()));
    }
    let faults = |name: &str| {
        by_policy
            .iter()
            .find(|(n, _)| *n == name)
            .expect("policy ran")
            .1
    };
    // All within a sane factor of each other; none zero.
    for (name, f) in &by_policy {
        assert!(*f > 0, "{name} produced no faults");
        assert!(*f < faults("lru") * 4, "{name} explodes: {f}");
    }
}

/// The PALcode cost model stays under a few percent of runtime, as the
/// paper measured ("emulation slowed execution by less than 1% for the
/// workloads we examined").
#[test]
fn pal_emulation_overhead_is_small() {
    let app = apps::modula3().scaled(0.05);
    let report = Simulator::new(
        SimConfig::builder()
            .policy(FetchPolicy::eager(SubpageSize::S2K))
            .memory(MemoryConfig::Half)
            .access_cost(AccessCost::PalEmulated)
            .build(),
    )
    .run(&app);
    let frac = report.emulation_time.as_nanos() as f64 / report.total_time.as_nanos() as f64;
    assert!(frac < 0.05, "emulation is {:.1}% of runtime", frac * 100.0);
}

/// Trace serialization round-trips an application prefix through the
/// facade: write, read, re-simulate, identical fault behaviour.
#[test]
fn trace_io_round_trip_preserves_simulation() {
    let app = apps::gdb().scaled(0.2);
    // Capture the trace.
    let mut source = app.source();
    let mut file = Vec::new();
    io::write_trace(&mut *source, &mut file).expect("serialize");
    let mut replay = io::read_trace(file.as_slice()).expect("deserialize");

    let sim = Simulator::new(
        SimConfig::builder()
            .policy(FetchPolicy::eager(SubpageSize::S1K))
            .memory(MemoryConfig::Half)
            .build(),
    );
    let from_replay = sim.run_trace(
        &mut replay,
        app.footprint(),
        gms_subpages::trace::synth::LAYOUT_BASE,
    );
    let direct = sim.run(&app);
    assert_eq!(from_replay.faults.total(), direct.faults.total());
    assert_eq!(from_replay.total_time, direct.total_time);
}

/// `run_trace` with a hand-built trace: touching one word per page under
/// the paper's default geometry produces one fault per page and nothing
/// else.
#[test]
fn hand_built_trace_faults_once_per_page() {
    let base = VirtAddr::new(0x10_0000_0000);
    let pages = 64u64;
    let run = Run::new(base, 8192, pages, AccessKind::Read);
    let mut source = VecSource::new(vec![run]);
    let report = Simulator::new(SimConfig::builder().build()).run_trace(
        &mut source,
        Bytes::kib(8) * pages,
        base,
    );
    assert_eq!(report.faults.total(), pages);
    assert_eq!(report.total_refs, pages);
    assert_eq!(report.page_wait, Duration::ZERO);
}

/// Deterministic end to end: identical runs produce identical reports.
#[test]
fn simulation_is_deterministic() {
    let app = apps::atom().scaled(0.02);
    let make = || {
        run(
            &app,
            FetchPolicy::pipelined(SubpageSize::S1K),
            MemoryConfig::Quarter,
        )
    };
    let a = make();
    let b = make();
    assert_eq!(a.total_time, b.total_time);
    assert_eq!(a.faults.total(), b.faults.total());
    assert_eq!(a.fault_log.len(), b.fault_log.len());
    assert_eq!(a.evictions, b.evictions);
}

/// The trace source from a profile can also be consumed reference by
/// reference through the stream adapters.
#[test]
fn per_ref_adapter_agrees_with_runs() {
    let app = apps::gdb().scaled(0.05);
    let total_by_runs: u64 = {
        let mut src = app.source();
        let mut n = 0;
        while let Some(r) = src.next_run() {
            n += r.count();
        }
        n
    };
    let total_by_refs = gms_subpages::trace::per_ref(app.source()).count() as u64;
    assert_eq!(total_by_runs, total_by_refs);
    assert_eq!(total_by_runs, app.target_refs());
}

/// A trace that strays outside its declared footprint — below `base`
/// and past `base + footprint` — simulates exactly as it always has:
/// pages outside the span a node's page table and replacement policy
/// index densely fall back to their hashed spill, and their faults miss
/// the warm global cache to disk. The counters are pinned per policy,
/// memory size and replacement policy.
#[test]
fn pages_outside_the_footprint_keep_their_counters() {
    let page = 8192u64;
    let base = VirtAddr::new(0x10_0000_0000);
    let footprint_pages = 16u64;
    let at = |p: i64| VirtAddr::new((base.get() as i64 + p * page as i64) as u64);
    let mut runs = Vec::new();
    for pass in 0..2 {
        // A scan that starts three pages below `base` and writes its way
        // into the footprint.
        runs.push(Run::new(at(-3), 1024, 40, AccessKind::Write));
        // Every footprint page, one word per subpage.
        runs.push(Run::new(at(0), 1024, footprint_pages * 8, AccessKind::Read));
        // Repeated references to one word: on each side of the span and
        // in it.
        runs.push(Run::new(at(-1), 0, 500, AccessKind::Read));
        runs.push(Run::new(at(5), 0, 500, AccessKind::Write));
        runs.push(Run::new(
            at(footprint_pages as i64 + 2),
            0,
            300,
            AccessKind::Write,
        ));
        // A backward scan from past the end down into the footprint.
        runs.push(Run::new(
            at(footprint_pages as i64 + 4),
            -2048,
            28,
            AccessKind::Read,
        ));
        // Sparse single references far from the span, then back in it.
        for p in [-700i64, 1_000, 9, 4_000, 3, footprint_pages as i64] {
            runs.push(Run::single(at(p + pass), AccessKind::Write));
        }
        runs.push(Run::new(at(2), 8, 3000, AccessKind::Read));
    }
    let cases = [
        (
            FetchPolicy::fullpage(),
            MemoryConfig::Full,
            ReplacementKind::Lru,
        ),
        (
            FetchPolicy::eager(SubpageSize::S1K),
            MemoryConfig::Half,
            ReplacementKind::Lru,
        ),
        (
            FetchPolicy::pipelined(SubpageSize::S1K),
            MemoryConfig::Quarter,
            ReplacementKind::Lru,
        ),
        (
            FetchPolicy::lazy(SubpageSize::S1K),
            MemoryConfig::Half,
            ReplacementKind::Lru,
        ),
        (
            FetchPolicy::leap(SubpageSize::S1K),
            MemoryConfig::Half,
            ReplacementKind::Lru,
        ),
        (
            FetchPolicy::indigo(SubpageSize::S1K),
            MemoryConfig::Half,
            ReplacementKind::Lru,
        ),
        (
            FetchPolicy::eager(SubpageSize::S1K),
            MemoryConfig::Half,
            ReplacementKind::Fifo,
        ),
        (
            FetchPolicy::eager(SubpageSize::S1K),
            MemoryConfig::Half,
            ReplacementKind::Clock,
        ),
        (
            FetchPolicy::eager(SubpageSize::S1K),
            MemoryConfig::Half,
            ReplacementKind::Random2 { seed: 5 },
        ),
    ];
    let got: Vec<String> = cases
        .iter()
        .map(|&(policy, memory, replacement)| {
            let mut source = VecSource::new(runs.clone());
            let r = Simulator::new(
                SimConfig::builder()
                    .policy(policy)
                    .memory(memory)
                    .replacement(replacement)
                    .build(),
            )
            .run_trace(&mut source, Bytes::new(page * footprint_pages), base);
            r.assert_conserved();
            format!(
                "{} {} {}: refs {} time {} wait {} remote {} disk {} lazy {} \
                 evict {} dirty {} wasted {} prefetched {} fallback {}",
                r.policy,
                r.memory,
                replacement.name(),
                r.total_refs,
                r.total_time.as_nanos(),
                r.page_wait.as_nanos(),
                r.faults.remote,
                r.faults.disk,
                r.faults.lazy_subpage,
                r.evictions,
                r.dirty_evictions,
                r.wasted_transfers,
                r.prefetched_subpages,
                r.fell_back_to_disk,
            )
        })
        .collect();
    let want = [
        "p_8192 full-mem lru: refs 9004 time 262431548 wait 0 remote 44 disk 14 lazy 0 evict 42 dirty 18 wasted 0 prefetched 0 fallback 14",
        "sp_1024 1/2-mem lru: refs 9004 time 266358862 wait 36998420 remote 55 disk 14 lazy 0 evict 61 dirty 20 wasted 7 prefetched 0 fallback 14",
        "pl_1024 1/4-mem lru: refs 9004 time 253382795 wait 22030254 remote 60 disk 14 lazy 0 evict 70 dirty 24 wasted 8 prefetched 0 fallback 14",
        "lazy_1024 1/2-mem lru: refs 9004 time 388751724 wait 0 remote 55 disk 14 lazy 288 evict 61 dirty 20 wasted 0 prefetched 0 fallback 14",
        "leap_1024 1/2-mem lru: refs 9004 time 243358188 wait 14271172 remote 55 disk 14 lazy 0 evict 61 dirty 20 wasted 13 prefetched 385 fallback 14",
        "indigo_1024 1/2-mem lru: refs 9004 time 388751724 wait 0 remote 55 disk 14 lazy 288 evict 61 dirty 20 wasted 0 prefetched 0 fallback 14",
        "sp_1024 1/2-mem fifo: refs 9004 time 264899162 wait 36998432 remote 54 disk 14 lazy 0 evict 60 dirty 20 wasted 6 prefetched 0 fallback 14",
        "sp_1024 1/2-mem clock: refs 9004 time 264587704 wait 37002020 remote 54 disk 14 lazy 0 evict 60 dirty 20 wasted 6 prefetched 0 fallback 14",
        "sp_1024 1/2-mem random2: refs 9004 time 265045378 wait 37097142 remote 55 disk 14 lazy 0 evict 61 dirty 22 wasted 7 prefetched 0 fallback 14",
    ];
    assert_eq!(got, want, "actual:\n{}", got.join("\n"));
}
