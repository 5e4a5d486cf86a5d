//! Observability integration tests: recording is a write-only side
//! channel (reports are byte-identical with tracing off and on), and the
//! exported Perfetto trace is a faithful account of the cluster
//! network's occupancy — spans never overlap per `(node, resource)`
//! track and their summed durations equal the reported wire busy times.

use std::collections::BTreeMap;

use proptest::prelude::*;

use gms_subpages::core::{ClusterSim, FetchPolicy, MemoryConfig, SimConfig, Simulator};
use gms_subpages::mem::SubpageSize;
use gms_subpages::obs::{
    attribute, perfetto_trace, Event, JsonValue, MemoryRecorder, TimeSeriesRecorder, APP_TRACK,
};
use gms_subpages::trace::apps;
use gms_subpages::units::{Duration, NetResource};

fn policies() -> [FetchPolicy; 6] {
    [
        FetchPolicy::disk(),
        FetchPolicy::fullpage(),
        FetchPolicy::eager(SubpageSize::S1K),
        FetchPolicy::eager(SubpageSize::S256),
        FetchPolicy::pipelined(SubpageSize::S2K),
        FetchPolicy::lazy(SubpageSize::S1K),
    ]
}

proptest! {
    // Each case replays applications two to four times; keep the case
    // count modest (the grid is policies × memories × apps anyway).
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Tracing is a pure side channel: `run_recorded` with a buffering
    /// recorder returns the same report, field for field, as `run` with
    /// the no-op recorder — serially and in a cluster.
    #[test]
    fn recording_never_changes_reports(
        policy_pick in 0usize..6,
        memory_pick in 0usize..3,
        app_pick in 0usize..2,
    ) {
        let policy = policies()[policy_pick];
        let memory = [MemoryConfig::Full, MemoryConfig::Half, MemoryConfig::Quarter][memory_pick];
        let app = if app_pick == 0 {
            apps::gdb().scaled(0.05)
        } else {
            apps::ld().scaled(0.03)
        };

        let config = SimConfig::builder().policy(policy).memory(memory).build();
        let plain = Simulator::new(config.clone()).run(&app);
        let mut rec = MemoryRecorder::new();
        let traced = Simulator::new(config).run_recorded(&app, &mut rec);
        prop_assert_eq!(&plain, &traced);
        // Every fault leaves a trace: at least a Fault and a Restart.
        if plain.faults.total() > 0 {
            prop_assert!(rec.len() as u64 >= 2 * plain.faults.total());
        }

        let config = SimConfig::builder()
            .policy(policy)
            .memory(memory)
            .cluster_nodes(4)
            .build();
        let apps = [app];
        let plain = ClusterSim::new(config.clone()).run(&apps);
        let mut rec = MemoryRecorder::new();
        let traced = ClusterSim::new(config).run_recorded(&apps, &mut rec);
        prop_assert_eq!(&plain, &traced);
    }

    /// Critical-path attribution conserves the engine's recorded waits
    /// on clean (no fault plan) runs: per fault against the fault log,
    /// and in total against the report's `sp_latency + page_wait`
    /// buckets — serially and in a cluster.
    #[test]
    fn attribution_conserves_report_buckets(
        policy_pick in 0usize..6,
        memory_pick in 0usize..3,
    ) {
        let policy = policies()[policy_pick];
        let memory = [MemoryConfig::Full, MemoryConfig::Half, MemoryConfig::Quarter][memory_pick];
        let app = apps::gdb().scaled(0.05);

        let config = SimConfig::builder().policy(policy).memory(memory).build();
        let mut rec = MemoryRecorder::new();
        let report = Simulator::new(config).run_recorded(&app, &mut rec);
        let attrib = attribute(rec.iter()).expect("serial stream attributes");
        prop_assert_eq!(attrib.faults.len(), report.fault_log.len());
        for (a, r) in attrib.faults.iter().zip(&report.fault_log) {
            prop_assert_eq!(a.total_wait(), r.wait, "page {}", a.page);
            prop_assert_eq!(a.fault_at, r.at, "page {}", a.page);
        }
        prop_assert_eq!(attrib.total_wait(), report.sp_latency + report.page_wait);

        let config = SimConfig::builder()
            .policy(policy)
            .memory(memory)
            .cluster_nodes(4)
            .build();
        let apps = [app.clone(), apps::ld().scaled(0.03)];
        let mut rec = MemoryRecorder::new();
        let cluster = ClusterSim::new(config).run_recorded(&apps, &mut rec);
        let attrib = attribute(rec.iter()).expect("cluster stream attributes");
        let reported: Duration = cluster
            .nodes
            .iter()
            .map(|n| n.sp_latency + n.page_wait)
            .sum();
        prop_assert_eq!(attrib.total_wait(), reported);
        // And per node: each node's attributed faults sum to its own
        // report buckets.
        for (i, node) in cluster.nodes.iter().enumerate() {
            let node_wait: Duration = attrib
                .node_faults(gms_subpages::units::NodeId::new(i as u32))
                .map(|f| f.total_wait())
                .sum();
            prop_assert_eq!(node_wait, node.sp_latency + node.page_wait, "node {i}");
        }
    }
}

/// Runs a two-active-node cluster with a buffering recorder and returns
/// the recorder plus the cluster report.
fn traced_cluster() -> (MemoryRecorder, gms_subpages::core::ClusterReport) {
    let config = SimConfig::builder()
        .policy(FetchPolicy::eager(SubpageSize::S1K))
        .memory(MemoryConfig::Half)
        .cluster_nodes(5)
        .build();
    let apps = [apps::gdb().scaled(0.05), apps::ld().scaled(0.03)];
    let mut rec = MemoryRecorder::new();
    let report = ClusterSim::new(config).run_recorded(&apps, &mut rec);
    (rec, report)
}

/// The recorded occupancy events account for the network exactly: the
/// summed wire-in and wire-out durations equal the report's
/// `wire_in_busy` / `wire_out_busy` to the nanosecond.
#[test]
fn recorded_occupancies_sum_to_reported_wire_busy() {
    let (rec, report) = traced_cluster();
    let mut wire_in = 0u64;
    let mut wire_out = 0u64;
    for e in rec.iter() {
        if let Event::Occupancy {
            resource,
            start,
            end,
            ..
        } = e
        {
            let dur = end.as_nanos() - start.as_nanos();
            match resource {
                NetResource::WireIn => wire_in += dur,
                NetResource::WireOut => wire_out += dur,
                _ => {}
            }
        }
    }
    assert_eq!(wire_in, report.net.wire_in_busy.as_nanos());
    assert_eq!(wire_out, report.net.wire_out_busy.as_nanos());
    assert_eq!(
        wire_out, wire_in,
        "every transfer books both wire directions"
    );
}

/// The exported Perfetto JSON parses, every `"ph":"X"` span carries the
/// track coordinates, no `(node, resource)` track ever runs two spans at
/// once, and the spans reproduce the wire busy times exactly (the
/// microsecond timestamps are exact 3-decimal renderings of the
/// nanosecond simulation times).
#[test]
fn perfetto_spans_are_disjoint_and_account_for_the_wire() {
    let (rec, report) = traced_cluster();
    let doc = perfetto_trace(rec.iter());
    let v = JsonValue::parse(&doc).expect("trace is valid JSON");
    let items = v
        .get("traceEvents")
        .and_then(JsonValue::as_array)
        .expect("traceEvents array");
    assert!(!items.is_empty());

    // Spans per (pid, tid) track, in exact nanoseconds.
    let ns = |item: &JsonValue, key: &str| -> u64 {
        let us = item.get(key).and_then(JsonValue::as_f64).expect("number");
        (us * 1_000.0).round() as u64
    };
    let mut tracks: BTreeMap<(u64, u64), Vec<(u64, u64)>> = BTreeMap::new();
    for item in items {
        match item.get("ph").and_then(JsonValue::as_str) {
            Some("X") => {
                let pid = item.get("pid").and_then(JsonValue::as_u64).expect("pid");
                let tid = item.get("tid").and_then(JsonValue::as_u64).expect("tid");
                let start = ns(item, "ts");
                let end = start + ns(item, "dur");
                tracks.entry((pid, tid)).or_default().push((start, end));
            }
            Some("i" | "M") => {
                assert!(item.get("pid").is_some(), "instant/meta carries a pid");
            }
            other => panic!("unexpected phase {other:?}"),
        }
    }

    // Serially-reusable resources: spans on one track never overlap.
    // (Application stall tracks are serial too: a node's program blocks
    // at most once at a time.)
    let mut wire_in = 0u64;
    let mut wire_out = 0u64;
    for ((pid, tid), spans) in &mut tracks {
        spans.sort_unstable();
        for w in spans.windows(2) {
            assert!(
                w[0].1 <= w[1].0,
                "node{pid} tid{tid} runs two spans at once: \
                 [{}, {}] vs [{}, {}]",
                w[0].0,
                w[0].1,
                w[1].0,
                w[1].1
            );
        }
        let busy: u64 = spans.iter().map(|(s, e)| e - s).sum();
        if *tid == NetResource::WireIn.index() as u64 {
            wire_in += busy;
        } else if *tid == NetResource::WireOut.index() as u64 {
            wire_out += busy;
        }
    }
    assert_eq!(wire_in, report.net.wire_in_busy.as_nanos());
    assert_eq!(wire_out, report.net.wire_out_busy.as_nanos());

    // Both active nodes contributed program-side instants.
    for pid in [0u64, 1] {
        let has_app = items.iter().any(|e| {
            e.get("ph").and_then(JsonValue::as_str) == Some("i")
                && e.get("pid").and_then(JsonValue::as_u64) == Some(pid)
                && e.get("tid").and_then(JsonValue::as_u64) == Some(APP_TRACK as u64)
        });
        assert!(has_app, "node{pid} has app-track instants");
    }
}

/// A `TimeSeriesRecorder` threads directly through `run_recorded` as
/// the engine's recorder — no intermediate buffering — and its folded
/// totals agree with both a buffered replay and the report: fault and
/// restart counts match the fault log, busy time matches the network's
/// wire busy, and the in-flight coverage integrates to the total wait.
#[test]
fn timeseries_threads_directly_through_cluster_runs() {
    let config = SimConfig::builder()
        .policy(FetchPolicy::eager(SubpageSize::S1K))
        .memory(MemoryConfig::Half)
        .cluster_nodes(5)
        .build();
    let apps = [apps::gdb().scaled(0.05), apps::ld().scaled(0.03)];
    let window = Duration::from_micros(500);

    // Direct: the time-series recorder IS the engine's event sink.
    let mut direct = TimeSeriesRecorder::new(window);
    let report = ClusterSim::new(config.clone()).run_recorded(&apps, &mut direct);

    // Replayed: buffer first, fold afterwards. Identical folding.
    let mut rec = MemoryRecorder::new();
    let replay_report = ClusterSim::new(config).run_recorded(&apps, &mut rec);
    assert_eq!(report, replay_report);
    let replayed = TimeSeriesRecorder::replay(window, rec.iter());

    assert_eq!(direct.windows().len(), replayed.windows().len());
    let count = |ts: &TimeSeriesRecorder, f: fn(&gms_subpages::obs::Window) -> u64| -> u64 {
        ts.windows().iter().map(f).sum()
    };
    for pick in [
        |w: &gms_subpages::obs::Window| w.faults,
        |w: &gms_subpages::obs::Window| w.restarts,
        |w: &gms_subpages::obs::Window| w.retries,
        |w: &gms_subpages::obs::Window| w.putpages,
    ] {
        assert_eq!(count(&direct, pick), count(&replayed, pick));
    }

    let total_faults: u64 = report.nodes.iter().map(|n| n.faults.total()).sum();
    assert_eq!(count(&direct, |w| w.restarts), total_faults);
    assert_eq!(direct.all_waits().count(), total_faults);

    // Wire busy folded into windows equals the network report exactly.
    let wire_in: Duration = direct
        .windows()
        .iter()
        .map(|w| w.busy[NetResource::WireIn.index()])
        .sum();
    assert_eq!(wire_in, report.net.wire_in_busy);

    // In-flight coverage integrates to the total restart wait.
    let inflight: Duration = direct.windows().iter().map(|w| w.inflight).sum();
    let restart_wait = Duration::from_nanos(direct.all_waits().sum() as u64);
    assert_eq!(inflight, restart_wait);
}
