//! Machine-readable run summaries.
//!
//! Hand-rolled JSON: [`run_summary_json`] and [`cluster_summary_json`] render
//! [`RunReport`]/[`ClusterReport`] into a stable schema
//! (`gms-summary/v2`, which added the `reliability` section) that the
//! CLI's `--summary-json` flag writes and its `check-trace` command
//! re-parses with [`gms_obs::JsonValue`].
//!
//! Scalar counters go through [`CounterRegistry`], so a counter added
//! to a report shows up in the summary without touching the renderer.

use gms_net::NetResource;
use gms_obs::{escape_json, CounterRegistry, LogHistogram, QuantileSketch};
use gms_units::Duration;

use crate::cluster_sim::ClusterReport;
use crate::RunReport;

/// Schema tag stamped into every summary document by default. `v2`
/// added the `reliability` object (timeouts, retries, failovers,
/// degraded re-fetches, disk fallbacks, crash losses) to both summary
/// kinds.
pub const SUMMARY_SCHEMA: &str = "gms-summary/v2";

/// Schema tag of the opt-in tail-extended summaries
/// ([`run_summary_json_v3`] / [`cluster_summary_json_v3`]): a `v2`
/// document plus a `tail` object (far-tail percentiles from the run's
/// [`QuantileSketch`]) and, when an SLO threshold is given, an `slo`
/// attainment object. The default writers keep emitting `v2`
/// byte-for-byte — the golden digests pin them.
pub const SUMMARY_SCHEMA_V3: &str = "gms-summary/v3";

/// The percentile keys every summary `page_wait` object carries, with
/// the quantile each is computed at, in emission order. This is the
/// single source of truth shared between the writer
/// ([`histogram_json`]) and the CLI's `check-trace` validator, so a
/// percentile cannot be added to one side and silently skipped by the
/// other.
pub const WAIT_PERCENTILES: [(&str, f64); 3] =
    [("p50_ns", 0.50), ("p90_ns", 0.90), ("p99_ns", 0.99)];

/// The far-tail percentile keys a v3 `tail` object carries (computed
/// from the run's [`QuantileSketch`], whose 1/256 error bound makes
/// them meaningful). Shared with the validator like
/// [`WAIT_PERCENTILES`].
pub const TAIL_PERCENTILES: [(&str, f64); 2] = [("p99_9_ns", 0.999), ("p99_99_ns", 0.9999)];

/// Renders a latency histogram as a JSON object with exact extremes,
/// the [`WAIT_PERCENTILES`] keys, and the raw `[low, count]` buckets.
#[must_use]
pub fn histogram_json(h: &LogHistogram) -> String {
    let percentiles: String = WAIT_PERCENTILES
        .iter()
        .map(|&(key, q)| format!("\"{key}\":{},", h.percentile(q)))
        .collect();
    let buckets: Vec<String> = h.buckets().map(|(low, c)| format!("[{low},{c}]")).collect();
    format!(
        "{{\"count\":{},\"min_ns\":{},\"mean_ns\":{:.1},{percentiles}\"max_ns\":{},\"buckets\":[{}]}}",
        h.count(),
        h.min(),
        h.mean(),
        h.max(),
        buckets.join(",")
    )
}

/// Renders a wait sketch as a v3 `tail` object: the
/// [`TAIL_PERCENTILES`] keys plus the exact count/max and the sketch's
/// guaranteed relative error bound.
#[must_use]
pub fn tail_json(sketch: &QuantileSketch) -> String {
    let tail: String = TAIL_PERCENTILES
        .iter()
        .map(|&(key, q)| format!("\"{key}\":{},", sketch.quantile(q)))
        .collect();
    format!(
        "{{\"count\":{},{tail}\"max_ns\":{},\"rel_err\":{:.6}}}",
        sketch.count(),
        sketch.max(),
        QuantileSketch::MAX_RELATIVE_ERROR
    )
}

/// SLO attainment of one run against a wait threshold: how many faults
/// completed within it, as a count and a fraction (an empty run attains
/// trivially).
#[must_use]
pub fn slo_counters(report: &RunReport, slo: Duration) -> CounterRegistry {
    let total = report.fault_log.len() as u64;
    let under = report.fault_log.iter().filter(|f| f.wait <= slo).count() as u64;
    let mut reg = CounterRegistry::new();
    reg.set("threshold_ns", slo.as_nanos());
    reg.set("faults", total);
    reg.set("under", under);
    reg.set_f64(
        "attainment",
        if total == 0 {
            1.0
        } else {
            under as f64 / total as f64
        },
    );
    reg
}

/// The scalar counters of one run, in a fixed, documented order.
#[must_use]
pub fn run_counters(report: &RunReport) -> CounterRegistry {
    let mut reg = CounterRegistry::new();
    reg.set("frames", report.frames);
    reg.set("total_refs", report.total_refs);
    reg.set("total_time_ns", report.total_time.as_nanos());
    reg.set("exec_time_ns", report.exec_time.as_nanos());
    reg.set("sp_latency_ns", report.sp_latency.as_nanos());
    reg.set("page_wait_ns", report.page_wait.as_nanos());
    reg.set("recv_overhead_ns", report.recv_overhead.as_nanos());
    reg.set("emulation_time_ns", report.emulation_time.as_nanos());
    reg.set("putpage_overhead_ns", report.putpage_overhead.as_nanos());
    reg.set("faults_remote", report.faults.remote);
    reg.set("faults_disk", report.faults.disk);
    reg.set("faults_lazy_subpage", report.faults.lazy_subpage);
    reg.set("faults_degraded", report.faults.degraded);
    reg.set("evictions", report.evictions);
    reg.set("dirty_evictions", report.dirty_evictions);
    reg.set("wasted_transfers", report.wasted_transfers);
    // Prefetch telemetry exists only for the adaptive engines; static
    // summaries keep their exact v2 shape (the golden-digest regression
    // pins them byte-for-byte).
    if is_adaptive_label(&report.policy) {
        reg.set("prefetched_subpages", report.prefetched_subpages);
        reg.set(
            "mispredicted_prefetch_bytes",
            report.mispredicted_prefetch_bytes,
        );
    }
    reg.set_f64("wire_utilization", report.wire_utilization());
    reg.set_f64("overlap_io_fraction", report.overlap.io_fraction());
    reg
}

/// Whether a policy label names a history-observing engine (the only
/// runs whose summaries carry prefetch counters).
fn is_adaptive_label(label: &str) -> bool {
    label.starts_with("leap_") || label.starts_with("indigo_")
}

/// The reliability counters of one run (the `v2` addition): timeout,
/// retry and failover telemetry from the fault-injection machinery. All
/// zero for a fault-free run. `pages_lost_to_crash` comes from the
/// cluster-wide GMS statistics. Replicated runs (K > 1) append the
/// replication ledger; single-copy summaries keep their exact v2 shape
/// (the golden-digest regression pins them byte-for-byte), mirroring
/// how prefetch counters exist only for adaptive policies.
#[must_use]
pub fn reliability_counters(report: &RunReport) -> CounterRegistry {
    let mut reg = CounterRegistry::new();
    reg.set("timeouts", report.timeouts);
    reg.set("retries", report.retries);
    reg.set("failovers", report.failovers);
    reg.set("degraded_fetches", report.faults.degraded);
    reg.set("fell_back_to_disk", report.fell_back_to_disk);
    reg.set("pages_lost_to_crash", report.gms.pages_lost_to_crash);
    if report.gms.replicas > 1 {
        reg.set("replicas", u64::from(report.gms.replicas));
        reg.set("replica_writes", report.gms.replica_writes);
        reg.set("pages_re_replicated", report.gms.pages_re_replicated);
        reg.set("repair_bytes", report.gms.repair_bytes);
        reg.set("directory_rebuilds", report.gms.directory_rebuilds);
        reg.set(
            "window_of_vulnerability_ns",
            report.gms.window_of_vulnerability_ns,
        );
    }
    reg
}

/// One run's summary as a self-contained JSON object string
/// (`gms-summary/v2` — the exact bytes the golden digests pin).
#[must_use]
pub fn run_summary_json(report: &RunReport) -> String {
    run_summary_with(report, SUMMARY_SCHEMA, "")
}

/// One run's summary extended with the v3 tail section (and an `slo`
/// attainment object when a threshold is given). The v2 body is
/// byte-identical to [`run_summary_json`]'s; the extensions are
/// appended, so v2 consumers parse v3 documents unchanged.
#[must_use]
pub fn run_summary_json_v3(report: &RunReport, slo: Option<Duration>) -> String {
    let mut extra = format!(",\"tail\":{}", tail_json(&report.wait_sketch()));
    if let Some(slo) = slo {
        extra.push_str(&format!(",\"slo\":{}", slo_counters(report, slo).to_json()));
    }
    run_summary_with(report, SUMMARY_SCHEMA_V3, &extra)
}

/// The shared v2 body: `extra` is spliced (with its leading comma)
/// between the `page_wait` object and the closing brace.
fn run_summary_with(report: &RunReport, schema: &str, extra: &str) -> String {
    format!(
        "{{\"schema\":\"{schema}\",\"kind\":\"run\",\"policy\":\"{}\",\"memory\":\"{}\",\"counters\":{},\"reliability\":{},\"page_wait\":{}{extra}}}",
        escape_json(&report.policy),
        escape_json(&report.memory),
        run_counters(report).to_json(),
        reliability_counters(report).to_json(),
        histogram_json(&report.wait_histogram()),
    )
}

/// A cluster run's summary: aggregate network counters, the merged
/// page-wait histogram, the per-node network breakdown, and one nested
/// run summary per active node (`gms-summary/v2`, byte-pinned).
#[must_use]
pub fn cluster_summary_json(report: &ClusterReport) -> String {
    cluster_summary_with(report, SUMMARY_SCHEMA, "")
}

/// A cluster summary extended with the v3 tail section — the merged
/// wait sketch across all active nodes (sketch merges are exactly
/// associative, so this equals a sketch of every fault in the cluster)
/// — plus, with a threshold, cluster-wide and per-node SLO attainment.
/// Nested per-node run summaries stay v2.
#[must_use]
pub fn cluster_summary_json_v3(report: &ClusterReport, slo: Option<Duration>) -> String {
    let mut merged = QuantileSketch::new();
    for node in &report.nodes {
        merged.merge(&node.wait_sketch());
    }
    let mut extra = format!(",\"tail\":{}", tail_json(&merged));
    if let Some(slo) = slo {
        let total: u64 = report.nodes.iter().map(|n| n.fault_log.len() as u64).sum();
        let under: u64 = report
            .nodes
            .iter()
            .map(|n| n.fault_log.iter().filter(|f| f.wait <= slo).count() as u64)
            .sum();
        let nodes: Vec<String> = report
            .nodes
            .iter()
            .enumerate()
            .map(|(i, n)| {
                format!(
                    "{{\"node\":{i},\"slo\":{}}}",
                    slo_counters(n, slo).to_json()
                )
            })
            .collect();
        extra.push_str(&format!(
            ",\"slo\":{{\"threshold_ns\":{},\"faults\":{total},\"under\":{under},\"attainment\":{:.6},\"nodes\":[{}]}}",
            slo.as_nanos(),
            if total == 0 {
                1.0
            } else {
                under as f64 / total as f64
            },
            nodes.join(",")
        ));
    }
    cluster_summary_with(report, SUMMARY_SCHEMA_V3, &extra)
}

/// The shared cluster v2 body; `extra` splices before the closing
/// brace like [`run_summary_with`]'s.
fn cluster_summary_with(report: &ClusterReport, schema: &str, extra: &str) -> String {
    let mut reg = CounterRegistry::new();
    reg.set("active_nodes", report.nodes.len() as u64);
    reg.set("cluster_nodes", report.per_node.len() as u64);
    reg.set("makespan_ns", report.makespan.as_nanos());
    reg.set("queue_delay_ns", report.net.queue_delay.as_nanos());
    reg.set("wire_in_busy_ns", report.net.wire_in_busy.as_nanos());
    reg.set("wire_out_busy_ns", report.net.wire_out_busy.as_nanos());
    reg.set_f64("wire_utilization", report.net.wire_utilization);
    reg.set_f64("min_node_utilization", report.net.min_node_utilization);
    reg.set_f64("max_node_utilization", report.net.max_node_utilization);
    if report
        .nodes
        .first()
        .is_some_and(|n| is_adaptive_label(&n.policy))
    {
        reg.set(
            "prefetched_subpages",
            report
                .nodes
                .iter()
                .map(|n| n.prefetched_subpages)
                .sum::<u64>(),
        );
        reg.set(
            "mispredicted_prefetch_bytes",
            report
                .nodes
                .iter()
                .map(|n| n.mispredicted_prefetch_bytes)
                .sum::<u64>(),
        );
    }

    // Requester-side reliability counters sum over the active nodes;
    // crash losses are cluster-wide (every node report carries the same
    // shared-GMS statistics), so they are taken once.
    let mut rel = CounterRegistry::new();
    rel.set(
        "timeouts",
        report.nodes.iter().map(|n| n.timeouts).sum::<u64>(),
    );
    rel.set(
        "retries",
        report.nodes.iter().map(|n| n.retries).sum::<u64>(),
    );
    rel.set(
        "failovers",
        report.nodes.iter().map(|n| n.failovers).sum::<u64>(),
    );
    rel.set(
        "degraded_fetches",
        report.nodes.iter().map(|n| n.faults.degraded).sum::<u64>(),
    );
    rel.set(
        "fell_back_to_disk",
        report
            .nodes
            .iter()
            .map(|n| n.fell_back_to_disk)
            .sum::<u64>(),
    );
    rel.set(
        "pages_lost_to_crash",
        report
            .nodes
            .first()
            .map_or(0, |n| n.gms.pages_lost_to_crash),
    );
    // The replication ledger is cluster-wide GMS state: taken once, and
    // only when replication is actually on (K = 1 summaries stay
    // byte-pinned).
    if let Some(gms) = report.nodes.first().map(|n| &n.gms) {
        if gms.replicas > 1 {
            rel.set("replicas", u64::from(gms.replicas));
            rel.set("replica_writes", gms.replica_writes);
            rel.set("pages_re_replicated", gms.pages_re_replicated);
            rel.set("repair_bytes", gms.repair_bytes);
            rel.set("directory_rebuilds", gms.directory_rebuilds);
            rel.set("window_of_vulnerability_ns", gms.window_of_vulnerability_ns);
        }
    }

    let mut merged = LogHistogram::new();
    for node in &report.nodes {
        merged.merge(&node.wait_histogram());
    }

    let per_node: Vec<String> = report
        .per_node
        .iter()
        .map(|n| {
            let mut reg = CounterRegistry::new();
            for (i, r) in NetResource::ALL.iter().enumerate() {
                reg.set(&format!("busy_{}_ns", r.label()), n.busy[i].as_nanos());
                reg.set(&format!("waited_{}_ns", r.label()), n.waited[i].as_nanos());
            }
            reg.set_f64("utilization", n.utilization);
            format!(
                "{{\"node\":{},\"counters\":{}}}",
                n.node.index(),
                reg.to_json()
            )
        })
        .collect();

    let nodes: Vec<String> = report.nodes.iter().map(run_summary_json).collect();

    format!(
        "{{\"schema\":\"{schema}\",\"kind\":\"cluster\",\"counters\":{},\"reliability\":{},\"page_wait\":{},\"per_node\":[{}],\"nodes\":[{}]{extra}}}",
        reg.to_json(),
        rel.to_json(),
        histogram_json(&merged),
        per_node.join(","),
        nodes.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ClusterSim, FetchPolicy, MemoryConfig, SimConfig, Simulator};
    use gms_mem::SubpageSize;
    use gms_obs::JsonValue;

    fn config() -> SimConfig {
        SimConfig::builder()
            .policy(FetchPolicy::eager(SubpageSize::S1K))
            .memory(MemoryConfig::Half)
            .build()
    }

    #[test]
    fn run_summary_parses_and_has_percentiles() {
        let report = Simulator::new(config()).run(&gms_trace::apps::gdb().scaled(0.2));
        let json = run_summary_json(&report);
        let doc = JsonValue::parse(&json).expect("valid JSON");
        assert_eq!(doc.get("schema").unwrap().as_str(), Some(SUMMARY_SCHEMA));
        assert_eq!(doc.get("kind").unwrap().as_str(), Some("run"));
        let wait = doc.get("page_wait").expect("page_wait object");
        for key in ["count", "p50_ns", "p90_ns", "p99_ns", "max_ns"] {
            assert!(wait.get(key).is_some(), "missing {key}");
        }
        let hist = report.wait_histogram();
        assert_eq!(
            wait.get("count").unwrap().as_u64(),
            Some(report.faults.total())
        );
        assert_eq!(
            wait.get("p50_ns").unwrap().as_u64(),
            Some(hist.percentile(0.5))
        );
        assert_eq!(wait.get("max_ns").unwrap().as_u64(), Some(hist.max()));
        let counters = doc.get("counters").unwrap();
        assert_eq!(
            counters.get("total_refs").unwrap().as_u64(),
            Some(report.total_refs)
        );
    }

    #[test]
    fn reliability_section_reflects_fault_injection() {
        use gms_net::FaultPlan;
        let plan = FaultPlan::parse("loss=0.02,seed=9", None).expect("valid spec");
        let mut cfg = config();
        cfg.fault_plan = Some(plan);
        let report = Simulator::new(cfg).run(&gms_trace::apps::gdb().scaled(0.1));
        let doc = JsonValue::parse(&run_summary_json(&report)).expect("valid JSON");
        assert_eq!(doc.get("schema").unwrap().as_str(), Some("gms-summary/v2"));
        let rel = doc.get("reliability").expect("reliability object");
        assert_eq!(rel.get("retries").unwrap().as_u64(), Some(report.retries));
        assert_eq!(rel.get("timeouts").unwrap().as_u64(), Some(report.timeouts));
        assert!(report.retries > 0, "2% loss must retry");
        // A fault-free run zeroes the whole section.
        let clean = Simulator::new(config()).run(&gms_trace::apps::gdb().scaled(0.1));
        let doc = JsonValue::parse(&run_summary_json(&clean)).expect("valid JSON");
        let rel = doc.get("reliability").expect("reliability object");
        for key in [
            "timeouts",
            "retries",
            "failovers",
            "degraded_fetches",
            "fell_back_to_disk",
            "pages_lost_to_crash",
        ] {
            assert_eq!(rel.get(key).unwrap().as_u64(), Some(0), "{key}");
        }
    }

    #[test]
    fn replication_counters_appear_only_when_replicating() {
        use crate::ReplicationConfig;
        let app = gms_trace::apps::gdb().scaled(0.1);
        // K = 1 (the golden-pinned shape): no replication keys at all.
        let single = ClusterSim::new(config()).run(std::slice::from_ref(&app));
        let doc = JsonValue::parse(&cluster_summary_json(&single)).unwrap();
        let rel = doc.get("reliability").expect("reliability object");
        assert!(rel.get("replicas").is_none(), "K=1 emits no replica keys");
        assert!(rel.get("replica_writes").is_none());

        // K = 2: the ledger appears in both cluster and nested run
        // summaries, and every standby copy was a counted write.
        let mut cfg = config();
        cfg.cluster_nodes = 5;
        cfg.replication = ReplicationConfig {
            replicas: 2,
            ..ReplicationConfig::default()
        };
        let double = ClusterSim::new(cfg).run(std::slice::from_ref(&app));
        let doc = JsonValue::parse(&cluster_summary_json(&double)).unwrap();
        let rel = doc.get("reliability").expect("reliability object");
        assert_eq!(rel.get("replicas").unwrap().as_u64(), Some(2));
        let stats = &double.nodes[0].gms;
        assert_eq!(
            rel.get("replica_writes").unwrap().as_u64(),
            Some(stats.replica_writes)
        );
        assert!(stats.replica_writes > 0, "evictions must write standbys");
        for key in [
            "pages_re_replicated",
            "repair_bytes",
            "directory_rebuilds",
            "window_of_vulnerability_ns",
        ] {
            assert!(rel.get(key).is_some(), "missing {key}");
        }
    }

    #[test]
    fn v3_run_summary_extends_v2_byte_compatibly() {
        let report = Simulator::new(config()).run(&gms_trace::apps::gdb().scaled(0.2));
        let v2 = run_summary_json(&report);
        let v3 = run_summary_json_v3(&report, Some(Duration::from_millis(1)));
        // The v3 document is the v2 bytes with the schema tag swapped
        // and the tail/slo extensions appended before the close.
        let body_v2 = v2
            .strip_prefix("{\"schema\":\"gms-summary/v2\"")
            .and_then(|s| s.strip_suffix('}'))
            .unwrap();
        let body_v3 = v3.strip_prefix("{\"schema\":\"gms-summary/v3\"").unwrap();
        assert!(body_v3.starts_with(body_v2));

        let doc = JsonValue::parse(&v3).expect("valid JSON");
        assert_eq!(doc.get("schema").unwrap().as_str(), Some(SUMMARY_SCHEMA_V3));
        let tail = doc.get("tail").expect("tail object");
        let sketch = report.wait_sketch();
        for (key, q) in TAIL_PERCENTILES {
            assert_eq!(
                tail.get(key).unwrap().as_u64(),
                Some(sketch.quantile(q)),
                "{key}"
            );
        }
        assert_eq!(tail.get("count").unwrap().as_u64(), Some(sketch.count()));
        let slo = doc.get("slo").expect("slo object");
        assert_eq!(slo.get("threshold_ns").unwrap().as_u64(), Some(1_000_000));
        let faults = slo.get("faults").unwrap().as_u64().unwrap();
        let under = slo.get("under").unwrap().as_u64().unwrap();
        assert!(under <= faults);
        let attainment = slo.get("attainment").unwrap().as_f64().unwrap();
        assert!((0.0..=1.0).contains(&attainment));
        // Without a threshold there is no slo section, but tail stays.
        let bare = run_summary_json_v3(&report, None);
        let doc = JsonValue::parse(&bare).expect("valid JSON");
        assert!(doc.get("tail").is_some());
        assert!(doc.get("slo").is_none());
    }

    #[test]
    fn v3_cluster_summary_merges_node_tails() {
        let app = gms_trace::apps::gdb().scaled(0.1);
        let config = SimConfig::builder()
            .policy(FetchPolicy::eager(SubpageSize::S1K))
            .memory(MemoryConfig::Half)
            .cluster_nodes(4)
            .build();
        let report = ClusterSim::new(config).run(&[app.clone(), app]);
        let json = cluster_summary_json_v3(&report, Some(Duration::from_micros(500)));
        let doc = JsonValue::parse(&json).expect("valid JSON");
        assert_eq!(doc.get("schema").unwrap().as_str(), Some(SUMMARY_SCHEMA_V3));
        let tail = doc.get("tail").expect("tail object");
        let total: u64 = report.nodes.iter().map(|n| n.fault_log.len() as u64).sum();
        assert_eq!(tail.get("count").unwrap().as_u64(), Some(total));
        // The merged sketch equals one built over every fault directly.
        let mut direct = QuantileSketch::new();
        for n in &report.nodes {
            for f in &n.fault_log {
                direct.record(f.wait.as_nanos());
            }
        }
        assert_eq!(
            tail.get("p99_9_ns").unwrap().as_u64(),
            Some(direct.quantile(0.999))
        );
        let slo = doc.get("slo").expect("slo object");
        let nodes = slo.get("nodes").unwrap().as_array().unwrap();
        assert_eq!(nodes.len(), report.nodes.len());
        let per_node_faults: u64 = nodes
            .iter()
            .map(|n| {
                n.get("slo")
                    .unwrap()
                    .get("faults")
                    .unwrap()
                    .as_u64()
                    .unwrap()
            })
            .sum();
        assert_eq!(
            per_node_faults,
            slo.get("faults").unwrap().as_u64().unwrap()
        );
    }

    #[test]
    fn cluster_summary_covers_every_node() {
        let app = gms_trace::apps::gdb().scaled(0.1);
        let config = SimConfig::builder()
            .policy(FetchPolicy::eager(SubpageSize::S1K))
            .memory(MemoryConfig::Half)
            .cluster_nodes(4)
            .build();
        let report = ClusterSim::new(config).run(&[app.clone(), app]);
        let json = cluster_summary_json(&report);
        let doc = JsonValue::parse(&json).expect("valid JSON");
        assert_eq!(doc.get("kind").unwrap().as_str(), Some("cluster"));
        assert_eq!(doc.get("nodes").unwrap().as_array().unwrap().len(), 2);
        assert_eq!(doc.get("per_node").unwrap().as_array().unwrap().len(), 4);
        let counters = doc.get("counters").unwrap();
        let wire_util = counters.get("wire_utilization").unwrap().as_f64().unwrap();
        assert!((0.0..=1.0).contains(&wire_util));
        let min_u = counters
            .get("min_node_utilization")
            .unwrap()
            .as_f64()
            .unwrap();
        let max_u = counters
            .get("max_node_utilization")
            .unwrap()
            .as_f64()
            .unwrap();
        assert!(0.0 <= min_u && min_u <= max_u && max_u <= 1.0);
        // The merged histogram counts every node's faults.
        let total: u64 = report.nodes.iter().map(|n| n.faults.total()).sum();
        assert_eq!(
            doc.get("page_wait").unwrap().get("count").unwrap().as_u64(),
            Some(total)
        );
    }
}
