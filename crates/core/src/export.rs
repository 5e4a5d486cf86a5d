//! Machine-readable run summaries.
//!
//! Hand-rolled JSON: [`run_summary_json`] and [`cluster_summary_json`] render
//! [`RunReport`]/[`ClusterReport`] into one stable schema
//! ([`SUMMARY_SCHEMA`]) that the CLI's `--summary-json` flag writes and
//! its `check-trace` command re-parses with [`gms_obs::JsonValue`]. Every
//! summary carries the same keys whatever its policy or replication
//! factor; `--slo` appends one [`SloCount`] object as the last key.
//!
//! Scalar counters go through [`CounterRegistry`], so a counter added
//! to a report shows up in the summary without touching the renderer.

use gms_cluster::GmsStats;
use gms_net::NetResource;
use gms_obs::{escape_json, CounterRegistry, QuantileSketch};
use gms_units::Duration;

use crate::cluster_sim::ClusterReport;
use crate::RunReport;

/// Schema tag stamped into every summary document. `v2` added the
/// `reliability` object (timeouts, retries, failovers, degraded
/// re-fetches, disk fallbacks, crash losses); `v3` added the `tail`
/// object and gives every summary the prefetch counters and the
/// replication ledger, zero where they do not apply.
pub const SUMMARY_SCHEMA: &str = "gms-summary/v3";

/// The percentile keys every summary `page_wait` object carries, with
/// the quantile each is computed at, in emission order. This is the
/// single source of truth shared between the writer ([`wait_json`])
/// and the CLI's `check-trace` validator, so a percentile cannot be
/// added to one side and silently skipped by the other.
pub const WAIT_PERCENTILES: [(&str, f64); 3] =
    [("p50_ns", 0.50), ("p90_ns", 0.90), ("p99_ns", 0.99)];

/// The far-tail percentile keys a `tail` object carries. Shared with
/// the validator like [`WAIT_PERCENTILES`].
pub const TAIL_PERCENTILES: [(&str, f64); 2] = [("p99_9_ns", 0.999), ("p99_99_ns", 0.9999)];

/// Renders a wait sketch as a `page_wait` object: exact count, extremes
/// and mean, the [`WAIT_PERCENTILES`] keys, and the sketch's non-empty
/// `[low, count]` buckets.
#[must_use]
pub fn wait_json(sketch: &QuantileSketch) -> String {
    let percentiles: String = WAIT_PERCENTILES
        .iter()
        .map(|&(key, q)| format!("\"{key}\":{},", sketch.quantile(q)))
        .collect();
    let buckets: Vec<String> = sketch
        .buckets()
        .map(|(low, c)| format!("[{low},{c}]"))
        .collect();
    format!(
        "{{\"count\":{},\"min_ns\":{},\"mean_ns\":{:.1},{percentiles}\"max_ns\":{},\"buckets\":[{}]}}",
        sketch.count(),
        sketch.min(),
        sketch.mean(),
        sketch.max(),
        buckets.join(",")
    )
}

/// Renders a wait sketch as a `tail` object: the [`TAIL_PERCENTILES`]
/// keys plus the exact count/max and the sketch's guaranteed relative
/// error bound.
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

/// SLO attainment against a page-wait threshold: how many faults
/// completed within it ([`ClusterReport::slo_count`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SloCount {
    /// The page-wait threshold.
    pub threshold: Duration,
    /// Faults counted.
    pub faults: u64,
    /// Faults that waited at most `threshold`.
    pub under: u64,
}

impl SloCount {
    /// `under / faults`; an empty run attains trivially.
    #[must_use]
    pub fn attainment(&self) -> f64 {
        if self.faults == 0 {
            1.0
        } else {
            self.under as f64 / self.faults as f64
        }
    }

    /// The `slo` object of a summary or an explain document.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"threshold_ns\":{},\"faults\":{},\"under\":{},\"attainment\":{:.6}}}",
            self.threshold.as_nanos(),
            self.faults,
            self.under,
            self.attainment()
        )
    }
}

/// Appends `slo`'s object to a summary document as its last key.
#[must_use]
pub fn with_slo(mut summary: String, slo: &SloCount) -> String {
    let close = summary.pop();
    debug_assert_eq!(close, Some('}'), "a summary is one JSON object");
    summary.push_str(&format!(",\"slo\":{}}}", slo.to_json()));
    summary
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
    reg.set("prefetched_subpages", report.prefetched_subpages);
    reg.set(
        "mispredicted_prefetch_bytes",
        report.mispredicted_prefetch_bytes,
    );
    reg.set_f64("wire_utilization", report.wire_utilization());
    reg.set_f64("overlap_io_fraction", report.overlap.io_fraction());
    reg
}

/// The reliability counters of a run's active nodes: timeout, retry
/// and failover telemetry from the fault-injection machinery, summed
/// over the nodes (all zero for a fault-free run), then crash losses
/// and the replication ledger, which are cluster-wide GMS state that
/// every node report carries alike and so are taken once.
#[must_use]
pub fn reliability_counters(nodes: &[RunReport]) -> CounterRegistry {
    let sum = |f: fn(&RunReport) -> u64| nodes.iter().map(f).sum::<u64>();
    let gms = nodes.first().map(|n| &n.gms);
    let ledger = |f: fn(&GmsStats) -> u64| gms.map_or(0, f);
    let mut reg = CounterRegistry::new();
    reg.set("timeouts", sum(|n| n.timeouts));
    reg.set("retries", sum(|n| n.retries));
    reg.set("failovers", sum(|n| n.failovers));
    reg.set("degraded_fetches", sum(|n| n.faults.degraded));
    reg.set("fell_back_to_disk", sum(|n| n.fell_back_to_disk));
    reg.set("pages_lost_to_crash", ledger(|g| g.pages_lost_to_crash));
    reg.set("replicas", ledger(|g| u64::from(g.replicas)));
    reg.set("replica_writes", ledger(|g| g.replica_writes));
    reg.set("pages_re_replicated", ledger(|g| g.pages_re_replicated));
    reg.set("repair_bytes", ledger(|g| g.repair_bytes));
    reg.set("directory_rebuilds", ledger(|g| g.directory_rebuilds));
    reg.set(
        "window_of_vulnerability_ns",
        ledger(|g| g.window_of_vulnerability_ns),
    );
    reg
}

/// One run's summary as a self-contained JSON object string.
#[must_use]
pub fn run_summary_json(report: &RunReport) -> String {
    let sketch = report.wait_sketch();
    format!(
        "{{\"schema\":\"{SUMMARY_SCHEMA}\",\"kind\":\"run\",\"policy\":\"{}\",\"memory\":\"{}\",\"counters\":{},\"reliability\":{},\"page_wait\":{},\"tail\":{}}}",
        escape_json(&report.policy),
        escape_json(&report.memory),
        run_counters(report).to_json(),
        reliability_counters(std::slice::from_ref(report)).to_json(),
        wait_json(&sketch),
        tail_json(&sketch),
    )
}

/// A cluster run's summary: aggregate network counters, the page waits
/// of every active node in one sketch, the per-node network breakdown,
/// and one nested run summary per active node.
#[must_use]
pub fn cluster_summary_json(report: &ClusterReport) -> String {
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
    // The fault and prefetch counters of a run summary, summed over
    // the active nodes.
    let sum = |f: fn(&RunReport) -> u64| report.nodes.iter().map(f).sum::<u64>();
    reg.set("faults_remote", sum(|n| n.faults.remote));
    reg.set("faults_disk", sum(|n| n.faults.disk));
    reg.set("faults_lazy_subpage", sum(|n| n.faults.lazy_subpage));
    reg.set("faults_degraded", sum(|n| n.faults.degraded));
    reg.set("prefetched_subpages", sum(|n| n.prefetched_subpages));
    reg.set(
        "mispredicted_prefetch_bytes",
        sum(|n| n.mispredicted_prefetch_bytes),
    );

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
    let sketch = report.wait_sketch();

    format!(
        "{{\"schema\":\"{SUMMARY_SCHEMA}\",\"kind\":\"cluster\",\"counters\":{},\"reliability\":{},\"page_wait\":{},\"per_node\":[{}],\"nodes\":[{}],\"tail\":{}}}",
        reg.to_json(),
        reliability_counters(&report.nodes).to_json(),
        wait_json(&sketch),
        per_node.join(","),
        nodes.join(","),
        tail_json(&sketch),
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
        let sketch = report.wait_sketch();
        assert_eq!(
            wait.get("count").unwrap().as_u64(),
            Some(report.faults.total())
        );
        for (key, q) in WAIT_PERCENTILES {
            assert_eq!(wait.get(key).unwrap().as_u64(), Some(sketch.quantile(q)));
        }
        assert_eq!(wait.get("max_ns").unwrap().as_u64(), Some(sketch.max()));
        let tail = doc.get("tail").expect("tail object");
        for (key, q) in TAIL_PERCENTILES {
            assert_eq!(tail.get(key).unwrap().as_u64(), Some(sketch.quantile(q)));
        }
        assert_eq!(tail.get("count").unwrap().as_u64(), Some(sketch.count()));
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
        assert_eq!(doc.get("schema").unwrap().as_str(), Some(SUMMARY_SCHEMA));
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

    /// The keys of each object of a summary, recursively (sorted).
    fn keys(doc: &JsonValue) -> Vec<String> {
        let mut out = Vec::new();
        if let Some(map) = doc.as_object() {
            for (k, v) in map {
                if k != "buckets" {
                    out.push(k.clone());
                    out.extend(keys(v).into_iter().map(|sub| format!("{k}.{sub}")));
                }
            }
        }
        out
    }

    #[test]
    fn every_summary_has_one_key_set() {
        use crate::ReplicationConfig;
        let app = gms_trace::apps::gdb().scaled(0.1);
        let cluster = |policy: FetchPolicy, replicas: u32| {
            let mut cfg = config();
            cfg.policy = policy;
            cfg.cluster_nodes = 5;
            cfg.replication = ReplicationConfig {
                replicas,
                ..ReplicationConfig::default()
            };
            ClusterSim::new(cfg).run(std::slice::from_ref(&app))
        };
        let plain = cluster(FetchPolicy::eager(SubpageSize::S1K), 1);
        let adaptive = cluster(FetchPolicy::leap(SubpageSize::S1K), 2);
        let parse = |r: &ClusterReport| JsonValue::parse(&cluster_summary_json(r)).unwrap();
        let (a, b) = (parse(&plain), parse(&adaptive));
        assert_eq!(keys(&a), keys(&b));
        let faults: u64 = plain.nodes.iter().map(|n| n.faults.remote).sum();
        assert_eq!(
            a.get("counters")
                .unwrap()
                .get("faults_remote")
                .unwrap()
                .as_u64(),
            Some(faults)
        );
        // K = 1 reports one copy and an empty ledger; K = 2 counts the
        // standby copies every eviction wrote.
        let rel = a.get("reliability").unwrap();
        assert_eq!(rel.get("replicas").unwrap().as_u64(), Some(1));
        assert_eq!(rel.get("replica_writes").unwrap().as_u64(), Some(0));
        let rel = b.get("reliability").unwrap();
        assert_eq!(rel.get("replicas").unwrap().as_u64(), Some(2));
        let stats = &adaptive.nodes[0].gms;
        assert!(stats.replica_writes > 0, "evictions must write standbys");
        assert_eq!(
            rel.get("replica_writes").unwrap().as_u64(),
            Some(stats.replica_writes)
        );
        assert!(adaptive.nodes[0].prefetched_subpages > 0);
        assert_eq!(
            b.get("counters")
                .unwrap()
                .get("prefetched_subpages")
                .unwrap()
                .as_u64(),
            Some(adaptive.nodes[0].prefetched_subpages)
        );
        // Nested run summaries share one key set too.
        let nested = |doc: &JsonValue| keys(&doc.get("nodes").unwrap().as_array().unwrap()[0]);
        assert_eq!(nested(&a), nested(&b));
        assert_eq!(
            nested(&a),
            keys(&JsonValue::parse(&run_summary_json(&plain.nodes[0])).unwrap())
        );
    }

    #[test]
    fn slo_object_is_appended_last() {
        let report = ClusterSim::new(config()).run(&[gms_trace::apps::gdb().scaled(0.2)]);
        let count = report.slo_count(Duration::from_millis(1));
        let faults: u64 = report.nodes.iter().map(|n| n.faults.total()).sum();
        assert_eq!(count.faults, faults);
        assert!(count.under <= count.faults);
        let summary = cluster_summary_json(&report);
        let scored = with_slo(summary.clone(), &count);
        assert_eq!(
            scored,
            format!(
                "{},\"slo\":{}}}",
                summary.strip_suffix('}').unwrap(),
                count.to_json()
            )
        );
        let doc = JsonValue::parse(&scored).expect("valid JSON");
        let slo = doc.get("slo").expect("slo object");
        assert_eq!(slo.get("threshold_ns").unwrap().as_u64(), Some(1_000_000));
        assert_eq!(slo.get("faults").unwrap().as_u64(), Some(count.faults));
        assert_eq!(slo.get("under").unwrap().as_u64(), Some(count.under));
        let attainment = slo.get("attainment").unwrap().as_f64().unwrap();
        assert!((attainment - count.attainment()).abs() < 1e-6);
        let empty = SloCount {
            threshold: Duration::from_millis(1),
            faults: 0,
            under: 0,
        };
        assert_eq!(empty.attainment(), 1.0);
    }

    #[test]
    fn cluster_summary_merges_node_sketches() {
        let app = gms_trace::apps::gdb().scaled(0.1);
        let config = SimConfig::builder()
            .policy(FetchPolicy::eager(SubpageSize::S1K))
            .memory(MemoryConfig::Half)
            .cluster_nodes(4)
            .build();
        let report = ClusterSim::new(config).run(&[app.clone(), app]);
        let doc = JsonValue::parse(&cluster_summary_json(&report)).expect("valid JSON");
        // The merged sketch equals one built over every fault directly.
        let mut direct = QuantileSketch::new();
        for n in &report.nodes {
            for f in &n.fault_log {
                direct.record(f.wait.as_nanos());
            }
        }
        assert_eq!(report.wait_sketch(), direct);
        let tail = doc.get("tail").expect("tail object");
        assert_eq!(tail.get("count").unwrap().as_u64(), Some(direct.count()));
        assert_eq!(
            tail.get("p99_9_ns").unwrap().as_u64(),
            Some(direct.quantile(0.999))
        );
        let wait = doc.get("page_wait").expect("page_wait object");
        assert_eq!(
            wait.get("p99_ns").unwrap().as_u64(),
            Some(direct.quantile(0.99))
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
        // The merged sketch counts every node's faults.
        let total: u64 = report.nodes.iter().map(|n| n.faults.total()).sum();
        assert_eq!(
            doc.get("page_wait").unwrap().get("count").unwrap().as_u64(),
            Some(total)
        );
    }
}
