//! Golden-digest regression: the five paper policies and the two
//! adaptive ones are pinned byte-for-byte — human-readable summary,
//! exported summary JSON and the full Perfetto trace — for a fixed
//! serial workload and a fixed four-node cluster workload, and one
//! replicated five-node cluster runs under a loss + idle-node crash +
//! degrade plan. Any engine, policy-layer, GMS or recorder change that
//! perturbs their output by even one byte fails here.
//!
//! The static-policy digests were generated from the pre-refactor
//! policy layer (the stateless `FetchPolicy::plan_fault` path) and must
//! survive the `PolicyEngine` refactor unchanged; the adaptive and
//! chaos digests were generated before the page-keyed maps moved to
//! the shared deterministic hasher and must survive that unchanged. To
//! regenerate after an *intentional* output change, run the test and
//! copy the table it prints on failure.

use gms_core::{
    cluster_summary_json, run_summary_json, ClusterSim, FaultPlan, FetchPolicy, MemoryConfig,
    ReplicationConfig, SimConfig, Simulator,
};
use gms_mem::SubpageSize;
use gms_obs::{perfetto_trace, MemoryRecorder};
use gms_trace::apps;

/// FNV-1a 64: dependency-free, stable across platforms.
fn fnv1a(text: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn static_policies() -> Vec<FetchPolicy> {
    vec![
        FetchPolicy::disk(),
        FetchPolicy::fullpage(),
        FetchPolicy::eager(SubpageSize::S1K),
        FetchPolicy::pipelined(SubpageSize::S1K),
        FetchPolicy::lazy(SubpageSize::S1K),
    ]
}

fn adaptive_policies() -> Vec<FetchPolicy> {
    vec![
        FetchPolicy::leap(SubpageSize::S1K),
        FetchPolicy::indigo(SubpageSize::S1K),
    ]
}

/// Serial digest: summary text + summary JSON + Perfetto trace of one
/// recorded `gdb` run at half memory.
fn serial_digest(policy: FetchPolicy) -> u64 {
    let cfg = SimConfig::builder()
        .policy(policy)
        .memory(MemoryConfig::Half)
        .build();
    let mut rec = MemoryRecorder::new();
    let report = Simulator::new(cfg).run_recorded(&apps::gdb().scaled(0.1), &mut rec);
    let events = rec.into_events();
    let text = format!(
        "{}\n{}\n{}",
        report.summary(),
        run_summary_json(&report),
        perfetto_trace(events.iter())
    );
    fnv1a(&text)
}

/// Cluster digest: summary text + cluster summary JSON + Perfetto trace
/// of a recorded two-app run on a four-node cluster.
fn cluster_digest(policy: FetchPolicy) -> u64 {
    let cfg = SimConfig::builder()
        .policy(policy)
        .memory(MemoryConfig::Half)
        .cluster_nodes(4)
        .build();
    let app = apps::gdb().scaled(0.1);
    let mut rec = MemoryRecorder::new();
    let report = ClusterSim::new(cfg).run_recorded(&[app.clone(), app], &mut rec);
    let events = rec.into_events();
    let text = format!(
        "{}\n{}\n{}",
        report.summary(),
        cluster_summary_json(&report),
        perfetto_trace(events.iter())
    );
    fnv1a(&text)
}

/// Chaos digest: summary text + cluster summary JSON + Perfetto trace
/// of a recorded two-app run on five nodes keeping two copies of every
/// page, under message loss, a crash of idle node 4 and a degraded
/// link on idle node 3 — the failover, repair, directory-rebuild and
/// lost-subpage paths that the fault-free cells never reach.
fn chaos_digest() -> u64 {
    let plan = FaultPlan::parse(
        "loss=0.02,seed=11,crash=n4@90ms,degrade=n3@20ms..120msx3",
        None,
    )
    .expect("valid plan");
    let cfg = SimConfig::builder()
        .policy(FetchPolicy::eager(SubpageSize::S1K))
        .memory(MemoryConfig::Quarter)
        .cluster_nodes(5)
        .replication(ReplicationConfig {
            replicas: 2,
            ..ReplicationConfig::default()
        })
        .fault_plan(plan)
        .build();
    let app = apps::gdb().scaled(0.1);
    let mut rec = MemoryRecorder::new();
    let report = ClusterSim::new(cfg).run_recorded(&[app.clone(), app], &mut rec);
    let gms = &report.nodes[0].gms;
    assert!(gms.directory_rebuilds > 0, "the crash must rebuild a shard");
    assert!(gms.pages_re_replicated > 0, "the crash must trigger repair");
    assert!(
        report.nodes.iter().map(|n| n.retries).sum::<u64>() > 0,
        "loss must force retries"
    );
    let events = rec.into_events();
    let text = format!(
        "{}\n{}\n{}",
        report.summary(),
        cluster_summary_json(&report),
        perfetto_trace(events.iter())
    );
    fnv1a(&text)
}

/// `(label, serial digest, cluster digest)`: the static policies
/// generated pre-refactor, the adaptive ones before the hasher change.
const GOLDEN: &[(&str, u64, u64)] = &[
    ("disk_8192", 0x1c00_9572_d0d0_366f, 0x3874_aa7f_4a21_61bf),
    ("p_8192", 0x6682_3e5d_3b82_4755, 0x01f4_aa13_5f09_10c1),
    ("sp_1024", 0x20b5_47c0_d600_d59a, 0x48cc_d50a_65d8_21c9),
    ("pl_1024", 0x7eb0_97eb_b9a6_e9f1, 0x9179_4c78_6f31_c3b6),
    ("lazy_1024", 0x0568_1044_b8d1_48e2, 0x2f8d_5d59_06f0_2d34),
    ("leap_1024", 0x291d_5b23_839a_8b6c, 0x2ff0_f43a_76c8_44e3),
    ("indigo_1024", 0x4914_d4a8_d5fc_817b, 0x17b6_c510_8d87_872c),
];

/// The replicated chaos cell, generated before the hasher change.
const GOLDEN_CHAOS: u64 = 0xed07_c222_1fbe_1db7;

fn assert_golden(policies: Vec<FetchPolicy>) {
    let mut mismatches = Vec::new();
    let mut actual = Vec::new();
    for policy in policies {
        let label = policy.label();
        let (serial, cluster) = (serial_digest(policy), cluster_digest(policy));
        actual.push(format!(
            "    (\"{label}\", {serial:#018x}, {cluster:#018x}),"
        ));
        let golden = GOLDEN
            .iter()
            .find(|(l, _, _)| *l == label)
            .unwrap_or_else(|| panic!("no golden entry for {label}"));
        if (golden.1, golden.2) != (serial, cluster) {
            mismatches.push(label);
        }
    }
    assert!(
        mismatches.is_empty(),
        "digest mismatch for {mismatches:?}; if the output change is intentional, \
         replace their GOLDEN rows with:\n{}",
        actual.join("\n")
    );
}

#[test]
fn static_policies_match_golden_digests() {
    assert_golden(static_policies());
}

#[test]
fn adaptive_policies_match_golden_digests() {
    assert_golden(adaptive_policies());
}

#[test]
fn replicated_chaos_cluster_matches_golden_digest() {
    let digest = chaos_digest();
    assert_eq!(
        digest, GOLDEN_CHAOS,
        "chaos digest mismatch; if the output change is intentional, \
         replace GOLDEN_CHAOS with {digest:#018x}"
    );
}
