//! Golden-digest regression: the five paper policies and the two
//! adaptive ones are pinned byte-for-byte — human-readable summary,
//! exported summary JSON and the full Perfetto trace — for a fixed
//! serial workload and a fixed four-node cluster workload, and one
//! replicated five-node cluster runs under a loss + idle-node crash +
//! degrade plan. Any engine, policy-layer, GMS or recorder change that
//! perturbs their output by even one byte fails here.
//!
//! The digests were last regenerated when every summary moved to the
//! one `gms-summary/v3` schema with its percentiles read from
//! `QuantileSketch`; the summary-text and Perfetto-trace parts of every
//! row were unchanged by that move. To regenerate after an
//! *intentional* output change, run the test and copy the table it
//! prints on failure.

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

/// `(label, serial digest, cluster digest)`.
const GOLDEN: &[(&str, u64, u64)] = &[
    ("disk_8192", 0xa2c1_f7c8_fd43_d052, 0xe527_6b3a_fca0_208d),
    ("p_8192", 0x9ba7_6a02_34c7_b14c, 0x34a6_7098_a5e6_b00d),
    ("sp_1024", 0x4549_0b08_e780_7f79, 0xacbd_9e88_1045_5044),
    ("pl_1024", 0xb398_ddc6_7211_c782, 0x3ae5_e711_3765_e910),
    ("lazy_1024", 0x3f1b_06fc_b497_759d, 0x9401_c4d1_7e1b_5c0b),
    ("leap_1024", 0x09ff_bc37_510f_50af, 0x9880_be8f_7cf8_2eb8),
    ("indigo_1024", 0xd801_85ab_4afc_8b27, 0x50e3_2e7a_578f_b83d),
];

/// The replicated chaos cell.
const GOLDEN_CHAOS: u64 = 0xd440_7e8a_e48d_f65e;

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
