//! Engine and sweep-executor throughput.
//!
//! Measures the simulator's reference throughput (refs/sec) per fetch
//! policy over a pre-materialized gdb trace, the wall-clock of the
//! paper-default sweep grid serially vs. on [`gms_bench::jobs`] workers,
//! a multi-node cluster cell (four active nodes, eager 1K, shared
//! network) with its aggregate wire utilization, and a 64-node cluster
//! cell with 16 active nodes.
//! Every timed variant runs once per round in one fixed rotation
//! (median of [`ROUNDS`]), so slow drift hits all cells equally.
//! Results print as a table and are written to `BENCH_engine.json` at
//! the repository root so regressions are diffable across commits —
//! CI's perf gate runs this bench and `gms-sim diff-bench`es the fresh
//! file against the committed baseline. Parallel wall-clock cells
//! (`jobs*`, `speedup`) are informational: they track the host's core
//! count, not the code.
//!
//! `GMS_SCALE` shrinks the trace, `GMS_JOBS` pins the worker count,
//! and `GMS_BENCH_OUT` redirects the JSON output (so the CI gate can
//! write to a scratch path without dirtying the checkout).

use std::sync::Arc;
use std::time::Instant;

use gms_bench::{
    apps, jobs, scale, ClusterSim, FaultPlan, FetchPolicy, MemoryConfig, ReplicationConfig,
    RunReport, SimConfig, Simulator, SubpageSize, Sweep, Table,
};
use gms_obs::{FlightRecorder, HeatMap, MemoryRecorder};
use gms_trace::synth::LAYOUT_BASE;
use gms_trace::MaterializedTrace;

struct Sample {
    label: String,
    refs: u64,
    secs: f64,
}

impl Sample {
    fn refs_per_sec(&self) -> f64 {
        self.refs as f64 / self.secs
    }
}

/// Timed rounds per variant. Every variant runs once per round, in a
/// fixed rotation, so slow drift (frequency scaling, noisy CI
/// neighbours) hits all variants equally instead of whichever cell
/// happened to run last.
const ROUNDS: usize = 11;

/// Median of one variant's per-round times: robust to the occasional
/// descheduled round, which a mean is not. The perf gate diffs these
/// numbers with a ±25% tolerance, so the estimator has to be stable
/// run over run.
fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn main() {
    let app = apps::gdb().scaled(scale());
    let trace = Arc::new(MaterializedTrace::capture(&mut *app.source()));
    let footprint = app.footprint();

    let policies = [
        FetchPolicy::fullpage(),
        FetchPolicy::eager(SubpageSize::S1K),
        FetchPolicy::pipelined(SubpageSize::S1K),
        FetchPolicy::lazy(SubpageSize::S1K),
    ];
    // The history-observing engines ride along in their own JSON
    // section: their cells are informational in the perf gate until a
    // few CI rounds establish their variance.
    let adaptive_policies = [
        FetchPolicy::leap(SubpageSize::S1K),
        FetchPolicy::indigo(SubpageSize::S1K),
    ];
    let run_policy = |policy: FetchPolicy| {
        let config = SimConfig::builder()
            .policy(policy)
            .memory(MemoryConfig::Half)
            .build();
        Simulator::new(config).run_trace(&mut trace.cursor(), footprint, LAYOUT_BASE)
    };

    // Tracing overhead: the sp_1024 cell again, with a buffering
    // `MemoryRecorder` attached. The per-policy cells run through the
    // `NoopRecorder` path (recording monomorphized away), so the delta
    // is the full cost of structured event capture. One recorder is
    // reused (capacity-retaining `clear`) across reps, as a profiling
    // loop would: building a fresh arena per rep measures allocator
    // page-fault churn, not recording.
    let mut shared_rec = MemoryRecorder::new();
    let run_traced = |rec: &mut MemoryRecorder| {
        let config = SimConfig::builder()
            .policy(FetchPolicy::eager(SubpageSize::S1K))
            .memory(MemoryConfig::Half)
            .build();
        rec.clear();
        Simulator::new(config).run_trace_recorded(&mut trace.cursor(), footprint, LAYOUT_BASE, rec)
    };

    // Fault-machinery overhead: the sp_1024 cell with an *inert*
    // non-empty plan installed (an idle-node crash scheduled an hour
    // in, far past any run). The injector is consulted on every
    // transfer but never fires, so the report is identical and the
    // delta is the pure cost of having fault injection armed.
    let inert_plan = FaultPlan::parse("crash=n1@3600s", None).expect("valid inert plan");
    let run_faulted = || {
        let mut config = SimConfig::builder()
            .policy(FetchPolicy::eager(SubpageSize::S1K))
            .memory(MemoryConfig::Half)
            .build();
        config.fault_plan = Some(inert_plan.clone());
        Simulator::new(config).run_trace(&mut trace.cursor(), footprint, LAYOUT_BASE)
    };

    // Warm every variant once (and pin the invariants the timed loop
    // relies on), then time them interleaved. The warm reports are kept:
    // their far-tail waits (simulated time, deterministic for a given
    // engine) become the `<policy>_p99_9_us` cells, gated much tighter
    // than the wall-clock cells.
    let warm_reports: Vec<RunReport> = policies.iter().map(|&p| run_policy(p)).collect();
    let adaptive_warm: Vec<RunReport> = adaptive_policies.iter().map(|&p| run_policy(p)).collect();
    let mut samples: Vec<Sample> = policies
        .iter()
        .zip(&warm_reports)
        .map(|(&policy, report)| Sample {
            label: policy.label(),
            refs: report.total_refs,
            secs: 0.0,
        })
        .collect();
    let mut adaptive_samples: Vec<Sample> = adaptive_policies
        .iter()
        .zip(&adaptive_warm)
        .map(|(&policy, report)| Sample {
            label: policy.label(),
            refs: report.total_refs,
            secs: 0.0,
        })
        .collect();
    let traced_warm = run_traced(&mut shared_rec);
    let events_per_run = shared_rec.len();
    let sp_refs = samples
        .iter()
        .find(|s| s.label == "sp_1024")
        .expect("sp_1024 cell present")
        .refs;
    assert_eq!(traced_warm.total_refs, sp_refs);
    let faulted_warm = run_faulted();
    assert_eq!(faulted_warm.total_refs, sp_refs);
    assert_eq!(
        faulted_warm.retries, 0,
        "the inert plan must never actually fire"
    );

    // Paper-default sweep grid: serial executor vs. `jobs()` workers.
    let sweep_once = |jobs: usize| {
        let start = Instant::now();
        std::hint::black_box(Sweep::new(app.clone()).run_parallel(jobs));
        start.elapsed().as_secs_f64()
    };
    let parallel_jobs = jobs();

    // Multi-node cluster cell: four active nodes replaying the same app
    // over a shared 7-node network, eager 1K.
    const CLUSTER_NODES: u32 = 7;
    const CLUSTER_ACTIVE: usize = 4;
    let cluster_config = |nodes: u32| {
        SimConfig::builder()
            .policy(FetchPolicy::eager(SubpageSize::S1K))
            .memory(MemoryConfig::Half)
            .cluster_nodes(nodes)
            .build()
    };
    let cluster_sim = ClusterSim::new(cluster_config(CLUSTER_NODES));
    let cluster_apps = vec![app.clone(); CLUSTER_ACTIVE];
    let cluster_warm = cluster_sim.run(&cluster_apps);
    let cluster_refs: u64 = cluster_warm.nodes.iter().map(|r| r.total_refs).sum();

    // Replicated cluster cell: the same topology keeping two copies of
    // every evicted page. The replica writes are real traffic on the
    // shared wires, so the cell prices crash-survivability against the
    // single-copy cell above. The wall-clock leaves are informational
    // in the perf gate; `replica_writes` and the simulated makespan are
    // deterministic engine outputs and get the standard gate.
    const REPLICAS: u32 = 2;
    let replicated_sim = ClusterSim::new(
        SimConfig::builder()
            .policy(FetchPolicy::eager(SubpageSize::S1K))
            .memory(MemoryConfig::Half)
            .cluster_nodes(CLUSTER_NODES)
            .replication(ReplicationConfig {
                replicas: REPLICAS,
                ..ReplicationConfig::default()
            })
            .build(),
    );
    let replicated_warm = replicated_sim.run(&cluster_apps);
    let replica_writes = replicated_warm
        .nodes
        .first()
        .map_or(0, |n| n.gms.replica_writes);
    assert!(
        replica_writes > 0,
        "replicated evictions must write standby copies"
    );

    // Flight-recorder overhead: the cluster cell again with a bounded
    // worst-K `FlightRecorder` attached — the always-on production
    // configuration the explain path reads. Unlike the full
    // `MemoryRecorder` (which retains every event), the flight recorder
    // keeps O(K) state, so its cell is gated with an absolute ceiling
    // (`flight_overhead_pct` < 5) rather than a relative tolerance. One
    // recorder is reused (buffer-retaining `clear`).
    const FLIGHT_KEEP: usize = 8;
    let mut flight_rec = FlightRecorder::new(FLIGHT_KEEP);
    flight_rec.clear();
    let flight_warm = cluster_sim.run_recorded(&cluster_apps, &mut flight_rec);
    assert_eq!(
        flight_warm, cluster_warm,
        "flight recorder is a write-only side channel"
    );
    let flight_retained_events = flight_rec.retained_events();

    // Heat-map overhead: the cluster cell with the default `--heat-out`
    // configuration — 64-page regions, wire tracking off, so the
    // engine skips the background occupancy stream entirely. Bounded
    // like the flight recorder, so its cell carries the same absolute
    // ceiling (`heat_overhead_pct` < 5).
    let mut heat_rec = HeatMap::new();
    let heat_warm = cluster_sim.run_recorded(&cluster_apps, &mut heat_rec);
    assert_eq!(
        heat_warm, cluster_warm,
        "heat map is a write-only side channel"
    );
    let heat_regions = heat_rec.regions().len();
    assert!(heat_regions > 0, "cluster cell must touch some regions");

    // Scaling cell: a 64-node cluster with 16 active nodes.
    const BIG_NODES: u32 = 64;
    const BIG_ACTIVE: usize = 16;
    let big_serial_sim = ClusterSim::new(cluster_config(BIG_NODES));
    let big_apps = vec![app.clone(); BIG_ACTIVE];
    let big_warm = big_serial_sim.run(&big_apps);

    let mut policy_times = vec![Vec::with_capacity(ROUNDS); policies.len()];
    let mut adaptive_times = vec![Vec::with_capacity(ROUNDS); adaptive_policies.len()];
    let mut traced_times = Vec::with_capacity(ROUNDS);
    let mut faulted_times = Vec::with_capacity(ROUNDS);
    let mut sweep_serial_times = Vec::with_capacity(ROUNDS);
    let mut sweep_parallel_times = Vec::with_capacity(ROUNDS);
    let mut cluster_times = Vec::with_capacity(ROUNDS);
    let mut replicated_times = Vec::with_capacity(ROUNDS);
    let mut big_serial_times = Vec::with_capacity(ROUNDS);
    let time = |acc: &mut Vec<f64>, run: &mut dyn FnMut()| {
        let start = Instant::now();
        run();
        acc.push(start.elapsed().as_secs_f64());
    };
    for _ in 0..ROUNDS {
        for (i, &policy) in policies.iter().enumerate() {
            time(&mut policy_times[i], &mut || {
                std::hint::black_box(run_policy(policy));
            });
        }
        for (i, &policy) in adaptive_policies.iter().enumerate() {
            time(&mut adaptive_times[i], &mut || {
                std::hint::black_box(run_policy(policy));
            });
        }
        time(&mut traced_times, &mut || {
            std::hint::black_box(run_traced(&mut shared_rec));
        });
        time(&mut faulted_times, &mut || {
            std::hint::black_box(run_faulted());
        });
        sweep_serial_times.push(sweep_once(1));
        sweep_parallel_times.push(sweep_once(parallel_jobs));
        time(&mut cluster_times, &mut || {
            std::hint::black_box(cluster_sim.run(&cluster_apps));
        });
        time(&mut replicated_times, &mut || {
            std::hint::black_box(replicated_sim.run(&cluster_apps));
        });
        time(&mut big_serial_times, &mut || {
            std::hint::black_box(big_serial_sim.run(&big_apps));
        });
    }
    for (s, times) in samples.iter_mut().zip(&mut policy_times) {
        s.secs = median(times);
    }
    for (s, times) in adaptive_samples.iter_mut().zip(&mut adaptive_times) {
        s.secs = median(times);
    }
    let traced_secs = median(&mut traced_times);
    let faulted_secs = median(&mut faulted_times);
    let untraced = samples
        .iter()
        .find(|s| s.label == "sp_1024")
        .expect("sp_1024 cell present");
    let tracing_overhead = traced_secs / untraced.secs - 1.0;
    let fault_overhead = faulted_secs / untraced.secs - 1.0;
    let serial_secs = median(&mut sweep_serial_times);
    let parallel_secs = median(&mut sweep_parallel_times);
    // Flight overhead is a *ratio*, so it gets its own A/B loop of
    // back-to-back untraced/recording pairs instead of riding the big
    // rotation: each pair shares whatever the host happens to be doing
    // that instant, the per-pair ratio cancels it, and the median of
    // the ratios shrugs off the occasional descheduled iteration. Two
    // cluster runs are cheap, so the loop affords far more samples
    // than ROUNDS — the ceiling gate rides on this single number.
    // Resetting the reused recorder is harness bookkeeping and stays
    // untimed.
    const OVERHEAD_PAIRS: usize = 31;
    let mut flight_untraced_times = Vec::with_capacity(OVERHEAD_PAIRS);
    let mut flight_times = Vec::with_capacity(OVERHEAD_PAIRS);
    for _ in 0..OVERHEAD_PAIRS {
        time(&mut flight_untraced_times, &mut || {
            std::hint::black_box(cluster_sim.run(&cluster_apps));
        });
        flight_rec.clear();
        time(&mut flight_times, &mut || {
            std::hint::black_box(cluster_sim.run_recorded(&cluster_apps, &mut flight_rec));
        });
    }
    let mut flight_ratios: Vec<f64> = flight_untraced_times
        .iter()
        .zip(&flight_times)
        .map(|(u, f)| f / u)
        .collect();
    let flight_overhead = median(&mut flight_ratios) - 1.0;
    let flight_untraced_secs = median(&mut flight_untraced_times);
    // Heat overhead: same back-to-back A/B shape as the flight loop.
    // Resetting the reused map is harness bookkeeping and stays
    // untimed.
    let mut heat_untraced_times = Vec::with_capacity(OVERHEAD_PAIRS);
    let mut heat_times = Vec::with_capacity(OVERHEAD_PAIRS);
    for _ in 0..OVERHEAD_PAIRS {
        time(&mut heat_untraced_times, &mut || {
            std::hint::black_box(cluster_sim.run(&cluster_apps));
        });
        heat_rec.clear();
        time(&mut heat_times, &mut || {
            std::hint::black_box(cluster_sim.run_recorded(&cluster_apps, &mut heat_rec));
        });
    }
    let mut heat_ratios: Vec<f64> = heat_untraced_times
        .iter()
        .zip(&heat_times)
        .map(|(u, h)| h / u)
        .collect();
    let heat_overhead = median(&mut heat_ratios) - 1.0;
    let heat_untraced_secs = median(&mut heat_untraced_times);
    let heat_secs = median(&mut heat_times);
    let cluster_secs = median(&mut cluster_times);
    let replicated_secs = median(&mut replicated_times);
    let flight_secs = median(&mut flight_times);
    let big_serial_secs = median(&mut big_serial_times);

    let mut table = Table::new(
        &format!("Engine throughput (gdb trace, 1/2-mem, scale {})", scale()),
        &["policy", "refs", "ms_per_run", "refs_per_sec"],
    );
    for s in samples.iter().chain(&adaptive_samples) {
        table.row(vec![
            s.label.clone(),
            s.refs.to_string(),
            format!("{:.2}", s.secs * 1e3),
            format!("{:.0}", s.refs_per_sec()),
        ]);
    }
    table.emit("engine_throughput");

    // Far-tail waits are simulated time — exact replays of the engine,
    // not wall-clock — so they are bit-stable across hosts and carry a
    // 1% perf-gate tolerance (vs ±25% for the timing cells).
    let mut tails = Table::new(
        "Far-tail fault waits (simulated, gdb trace, 1/2-mem)",
        &["policy", "faults", "p99_9_us", "p99_99_us", "max_us"],
    );
    let tail_rows: Vec<(String, f64, f64)> = policies
        .iter()
        .zip(&warm_reports)
        .chain(adaptive_policies.iter().zip(&adaptive_warm))
        .map(|(&policy, report)| {
            let sketch = report.wait_sketch();
            tails.row(vec![
                policy.label(),
                sketch.count().to_string(),
                format!("{:.1}", sketch.quantile(0.999) as f64 / 1e3),
                format!("{:.1}", sketch.quantile(0.9999) as f64 / 1e3),
                format!("{:.1}", sketch.max() as f64 / 1e3),
            ]);
            (
                policy.label(),
                sketch.quantile(0.999) as f64 / 1e3,
                sketch.quantile(0.9999) as f64 / 1e3,
            )
        })
        .collect();
    tails.emit("engine_tails");

    println!(
        "tracing overhead (sp_1024, MemoryRecorder): {:.2} ms/run vs {:.2} ms untraced \
         ({:+.1}%, {} events/run)",
        traced_secs * 1e3,
        untraced.secs * 1e3,
        tracing_overhead * 100.0,
        events_per_run
    );
    println!(
        "fault machinery armed but inert (sp_1024): {:.2} ms/run vs {:.2} ms disabled ({:+.1}%)",
        faulted_secs * 1e3,
        untraced.secs * 1e3,
        fault_overhead * 100.0
    );
    println!(
        "paper-default sweep (21 cells): serial {:.2} s, {} jobs {:.2} s ({:.2}x)",
        serial_secs,
        parallel_jobs,
        parallel_secs,
        serial_secs / parallel_secs
    );
    println!(
        "cluster cell ({CLUSTER_ACTIVE} active of {CLUSTER_NODES} nodes, sp_1024): \
         {:.2} ms/run host wall-clock; simulated: makespan {:.2} ms, \
         {:.2} ms queueing summed over all (node, resource) pairs, wire util {:.1}%",
        cluster_secs * 1e3,
        cluster_warm.makespan.as_millis_f64(),
        cluster_warm.net.queue_delay.as_millis_f64(),
        cluster_warm.net.wire_utilization * 100.0
    );
    println!(
        "replicated cluster cell ({CLUSTER_ACTIVE} active of {CLUSTER_NODES} nodes, sp_1024, \
         {REPLICAS} copies): {:.2} ms/run ({:+.1}% vs single-copy), {} replica writes, \
         simulated makespan {:.2} ms",
        replicated_secs * 1e3,
        (replicated_secs / cluster_secs - 1.0) * 100.0,
        replica_writes,
        replicated_warm.makespan.as_millis_f64()
    );
    println!(
        "flight recorder (cluster cell, worst-{FLIGHT_KEEP}): {:.2} ms/run vs {:.2} ms untraced \
         ({:+.1}%, {} events retained; ceiling 5%)",
        flight_secs * 1e3,
        flight_untraced_secs * 1e3,
        flight_overhead * 100.0,
        flight_retained_events
    );
    println!(
        "heat map (cluster cell, 64-page regions, wire tracking off): {:.2} ms/run vs \
         {:.2} ms untraced ({:+.1}%, {} regions; ceiling 5%)",
        heat_secs * 1e3,
        heat_untraced_secs * 1e3,
        heat_overhead * 100.0,
        heat_regions
    );
    println!(
        "cluster scaling ({BIG_ACTIVE} active of {BIG_NODES} nodes, sp_1024): \
         serial {:.2} ms/run, wire util {:.1}%",
        big_serial_secs * 1e3,
        big_warm.net.wire_utilization * 100.0
    );

    let mut json = String::from("{\n");
    json.push_str(&format!("  \"app\": \"{}\",\n", app.name()));
    json.push_str(&format!("  \"scale\": {},\n", scale()));
    json.push_str(&format!("  \"total_refs\": {},\n", trace.total_refs()));
    json.push_str("  \"policies\": {\n");
    for (i, s) in samples.iter().enumerate() {
        let comma = if i + 1 == samples.len() { "" } else { "," };
        json.push_str(&format!(
            "    \"{}\": {{ \"ms_per_run\": {:.3}, \"refs_per_sec\": {:.0} }}{comma}\n",
            s.label,
            s.secs * 1e3,
            s.refs_per_sec()
        ));
    }
    json.push_str("  },\n");
    json.push_str("  \"adaptive\": {\n");
    for (i, s) in adaptive_samples.iter().enumerate() {
        let comma = if i + 1 == adaptive_samples.len() {
            ""
        } else {
            ","
        };
        json.push_str(&format!(
            "    \"{}_ms_per_run\": {:.3}{comma}\n",
            s.label,
            s.secs * 1e3
        ));
    }
    json.push_str("  },\n");
    // Deterministic simulated far tails: every leaf ends in `p99_9_us`
    // or `p99_99_us`, which the perf gate holds to 1%.
    json.push_str("  \"tails\": {\n");
    for (i, (label, p999, p9999)) in tail_rows.iter().enumerate() {
        let comma = if i + 1 == tail_rows.len() { "" } else { "," };
        json.push_str(&format!(
            "    \"{label}_p99_9_us\": {p999:.1}, \"{label}_p99_99_us\": {p9999:.1}{comma}\n"
        ));
    }
    json.push_str("  },\n");
    json.push_str("  \"tracing\": {\n");
    json.push_str("    \"policy\": \"sp_1024\",\n");
    json.push_str(&format!(
        "    \"disabled_ms_per_run\": {:.3},\n",
        untraced.secs * 1e3
    ));
    json.push_str(&format!(
        "    \"recording_ms_per_run\": {:.3},\n",
        traced_secs * 1e3
    ));
    json.push_str(&format!(
        "    \"overhead_pct\": {:.1},\n",
        tracing_overhead * 100.0
    ));
    json.push_str(&format!("    \"events_per_run\": {events_per_run}\n"));
    json.push_str("  },\n");
    json.push_str("  \"faults\": {\n");
    json.push_str("    \"policy\": \"sp_1024\",\n");
    json.push_str("    \"plan\": \"crash=n1@3600s (inert)\",\n");
    json.push_str(&format!(
        "    \"disabled_ms_per_run\": {:.3},\n",
        untraced.secs * 1e3
    ));
    json.push_str(&format!(
        "    \"armed_ms_per_run\": {:.3},\n",
        faulted_secs * 1e3
    ));
    json.push_str(&format!(
        "    \"overhead_pct\": {:.1}\n",
        fault_overhead * 100.0
    ));
    json.push_str("  },\n");
    // The bounded worst-K recorder on the cluster cell. The
    // `flight_overhead_pct` leaf is the perf gate's absolute-ceiling
    // cell (fresh value must stay under 5, whatever the baseline says).
    json.push_str("  \"flight\": {\n");
    json.push_str("    \"policy\": \"sp_1024\",\n");
    json.push_str(&format!("    \"keep\": {FLIGHT_KEEP},\n"));
    json.push_str(&format!(
        "    \"untraced_ms_per_run\": {:.3},\n",
        flight_untraced_secs * 1e3
    ));
    json.push_str(&format!(
        "    \"recording_ms_per_run\": {:.3},\n",
        flight_secs * 1e3
    ));
    json.push_str(&format!(
        "    \"retained_events\": {flight_retained_events},\n"
    ));
    json.push_str(&format!(
        "    \"flight_overhead_pct\": {:.1}\n",
        flight_overhead * 100.0
    ));
    json.push_str("  },\n");
    // The bounded region-heat accumulator on the same cluster cell,
    // in its default `--heat-out` configuration (wire tracking off).
    // `heat_overhead_pct` is the perf gate's second absolute-ceiling
    // cell.
    json.push_str("  \"heat\": {\n");
    json.push_str("    \"policy\": \"sp_1024\",\n");
    json.push_str("    \"region_pages\": 64,\n");
    json.push_str(&format!(
        "    \"untraced_ms_per_run\": {:.3},\n",
        heat_untraced_secs * 1e3
    ));
    json.push_str(&format!(
        "    \"recording_ms_per_run\": {:.3},\n",
        heat_secs * 1e3
    ));
    json.push_str(&format!("    \"regions\": {heat_regions},\n"));
    json.push_str(&format!(
        "    \"heat_overhead_pct\": {:.1}\n",
        heat_overhead * 100.0
    ));
    json.push_str("  },\n");
    // Parallel wall-clocks are environment facts — they track the host
    // core count — so `jobs`, `jobs_secs` and `speedup` are reported
    // but not gated (see gms-cli's INFORMATIONAL_CELLS). Only the
    // serial cell is comparable across hosts.
    json.push_str("  \"sweep\": {\n");
    json.push_str("    \"cells\": 21,\n");
    json.push_str(&format!("    \"serial_secs\": {serial_secs:.3},\n"));
    json.push_str(&format!("    \"jobs\": {parallel_jobs},\n"));
    json.push_str(&format!("    \"jobs_secs\": {parallel_secs:.3},\n"));
    json.push_str(&format!(
        "    \"speedup\": {:.3}\n",
        serial_secs / parallel_secs
    ));
    json.push_str("  },\n");
    json.push_str("  \"cluster\": {\n");
    json.push_str(&format!("    \"nodes\": {CLUSTER_NODES},\n"));
    json.push_str(&format!("    \"active\": {CLUSTER_ACTIVE},\n"));
    json.push_str("    \"policy\": \"sp_1024\",\n");
    json.push_str(&format!("    \"ms_per_run\": {:.3},\n", cluster_secs * 1e3));
    json.push_str(&format!(
        "    \"refs_per_sec\": {:.0},\n",
        cluster_refs as f64 / cluster_secs
    ));
    json.push_str(&format!(
        "    \"wire_utilization\": {:.4},\n",
        cluster_warm.net.wire_utilization
    ));
    // Simulated-time statistics, disjoint from the host wall-clock
    // `ms_per_run` above: the cluster's simulated makespan, and total
    // queueing delay summed over every (node, resource) pair — a
    // cross-resource sum, so it legitimately dwarfs the makespan.
    json.push_str(&format!(
        "    \"sim_makespan_ms\": {:.3},\n",
        cluster_warm.makespan.as_millis_f64()
    ));
    json.push_str(&format!(
        "    \"sim_queue_delay_ms\": {:.3}\n",
        cluster_warm.net.queue_delay.as_millis_f64()
    ));
    json.push_str("  },\n");
    // The crash-survivable cluster cell. Wall-clock leaves are
    // informational (host-dependent); `replica_writes` and the
    // simulated makespan are deterministic and gated normally.
    json.push_str("  \"replication\": {\n");
    json.push_str(&format!("    \"nodes\": {CLUSTER_NODES},\n"));
    json.push_str(&format!("    \"active\": {CLUSTER_ACTIVE},\n"));
    json.push_str(&format!("    \"replicas\": {REPLICAS},\n"));
    json.push_str("    \"policy\": \"sp_1024\",\n");
    json.push_str(&format!(
        "    \"replicated_ms_per_run\": {:.3},\n",
        replicated_secs * 1e3
    ));
    json.push_str(&format!(
        "    \"replication_overhead_pct\": {:.1},\n",
        (replicated_secs / cluster_secs - 1.0) * 100.0
    ));
    json.push_str(&format!("    \"replica_writes\": {replica_writes},\n"));
    json.push_str(&format!(
        "    \"sim_makespan_ms\": {:.3}\n",
        replicated_warm.makespan.as_millis_f64()
    ));
    json.push_str("  },\n");
    json.push_str("  \"cluster_scaling\": {\n");
    json.push_str(&format!("    \"nodes\": {BIG_NODES},\n"));
    json.push_str(&format!("    \"active\": {BIG_ACTIVE},\n"));
    json.push_str("    \"policy\": \"sp_1024\",\n");
    json.push_str(&format!(
        "    \"serial_ms_per_run\": {:.3},\n",
        big_serial_secs * 1e3
    ));
    json.push_str(&format!(
        "    \"wire_utilization\": {:.4}\n",
        big_warm.net.wire_utilization
    ));
    json.push_str("  }\n}\n");
    let path = std::env::var_os("GMS_BENCH_OUT").map_or_else(
        || std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_engine.json"),
        std::path::PathBuf::from,
    );
    std::fs::write(&path, json).expect("write bench JSON");
    println!("[json: {}]", path.display());
}
