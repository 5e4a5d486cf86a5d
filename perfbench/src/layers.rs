//! The traced run: per-layer metrics, measured from outside.
//!
//! Spans (name, start, end, parent, operation id) are recorded in memory
//! around the benchmark's own calls into each layer's public functions
//! and written out when the run ends. A layer's self time is its span
//! time minus what its child spans cover. The call streams the replays
//! feed each layer are captured once per seed with `MemoryRecorder`.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt::Write as _;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::Instant;

use gms_cluster::{GetPageOutcome, Gms};
use gms_core::{
    cluster_summary_json, run_summary_json, ClusterReport, ClusterSim, PolicyEngine, PolicyEvent,
    RunReport, SimConfig, Simulator,
};
use gms_mem::{Lru, PageId, ReplacementPolicy, SubpageIndex};
use gms_net::{ClusterNetwork, NetResource, TransferPlan};
use gms_obs::{
    heat_json, metrics_json, perfetto_trace, Event, FaultClass, FlightRecorder, HeatMap, JsonValue,
    MemoryRecorder, NoopRecorder, Recorder, TimeSeriesRecorder,
};
use gms_trace::synth::LAYOUT_BASE;
use gms_trace::{MaterializedTrace, TraceSource};
use gms_units::{Bytes, Duration};

use crate::stats::median;
use crate::workload::{self, chaos_cell, input_rng, prepare, Kind, Op, Output, Prepared, POLICIES};
use crate::{metric, scratch_root, Args, Metric, Tally};

/// Which end-to-end metric each layer metric should move, on which
/// workload. Printed beside the traced run's figures.
const PREDICTIONS: [(&str, &str); 10] = [
    (
        "trace.",
        "setup_s on paper_grid; wall_s on shared_cluster and chaos_artifacts",
    ),
    (
        "engine.",
        "faults_per_s and wall_s on paper_grid and shared_cluster",
    ),
    ("policy.", "wall_s and sim_wait_mean_us on paper_grid"),
    ("mem.", "sim_time_s and wall_s on paper_grid"),
    (
        "net.",
        "wall_s and sim_wait_mean_us on shared_cluster; sim_disk_frac on chaos_artifacts",
    ),
    (
        "gms.",
        "wall_s on shared_cluster; sim_disk_frac and sim_wait_mean_us on chaos_artifacts",
    ),
    (
        "obs.",
        "wall_s and op_ms_tail on chaos_artifacts; nothing on the other two",
    ),
    ("cli.", "wall_s on chaos_artifacts"),
    (
        "sim_disk_frac",
        "itself end to end; kept here because it is 0 on every workload at this commit",
    ),
    ("", "a check on the benchmark, not a prediction"),
];

struct Span {
    name: &'static str,
    start: f64,
    end: f64,
    parent: Option<usize>,
    op: usize,
}

/// In-memory span log.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: usize,
}

impl Tracer {
    fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span.
    fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let idx = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end = self.now();
        out
    }

    /// Seconds of the most recently closed span named `name`.
    fn last(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .rev()
            .find(|s| s.name == name)
            .map_or(0.0, |s| s.end - s.start)
    }

    /// Self time per span name: each span's duration minus the time its
    /// children cover (children never overlap: the run is one thread).
    fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut covered = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.end - s.start;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(covered) {
            *out.entry(s.name).or_insert(0.0) += s.end - s.start - c;
        }
        out
    }

    fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::from("op\tname\tstart_s\tend_s\tparent\n");
        for s in &self.spans {
            let parent = s.parent.map_or("-".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{}\t{}\t{:.9}\t{:.9}\t{parent}",
                s.op, s.name, s.start, s.end
            );
        }
        std::fs::write(path, out)
    }
}

/// One engine-level simulation of the workload, as the layers see it.
struct EngineRun<'a> {
    config: &'a SimConfig,
    /// Footprint of each active node's trace.
    footprints: Vec<Bytes>,
    /// The simulated reports the run must reproduce.
    reports: Vec<&'a RunReport>,
    /// The whole report of a cluster run.
    cluster: Option<&'a ClusterReport>,
    op: usize,
}

/// Runs `run` with `rec` attached, returning its node reports.
fn record<R: Recorder + Send>(p: &Prepared, run: &EngineRun<'_>, rec: &mut R) -> Vec<RunReport> {
    let apps = match &p.ops[run.op] {
        Op::Single { trace, config } => {
            let t = &p.traces[*trace];
            let mut cursor = t.trace.cursor();
            return vec![Simulator::new(config.clone()).run_trace_recorded(
                &mut cursor,
                t.footprint,
                t.base,
                rec,
            )];
        }
        Op::Cluster { apps, .. } => apps,
        Op::Cli { .. } => &p.library[chaos_cell(p, run.op)].1,
    };
    ClusterSim::new(run.config.clone())
        .run_recorded(apps, rec)
        .nodes
}

/// The engine-level simulations behind a pass: every engine operation,
/// or for chaos_artifacts the library run of each CLI cell.
fn engine_runs(p: &Prepared) -> Vec<EngineRun<'_>> {
    let mut runs = Vec::new();
    for (op, out) in p.reference.iter().enumerate() {
        let run = match (&p.ops[op], out) {
            (Op::Single { trace, config }, Output::Run(r)) => EngineRun {
                config,
                footprints: vec![p.traces[*trace].footprint],
                reports: vec![&**r],
                cluster: None,
                op,
            },
            (Op::Cluster { config, apps }, Output::Cluster(c)) => EngineRun {
                config,
                footprints: apps.iter().map(|a| a.footprint()).collect(),
                reports: c.nodes.iter().collect(),
                cluster: Some(c),
                op,
            },
            (
                Op::Cli {
                    summary: Some(_), ..
                },
                _,
            ) => {
                let (config, apps, c) = &p.library[chaos_cell(p, op)];
                EngineRun {
                    config,
                    footprints: apps.iter().map(|a| a.footprint()).collect(),
                    reports: c.nodes.iter().collect(),
                    cluster: Some(c),
                    op,
                }
            }
            _ => continue,
        };
        runs.push(run);
    }
    runs
}

/// Accumulated per-layer figures.
#[derive(Default)]
struct Acc {
    values: BTreeMap<String, f64>,
    mismatches: Vec<String>,
}

impl Acc {
    fn add(&mut self, name: &str, v: f64) {
        *self.values.entry(name.to_owned()).or_insert(0.0) += v;
    }

    fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    fn expect(&mut self, what: &str, op: usize, replay: u64, run: u64) {
        if replay != run {
            self.mismatches
                .push(format!("op {op}: {what} replay {replay} vs run {run}"));
        }
    }
}

/// The node-local page id namespaced the way the engine hands it to the
/// GMS: node `i`'s pages sit at `i << 40`.
fn global_page(node: usize, page: u64) -> PageId {
    PageId::new(((node as u64) << 40) + page)
}

/// Replays the whole-page faults into a fresh policy engine per node:
/// `observe` then `plan_fault`. Touch observations are not in the event
/// stream, so adaptive engines plan from fault history alone here.
fn replay_policy(t: &mut Tracer, acc: &mut Acc, run: &EngineRun<'_>, events: &[Event]) {
    let policy = run.config.policy;
    let geom = policy.geometry(run.config.page_size);
    let mut engines: HashMap<usize, Box<dyn PolicyEngine>> = HashMap::new();
    let mut plans = 0u64;
    t.span("policy.replay", |_| {
        for e in events {
            if let Event::Fault {
                node,
                page,
                subpage,
                class: FaultClass::Remote,
                at,
                ..
            } = *e
            {
                let engine = engines
                    .entry(node.as_usize())
                    .or_insert_with(|| policy.engine());
                let subpage = SubpageIndex::new(subpage);
                engine.observe(PolicyEvent::Fault { page, subpage, at });
                black_box(engine.plan_fault(geom, subpage, 0.0));
                plans += 1;
            }
        }
    });
    acc.add("policy.plans", plans as f64);
    acc.add("policy.replay_s", t.last("policy.replay"));
    let remote: u64 = run.reports.iter().map(|r| r.faults.remote).sum();
    acc.expect("policy plans", run.op, plans, remote);
}

/// Replays page faults into one `Lru` per node sized like the run's
/// memory, evicting when full. The event stream carries no per-reference
/// touches, so the replay picks other victims than the run and its
/// eviction count is not expected to match; a refault of a page the
/// replay still holds is replayed as a touch.
fn replay_lru(t: &mut Tracer, acc: &mut Acc, run: &EngineRun<'_>, events: &[Event]) {
    let page_bytes = run.config.page_size.bytes();
    let frames: Vec<u64> = run
        .footprints
        .iter()
        .map(|f| run.config.memory.frames(f.div_ceil(page_bytes)))
        .collect();
    let mut lrus: Vec<(Lru, HashSet<u64>)> = frames
        .iter()
        .map(|_| (Lru::new(), HashSet::new()))
        .collect();
    let mut ops = 0u64;
    t.span("mem.replay", |_| {
        for e in events {
            if let Event::Fault {
                node,
                page,
                class: FaultClass::Remote | FaultClass::Disk,
                ..
            } = *e
            {
                let n = node.as_usize();
                let (lru, resident) = &mut lrus[n];
                ops += 1;
                if resident.contains(&page) {
                    lru.touch(PageId::new(page));
                    continue;
                }
                if lru.len() as u64 >= frames[n] {
                    if let Some(victim) = lru.evict() {
                        resident.remove(&victim.get());
                        ops += 1;
                    }
                }
                lru.insert(PageId::new(page));
                resident.insert(page);
            }
        }
    });
    acc.add("mem.replay_ops", ops as f64);
    acc.add("mem.replay_s", t.last("mem.replay"));
}

/// Replays getpages and putpages into a fresh `ClusterNetwork`. Only
/// the fault and write-back transfers are replayed (no retries, repair
/// or replica copies), so busy times need not match the run's.
fn replay_net(t: &mut Tracer, acc: &mut Acc, run: &EngineRun<'_>, events: &[Event]) {
    let policy = run.config.policy;
    let geom = policy.geometry(run.config.page_size);
    let page_bytes = run.config.page_size.bytes();
    let mut net = ClusterNetwork::new(run.config.net, run.config.cluster_nodes);
    let mut faulted: HashMap<(usize, u64), u8> = HashMap::new();
    let replayed = t.span("net.replay", |_| {
        catch_unwind(AssertUnwindSafe(|| {
            for e in events {
                match *e {
                    Event::Fault {
                        node,
                        page,
                        subpage,
                        ..
                    } => {
                        faulted.insert((node.as_usize(), page), subpage);
                    }
                    Event::GetPage {
                        node,
                        server,
                        page,
                        at,
                    } => {
                        let sub = SubpageIndex::new(
                            faulted.get(&(node.as_usize(), page)).copied().unwrap_or(0),
                        );
                        let plan = policy.plan_fault(geom, sub, 0.0);
                        let tplan =
                            TransferPlan::new(plan.message_sizes(geom), policy.recv_overhead());
                        black_box(net.fault(at, node, server, &tplan));
                    }
                    Event::PutPage {
                        node,
                        custodian,
                        at,
                        ..
                    } => {
                        black_box(net.send(at, node, custodian, page_bytes));
                    }
                    _ => {}
                }
            }
        }))
        .is_ok()
    });
    if !replayed {
        acc.mismatches
            .push(format!("op {}: the network replay panicked", run.op));
    }
    acc.add("net.fault_replay_s", t.last("net.replay"));
    if run.reports.len() == 1 {
        // A single-node report carries busy times but no queueing; the
        // replay network supplies the waits.
        for (i, r) in NetResource::ALL.iter().enumerate() {
            let waited: Duration = (0..net.n_nodes())
                .map(|n| net.node(gms_units::NodeId::new(n)).waited(*r))
                .sum();
            acc.add(
                &format!("net.waited_ms.{}", RESOURCE_NAMES[i]),
                waited.as_millis_f64(),
            );
        }
    }
}

/// Metric names of the five network resources, in `NetResource::ALL`
/// order.
const RESOURCE_NAMES: [&str; 5] = ["cpu", "dma_rx", "dma_tx", "wire_in", "wire_out"];

/// Replays getpages, putpages and replica writes into a fresh `Gms`
/// sized and warmed like the run's. Crashes and repair are not in the
/// replayed stream, so fault-injected runs diverge after the first crash.
fn replay_gms(t: &mut Tracer, acc: &mut Acc, run: &EngineRun<'_>, events: &[Event]) {
    let cfg = run.config;
    let geom = cfg.policy.geometry(cfg.page_size);
    let page_bytes = geom.page_size().bytes();
    let active = run.footprints.len() as u32;
    let pages: Vec<u64> = run
        .footprints
        .iter()
        .map(|f| f.div_ceil(page_bytes))
        .collect();
    let per_idle = pages
        .iter()
        .sum::<u64>()
        .div_ceil(u64::from(cfg.cluster_nodes - active))
        .max(1)
        * 2
        * u64::from(cfg.replication.replicas.max(1));
    let mut gms = Gms::with_replication(cfg.cluster_nodes, active, per_idle, cfg.replication);
    let base_page = geom.page_of(LAYOUT_BASE).get();
    for (i, n) in pages.iter().enumerate() {
        gms.warm_cache((0..*n).map(|k| global_page(i, base_page + k)));
    }
    let (mut get_s, mut put_s, mut hits) = (0.0, 0.0, 0u64);
    let replayed = t.span("gms.replay", |_| {
        catch_unwind(AssertUnwindSafe(|| {
            for e in events {
                let start = Instant::now();
                match *e {
                    Event::GetPage { node, page, .. } => {
                        if let GetPageOutcome::RemoteHit { .. } =
                            gms.getpage(node, global_page(node.as_usize(), page))
                        {
                            hits += 1;
                        }
                        get_s += start.elapsed().as_secs_f64();
                    }
                    Event::PutPage {
                        node, page, dirty, ..
                    } => {
                        black_box(gms.try_putpage(node, global_page(node.as_usize(), page), dirty));
                        put_s += start.elapsed().as_secs_f64();
                    }
                    Event::ReplicaWrite { node, page, .. } => {
                        black_box(gms.replicate(node, global_page(node.as_usize(), page), false));
                        put_s += start.elapsed().as_secs_f64();
                    }
                    _ => {}
                }
            }
        }))
        .is_ok()
    });
    if !replayed {
        acc.mismatches
            .push(format!("op {}: the GMS replay panicked", run.op));
    }
    acc.add("gms.getpage_replay_s", get_s);
    acc.add("gms.putpage_replay_s", put_s);
    let run_hits = run.reports.first().map_or(0, |r| r.gms.remote_hits);
    acc.expect("gms remote hits", run.op, hits, run_hits);
}

/// Folds the report counters of one engine run into the accumulator.
fn report_counters(acc: &mut Acc, run: &EngineRun<'_>) {
    for r in &run.reports {
        acc.add("mem.faults.remote", r.faults.remote as f64);
        acc.add("mem.faults.disk", r.faults.disk as f64);
        acc.add("mem.faults.lazy", r.faults.lazy_subpage as f64);
        acc.add("mem.faults.degraded", r.faults.degraded as f64);
        acc.add("mem.evictions", r.evictions as f64);
        acc.add("mem.dirty_evictions", r.dirty_evictions as f64);
        acc.add("mem.wasted_transfers", r.wasted_transfers as f64);
        acc.add("policy.prefetched_subpages", r.prefetched_subpages as f64);
        acc.add(
            "policy.prefetched_bytes",
            (r.prefetched_subpages
                * run
                    .config
                    .policy
                    .geometry(run.config.page_size)
                    .subpage_size()
                    .bytes()
                    .get()) as f64,
        );
        acc.add(
            "policy.mispredicted_bytes",
            r.mispredicted_prefetch_bytes as f64,
        );
        acc.add("net.timeouts", r.timeouts as f64);
        acc.add("net.retries", r.retries as f64);
        acc.add("gms.failovers", r.failovers as f64);
        acc.add("sim.faults", r.faults.total() as f64);
        acc.add("sim.disk_fallbacks", r.fell_back_to_disk as f64);
    }
    // GMS statistics and network figures are cluster-wide: count once.
    let first = run.reports[0];
    let gms = first.gms;
    acc.add("gms.remote_hits", gms.remote_hits as f64);
    acc.add("gms.getpages", (gms.remote_hits + gms.misses) as f64);
    acc.add("gms.replica_writes", gms.replica_writes as f64);
    acc.add("gms.pages_re_replicated", gms.pages_re_replicated as f64);
    acc.add("gms.directory_rebuilds", gms.directory_rebuilds as f64);
    acc.add("gms.pages_lost", gms.pages_lost_to_crash as f64);
    acc.add("gms.vulnerable_ns", gms.window_of_vulnerability_ns as f64);
    let span = run
        .reports
        .iter()
        .map(|r| r.total_time)
        .max()
        .unwrap_or(Duration::ZERO);
    acc.add("sim.time_ns", span.as_nanos() as f64);
    acc.add("sim.runs", 1.0);
    match run.cluster {
        Some(c) => cluster_net(acc, c),
        None => {
            let b = first.net_busy;
            let busy = [
                b.req_cpu + b.srv_cpu,
                b.req_dma_in,
                b.req_dma_out + b.srv_dma,
                b.wire_in,
                b.wire_out,
            ];
            for (name, d) in RESOURCE_NAMES.iter().zip(busy) {
                acc.add(&format!("net.busy_ms.{name}"), d.as_millis_f64());
            }
            acc.add("net.wire_utilization_sum", first.wire_utilization());
        }
    }
}

fn cluster_net(acc: &mut Acc, c: &ClusterReport) {
    for node in &c.per_node {
        for (i, r) in NetResource::ALL.iter().enumerate() {
            acc.add(
                &format!("net.busy_ms.{}", RESOURCE_NAMES[i]),
                node.busy(*r).as_millis_f64(),
            );
            acc.add(
                &format!("net.waited_ms.{}", RESOURCE_NAMES[i]),
                node.waited(*r).as_millis_f64(),
            );
        }
    }
    acc.add("net.wire_utilization_sum", c.net.wire_utilization);
}

/// The traced run: set-up once, untraced and traced passes in pairs for
/// `--seconds`, then every engine run of a pass recorded, replayed into
/// each layer and exported.
pub fn traced(args: &Args) -> Result<(Tally, Vec<Metric>), String> {
    let mut t = Tracer::new();
    let mut acc = Acc::default();
    let p = t.span("setup", |_| prepare(args.kind, args.seed, &scratch_root()))?;
    let dir = scratch_root().join(format!(
        "traced-{}-{}",
        args.kind.name(),
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let result = traced_in(args, &p, &dir, &mut t, &mut acc);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn traced_in(
    args: &Args,
    p: &Prepared,
    dir: &Path,
    t: &mut Tracer,
    acc: &mut Acc,
) -> Result<(Tally, Vec<Metric>), String> {
    // gms-trace: synthesis and decode of every trace the workload uses.
    let mut traces: Vec<MaterializedTrace> = Vec::new();
    t.span("trace.synth", |_| match args.kind {
        Kind::PaperGrid => {
            for app in workload::grid_apps() {
                traces.push(MaterializedTrace::capture(&mut *app.source()));
            }
            traces.push(workload::synth_trace(&mut input_rng(args.seed)).trace);
        }
        _ => {
            for op in &p.ops {
                if let Op::Cluster { apps, .. } = op {
                    traces.extend(
                        apps.iter()
                            .map(|a| MaterializedTrace::capture(&mut *a.source())),
                    );
                }
            }
            for (_, apps, _) in &p.library {
                traces.extend(
                    apps.iter()
                        .map(|a| MaterializedTrace::capture(&mut *a.source())),
                );
            }
        }
    });
    let (mut refs, mut runs) = (0u64, 0u64);
    t.span("trace.decode", |_| {
        for trace in &traces {
            let mut cursor = trace.cursor();
            while let Some(run) = cursor.next_run() {
                refs += run.count();
                runs += 1;
            }
        }
    });
    drop(traces);

    // Untraced and traced passes in pairs until `--seconds` is spent; the
    // tracing overhead is the median difference. The first traced pass's
    // spans feed the per-layer figures.
    let mut tally = Tally::default();
    let mut overheads = Vec::new();
    let mut untraced_op_s = vec![0.0; p.ops.len()];
    let start = Instant::now();
    while overheads.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        let (untraced, op_s) = tally.pass(p);
        for (sum, s) in untraced_op_s.iter_mut().zip(op_s) {
            *sum += s;
        }
        let mut discarded = Tracer::new();
        let tracer = if overheads.is_empty() {
            &mut *t
        } else {
            &mut discarded
        };
        let traced = Instant::now();
        for i in 0..p.ops.len() {
            tracer.op = i;
            let layer = match &p.ops[i] {
                Op::Single { .. } | Op::Cluster { .. } => "engine.run",
                Op::Cli {
                    summary: Some(_), ..
                } => "cli.execute",
                Op::Cli { .. } => "cli.check_trace",
            };
            tracer.span("op", |t| t.span(layer, |_| tally.op(p, i)));
        }
        overheads.push(traced.elapsed().as_secs_f64() - untraced);
    }
    // Engine time per operation: its mean over the untraced passes, or for
    // a CLI cell the library run below.
    let pairs = overheads.len() as f64;
    let mut engine_s = 0.0;
    let mut per_policy: BTreeMap<String, (f64, u64)> = BTreeMap::new();
    let mut library_equivalent = 0.0;
    for run in engine_runs(p) {
        t.op = run.op;
        let is_cli = matches!(p.ops[run.op], Op::Cli { .. });
        // The silent run right before the recorded ones, so recorder
        // costs are differences over seconds of the same machine state.
        t.span("engine.baseline", |_| {
            black_box(record(p, &run, &mut NoopRecorder))
        });
        let plain = t.last("engine.baseline");
        let secs = if is_cli {
            plain
        } else {
            untraced_op_s[run.op] / pairs
        };
        engine_s += secs;
        let faults: u64 = run.reports.iter().map(|r| r.faults.total()).sum();
        let entry = per_policy.entry(run.config.policy.label()).or_default();
        entry.0 += secs;
        entry.1 += faults;

        let mut rec = MemoryRecorder::new();
        let recorded = t.span("obs.record.memory", |_| record(p, &run, &mut rec));
        let mut heat = HeatMap::new();
        t.span("obs.record.heat", |_| black_box(record(p, &run, &mut heat)));
        let mut flight = FlightRecorder::new(4);
        t.span("obs.record.flight", |_| {
            black_box(record(p, &run, &mut flight))
        });
        for (name, span) in [
            ("memory", "obs.record.memory"),
            ("heat", "obs.record.heat"),
            ("flight", "obs.record.flight"),
        ] {
            acc.add(&format!("obs.record_s.{name}"), t.last(span) - plain);
        }
        if recorded.iter().ne(run.reports.iter().copied()) {
            acc.mismatches.push(format!(
                "op {}: the recorded run differs from the silent one",
                run.op
            ));
        }
        let events: Vec<Event> = rec.iter().copied().collect();
        drop(rec);
        acc.add("obs.events", events.len() as f64);

        replay_policy(t, acc, &run, &events);
        replay_lru(t, acc, &run, &events);
        replay_net(t, acc, &run, &events);
        replay_gms(t, acc, &run, &events);
        report_counters(acc, &run);

        let mut hm = HeatMap::new();
        t.span("obs.replay.heat", |_| {
            events.iter().for_each(|e| hm.record(*e))
        });
        let mut fr = FlightRecorder::new(4);
        t.span("obs.replay.flight", |_| {
            events.iter().for_each(|e| fr.record(*e))
        });
        let mut ts = TimeSeriesRecorder::new(Duration::from_millis(1));
        t.span("obs.replay.timeseries", |_| {
            events.iter().for_each(|e| ts.record(*e))
        });
        black_box((&fr, &ts));

        let perfetto = t.span("obs.export.perfetto", |_| perfetto_trace(events.iter()));
        let metrics = t.span("obs.export.metrics", |_| metrics_json(&ts));
        let heat_doc = t.span("obs.export.heat", |_| heat_json(&hm));
        let summary = t.span("obs.export.summary", |_| match run.cluster {
            Some(c) => cluster_summary_json(c),
            None => run_summary_json(run.reports[0]),
        });
        if is_cli {
            // The library-level work a CLI `cluster` command also does.
            library_equivalent += [
                "obs.record.memory",
                "obs.replay.timeseries",
                "obs.replay.heat",
                "obs.export.perfetto",
                "obs.export.metrics",
                "obs.export.heat",
                "obs.export.summary",
            ]
            .iter()
            .map(|s| t.last(s))
            .sum::<f64>();
        }

        // JSON parsing, as check-trace does it. The Perfetto and metrics
        // documents are parsed only where the workload's own CLI parses
        // them: the parser is quadratic, and paper_grid's documents run to
        // megabytes.
        let mut docs = vec![&summary, &heat_doc];
        if is_cli {
            docs.extend([&perfetto, &metrics]);
        }
        for doc in docs {
            acc.add("obs.json_parse_mb", doc.len() as f64 / 1e6);
            let parsed = t.span("obs.json_parse", |_| JsonValue::parse(doc).is_ok());
            if !parsed {
                acc.mismatches.push(format!(
                    "op {}: an exported document does not parse",
                    run.op
                ));
            }
            library_equivalent += t.last("obs.json_parse");
        }

        // Where the workload makes no CLI call, the CLI layer is measured
        // by check-trace on the workload's own summary and heat documents.
        if !is_cli {
            let (s, h) = (dir.join("summary.json"), dir.join("heat.json"));
            std::fs::write(&s, &summary).map_err(|e| e.to_string())?;
            std::fs::write(&h, &heat_doc).map_err(|e| e.to_string())?;
            let argv: Vec<String> = [
                "check-trace",
                "--summary",
                &s.display().to_string(),
                "--heat",
                &h.display().to_string(),
            ]
            .map(str::to_owned)
            .to_vec();
            let ok = t.span("cli.check_trace", |_| gms_cli::execute(&argv));
            if ok.is_err() {
                acc.mismatches.push(format!(
                    "op {}: check-trace rejected the workload's documents",
                    run.op
                ));
            }
        }
    }

    let self_s = t.self_times();
    let spans_path = scratch_root().join(format!("spans-{}-{}.tsv", args.kind.name(), args.seed));
    t.write(&spans_path)
        .map_err(|e| format!("cannot write {}: {e}", spans_path.display()))?;
    let s = |name: &str| self_s.get(name).copied().unwrap_or(0.0);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };

    let mut m = vec![
        metric("trace.synth_s", s("trace.synth"), "s"),
        metric("trace.decode_s", s("trace.decode"), "s"),
        metric("trace.refs", refs as f64, "count"),
        metric("trace.runs", runs as f64, "count"),
        metric("engine.run_s", engine_s, "s"),
    ];
    for label in POLICIES {
        let (secs, faults) = per_policy.get(label).copied().unwrap_or_default();
        m.push(metric(
            format!("engine.ns_per_fault.{label}"),
            ratio(secs * 1e9, faults as f64),
            "ns/fault",
        ));
    }
    let prefetched = acc.get("policy.prefetched_bytes");
    m.extend([
        metric(
            "policy.plan_fault_ns",
            ratio(acc.get("policy.replay_s") * 1e9, acc.get("policy.plans")),
            "ns",
        ),
        metric(
            "policy.prefetched_subpages",
            acc.get("policy.prefetched_subpages"),
            "count",
        ),
        metric(
            "policy.prefetch_useful_frac",
            if prefetched > 0.0 {
                1.0 - acc.get("policy.mispredicted_bytes") / prefetched
            } else {
                0.0
            },
            "frac",
        ),
    ]);
    for kind in ["remote", "disk", "lazy", "degraded"] {
        let name = format!("mem.faults.{kind}");
        m.push(metric(name.clone(), acc.get(&name), "count"));
    }
    m.extend([
        metric("mem.evictions", acc.get("mem.evictions"), "count"),
        metric(
            "mem.dirty_frac",
            ratio(acc.get("mem.dirty_evictions"), acc.get("mem.evictions")),
            "frac",
        ),
        metric(
            "mem.wasted_transfers",
            acc.get("mem.wasted_transfers"),
            "count",
        ),
        metric(
            "mem.replacement_replay_ns",
            ratio(acc.get("mem.replay_s") * 1e9, acc.get("mem.replay_ops")),
            "ns",
        ),
        metric("net.fault_replay_s", acc.get("net.fault_replay_s"), "s"),
    ]);
    for r in RESOURCE_NAMES {
        let name = format!("net.busy_ms.{r}");
        m.push(metric(name.clone(), acc.get(&name), "sim_ms"));
    }
    // Outbound wire time is booked together with the receiver's inbound
    // wire, which carries the queueing, so its own wait is always zero.
    for r in &RESOURCE_NAMES[..4] {
        let name = format!("net.waited_ms.{r}");
        m.push(metric(name.clone(), acc.get(&name), "sim_ms"));
    }
    let runs_n = acc.get("sim.runs");
    let retries = acc.get("net.retries");
    m.extend([
        metric(
            "net.wire_utilization",
            ratio(acc.get("net.wire_utilization_sum"), runs_n),
            "frac",
        ),
        metric("net.timeouts", acc.get("net.timeouts"), "count"),
        metric("net.retries", retries, "count"),
        metric(
            "net.retry_frac",
            ratio(retries, acc.get("gms.getpages") + retries),
            "frac",
        ),
        metric("gms.getpage_replay_s", acc.get("gms.getpage_replay_s"), "s"),
        metric("gms.putpage_replay_s", acc.get("gms.putpage_replay_s"), "s"),
        metric(
            "gms.hit_frac",
            ratio(acc.get("gms.remote_hits"), acc.get("gms.getpages")),
            "frac",
        ),
        metric("gms.replica_writes", acc.get("gms.replica_writes"), "count"),
        metric(
            "gms.pages_re_replicated",
            acc.get("gms.pages_re_replicated"),
            "count",
        ),
        metric(
            "gms.directory_rebuilds",
            acc.get("gms.directory_rebuilds"),
            "count",
        ),
        metric("gms.failovers", acc.get("gms.failovers"), "count"),
        metric("gms.pages_lost", acc.get("gms.pages_lost"), "count"),
        metric(
            "gms.vulnerable_frac",
            ratio(acc.get("gms.vulnerable_ns"), acc.get("sim.time_ns")),
            "frac",
        ),
        metric("obs.events", acc.get("obs.events"), "count"),
    ]);
    for name in ["memory", "heat", "flight"] {
        let key = format!("obs.record_s.{name}");
        m.push(metric(key.clone(), acc.get(&key), "s"));
    }
    for name in ["heat", "flight", "timeseries"] {
        m.push(metric(
            format!("obs.replay_s.{name}"),
            s(&format!("obs.replay.{name}")),
            "s",
        ));
    }
    for name in ["perfetto", "metrics", "heat", "summary"] {
        m.push(metric(
            format!("obs.export_s.{name}"),
            s(&format!("obs.export.{name}")),
            "s",
        ));
    }
    let cli = s("cli.execute") + s("cli.check_trace");
    m.extend([
        metric("obs.json_parse_s", s("obs.json_parse"), "s"),
        metric("obs.json_parse_mb", acc.get("obs.json_parse_mb"), "MB"),
        metric("cli.execute_s", cli, "s"),
        metric("cli.check_trace_s", s("cli.check_trace"), "s"),
        metric("cli.own_s", cli - library_equivalent, "s"),
        metric(
            "sim_disk_frac",
            ratio(acc.get("sim.disk_fallbacks"), acc.get("sim.faults")),
            "frac",
        ),
        metric("bench.trace_overhead_s", median(&overheads), "s"),
        metric(
            "bench.replay_mismatches",
            acc.mismatches.len() as f64,
            "count",
        ),
    ]);

    println!(
        "{}: traced run, seed {} | {} untraced and traced pass pairs | spans in {}",
        args.kind.name(),
        args.seed,
        overheads.len(),
        spans_path.display()
    );
    for mismatch in &acc.mismatches {
        println!("  replay differs from the run: {mismatch}");
    }
    for x in &m {
        let moves = PREDICTIONS
            .iter()
            .find(|(prefix, _)| x.name.starts_with(prefix))
            .map_or("", |(_, moves)| moves);
        println!(
            "  {:<34} {:>18.6} {:<9} moves: {moves}",
            x.name, x.value, x.unit
        );
    }
    Ok((tally, m))
}
