//! The three workloads: inputs generated from the seed, the operations
//! of one pass, and the checks every operation's output must pass.
//!
//! An operation is one simulation: one `Simulator::run_trace`, one
//! `ClusterSim::run`, or one `gms_cli::execute`. Set-up builds the
//! inputs and runs one reference pass; every timed operation must then
//! reproduce its reference output exactly, so two passes of one seed are
//! checked to simulate identically.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

use gms_core::{
    cluster_summary_json, ClusterReport, ClusterSim, FaultPlan, FetchPolicy, MemoryConfig,
    ReplicationConfig, RunReport, SimConfig, Simulator,
};
use gms_mem::SubpageSize;
use gms_trace::apps::{self, AppProfile};
use gms_trace::synth::{Layout, PointerChase, SeqScan, WorkLoop, LAYOUT_BASE};
use gms_trace::{AccessKind, MaterializedTrace};
use gms_units::{Bytes, Duration, VirtAddr};

use crate::stats::{Fnv, Rng};

/// The workloads, by the name `--workload` takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    PaperGrid,
    SharedCluster,
    ChaosArtifacts,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::PaperGrid, Kind::SharedCluster, Kind::ChaosArtifacts];

    pub fn name(self) -> &'static str {
        match self {
            Kind::PaperGrid => "paper_grid",
            Kind::SharedCluster => "shared_cluster",
            Kind::ChaosArtifacts => "chaos_artifacts",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// The paper_grid policy axis, by label.
pub const POLICIES: [&str; 6] = [
    "p_8192",
    "sp_1024",
    "pl_1024",
    "lazy_1024",
    "leap_1024",
    "indigo_1024",
];

pub fn policy(label: &str) -> FetchPolicy {
    let s = SubpageSize::S1K;
    match label {
        "p_8192" => FetchPolicy::fullpage(),
        "sp_1024" => FetchPolicy::eager(s),
        "pl_1024" => FetchPolicy::pipelined(s),
        "lazy_1024" => FetchPolicy::lazy(s),
        "leap_1024" => FetchPolicy::leap(s),
        "indigo_1024" => FetchPolicy::indigo(s),
        other => panic!("no policy {other} in the benchmark's axis"),
    }
}

/// Scale of the paper apps in paper_grid. Full scale makes one pass take
/// tens of seconds; at this scale a pass keeps every app's phase
/// structure and takes about a second.
const GRID_SCALE: f64 = 0.2;
const MEMORIES: [MemoryConfig; 3] = [
    MemoryConfig::Full,
    MemoryConfig::Half,
    MemoryConfig::Quarter,
];

/// shared_cluster: every paper app runs on its own active node, scaled
/// so each issues about `CLUSTER_REFS` references, with a seeded ±2%
/// jitter; two idle nodes serve memory. One pass runs `CLUSTER_CELLS`
/// clusters per policy, each with its own seeded node order and scales.
const CLUSTER_REFS: f64 = 5.0e6;
const CLUSTER_IDLE: u32 = 2;
const CLUSTER_CELLS: usize = 4;
const CLUSTER_POLICIES: [&str; 2] = ["sp_1024", "pl_1024"];

/// chaos_artifacts: cells per pass, and the cell's app and scale. With
/// today's quadratic JSON parser a gdb trace at this scale (about
/// 0.18 MB of Perfetto JSON) checks in a fraction of a second. A pass
/// holds three groups of `CHAOS_CELLS` operations far apart in host time
/// (cluster runs, small checks, trace checks); an odd count puts the
/// median operation in the middle of the middle group.
const CHAOS_CELLS: u64 = 9;
const CHAOS_APP_SCALE: f64 = 0.05;
const CHAOS_NODES: u32 = 5;
const CHAOS_ACTIVE: u32 = 2;

/// A trace materialized in set-up, with what `run_trace` needs beside it.
pub struct Trace {
    pub trace: MaterializedTrace,
    pub footprint: Bytes,
    pub base: VirtAddr,
}

/// One operation of a pass.
pub enum Op {
    /// `Simulator::run_trace` over `traces[trace]`.
    Single { trace: usize, config: SimConfig },
    /// `ClusterSim::run`, which synthesizes each node's trace itself.
    Cluster {
        config: SimConfig,
        apps: Vec<AppProfile>,
    },
    /// `gms_cli::execute`. A `cluster` command must write `summary`, and
    /// a `check-trace` command must validate `checks` artifacts.
    Cli {
        argv: Vec<String>,
        summary: Option<PathBuf>,
        checks: usize,
    },
}

/// What an operation produced.
#[derive(Debug, Clone, PartialEq)]
pub enum Output {
    Run(Box<RunReport>),
    Cluster(ClusterReport),
    /// CLI stdout, plus the summary document a `cluster` command wrote.
    Text {
        stdout: String,
        summary: Option<String>,
    },
}

/// Everything set-up builds: inputs, the pass's operations and each
/// operation's reference output.
pub struct Prepared {
    pub kind: Kind,
    pub traces: Vec<Trace>,
    pub ops: Vec<Op>,
    pub reference: Vec<Output>,
    /// chaos_artifacts only: the library-level run of each CLI cell, the
    /// simulated result the CLI's summary must reproduce byte for byte.
    pub library: Vec<(SimConfig, Vec<AppProfile>, ClusterReport)>,
    /// chaos_artifacts only: the directory the CLI writes into.
    pub scratch: Option<PathBuf>,
}

impl Drop for Prepared {
    fn drop(&mut self) {
        if let Some(dir) = &self.scratch {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// The paper_grid synthetic trace: a working-set loop, a pointer chase
/// and a sequential scan over three fresh regions, each sized and seeded
/// from `rng`.
pub fn synth_trace(rng: &mut Rng) -> Trace {
    let mut layout = Layout::new();
    let ws = layout.alloc_pages("ws", 48 + rng.below(16));
    let heap = layout.alloc_pages("heap", 24 + rng.below(8));
    let scan = layout.alloc_pages("scan", 32 + rng.below(16));
    let parts = [
        MaterializedTrace::capture(
            &mut WorkLoop::builder(ws)
                .refs(300_000)
                .seed(rng.next_u64())
                .build(),
        ),
        MaterializedTrace::capture(&mut PointerChase::new(heap, 60_000, 4, rng.next_u64())),
        MaterializedTrace::capture(&mut SeqScan::passes(scan, 64, 2, AccessKind::Read)),
    ];
    let runs = parts
        .iter()
        .flat_map(|t| t.runs().iter().copied())
        .collect();
    Trace {
        trace: MaterializedTrace::from_runs(runs),
        footprint: layout.allocated(),
        base: LAYOUT_BASE,
    }
}

/// The paper apps at paper_grid's scale.
pub fn grid_apps() -> Vec<AppProfile> {
    apps::all().iter().map(|a| a.scaled(GRID_SCALE)).collect()
}

/// shared_cluster's cells: per policy, the five paper apps in a seeded
/// node order, each with its own seeded scale.
pub fn cluster_cells(rng: &mut Rng) -> Vec<(SimConfig, Vec<AppProfile>)> {
    CLUSTER_POLICIES
        .iter()
        .flat_map(|label| [label; CLUSTER_CELLS])
        .map(|label| {
            let mut node_apps: Vec<AppProfile> = apps::all()
                .iter()
                .map(|a| a.scaled(CLUSTER_REFS / a.paper_refs() as f64 * rng.range_f64(0.98, 1.02)))
                .collect();
            rng.shuffle(&mut node_apps);
            let config = SimConfig::builder()
                .policy(policy(label))
                .memory(MemoryConfig::Half)
                .cluster_nodes(node_apps.len() as u32 + CLUSTER_IDLE)
                .build();
            (config, node_apps)
        })
        .collect()
}

/// One chaos cell's fault plan: seeded message loss, a crash of one idle
/// node and a degraded window on another. Times are absolute: a cell
/// runs for about 60 ms of simulated time, while the CLI's `<pct>%` times
/// are shares of the far shorter pure-execution time. Only the nodes, the
/// loss seed and a small jitter vary with the seed; wider variation (a
/// second crash, looser times) made the simulated totals swing by more
/// than 10% between seeds.
pub fn chaos_plan(rng: &mut Rng) -> String {
    let mut idle: Vec<u32> = (CHAOS_ACTIVE..CHAOS_NODES).collect();
    rng.shuffle(&mut idle);
    let crash = 20_000 + rng.below(2_001);
    let from = 10_000 + rng.below(2_001);
    format!(
        "loss=0.01,seed={},crash=n{}@{crash}us,degrade=n{}@{from}us..{}usx4",
        rng.below(1 << 32),
        idle[0],
        idle[1],
        from + 20_000
    )
}

/// The generator every input of seed `seed` is drawn from.
pub fn input_rng(seed: u64) -> Rng {
    Rng::new(seed ^ 0x5eed_0000_0000_0000)
}

/// Builds `kind`'s inputs from `seed` and runs the reference pass.
pub fn prepare(kind: Kind, seed: u64, scratch_root: &Path) -> Result<Prepared, String> {
    let mut rng = input_rng(seed);
    let mut prepared = Prepared {
        kind,
        traces: Vec::new(),
        ops: Vec::new(),
        reference: Vec::new(),
        library: Vec::new(),
        scratch: None,
    };
    match kind {
        Kind::PaperGrid => {
            for app in grid_apps() {
                prepared.traces.push(Trace {
                    trace: MaterializedTrace::capture(&mut *app.source()),
                    footprint: app.footprint(),
                    base: LAYOUT_BASE,
                });
            }
            prepared.traces.push(synth_trace(&mut rng));
            for trace in 0..prepared.traces.len() {
                for label in POLICIES {
                    for memory in MEMORIES {
                        let config = SimConfig::builder()
                            .policy(policy(label))
                            .memory(memory)
                            .build();
                        prepared.ops.push(Op::Single { trace, config });
                    }
                }
            }
            rng.shuffle(&mut prepared.ops);
        }
        Kind::SharedCluster => {
            for (config, apps) in cluster_cells(&mut rng) {
                prepared.ops.push(Op::Cluster { config, apps });
            }
        }
        Kind::ChaosArtifacts => {
            let dir = scratch_root.join(format!("chaos-{seed}-{}", std::process::id()));
            std::fs::create_dir_all(&dir)
                .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
            prepared.scratch = Some(dir.clone());
            for cell in 0..CHAOS_CELLS {
                let spec = chaos_plan(&mut rng);
                let file = |name: &str| dir.join(format!("cell{cell}.{name}.json"));
                let (trace, summary, metrics, heat) = (
                    file("trace"),
                    file("summary"),
                    file("metrics"),
                    file("heat"),
                );
                let path = |p: &PathBuf| p.display().to_string();
                let mut argv: Vec<String> = [
                    "cluster",
                    "--nodes",
                    &CHAOS_NODES.to_string(),
                    "--active",
                    &CHAOS_ACTIVE.to_string(),
                    "--app",
                    "gdb",
                    "--scale",
                    &CHAOS_APP_SCALE.to_string(),
                    "--policy",
                    "sp_1024",
                    "--memory",
                    "half",
                    "--replicas",
                    "2",
                    "--fault-plan",
                    &spec,
                    // Ten windows or fewer per cell, not the default ~60:
                    // the metrics document's size, and with it the
                    // quadratic parse of the small check, then barely
                    // moves with a seed's makespan.
                    "--metrics-window",
                    "10ms",
                ]
                .map(str::to_owned)
                .to_vec();
                for (flag, p) in [
                    ("--trace-out", &trace),
                    ("--summary-json", &summary),
                    ("--metrics-out", &metrics),
                    ("--heat-out", &heat),
                ] {
                    argv.extend([flag.to_owned(), path(p)]);
                }
                prepared.ops.push(Op::Cli {
                    argv,
                    summary: Some(summary.clone()),
                    checks: 0,
                });
                prepared.ops.push(Op::Cli {
                    argv: vec!["check-trace".into(), "--trace".into(), path(&trace)],
                    summary: None,
                    checks: 1,
                });
                // Heat is cross-checked against the summary in one call.
                prepared.ops.push(Op::Cli {
                    argv: [
                        "check-trace",
                        "--summary",
                        &path(&summary),
                        "--metrics",
                        &path(&metrics),
                        "--heat",
                        &path(&heat),
                    ]
                    .map(str::to_owned)
                    .to_vec(),
                    summary: None,
                    checks: 3,
                });
                prepared.library.push(library_cell(&spec)?);
            }
        }
    }
    for i in 0..prepared.ops.len() {
        let out = run_op(&prepared, i).and_then(|out| {
            check(&prepared, i, &out)?;
            Ok(out)
        });
        prepared
            .reference
            .push(out.map_err(|e| format!("reference op {i}: {e}"))?);
    }
    Ok(prepared)
}

/// The library-level equivalent of a chaos cell's CLI command.
pub fn library_cell(spec: &str) -> Result<(SimConfig, Vec<AppProfile>, ClusterReport), String> {
    let app = apps::gdb().scaled(CHAOS_APP_SCALE);
    let mut config = SimConfig::builder()
        .policy(policy("sp_1024"))
        .memory(MemoryConfig::Half)
        .cluster_nodes(CHAOS_NODES)
        .replication(ReplicationConfig {
            replicas: 2,
            ..ReplicationConfig::default()
        })
        .build();
    config.fault_plan = Some(FaultPlan::parse(
        spec,
        Some(config.exec_time(app.target_refs())),
    )?);
    let apps = vec![app; CHAOS_ACTIVE as usize];
    let report = ClusterSim::new(config.clone()).run(&apps);
    Ok((config, apps, report))
}

/// Runs operation `i` of a pass. A panic inside it is caught and
/// reported as an error, so one broken operation counts as failed
/// instead of ending the benchmark.
pub fn run_op(p: &Prepared, i: usize) -> Result<Output, String> {
    catch_unwind(AssertUnwindSafe(|| run_op_inner(p, i))).unwrap_or_else(|panic| {
        let msg = panic
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| panic.downcast_ref::<&str>().map(|s| (*s).to_owned()))
            .unwrap_or_default();
        Err(format!("panicked: {msg}"))
    })
}

fn run_op_inner(p: &Prepared, i: usize) -> Result<Output, String> {
    match &p.ops[i] {
        Op::Single { trace, config } => {
            let t = &p.traces[*trace];
            Ok(Output::Run(Box::new(
                Simulator::new(config.clone()).run_trace(
                    &mut t.trace.cursor(),
                    t.footprint,
                    t.base,
                ),
            )))
        }
        Op::Cluster { config, apps } => {
            Ok(Output::Cluster(ClusterSim::new(config.clone()).run(apps)))
        }
        Op::Cli { argv, summary, .. } => {
            let stdout = gms_cli::execute(argv).map_err(|e| format!("gms-sim {}: {e}", argv[0]))?;
            let summary = match summary {
                Some(path) => Some(
                    std::fs::read_to_string(path)
                        .map_err(|e| format!("cannot read {}: {e}", path.display()))?,
                ),
                None => None,
            };
            Ok(Output::Text { stdout, summary })
        }
    }
}

/// The checks on operation `i`'s output that need no reference: the
/// latency buckets partition the total, every input reference ran, and
/// the CLI produced what the library produces.
pub fn check(p: &Prepared, i: usize, out: &Output) -> Result<(), String> {
    match (&p.ops[i], out) {
        (Op::Single { trace, .. }, Output::Run(r)) => {
            conserved(r)?;
            let want = p.traces[*trace].trace.total_refs();
            if r.total_refs != want {
                return Err(format!("ran {} of {want} refs", r.total_refs));
            }
            Ok(())
        }
        (Op::Cluster { apps, .. }, Output::Cluster(c)) => {
            for (node, app) in c.nodes.iter().zip(apps) {
                conserved(node)?;
                if node.total_refs != app.target_refs() {
                    return Err(format!(
                        "ran {} of {} refs",
                        node.total_refs,
                        app.target_refs()
                    ));
                }
            }
            let slowest = c.nodes.iter().map(|n| n.total_time).max();
            if c.nodes.len() != apps.len() || slowest != Some(c.makespan) {
                return Err("makespan is not the slowest node's time".into());
            }
            Ok(())
        }
        (
            Op::Cli {
                summary: Some(_), ..
            },
            Output::Text {
                summary: Some(doc), ..
            },
        ) => {
            let cell = chaos_cell(p, i);
            let (_, _, report) = &p.library[cell];
            if *doc != cluster_summary_json(report) {
                return Err("the CLI summary differs from the library run's".into());
            }
            Ok(())
        }
        (
            Op::Cli { checks, .. },
            Output::Text {
                stdout,
                summary: None,
            },
        ) => {
            let ok = stdout.lines().filter(|l| l.contains(" OK: ")).count();
            if ok != *checks {
                return Err(format!("check-trace passed {ok} of {checks} artifacts"));
            }
            Ok(())
        }
        _ => Err("operation produced the wrong kind of output".into()),
    }
}

/// The chaos cell whose CLI `cluster` command is operation `op`.
pub fn chaos_cell(p: &Prepared, op: usize) -> usize {
    p.ops[..op]
        .iter()
        .filter(|o| {
            matches!(
                o,
                Op::Cli {
                    summary: Some(_),
                    ..
                }
            )
        })
        .count()
}

/// The time buckets must sum to `total_time`; checked without panicking.
fn conserved(r: &RunReport) -> Result<(), String> {
    let sum = r.exec_time
        + r.sp_latency
        + r.page_wait
        + r.recv_overhead
        + r.emulation_time
        + r.putpage_overhead;
    if sum == r.total_time {
        Ok(())
    } else {
        Err(format!("buckets sum to {sum}, total is {}", r.total_time))
    }
}

/// The simulated results of one pass, whichever way they were produced.
pub fn sim_reports(p: &Prepared) -> Vec<(Duration, Vec<&RunReport>)> {
    match p.kind {
        Kind::PaperGrid => p
            .reference
            .iter()
            .filter_map(|o| match o {
                Output::Run(r) => Some((r.total_time, vec![&**r])),
                _ => None,
            })
            .collect(),
        Kind::SharedCluster => p
            .reference
            .iter()
            .filter_map(|o| match o {
                Output::Cluster(c) => Some((c.makespan, c.nodes.iter().collect())),
                _ => None,
            })
            .collect(),
        Kind::ChaosArtifacts => p
            .library
            .iter()
            .map(|(_, _, c)| (c.makespan, c.nodes.iter().collect()))
            .collect(),
    }
}

/// FNV-1a over every simulated statistic of a pass: every report field
/// and fault record, and every CLI summary document. The texts are
/// sorted before hashing, so the seeded operation order does not enter.
/// A host-speed change must leave the digest unchanged.
pub fn sim_digest(p: &Prepared) -> u64 {
    let mut texts: Vec<String> = p
        .reference
        .iter()
        .filter_map(|o| match o {
            // CLI stdout names scratch paths; only the summary is simulated.
            Output::Text { summary, .. } => summary.clone(),
            other => Some(format!("{other:?}")),
        })
        .chain(p.library.iter().map(|(_, _, c)| format!("{c:?}")))
        .collect();
    texts.sort_unstable();
    let mut h = Fnv::new();
    for t in &texts {
        h.bytes(t.as_bytes());
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest_of_inputs(seed: u64) -> (Vec<u64>, Vec<String>, String) {
        let mut rng = input_rng(seed);
        let synth = synth_trace(&mut rng);
        let mut h = Fnv::new();
        h.bytes(format!("{:?}", synth.trace.runs()).as_bytes());
        let cells = cluster_cells(&mut rng)
            .iter()
            .map(|(c, apps)| {
                let names: Vec<String> = apps
                    .iter()
                    .map(|a| format!("{}@{}", a.name(), a.scale()))
                    .collect();
                format!("{} {}", c.policy.label(), names.join(","))
            })
            .collect();
        (
            vec![h.finish(), synth.footprint.get()],
            cells,
            chaos_plan(&mut rng),
        )
    }

    #[test]
    fn inputs_are_deterministic_per_seed_and_differ_between_seeds() {
        assert_eq!(digest_of_inputs(1), digest_of_inputs(1));
        let (a, b) = (digest_of_inputs(1), digest_of_inputs(2));
        assert_ne!(a.0, b.0);
        assert_ne!(a.1, b.1);
        assert_ne!(a.2, b.2);
    }

    #[test]
    fn chaos_plans_crash_and_degrade_distinct_idle_nodes() {
        let mut rng = Rng::new(3);
        for _ in 0..50 {
            let plan = chaos_plan(&mut rng);
            let nodes: Vec<u32> = plan
                .split('n')
                .skip(1)
                .filter_map(|s| s.split('@').next()?.parse().ok())
                .collect();
            assert_eq!(nodes.len(), 2, "{plan}");
            assert_ne!(nodes[0], nodes[1], "{plan}");
            assert!(
                nodes
                    .iter()
                    .all(|n| (CHAOS_ACTIVE..CHAOS_NODES).contains(n)),
                "{plan}"
            );
            FaultPlan::parse(&plan, None).expect("plan parses");
        }
    }
}
