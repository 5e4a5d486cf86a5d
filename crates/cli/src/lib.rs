//! Command-line driver for the `gms-subpages` simulator.
//!
//! ```text
//! gms-sim apps
//! gms-sim run --app modula3 --policy sp_1024 --memory half [--scale 0.1]
//!             [--net atm|ethernet|fast4|fast16] [--replacement lru|fifo|clock|random2]
//!             [--pal]
//! gms-sim sweep --app gdb [--scale 1.0] [--jobs 4]
//! gms-sim cluster --nodes 7 --active 4 --app modula3 [--policy sp_1024]
//!                 [--memory half] [--scale 0.1] [--net atm]
//! gms-sim latency [--subpage 1024]
//! ```
//!
//! The parsing and command logic live in this library so they can be
//! unit-tested; `main` is a thin wrapper.
//!
//! The five simulating commands — `run`, `cluster`, `profile`, `explain`
//! and `heat` — share one shape: their simulation flags go through one
//! parser into a `Session` (app, config, topology), the session runs
//! once into the recorders the command's outputs need (fanned out
//! behind one `Recorder` when there are several), and the command
//! renders the report and those recorders.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::cell::OnceCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use gms_core::{
    cluster_summary_json, run_summary_json, tail_json, with_slo, AccessCost, ClusterReport,
    ClusterSim, FaultPlan, FetchPolicy, MemoryConfig, PipelineStrategy, ReplacementKind,
    ReplicationConfig, RunReport, SimConfig, SloCount, Sweep, WindowTally, SUMMARY_SCHEMA,
    TAIL_PERCENTILES, WAIT_PERCENTILES,
};
use gms_mem::{PageSize, SubpageMask, SubpageSize};
use gms_net::{AccessPattern, ClusterNetwork, NetParams, NetResource, RecvOverhead, TransferPlan};
use gms_obs::{
    attribute, attribution_json, escape_json, heat_json, heat_perfetto, metrics_json,
    perfetto_trace, AttributionReport, ComponentRow, Event, Exemplar, FaultAttribution,
    FlightRecorder, HeatMap, JsonValue, MemoryRecorder, NoopRecorder, QuantileSketch, Recorder,
    TimeSeriesRecorder, ATTRIB_SCHEMA, HEAT_SCHEMA, METRICS_SCHEMA,
};
use gms_trace::apps::{self, AppProfile};
use gms_units::{Bytes, Duration, NodeId, SimTime};

/// A failure to understand or execute a command line.
#[derive(Debug, PartialEq, Eq)]
pub struct CliError(String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CliError {}

fn err(msg: impl Into<String>) -> CliError {
    CliError(msg.into())
}

/// Usage text.
pub const USAGE: &str = "\
gms-sim — the gms-subpages simulator

USAGE:
  gms-sim apps
  gms-sim run --app <name> --policy <label> [--memory full|half|quarter|<frames>]
              [--scale <f>] [--net atm|ethernet|fast4|fast16]
              [--replacement lru|fifo|clock|random2] [--pal]
              [--fault-plan <spec>] [--slo <dur>]
              [--trace-out <path>] [--summary-json <path>]
              [--metrics-out <path>] [--prom-out <path>] [--metrics-window <dur>]
              [--heat-out <path> [--regions <pages>]]
  gms-sim sweep --app <name> [--scale <f>] [--jobs <n>] [--trace-dir <dir>]
                [--policies <label>,<label>,...]
              [--fault-plan <spec>]
              [--heat-out <path> [--regions <pages>]]
  gms-sim cluster --nodes <k> --active <a> [--app <name>] [--policy <label>]
              [--memory full|half|quarter|<frames>] [--scale <f>]
              [--net atm|ethernet|fast4|fast16]
              [--replacement lru|fifo|clock|random2]
              [--replicas <k>] [--repair-rate <bytes/s>]
              [--fault-plan <spec>] [--slo <dur>]
              [--trace-out <path>] [--summary-json <path>]
              [--metrics-out <path>] [--prom-out <path>] [--metrics-window <dur>]
              [--heat-out <path> [--regions <pages>]]
  gms-sim profile --app <name> --policy <label> [--by resource|class|node]
              [--memory full|half|quarter|<frames>] [--scale <f>]
              [--net ...] [--replacement ...] [--pal] [--fault-plan <spec>]
              [--nodes <k> --active <a>] [--json <path>]
  gms-sim explain --app <name> --policy <label> [--worst <k>] [--slo <dur>]
              [--window <dur>] [--memory full|half|quarter|<frames>] [--scale <f>]
              [--net ...] [--replacement ...] [--pal] [--fault-plan <spec>]
              [--nodes <k> --active <a>]
              [--json <path>] [--trace-out <path>]
  gms-sim heat --app <name> --policy <label> [--by region|page|node]
              [--regions <pages>] [--top <n>]
              [--memory full|half|quarter|<frames>] [--scale <f>]
              [--net ...] [--replacement ...] [--pal] [--fault-plan <spec>]
              [--nodes <k> --active <a>]
              [--json <path>] [--perfetto-out <path>]
  gms-sim diff-trace <a.summary.json> <b.summary.json> [--tolerance <pct>] [--full]
  gms-sim diff-bench <a.json> <b.json> [--tolerance <pct>]
  gms-sim check-trace [--trace <path>] [--summary <path>]
              [--metrics <path>] [--attrib <path>] [--exemplars <path>]
              [--heat <path>]
  gms-sim latency [--subpage <bytes>]

Sweeps fan the grid's cells over `--jobs` worker threads (default: all
available cores); the reports are identical to a serial run.

Cluster runs replay the app (default: gdb, eager 1 KB, 1/2 memory) on
each of the <a> active nodes at once; the remaining nodes serve as idle
memory hosts, and every transfer contends on the shared wires and
serving-node CPU/DMA.

--replicas <k> keeps k copies of every evicted page on k distinct idle
nodes (default 1, the paper's single-copy global memory). With k >= 2 a
crashed node's pages survive on the remaining replicas: fetches fail
over to the next copy instead of falling back to disk, and a
rate-limited background repair stream (--repair-rate bytes per second,
default 20000000) re-replicates the survivors, competing with
foreground faults for the same wires. Replicated runs print a
`replication:` line (copies, replica writes, repair volume, directory
rebuilds, and the window of vulnerability during which any page had
fewer copies than configured); single-copy output is unchanged,
byte-for-byte.

The retry ladder is fixed: a getpage tries one custodian 4 times,
backing off half, one and two timeouts between tries, before failing
over or falling back to disk, and a lost putpage is re-sent until
delivered, 8 sends at most.

--trace-out writes a Chrome/Perfetto trace (load it at
https://ui.perfetto.dev): one track per (node, resource) with spans for
resource occupancies and instants for the fault lifecycle.
--summary-json writes a machine-readable gms-summary/v3 document:
counters, reliability telemetry, page-wait percentiles (p50/p90/p99/max)
and a `tail` object (p99.9/p99.99), all read from one mergeable quantile
sketch with a 1/256 relative-error bound. --trace-dir gives every sweep
cell its own trace + summary pair. Tracing never changes the simulated
timing: reports are byte-identical with or without it.
--metrics-out writes windowed time-series metrics (gms-metrics/v1 JSON:
per-window fault/retry counts, per-resource utilization, wait p50/p99,
mean in-flight fetches); --prom-out writes the cumulative counters in
the Prometheus text format. --metrics-window sets the window length
(ns/us/ms/s suffixes; default 1ms).
--slo <dur> scores every fault against a page-wait threshold: the run
prints an attainment line (faults under the threshold, plus the
sketch-estimated p99.9), and the --summary-json document gains one
`slo` object (threshold, faults, faults under it, attainment) as its
last key, the same for run and cluster.

profile replays a recorded run through the critical-path attribution
pass: every fault's wait is split into queueing vs. service per
(node, resource) hop, plus transit/retry/disk/stall pseudo-components,
and the sums are checked against the report's latency buckets to the
nanosecond. --by picks the aggregation (resource components, fault
class, or node); --json writes the gms-attrib/v1 document.

heat is the *spatial* counterpart of profile and explain: it re-runs
the workload under a bounded heat-map recorder that folds every fault
into per-(node, region) accumulators — fault counts by class, first
touches vs refaults with refault-interval percentiles, subpage-arrival
popcounts, prefetched-vs-wasted bytes, and replica/repair traffic —
where a region is --regions consecutive pages (a power of two; default
64, leap's region granularity). The accumulated totals are cross-
checked against the run report before anything prints: region faults
must sum to the report's per-class fault counts exactly, and wasted
prefetch bytes must equal the report's mispredicted_prefetch_bytes.
--by picks the table (region — the default, page — single-page
regions, or node); --top bounds the table rows (default 10). --json
writes the gms-heat/v1 document; --perfetto-out writes Perfetto
counter tracks (per-node fault rate and wire-utilization, plus the
--top hottest regions' fault-rate series).

--heat-out on run, cluster and sweep writes the same gms-heat/v1
document as a cheap export alongside the normal output: the heat
recorder declines background occupancy events, so it costs the benched
heat_overhead_pct (gated under an absolute ceiling of 5%) rather than
full-trace buffering, and the simulated report stays byte-identical.
A sweep's document is every cell's accumulator merged (the merge is
commutative and associative, so worker scheduling cannot change it).
--regions picks the granularity; the heat *command* additionally
tracks wire occupancies for its utilization counters, which --heat-out
deliberately does not.

explain is the tail-latency counterpart of profile. It re-runs the
workload under a bounded flight recorder that retains complete event
chains only for the --worst <k> slowest faults per node (per --window
of sim-time, when one is given; default k=4), replays exactly those
exemplar chains through the critical-path attribution walk, and prints
each one's Table-2 decomposition (queue/service/transit/retry/disk/
stall — the components sum to the recorded wait to the nanosecond)
alongside per-class and per-node SLO attainment tallied over *all*
faults, not just the retained ones (--slo threshold, default 1ms).
--json writes the gms-explain/v1 document; --trace-out writes a
Perfetto trace holding only the exemplar chains.

diff-trace compares two exported summary JSON files cell by cell
(--full compares two raw Perfetto traces instead) and exits non-zero
if any numeric cell moved by more than --tolerance percent (default 5).
diff-bench does the same for bench result JSON (default tolerance 25),
which is the CI perf gate; cells holding derived ratios or environment
facts (overhead_pct, speedup, jobs) are reported but not gated, since
they swing wildly in relative terms when the underlying — and gated —
time cells wobble by a few percent. Two cell families get their own
gates instead of the default tolerance: `flight_overhead_pct` and
`heat_overhead_pct` must each stay under an absolute ceiling of 5
(bounded always-on recorders must stay cheap no matter what the
baseline measured), and the `p99_9_us` far-tail cells — deterministic
simulated values, not wall-clock — are gated at a tight 1%.

check-trace re-parses exported files and validates their schema,
including an allowlist of known instant-event kinds; --metrics and
--attrib validate gms-metrics/v1 and gms-attrib/v1 documents,
including the attribution conservation invariant. --summary accepts
gms-summary/v3, checking the shared percentile key lists, the tail
object and the slo object if present; --exemplars validates a
gms-explain/v1 document, re-checking that every exemplar's components
sum to its recorded wait.
--heat validates a gms-heat/v1 document: per-region class counts must
sum to their totals, region sums must reproduce the document totals
field by field, first touches + refaults must partition the faults,
and per-node tallies must agree; given --summary in the same
invocation, the heat totals are additionally cross-checked against the
summary's fault and prefetch counters.

--fault-plan injects deterministic faults: a comma-separated list of
  loss=<p>        per-message loss probability (0..1)
  seed=<n>        RNG seed for loss sampling (default 0)
  crash=nK@<t>    idle node K crashes (loses its pages) at time t
  recover=nK@<t>  node K comes back (empty) at time t
  degrade=nK@<t0>..<t1>x<f>  node K's links are f x slower in [t0, t1)
Times take ns/us/ms/s suffixes or <pct>%, a percentage of the app's
pure-execution time. Example: loss=0.01,crash=n3@25%,seed=1. An empty
or absent plan changes nothing, byte-for-byte.

POLICY LABELS:
  disk | disk_8192_seq | p_8192 | sp_<bytes> (eager)
  | pl_<bytes>[_asc|_dbl|_half][_mrecv] (pipelined; suffixes pick the
    follow-on order and measured receive overhead)
  | lazy_<bytes> | small_<bytes>
  | leap_<bytes> (stride-predicting follow-on order)
  | indigo_<bytes> (hotness-adaptive: hot pages migrate whole, cold
    pages demand-fetch subpages)
";

/// Looks an application profile up by name.
///
/// # Errors
///
/// Unknown names.
pub fn parse_app(name: &str) -> Result<AppProfile, CliError> {
    apps::all()
        .into_iter()
        .find(|a| a.name() == name)
        .ok_or_else(|| err(format!("unknown app '{name}' (try `gms-sim apps`)")))
}

/// Parses a policy label as printed in the paper's figures and by
/// [`FetchPolicy::label`] — the two round-trip: every label the
/// simulator prints parses back to the same policy.
///
/// # Errors
///
/// Unknown labels or invalid sizes (sizes are validated here rather
/// than passed through to the panicking constructors).
pub fn parse_policy(label: &str) -> Result<FetchPolicy, CliError> {
    // An 8 KB page holds at most `SubpageMask::MAX_WIDTH` subpages (one
    // valid bit each), which puts the smallest subpage at 128 bytes.
    let page = PageSize::P8K.bytes().get();
    let smallest = page / u64::from(SubpageMask::MAX_WIDTH);
    let subpage = |s: &str| -> Result<SubpageSize, CliError> {
        let n: u64 = s.parse().map_err(|_| err(format!("bad size '{s}'")))?;
        if n.is_power_of_two() && (smallest..=page).contains(&n) {
            Ok(SubpageSize::new(Bytes::new(n)))
        } else {
            Err(err(format!(
                "bad subpage size '{s}' (power of two in {smallest}..={page})"
            )))
        }
    };
    match label {
        "disk" | "disk_8192" => Ok(FetchPolicy::disk()),
        "disk_8192_seq" => Ok(FetchPolicy::Disk {
            pattern: AccessPattern::Sequential,
        }),
        "fullpage" | "p_8192" => Ok(FetchPolicy::fullpage()),
        _ => {
            if let Some(s) = label.strip_prefix("sp_") {
                Ok(FetchPolicy::eager(subpage(s)?))
            } else if let Some(rest) = label.strip_prefix("pl_") {
                let (rest, recv_overhead) = match rest.strip_suffix("_mrecv") {
                    Some(r) => (r, RecvOverhead::Measured),
                    None => (rest, RecvOverhead::Zero),
                };
                let (rest, strategy) = if let Some(r) = rest.strip_suffix("_asc") {
                    (r, PipelineStrategy::Ascending)
                } else if let Some(r) = rest.strip_suffix("_dbl") {
                    (r, PipelineStrategy::DoubledFollowOn)
                } else if let Some(r) = rest.strip_suffix("_half") {
                    (r, PipelineStrategy::AdaptiveHalf)
                } else {
                    (rest, PipelineStrategy::NeighborsFirst)
                };
                Ok(FetchPolicy::PipelinedSubpage {
                    subpage: subpage(rest)?,
                    strategy,
                    recv_overhead,
                })
            } else if let Some(s) = label.strip_prefix("lazy_") {
                Ok(FetchPolicy::lazy(subpage(s)?))
            } else if let Some(s) = label.strip_prefix("leap_") {
                Ok(FetchPolicy::leap(subpage(s)?))
            } else if let Some(s) = label.strip_prefix("indigo_") {
                Ok(FetchPolicy::indigo(subpage(s)?))
            } else if let Some(s) = label.strip_prefix("small_") {
                let n: u64 = s.parse().map_err(|_| err(format!("bad size '{s}'")))?;
                if n.is_power_of_two() && (512..=64 * 1024 * 1024).contains(&n) {
                    Ok(FetchPolicy::SmallPages {
                        page: PageSize::new(Bytes::new(n)),
                    })
                } else {
                    Err(err(format!(
                        "bad page size '{s}' (power of two in 512..=64M)"
                    )))
                }
            } else {
                Err(err(format!("unknown policy '{label}'")))
            }
        }
    }
}

/// Parses a memory configuration.
///
/// # Errors
///
/// Anything that is neither a named configuration nor a frame count.
pub fn parse_memory(text: &str) -> Result<MemoryConfig, CliError> {
    match text {
        "full" => Ok(MemoryConfig::Full),
        "half" => Ok(MemoryConfig::Half),
        "quarter" => Ok(MemoryConfig::Quarter),
        n => n
            .parse::<u64>()
            .map(MemoryConfig::Frames)
            .map_err(|_| err(format!("bad memory '{n}'"))),
    }
}

/// Parses a network preset.
///
/// # Errors
///
/// Unknown presets.
pub fn parse_net(text: &str) -> Result<NetParams, CliError> {
    match text {
        "atm" | "an2" => Ok(NetParams::paper()),
        "ethernet" => Ok(NetParams::ethernet()),
        "fast4" => Ok(NetParams::paper().scaled_network(4.0)),
        "fast16" => Ok(NetParams::paper().scaled_network(16.0)),
        other => Err(err(format!("unknown network '{other}'"))),
    }
}

/// Parses a replacement policy name.
///
/// # Errors
///
/// Unknown names.
pub fn parse_replacement(text: &str) -> Result<ReplacementKind, CliError> {
    match text {
        "lru" => Ok(ReplacementKind::Lru),
        "fifo" => Ok(ReplacementKind::Fifo),
        "clock" => Ok(ReplacementKind::Clock),
        "random2" => Ok(ReplacementKind::Random2 { seed: 7 }),
        other => Err(err(format!("unknown replacement '{other}'"))),
    }
}

/// Parses a duration with an `ns`/`us`/`ms`/`s` suffix (bare numbers
/// are nanoseconds).
///
/// # Errors
///
/// Non-numeric or non-positive values, and values that round to 0 ns.
pub fn parse_duration(text: &str) -> Result<Duration, CliError> {
    let (num, scale) = if let Some(v) = text.strip_suffix("ns") {
        (v, 1.0)
    } else if let Some(v) = text.strip_suffix("us") {
        (v, 1e3)
    } else if let Some(v) = text.strip_suffix("ms") {
        (v, 1e6)
    } else if let Some(v) = text.strip_suffix('s') {
        (v, 1e9)
    } else {
        (text, 1.0)
    };
    let n: f64 = num
        .parse()
        .map_err(|_| err(format!("bad duration '{text}'")))?;
    if n.is_nan() || n <= 0.0 || !n.is_finite() {
        return Err(err(format!("duration '{text}' must be positive")));
    }
    let nanos = (n * scale).round();
    if nanos < 1.0 {
        return Err(err(format!("duration '{text}' rounds to 0 ns")));
    }
    Ok(Duration::from_nanos(nanos as u64))
}

/// Flag-style argument extraction: `--key value` pairs plus bare flags.
struct Args {
    rest: Vec<String>,
}

impl Args {
    fn new(args: &[String]) -> Self {
        Args {
            rest: args.to_vec(),
        }
    }

    fn take_value(&mut self, key: &str) -> Option<String> {
        let pos = self.rest.iter().position(|a| a == key)?;
        if pos + 1 < self.rest.len() {
            let value = self.rest.remove(pos + 1);
            self.rest.remove(pos);
            Some(value)
        } else {
            None
        }
    }

    fn take_flag(&mut self, key: &str) -> bool {
        if let Some(pos) = self.rest.iter().position(|a| a == key) {
            self.rest.remove(pos);
            true
        } else {
            false
        }
    }

    /// Removes and returns the first non-flag argument (a positional).
    fn take_positional(&mut self) -> Option<String> {
        let pos = self.rest.iter().position(|a| !a.starts_with("--"))?;
        Some(self.rest.remove(pos))
    }

    /// The value of a flag the command cannot run without.
    fn required(&mut self, key: &str) -> Result<String, CliError> {
        self.take_value(key)
            .ok_or_else(|| err(format!("{key} is required")))
    }

    /// An output path.
    fn path(&mut self, key: &str) -> Option<PathBuf> {
        self.take_value(key).map(PathBuf::from)
    }

    /// `key`'s value through `parse`, or `default` when the flag is
    /// absent.
    fn parse_or<T>(
        &mut self,
        key: &str,
        default: T,
        parse: impl FnOnce(&str) -> Result<T, CliError>,
    ) -> Result<T, CliError> {
        match self.take_value(key) {
            Some(value) => parse(&value),
            None => Ok(default),
        }
    }

    /// `key`'s value as a number, or `default` when absent.
    fn num<T: std::str::FromStr>(&mut self, key: &str, default: T) -> Result<T, CliError> {
        self.parse_or(key, default, |value| {
            value.parse().map_err(|_| err(format!("bad {key}")))
        })
    }

    /// `key`'s value as a count of at least 1, or `default` when absent.
    fn count<T: std::str::FromStr + Default + PartialEq>(
        &mut self,
        key: &str,
        default: T,
    ) -> Result<T, CliError> {
        let n = self.num(key, default)?;
        if n == T::default() {
            return Err(err(format!("{key} must be at least 1")));
        }
        Ok(n)
    }

    fn finish(self) -> Result<(), CliError> {
        if self.rest.is_empty() {
            Ok(())
        } else {
            Err(err(format!("unrecognized arguments: {:?}", self.rest)))
        }
    }
}

/// Executes a command line (without the program name) and returns its
/// output.
///
/// # Errors
///
/// [`CliError`] for unknown commands, bad flags, or bad values.
pub fn execute(argv: &[String]) -> Result<String, CliError> {
    let Some(command) = argv.first() else {
        return Ok(USAGE.to_owned());
    };
    let mut args = Args::new(&argv[1..]);
    match command.as_str() {
        "apps" => {
            args.finish()?;
            Ok(list_apps())
        }
        "run" => run_command(args),
        "cluster" => cluster_command(args),
        "profile" => profile_command(args),
        "explain" => explain_command(args),
        "heat" => heat_command(args),
        "sweep" => sweep_command(args),
        "diff-trace" | "diff-bench" => {
            let bench = command == "diff-bench";
            let tolerance = parse_tolerance(&mut args, if bench { 25.0 } else { 5.0 })?;
            let full = !bench && args.take_flag("--full");
            let mut file = || {
                args.take_positional()
                    .ok_or_else(|| err(format!("{command} needs two files")))
            };
            let (a, b) = (file()?, file()?);
            args.finish()?;
            let gates = if bench {
                &CellGates::BENCH
            } else {
                &CellGates::NONE
            };
            diff_command(Path::new(&a), Path::new(&b), tolerance, full, gates)
        }
        "check-trace" => check_trace_command(args),
        "latency" => {
            let subpage = args.parse_or("--subpage", Bytes::kib(1), |s| match s.parse() {
                Ok(0) => Err(err("--subpage must be positive")),
                Ok(n) => Ok(Bytes::new(n)),
                Err(_) => Err(err("bad --subpage")),
            })?;
            args.finish()?;
            Ok(latency_command(subpage))
        }
        "help" | "--help" | "-h" => Ok(USAGE.to_owned()),
        other => Err(err(format!("unknown command '{other}'\n\n{USAGE}"))),
    }
}

fn list_apps() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<9} {:>12} {:>9} {:>22}",
        "app", "references", "pages", "paper faults (f..q)"
    );
    for app in apps::all() {
        let (lo, hi) = app.paper_fault_range();
        let _ = writeln!(
            out,
            "{:<9} {:>12} {:>9} {:>22}",
            app.name(),
            app.paper_refs(),
            app.footprint_pages(Bytes::kib(8)),
            format!("{lo}..{hi}"),
        );
    }
    out
}

/// Writes `content` to `path`, mapping IO failures into [`CliError`].
fn write_file(path: &Path, content: &str) -> Result<(), CliError> {
    std::fs::write(path, content).map_err(|e| err(format!("cannot write {}: {e}", path.display())))
}

/// The five simulating commands. Each takes app, policy, memory,
/// scale, net, replacement and fault plan; [`Session::parse`] says
/// which of the other simulation flags each one takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Sim {
    Run,
    Cluster,
    Profile,
    Explain,
    Heat,
}

/// One simulated run as its flags describe it: `app` on every active
/// node of the cluster `config` describes.
struct Session {
    app: AppProfile,
    config: SimConfig,
    /// `(nodes, active)` of a cluster run; `None` runs the app on one
    /// node of the default cluster, which is the serial simulator.
    topology: Option<(u32, u32)>,
}

impl Session {
    /// The one parser of the simulation flags: app, policy, memory,
    /// scale, net, replacement, pal, nodes/active, replicas and fault
    /// plan. Every value is checked here, so a bad flag is a
    /// [`CliError`], never a panic in the engine. A flag the command
    /// does not take is left for [`Args::finish`] to refuse.
    fn parse(args: &mut Args, sim: Sim) -> Result<Session, CliError> {
        let cluster = sim == Sim::Cluster;
        let app = take_app(args, cluster)?;
        let policy = match args.take_value("--policy") {
            Some(p) => parse_policy(&p)?,
            None if cluster => FetchPolicy::eager(SubpageSize::S1K),
            None => return Err(err("--policy is required")),
        };
        let memory = args.parse_or("--memory", MemoryConfig::Half, parse_memory)?;
        let net = args.parse_or("--net", NetParams::paper(), parse_net)?;
        let replacement =
            args.parse_or("--replacement", ReplacementKind::Lru, parse_replacement)?;
        let access_cost = if !cluster && args.take_flag("--pal") {
            AccessCost::PalEmulated
        } else {
            AccessCost::TlbSupported
        };
        let topology = match sim {
            Sim::Run => None,
            Sim::Cluster => Some((args.required("--nodes")?, args.required("--active")?)),
            _ => match (args.take_value("--nodes"), args.take_value("--active")) {
                (None, None) => None,
                (Some(n), Some(a)) => Some((n, a)),
                _ => return Err(err("--nodes and --active go together")),
            },
        };
        let topology = topology.map(|(n, a)| parse_topology(&n, &a)).transpose()?;
        let mut config = SimConfig {
            policy,
            memory,
            net,
            replacement,
            access_cost,
            ..SimConfig::default()
        };
        if let Some((nodes, active)) = topology {
            config.cluster_nodes = nodes;
            if cluster {
                config.replication = parse_replication(args, nodes, active)?;
            }
        }
        if let Some(spec) = args.take_value("--fault-plan") {
            config.fault_plan = Some(parse_fault_plan(&spec, &config, &app)?);
        }
        Ok(Session {
            app,
            config,
            topology,
        })
    }

    /// Runs the app on every active node, recording into `sinks`: the
    /// CLI's one call into the simulator. A one-app cluster run is
    /// byte-identical to the serial simulator's.
    fn run<R: Recorder>(&self, sinks: &mut R) -> ClusterReport {
        let active = self.topology.map_or(1, |(_, active)| active as usize);
        let apps = vec![self.app.clone(); active];
        ClusterSim::new(self.config.clone()).run_recorded(&apps, sinks)
    }

    /// The run as report headers name it.
    fn label(&self) -> String {
        match self.topology {
            Some((nodes, active)) => format!("{nodes}-node cluster, {active} active"),
            None => "serial run".to_owned(),
        }
    }
}

/// Extracts `--app` (gdb by default when `optional`) scaled by
/// `--scale`, which must be positive, finite and small enough that the
/// scaled app's footprint in bytes and its pure-execution time in
/// nanoseconds (its reference count times the per-reference cost) fit
/// in a `u64`. The bound is half the `u64` range, which leaves room for
/// the layout's base address and per-region rounding.
fn take_app(args: &mut Args, optional: bool) -> Result<AppProfile, CliError> {
    let app = match args.take_value("--app") {
        Some(name) => parse_app(&name)?,
        None if optional => apps::gdb(),
        None => return Err(err("--app is required")),
    };
    let scale: f64 = args.num("--scale", 1.0)?;
    if !(scale > 0.0 && scale.is_finite()) {
        return Err(err(format!("--scale {scale} must be positive and finite")));
    }
    let exec = SimConfig::default().exec_time(app.target_refs()).as_nanos();
    let largest = app.footprint().get().max(exec) as f64 * scale;
    if largest >= 2f64.powi(63) {
        return Err(err(format!(
            "--scale {scale} makes {} too large to simulate",
            app.name()
        )));
    }
    Ok(app.scaled(scale))
}

/// Validates `--nodes` and `--active`: at least one active node and at
/// least one idle memory server.
fn parse_topology(nodes: &str, active: &str) -> Result<(u32, u32), CliError> {
    let nodes: u32 = nodes.parse().map_err(|_| err("bad --nodes"))?;
    let active: u32 = active.parse().map_err(|_| err("bad --active"))?;
    if active == 0 {
        return Err(err("--active must be at least 1"));
    }
    if active >= nodes {
        return Err(err(format!(
            "--active {active} leaves no idle memory server in a \
             {nodes}-node cluster (need --active < --nodes)"
        )));
    }
    Ok((nodes, active))
}

/// Parses a `--fault-plan` spec. Percentage times are taken relative to
/// the app's pure-execution time (references × ns/ref), a deterministic
/// horizon that needs no pilot run. Every node the plan crashes,
/// recovers or degrades must be in the configured cluster.
fn parse_fault_plan(
    spec: &str,
    config: &SimConfig,
    app: &AppProfile,
) -> Result<FaultPlan, CliError> {
    let horizon = config.exec_time(app.target_refs());
    let plan = FaultPlan::parse(spec, Some(horizon))
        .and_then(|plan| plan.check_nodes(config.cluster_nodes).map(|()| plan));
    plan.map_err(|e| err(format!("bad --fault-plan: {e}")))
}

/// Extracts `--replicas` and `--repair-rate`. K copies need K distinct
/// idle holders, so the replica count is checked against the topology
/// before it can reach the engine.
fn parse_replication(
    args: &mut Args,
    nodes: u32,
    active: u32,
) -> Result<ReplicationConfig, CliError> {
    let default = ReplicationConfig::default();
    let replicas = args.count("--replicas", default.replicas)?;
    let idle = nodes - active;
    if replicas > idle {
        return Err(err(format!(
            "--replicas {replicas} needs that many distinct idle holders, but --nodes {nodes} \
             --active {active} leaves only {idle}"
        )));
    }
    let repair_rate = args.count("--repair-rate", default.repair_rate)?;
    Ok(ReplicationConfig {
        replicas,
        repair_rate,
    })
}

/// The human-readable reliability line, printed only for fault-injected
/// runs (a clean run has nothing to report).
fn reliability_line(nodes: &[RunReport]) -> String {
    let sum = |count: fn(&RunReport) -> u64| nodes.iter().map(count).sum::<u64>();
    format!(
        "reliability: {} timeouts, {} retries, {} failovers, {} disk fallbacks, \
         {} pages lost to crashes\n",
        sum(|n| n.timeouts),
        sum(|n| n.retries),
        sum(|n| n.failovers),
        sum(|n| n.fell_back_to_disk),
        nodes.first().map_or(0, |n| n.gms.pages_lost_to_crash),
    )
}

/// The time-series export flags of `run` and `cluster`.
struct MetricsOpts {
    json_out: Option<PathBuf>,
    prom_out: Option<PathBuf>,
    window: Duration,
}

impl MetricsOpts {
    /// Extracts `--metrics-out`, `--prom-out` and `--metrics-window`.
    fn parse(args: &mut Args) -> Result<Self, CliError> {
        Ok(MetricsOpts {
            json_out: args.path("--metrics-out"),
            prom_out: args.path("--prom-out"),
            window: args.parse_or("--metrics-window", Duration::from_millis(1), parse_duration)?,
        })
    }

    /// The recorder the exports fold, when any export was requested.
    fn recorder(&self) -> Option<TimeSeriesRecorder> {
        (self.json_out.is_some() || self.prom_out.is_some())
            .then(|| TimeSeriesRecorder::new(self.window))
    }

    /// Writes the requested exports, appending one status line per file
    /// to `out`.
    fn export(&self, ts: &TimeSeriesRecorder, out: &mut String) -> Result<(), CliError> {
        if let Some(path) = &self.json_out {
            write_file(path, &metrics_json(ts))?;
            let _ = writeln!(
                out,
                "metrics: {} ({} windows of {})",
                path.display(),
                ts.windows().len(),
                self.window
            );
        }
        if let Some(path) = &self.prom_out {
            write_file(path, &ts.prometheus_text())?;
            let _ = writeln!(out, "prometheus: {}", path.display());
        }
        Ok(())
    }
}

/// The spatial-heat export flags shared by `run`, `cluster` and
/// `sweep`.
struct HeatOpts {
    out: Option<PathBuf>,
    region_pages: Option<u64>,
}

impl HeatOpts {
    /// Extracts `--heat-out` and `--regions`.
    fn parse(args: &mut Args) -> Result<Self, CliError> {
        let out = args.path("--heat-out");
        let region_pages = parse_region_pages(args)?;
        if region_pages.is_some() && out.is_none() {
            return Err(err("--regions needs --heat-out"));
        }
        Ok(HeatOpts { out, region_pages })
    }

    /// An empty accumulator at the requested granularity, when a heat
    /// export was requested. Wire tracking stays off: the export
    /// declines background occupancies, which is what keeps it under
    /// the benched `heat_overhead_pct` ceiling when it records alone.
    fn recorder(&self) -> Option<HeatMap> {
        self.out.as_ref()?;
        Some(self.region_pages.map_or_else(HeatMap::new, |pages| {
            HeatMap::new().with_region_pages(pages)
        }))
    }

    /// Writes the gms-heat/v1 document, appending a status line.
    fn export(&self, heat: &HeatMap, out: &mut String) -> Result<(), CliError> {
        if let Some(path) = &self.out {
            write_file(path, &heat_json(heat))?;
            let _ = writeln!(
                out,
                "heat: {} ({} regions of {} pages)",
                path.display(),
                heat.regions().len(),
                heat.region_pages()
            );
        }
        Ok(())
    }
}

/// Extracts and validates `--regions`: pages per region, a power of
/// two (1 makes every page its own region).
fn parse_region_pages(args: &mut Args) -> Result<Option<u64>, CliError> {
    match args.take_value("--regions") {
        Some(r) => {
            let n: u64 = r.parse().map_err(|_| err(format!("bad --regions '{r}'")))?;
            if !n.is_power_of_two() {
                return Err(err(format!(
                    "--regions {n} must be a power of two (pages per region)"
                )));
            }
            Ok(Some(n))
        }
        None => Ok(None),
    }
}

/// A `run` or `cluster` pass, ready to render.
struct Recorded {
    session: Session,
    report: ClusterReport,
    slo: Option<Duration>,
    /// One status line per file written.
    artifacts: String,
}

/// What `run` and `cluster` share: one pass records every artifact
/// asked for — trace, metrics and heat fanned out behind one recorder,
/// or no recorder at all — and writes the files, last the
/// `--summary-json` document that `summary` renders from the report,
/// with `--slo`'s object appended.
fn record(
    mut args: Args,
    sim: Sim,
    summary: impl FnOnce(&ClusterReport) -> String,
) -> Result<Recorded, CliError> {
    let session = Session::parse(&mut args, sim)?;
    let slo = args
        .take_value("--slo")
        .map(|s| parse_duration(&s))
        .transpose()?;
    let trace_out = args.path("--trace-out");
    let summary_json = args.path("--summary-json");
    let metrics = MetricsOpts::parse(&mut args)?;
    let heat = HeatOpts::parse(&mut args)?;
    args.finish()?;

    let mut sinks = (
        trace_out.as_ref().map(|_| MemoryRecorder::new()),
        (metrics.recorder(), heat.recorder()),
    );
    let report = if sinks.0.is_none() && sinks.1 .0.is_none() && sinks.1 .1.is_none() {
        session.run(&mut NoopRecorder)
    } else {
        session.run(&mut sinks)
    };
    let (events, (series, heat_map)) = sinks;
    let mut artifacts = String::new();
    if let (Some(path), Some(events)) = (&trace_out, &events) {
        write_file(path, &perfetto_trace(events.iter()))?;
        let _ = writeln!(
            artifacts,
            "trace: {} ({} events)",
            path.display(),
            events.len()
        );
    }
    if let Some(series) = &series {
        metrics.export(series, &mut artifacts)?;
    }
    if let Some(heat_map) = &heat_map {
        heat.export(heat_map, &mut artifacts)?;
    }
    if let Some(path) = &summary_json {
        let doc = match slo {
            Some(slo) => with_slo(summary(&report), &report.slo_count(slo)),
            None => summary(&report),
        };
        write_file(path, &doc)?;
        let _ = writeln!(artifacts, "summary: {}", path.display());
    }
    Ok(Recorded {
        session,
        report,
        slo,
        artifacts,
    })
}

/// `gms-sim run`: the app on one node.
fn run_command(args: Args) -> Result<String, CliError> {
    let rec = record(args, Sim::Run, |report| run_summary_json(&report.nodes[0]))?;
    let node = &rec.report.nodes[0];
    let (exec, sp, wait) = node.decomposition();
    let mut out = String::new();
    let _ = writeln!(out, "{}", node.summary());
    let _ = writeln!(
        out,
        "decomposition: exec {:.0}%  sp_latency {:.0}%  page_wait {:.0}%",
        exec * 100.0,
        sp * 100.0,
        wait * 100.0
    );
    let _ = writeln!(
        out,
        "faults: {} remote, {} disk, {} lazy; {} evictions ({} dirty), {} wasted transfers",
        node.faults.remote,
        node.faults.disk,
        node.faults.lazy_subpage,
        node.evictions,
        node.dirty_evictions,
        node.wasted_transfers
    );
    let _ = writeln!(
        out,
        "overlap: {:.0}% I/O-on-I/O; emulation {:.2} ms; putpage setup {:.2} ms",
        node.overlap.io_fraction() * 100.0,
        node.emulation_time.as_millis_f64(),
        node.putpage_overhead.as_millis_f64()
    );
    if rec.session.config.fault_plan.is_some() {
        out.push_str(&reliability_line(&rec.report.nodes));
    }
    let sketch = node.wait_sketch();
    if !sketch.is_empty() {
        let us = |ns: u64| ns as f64 / 1000.0;
        let _ = writeln!(
            out,
            "page wait percentiles: p50 {:.0} us, p90 {:.0} us, p99 {:.0} us, max {:.0} us",
            us(sketch.quantile(0.5)),
            us(sketch.quantile(0.9)),
            us(sketch.quantile(0.99)),
            us(sketch.max())
        );
    }
    out.push_str(&rec.artifacts);
    if let Some(slo) = rec.slo {
        out.push_str(&slo_line(&rec.report, slo));
    }
    Ok(out)
}

/// `gms-sim cluster`: the app on every active node.
fn cluster_command(args: Args) -> Result<String, CliError> {
    let rec = record(args, Sim::Cluster, cluster_summary_json)?;
    let report = &rec.report;
    let mut out = report.summary();
    let _ = writeln!(
        out,
        "mean page wait per node: {:.2} ms",
        report.mean_page_wait().as_millis_f64()
    );
    let _ = writeln!(
        out,
        "node utilization: min {:.1}%, max {:.1}%",
        report.net.min_node_utilization * 100.0,
        report.net.max_node_utilization * 100.0
    );
    if rec.session.config.fault_plan.is_some() {
        out.push_str(&reliability_line(&report.nodes));
    }
    // The replication line appears only when the run keeps spare
    // copies; single-copy output stays byte-identical to the
    // pre-replication output.
    if rec.session.config.replication.replicas > 1 {
        let gms = &report.nodes[0].gms;
        let _ = writeln!(
            out,
            "replication: {} copies, {} replica writes, {} pages re-replicated \
             ({} repair bytes), {} directory rebuilds, vulnerable {:.2} ms",
            gms.replicas,
            gms.replica_writes,
            gms.pages_re_replicated,
            gms.repair_bytes,
            gms.directory_rebuilds,
            gms.window_of_vulnerability_ns as f64 / 1e6,
        );
    }
    if let Some(slo) = rec.slo {
        out.push_str(&slo_line(report, slo));
    }
    out.push_str(&rec.artifacts);
    Ok(out)
}

/// The default sweep worker count: every available core.
#[must_use]
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// `gms-sim sweep`: the policy × memory grid over one app, with optional
/// per-cell trace/summary pairs and a grid-wide heat map.
fn sweep_command(mut args: Args) -> Result<String, CliError> {
    let app = take_app(&mut args, false)?;
    let jobs = args.count("--jobs", default_jobs())?;
    let fault_plan = args.take_value("--fault-plan");
    let trace_dir = args.path("--trace-dir");
    let policies = args
        .take_value("--policies")
        .map(|list| {
            list.split(',')
                .map(parse_policy)
                .collect::<Result<Vec<_>, _>>()
        })
        .transpose()?;
    let heat = HeatOpts::parse(&mut args)?;
    args.finish()?;

    let mut sweep = Sweep::new(app.clone());
    if let Some(policies) = policies {
        sweep = sweep.policies(policies);
    }
    if let Some(spec) = fault_plan {
        let plan = parse_fault_plan(&spec, &SimConfig::default(), &app)?;
        sweep = sweep.configure(move |b| b.fault_plan(plan.clone()));
    }
    if let Some(template) = heat.recorder() {
        sweep = sweep.heat(template);
    }
    let results = match &trace_dir {
        Some(dir) => sweep.run_traced(jobs, dir).map_err(err)?,
        None => sweep.run_parallel(jobs),
    };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<9} {:>10} {:>12} {:>8}",
        "memory", "policy", "runtime_ms", "faults"
    );
    for cell in results.cells() {
        let _ = writeln!(
            out,
            "{:<9} {:>10} {:>12.2} {:>8}",
            cell.memory.label(),
            cell.report.policy,
            cell.report.total_time.as_millis_f64(),
            cell.report.faults.total()
        );
    }
    if let Some(best) = results.best() {
        let _ = writeln!(
            out,
            "fastest: {} at {}",
            best.report.policy,
            best.memory.label()
        );
    }
    if let Some(dir) = &trace_dir {
        let _ = writeln!(
            out,
            "traces: {} cell trace/summary pairs in {}",
            results.cells().len(),
            dir.display()
        );
    }
    if let Some(merged) = results.heat() {
        heat.export(merged, &mut out)?;
    }
    Ok(out)
}

/// The human-readable SLO attainment line shared by `run` and
/// `cluster`: attainment over every fault, plus the sketch-estimated
/// p99.9 so the threshold can be judged against the tail it polices.
fn slo_line(report: &ClusterReport, slo: Duration) -> String {
    let count = report.slo_count(slo);
    format!(
        "slo {slo}: {}/{} faults under threshold ({:.2}% attainment); p99.9 {:.0} us\n",
        count.under,
        count.faults,
        count.attainment() * 100.0,
        report.wait_sketch().quantile(0.999) as f64 / 1000.0
    )
}

/// Renders aggregated attribution rows as an aligned table with a
/// totals line.
fn rows_table(rows: &[ComponentRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<24} {:>7} {:>10} {:>11} {:>12} {:>10}",
        "component", "faults", "queue_ms", "service_ms", "mean_svc_us", "total_ms"
    );
    let mut queue = Duration::ZERO;
    let mut service = Duration::ZERO;
    for r in rows {
        let _ = writeln!(
            out,
            "{:<24} {:>7} {:>10.3} {:>11.3} {:>12.1} {:>10.3}",
            r.key,
            r.count,
            r.queue.as_millis_f64(),
            r.service.as_millis_f64(),
            r.mean_service().as_nanos() as f64 / 1000.0,
            r.total().as_millis_f64()
        );
        queue += r.queue;
        service += r.service;
    }
    let _ = writeln!(
        out,
        "{:<24} {:>7} {:>10.3} {:>11.3} {:>12} {:>10.3}",
        "total",
        "",
        queue.as_millis_f64(),
        service.as_millis_f64(),
        "",
        (queue + service).as_millis_f64()
    );
    out
}

/// `gms-sim profile`: records a run, attributes every fault's wait to
/// critical-path components, checks conservation against the report's
/// latency buckets, and prints the requested aggregation.
fn profile_command(mut args: Args) -> Result<String, CliError> {
    let session = Session::parse(&mut args, Sim::Profile)?;
    let by = args
        .take_value("--by")
        .unwrap_or_else(|| "resource".to_owned());
    if !matches!(by.as_str(), "resource" | "class" | "policy" | "node") {
        return Err(err(format!(
            "bad --by '{by}' (expected resource, class or node)"
        )));
    }
    let json_out = args.path("--json");
    args.finish()?;

    let mut rec = MemoryRecorder::new();
    let report = session.run(&mut rec);
    let reported: Duration = report
        .nodes
        .iter()
        .map(|n| n.sp_latency + n.page_wait)
        .sum();
    let attrib = attribute(rec.iter()).map_err(|e| err(format!("attribution failed: {e}")))?;
    let attributed = attrib.total_wait();
    if attributed != reported {
        return Err(err(format!(
            "attributed wait {attributed} != reported sp_latency + page_wait {reported}"
        )));
    }

    let policy = session.config.policy;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "profile: {} — {} ({}), {} faults",
        session.app.name(),
        policy.label(),
        session.label(),
        attrib.faults.len()
    );
    let _ = writeln!(
        out,
        "attributed wait {:.3} ms == report sp_latency + page_wait (conserved)",
        attributed.as_millis_f64()
    );
    match by.as_str() {
        "class" | "policy" => {
            for class in attrib.classes() {
                let wait: Duration = attrib
                    .faults
                    .iter()
                    .filter(|f| f.class == class)
                    .map(|f| f.total_wait())
                    .sum();
                let n = attrib.faults.iter().filter(|f| f.class == class).count();
                let _ = writeln!(
                    out,
                    "\nclass {} ({n} faults, {:.3} ms):",
                    class.label(),
                    wait.as_millis_f64()
                );
                out.push_str(&rows_table(&attrib.by_component(Some(class))));
            }
        }
        "node" => out.push_str(&rows_table(&attrib.by_node())),
        _ => out.push_str(&rows_table(&attrib.by_component(None))),
    }
    // An adaptive run's prefetch ledger is the report's counters; only
    // the decision kinds come from the `PolicyDecision` events, indexed
    // in `PolicyChoice` order (stride, fallback, migrate, demand).
    let prefetch = policy.is_adaptive().then(|| {
        let mut kinds = [0u64; 4];
        for e in rec.iter() {
            if let Event::PolicyDecision { choice, .. } = *e {
                kinds[choice as usize] += 1;
            }
        }
        let [stride, fallback, migrate, demand] = kinds;
        let decisions: u64 = kinds.iter().sum();
        let nodes = &report.nodes;
        let prefetched: u64 = nodes.iter().map(|n| n.prefetched_subpages).sum();
        let wasted: u64 = nodes.iter().map(|n| n.mispredicted_prefetch_bytes).sum();
        let sub = policy.geometry(session.config.page_size).subpage_size();
        let unused = wasted / sub.bytes().get();
        let line = format!(
            "policy engine: {decisions} decisions (stride {stride}, fallback {fallback}, \
             migrate {migrate}, demand {demand}); {prefetched} subpages prefetched, \
             {unused} unused ({wasted} bytes mispredicted)\n"
        );
        let json = format!(
            "{{\"decisions\":{decisions},\"stride\":{stride},\"fallback\":{fallback},\
             \"migrate\":{migrate},\"demand\":{demand},\"predicted_subpages\":{prefetched},\
             \"unused_subpages\":{unused},\"mispredicted_bytes\":{wasted}}}"
        );
        (line, json)
    });
    if let Some((line, _)) = &prefetch {
        out.push_str(line);
    }
    let off_count: u64 = attrib.off_path.iter().map(|o| o.count).sum();
    let off_busy: Duration = attrib.off_path.iter().map(|o| o.busy).sum();
    if off_count > 0 {
        let _ = writeln!(
            out,
            "off-path: {off_count} occupancies, {:.3} ms busy \
             (failed attempts, follow-on pipelines, outbound wire twins)",
            off_busy.as_millis_f64()
        );
    }
    if let Some(path) = &json_out {
        let mut doc = attribution_json(&attrib);
        if let Some((_, json)) = &prefetch {
            // Splice the prefetch ledger in as a sibling object; the
            // gms-attrib/v1 shape (schema, totals, components) is
            // untouched, so existing consumers are unaffected.
            doc.truncate(doc.len() - 1);
            let _ = write!(doc, ",\"prefetch\":{json}}}");
        }
        write_file(path, &doc)?;
        let _ = writeln!(out, "attribution: {}", path.display());
    }
    Ok(out)
}

/// Schema tag of the document `explain --json` writes and
/// `check-trace --exemplars` validates.
pub const EXPLAIN_SCHEMA: &str = "gms-explain/v1";

/// `gms-sim explain`: re-runs the workload under a bounded flight
/// recorder, replays the retained worst-fault exemplar chains through
/// the critical-path attribution walk, and reports each one's Table-2
/// decomposition next to SLO attainment scored from the report's fault
/// log, which holds *every* fault.
fn explain_command(mut args: Args) -> Result<String, CliError> {
    let session = Session::parse(&mut args, Sim::Explain)?;
    let worst = args.count("--worst", 4)?;
    let window = args
        .take_value("--window")
        .map(|w| parse_duration(&w))
        .transpose()?;
    let slo = args.parse_or("--slo", Duration::from_millis(1), parse_duration)?;
    let json_out = args.path("--json");
    let trace_out = args.path("--trace-out");
    args.finish()?;

    let mut flight = FlightRecorder::new(worst);
    if let Some(w) = window {
        flight = flight.with_window(w);
    }
    let report = session.run(&mut flight);
    let node_reports = &report.nodes;
    let tallies = report.slo_windows(slo, window);

    // Cross-check 1: the tallies, folded from the fault log, reproduce
    // the engine's own time buckets.
    let faults_total: u64 = node_reports.iter().map(|r| r.faults.total()).sum();
    let reported: Duration = node_reports
        .iter()
        .map(|r| r.sp_latency + r.page_wait)
        .sum();
    let tallied: Duration = tallies.iter().flat_map(|(_, ws)| ws).map(|w| w.wait).sum();
    if tallied != reported {
        return Err(err(format!(
            "tallied fault-log wait {tallied} != report sp_latency + page_wait {reported}"
        )));
    }

    // Cross-check 2: the exemplar chains replay through the attribution
    // walk (which checks per-fault component conservation internally),
    // and each decomposition reproduces the recorder's final wait.
    let stream = flight.exemplar_events();
    let attrib: AttributionReport =
        attribute(&stream).map_err(|e| err(format!("exemplar attribution failed: {e}")))?;
    let exemplars = flight.exemplars();
    if attrib.faults.len() != exemplars.len() {
        return Err(err(format!(
            "attribution found {} faults in {} exemplar chains",
            attrib.faults.len(),
            exemplars.len()
        )));
    }
    let by_key: BTreeMap<(u32, u64, u64), &FaultAttribution> = attrib
        .faults
        .iter()
        .map(|f| ((f.node.index(), f.page, f.fault_at.as_nanos()), f))
        .collect();
    let mut decomposed: Vec<(&Exemplar<'_>, &FaultAttribution)> = Vec::new();
    for ex in &exemplars {
        let f = by_key
            .get(&(ex.node.index(), ex.page, ex.fault_at.as_nanos()))
            .ok_or_else(|| {
                err(format!(
                    "exemplar (node {}, page {}) has no attribution",
                    ex.node.index(),
                    ex.page
                ))
            })?;
        if f.total_wait() != ex.wait {
            return Err(err(format!(
                "exemplar (node {}, page {}) decomposes to {} but recorded wait {}",
                ex.node.index(),
                ex.page,
                f.total_wait(),
                ex.wait
            )));
        }
        decomposed.push((ex, f));
    }

    // SLO attainment per fault class, over the full fault log.
    let mut classes: Vec<(&'static str, u64, u64)> = Vec::new();
    for r in node_reports {
        for f in &r.fault_log {
            let label = f.kind.label();
            let entry = match classes.iter_mut().find(|(l, _, _)| *l == label) {
                Some(e) => e,
                None => {
                    classes.push((label, 0, 0));
                    classes.last_mut().expect("just pushed")
                }
            };
            entry.1 += 1;
            entry.2 += u64::from(f.wait <= slo);
        }
    }
    let slo_count = report.slo_count(slo);
    let sketch = report.wait_sketch();

    let (policy_label, memory_label) = {
        let r = &node_reports[0];
        (r.policy.clone(), r.memory.clone())
    };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "explain: {} — {policy_label} ({}): {faults_total} faults, {} exemplar chains \
         retained ({} events, worst {worst} per node{}), {} candidates dropped",
        session.app.name(),
        session.label(),
        flight.retained(),
        flight.retained_events(),
        match window {
            Some(w) => format!(" per {w} window"),
            None => String::new(),
        },
        flight.dropped()
    );
    let _ = writeln!(
        out,
        "flight wait {:.3} ms == report sp_latency + page_wait (conserved)",
        reported.as_millis_f64()
    );
    let _ = writeln!(
        out,
        "slo {slo}: {}/{} under threshold ({:.2}% attainment); \
         p99.9 {:.0} us, p99.99 {:.0} us",
        slo_count.under,
        slo_count.faults,
        slo_count.attainment() * 100.0,
        sketch.quantile(0.999) as f64 / 1000.0,
        sketch.quantile(0.9999) as f64 / 1000.0
    );
    for &(label, total, under) in &classes {
        let _ = writeln!(
            out,
            "  class {label}: {under}/{total} ({:.2}%)",
            under as f64 / total as f64 * 100.0
        );
    }
    // Per-node, per-window burn: every listed node has faulted.
    for (node, windows) in &tallies {
        let faults: u64 = windows.iter().map(|w| w.faults).sum();
        let violations: u64 = windows.iter().map(|w| w.violations).sum();
        let node_attainment = (faults - violations) as f64 / faults as f64;
        let worst_window = windows.iter().max_by_key(|w| w.violations);
        let _ = write!(
            out,
            "node {}: {faults} faults, {violations} violations ({:.2}% attainment) \
             over {} window{}",
            node.index(),
            node_attainment * 100.0,
            windows.len(),
            if windows.len() == 1 { "" } else { "s" }
        );
        match worst_window {
            Some(w) if w.violations > 0 && windows.len() > 1 => {
                let _ = writeln!(
                    out,
                    "; worst window #{} ({} violations)",
                    w.window, w.violations
                );
            }
            _ => out.push('\n'),
        }
    }
    let _ = writeln!(out, "worst faults (Table-2 decomposition, us):");
    for (rank, (ex, f)) in decomposed.iter().enumerate() {
        let _ = writeln!(
            out,
            "#{} node {} page {}.{} {} @ref {} window {}: wait {:.1}",
            rank + 1,
            ex.node.index(),
            ex.page,
            ex.subpage,
            ex.class.label(),
            ex.at_ref,
            ex.window,
            ex.wait.as_nanos() as f64 / 1000.0
        );
        let _ = writeln!(
            out,
            "    queue {:.1} + service {:.1} + transit {:.1} + retry {:.1} + disk {:.1} \
             + stall {:.1} ({} hops)",
            f.queue_total().as_nanos() as f64 / 1000.0,
            f.service_total().as_nanos() as f64 / 1000.0,
            f.transit.as_nanos() as f64 / 1000.0,
            f.retry_wait.as_nanos() as f64 / 1000.0,
            f.disk_service.as_nanos() as f64 / 1000.0,
            f.stall_wait.as_nanos() as f64 / 1000.0,
            f.hops.len()
        );
    }

    if let Some(path) = &json_out {
        write_file(
            path,
            &explain_json(
                &ExplainDoc {
                    kind: if session.topology.is_some() {
                        "cluster"
                    } else {
                        "run"
                    },
                    policy: &policy_label,
                    memory: &memory_label,
                    slo: slo_count,
                    faults: faults_total,
                    wait: reported,
                    classes: &classes,
                    nodes: &tallies,
                },
                &decomposed,
                &flight,
                &sketch,
            ),
        )?;
        let _ = writeln!(out, "exemplars: {}", path.display());
    }
    if let Some(path) = &trace_out {
        write_file(path, &perfetto_trace(&stream))?;
        let _ = writeln!(
            out,
            "trace: {} ({} exemplar events)",
            path.display(),
            stream.len()
        );
    }
    Ok(out)
}

/// The scalar header fields of a gms-explain/v1 document, bundled so
/// [`explain_json`] stays a renderer rather than a long argument list.
struct ExplainDoc<'a> {
    kind: &'static str,
    policy: &'a str,
    memory: &'a str,
    slo: SloCount,
    faults: u64,
    wait: Duration,
    classes: &'a [(&'static str, u64, u64)],
    nodes: &'a [(NodeId, Vec<WindowTally>)],
}

/// Renders the gms-explain/v1 document: totals, far-tail percentiles,
/// SLO attainment (overall, per class, per node/window), and one entry
/// per exemplar whose `components` sum exactly to its `wait_ns` —
/// the invariant `check-trace --exemplars` re-verifies.
fn explain_json(
    doc: &ExplainDoc<'_>,
    decomposed: &[(&Exemplar<'_>, &FaultAttribution)],
    flight: &FlightRecorder,
    sketch: &QuantileSketch,
) -> String {
    let mut s = format!(
        "{{\"schema\":\"{EXPLAIN_SCHEMA}\",\"kind\":\"{}\",\"policy\":\"{}\",\"memory\":\"{}\",\
         \"worst\":{},\"window_ns\":{},\"totals\":{{\"faults\":{},\"wait_ns\":{},\
         \"retained\":{},\"retained_events\":{},\"dropped\":{}}},\"tail\":{}",
        doc.kind,
        escape_json(doc.policy),
        escape_json(doc.memory),
        flight.keep(),
        match flight.window() {
            Some(w) => w.as_nanos().to_string(),
            None => "null".to_owned(),
        },
        doc.faults,
        doc.wait.as_nanos(),
        decomposed.len(),
        flight.retained_events(),
        flight.dropped(),
        tail_json(sketch),
    );
    let _ = write!(s, ",\"slo\":{}", doc.slo.to_json());
    let classes: Vec<String> = doc
        .classes
        .iter()
        .map(|&(label, total, under)| {
            format!("{{\"class\":\"{label}\",\"faults\":{total},\"under\":{under}}}")
        })
        .collect();
    let _ = write!(s, ",\"classes\":[{}]", classes.join(","));
    let nodes: Vec<String> = doc
        .nodes
        .iter()
        .map(|(node, windows)| {
            let faults: u64 = windows.iter().map(|w| w.faults).sum();
            let violations: u64 = windows.iter().map(|w| w.violations).sum();
            let wait: Duration = windows.iter().map(|w| w.wait).sum();
            let rendered: Vec<String> = windows
                .iter()
                .map(|w| {
                    format!(
                        "{{\"window\":{},\"faults\":{},\"violations\":{},\"wait_ns\":{}}}",
                        w.window,
                        w.faults,
                        w.violations,
                        w.wait.as_nanos()
                    )
                })
                .collect();
            format!(
                "{{\"node\":{},\"faults\":{faults},\"violations\":{violations},\
                 \"wait_ns\":{},\"windows\":[{}]}}",
                node.index(),
                wait.as_nanos(),
                rendered.join(",")
            )
        })
        .collect();
    let _ = write!(s, ",\"nodes\":[{}]", nodes.join(","));
    let rendered: Vec<String> = decomposed
        .iter()
        .enumerate()
        .map(|(rank, (ex, f))| {
            format!(
                "{{\"rank\":{},\"node\":{},\"page\":{},\"subpage\":{},\"class\":\"{}\",\
                 \"at_ref\":{},\"fault_at_ns\":{},\"window\":{},\"wait_ns\":{},\"hops\":{},\
                 \"components\":{{\"queue_ns\":{},\"service_ns\":{},\"transit_ns\":{},\
                 \"retry_ns\":{},\"disk_ns\":{},\"stall_ns\":{}}}}}",
                rank + 1,
                ex.node.index(),
                ex.page,
                ex.subpage,
                ex.class.label(),
                ex.at_ref,
                ex.fault_at.as_nanos(),
                ex.window,
                ex.wait.as_nanos(),
                f.hops.len(),
                f.queue_total().as_nanos(),
                f.service_total().as_nanos(),
                f.transit.as_nanos(),
                f.retry_wait.as_nanos(),
                f.disk_service.as_nanos(),
                f.stall_wait.as_nanos()
            )
        })
        .collect();
    let _ = write!(s, ",\"exemplars\":[{}]}}", rendered.join(","));
    s
}

/// `gms-sim heat`: re-runs the workload under a heat-map recorder
/// (wire tracking on), cross-checks the accumulated totals against the
/// run report's own accounting, and prints the requested spatial
/// breakdown with refault-interval percentiles.
fn heat_command(mut args: Args) -> Result<String, CliError> {
    let session = Session::parse(&mut args, Sim::Heat)?;
    let by = args
        .take_value("--by")
        .unwrap_or_else(|| "region".to_owned());
    if !matches!(by.as_str(), "region" | "page" | "node") {
        return Err(err(format!(
            "bad --by '{by}' (expected region, page or node)"
        )));
    }
    let region_pages = parse_region_pages(&mut args)?;
    let top = args.count("--top", 10)?;
    let json_out = args.path("--json");
    let perfetto_out = args.path("--perfetto-out");
    args.finish()?;
    // --by page means single-page regions; an explicit --regions must
    // agree rather than being silently overridden.
    let pages = match (by.as_str(), region_pages) {
        ("page", Some(p)) if p != 1 => {
            return Err(err(format!(
                "--by page means single-page regions; --regions {p} conflicts"
            )));
        }
        ("page", _) => 1,
        (_, Some(p)) => p,
        (_, None) => 64,
    };
    let mut heat = HeatMap::new().with_region_pages(pages).with_wire_tracking();
    let report = session.run(&mut heat);
    let node_reports = &report.nodes;

    // Cross-check 1: the per-region fault counts, summed per class,
    // must reproduce the engine's own accounting exactly.
    let totals = heat.totals();
    let reported = [
        node_reports.iter().map(|r| r.faults.remote).sum::<u64>(),
        node_reports.iter().map(|r| r.faults.disk).sum(),
        node_reports.iter().map(|r| r.faults.lazy_subpage).sum(),
        node_reports.iter().map(|r| r.faults.degraded).sum(),
    ];
    if totals.faults != reported {
        return Err(err(format!(
            "heat map counted {:?} faults by class, the report counted {reported:?}",
            totals.faults
        )));
    }
    // Cross-check 2: prefetch accounting reconciles with the adaptive
    // engine's own counters to the byte.
    let prefetched: u64 = node_reports.iter().map(|r| r.prefetched_subpages).sum();
    let mispredicted: u64 = node_reports
        .iter()
        .map(|r| r.mispredicted_prefetch_bytes)
        .sum();
    if totals.prefetched_subpages != prefetched {
        return Err(err(format!(
            "heat map counted {} prefetched subpages, the report says {prefetched}",
            totals.prefetched_subpages
        )));
    }
    if totals.wasted_bytes != mispredicted {
        return Err(err(format!(
            "heat map counted {} wasted prefetch bytes, the report's \
             mispredicted_prefetch_bytes is {mispredicted}",
            totals.wasted_bytes
        )));
    }
    // Cross-check 3: first touches and refaults partition the faults.
    if totals.first_touches + totals.refaults != totals.total_faults() {
        return Err(err(format!(
            "first touches {} + refaults {} != faults {}",
            totals.first_touches,
            totals.refaults,
            totals.total_faults()
        )));
    }

    let us = |ns: u64| ns as f64 / 1000.0;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "heat: {} — {} ({}): {} faults over {} regions of {} pages",
        session.app.name(),
        session.config.policy.label(),
        session.label(),
        totals.total_faults(),
        heat.regions().len(),
        heat.region_pages()
    );
    let _ = writeln!(
        out,
        "conserved: region faults == report faults ({} remote, {} disk, {} lazy, \
         {} degraded); wasted prefetch {} bytes == mispredicted_prefetch_bytes",
        reported[0], reported[1], reported[2], reported[3], mispredicted
    );
    let _ = writeln!(
        out,
        "first touches {} + refaults {} == {} faults",
        totals.first_touches,
        totals.refaults,
        totals.total_faults()
    );
    let sketch = heat.refault_sketch();
    if !sketch.is_empty() {
        let _ = writeln!(
            out,
            "refault intervals: p50 {:.0} us, p90 {:.0} us, p99 {:.0} us, max {:.0} us",
            us(sketch.quantile(0.50)),
            us(sketch.quantile(0.90)),
            us(sketch.quantile(0.99)),
            us(sketch.max())
        );
    }

    match by.as_str() {
        "node" => {
            // Region stats regrouped per node, next to the node-scoped
            // counters (repairs, wire busy) regions cannot carry.
            let _ = writeln!(
                out,
                "{:<5} {:>8} {:>8} {:>9} {:>10} {:>8} {:>12}",
                "node", "faults", "first", "refaults", "replica_w", "repairs", "wire_busy_ms"
            );
            let mut per_node: BTreeMap<u32, (u64, u64)> = BTreeMap::new();
            for (node, _, stats) in heat.regions() {
                let slot = per_node.entry(node.index()).or_default();
                slot.0 += stats.first_touches;
                slot.1 += stats.refaults();
            }
            for (node, nh) in heat.nodes() {
                let (first, refaults) = per_node.get(&node.index()).copied().unwrap_or((0, 0));
                let _ = writeln!(
                    out,
                    "{:<5} {:>8} {:>8} {:>9} {:>10} {:>8} {:>12.3}",
                    node.index(),
                    nh.faults,
                    first,
                    refaults,
                    nh.replica_writes,
                    nh.repairs,
                    nh.wire_busy.iter().sum::<u64>() as f64 / 1e6
                );
            }
        }
        _ => {
            let label = if by == "page" { "page" } else { "region" };
            let _ = writeln!(
                out,
                "{:<5} {:>8} {:>10} {:>7} {:>6} {:>8} {:>9} {:>9} {:>9} {:>8}",
                "node",
                label,
                "first_pg",
                "faults",
                "first",
                "refaults",
                "rf_p50_us",
                "rf_p99_us",
                "arrivals",
                "waste_b"
            );
            let mut hot = heat.regions();
            hot.sort_by_key(|(node, region, stats)| {
                (
                    std::cmp::Reverse(stats.total_faults()),
                    node.index(),
                    *region,
                )
            });
            let shown = hot.len().min(top);
            for (node, region, stats) in hot.into_iter().take(top) {
                let _ = writeln!(
                    out,
                    "{:<5} {:>8} {:>10} {:>7} {:>6} {:>8} {:>9.0} {:>9.0} {:>9} {:>8}",
                    node.index(),
                    region,
                    region * heat.region_pages(),
                    stats.total_faults(),
                    stats.first_touches,
                    stats.refaults(),
                    us(stats.refault.quantile(0.50)),
                    us(stats.refault.quantile(0.99)),
                    stats.subpage_arrivals,
                    stats.wasted_bytes
                );
            }
            if shown < heat.regions().len() {
                let _ = writeln!(
                    out,
                    "({} cooler regions not shown; raise --top)",
                    heat.regions().len() - shown
                );
            }
        }
    }
    if session.config.policy.is_adaptive() {
        let _ = writeln!(
            out,
            "prefetch: {} subpages ({} bytes) predicted, {} subpages ({} bytes) never touched",
            totals.prefetched_subpages,
            totals.prefetched_bytes,
            totals.wasted_subpages,
            totals.wasted_bytes
        );
    }
    if let Some(path) = &json_out {
        write_file(path, &heat_json(&heat))?;
        let _ = writeln!(out, "heat json: {}", path.display());
    }
    if let Some(path) = &perfetto_out {
        write_file(path, &heat_perfetto(&heat, top))?;
        let _ = writeln!(out, "heat counters: {}", path.display());
    }
    Ok(out)
}

/// Extracts `--tolerance` (a percentage) or uses the default.
fn parse_tolerance(args: &mut Args, default: f64) -> Result<f64, CliError> {
    match args.take_value("--tolerance") {
        Some(t) => {
            let v: f64 = t
                .parse()
                .map_err(|_| err(format!("bad --tolerance '{t}'")))?;
            if v < 0.0 || !v.is_finite() {
                return Err(err("--tolerance must be a non-negative percentage"));
            }
            Ok(v)
        }
        None => Ok(default),
    }
}

/// Flattens a JSON document into dotted-path → number cells, skipping
/// non-numeric leaves.
fn flatten_cells(doc: &JsonValue) -> BTreeMap<String, f64> {
    fn walk(v: &JsonValue, path: &str, out: &mut BTreeMap<String, f64>) {
        if let Some(members) = v.as_object() {
            // A repeated key's last member wins, as `JsonValue::get` reads it.
            let last: BTreeMap<&str, &JsonValue> = members.iter().map(|(k, v)| (&**k, v)).collect();
            for (k, val) in last {
                let p = if path.is_empty() {
                    k.to_owned()
                } else {
                    format!("{path}.{k}")
                };
                walk(val, &p, out);
            }
        } else if let Some(arr) = v.as_array() {
            for (i, val) in arr.iter().enumerate() {
                walk(val, &format!("{path}[{i}]"), out);
            }
        } else if let Some(n) = v.as_f64() {
            out.insert(path.to_owned(), n);
        }
    }
    let mut out = BTreeMap::new();
    walk(doc, "", &mut out);
    out
}

/// Reduces a raw Perfetto trace to comparable cells: span count and
/// busy time per `(node, track)`, and instant counts per kind.
fn trace_cells(doc: &JsonValue) -> Result<BTreeMap<String, f64>, CliError> {
    let events = doc
        .get("traceEvents")
        .and_then(JsonValue::as_array)
        .ok_or_else(|| err("no traceEvents array (is this a Perfetto trace?)"))?;
    let mut out = BTreeMap::new();
    for e in events {
        let pid = e.get("pid").and_then(JsonValue::as_u64).unwrap_or(0);
        match e.get("ph").and_then(JsonValue::as_str) {
            Some("X") => {
                let tid = e.get("tid").and_then(JsonValue::as_u64).unwrap_or(0) as usize;
                let track = NetResource::ALL.get(tid).map_or("app", |r| r.label());
                let dur = e.get("dur").and_then(JsonValue::as_f64).unwrap_or(0.0);
                *out.entry(format!("span.n{pid}.{track}.count"))
                    .or_insert(0.0) += 1.0;
                *out.entry(format!("span.n{pid}.{track}.busy_us"))
                    .or_insert(0.0) += dur;
            }
            Some("i") => {
                let name = e.get("name").and_then(JsonValue::as_str).unwrap_or("?");
                *out.entry(format!("instant.{name}.count")).or_insert(0.0) += 1.0;
            }
            _ => {}
        }
    }
    Ok(out)
}

/// Cells `diff-bench` reports but never gates on: ratios derived from
/// the gated time cells (they amplify small absolute wobbles into huge
/// relative swings — a tracing overhead moving 5% -> 15% of runtime is
/// a 67% relative delta on an absolute drift the ms cells bound at a
/// few percent), and environment facts like the worker count that
/// legitimately differ between a laptop baseline and a CI runner
/// (`jobs` — and with it the sweep-scaling wall-clock cell, whose
/// value depends entirely on how many cores the host offers).
const INFORMATIONAL_CELLS: [&str; 6] = [
    "overhead_pct",
    "speedup",
    "jobs",
    "jobs_secs",
    // The replicated-cluster wall-clock and its derived ratio: same
    // treatment as the other new timing cells and ratios above. The
    // section's `replica_writes` and `sim_makespan_ms` leaves are
    // deterministic simulated outputs and stay gated.
    "replicated_ms_per_run",
    "replication_overhead_pct",
];

/// Per-cell gating rules layered over a diff's default tolerance.
struct CellGates<'a> {
    /// Leaves reported but never gated (see [`INFORMATIONAL_CELLS`]).
    informational: &'a [&'a str],
    /// `(leaf, ceiling)` pairs gated on the *fresh* document's absolute
    /// value instead of the relative delta. The full-recorder
    /// `overhead_pct` swings too wildly to gate relatively, but the
    /// bounded flight recorder makes a hard promise — stay cheap — that
    /// an absolute ceiling can hold whatever the baseline measured.
    ceilings: &'a [(&'a str, f64)],
    /// `(suffix, pct)`: leaves ending in the suffix use this tolerance
    /// instead of the default. The far-tail percentile cells are
    /// deterministic simulated values, not wall-clock measurements, so
    /// they get a much tighter gate than the timing cells.
    suffix_tolerance: &'a [(&'a str, f64)],
}

impl CellGates<'_> {
    /// `diff-trace` rules: every numeric cell gated at the default.
    const NONE: CellGates<'static> = CellGates {
        informational: &[],
        ceilings: &[],
        suffix_tolerance: &[],
    };

    /// `diff-bench` rules: the CI perf gate.
    const BENCH: CellGates<'static> = CellGates {
        informational: &INFORMATIONAL_CELLS,
        ceilings: &[("flight_overhead_pct", 5.0), ("heat_overhead_pct", 5.0)],
        suffix_tolerance: &[("p99_9_us", 1.0), ("p99_99_us", 1.0)],
    };
}

/// `gms-sim diff-trace` / `diff-bench`: compares the numeric cells of
/// two JSON documents and fails (non-zero exit) when any moved by more
/// than `tolerance_pct` percent.
fn diff_command(
    a: &Path,
    b: &Path,
    tolerance_pct: f64,
    full: bool,
    gates: &CellGates<'_>,
) -> Result<String, CliError> {
    let text_a = read_json(a)?;
    let doc_a = parse_json(a, &text_a)?;
    let text_b = read_json(b)?;
    let doc_b = parse_json(b, &text_b)?;
    let (cells_a, cells_b) = if full {
        (trace_cells(&doc_a)?, trace_cells(&doc_b)?)
    } else {
        (flatten_cells(&doc_a), flatten_cells(&doc_b))
    };

    let mut out = String::new();
    let mut violations: Vec<String> = Vec::new();
    let mut compared = 0usize;
    for (key, &va) in &cells_a {
        // A cell absent from B counts as 0 — a 100% delta, so it fails
        // any tolerance below 100 rather than unconditionally.
        let vb = cells_b.get(key).copied();
        let leaf = key.rsplit('.').next().unwrap_or(key);
        if gates.informational.contains(&leaf) {
            let shown = vb.map_or_else(|| "missing".to_string(), |v| v.to_string());
            let _ = writeln!(out, "info: {key}: {va} -> {shown} (not gated)");
            continue;
        }
        if gates.ceilings.iter().any(|(l, _)| *l == leaf) {
            // Gated absolutely from the fresh document, below — but a
            // ceiling cell the baseline had must not silently vanish.
            if vb.is_none() {
                compared += 1;
                violations.push(format!("{key}: missing in {}", b.display()));
            }
            continue;
        }
        compared += 1;
        let cell_tolerance = gates
            .suffix_tolerance
            .iter()
            .find(|(suffix, _)| leaf.ends_with(suffix))
            .map_or(tolerance_pct, |&(_, pct)| pct);
        let vb_num = vb.unwrap_or(0.0);
        let denom = va.abs().max(vb_num.abs());
        if denom == 0.0 {
            continue;
        }
        // Symmetric relative delta: robust when the baseline cell is
        // (near) zero.
        let delta = (vb_num - va).abs() / denom * 100.0;
        if delta > cell_tolerance {
            let shown = vb.map_or_else(|| format!("missing in {}", b.display()), |v| v.to_string());
            violations.push(format!(
                "{key}: {va} -> {shown} ({}{delta:.1}%, tolerance {cell_tolerance}%)",
                if vb_num >= va { "+" } else { "-" }
            ));
        }
    }
    // Absolute ceilings gate the *fresh* document alone: the promise
    // ("this overhead stays under N") holds regardless of what — or
    // whether — the baseline measured.
    for (key, &vb) in &cells_b {
        let leaf = key.rsplit('.').next().unwrap_or(key);
        if let Some(&(_, ceiling)) = gates.ceilings.iter().find(|(l, _)| *l == leaf) {
            compared += 1;
            if vb > ceiling {
                violations.push(format!(
                    "{key}: {vb} exceeds the absolute ceiling {ceiling}"
                ));
            } else {
                let _ = writeln!(out, "ok: {key}: {vb} under the absolute ceiling {ceiling}");
            }
        }
    }
    for key in cells_b.keys().filter(|k| !cells_a.contains_key(*k)) {
        let leaf = key.rsplit('.').next().unwrap_or(key);
        if gates.ceilings.iter().any(|(l, _)| *l == leaf) {
            continue;
        }
        let _ = writeln!(out, "note: {key} only in {}", b.display());
    }
    if violations.is_empty() {
        let _ = writeln!(
            out,
            "diff OK: {compared} cells within {tolerance_pct}% ({} vs {})",
            a.display(),
            b.display()
        );
        Ok(out)
    } else {
        Err(err(format!(
            "{} of {compared} cells moved beyond {tolerance_pct}%:\n  {}",
            violations.len(),
            violations.join("\n  ")
        )))
    }
}

/// Reads the text of a JSON document, for [`parse_json`] to borrow.
fn read_json(path: &Path) -> Result<String, CliError> {
    std::fs::read_to_string(path).map_err(|e| err(format!("cannot read {}: {e}", path.display())))
}

/// Parses the text [`read_json`] read from `path`.
fn parse_json<'a>(path: &Path, text: &'a str) -> Result<JsonValue<'a>, CliError> {
    JsonValue::parse(text).map_err(|e| err(format!("{}: invalid JSON: {e}", path.display())))
}

/// Every instant-event kind the simulator emits. `check-trace` rejects
/// anything else, so a renamed or misspelled event breaks loudly here
/// rather than silently vanishing from downstream tooling.
pub const INSTANT_KINDS: [&str; 16] = [
    "fault",
    "getpage",
    "restart",
    "arrival",
    "putpage",
    "timeout",
    "retry",
    "failover",
    "node-down",
    "node-up",
    "degraded-fetch",
    "policy-decision",
    "prefetch",
    "replica-write",
    "repair",
    "directory-rebuild",
];

/// A `check-trace` validator: checks one parsed document and returns
/// the detail of its OK line. The heat validator also receives the
/// summary document checked earlier in the same invocation.
type Validator = fn(&JsonValue, Option<&JsonValue>) -> Result<String, String>;

/// `check-trace`'s inputs in the order they are checked: flag, the
/// artifact's name in the OK line, and its validator.
const VALIDATORS: [(&str, &str, Validator); 6] = [
    ("--trace", "trace", check_trace_events),
    ("--summary", "summary", check_summary),
    ("--metrics", "metrics", check_metrics),
    ("--attrib", "attrib", check_attrib),
    ("--exemplars", "exemplars", check_exemplars),
    ("--heat", "heat", check_heat),
];

/// Validates exported trace/summary/metrics/attribution/exemplar/heat
/// files by re-parsing them, the same check CI's smoke step runs. Each
/// error names the file it is about.
fn check_trace_command(mut args: Args) -> Result<String, CliError> {
    let paths: Vec<Option<PathBuf>> = VALIDATORS
        .iter()
        .map(|&(flag, ..)| args.path(flag))
        .collect();
    args.finish()?;
    if paths.iter().all(Option::is_none) {
        return Err(err(
            "check-trace needs --trace, --summary, --metrics, --attrib, --exemplars \
             and/or --heat",
        ));
    }
    let mut out = String::new();
    // The heat validator, later in `VALIDATORS`, reads the parsed
    // summary, so the summary's text outlives its iteration.
    let summary_text = OnceCell::new();
    let mut summary = None;
    for (&(_, name, validate), path) in VALIDATORS.iter().zip(&paths) {
        let Some(path) = path else { continue };
        let text = read_json(path)?;
        let checked = if name == "summary" {
            let doc = parse_json(path, summary_text.get_or_init(|| text))?;
            let checked = validate(&doc, None);
            summary = Some(doc);
            checked
        } else {
            validate(&parse_json(path, &text)?, summary.as_ref())
        };
        let detail = checked.map_err(|e| err(format!("{}: {e}", path.display())))?;
        let _ = writeln!(out, "{name} OK: {} ({detail})", path.display());
    }
    Ok(out)
}

/// A required field of a checked document: `v[key]` converted by
/// `as_`, or an error naming it as `<what>.<key>` (just `<key>` at the
/// document's top level, where `what` is empty).
fn field<'a, 'j, T>(
    v: &'a JsonValue<'j>,
    what: &str,
    key: &str,
    as_: fn(&'a JsonValue<'j>) -> Option<T>,
) -> Result<T, String> {
    v.get(key).and_then(as_).ok_or_else(|| {
        let dot = if what.is_empty() { "" } else { "." };
        format!("{what}{dot}{key} missing or malformed")
    })
}

/// A required integer field (see [`field`]).
fn int(v: &JsonValue, what: &str, key: &str) -> Result<u64, String> {
    field(v, what, key, JsonValue::as_u64)
}

/// Checks the document's `schema` tag against the accepted ones.
fn check_schema(doc: &JsonValue, accepted: &[&str]) -> Result<(), String> {
    let schema = doc.get("schema").and_then(JsonValue::as_str);
    if schema.is_some_and(|s| accepted.contains(&s)) {
        return Ok(());
    }
    let accepted: Vec<String> = accepted.iter().map(|s| format!("{s:?}")).collect();
    Err(format!(
        "schema {schema:?}, expected {}",
        accepted.join(" or ")
    ))
}

/// A Perfetto trace: known phases, a pid on every event, and only
/// allowlisted instant kinds.
fn check_trace_events(doc: &JsonValue, _: Option<&JsonValue>) -> Result<String, String> {
    let events = field(doc, "", "traceEvents", JsonValue::as_array)?;
    let mut spans = 0;
    for (i, e) in events.iter().enumerate() {
        let ph = e.get("ph").and_then(JsonValue::as_str);
        if !matches!(ph, Some("X" | "i" | "M")) {
            return Err(format!("event {i} has unexpected phase {ph:?}"));
        }
        if e.get("pid").and_then(JsonValue::as_u64).is_none() {
            return Err(format!("event {i} has no pid"));
        }
        if ph == Some("i") {
            let name = e.get("name").and_then(JsonValue::as_str);
            if !name.is_some_and(|n| INSTANT_KINDS.contains(&n)) {
                return Err(format!("event {i} has unknown instant kind {name:?}"));
            }
        }
        spans += usize::from(ph == Some("X"));
    }
    Ok(format!("{} events, {spans} spans", events.len()))
}

/// A summary: the percentile key lists come from the same lists the
/// writer iterates, so neither side can drift from the other.
fn check_summary(doc: &JsonValue, _: Option<&JsonValue>) -> Result<String, String> {
    check_schema(doc, &[SUMMARY_SCHEMA])?;
    let wait = field(doc, "", "page_wait", Some)?;
    let tail = field(doc, "", "tail", Some)?;
    for (v, what, percentiles) in [
        (wait, "page_wait", &WAIT_PERCENTILES[..]),
        (tail, "tail", &TAIL_PERCENTILES[..]),
    ] {
        for key in std::iter::once("count")
            .chain(percentiles.iter().map(|&(key, _)| key))
            .chain(std::iter::once("max_ns"))
        {
            int(v, what, key)?;
        }
    }
    field(tail, "tail", "rel_err", JsonValue::as_f64)?;
    field(doc, "", "counters", JsonValue::as_object)?;
    if let Some(slo) = doc.get("slo") {
        check_slo_object(slo, "slo")?;
    }
    let kind = doc.get("kind").and_then(JsonValue::as_str).unwrap_or("?");
    Ok(format!("kind {kind}"))
}

/// A gms-metrics/v1 document: integer counters and utilizations in
/// `[0, 1]` in every window.
fn check_metrics(doc: &JsonValue, _: Option<&JsonValue>) -> Result<String, String> {
    check_schema(doc, &[METRICS_SCHEMA])?;
    let window_ns = int(doc, "", "window_ns")?;
    if window_ns == 0 {
        return Err("bad window_ns".to_owned());
    }
    let windows = field(doc, "", "windows", JsonValue::as_array)?;
    for (i, w) in windows.iter().enumerate() {
        let what = format!("window {i}");
        for key in ["t_ns", "faults", "restarts", "retries", "wait_count"] {
            int(w, &what, key)?;
        }
        for r in NetResource::ALL {
            let key = format!("util_{}", r.label().replace('-', "_"));
            let u = field(w, &what, &key, JsonValue::as_f64)?;
            if !(0.0..=1.0 + 1e-9).contains(&u) {
                return Err(format!("{what} {key} = {u} out of [0, 1]"));
            }
        }
    }
    Ok(format!("{} windows of {window_ns} ns", windows.len()))
}

/// A gms-attrib/v1 document: queue + service reproduce the total wait,
/// and so do the components.
fn check_attrib(doc: &JsonValue, _: Option<&JsonValue>) -> Result<String, String> {
    check_schema(doc, &[ATTRIB_SCHEMA])?;
    let totals = field(doc, "", "totals", Some)?;
    let faults = int(totals, "totals", "faults")?;
    let total = int(totals, "totals", "total_wait_ns")?;
    let queue = int(totals, "totals", "queue_ns")?;
    let service = int(totals, "totals", "service_ns")?;
    if queue + service != total {
        return Err(format!(
            "queue_ns {queue} + service_ns {service} != total_wait_ns {total}"
        ));
    }
    let mut sum = 0u64;
    for (i, c) in field(doc, "", "components", JsonValue::as_array)?
        .iter()
        .enumerate()
    {
        let what = format!("component {i}");
        sum += int(c, &what, "queue_ns")? + int(c, &what, "service_ns")?;
    }
    if sum != total {
        return Err(format!("components sum to {sum} ns, totals say {total} ns"));
    }
    Ok(format!("{faults} faults, conserved"))
}

/// A gms-explain/v1 document: per-node tallies partition the totals,
/// each node's windows partition the node, the per-node violations,
/// per-class counts and overall SLO object agree, and each exemplar's
/// Table-2 components sum to its recorded wait — the conservation
/// invariant `explain` promises. Sums are taken in `u128`, so no
/// document can overflow them.
fn check_exemplars(doc: &JsonValue, _: Option<&JsonValue>) -> Result<String, String> {
    check_schema(doc, &[EXPLAIN_SCHEMA])?;
    let totals = field(doc, "", "totals", Some)?;
    let faults = int(totals, "totals", "faults")?;
    let wait = int(totals, "totals", "wait_ns")?;
    let retained = int(totals, "totals", "retained")?;
    let slo = field(doc, "", "slo", Some)?;
    check_slo_object(slo, "slo")?;
    let (slo_faults, slo_under) = (int(slo, "slo", "faults")?, int(slo, "slo", "under")?);
    // The SLO accounting covers every fault, not just the retained ones.
    let mut node_sums = [0u128; 3];
    let mut window_error = None;
    for (i, n) in field(doc, "", "nodes", JsonValue::as_array)?
        .iter()
        .enumerate()
    {
        let what = format!("node {i}");
        let node = [
            int(n, &what, "faults")?,
            int(n, &what, "violations")?,
            int(n, &what, "wait_ns")?,
        ];
        let mut window_sums = [0u128; 3];
        for (j, w) in field(n, &what, "windows", JsonValue::as_array)?
            .iter()
            .enumerate()
        {
            let wf = w.get("faults").and_then(JsonValue::as_u64);
            let wv = w.get("violations").and_then(JsonValue::as_u64);
            let (wf, wv) = match (wf, wv) {
                (Some(wf), Some(wv)) if wv <= wf => (wf, wv),
                _ => {
                    return Err(format!(
                        "{what} window {j} has malformed fault/violation counts"
                    ))
                }
            };
            let ww = int(w, &format!("{what} window {j}"), "wait_ns")?;
            for (sum, v) in window_sums.iter_mut().zip([wf, wv, ww]) {
                *sum += u128::from(v);
            }
        }
        if window_error.is_none() && window_sums != node.map(u128::from) {
            window_error = Some(format!(
                "{what} windows sum to {window_sums:?} (faults, violations, wait_ns), \
                 the node says {node:?}"
            ));
        }
        for (sum, v) in node_sums.iter_mut().zip(node) {
            *sum += u128::from(v);
        }
    }
    let [node_faults, node_violations, node_wait] = node_sums;
    if node_faults != u128::from(faults) || node_wait != u128::from(wait) {
        return Err(format!(
            "node tallies ({node_faults} faults, {node_wait} ns) do not partition \
             totals ({faults} faults, {wait} ns)"
        ));
    }
    if let Some(e) = window_error {
        return Err(e);
    }
    if slo_faults != faults {
        return Err(format!("slo.faults {slo_faults} != totals.faults {faults}"));
    }
    if node_violations != u128::from(slo_faults - slo_under) {
        return Err(format!(
            "node violations sum to {node_violations}, but slo counts {} faults over \
             its threshold",
            slo_faults - slo_under
        ));
    }
    let (mut class_faults, mut class_under) = (0u128, 0u128);
    for (i, c) in field(doc, "", "classes", JsonValue::as_array)?
        .iter()
        .enumerate()
    {
        let what = format!("class {i}");
        class_faults += u128::from(int(c, &what, "faults")?);
        class_under += u128::from(int(c, &what, "under")?);
    }
    if class_faults != u128::from(faults) || class_under != u128::from(slo_under) {
        return Err(format!(
            "classes sum to {class_faults} faults, {class_under} under; totals say \
             {faults} faults, slo says {slo_under} under"
        ));
    }
    let list = field(doc, "", "exemplars", JsonValue::as_array)?;
    if list.len() as u64 != retained {
        return Err(format!(
            "{} exemplars but totals.retained = {retained}",
            list.len()
        ));
    }
    for (i, ex) in list.iter().enumerate() {
        let what = format!("exemplar {i}");
        let wait = int(ex, &what, "wait_ns")?;
        let components = field(ex, &what, "components", Some)?;
        let within = format!("{what}.components");
        let mut sum = 0u64;
        for key in [
            "queue_ns",
            "service_ns",
            "transit_ns",
            "retry_ns",
            "disk_ns",
            "stall_ns",
        ] {
            sum += int(components, &within, key)?;
        }
        if sum != wait {
            return Err(format!(
                "{what} components sum to {sum} ns but wait_ns is {wait}"
            ));
        }
    }
    Ok(format!("{retained} of {faults} faults retained, conserved"))
}

/// A faults object's class counts (remote, disk, lazy, degraded) and
/// total, which the counts must sum to.
fn fault_counts(v: &JsonValue, what: &str) -> Result<[u64; 5], String> {
    let f = field(v, what, "faults", Some)?;
    let within = format!("{what}.faults");
    let mut counts = [0u64; 5];
    for (count, key) in counts
        .iter_mut()
        .zip(["remote", "disk", "lazy", "degraded", "total"])
    {
        *count = int(f, &within, key)?;
    }
    let classes: u64 = counts[..4].iter().sum();
    if classes != counts[4] {
        return Err(format!(
            "{what} fault classes sum to {classes}, total says {}",
            counts[4]
        ));
    }
    Ok(counts)
}

/// A gms-heat/v1 document: region rows partition the totals field by
/// field, first touches + refaults partition the faults, per-node
/// tallies agree — and, given a summary in the same invocation, the
/// heat totals reproduce the engine's own counters.
fn check_heat(doc: &JsonValue, summary: Option<&JsonValue>) -> Result<String, String> {
    check_schema(doc, &[HEAT_SCHEMA])?;
    let region_pages = int(doc, "", "region_pages")?;
    if !region_pages.is_power_of_two() {
        return Err("region_pages missing or not a power of two".to_owned());
    }
    if int(doc, "", "quantum_ns")? == 0 {
        return Err("bad quantum_ns".to_owned());
    }
    let totals = field(doc, "", "totals", Some)?;
    let total_faults = fault_counts(totals, "totals")?;
    let total_first = int(totals, "totals", "first_touches")?;
    let total_refaults = int(totals, "totals", "refaults")?;
    if total_first + total_refaults != total_faults[4] {
        return Err(format!(
            "totals first_touches {total_first} + refaults {total_refaults} != faults {}",
            total_faults[4]
        ));
    }
    // Region rows must partition the totals exactly, field by field —
    // the heat map's conservation promise.
    const SUM_KEYS: [&str; 8] = [
        "first_touches",
        "refaults",
        "subpage_arrivals",
        "prefetched_subpages",
        "prefetched_bytes",
        "wasted_subpages",
        "wasted_bytes",
        "replica_writes",
    ];
    let regions = field(doc, "", "regions", JsonValue::as_array)?;
    let mut sum_faults = [0u64; 5];
    let mut sums = [0u64; 8];
    for (i, r) in regions.iter().enumerate() {
        let what = format!("region {i}");
        let rf = fault_counts(r, &what)?;
        for (s, v) in sum_faults.iter_mut().zip(rf) {
            *s += v;
        }
        for (slot, key) in sums.iter_mut().zip(SUM_KEYS) {
            *slot += int(r, &what, key)?;
        }
        let first = int(r, &what, "first_touches")?;
        let refaults = int(r, &what, "refaults")?;
        if first + refaults != rf[4] {
            return Err(format!(
                "{what} first_touches {first} + refaults {refaults} != faults {}",
                rf[4]
            ));
        }
        let sketch = field(r, &what, "refault_ns", Some)?;
        let count = int(sketch, &format!("{what}.refault_ns"), "count")?;
        if count != refaults {
            return Err(format!(
                "{what} refault_ns.count {count} != refaults {refaults}"
            ));
        }
    }
    if sum_faults != total_faults {
        return Err(format!(
            "region faults sum to {sum_faults:?}, totals say {total_faults:?}"
        ));
    }
    for (key, &sum) in SUM_KEYS.iter().zip(&sums) {
        let total = int(totals, "totals", key)?;
        if sum != total {
            return Err(format!("region {key} sum to {sum}, totals say {total}"));
        }
    }
    // Per-node rows carry the counters regions cannot (repairs, wire
    // time); their fault tallies must agree with the totals.
    let (mut node_faults, mut node_repl, mut node_repairs) = (0u64, 0u64, 0u64);
    for (i, n) in field(doc, "", "nodes", JsonValue::as_array)?
        .iter()
        .enumerate()
    {
        let what = format!("node {i}");
        node_faults += int(n, &what, "faults")?;
        node_repl += int(n, &what, "replica_writes")?;
        node_repairs += int(n, &what, "repairs")?;
        int(n, &what, "wire_busy_ns")?;
    }
    if node_faults != total_faults[4] {
        return Err(format!(
            "node faults sum to {node_faults}, totals say {}",
            total_faults[4]
        ));
    }
    if node_repl != sums[7] || node_repairs != int(totals, "totals", "repairs")? {
        return Err("node replica/repair tallies do not match totals".to_owned());
    }
    // The summary validator has already required its counters object;
    // every summary carries each of these keys.
    if let Some(counters) = summary.and_then(|s| s.get("counters")) {
        for (key, heat_val) in [
            ("faults_remote", total_faults[0]),
            ("faults_disk", total_faults[1]),
            ("faults_lazy_subpage", total_faults[2]),
            ("faults_degraded", total_faults[3]),
            ("prefetched_subpages", sums[3]),
            ("mispredicted_prefetch_bytes", sums[6]),
        ] {
            let v = int(counters, "summary.counters", key)?;
            if v != heat_val {
                return Err(format!(
                    "heat counts {heat_val} for {key}, summary says {v}"
                ));
            }
        }
    }
    Ok(format!(
        "{} regions of {region_pages} pages, {} faults, conserved",
        regions.len(),
        total_faults[4]
    ))
}

/// Validates an SLO attainment object: integer threshold and counts
/// with `under <= faults`, and an attainment fraction in `[0, 1]`.
fn check_slo_object(slo: &JsonValue, what: &str) -> Result<(), String> {
    int(slo, what, "threshold_ns")?;
    let faults = int(slo, what, "faults")?;
    let under = int(slo, what, "under")?;
    if under > faults {
        return Err(format!(
            "{what}.under {under} exceeds {what}.faults {faults}"
        ));
    }
    let attainment = field(slo, what, "attainment", JsonValue::as_f64)?;
    if !(0.0..=1.0).contains(&attainment) {
        return Err(format!("{what}.attainment {attainment} out of [0, 1]"));
    }
    Ok(())
}

fn latency_command(subpage: Bytes) -> String {
    let page = Bytes::kib(8);
    let mut out = String::new();
    // One fault on a fresh two-node network: node 0 requests, node 1
    // serves, every resource idle.
    let lone = |plan: &TransferPlan| {
        ClusterNetwork::new(NetParams::paper(), 2).fault(
            SimTime::ZERO,
            NodeId::new(0),
            NodeId::new(1),
            plan,
        )
    };
    let full = lone(&TransferPlan::fullpage(page));
    let _ = writeln!(
        out,
        "fullpage 8K: restart {:.2} ms",
        full.restart_latency().as_millis_f64()
    );
    if subpage < page {
        let fault = lone(&TransferPlan::eager(page, subpage));
        let _ = writeln!(
            out,
            "eager {}: restart {:.2} ms, page complete {:.2} ms, overlap window {:.2} ms",
            subpage,
            fault.restart_latency().as_millis_f64(),
            fault.completion_latency().as_millis_f64(),
            fault.overlap_window().as_millis_f64()
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_policies() {
        assert_eq!(parse_policy("disk").unwrap(), FetchPolicy::disk());
        assert_eq!(parse_policy("p_8192").unwrap(), FetchPolicy::fullpage());
        assert_eq!(
            parse_policy("sp_1024").unwrap(),
            FetchPolicy::eager(SubpageSize::S1K)
        );
        assert_eq!(
            parse_policy("pl_2048").unwrap(),
            FetchPolicy::pipelined(SubpageSize::S2K)
        );
        assert_eq!(
            parse_policy("lazy_512").unwrap(),
            FetchPolicy::lazy(SubpageSize::S512)
        );
        assert!(parse_policy("bogus").is_err());
        assert!(parse_policy("sp_banana").is_err());
    }

    #[test]
    fn parses_adaptive_and_suffixed_policies() {
        assert_eq!(
            parse_policy("leap_1024").unwrap(),
            FetchPolicy::leap(SubpageSize::S1K)
        );
        assert_eq!(
            parse_policy("indigo_2048").unwrap(),
            FetchPolicy::indigo(SubpageSize::S2K)
        );
        assert_eq!(
            parse_policy("disk_8192_seq").unwrap(),
            FetchPolicy::Disk {
                pattern: AccessPattern::Sequential
            }
        );
        assert_eq!(
            parse_policy("pl_1024_asc").unwrap(),
            FetchPolicy::PipelinedSubpage {
                subpage: SubpageSize::S1K,
                strategy: PipelineStrategy::Ascending,
                recv_overhead: RecvOverhead::Zero,
            }
        );
        assert_eq!(
            parse_policy("pl_1024_half_mrecv").unwrap(),
            FetchPolicy::PipelinedSubpage {
                subpage: SubpageSize::S1K,
                strategy: PipelineStrategy::AdaptiveHalf,
                recv_overhead: RecvOverhead::Measured,
            }
        );
    }

    #[test]
    fn bad_sizes_error_instead_of_panicking() {
        // Sizes the typed constructors would panic on come back as
        // errors from the parser.
        for label in [
            "sp_1000",
            "sp_0",
            "sp_32",
            "pl_999_asc",
            "lazy_16384",
            "leap_63",
            "indigo_100",
            "small_100",
            "small_256",
            "small_999999999999",
        ] {
            assert!(parse_policy(label).is_err(), "{label} must not parse");
        }
    }

    #[test]
    fn policy_labels_round_trip_over_the_full_axis() {
        // Satellite: every label() the simulator can print parses back
        // to the same policy — the whole policy axis, not just the
        // paper's five.
        let sizes = [
            SubpageSize::S256,
            SubpageSize::S512,
            SubpageSize::S1K,
            SubpageSize::S2K,
            SubpageSize::S4K,
        ];
        let mut policies = vec![
            FetchPolicy::disk(),
            FetchPolicy::Disk {
                pattern: AccessPattern::Sequential,
            },
            FetchPolicy::fullpage(),
            FetchPolicy::SmallPages {
                page: PageSize::new(Bytes::new(4096)),
            },
            FetchPolicy::SmallPages {
                page: PageSize::new(Bytes::new(512)),
            },
        ];
        for size in sizes {
            policies.push(FetchPolicy::eager(size));
            policies.push(FetchPolicy::lazy(size));
            policies.push(FetchPolicy::leap(size));
            policies.push(FetchPolicy::indigo(size));
            for strategy in [
                PipelineStrategy::NeighborsFirst,
                PipelineStrategy::Ascending,
                PipelineStrategy::DoubledFollowOn,
                PipelineStrategy::AdaptiveHalf,
            ] {
                for recv_overhead in [RecvOverhead::Zero, RecvOverhead::Measured] {
                    policies.push(FetchPolicy::PipelinedSubpage {
                        subpage: size,
                        strategy,
                        recv_overhead,
                    });
                }
            }
        }
        for policy in policies {
            let label = policy.label();
            assert_eq!(
                parse_policy(&label).unwrap(),
                policy,
                "label '{label}' did not round-trip"
            );
        }
    }

    #[test]
    fn parses_memory_and_net() {
        assert_eq!(parse_memory("half").unwrap(), MemoryConfig::Half);
        assert_eq!(parse_memory("37").unwrap(), MemoryConfig::Frames(37));
        assert!(parse_memory("lots").is_err());
        assert!(parse_net("atm").is_ok());
        assert!(parse_net("ethernet").is_ok());
        assert!(parse_net("warp").is_err());
        assert!(parse_replacement("clock").is_ok());
        assert!(parse_replacement("mru").is_err());
    }

    #[test]
    fn apps_command_lists_all_five() {
        let out = execute(&argv("apps")).unwrap();
        for name in ["modula3", "ld", "atom", "render", "gdb"] {
            assert!(out.contains(name), "{out}");
        }
    }

    #[test]
    fn run_command_produces_a_report() {
        let out = execute(&argv(
            "run --app gdb --policy sp_1024 --memory quarter --scale 0.3",
        ))
        .unwrap();
        assert!(out.contains("sp_1024"), "{out}");
        assert!(out.contains("decomposition"), "{out}");
    }

    #[test]
    fn run_command_rejects_unknown_flags() {
        let result = execute(&argv("run --app gdb --policy sp_1024 --frobnicate yes"));
        assert!(result.is_err());
    }

    #[test]
    fn simulating_commands_take_only_their_own_flags() {
        // The shared parser takes a simulation flag only for the
        // commands that document it: replicas on cluster, --pal off
        // cluster, and --threads and the retry-ladder flags on none.
        let serial = "--app gdb --policy sp_1024 --scale 0.05";
        let mut lines = vec![
            format!("run {serial} --replicas 2"),
            format!("run {serial} --repair-rate 1000"),
            "cluster --nodes 5 --active 2 --scale 0.05 --pal".to_owned(),
            format!("profile {serial} --nodes 5 --active 2 --threads 2"),
            "cluster --nodes 5 --active 2 --scale 0.05 --threads 2".to_owned(),
        ];
        let retry_flags = [
            "--max-fetch-attempts 3",
            "--max-putpage-attempts 3",
            "--backoff-divisor 4",
            "--backoff-cap 8",
        ];
        for flag in retry_flags {
            lines.push(format!("run {serial} {flag}"));
            lines.push(format!("cluster --nodes 5 --active 2 --scale 0.05 {flag}"));
        }
        for cmd in ["profile", "explain", "heat"] {
            for flag in retry_flags
                .iter()
                .chain(&["--replicas 2", "--repair-rate 1000"])
            {
                lines.push(format!("{cmd} {serial} {flag}"));
                lines.push(format!("{cmd} {serial} --nodes 5 --active 2 {flag}"));
            }
        }
        for line in &lines {
            let e = execute(&argv(line)).expect_err(line);
            assert!(
                e.to_string().starts_with("unrecognized arguments"),
                "{line}: {e}"
            );
        }
    }

    #[test]
    fn missing_required_flag_errors() {
        assert!(execute(&argv("run --policy sp_1024")).is_err());
        assert!(execute(&argv("run --app gdb")).is_err());
    }

    #[test]
    fn latency_command_matches_table2() {
        let out = execute(&argv("latency --subpage 1024")).unwrap();
        assert!(out.contains("restart 0.5"), "{out}");
        assert!(out.contains("fullpage 8K: restart 1.52"), "{out}");
    }

    #[test]
    fn sweep_command_runs_grid() {
        let out = execute(&argv("sweep --app gdb --scale 0.2")).unwrap();
        assert!(out.contains("full-mem"), "{out}");
        assert!(out.contains("fastest:"), "{out}");
    }

    #[test]
    fn sweep_jobs_flag_is_validated_and_output_identical() {
        assert!(execute(&argv("sweep --app gdb --jobs zero")).is_err());
        assert!(execute(&argv("sweep --app gdb --jobs 0")).is_err());
        let serial = execute(&argv("sweep --app gdb --scale 0.1 --jobs 1")).unwrap();
        let parallel = execute(&argv("sweep --app gdb --scale 0.1 --jobs 4")).unwrap();
        assert_eq!(serial, parallel);
        assert!(default_jobs() >= 1);
    }

    #[test]
    fn cluster_command_reports_every_active_node() {
        let out = execute(&argv("cluster --nodes 4 --active 2 --app gdb --scale 0.1")).unwrap();
        assert!(out.contains("2 active node(s)"), "{out}");
        assert!(out.contains("node0:"), "{out}");
        assert!(out.contains("node1:"), "{out}");
        assert!(out.contains("wire util"), "{out}");
        assert!(out.contains("mean page wait per node"), "{out}");
    }

    #[test]
    fn cluster_command_validates_topology() {
        assert!(execute(&argv("cluster --nodes 4 --active 4 --app gdb")).is_err());
        assert!(execute(&argv("cluster --nodes 4 --active 0 --app gdb")).is_err());
        assert!(execute(&argv("cluster --active 2 --app gdb")).is_err());
        assert!(execute(&argv("cluster --nodes 4 --active 2 --app no-such-app")).is_err());
        // --app is optional: the default workload is gdb.
        let out = execute(&argv("cluster --nodes 4 --active 2 --scale 0.05")).unwrap();
        assert!(out.contains("2 active node(s)"), "{out}");
    }

    #[test]
    fn fault_plan_flag_injects_and_reports_reliability() {
        let out = execute(&argv(
            "run --app gdb --policy sp_1024 --scale 0.2 --fault-plan loss=0.01,seed=7",
        ))
        .unwrap();
        assert!(out.contains("reliability:"), "{out}");
        assert!(!out.contains(" 0 retries"), "1% loss must retry: {out}");
        // Without the flag the line is absent.
        let clean = execute(&argv("run --app gdb --policy sp_1024 --scale 0.2")).unwrap();
        assert!(!clean.contains("reliability:"), "{clean}");
    }

    #[test]
    fn fault_plan_flag_rejects_bad_specs() {
        assert!(execute(&argv(
            "run --app gdb --policy sp_1024 --fault-plan loss=banana"
        ))
        .is_err());
        assert!(execute(&argv(
            "cluster --nodes 4 --active 2 --fault-plan frobnicate=1"
        ))
        .is_err());
        assert!(execute(&argv("sweep --app gdb --fault-plan crash=n1")).is_err());
    }

    #[test]
    fn cluster_fault_plan_accepts_percentage_times() {
        // The ISSUE's chaos smoke invocation: percentage times resolve
        // against the app's pure-execution horizon.
        let out = execute(&argv(
            "cluster --nodes 4 --active 2 --scale 0.1 \
             --fault-plan loss=0.01,crash=n3@25%,seed=1",
        ))
        .unwrap();
        assert!(out.contains("2 active node(s)"), "{out}");
        assert!(out.contains("reliability:"), "{out}");
    }

    #[test]
    fn cluster_replicas_flag_survives_a_crash_without_loss() {
        // The robustness tentpole's CLI face: two copies per page turn
        // a node crash into repair traffic instead of lost pages.
        let out = execute(&argv(
            "cluster --nodes 5 --active 2 --scale 0.1 --replicas 2 \
             --fault-plan crash=n3@25%",
        ))
        .unwrap();
        assert!(out.contains("0 pages lost to crashes"), "{out}");
        assert!(out.contains("replication: 2 copies"), "{out}");
        assert!(out.contains("directory rebuilds"), "{out}");
        // A clean replicated run still reports its replica writes, but
        // has no reliability line to print.
        let clean = execute(&argv(
            "cluster --nodes 5 --active 2 --scale 0.1 --replicas 2",
        ))
        .unwrap();
        assert!(!clean.contains("reliability:"), "{clean}");
        assert!(clean.contains("replication: 2 copies"), "{clean}");
    }

    #[test]
    fn cluster_single_copy_output_is_unchanged_by_the_flag() {
        // `--replicas 1` is the default spelled out: byte-identical
        // output, no replication line.
        let default = execute(&argv("cluster --nodes 4 --active 2 --scale 0.1")).unwrap();
        let explicit = execute(&argv(
            "cluster --nodes 4 --active 2 --scale 0.1 --replicas 1",
        ))
        .unwrap();
        assert_eq!(default, explicit);
        assert!(!default.contains("replication:"), "{default}");
    }

    #[test]
    fn cluster_replication_flags_validate() {
        assert!(execute(&argv("cluster --nodes 4 --active 2 --replicas 0")).is_err());
        assert!(execute(&argv("cluster --nodes 4 --active 2 --replicas two")).is_err());
        // Three copies need three idle holders; 4 nodes with 2 active
        // leave only two.
        assert!(execute(&argv("cluster --nodes 4 --active 2 --replicas 3")).is_err());
        assert!(execute(&argv(
            "cluster --nodes 4 --active 2 --replicas 2 --repair-rate 0"
        ))
        .is_err());
        assert!(execute(&argv(
            "cluster --nodes 4 --active 2 --replicas 2 --repair-rate fast"
        ))
        .is_err());
    }

    #[test]
    fn sweep_fault_plan_applies_to_every_cell() {
        let lossy = execute(&argv(
            "sweep --app gdb --scale 0.1 --fault-plan loss=0.02,seed=5",
        ))
        .unwrap();
        let clean = execute(&argv("sweep --app gdb --scale 0.1")).unwrap();
        assert_ne!(lossy, clean, "injected loss must change the grid");
    }

    #[test]
    fn check_trace_rejects_unknown_instant_kinds() {
        let bad = temp_path("unknown-kind.trace.json");
        std::fs::write(
            &bad,
            r#"{"traceEvents":[{"ph":"i","s":"t","name":"frobnicate","pid":0,"tid":5,"ts":1.000}]}"#,
        )
        .unwrap();
        let result = execute(&argv(&format!("check-trace --trace {}", bad.display())));
        let msg = result
            .expect_err("unknown kind must be rejected")
            .to_string();
        assert!(msg.contains("unknown instant kind"), "{msg}");
        // Known kinds from the allowlist pass.
        std::fs::write(
            &bad,
            r#"{"traceEvents":[{"ph":"i","s":"t","name":"degraded-fetch","pid":0,"tid":5,"ts":1.000}]}"#,
        )
        .unwrap();
        assert!(execute(&argv(&format!("check-trace --trace {}", bad.display()))).is_ok());
        // The adaptive-engine kinds are on the allowlist; a near-miss
        // spelling is not.
        for kind in ["policy-decision", "prefetch"] {
            std::fs::write(
                &bad,
                format!(
                    r#"{{"traceEvents":[{{"ph":"i","s":"t","name":"{kind}","pid":0,"tid":5,"ts":1.000}}]}}"#
                ),
            )
            .unwrap();
            assert!(
                execute(&argv(&format!("check-trace --trace {}", bad.display()))).is_ok(),
                "{kind} must be allowed"
            );
        }
        std::fs::write(
            &bad,
            r#"{"traceEvents":[{"ph":"i","s":"t","name":"policy-decisions","pid":0,"tid":5,"ts":1.000}]}"#,
        )
        .unwrap();
        assert!(execute(&argv(&format!("check-trace --trace {}", bad.display()))).is_err());
        let _ = std::fs::remove_file(&bad);
    }

    #[test]
    fn sweep_policies_flag_selects_the_axis() {
        let out = execute(&argv(
            "sweep --app gdb --scale 0.1 --policies leap_1024,indigo_1024,pl_1024",
        ))
        .unwrap();
        for label in ["leap_1024", "indigo_1024", "pl_1024"] {
            assert!(out.contains(label), "{out}");
        }
        assert!(!out.contains("sp_1024"), "{out}");
        assert!(execute(&argv("sweep --app gdb --policies leap_banana")).is_err());
    }

    #[test]
    fn adaptive_run_exports_validated_trace_and_profile() {
        // End to end: an adaptive run's trace passes check-trace (its
        // policy-decision/prefetch instants are on the allowlist), and
        // profile reports the engine's decision mix.
        let trace = temp_path("leap.trace.json");
        let summary = temp_path("leap.summary.json");
        let out = execute(&argv(&format!(
            "run --app gdb --policy leap_1024 --memory half --scale 0.2 --trace-out {} --summary-json {}",
            trace.display(),
            summary.display()
        )))
        .unwrap();
        assert!(out.contains("leap_1024"), "{out}");
        let checked = execute(&argv(&format!(
            "check-trace --trace {} --summary {}",
            trace.display(),
            summary.display()
        )))
        .unwrap();
        assert!(checked.contains("OK"), "{checked}");
        let summary_text = std::fs::read_to_string(&summary).unwrap();
        assert!(
            summary_text.contains("prefetched_subpages"),
            "{summary_text}"
        );
        let profiled = execute(&argv(
            "profile --app gdb --policy indigo_1024 --memory half --scale 0.2",
        ))
        .unwrap();
        assert!(profiled.contains("policy engine:"), "{profiled}");
        assert!(profiled.contains("demand"), "{profiled}");
        let _ = std::fs::remove_file(&trace);
        let _ = std::fs::remove_file(&summary);
    }

    #[test]
    fn parse_duration_accepts_suffixes() {
        assert_eq!(parse_duration("250ns").unwrap(), Duration::from_nanos(250));
        assert_eq!(parse_duration("500us").unwrap(), Duration::from_micros(500));
        assert_eq!(parse_duration("2ms").unwrap(), Duration::from_millis(2));
        assert_eq!(
            parse_duration("1s").unwrap(),
            Duration::from_nanos(1_000_000_000)
        );
        assert_eq!(parse_duration("42").unwrap(), Duration::from_nanos(42));
        assert!(parse_duration("0ms").is_err());
        assert!(parse_duration("-1ms").is_err());
        assert!(parse_duration("soon").is_err());
    }

    /// The acceptance check: profiling a fullpage gdb run reproduces
    /// the Table-2 restart-latency decomposition — per-component mean
    /// service within 5% of the paper's constants, and the conserved
    /// total within 5% of the 1.52 ms fullpage restart latency.
    #[test]
    fn profile_command_reproduces_table2_decomposition() {
        let out = execute(&argv(
            "profile --app gdb --policy p_8192 --memory full --scale 0.2",
        ))
        .unwrap();
        assert!(out.contains("(conserved)"), "{out}");
        // Mean service per component (µs): the Table-2 constants.
        for (component, expect) in [
            ("cpu/fault+request", 140.0),
            ("cpu/process-request", 140.0),
            ("cpu/send-setup", 25.0),
            ("dma-out/dma-out", 184.0),
            ("dma-in/dma-in", 184.0),
            ("cpu/receive+resume", 359.9),
            ("transit", 15.0),
        ] {
            let line = out
                .lines()
                .find(|l| l.starts_with(component))
                .unwrap_or_else(|| panic!("no {component} row in {out}"));
            let mean: f64 = line.split_whitespace().nth(4).unwrap().parse().unwrap();
            assert!(
                (mean - expect).abs() / expect < 0.05,
                "{component}: mean {mean} vs paper {expect}\n{out}"
            );
        }
        // Unqueued fullpage restarts sum to the 1.52 ms of Table 2.
        let faults: f64 = out
            .lines()
            .find(|l| l.starts_with("profile:"))
            .and_then(|l| l.split(", ").last())
            .and_then(|s| s.split_whitespace().next())
            .unwrap()
            .parse()
            .unwrap();
        let total: f64 = out
            .lines()
            .find(|l| l.starts_with("attributed wait"))
            .and_then(|l| l.split_whitespace().nth(2))
            .unwrap()
            .parse()
            .unwrap();
        let per_fault_ms = total / faults;
        assert!(
            (per_fault_ms - 1.52).abs() / 1.52 < 0.05,
            "per-fault restart {per_fault_ms} ms vs Table 2's 1.52 ms\n{out}"
        );
    }

    #[test]
    fn profile_command_aggregations_and_validation() {
        let by_class = execute(&argv(
            "profile --app gdb --policy sp_1024 --scale 0.1 --by class",
        ))
        .unwrap();
        assert!(by_class.contains("class remote"), "{by_class}");
        let by_node = execute(&argv(
            "profile --app gdb --policy sp_1024 --scale 0.1 --by node \
             --nodes 4 --active 2",
        ))
        .unwrap();
        assert!(by_node.contains("n0/cpu"), "{by_node}");
        assert!(by_node.contains("(conserved)"), "{by_node}");
        assert!(execute(&argv("profile --app gdb --policy sp_1024 --by banana")).is_err());
        assert!(execute(&argv("profile --app gdb --policy sp_1024 --nodes 4")).is_err());
        assert!(execute(&argv("profile --policy sp_1024")).is_err());
    }

    #[test]
    fn profile_json_passes_check_trace_attrib() {
        let path = temp_path("profile.attrib.json");
        let out = execute(&argv(&format!(
            "profile --app gdb --policy sp_1024 --scale 0.1 --json {}",
            path.display()
        )))
        .unwrap();
        assert!(out.contains("attribution:"), "{out}");
        let check = execute(&argv(&format!("check-trace --attrib {}", path.display()))).unwrap();
        assert!(check.contains("attrib OK"), "{check}");
        // A tampered total must fail the conservation check.
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(
            &path,
            text.replacen("\"total_wait_ns\":", "\"total_wait_ns\":9", 1),
        )
        .unwrap();
        assert!(execute(&argv(&format!("check-trace --attrib {}", path.display()))).is_err());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn metrics_flags_export_and_validate() {
        let metrics = temp_path("run.metrics.json");
        let prom = temp_path("run.prom.txt");
        let out = execute(&argv(&format!(
            "run --app gdb --policy sp_1024 --scale 0.1 \
             --metrics-out {} --prom-out {} --metrics-window 500us",
            metrics.display(),
            prom.display()
        )))
        .unwrap();
        assert!(out.contains("metrics:"), "{out}");
        assert!(out.contains("prometheus:"), "{out}");
        let check = execute(&argv(&format!(
            "check-trace --metrics {}",
            metrics.display()
        )))
        .unwrap();
        assert!(check.contains("metrics OK"), "{check}");
        let prom_text = std::fs::read_to_string(&prom).unwrap();
        assert!(prom_text.contains("# TYPE gms_faults_total counter"));
        assert!(prom_text.contains("gms_wait_seconds_count"));
        // Wrong-schema file is rejected.
        std::fs::write(
            &metrics,
            r#"{"schema":"other/v1","window_ns":1,"windows":[]}"#,
        )
        .unwrap();
        assert!(execute(&argv(&format!(
            "check-trace --metrics {}",
            metrics.display()
        )))
        .is_err());
        let _ = std::fs::remove_file(&metrics);
        let _ = std::fs::remove_file(&prom);
    }

    #[test]
    fn cluster_metrics_flag_exports_too() {
        let metrics = temp_path("cluster.metrics.json");
        let out = execute(&argv(&format!(
            "cluster --nodes 4 --active 2 --scale 0.05 --metrics-out {}",
            metrics.display()
        )))
        .unwrap();
        assert!(out.contains("metrics:"), "{out}");
        let check = execute(&argv(&format!(
            "check-trace --metrics {}",
            metrics.display()
        )))
        .unwrap();
        assert!(check.contains("metrics OK"), "{check}");
        let _ = std::fs::remove_file(&metrics);
    }

    #[test]
    fn diff_trace_passes_identical_and_fails_regressions() {
        let a = temp_path("diff-a.summary.json");
        let b = temp_path("diff-b.summary.json");
        for path in [&a, &b] {
            execute(&argv(&format!(
                "run --app gdb --policy sp_1024 --scale 0.1 --summary-json {}",
                path.display()
            )))
            .unwrap();
        }
        let ok = execute(&argv(&format!(
            "diff-trace {} {}",
            a.display(),
            b.display()
        )))
        .unwrap();
        assert!(ok.contains("diff OK"), "{ok}");
        // A different policy regresses far beyond any sane tolerance.
        execute(&argv(&format!(
            "run --app gdb --policy p_8192 --scale 0.1 --summary-json {}",
            b.display()
        )))
        .unwrap();
        let msg = execute(&argv(&format!(
            "diff-trace {} {}",
            a.display(),
            b.display()
        )))
        .expect_err("regression must fail")
        .to_string();
        assert!(msg.contains("moved beyond"), "{msg}");
        // ...unless the tolerance is absurdly wide.
        assert!(execute(&argv(&format!(
            "diff-trace {} {} --tolerance 10000",
            a.display(),
            b.display()
        )))
        .is_ok());
        assert!(execute(&argv(&format!("diff-trace {}", a.display()))).is_err());
        assert!(execute(&argv("diff-trace --tolerance nope a b")).is_err());
        let _ = std::fs::remove_file(&a);
        let _ = std::fs::remove_file(&b);
    }

    #[test]
    fn diff_trace_full_compares_raw_traces() {
        let a = temp_path("diff-a.trace.json");
        let b = temp_path("diff-b.trace.json");
        for path in [&a, &b] {
            execute(&argv(&format!(
                "run --app gdb --policy sp_1024 --scale 0.1 --trace-out {}",
                path.display()
            )))
            .unwrap();
        }
        let ok = execute(&argv(&format!(
            "diff-trace {} {} --full",
            a.display(),
            b.display()
        )))
        .unwrap();
        assert!(ok.contains("diff OK"), "{ok}");
        execute(&argv(&format!(
            "run --app gdb --policy p_8192 --scale 0.1 --trace-out {}",
            b.display()
        )))
        .unwrap();
        assert!(execute(&argv(&format!(
            "diff-trace {} {} --full",
            a.display(),
            b.display()
        )))
        .is_err());
        let _ = std::fs::remove_file(&a);
        let _ = std::fs::remove_file(&b);
    }

    #[test]
    fn diff_bench_gates_on_tolerance() {
        let a = temp_path("bench-a.json");
        let b = temp_path("bench-b.json");
        std::fs::write(
            &a,
            r#"{"tracing":{"ms":2.0,"overhead_pct":20.0},"sweep":{"jobs":1},
                "adaptive":{"leap_1024_ms_per_run":3.0,"indigo_1024_ms_per_run":2.0}}"#,
        )
        .unwrap();
        std::fs::write(
            &b,
            r#"{"tracing":{"ms":2.2,"overhead_pct":80.0},"sweep":{"jobs":8},
                "adaptive":{"leap_1024_ms_per_run":3.3,"indigo_1024_ms_per_run":2.1}}"#,
        )
        .unwrap();
        // 10% drift on the time cell passes the default 25% gate, and
        // the wildly-moved derived/environment cells (overhead_pct,
        // jobs) are reported but never gated.
        let ok = execute(&argv(&format!(
            "diff-bench {} {}",
            a.display(),
            b.display()
        )))
        .unwrap();
        assert!(ok.contains("diff OK"), "{ok}");
        assert!(
            ok.contains("info: tracing.overhead_pct: 20 -> 80 (not gated)"),
            "{ok}"
        );
        assert!(ok.contains("info: sweep.jobs: 1 -> 8 (not gated)"), "{ok}");
        assert!(!ok.contains("leap_1024_ms_per_run"), "{ok}");
        // ...but fails a 5% gate.
        assert!(execute(&argv(&format!(
            "diff-bench {} {} --tolerance 5",
            a.display(),
            b.display()
        )))
        .is_err());
        // The adaptive-policy cells are gated like every timing cell: a
        // 40% drift fails the default 25% gate.
        std::fs::write(
            &b,
            r#"{"tracing":{"ms":2.0,"overhead_pct":20.0},"sweep":{"jobs":1},
                "adaptive":{"leap_1024_ms_per_run":5.0,"indigo_1024_ms_per_run":2.0}}"#,
        )
        .unwrap();
        let msg = execute(&argv(&format!(
            "diff-bench {} {}",
            a.display(),
            b.display()
        )))
        .expect_err("a 40% adaptive-cell drift must fail the 25% gate")
        .to_string();
        assert!(
            msg.contains("adaptive.leap_1024_ms_per_run: 3 -> 5"),
            "{msg}"
        );
        assert!(!msg.contains("indigo_1024_ms_per_run"), "{msg}");
        let _ = std::fs::remove_file(&a);
        let _ = std::fs::remove_file(&b);
    }

    #[test]
    fn no_args_prints_usage() {
        let out = execute(&[]).unwrap();
        assert!(out.contains("USAGE"));
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!(
            "gms-cli-{}-{:?}-{name}",
            std::process::id(),
            std::thread::current().id()
        ))
    }

    #[test]
    fn run_exports_trace_and_summary_that_check_trace_accepts() {
        let trace = temp_path("run.trace.json");
        let summary = temp_path("run.summary.json");
        let out = execute(&argv(&format!(
            "run --app gdb --policy sp_1024 --memory half --scale 0.2 \
             --trace-out {} --summary-json {}",
            trace.display(),
            summary.display()
        )))
        .unwrap();
        assert!(out.contains("trace:"), "{out}");
        assert!(out.contains("summary:"), "{out}");
        assert!(out.contains("page wait percentiles"), "{out}");
        let check = execute(&argv(&format!(
            "check-trace --trace {} --summary {}",
            trace.display(),
            summary.display()
        )))
        .unwrap();
        assert!(check.contains("trace OK"), "{check}");
        assert!(check.contains("summary OK"), "{check}");
        let _ = std::fs::remove_file(&trace);
        let _ = std::fs::remove_file(&summary);
    }

    #[test]
    fn cluster_exports_summary_with_per_node_breakdown() {
        let summary = temp_path("cluster.summary.json");
        let out = execute(&argv(&format!(
            "cluster --nodes 4 --active 2 --app gdb --scale 0.1 --summary-json {}",
            summary.display()
        )))
        .unwrap();
        assert!(out.contains("node utilization"), "{out}");
        let text = std::fs::read_to_string(&summary).unwrap();
        let doc = JsonValue::parse(&text).unwrap();
        assert_eq!(doc.get("kind").unwrap().as_str(), Some("cluster"));
        assert_eq!(doc.get("per_node").unwrap().as_array().unwrap().len(), 4);
        let check = execute(&argv(&format!(
            "check-trace --summary {}",
            summary.display()
        )));
        assert!(check.is_ok(), "{check:?}");
        let _ = std::fs::remove_file(&summary);
    }

    #[test]
    fn check_trace_rejects_garbage_and_requires_input() {
        assert!(execute(&argv("check-trace")).is_err());
        let bad = temp_path("bad.json");
        std::fs::write(&bad, "{not json").unwrap();
        assert!(execute(&argv(&format!("check-trace --trace {}", bad.display()))).is_err());
        // Files are read, parsed and checked one at a time in flag order,
        // so the trace's error comes before the missing summary's.
        let e = execute(&argv(&format!(
            "check-trace --trace {} --summary /nonexistent/x.json",
            bad.display()
        )))
        .unwrap_err()
        .to_string();
        assert!(
            e.starts_with(&format!("{}: invalid JSON", bad.display())),
            "{e}"
        );
        std::fs::write(&bad, r#"{"schema":"other/v9"}"#).unwrap();
        assert!(execute(&argv(&format!("check-trace --summary {}", bad.display()))).is_err());
        let _ = std::fs::remove_file(&bad);
        assert!(execute(&argv("check-trace --trace /nonexistent/x.json")).is_err());
    }

    #[test]
    fn untraced_run_output_is_unchanged_by_tracing_flags() {
        // The human-readable report must not depend on whether a trace
        // was recorded alongside it.
        let trace = temp_path("identical.trace.json");
        let plain = execute(&argv("run --app gdb --policy sp_1024 --scale 0.2")).unwrap();
        let traced = execute(&argv(&format!(
            "run --app gdb --policy sp_1024 --scale 0.2 --trace-out {}",
            trace.display()
        )))
        .unwrap();
        let stripped: String = traced.lines().filter(|l| !l.starts_with("trace:")).fold(
            String::new(),
            |mut acc, l| {
                acc.push_str(l);
                acc.push('\n');
                acc
            },
        );
        assert_eq!(plain, stripped);
        let _ = std::fs::remove_file(&trace);
    }

    #[test]
    fn explain_command_reproduces_and_validates() {
        // End to end: explain's exemplar document and exemplar-only
        // trace both pass check-trace, and the text output carries the
        // conservation cross-checks.
        let json = temp_path("explain.json");
        let trace = temp_path("explain.trace.json");
        let out = execute(&argv(&format!(
            "explain --app gdb --policy sp_1024 --scale 0.1 --worst 3 --slo 1ms --json {} --trace-out {}",
            json.display(),
            trace.display()
        )))
        .unwrap();
        assert!(out.contains("conserved"), "{out}");
        assert!(out.contains("Table-2 decomposition"), "{out}");
        assert!(out.contains("slo 1.000ms"), "{out}");
        assert!(out.contains("#1 node 0"), "{out}");
        let checked = execute(&argv(&format!(
            "check-trace --exemplars {} --trace {}",
            json.display(),
            trace.display()
        )))
        .unwrap();
        assert!(checked.contains("exemplars OK"), "{checked}");
        assert!(checked.contains("trace OK"), "{checked}");
        let doc = std::fs::read_to_string(&json).unwrap();
        assert!(doc.contains("\"schema\":\"gms-explain/v1\""), "{doc}");
        let _ = std::fs::remove_file(&json);
        let _ = std::fs::remove_file(&trace);
    }

    #[test]
    fn cluster_explain_reports_every_node_and_window() {
        let out = execute(&argv(
            "explain --app gdb --policy sp_1024 --scale 0.1 --nodes 5 --active 2 \
             --worst 2 --window 20ms --slo 500us",
        ))
        .unwrap();
        assert!(out.contains("5-node cluster, 2 active"), "{out}");
        assert!(out.contains("node 0:"), "{out}");
        assert!(out.contains("node 1:"), "{out}");
        assert!(out.contains("windows"), "{out}");
    }

    #[test]
    fn explain_flags_validate() {
        assert!(execute(&argv("explain --app gdb --policy sp_1024 --worst 0")).is_err());
        assert!(execute(&argv("explain --app gdb --policy sp_1024 --threads 2")).is_err());
        assert!(execute(&argv("explain --app gdb --policy sp_1024 --nodes 4")).is_err());
        assert!(execute(&argv("explain --app gdb")).is_err());
        assert!(execute(&argv("explain --app gdb --policy sp_1024 --window 0ms")).is_err());
    }

    #[test]
    fn slo_flag_appends_one_slo_object() {
        for (kind, cmd) in [
            ("run", "run --app gdb --policy sp_1024 --scale 0.1"),
            (
                "cluster",
                "cluster --nodes 4 --active 2 --app gdb --scale 0.1",
            ),
        ] {
            let plain = temp_path(&format!("slo-{kind}-plain.summary.json"));
            let scored = temp_path(&format!("slo-{kind}-scored.summary.json"));
            execute(&argv(&format!("{cmd} --summary-json {}", plain.display()))).unwrap();
            let out = execute(&argv(&format!(
                "{cmd} --slo 1ms --summary-json {}",
                scored.display()
            )))
            .unwrap();
            assert!(out.contains("slo 1.000ms:"), "{out}");
            assert!(out.contains("attainment"), "{out}");
            let (plain_text, scored_text) = (
                std::fs::read_to_string(&plain).unwrap(),
                std::fs::read_to_string(&scored).unwrap(),
            );
            // --slo changes nothing but the appended last key.
            let body = plain_text.strip_suffix('}').unwrap();
            let slo = scored_text
                .strip_prefix(body)
                .and_then(|rest| rest.strip_prefix(",\"slo\":"))
                .and_then(|rest| rest.strip_suffix('}'))
                .unwrap_or_else(|| panic!("{kind}: {scored_text}"));
            let slo = JsonValue::parse(slo).unwrap();
            let mut keys: Vec<&str> = slo.as_object().unwrap().iter().map(|(k, _)| &**k).collect();
            keys.sort_unstable();
            assert_eq!(keys, ["attainment", "faults", "threshold_ns", "under"]);
            assert_eq!(slo.get("threshold_ns").unwrap().as_u64(), Some(1_000_000));
            for path in [&plain, &scored] {
                let checked =
                    execute(&argv(&format!("check-trace --summary {}", path.display()))).unwrap();
                assert!(checked.contains(&format!("kind {kind}")), "{checked}");
                let _ = std::fs::remove_file(path);
            }
        }
    }

    #[test]
    fn check_trace_accepts_one_summary_schema() {
        let path = temp_path("schema.summary.json");
        execute(&argv(&format!(
            "run --app gdb --policy sp_1024 --scale 0.1 --summary-json {}",
            path.display()
        )))
        .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        for (from, to, want) in [
            ("gms-summary/v3", "gms-summary/v2", "schema"),
            ("\"tail\":{\"count\"", "\"tall\":{\"count\"", "tail missing"),
            ("\"p99_9_ns\"", "\"p99_8_ns\"", "tail.p99_9_ns missing"),
        ] {
            std::fs::write(&path, text.replacen(from, to, 1)).unwrap();
            let msg = execute(&argv(&format!("check-trace --summary {}", path.display())))
                .expect_err(to)
                .to_string();
            assert!(msg.contains(want), "{to}: {msg}");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn diff_bench_gates_flight_overhead_and_tails() {
        let base = temp_path("bench-base.json");
        let fresh = temp_path("bench-fresh.json");
        std::fs::write(
            &base,
            r#"{"sp_1024_ms_per_run":10.0,"sp_1024_p99_9_us":1636.3,"flight_overhead_pct":2.0,"heat_overhead_pct":1.0,"overhead_pct":14.7}"#,
        )
        .unwrap();
        // Within every gate: time +10% (< 25), tail identical, flight
        // and heat overheads under their ceilings, overhead_pct
        // informational.
        std::fs::write(
            &fresh,
            r#"{"sp_1024_ms_per_run":11.0,"sp_1024_p99_9_us":1636.3,"flight_overhead_pct":4.9,"heat_overhead_pct":4.9,"overhead_pct":40.0}"#,
        )
        .unwrap();
        let ok = execute(&argv(&format!(
            "diff-bench {} {}",
            base.display(),
            fresh.display()
        )))
        .unwrap();
        assert!(ok.contains("under the absolute ceiling"), "{ok}");
        assert!(ok.contains("overhead_pct: 14.7 -> 40 (not gated)"), "{ok}");
        // A tail drift inside the default 25% but beyond the tail's own
        // 1% fails, as does an overhead above the absolute ceiling.
        std::fs::write(
            &fresh,
            r#"{"sp_1024_ms_per_run":10.0,"sp_1024_p99_9_us":1700.0,"flight_overhead_pct":2.0,"heat_overhead_pct":1.0,"overhead_pct":14.7}"#,
        )
        .unwrap();
        let msg = execute(&argv(&format!(
            "diff-bench {} {}",
            base.display(),
            fresh.display()
        )))
        .expect_err("a 3.7% tail drift must fail the 1% gate")
        .to_string();
        assert!(msg.contains("tolerance 1%"), "{msg}");
        std::fs::write(
            &fresh,
            r#"{"sp_1024_ms_per_run":10.0,"sp_1024_p99_9_us":1636.3,"flight_overhead_pct":6.1,"heat_overhead_pct":1.0,"overhead_pct":14.7}"#,
        )
        .unwrap();
        let msg = execute(&argv(&format!(
            "diff-bench {} {}",
            base.display(),
            fresh.display()
        )))
        .expect_err("overhead above the ceiling must fail")
        .to_string();
        assert!(msg.contains("exceeds the absolute ceiling 5"), "{msg}");
        // The heat recorder's ceiling is gated the same way.
        std::fs::write(
            &fresh,
            r#"{"sp_1024_ms_per_run":10.0,"sp_1024_p99_9_us":1636.3,"flight_overhead_pct":2.0,"heat_overhead_pct":5.2,"overhead_pct":14.7}"#,
        )
        .unwrap();
        let msg = execute(&argv(&format!(
            "diff-bench {} {}",
            base.display(),
            fresh.display()
        )))
        .expect_err("heat overhead above the ceiling must fail")
        .to_string();
        assert!(msg.contains("heat_overhead_pct"), "{msg}");
        assert!(msg.contains("exceeds the absolute ceiling 5"), "{msg}");
        // A vanished ceiling cell is a violation, not a silent pass.
        std::fs::write(
            &fresh,
            r#"{"sp_1024_ms_per_run":10.0,"sp_1024_p99_9_us":1636.3,"heat_overhead_pct":1.0,"overhead_pct":14.7}"#,
        )
        .unwrap();
        assert!(execute(&argv(&format!(
            "diff-bench {} {}",
            base.display(),
            fresh.display()
        )))
        .is_err());
        let _ = std::fs::remove_file(&base);
        let _ = std::fs::remove_file(&fresh);
    }

    #[test]
    fn heat_command_reconciles_on_a_cluster() {
        // Acceptance: a 7-node cluster heat report reconciles exactly
        // with the engine's own accounting, and the exported document
        // passes check-trace.
        let json = temp_path("heat-cluster.json");
        let counters = temp_path("heat-cluster.perfetto.json");
        let cmd = format!(
            "heat --app gdb --policy indigo_1024 --scale 0.1 --nodes 7 --active 4 \
             --top 3 --json {} --perfetto-out {}",
            json.display(),
            counters.display()
        );
        let out = execute(&argv(&cmd)).unwrap();
        assert!(out.contains("7-node cluster, 4 active"), "{out}");
        assert!(
            out.contains("conserved: region faults == report faults"),
            "{out}"
        );
        assert!(out.contains("== mispredicted_prefetch_bytes"), "{out}");
        assert!(out.contains("refault intervals: p50"), "{out}");
        let checked = execute(&argv(&format!("check-trace --heat {}", json.display()))).unwrap();
        assert!(checked.contains("heat OK"), "{checked}");
        let doc = std::fs::read_to_string(&json).unwrap();
        assert!(doc.contains("\"schema\":\"gms-heat/v1\""), "{doc}");
        let trace = std::fs::read_to_string(&counters).unwrap();
        assert!(trace.contains("wire-utilization"), "{trace}");
        assert!(trace.contains("hot-region"), "{trace}");
        let _ = std::fs::remove_file(&json);
        let _ = std::fs::remove_file(&counters);
    }

    #[test]
    fn heat_out_artifacts_cross_check_against_summaries() {
        // run, cluster and sweep all take --heat-out; each artifact
        // passes check-trace --heat, including the summary cross-check.
        let heat = temp_path("run-heat.json");
        let summary = temp_path("run-heat-summary.json");
        let out = execute(&argv(&format!(
            "run --app modula3 --policy leap_1024 --scale 0.1 --regions 16 \
             --heat-out {} --summary-json {}",
            heat.display(),
            summary.display()
        )))
        .unwrap();
        assert!(out.contains("heat: "), "{out}");
        assert!(out.contains("of 16 pages"), "{out}");
        let checked = execute(&argv(&format!(
            "check-trace --heat {} --summary {}",
            heat.display(),
            summary.display()
        )))
        .unwrap();
        assert!(checked.contains("heat OK"), "{checked}");
        assert!(checked.contains("of 16 pages"), "{checked}");

        let cluster_out = execute(&argv(&format!(
            "cluster --app gdb --policy sp_1024 --scale 0.1 --nodes 5 --active 2 \
             --heat-out {} --summary-json {}",
            heat.display(),
            summary.display()
        )))
        .unwrap();
        assert!(cluster_out.contains("heat: "), "{cluster_out}");
        let checked = execute(&argv(&format!(
            "check-trace --heat {} --summary {}",
            heat.display(),
            summary.display()
        )))
        .unwrap();
        assert!(checked.contains("heat OK"), "{checked}");

        let sweep_out = execute(&argv(&format!(
            "sweep --app gdb --scale 0.05 --jobs 2 --heat-out {}",
            heat.display()
        )))
        .unwrap();
        assert!(sweep_out.contains("heat: "), "{sweep_out}");
        let checked = execute(&argv(&format!("check-trace --heat {}", heat.display()))).unwrap();
        assert!(checked.contains("heat OK"), "{checked}");
        let _ = std::fs::remove_file(&heat);
        let _ = std::fs::remove_file(&summary);
    }

    #[test]
    fn check_trace_heat_rejects_corrupted_documents() {
        // Start from a genuine artifact and break one number at a time:
        // every conservation check must catch its own corruption.
        let json = temp_path("heat-good.json");
        let bad = temp_path("heat-bad.json");
        execute(&argv(&format!(
            "heat --app gdb --policy sp_1024 --scale 0.1 --json {}",
            json.display()
        )))
        .unwrap();
        let doc = std::fs::read_to_string(&json).unwrap();

        // Bump the totals' remote-fault count: the class counts no
        // longer sum to the totals' own fault total.
        let idx = doc.find("\"remote\":").unwrap() + "\"remote\":".len();
        let end = idx + doc[idx..].find(',').unwrap();
        let n: u64 = doc[idx..end].parse().unwrap();
        std::fs::write(&bad, format!("{}{}{}", &doc[..idx], n + 1, &doc[end..])).unwrap();
        let msg = execute(&argv(&format!("check-trace --heat {}", bad.display())))
            .expect_err("inconsistent fault classes must be rejected")
            .to_string();
        assert!(msg.contains("fault classes sum to"), "{msg}");

        // Bump the totals' refaults: first touches and refaults no
        // longer partition the faults.
        let idx = doc.find("\"refaults\":").unwrap() + "\"refaults\":".len();
        let end = idx + doc[idx..].find(',').unwrap();
        let n: u64 = doc[idx..end].parse().unwrap();
        std::fs::write(&bad, format!("{}{}{}", &doc[..idx], n + 1, &doc[end..])).unwrap();
        let msg = execute(&argv(&format!("check-trace --heat {}", bad.display())))
            .expect_err("broken first-touch/refault partition must be rejected")
            .to_string();
        assert!(msg.contains("refaults"), "{msg}");

        // A foreign schema is rejected outright.
        std::fs::write(&bad, doc.replace("gms-heat/v1", "gms-heat/v0")).unwrap();
        let msg = execute(&argv(&format!("check-trace --heat {}", bad.display())))
            .expect_err("wrong schema must be rejected")
            .to_string();
        assert!(msg.contains("schema"), "{msg}");
        let _ = std::fs::remove_file(&json);
        let _ = std::fs::remove_file(&bad);
    }

    #[test]
    fn heat_flags_validate() {
        assert!(execute(&argv("heat --app gdb")).is_err());
        assert!(execute(&argv("heat --app gdb --policy sp_1024 --by quadrant")).is_err());
        assert!(execute(&argv("heat --app gdb --policy sp_1024 --regions 48")).is_err());
        assert!(execute(&argv(
            "heat --app gdb --policy sp_1024 --by page --regions 4"
        ))
        .is_err());
        assert!(execute(&argv("heat --app gdb --policy sp_1024 --top 0")).is_err());
        assert!(execute(&argv("heat --app gdb --policy sp_1024 --threads 2")).is_err());
        assert!(execute(&argv("heat --app gdb --policy sp_1024 --nodes 4")).is_err());
        assert!(execute(&argv("run --app gdb --policy sp_1024 --regions 16")).is_err());
        let heat = temp_path("flags-heat.json");
        assert!(execute(&argv(&format!(
            "run --app gdb --policy sp_1024 --heat-out {} --regions 48",
            heat.display()
        )))
        .is_err());
        let _ = std::fs::remove_file(&heat);
    }

    #[test]
    fn check_trace_exemplars_rejects_nonconserved_documents() {
        let bad = temp_path("bad-explain.json");
        // One exemplar whose components sum to 90 ns against a 100 ns
        // wait: the conservation check must catch it.
        std::fs::write(
            &bad,
            r#"{"schema":"gms-explain/v1","kind":"run","policy":"sp_1024","memory":"1/2-mem",
"worst":1,"window_ns":null,
"totals":{"faults":1,"wait_ns":100,"retained":1,"retained_events":3,"dropped":0},
"tail":{"count":1,"p99_9_ns":100,"p99_99_ns":100,"max_ns":100,"rel_err":0.003906},
"slo":{"threshold_ns":1000,"faults":1,"under":1,"attainment":1.0},
"classes":[{"class":"remote","faults":1,"under":1}],
"nodes":[{"node":0,"faults":1,"violations":0,"wait_ns":100,"windows":[{"window":0,"faults":1,"violations":0,"wait_ns":100}]}],
"exemplars":[{"rank":1,"node":0,"page":7,"subpage":0,"class":"remote","at_ref":0,"fault_at_ns":0,"window":0,"wait_ns":100,"hops":2,
"components":{"queue_ns":10,"service_ns":50,"transit_ns":10,"retry_ns":0,"disk_ns":0,"stall_ns":20}}]}"#,
        )
        .unwrap();
        let msg = execute(&argv(&format!("check-trace --exemplars {}", bad.display())))
            .expect_err("non-conserved exemplar must be rejected")
            .to_string();
        assert!(msg.contains("components sum to 90"), "{msg}");
        // And per-node tallies must partition the totals.
        std::fs::write(
            &bad,
            std::fs::read_to_string(&bad)
                .unwrap()
                .replace("\"stall_ns\":20", "\"stall_ns\":30")
                .replace(
                    "\"nodes\":[{\"node\":0,\"faults\":1,",
                    "\"nodes\":[{\"node\":0,\"faults\":2,",
                ),
        )
        .unwrap();
        let msg = execute(&argv(&format!("check-trace --exemplars {}", bad.display())))
            .expect_err("mismatched node tallies must be rejected")
            .to_string();
        assert!(msg.contains("do not partition"), "{msg}");
        // The SLO views must agree: one mutation of the conserved
        // document per relation.
        let good = std::fs::read_to_string(&bad).unwrap().replace(
            "\"nodes\":[{\"node\":0,\"faults\":2,",
            "\"nodes\":[{\"node\":0,\"faults\":1,",
        );
        let window = "\"windows\":[{\"window\":0,\"faults\":1,\"violations\":0,\"wait_ns\":100}]";
        for (what, from, to, expect) in [
            (
                "window wait",
                window,
                "\"windows\":[{\"window\":0,\"faults\":1,\"violations\":0,\"wait_ns\":90}]",
                "node 0 windows sum to",
            ),
            (
                "window faults",
                window,
                "\"windows\":[{\"window\":0,\"faults\":1,\"violations\":0,\"wait_ns\":60},\
                 {\"window\":1,\"faults\":1,\"violations\":0,\"wait_ns\":40}]",
                "node 0 windows sum to",
            ),
            (
                "slo faults",
                "\"slo\":{\"threshold_ns\":1000,\"faults\":1,",
                "\"slo\":{\"threshold_ns\":1000,\"faults\":2,",
                "slo.faults 2 != totals.faults 1",
            ),
            (
                "node violations",
                "\"under\":1,\"attainment\":1.0",
                "\"under\":0,\"attainment\":0.0",
                "node violations sum to 0",
            ),
            (
                "class faults",
                "{\"class\":\"remote\",\"faults\":1,\"under\":1}",
                "{\"class\":\"remote\",\"faults\":1,\"under\":1},\
                 {\"class\":\"disk\",\"faults\":1,\"under\":0}",
                "classes sum to 2 faults",
            ),
            (
                "class under",
                "{\"class\":\"remote\",\"faults\":1,\"under\":1}",
                "{\"class\":\"remote\",\"faults\":1,\"under\":0}",
                "classes sum to 1 faults, 0 under",
            ),
        ] {
            assert!(good.contains(from), "{what}: {from} not in the document");
            std::fs::write(&bad, good.replace(from, to)).unwrap();
            let msg = execute(&argv(&format!("check-trace --exemplars {}", bad.display())))
                .expect_err(what)
                .to_string();
            assert!(msg.contains(expect), "{what}: {msg}");
        }
        std::fs::write(&bad, &good).unwrap();
        execute(&argv(&format!("check-trace --exemplars {}", bad.display())))
            .expect("the unmutated document is accepted");
        let _ = std::fs::remove_file(&bad);
    }
}
