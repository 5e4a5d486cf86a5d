//! The gms-subpages benchmark: one workload per invocation, run as a
//! closed loop from a single thread, every operation's output checked.
//!
//! ```text
//! perfbench --workload <paper_grid|shared_cluster|chaos_artifacts>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics; with `--trace 1`
//! it makes the separate traced run and prints the per-layer metrics.
//! The last line of stdout is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! See NOTES.md for the workloads and what each metric should move.

mod calib;
mod layers;
mod stats;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use calib::Calibrator;
use stats::{median, quantile, tail};
use workload::{check, prepare, run_op, sim_digest, sim_reports, Kind, Prepared};

/// Set-up is repeated at least this many times per run, and for at least
/// `SETUP_MIN_S` seconds, and its median reported: a short set-up is
/// repeated more, so its median is as steady as a long one's.
const SETUPS: usize = 5;
const SETUP_MIN_S: f64 = 3.0;
/// Calibration samples taken on each side of a set-up.
const SETUP_SAMPLES: usize = 8;

pub struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let at = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("{flag} is required"))?;
        argv.get(at + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let kind = value("--workload")?;
    let kind = Kind::parse(kind).ok_or(format!("unknown workload '{kind}'"))?;
    let seed = value("--seed")?.parse().map_err(|_| "bad --seed")?;
    let seconds: f64 = value("--seconds")?.parse().map_err(|_| "bad --seconds")?;
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        _ => return Err("--trace takes 0 or 1".into()),
    };
    Ok(Args {
        kind,
        seed,
        seconds,
        trace,
    })
}

/// Where operations may write: a directory inside the benchmark's own,
/// removed again when the run ends.
fn scratch_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("work")
}

/// A metric as printed: name, value, unit.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// Operation counts of a run.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Runs and checks operation `i` against its reference output,
    /// returning the host seconds it took.
    pub fn op(&mut self, p: &Prepared, i: usize) -> f64 {
        let start = Instant::now();
        let out = run_op(p, i);
        let secs = start.elapsed().as_secs_f64();
        self.attempted += 1;
        let verdict = out.and_then(|out| {
            check(p, i, &out)?;
            if out != p.reference[i] {
                return Err("output differs from the reference pass of the same seed".into());
            }
            Ok(())
        });
        if let Err(e) = verdict {
            self.failed += 1;
            eprintln!("operation {i} failed: {e}");
        }
        secs
    }

    /// Runs one pass, returning its host seconds and each operation's.
    pub fn pass(&mut self, p: &Prepared) -> (f64, Vec<f64>) {
        let start = Instant::now();
        let ops: Vec<f64> = (0..p.ops.len()).map(|i| self.op(p, i)).collect();
        (start.elapsed().as_secs_f64(), ops)
    }

    /// Runs one pass with a calibration sample before each operation and
    /// one after the last. Returns each operation's host seconds scaled to the reference host
    /// (see `calib`), and the scale.
    pub fn calibrated_pass(&mut self, p: &Prepared, cal: &mut Calibrator) -> (Vec<f64>, f64) {
        let mut samples = Vec::with_capacity(p.ops.len());
        let ops: Vec<f64> = (0..p.ops.len())
            .map(|i| {
                samples.push(cal.sample());
                self.op(p, i)
            })
            .collect();
        samples.push(cal.sample());
        let scale = Calibrator::scale(&samples);
        (ops.into_iter().map(|s| s * scale).collect(), scale)
    }
}

/// Builds the inputs repeatedly (see `SETUPS`), keeping the last, and
/// returns them with the median set-up time, each scaled to the
/// reference host by the calibration samples taken just before and after
/// it.
fn setup(args: &Args, cal: &mut Calibrator) -> Result<(Prepared, f64), String> {
    let mut times = Vec::new();
    let mut prepared = None;
    let start = Instant::now();
    while times.len() < SETUPS || start.elapsed().as_secs_f64() < SETUP_MIN_S {
        drop(prepared.take());
        let mut samples: Vec<f64> = (0..SETUP_SAMPLES).map(|_| cal.sample()).collect();
        let start = Instant::now();
        prepared = Some(prepare(args.kind, args.seed, &scratch_root())?);
        let secs = start.elapsed().as_secs_f64();
        samples.extend((0..SETUP_SAMPLES).map(|_| cal.sample()));
        times.push(secs * Calibrator::scale(&samples));
    }
    Ok((prepared.expect("SETUPS > 0"), median(&times)))
}

/// The end-to-end run: set-up, then whole calibrated passes until
/// `--seconds` is spent. A pass's wall time is the sum of its operations'
/// times, without the checks and calibration between them.
fn end_to_end(args: &Args) -> Result<(Tally, Vec<Metric>), String> {
    let mut cal = Calibrator::new();
    let (p, setup_s) = setup(args, &mut cal)?;
    let mut tally = Tally::default();
    let (mut walls, mut ops, mut scales) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    while walls.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        let (op_times, scale) = tally.calibrated_pass(&p, &mut cal);
        walls.push(op_times.iter().sum::<f64>());
        ops.extend(op_times.into_iter().map(|s| s * 1e3));
        scales.push(scale);
    }
    let passes = walls.len();

    let reports = sim_reports(&p);
    let sim_time: f64 = reports.iter().map(|(t, _)| t.as_secs_f64()).sum();
    let mut waits: Vec<u64> = reports
        .iter()
        .flat_map(|(_, nodes)| {
            nodes
                .iter()
                .flat_map(|r| r.fault_log.iter().map(|f| f.wait.as_nanos()))
        })
        .collect();
    let faults = waits.len();
    let disk: u64 = reports
        .iter()
        .flat_map(|(_, n)| n.iter().map(|r| r.fell_back_to_disk))
        .sum();
    if faults == 0 {
        return Err("the workload simulated no faults".into());
    }
    let wait_mean = waits.iter().sum::<u64>() as f64 / faults as f64 / 1e3;
    let wait_p50 = quantile(&mut waits, 0.5) as f64 / 1e3;
    let wait_p999 = quantile(&mut waits, 0.999) as f64 / 1e3;
    let beyond_p999 = faults - stats::rank(faults, 0.999);
    let op_tail = tail(&mut ops);
    let rss = stats::peak_rss_mb().ok_or("no VmHWM in /proc/self/status")?;

    println!(
        "{}: seed {} | {passes} passes, {} ops ({} failed, failed_op_frac {:.4}) | op_ms_p50 {:.6} | op_ms_tail {:.6} at p{:.3} with {} ops beyond, of {} ops",
        args.kind.name(),
        args.seed,
        tally.attempted,
        tally.failed,
        tally.failed as f64 / tally.attempted as f64,
        median(&ops),
        op_tail.value,
        op_tail.q * 100.0,
        op_tail.beyond,
        op_tail.n
    );
    println!(
        "{}: sim_digest {:016x} | sim_wait_p50_us {wait_p50} and sim_wait_p999_us {wait_p999} over {faults} faults per pass, {beyond_p999} beyond p99.9 | sim_disk_frac {:.6}",
        args.kind.name(),
        sim_digest(&p),
        disk as f64 / faults as f64
    );
    let raw: Vec<f64> = walls.iter().zip(&scales).map(|(w, s)| w / s).collect();
    println!(
        "{}: host speed scale per pass (reference kernel {:.0} us / measured): median {:.4}, min {:.4}, max {:.4} | pass IQR/median {:.4} measured, {:.4} scaled",
        args.kind.name(),
        calib::REFERENCE_S * 1e6,
        median(&scales),
        scales.iter().copied().fold(f64::INFINITY, f64::min),
        scales.iter().copied().fold(0.0, f64::max),
        stats::spread(&raw),
        stats::spread(&walls)
    );
    let metrics = vec![
        metric("setup_s", setup_s, "s"),
        metric("wall_s", median(&walls), "s"),
        metric("faults_per_s", faults as f64 / median(&walls), "1/s"),
        metric("peak_rss_mb", rss, "MiB"),
        metric("sim_time_s", sim_time, "s"),
        metric("sim_wait_mean_us", wait_mean, "us"),
    ];
    for m in &metrics {
        println!("  {:<20} {:>18.6} {}", m.name, m.value, m.unit);
    }
    Ok((tally, metrics))
}

fn print_result(tally: &Tally, metrics: &[Metric]) {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        body.join(", ")
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = if args.trace {
        layers::traced(&args)
    } else {
        end_to_end(&args)
    };
    match result {
        Ok((tally, metrics)) => {
            print_result(&tally, &metrics);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gms_core::SimConfig;
    use gms_trace::synth::LAYOUT_BASE;
    use gms_trace::MaterializedTrace;
    use gms_units::Bytes;
    use workload::{Op, Output, Trace};

    fn prepared(kind: Kind, ops: Vec<Op>, traces: Vec<Trace>) -> Prepared {
        Prepared {
            kind,
            traces,
            ops,
            reference: Vec::new(),
            library: Vec::new(),
            scratch: None,
        }
    }

    #[test]
    fn a_panicking_operation_counts_as_failed() {
        // `run_trace` panics on an empty footprint.
        let empty = Trace {
            trace: MaterializedTrace::from_runs(Vec::new()),
            footprint: Bytes::ZERO,
            base: LAYOUT_BASE,
        };
        let op = Op::Single {
            trace: 0,
            config: SimConfig::default(),
        };
        let mut p = prepared(Kind::PaperGrid, vec![op], vec![empty]);
        p.reference.push(Output::Run(Box::default()));
        assert!(run_op(&p, 0).unwrap_err().starts_with("panicked"));
        let mut tally = Tally::default();
        tally.op(&p, 0);
        assert_eq!((tally.attempted, tally.failed), (1, 1));
    }

    #[test]
    fn a_corrupted_artifact_counts_as_failed() {
        let dir = scratch_root().join(format!("test-corrupt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("trace.json");
        let path = trace.display().to_string();
        let argv = |args: &[&str]| args.iter().map(|a| (*a).to_owned()).collect::<Vec<_>>();
        gms_cli::execute(&argv(&[
            "cluster",
            "--nodes",
            "3",
            "--active",
            "1",
            "--scale",
            "0.01",
            "--trace-out",
            &path,
        ]))
        .unwrap();
        let check = Op::Cli {
            argv: argv(&["check-trace", "--trace", &path]),
            summary: None,
            checks: 1,
        };
        let mut p = prepared(Kind::ChaosArtifacts, vec![check], Vec::new());
        p.scratch = Some(dir);
        let reference = run_op(&p, 0).expect("a fresh trace checks");
        p.reference.push(reference);
        let mut tally = Tally::default();
        tally.op(&p, 0);
        assert_eq!(tally.failed, 0);

        let text = std::fs::read_to_string(&trace).unwrap();
        std::fs::write(&trace, &text[..text.len() / 2]).unwrap();
        tally.op(&p, 0);
        assert_eq!((tally.attempted, tally.failed), (2, 1));
    }
}
