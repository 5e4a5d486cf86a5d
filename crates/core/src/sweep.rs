//! Experiment grids: run a workload across policy × memory
//! combinations and compare the results, as every figure of the paper
//! does.
//!
//! Every cell of a grid is an independent, deterministic simulator run
//! over the *same* application trace, so the executor exploits both
//! facts: the trace is synthesized once into a shared
//! [`MaterializedTrace`] that every cell replays, and the cells fan out
//! over a bounded worker pool ([`Sweep::run_parallel`]). Reports are
//! bit-identical to the serial path — only wall-clock time changes —
//! and [`SweepResults::cells`] keeps the serial memory-major order
//! regardless of which worker finished first.

use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use gms_obs::{perfetto_trace, HeatMap, MemoryRecorder};
use gms_trace::apps::AppProfile;
use gms_trace::synth::LAYOUT_BASE;
use gms_trace::MaterializedTrace;
use gms_units::FastMap;

use crate::export::run_summary_json;
use crate::{FetchPolicy, MemoryConfig, RunReport, SimConfig, SimConfigBuilder, Simulator};

/// One cell of a sweep: its coordinates plus the full report.
#[derive(Debug)]
pub struct SweepCell {
    /// The fetch policy of this cell.
    pub policy: FetchPolicy,
    /// The memory configuration of this cell.
    pub memory: MemoryConfig,
    /// The measured run.
    pub report: RunReport,
}

/// A grid of simulation runs over one application.
///
/// # Examples
///
/// ```
/// use gms_core::{FetchPolicy, MemoryConfig, Sweep};
/// use gms_mem::SubpageSize;
/// use gms_trace::apps;
///
/// let sweep = Sweep::new(apps::gdb().scaled(0.2))
///     .policies([FetchPolicy::fullpage(), FetchPolicy::eager(SubpageSize::S1K)])
///     .memories([MemoryConfig::Half])
///     .run();
/// let best = sweep.best().expect("non-empty grid");
/// assert_eq!(best.policy, FetchPolicy::eager(SubpageSize::S1K));
/// ```
pub struct Sweep {
    app: AppProfile,
    policies: Vec<FetchPolicy>,
    memories: Vec<MemoryConfig>,
    configure: Arc<dyn Fn(SimConfigBuilder) -> SimConfigBuilder + Send + Sync>,
    heat: Option<HeatMap>,
}

impl std::fmt::Debug for Sweep {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sweep")
            .field("app", &self.app)
            .field("policies", &self.policies)
            .field("memories", &self.memories)
            .finish_non_exhaustive()
    }
}

impl Sweep {
    /// Starts a sweep over `app` with the paper's default grid: the
    /// disk and fullpage baselines plus eager fetch at the five paper
    /// subpage sizes, across all three memory configurations.
    #[must_use]
    pub fn new(app: AppProfile) -> Self {
        let mut policies = vec![FetchPolicy::disk(), FetchPolicy::fullpage()];
        for size in gms_mem::SubpageSize::PAPER_SIZES {
            policies.push(FetchPolicy::eager(size));
        }
        Sweep {
            app,
            policies,
            memories: vec![
                MemoryConfig::Full,
                MemoryConfig::Half,
                MemoryConfig::Quarter,
            ],
            configure: Arc::new(|b| b),
            heat: None,
        }
    }

    /// Replaces the policy axis.
    #[must_use]
    pub fn policies(mut self, policies: impl IntoIterator<Item = FetchPolicy>) -> Self {
        self.policies = policies.into_iter().collect();
        self
    }

    /// Replaces the memory axis.
    #[must_use]
    pub fn memories(mut self, memories: impl IntoIterator<Item = MemoryConfig>) -> Self {
        self.memories = memories.into_iter().collect();
        self
    }

    /// Applies extra configuration (network, replacement, …) to every
    /// cell.
    #[must_use]
    pub fn configure(
        mut self,
        f: impl Fn(SimConfigBuilder) -> SimConfigBuilder + Send + Sync + 'static,
    ) -> Self {
        self.configure = Arc::new(f);
        self
    }

    /// Accumulates a spatial [`HeatMap`] over the whole grid:
    /// `template` fixes the region granularity and quantum, every cell
    /// records into its own clone, and the per-cell partials roll up
    /// through [`HeatMap::merge`] — whose commutativity is what makes
    /// the rolled-up map identical whichever worker finished first.
    /// Available from [`SweepResults::heat`].
    #[must_use]
    pub fn heat(mut self, template: HeatMap) -> Self {
        self.heat = Some(template);
        self
    }

    /// Runs the grid serially (one worker).
    ///
    /// # Panics
    ///
    /// Panics if either axis is empty.
    #[must_use]
    pub fn run(self) -> SweepResults {
        self.run_parallel(1)
    }

    /// Runs the grid on up to `jobs` worker threads.
    ///
    /// The application trace is synthesized **once** and replayed by
    /// every cell, so N cells cost one synthesis. Cells are handed to
    /// workers dynamically but collected in the exact memory-major
    /// order of the serial path, and each cell's [`RunReport`] is
    /// bit-identical to what [`Sweep::run`] produces: the simulator is
    /// deterministic given a trace, and the cells share nothing else.
    ///
    /// `jobs` is clamped to `[1, cells]`; pass
    /// `std::thread::available_parallelism()` for a machine-sized pool.
    ///
    /// # Panics
    ///
    /// Panics if either axis is empty.
    #[must_use]
    pub fn run_parallel(self, jobs: usize) -> SweepResults {
        self.grid(jobs, None)
            .expect("an untraced sweep writes no file")
    }

    /// Runs the grid like [`Sweep::run_parallel`] and exports
    /// observability artifacts for every cell into `dir` (created if
    /// missing): a Perfetto `<policy>__<memory>.trace.json` and a
    /// `<policy>__<memory>.summary.json` per cell. Parallel workers
    /// write distinct files. `/` in labels (e.g. `1/2-mem`) is replaced
    /// with `-`.
    ///
    /// # Errors
    ///
    /// `dir` cannot be created (then no cell runs), or a cell's files
    /// cannot be written (the first such cell in grid order).
    ///
    /// # Panics
    ///
    /// Panics if either axis is empty.
    pub fn run_traced(self, jobs: usize, dir: &Path) -> Result<SweepResults, String> {
        self.grid(jobs, Some(dir))
    }

    /// The grid runner behind [`Sweep::run_parallel`] and
    /// [`Sweep::run_traced`].
    fn grid(self, jobs: usize, trace_dir: Option<&Path>) -> Result<SweepResults, String> {
        assert!(
            !self.policies.is_empty() && !self.memories.is_empty(),
            "sweep axes must be non-empty"
        );
        // Memory-major coordinates, exactly the serial cell order.
        let coords: Vec<(FetchPolicy, MemoryConfig)> = self
            .memories
            .iter()
            .flat_map(|&memory| self.policies.iter().map(move |&policy| (policy, memory)))
            .collect();
        if let Some(dir) = trace_dir {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        }
        let trace = Arc::new(MaterializedTrace::capture(&mut *self.app.source()));
        let footprint = self.app.footprint();
        let configure = &self.configure;
        let heat_template = &self.heat;

        let run_cell = |policy: FetchPolicy, memory: MemoryConfig| -> CellRun {
            let builder = SimConfig::builder().policy(policy).memory(memory);
            let config = configure(builder).build();
            let sim = Simulator::new(config);
            // One pass feeds every sink asked for: the trace buffer, the
            // cell's heat map, or both through the fan-out recorder.
            let mut sinks = (
                trace_dir.map(|_| MemoryRecorder::new()),
                heat_template.clone(),
            );
            let report = if sinks.0.is_none() && sinks.1.is_none() {
                sim.run_trace(&mut trace.cursor(), footprint, LAYOUT_BASE)
            } else {
                sim.run_trace_recorded(&mut trace.cursor(), footprint, LAYOUT_BASE, &mut sinks)
            };
            let (events, heat) = sinks;
            let write_error = match (trace_dir, events) {
                (Some(dir), Some(events)) => {
                    write_cell_files(dir, policy, memory, &events, &report).err()
                }
                _ => None,
            };
            CellRun {
                cell: SweepCell {
                    policy,
                    memory,
                    report,
                },
                heat,
                write_error,
            }
        };

        let finish = |runs: Vec<CellRun>| -> Result<SweepResults, String> {
            if let Some(error) = runs.iter().find_map(|run| run.write_error.clone()) {
                return Err(error);
            }
            let heat = heat_template.clone().map(|mut total| {
                for run in &runs {
                    total.merge(run.heat.as_ref().expect("every cell recorded heat"));
                }
                total
            });
            let cells = runs.into_iter().map(|r| r.cell).collect();
            Ok(SweepResults::new(cells, heat))
        };

        let workers = jobs.max(1).min(coords.len());
        if workers == 1 {
            return finish(coords.iter().map(|&(p, m)| run_cell(p, m)).collect());
        }

        // Order-preserving work stealing: workers claim cell indices
        // from a shared counter and deposit results into per-cell
        // slots, so completion order never affects report order.
        let slots: Vec<OnceLock<CellRun>> = coords.iter().map(|_| OnceLock::new()).collect();
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&(policy, memory)) = coords.get(i) else {
                        break;
                    };
                    let cell = run_cell(policy, memory);
                    slots[i].set(cell).unwrap_or_else(|_| {
                        unreachable!("cell {i} computed twice");
                    });
                });
            }
        });
        finish(
            slots
                .into_iter()
                .map(|slot| slot.into_inner().expect("worker pool computed every cell"))
                .collect(),
        )
    }
}

/// One finished cell, with its heat partial and any trace-file error.
struct CellRun {
    cell: SweepCell,
    heat: Option<HeatMap>,
    write_error: Option<String>,
}

/// Writes one cell's `<policy>__<memory>.{trace,summary}.json` pair.
fn write_cell_files(
    dir: &Path,
    policy: FetchPolicy,
    memory: MemoryConfig,
    events: &MemoryRecorder,
    report: &RunReport,
) -> Result<(), String> {
    let stem = format!(
        "{}__{}",
        sanitize_label(&policy.label()),
        sanitize_label(&memory.label())
    );
    for (kind, text) in [
        ("trace", perfetto_trace(events.iter())),
        ("summary", run_summary_json(report)),
    ] {
        let path = dir.join(format!("{stem}.{kind}.json"));
        std::fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    Ok(())
}

/// A label made filename-safe: `1/2-mem` → `1-2-mem`.
fn sanitize_label(label: &str) -> String {
    label.replace(['/', '\\'], "-")
}

/// The completed grid. Produced by [`Sweep::run`],
/// [`Sweep::run_parallel`] or [`Sweep::run_traced`].
#[derive(Debug)]
pub struct SweepResults {
    cells: Vec<SweepCell>,
    /// `(policy, memory) -> cells index`, built once so lookups on
    /// large grids (and repeated `speedup` calls) stay O(1).
    index: FastMap<(FetchPolicy, MemoryConfig), usize>,
    heat: Option<HeatMap>,
}

impl SweepResults {
    fn new(cells: Vec<SweepCell>, heat: Option<HeatMap>) -> Self {
        let mut index = FastMap::with_capacity_and_hasher(cells.len(), Default::default());
        for (i, cell) in cells.iter().enumerate() {
            // First occurrence wins, matching the old linear scan.
            index.entry((cell.policy, cell.memory)).or_insert(i);
        }
        SweepResults { cells, index, heat }
    }

    /// The grid-wide heat map, when the sweep was built with
    /// [`Sweep::heat`]: every cell's accumulator merged in cell order.
    #[must_use]
    pub fn heat(&self) -> Option<&HeatMap> {
        self.heat.as_ref()
    }

    /// All cells, memory-major in the order they ran.
    #[must_use]
    pub fn cells(&self) -> &[SweepCell] {
        &self.cells
    }

    /// The cell for an exact `(policy, memory)` pair.
    #[must_use]
    pub fn get(&self, policy: FetchPolicy, memory: MemoryConfig) -> Option<&SweepCell> {
        self.index.get(&(policy, memory)).map(|&i| &self.cells[i])
    }

    /// The fastest cell overall.
    #[must_use]
    pub fn best(&self) -> Option<&SweepCell> {
        self.cells.iter().min_by_key(|c| c.report.total_time)
    }

    /// Speedup of `policy` relative to `baseline` within `memory`.
    /// `None` if either cell is missing.
    #[must_use]
    pub fn speedup(
        &self,
        policy: FetchPolicy,
        baseline: FetchPolicy,
        memory: MemoryConfig,
    ) -> Option<f64> {
        let a = self.get(policy, memory)?;
        let b = self.get(baseline, memory)?;
        Some(a.report.speedup_vs(&b.report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gms_mem::SubpageSize;
    use gms_net::NetParams;
    use gms_trace::apps;

    fn tiny_sweep() -> SweepResults {
        Sweep::new(apps::gdb().scaled(0.2))
            .policies([
                FetchPolicy::fullpage(),
                FetchPolicy::eager(SubpageSize::S1K),
            ])
            .memories([MemoryConfig::Full, MemoryConfig::Half])
            .run()
    }

    #[test]
    fn grid_has_all_cells() {
        let results = tiny_sweep();
        assert_eq!(results.cells().len(), 4);
        for memory in [MemoryConfig::Full, MemoryConfig::Half] {
            for policy in [
                FetchPolicy::fullpage(),
                FetchPolicy::eager(SubpageSize::S1K),
            ] {
                assert!(results.get(policy, memory).is_some());
            }
        }
    }

    #[test]
    fn best_is_eager_and_speedup_positive() {
        let results = tiny_sweep();
        let best = results.best().expect("non-empty");
        assert_eq!(best.policy, FetchPolicy::eager(SubpageSize::S1K));
        let s = results
            .speedup(
                FetchPolicy::eager(SubpageSize::S1K),
                FetchPolicy::fullpage(),
                MemoryConfig::Half,
            )
            .expect("cells exist");
        assert!(s > 1.0, "speedup {s}");
    }

    #[test]
    fn missing_cell_returns_none() {
        let results = tiny_sweep();
        assert!(results
            .get(FetchPolicy::disk(), MemoryConfig::Half)
            .is_none());
        assert_eq!(
            results.speedup(
                FetchPolicy::disk(),
                FetchPolicy::fullpage(),
                MemoryConfig::Half
            ),
            None
        );
    }

    #[test]
    fn configure_applies_to_every_cell() {
        let app = apps::gdb().scaled(0.1);
        let results = Sweep::new(app.clone())
            .policies([FetchPolicy::fullpage()])
            .memories([MemoryConfig::Half])
            .configure(|b| b.net(NetParams::ethernet()))
            .run();
        let cell = &results.cells()[0];
        // The cell ran on the configured network, not the default AN2.
        let run = |net| {
            let config = SimConfig::builder()
                .policy(FetchPolicy::fullpage())
                .memory(MemoryConfig::Half)
                .net(net)
                .build();
            Simulator::new(config).run(&app)
        };
        assert_eq!(cell.report, run(NetParams::ethernet()));
        assert_ne!(cell.report, run(NetParams::paper()));
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_axis_panics() {
        let _ = Sweep::new(apps::gdb().scaled(0.1)).policies([]).run();
    }

    #[test]
    fn heat_rolls_up_across_cells_and_workers() {
        let grid = || {
            Sweep::new(apps::gdb().scaled(0.1))
                .policies([
                    FetchPolicy::fullpage(),
                    FetchPolicy::eager(SubpageSize::S1K),
                ])
                .memories([MemoryConfig::Full, MemoryConfig::Half])
                .heat(HeatMap::new().with_region_pages(16))
        };
        let serial = grid().run();
        let parallel = grid().run_parallel(3);
        let (a, b) = (
            serial.heat().expect("heat requested"),
            parallel.heat().expect("heat requested"),
        );
        // The merged map is worker-order independent, byte for byte.
        assert_eq!(gms_obs::heat_json(a), gms_obs::heat_json(b));
        assert_eq!(a.region_pages(), 16);
        // Grid-wide heat faults are the sum of the cell reports'.
        let reported: u64 = serial.cells().iter().map(|c| c.report.faults.total()).sum();
        assert_eq!(a.totals().total_faults(), reported);
        // Without the hook there is nothing to fetch.
        assert!(tiny_sweep().heat().is_none());
    }

    #[test]
    fn unwritable_trace_dir_is_an_error_not_a_panic() {
        let dir = std::env::temp_dir().join(format!(
            "gms-sweep-unwritable-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let sweep = || {
            Sweep::new(apps::gdb().scaled(0.05))
                .policies([FetchPolicy::fullpage()])
                .memories([MemoryConfig::Half])
        };
        // A directory under a regular file cannot be created.
        let file = dir.join("regular-file");
        std::fs::write(&file, "not a directory").unwrap();
        let error = sweep().run_traced(1, &file.join("sub")).unwrap_err();
        assert!(error.starts_with("cannot create"), "{error}");
        // A cell file cannot be written over a directory of its name.
        std::fs::create_dir_all(dir.join("p_8192__1-2-mem.trace.json")).unwrap();
        let error = sweep().run_traced(1, &dir).unwrap_err();
        assert!(error.starts_with("cannot write"), "{error}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trace_dir_emits_one_trace_and_summary_per_cell() {
        let dir = std::env::temp_dir().join(format!(
            "gms-sweep-trace-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let results = Sweep::new(apps::gdb().scaled(0.1))
            .policies([
                FetchPolicy::fullpage(),
                FetchPolicy::eager(SubpageSize::S1K),
            ])
            .memories([MemoryConfig::Half])
            .run_traced(2, &dir)
            .expect("the trace directory is writable");
        assert_eq!(results.cells().len(), 2);
        for stem in ["p_8192__1-2-mem", "sp_1024__1-2-mem"] {
            let trace =
                std::fs::read_to_string(dir.join(format!("{stem}.trace.json"))).expect(stem);
            gms_obs::JsonValue::parse(&trace).expect("trace parses");
            let summary =
                std::fs::read_to_string(dir.join(format!("{stem}.summary.json"))).expect(stem);
            let doc = gms_obs::JsonValue::parse(&summary).expect("summary parses");
            assert_eq!(
                doc.get("schema").unwrap().as_str(),
                Some(crate::export::SUMMARY_SCHEMA)
            );
        }
        // Tracing is a side channel: reports match the untraced sweep.
        let plain = Sweep::new(apps::gdb().scaled(0.1))
            .policies([
                FetchPolicy::fullpage(),
                FetchPolicy::eager(SubpageSize::S1K),
            ])
            .memories([MemoryConfig::Half])
            .run();
        for (a, b) in results.cells().iter().zip(plain.cells()) {
            assert_eq!(a.report, b.report);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
