//! Synthetic models of the paper's five traced applications.
//!
//! The paper (§4) traces five programs with Atom and reports, for each, the
//! reference count and the range of page-fault counts across its three
//! memory configurations:
//!
//! | App      | References | Faults (full-mem … 1/4-mem) |
//! |----------|-----------:|----------------------------:|
//! | Modula-3 |       87 M | 773 … 5655                  |
//! | ld       |      102 M | 6807 … 10629                |
//! | Atom     |       73 M | 1175 … 5275                 |
//! | Render   |      245 M | 1433 … 6145                 |
//! | gdb      |      0.5 M | 138 … 882                   |
//!
//! The original traces are unavailable, so each profile here is a
//! [`PhaseProgram`] built from the generators in [`crate::synth`], shaped
//! so that:
//!
//! * the **reference count** matches the paper's exactly (at scale 1.0),
//! * the **footprint** (distinct 8 KB pages) equals the paper's full-memory
//!   fault count exactly — in a warm-cache run every first touch faults,
//! * the **fault counts at 1/2 and 1/4 memory** land in the paper's ranges
//!   through deliberate working-set structure (regions that fit in half
//!   but not quarter memory, global passes that fit in neither), and
//! * the **clustering and locality shapes** match the paper's Figures 6, 7
//!   and 10 (bursty scans for Modula-3/gdb, smooth interleaving for Atom,
//!   +1-dominant subpage distances everywhere).
//!
//! Every profile has a [`scale`](AppProfile::scaled) knob that shrinks the
//! reference count and the footprint together, preserving the fault-rate
//! structure while making test runs fast. Scale 1.0 is paper fidelity.

use gms_units::Bytes;

use crate::synth::{
    HeaderTouch, Layout, Phase, PhaseProgram, PointerChase, Region, SeqScan, WorkLoop,
};
use crate::{AccessKind, TraceSource};

/// The Alpha page size all profile footprints are defined against.
pub const PAGE: Bytes = Bytes::new(8192);

/// Which of the paper's applications a profile models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AppKind {
    /// The DEC SRC Modula-3 compiler compiling the `smalldb` library.
    Modula3,
    /// The Unix object-file linker linking Digital Unix V3.2.
    Ld,
    /// Atom instrumenting the gzip binary.
    Atom,
    /// The graphics renderer walking a large precomputed scene database.
    Render,
    /// The GNU debugger's initialization phase.
    Gdb,
}

/// A synthetic model of one of the paper's traced applications.
///
/// # Examples
///
/// ```
/// use gms_trace::apps;
///
/// let app = apps::modula3().scaled(0.02);
/// assert_eq!(app.name(), "modula3");
/// assert!(app.target_refs() < apps::modula3().target_refs());
/// ```
#[derive(Debug, Clone)]
pub struct AppProfile {
    kind: AppKind,
    scale: f64,
}

/// The Modula-3 compiler model: per-module parse/typecheck cycles over a
/// hot symbol table, then two global code-generation passes.
#[must_use]
pub fn modula3() -> AppProfile {
    AppProfile {
        kind: AppKind::Modula3,
        scale: 1.0,
    }
}

/// The linker model: one long streaming pass over object files, a hot
/// symbol table, a relocation re-scan, and a sequential output write.
#[must_use]
pub fn ld() -> AppProfile {
    AppProfile {
        kind: AppKind::Ld,
        scale: 1.0,
    }
}

/// The Atom instrumenter model: many uniform steps, each consuming a
/// little new input while reworking a sliding window of recent data —
/// the paper's smoothest fault curve (Figure 10).
#[must_use]
pub fn atom() -> AppProfile {
    AppProfile {
        kind: AppKind::Atom,
        scale: 1.0,
    }
}

/// The Render model: a scene-database load followed by per-frame
/// traversals of random database subsets plus framebuffer writes.
#[must_use]
pub fn render() -> AppProfile {
    AppProfile {
        kind: AppKind::Render,
        scale: 1.0,
    }
}

/// The gdb-initialization model: repeated passes over symbol tables with
/// pointer chasing — tiny trace, extreme fault clustering (Figure 10).
#[must_use]
pub fn gdb() -> AppProfile {
    AppProfile {
        kind: AppKind::Gdb,
        scale: 1.0,
    }
}

/// All five application profiles, in the paper's order.
#[must_use]
pub fn all() -> Vec<AppProfile> {
    vec![modula3(), ld(), atom(), render(), gdb()]
}

impl AppProfile {
    /// The application's short name, as used in the paper's figures.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self.kind {
            AppKind::Modula3 => "modula3",
            AppKind::Ld => "ld",
            AppKind::Atom => "atom",
            AppKind::Render => "render",
            AppKind::Gdb => "gdb",
        }
    }

    /// Which application this profile models.
    #[must_use]
    pub fn kind(&self) -> AppKind {
        self.kind
    }

    /// The current scale factor (1.0 = paper fidelity).
    #[must_use]
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Returns a copy scaled by `factor` (multiplicative with the current
    /// scale). Both the reference count and the footprint shrink, so
    /// fault-rate structure is preserved.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not strictly positive.
    #[must_use]
    pub fn scaled(&self, factor: f64) -> AppProfile {
        assert!(factor > 0.0, "scale factor must be positive");
        AppProfile {
            kind: self.kind,
            scale: self.scale * factor,
        }
    }

    /// The paper's reference count for this trace (unscaled).
    #[must_use]
    pub fn paper_refs(&self) -> u64 {
        match self.kind {
            AppKind::Modula3 => 87_000_000,
            AppKind::Ld => 102_000_000,
            AppKind::Atom => 73_000_000,
            AppKind::Render => 245_000_000,
            AppKind::Gdb => 500_000,
        }
    }

    /// The paper's page-fault count range `(full-mem, 1/4-mem)`.
    #[must_use]
    pub fn paper_fault_range(&self) -> (u64, u64) {
        match self.kind {
            AppKind::Modula3 => (773, 5655),
            AppKind::Ld => (6807, 10629),
            AppKind::Atom => (1175, 5275),
            AppKind::Render => (1433, 6145),
            AppKind::Gdb => (138, 882),
        }
    }

    /// Total references the built trace will contain at the current scale.
    #[must_use]
    pub fn target_refs(&self) -> u64 {
        let (_, hi) = self.build().refs_hint();
        hi.expect("app programs have exact reference counts")
    }

    /// Footprint in bytes (the sum of all allocated regions) at the
    /// current scale.
    #[must_use]
    pub fn footprint(&self) -> Bytes {
        self.plan().layout.allocated()
    }

    /// Footprint in `page_size`-sized pages (rounded up).
    #[must_use]
    pub fn footprint_pages(&self, page_size: Bytes) -> u64 {
        self.footprint().div_ceil(page_size)
    }

    /// Builds a fresh trace source for this profile. Each call returns an
    /// identical, deterministic stream.
    #[must_use]
    pub fn source(&self) -> Box<dyn TraceSource> {
        Box::new(self.build())
    }

    fn build(&self) -> PhaseProgram {
        let plan = self.plan();
        plan.program
    }

    /// `pages` from the paper-scale design, scaled, at least 1.
    fn pages(&self, full_scale_pages: u64) -> u64 {
        ((full_scale_pages as f64 * self.scale).round() as u64).max(1)
    }

    /// `refs` from the paper-scale design, scaled.
    fn refs(&self, full_scale_refs: u64) -> u64 {
        (full_scale_refs as f64 * self.scale).round() as u64
    }

    fn plan(&self) -> AppPlan {
        match self.kind {
            AppKind::Modula3 => self.plan_modula3(),
            AppKind::Ld => self.plan_ld(),
            AppKind::Atom => self.plan_atom(),
            AppKind::Render => self.plan_render(),
            AppKind::Gdb => self.plan_gdb(),
        }
    }

    /// Modula-3: footprint 773 pages = 150 symtab + 8×70 modules + 63
    /// output. Refs 87 M. Bursty: per-module parse scans and group
    /// typecheck scans between long resident compute loops; two global
    /// codegen passes at the end.
    fn plan_modula3(&self) -> AppPlan {
        let mut layout = Layout::new();
        let symtab = layout.alloc_pages("symtab", self.pages(150));
        let modules: Vec<Region> = (0..8)
            .map(|_| layout.alloc_pages("module", self.pages(70)))
            .collect();
        let output = layout.alloc_pages("output", self.pages(63));

        let mut budget = RefBudget::new(self.refs(87_000_000));
        let mut phases = Vec::new();

        // Initial symbol-table construction: a header burst over the
        // stdlib's interface pages, then one write pass building entries.
        // Symbol entries are small: 256-byte clusters.
        phases.push(header_phase_cfg(
            &mut budget,
            "stdlib-headers",
            symtab,
            None,
            1,
            Bytes::ZERO,
            Bytes::new(256),
        ));
        phases.push(Phase::new(
            "stdlib-load",
            SeqScan::new(symtab, 16, budget.scan(symtab, 16, 1), AccessKind::Write),
        ));

        let module_span = span(&modules);
        // Reserve the output-write pass (computed before loops so the
        // loops can absorb the exact remainder).
        let output_refs = exact_scan_refs(output, 8, 1);
        budget.reserve(output_refs);

        for (i, module) in modules.iter().enumerate() {
            // Parse: a declaration-header burst over the module's pages
            // (rapid faults, one subpage-sized cluster per page, symbol
            // lookups between pages), then the body scan. Half the
            // modules keep their declarations 1 KB into each page, so
            // the body scan's first touch lands on a *preceding* subpage
            // — Figure 7's negative distances.
            let decl_offset = if i % 2 == 1 {
                Bytes::new(1024)
            } else {
                Bytes::ZERO
            };
            phases.push(header_phase_cfg(
                &mut budget,
                "parse-headers",
                *module,
                Some((symtab, 10000)),
                1,
                decl_offset,
                Bytes::new(512),
            ));
            phases.push(Phase::new(
                "parse",
                SeqScan::new(*module, 16, budget.scan(*module, 16, 1), AccessKind::Read),
            ));
            // Typecheck: an AST-node walk over this module together with
            // its predecessor — a working set that fits in half memory
            // but not quarter memory, so its refaults appear only in the
            // most constrained configuration. The walk is node-at-a-time
            // (header bursts with symbol work between pages), then the
            // current module's bodies are re-read sequentially.
            let group = if i == 0 {
                *module
            } else {
                join(modules[i - 1], *module)
            };
            // The walk inspects each page's inner nodes (2 KB in), so the
            // later body scan from the page base touches a *preceding*
            // subpage first: Figure 7's negative-distance population.
            phases.push(header_phase_at(
                &mut budget,
                "typecheck-walk",
                group,
                Some((symtab, 4000)),
                1,
                Bytes::new(2048),
            ));
            phases.push(Phase::new(
                "typecheck-bodies",
                SeqScan::new(*module, 16, budget.scan(*module, 16, 1), AccessKind::Read),
            ));
            phases.push(Phase::new(
                "typecheck-symtab",
                SeqScan::new(symtab, 32, budget.scan(symtab, 32, 1), AccessKind::Read),
            ));
            // Compute: long resident loops, alternating symtab and module.
            let compute = budget.fraction(1.0 / 9.0);
            phases.push(Phase::new(
                "compute-symtab",
                WorkLoop::builder(symtab)
                    .refs(compute / 2)
                    .seed(100 + i as u64)
                    .write_fraction(0.3)
                    .build(),
            ));
            phases.push(Phase::new(
                "compute-module",
                WorkLoop::builder(*module)
                    .refs(compute - compute / 2)
                    .seed(200 + i as u64)
                    .write_fraction(0.1)
                    .build(),
            ));
            // Symbol lookups: light pointer chasing.
            phases.push(Phase::new(
                "lookup",
                PointerChase::new(symtab, budget.fraction(0.004), 4, 300 + i as u64),
            ));
        }

        // Code generation: a procedure-at-a-time burst over all modules
        // (the biggest phase change — the steep jump in Figure 6), and a
        // sequential write of the output.
        budget.release(output_refs);
        phases.push(header_phase_cfg(
            &mut budget,
            "codegen",
            module_span,
            Some((symtab, 6000)),
            1,
            Bytes::ZERO,
            Bytes::new(2048),
        ));
        phases.push(Phase::new(
            "emit",
            SeqScan::new(output, 8, budget.take(output_refs), AccessKind::Write),
        ));
        // Whatever is left becomes one final resident polish loop.
        phases.push(Phase::new(
            "final-touches",
            WorkLoop::builder(output)
                .refs(budget.rest())
                .seed(999)
                .write_fraction(0.5)
                .build(),
        ));

        AppPlan {
            layout,
            program: PhaseProgram::new(phases),
        }
    }

    /// ld: footprint 6807 pages = 4800 objects + 1400 symtab + 607
    /// output. Mostly streaming (small 1/4-mem fault growth): one pass
    /// over the objects, a relocation re-scan of their first 40%, a large
    /// symbol table that stays resident in half memory but churns in
    /// quarter memory, and a sequential output write.
    fn plan_ld(&self) -> AppPlan {
        let mut layout = Layout::new();
        let objects = layout.alloc_pages("objects", self.pages(4800));
        let symtab = layout.alloc_pages("symtab", self.pages(1400));
        let output = layout.alloc_pages("output", self.pages(607));

        let mut budget = RefBudget::new(self.refs(102_000_000));
        let mut phases = Vec::new();

        // Stream all object files once, interleaved with symbol-table
        // insertion loops so faulting stays spread out.
        let object_chunks = objects.chunks(8);
        for (i, chunk) in object_chunks.iter().enumerate() {
            // The symbol work for this batch of objects concentrates on a
            // rotating quarter of the table: resident in half memory,
            // churned out of quarter memory by the object stream between
            // visits.
            let slice = symtab.chunks(4)[i % 4];
            // Section-header sweep, then the streaming body copy. The
            // linker spends most of its faults in the body scans, which
            // block on the rest of each page — the reason ld shows the
            // paper's smallest eager improvement (Figure 9).
            phases.push(header_phase_cfg(
                &mut budget,
                "section-headers",
                *chunk,
                Some((slice, 2000)),
                1,
                Bytes::ZERO,
                Bytes::new(512),
            ));
            phases.push(Phase::new(
                "read-objects",
                SeqScan::new(*chunk, 16, budget.scan(*chunk, 16, 1), AccessKind::Read),
            ));
            phases.push(Phase::new(
                "insert-symbols",
                WorkLoop::builder(slice)
                    .refs(budget.fraction(0.055))
                    .seed(i as u64)
                    .write_fraction(0.5)
                    .build(),
            ));
            phases.push(Phase::new(
                "lookup-symbols",
                PointerChase::new(slice, budget.fraction(0.01), 4, 40 + i as u64),
            ));
        }

        // Relocation: re-scan the first 40% of the object pages (they have
        // long since been evicted in the constrained configurations).
        let (reloc_window, _) = objects.split_at(Bytes::new(objects.len().get() * 2 / 5));
        phases.push(Phase::new(
            "relocate",
            SeqScan::new(
                reloc_window,
                16,
                budget.scan(reloc_window, 16, 1),
                AccessKind::Read,
            ),
        ));

        // Output write plus a final fix-up loop over the output.
        phases.push(Phase::new(
            "write-output",
            SeqScan::new(output, 8, budget.scan(output, 8, 1), AccessKind::Write),
        ));
        phases.push(Phase::new(
            "fixups",
            WorkLoop::builder(output)
                .refs(budget.rest())
                .seed(77)
                .write_fraction(0.4)
                .build(),
        ));

        AppPlan {
            layout,
            program: PhaseProgram::new(phases),
        }
    }

    /// Atom: footprint 1175 pages = 600 input + 475 working + 100 tables.
    /// Forty uniform steps; each reads a slice of new input and reworks a
    /// window of recent data. No big global passes — the fault curve rises
    /// smoothly (Figure 10).
    fn plan_atom(&self) -> AppPlan {
        let mut layout = Layout::new();
        let input = layout.alloc_pages("input", self.pages(600));
        let working = layout.alloc_pages("working", self.pages(475));
        let tables = layout.alloc_pages("tables", self.pages(100));

        let mut budget = RefBudget::new(self.refs(73_000_000));
        let mut phases = Vec::new();

        phases.push(Phase::new(
            "load-tables",
            SeqScan::new(tables, 16, budget.scan(tables, 16, 1), AccessKind::Read),
        ));

        // The working region is initialized incrementally across the
        // first steps (not as one big scan), keeping Atom's fault curve
        // smooth all the way down (Figure 10).
        let init_chunks = working.chunks(10);
        let steps = input.chunks(40);
        let n = steps.len();
        for (i, step) in steps.into_iter().enumerate() {
            if i % 2 == 0 && i / 2 < init_chunks.len() {
                let chunk = init_chunks[i / 2];
                phases.push(Phase::new(
                    "init-working",
                    SeqScan::new(chunk, 16, budget.scan(chunk, 16, 1), AccessKind::Write),
                ));
            }
            phases.push(header_phase(
                &mut budget,
                "inspect-input",
                step,
                Some((tables, 2500)),
                1,
            ));
            phases.push(Phase::new(
                "consume-input",
                SeqScan::new(step, 16, budget.scan(step, 16, 1), AccessKind::Read),
            ));
            // Rework a sliding window of recent data: about 40% of the
            // working region, advancing half a window per step. The
            // window fits in half memory but overflows quarter memory,
            // producing the steady background fault trickle that makes
            // Atom's curve smooth (Figure 10) without thrashing.
            let w_chunks = working.chunks(10);
            let lo = (i / 2) % 7;
            let window = span(&w_chunks[lo..lo + 4]);
            phases.push(Phase::new(
                "instrument",
                WorkLoop::builder(window)
                    .refs(budget.fraction(1.0 / (n - i) as f64 * 0.93))
                    .locality(0.85)
                    .seed(500 + i as u64)
                    .write_fraction(0.35)
                    .build(),
            ));
            phases.push(Phase::new(
                "consult-tables",
                PointerChase::new(
                    tables,
                    budget.fraction(1.0 / (n - i) as f64 * 0.04),
                    4,
                    600 + i as u64,
                ),
            ));
        }
        phases.push(Phase::new(
            "flush",
            WorkLoop::builder(working)
                .refs(budget.rest())
                .seed(888)
                .write_fraction(0.5)
                .build(),
        ));

        AppPlan {
            layout,
            program: PhaseProgram::new(phases),
        }
    }

    /// Render: footprint 1433 pages = 1300 scene database + 133
    /// framebuffer. A load pass, then 24 frames each traversing a random
    /// quarter of the database chunks and writing the framebuffer.
    fn plan_render(&self) -> AppPlan {
        let mut layout = Layout::new();
        let scene = layout.alloc_pages("scene", self.pages(1300));
        let framebuffer = layout.alloc_pages("framebuffer", self.pages(133));

        let mut budget = RefBudget::new(self.refs(245_000_000));
        let mut phases = Vec::new();

        // Build the spatial index: touch every cell's bounding volume
        // (header burst over the whole database), then read it once.
        phases.push(header_phase_cfg(
            &mut budget,
            "index-scene",
            scene,
            Some((framebuffer, 1500)),
            1,
            Bytes::ZERO,
            Bytes::new(256),
        ));
        phases.push(Phase::new(
            "load-scene",
            SeqScan::new(scene, 32, budget.scan(scene, 32, 1), AccessKind::Read),
        ));

        // 24 frames; each frame walks a deterministic-but-varying quarter
        // of the scene chunks (a spatial-hierarchy cut) and writes the
        // framebuffer.
        let chunks = scene.chunks(20);
        let details = scene.chunks(80);
        let frames = 24u64;
        for f in 0..frames {
            // Pick 4 consecutive chunks, advancing one per frame so
            // consecutive frames share 3 of 4 chunks (camera coherence).
            // Each chunk is culled by bounding volume (header burst)
            // before its visible geometry is read.
            for c in 0..4u64 {
                let idx = ((f + c) % 20) as usize;
                let chunk = chunks[idx];
                phases.push(header_phase_cfg(
                    &mut budget,
                    "cull",
                    chunk,
                    Some((framebuffer, 3000)),
                    1,
                    Bytes::ZERO,
                    Bytes::new(512),
                ));
                phases.push(Phase::new(
                    "traverse",
                    SeqScan::new(chunk, 32, budget.scan(chunk, 32, 1), AccessKind::Read),
                ));
            }
            // A reflected or shadowed detail lands outside the camera
            // cut: a small pseudo-random span of the database, usually
            // evicted in the constrained configurations.
            let detail = details[((f * 7 + 5) % 80) as usize];
            phases.push(header_phase(
                &mut budget,
                "detail",
                detail,
                Some((framebuffer, 2000)),
                1,
            ));
            phases.push(Phase::new(
                "shade",
                WorkLoop::builder(framebuffer)
                    .refs(budget.fraction(1.0 / (frames - f) as f64 * 0.9))
                    .seed(700 + f)
                    .write_fraction(0.6)
                    .build(),
            ));
        }
        let remaining = budget.rest();
        let present_refs = remaining.min(exact_scan_refs(framebuffer, 8, 1));
        if present_refs > 0 {
            phases.push(Phase::new(
                "present",
                SeqScan::new(framebuffer, 8, present_refs, AccessKind::Read),
            ));
        }
        let rest = remaining - present_refs;
        if rest > 0 {
            phases.push(Phase::new(
                "idle-shade",
                WorkLoop::builder(framebuffer).refs(rest).seed(701).build(),
            ));
        }

        AppPlan {
            layout,
            program: PhaseProgram::new(phases),
        }
    }

    /// gdb initialization: footprint 138 pages = 110 symbols + 28 state.
    /// Three global passes and five half-region passes over the symbol
    /// tables, separated by almost no compute — the steep staircase fault
    /// curve of Figure 10.
    fn plan_gdb(&self) -> AppPlan {
        let mut layout = Layout::new();
        let symbols = layout.alloc_pages("symbols", self.pages(110));
        let state = layout.alloc_pages("state", self.pages(28));

        let mut budget = RefBudget::new(self.refs(500_000));
        let mut phases = vec![Phase::new(
            "init-state",
            SeqScan::new(state, 32, budget.scan(state, 32, 1), AccessKind::Write),
        )];
        // Partial-symbol-table construction: gdb famously reads only the
        // headers of each debug-info page first — two rapid-fire bursts
        // (the steepest staircase in Figure 10, and the largest I/O
        // overlap share in §4.4: 83%). Long state-machine phases sit
        // between the bursts; they are the flat treads of the staircase.
        phases.push(header_phase_cfg(
            &mut budget,
            "psymtab-headers",
            symbols,
            Some((state, 60)),
            2,
            Bytes::ZERO,
            Bytes::new(256),
        ));
        phases.push(Phase::new(
            "sort-psymtabs",
            WorkLoop::builder(state)
                .refs(budget.fraction(0.22))
                .seed(1)
                .build(),
        ));
        // One full ELF read pass (sequential, blocking faults), then two
        // more symbol-table construction passes as bursts.
        phases.push(Phase::new(
            "read-symbols",
            SeqScan::new(symbols, 32, budget.scan(symbols, 32, 1), AccessKind::Read),
        ));
        phases.push(Phase::new(
            "bookkeeping",
            WorkLoop::builder(state)
                .refs(budget.fraction(0.3))
                .seed(2)
                .build(),
        ));
        phases.push(header_phase_cfg(
            &mut budget,
            "build-psymtab",
            symbols,
            Some((state, 60)),
            1,
            Bytes::ZERO,
            Bytes::new(512),
        ));
        phases.push(Phase::new(
            "resolve-types",
            WorkLoop::builder(state)
                .refs(budget.fraction(0.3))
                .seed(3)
                .build(),
        ));
        phases.push(header_phase(
            &mut budget,
            "index-symbols",
            symbols,
            Some((state, 60)),
            1,
        ));
        phases.push(Phase::new(
            "lookup",
            PointerChase::new(state, budget.fraction(0.25), 3, 900),
        ));

        // Passes over the main objfile's symbols (the first ~36% of the
        // symbol pages): together with the hot state they fit in half
        // memory but thrash quarter memory. Mostly symbol-at-a-time
        // bursts with one sequential expansion.
        let (main_objfile, _) = symbols.split_at(Bytes::new(symbols.len().get() * 4 / 11));
        phases.push(header_phase_cfg(
            &mut budget,
            "expand-main-objfile",
            main_objfile,
            Some((state, 60)),
            2,
            Bytes::ZERO,
            Bytes::new(512),
        ));
        // gdb expands symbols innermost-scope first: a backward pass,
        // giving Figure 7's −1 distances.
        phases.push(Phase::new(
            "read-main-objfile",
            SeqScan::new(
                main_objfile,
                -32,
                budget.scan(main_objfile, -32, 1),
                AccessKind::Read,
            ),
        ));
        phases.push(Phase::new(
            "prompt",
            WorkLoop::builder(state)
                .refs(budget.rest())
                .seed(42)
                .build(),
        ));

        AppPlan {
            layout,
            program: PhaseProgram::new(phases),
        }
    }
}

/// A built application plan: its address-space layout (for footprint
/// accounting) plus the phase program.
struct AppPlan {
    layout: Layout,
    program: PhaseProgram,
}

/// A header-burst phase: touch the first ~1 KB of each page of `region`
/// in page order, doing `hot_refs` of hot work between pages. These are
/// the high-fault-rate intervals of Figures 6/10 where consecutive
/// faults' follow-on transfers overlap (§4.2).
fn header_phase(
    budget: &mut RefBudget,
    name: &'static str,
    region: Region,
    hot: Option<(Region, u64)>,
    passes: u64,
) -> Phase {
    header_phase_cfg(
        budget,
        name,
        region,
        hot,
        passes,
        Bytes::ZERO,
        Bytes::new(1024),
    )
}

/// As [`header_phase`], with the cluster placed `offset` bytes into each
/// page — when the page's remainder is later read from its base, the
/// first different subpage touched *precedes* the faulted one, producing
/// Figure 7's negative distances.
fn header_phase_at(
    budget: &mut RefBudget,
    name: &'static str,
    region: Region,
    hot: Option<(Region, u64)>,
    passes: u64,
    offset: Bytes,
) -> Phase {
    header_phase_cfg(budget, name, region, hot, passes, offset, Bytes::new(1024))
}

/// The general form: `cluster` bytes consumed per page at `offset`.
/// Header sizes differ across real structures (symbol entries, section
/// tables, bounding volumes…); the mix of cluster sizes across phases is
/// what grades the benefit of the *smaller* subpage sizes in Figure 3 —
/// a 512-byte subpage satisfies a 512-byte cluster in one transfer but
/// stalls halfway through a 2 KB one.
#[allow(clippy::too_many_arguments)]
fn header_phase_cfg(
    budget: &mut RefBudget,
    name: &'static str,
    region: Region,
    hot: Option<(Region, u64)>,
    passes: u64,
    offset: Bytes,
    cluster: Bytes,
) -> Phase {
    let mut builder = HeaderTouch::builder(region)
        .passes(passes)
        .offset(offset)
        .cluster(cluster);
    if let Some((hot_region, hot_refs)) = hot {
        builder = builder.hot(hot_region, hot_refs);
    }
    let refs = budget.take(builder.full_refs());
    Phase::new(name, builder.budget(refs).build())
}

/// One region spanning both inputs (they must be adjacent or at least
/// ordered; the span covers everything between).
fn join(a: Region, b: Region) -> Region {
    let start = a.start().min(b.start());
    let end = a.end().max(b.end());
    Region::new(a.name(), start, end - start)
}

/// One region spanning a whole list of consecutive regions.
fn span(regions: &[Region]) -> Region {
    let first = *regions.first().expect("span of no regions");
    regions.iter().copied().fold(first, join)
}

/// References needed to scan `region` `passes` times at `stride`.
fn exact_scan_refs(region: Region, stride: i64, passes: u64) -> u64 {
    SeqScan::refs_per_pass(region, stride) * passes
}

/// Tracks how many references remain to be handed out while building a
/// plan, so that the final total is exact.
#[derive(Debug)]
struct RefBudget {
    left: u64,
    reserved: u64,
}

impl RefBudget {
    fn new(total: u64) -> Self {
        RefBudget {
            left: total,
            reserved: 0,
        }
    }

    /// Takes exactly the references for `passes` scans of `region`,
    /// clamped to what is available.
    fn scan(&mut self, region: Region, stride: i64, passes: u64) -> u64 {
        self.take(exact_scan_refs(region, stride, passes))
    }

    /// Takes up to `n` references.
    fn take(&mut self, n: u64) -> u64 {
        let available = self.left - self.reserved.min(self.left);
        let n = n.min(available);
        self.left -= n;
        n
    }

    /// Takes a fraction of the *remaining unreserved* budget.
    fn fraction(&mut self, f: f64) -> u64 {
        let available = self.left - self.reserved.min(self.left);
        self.take((available as f64 * f).round() as u64)
    }

    /// Sets aside `n` references that `take`/`fraction` may not consume.
    fn reserve(&mut self, n: u64) {
        self.reserved += n;
    }

    /// Releases a prior reservation.
    fn release(&mut self, n: u64) {
        self.reserved = self.reserved.saturating_sub(n);
    }

    /// Everything that remains.
    fn rest(&mut self) -> u64 {
        let n = self.left - self.reserved.min(self.left);
        self.left -= n;
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceStats;

    #[test]
    fn paper_reference_counts_are_exact_at_full_scale() {
        for app in all() {
            assert_eq!(
                app.target_refs(),
                app.paper_refs(),
                "{} reference count",
                app.name()
            );
        }
    }

    #[test]
    fn footprints_match_paper_full_memory_fault_counts() {
        for app in all() {
            let (full_mem_faults, _) = app.paper_fault_range();
            assert_eq!(
                app.footprint_pages(PAGE),
                full_mem_faults,
                "{} footprint pages",
                app.name()
            );
        }
    }

    /// Draining the trace must touch exactly the allocated footprint and
    /// produce exactly the target reference count. gdb is small enough to
    /// drain at full scale; the rest are checked scaled down.
    #[test]
    fn gdb_trace_stats_match_profile() {
        let app = gdb();
        let mut src = app.source();
        let stats = TraceStats::collect(&mut *src, PAGE);
        assert_eq!(stats.total_refs, app.target_refs());
        assert_eq!(stats.distinct_pages, app.footprint_pages(PAGE));
        assert!(stats.writes > 0, "gdb model should issue some writes");
    }

    #[test]
    fn scaled_traces_cover_scaled_footprint() {
        for app in all() {
            let app = app.scaled(0.02);
            let mut src = app.source();
            let stats = TraceStats::collect(&mut *src, PAGE);
            assert_eq!(
                stats.total_refs,
                app.target_refs(),
                "{} scaled refs",
                app.name()
            );
            assert_eq!(
                stats.distinct_pages,
                app.footprint_pages(PAGE),
                "{} scaled footprint",
                app.name()
            );
        }
    }

    #[test]
    fn sources_are_deterministic() {
        let app = gdb().scaled(0.5);
        let drain = || {
            let mut src = app.source();
            let mut runs = Vec::new();
            while let Some(r) = src.next_run() {
                runs.push(r);
            }
            runs
        };
        assert_eq!(drain(), drain());
    }

    #[test]
    fn scaling_composes_multiplicatively() {
        let app = modula3().scaled(0.5).scaled(0.5);
        assert!((app.scale() - 0.25).abs() < 1e-12);
        assert_eq!(app.target_refs(), modula3().scaled(0.25).target_refs());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_scale_panics() {
        let _ = modula3().scaled(0.0);
    }

    #[test]
    fn all_returns_five_distinct_apps() {
        let apps = all();
        assert_eq!(apps.len(), 5);
        let names: std::collections::HashSet<_> = apps.iter().map(|a| a.name()).collect();
        assert_eq!(names.len(), 5);
    }

    #[test]
    fn join_and_span_cover_inputs() {
        let mut layout = Layout::new();
        let a = layout.alloc_pages("a", 2);
        let b = layout.alloc_pages("b", 3);
        let j = join(a, b);
        assert_eq!(j.start(), a.start());
        assert_eq!(j.end(), b.end());
        let s = span(&[a, b]);
        assert_eq!(s.len(), Bytes::kib(8) * 5);
    }
}
