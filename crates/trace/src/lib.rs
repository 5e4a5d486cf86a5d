//! Memory-reference traces for the `gms-subpages` reproduction.
//!
//! The paper drives its simulator with Atom-generated reference traces of
//! five applications (Modula-3, ld, Atom, Render, gdb). Those traces are
//! not available, so this crate provides:
//!
//! * a compact **run-length-encoded trace representation** ([`Run`],
//!   [`TraceSource`]) that streams hundreds of millions of references
//!   without materializing them,
//! * **composable synthetic generators** ([`synth`]) — sequential scans,
//!   working-set loops, pointer chases, phase programs — that reproduce the
//!   behavioural properties the paper's results depend on (footprint,
//!   temporal fault clustering, spatial locality across subpages), and
//! * **per-application profiles** ([`apps`]) calibrated against the paper's
//!   published statistics (reference counts and fault-count ranges).
//!
//! # Examples
//!
//! ```
//! use gms_trace::{apps, TraceStats};
//!
//! let app = apps::gdb(); // the paper's smallest trace: ~0.5M references
//! let mut source = app.source();
//! let stats = TraceStats::collect(&mut *source, gms_units::Bytes::kib(8));
//! assert_eq!(stats.total_refs, app.target_refs());
//! assert_eq!(stats.distinct_pages, app.footprint_pages(gms_units::Bytes::kib(8)));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod materialize;
mod record;
mod run;
mod stats;
mod stream;

pub mod apps;
pub mod io;
pub mod synth;

pub use materialize::{MaterializedTrace, TraceCursor};
pub use record::{Access, AccessKind};
pub use run::{Run, RunIter};
pub use stats::TraceStats;
pub use stream::{per_ref, PerRef, TraceSource, VecSource};
