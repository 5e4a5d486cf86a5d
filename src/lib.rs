//! # gms-subpages
//!
//! A reproduction of *"Reducing Network Latency Using Subpages in a Global
//! Memory Environment"* (Jamrozik, Feeley, Voelker, Evans, Karlin, Levy,
//! Vernon — ASPLOS '96).
//!
//! This facade crate re-exports the public API of every crate in the
//! workspace so that examples and downstream users can depend on a single
//! package:
//!
//! * [`units`] — quantity newtypes ([`units::SimTime`], [`units::Bytes`], …).
//! * [`trace`] — memory-reference traces and the synthetic application
//!   models standing in for the paper's Atom traces.
//! * [`net`] — network and disk latency models, plus the Figure-2
//!   five-resource fault timeline.
//! * [`mem`] — pages, subpage valid-bit masks, TLB, replacement policies
//!   and the Table-1 PALcode emulation cost model.
//! * [`cluster`] — the GMS global-memory substrate (nodes, directory,
//!   getpage/putpage protocol, epoch replacement).
//! * [`obs`] — observability: structured fault-lifecycle events,
//!   a mergeable latency quantile sketch, and Perfetto/JSON exporters.
//! * [`core`] — the paper's contribution: subpage fetch policies and the
//!   trace-driven simulator that evaluates them.
//!
//! # Quickstart
//!
//! ```
//! use gms_subpages::core::{FetchPolicy, MemoryConfig, SimConfig, Simulator};
//! use gms_subpages::mem::SubpageSize;
//! use gms_subpages::trace::apps;
//!
//! // Simulate a scaled-down Modula-3 compile with eager fullpage fetch
//! // of 1 KB subpages in half of its maximum memory.
//! let app = apps::modula3().scaled(0.01);
//! let config = SimConfig::builder()
//!     .memory(MemoryConfig::Half)
//!     .policy(FetchPolicy::eager(SubpageSize::S1K))
//!     .build();
//! let report = Simulator::new(config).run(&app);
//! assert!(report.faults.total() > 0);
//! ```

pub use gms_cluster as cluster;
pub use gms_core as core;
pub use gms_mem as mem;
pub use gms_net as net;
pub use gms_obs as obs;
pub use gms_trace as trace;
pub use gms_units as units;
