//! The paper's contribution: subpage fetch policies for remote-memory
//! paging, and the trace-driven simulator that evaluates them.
//!
//! *"Reducing Network Latency Using Subpages in a Global Memory
//! Environment"* (ASPLOS '96) proposes transferring power-of-two
//! *subpages* instead of whole pages when faulting from network memory:
//!
//! * **Eager fullpage fetch** ([`FetchPolicy::eager`]) — transfer the
//!   faulted subpage, restart the program, and ship the rest of the page
//!   asynchronously as one large message.
//! * **Subpage pipelining** ([`FetchPolicy::pipelined`]) — ship the rest
//!   as a sequence of subpage-sized messages ordered by predicted access
//!   likelihood (the +1 and −1 neighbours first, per Figure 7).
//! * **Lazy subpage fetch** ([`FetchPolicy::lazy`]) — fetch only faulted
//!   subpages on demand (≈ small pages; evaluated as an ablation).
//!
//! [`Simulator`] replays a memory-reference trace against a chosen policy,
//! memory size and network model, reproducing the paper's evaluation:
//! runtime decompositions (Figure 4), per-fault waiting times (Figure 5),
//! fault clustering (Figures 6/10), subpage distance distributions
//! (Figure 7), and the eager-vs-pipelining comparisons (Figures 8/9).
//!
//! [`ClusterSim`] generalizes the same engine to several *active* nodes
//! replaying traces concurrently over one shared network: transfers
//! contend on wires and serving-node CPU/DMA, and the report surfaces
//! the resulting queueing delay and wire utilization. `Simulator` is its
//! single-active-node case — the two produce byte-identical reports for
//! the same workload.
//!
//! # Examples
//!
//! ```
//! use gms_core::{FetchPolicy, MemoryConfig, SimConfig, Simulator};
//! use gms_mem::SubpageSize;
//! use gms_trace::apps;
//!
//! let app = apps::gdb().scaled(0.2);
//! let eager = Simulator::new(
//!     SimConfig::builder()
//!         .memory(MemoryConfig::Half)
//!         .policy(FetchPolicy::eager(SubpageSize::S1K))
//!         .build(),
//! )
//! .run(&app);
//! let fullpage = Simulator::new(
//!     SimConfig::builder()
//!         .memory(MemoryConfig::Half)
//!         .policy(FetchPolicy::fullpage())
//!         .build(),
//! )
//! .run(&app);
//! // Subpages reduce runtime relative to full pages.
//! assert!(eager.total_time < fullpage.total_time);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod analysis;
mod cluster_sim;
mod config;
mod engine;
mod events;
mod export;
mod metrics;
mod pipeline;
mod policy;
mod policy_engine;
mod report;
mod sweep;

pub use analysis::{burstiness, cumulative_fault_series, downsample, sorted_wait_curve, speedup};
pub use cluster_sim::{ClusterReport, ClusterSim};
pub use config::{
    AccessCost, MemoryConfig, ReplacementKind, RetryConfig, SimConfig, SimConfigBuilder,
};
pub use engine::Simulator;
pub use export::{
    cluster_summary_json, reliability_counters, run_counters, run_summary_json, tail_json,
    wait_json, with_slo, SloCount, SUMMARY_SCHEMA, TAIL_PERCENTILES, WAIT_PERCENTILES,
};
pub use gms_cluster::ReplicationConfig;
pub use gms_net::{DegradeWindow, FaultPlan, NodeEvent};
pub use metrics::{
    ClusterNetStats, DistanceHistogram, FaultCounts, FaultKind, FaultRecord, NodeNetStats,
    OverlapStats,
};
pub use pipeline::{MessagePlan, PipelineStrategy};
pub use policy::FetchPolicy;
pub use policy_engine::{
    IndigoEngine, LeapEngine, PlannedFault, PolicyEngine, PolicyEvent, StaticEngine,
};
pub use report::RunReport;
pub use sweep::{Sweep, SweepCell, SweepResults};
