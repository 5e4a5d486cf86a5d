//! Observability for the `gms-subpages` simulator: structured event
//! tracing, a mergeable latency quantile sketch, and trace/summary
//! exporters.
//!
//! The simulator's end-of-run aggregates answer *how much* time was
//! spent waiting but not *where*: which node, which resource, which
//! phase of the fault lifecycle. This crate provides the layer that
//! turns aggregates into attribution:
//!
//! * [`Recorder`] — the event sink trait the engine is generic over.
//!   [`NoopRecorder`] sets `ENABLED = false`, so every recording call
//!   site compiles to nothing via monomorphization; reports of a
//!   no-op run are byte-identical to a recording run's (the engine's
//!   property tests verify this).
//! * [`Event`] — typed span/instant events for the fault lifecycle
//!   (fault → getpage → custodian occupancy → first-subpage restart →
//!   follow-on arrivals → putpage write-back), stamped with sim time,
//!   node ids and `(resource, direction)` keys taken straight from the
//!   cluster network's occupancy log.
//! * [`FlightRecorder`] — a bounded [`Recorder`] for always-on tail
//!   forensics: it retains the *complete* event chain only for the
//!   worst-K faults per node per window (a reservoir keyed by page
//!   wait), plus per-window SLO tallies over every fault, in O(K)
//!   memory instead of O(total events).
//! * [`QuantileSketch`] — a sparse, mergeable DDSketch-style quantile
//!   sketch with a proven two-sided 1/256 relative error bound and
//!   exactly commutative/associative merges: every page-wait
//!   percentile, from p50 to p99.99, without storing every sample.
//! * [`HeatMap`] — a bounded, mergeable spatial-heat accumulator keyed
//!   by fixed-size page regions per node: fault counts by class,
//!   first-touch vs refault split with refault-interval sketches,
//!   subpage-arrival popcounts, prefetched-vs-wasted bytes and
//!   replica/repair traffic, exported as `gms-heat/v1` JSON
//!   ([`heat_json`]) and Perfetto counter tracks ([`heat_perfetto`]).
//! * [`CounterRegistry`] — an ordered name → value registry that
//!   exporters iterate instead of hand-listing scalar fields.
//! * [`perfetto_trace`] — Chrome/Perfetto `trace.json` export: one
//!   track per `(node, resource)`, spans for occupancies, instants for
//!   fault-lifecycle events.
//! * [`JsonValue`] — a minimal JSON parser used by tests and the CLI's
//!   `check-trace` command to validate exported files offline.
//! * [`attribute`] — critical-path latency attribution: splits every
//!   fault's wait into queueing vs. service per `(node, resource)` hop
//!   using the occupancy log's queue-entry/grant/release timestamps,
//!   with the decomposition provably conserved against the engine's
//!   recorded waits.
//! * [`TimeSeriesRecorder`] — a [`Recorder`] folding the stream into
//!   fixed windows (utilization, in-flight fetches, wait percentiles,
//!   retries), exported as `gms-metrics/v1` JSON or Prometheus text.
//!
//! # Examples
//!
//! ```
//! use gms_obs::{Event, MemoryRecorder, Recorder, ResourceKind};
//! use gms_units::{NodeId, SimTime};
//!
//! let mut rec = MemoryRecorder::new();
//! rec.record(Event::Occupancy {
//!     node: NodeId::new(2),
//!     resource: ResourceKind::WireIn,
//!     what: "data",
//!     ready: SimTime::ZERO,
//!     start: SimTime::ZERO,
//!     end: SimTime::from_nanos(52_000),
//! });
//! let trace = gms_obs::perfetto_trace(rec.iter());
//! gms_obs::JsonValue::parse(&trace).expect("valid JSON");
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod attrib;
mod counters;
mod event;
mod flight;
mod heat;
mod json;
mod perfetto;
mod recorder;
mod sketch;
mod timeseries;

pub use attrib::{
    attribute, attribution_json, prefetch_stats, AttributionReport, ComponentRow, FaultAttribution,
    Hop, OffPathUsage, PrefetchStats, ATTRIB_SCHEMA,
};
pub use counters::CounterRegistry;
pub use event::{Event, FaultClass, PolicyChoice, ResourceKind};
pub use flight::{Exemplar, FlightRecorder, WindowTally};
pub use heat::{heat_json, heat_perfetto, HeatMap, HeatTotals, NodeHeat, RegionStats, HEAT_SCHEMA};
pub use json::{escape_json, JsonValue, MAX_JSON_DEPTH};
pub use perfetto::{perfetto_trace, trace_nodes, APP_TRACK};
pub use recorder::{MemoryRecorder, NoopRecorder, Recorder};
pub use sketch::QuantileSketch;
pub use timeseries::{metrics_json, TimeSeriesRecorder, Window, METRICS_SCHEMA};
