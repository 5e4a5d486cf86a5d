//! Critical-path latency attribution.
//!
//! Post-processes the fault-lifecycle event stream into a per-fault
//! breakdown: each fault's recorded wait is split into queueing versus
//! service time per `(node, resource)` hop of the Figure-2 pipeline,
//! plus the pseudo-components that are not resource occupancies
//! (request transit, retry/backoff stalls, disk service, post-restart
//! arrival stalls). The split is exact, not sampled: every occupancy
//! carries its queue-entry (`ready`), grant (`start`) and release
//! (`end`) timestamps, so `start - ready` is queueing and `end - start`
//! is service, in integer nanoseconds.
//!
//! The decomposition is *conserved by construction* and checked at
//! build time: for every fault, the components telescope from the
//! `Fault` event to the `Restart` event, so their sum equals the
//! restart wait the engine recorded — and summed over a run they equal
//! the report's `sp_latency + page_wait` buckets to the nanosecond.
//! [`attribute`] returns an error instead of a report if the stream
//! violates any of these invariants.
//!
//! This is the Table-1/2 analysis of the paper as a reusable artifact:
//! aggregate the per-fault breakdowns with
//! [`AttributionReport::by_component`] and the mean service column
//! reproduces the restart-latency decomposition of Table 2.

use gms_units::{Duration, FastMap, NetResource, NodeId, SimTime};

use crate::counters::CounterRegistry;
use crate::event::{Event, FaultClass};
use crate::json::escape_json;

/// Schema tag of the JSON rendering produced by [`attribution_json`].
pub const ATTRIB_SCHEMA: &str = "gms-attrib/v1";

/// One resource occupancy on a fault's critical path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hop {
    /// The node whose resource was held.
    pub node: NodeId,
    /// Which resource.
    pub resource: NetResource,
    /// The pipeline stage label (`"fault+request"`, `"dma-out"`, …).
    pub what: &'static str,
    /// Time spent queued behind earlier occupants (`start - ready`).
    pub queue: Duration,
    /// Time the resource was actually held (`end - start`).
    pub service: Duration,
}

/// The exact latency decomposition of one fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultAttribution {
    /// The faulting node.
    pub node: NodeId,
    /// The faulted page (node-local id).
    pub page: u64,
    /// The faulted subpage.
    pub subpage: u8,
    /// What serviced the fault.
    pub class: FaultClass,
    /// When the fault began.
    pub fault_at: SimTime,
    /// When the program restarted.
    pub restart_at: SimTime,
    /// Timeout and backoff stalls of failed attempts preceding the
    /// successful one (zero for a clean fetch).
    pub retry_wait: Duration,
    /// Fixed network transit of the tiny request message(s) — the gaps
    /// between consecutive hops that no resource occupancy covers.
    pub transit: Duration,
    /// Synchronous disk service, for disk faults and disk fallbacks.
    pub disk_service: Duration,
    /// Post-restart stalls for follow-on arrivals charged to this
    /// fault (the report's `page_wait` bucket).
    pub stall_wait: Duration,
    /// The critical-path resource occupancies, in pipeline order.
    /// Empty for disk faults.
    pub hops: Vec<Hop>,
}

impl FaultAttribution {
    /// The restart portion of the wait: `restart_at - fault_at`, which
    /// equals the engine's `Restart.wait` for this fault.
    #[must_use]
    pub fn restart_wait(&self) -> Duration {
        self.restart_at.elapsed_since(self.fault_at)
    }

    /// Queueing summed over the critical-path hops.
    #[must_use]
    pub fn queue_total(&self) -> Duration {
        self.hops.iter().map(|h| h.queue).sum()
    }

    /// Service summed over the critical-path hops.
    #[must_use]
    pub fn service_total(&self) -> Duration {
        self.hops.iter().map(|h| h.service).sum()
    }

    /// The fault's total attributed wait — restart components plus
    /// post-restart stalls. Equals the engine's per-fault recorded
    /// `wait` (checked by [`attribute`] against the Restart event, and
    /// by the engine's property tests against the fault log).
    #[must_use]
    pub fn total_wait(&self) -> Duration {
        self.restart_wait() + self.stall_wait
    }
}

/// A resource occupancy observed inside a fault window that is *not*
/// on the critical path: failed-attempt work, and the follow-on
/// message pipeline of eager/pipelined transfers. Real resource usage,
/// deliberately excluded from the conserved per-fault sums.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OffPathUsage {
    /// Number of such occupancies.
    pub count: u64,
    /// Their total service time.
    pub busy: Duration,
}

/// The full attribution of one recorded run.
#[derive(Debug, Clone, Default)]
pub struct AttributionReport {
    /// Per-fault breakdowns, in completion order.
    pub faults: Vec<FaultAttribution>,
    /// Off-critical-path occupancy usage per resource kind, summed
    /// over all fault windows (indexed like [`NetResource::ALL`]).
    pub off_path: [OffPathUsage; 5],
}

/// One aggregated component row of the Table-2-style report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComponentRow {
    /// Stable component key (`"cpu/fault+request"`, `"transit"`, …).
    pub key: String,
    /// The resource involved, if the component is an occupancy hop.
    pub resource: Option<NetResource>,
    /// How many faults contributed to this component.
    pub count: u64,
    /// Total queueing time across contributing faults.
    pub queue: Duration,
    /// Total service time across contributing faults.
    pub service: Duration,
}

impl ComponentRow {
    /// Mean service time per contributing fault.
    #[must_use]
    pub fn mean_service(&self) -> Duration {
        self.service
            .as_nanos()
            .checked_div(self.count)
            .map_or(Duration::ZERO, Duration::from_nanos)
    }

    /// Queue plus service.
    #[must_use]
    pub fn total(&self) -> Duration {
        self.queue + self.service
    }
}

impl AttributionReport {
    /// Total attributed wait over all faults. Equals the run report's
    /// `sp_latency + page_wait` (per node, for cluster runs: sum the
    /// per-node reports).
    #[must_use]
    pub fn total_wait(&self) -> Duration {
        self.faults.iter().map(FaultAttribution::total_wait).sum()
    }

    /// The faults of one node, for per-node conservation checks.
    pub fn node_faults(&self, node: NodeId) -> impl Iterator<Item = &FaultAttribution> {
        self.faults.iter().filter(move |f| f.node == node)
    }

    /// Aggregates per pipeline component (one row per distinct hop
    /// stage, in first-seen pipeline order, then the pseudo-components
    /// `transit`, `retry`, `disk`, `stall`), optionally restricted to
    /// one fault class. The rows' `queue + service` totals sum to
    /// [`AttributionReport::total_wait`] (of the selected class).
    #[must_use]
    pub fn by_component(&self, class: Option<FaultClass>) -> Vec<ComponentRow> {
        let mut rows: Vec<ComponentRow> = Vec::new();
        let mut index: FastMap<String, usize> = FastMap::default();
        let mut add = |key: String, resource: Option<NetResource>, q: Duration, s: Duration| {
            let i = *index.entry(key.clone()).or_insert_with(|| {
                rows.push(ComponentRow {
                    key,
                    resource,
                    count: 0,
                    queue: Duration::ZERO,
                    service: Duration::ZERO,
                });
                rows.len() - 1
            });
            rows[i].count += 1;
            rows[i].queue += q;
            rows[i].service += s;
        };
        for f in &self.faults {
            if class.is_some_and(|c| c != f.class) {
                continue;
            }
            for h in &f.hops {
                add(
                    format!("{}/{}", h.resource.label(), h.what),
                    Some(h.resource),
                    h.queue,
                    h.service,
                );
            }
            if f.transit > Duration::ZERO {
                add("transit".into(), None, Duration::ZERO, f.transit);
            }
            if f.retry_wait > Duration::ZERO {
                add("retry".into(), None, f.retry_wait, Duration::ZERO);
            }
            if f.disk_service > Duration::ZERO {
                add("disk".into(), None, Duration::ZERO, f.disk_service);
            }
            if f.stall_wait > Duration::ZERO {
                add("stall".into(), None, f.stall_wait, Duration::ZERO);
            }
        }
        rows
    }

    /// Aggregates per `(node, resource)`: total critical-path queue and
    /// service charged to each node's resources, plus pseudo-component
    /// rows keyed `node/<component>`.
    #[must_use]
    pub fn by_node(&self) -> Vec<ComponentRow> {
        let mut rows: Vec<ComponentRow> = Vec::new();
        let mut index: FastMap<String, usize> = FastMap::default();
        let mut add = |key: String, resource: Option<NetResource>, q: Duration, s: Duration| {
            let i = *index.entry(key.clone()).or_insert_with(|| {
                rows.push(ComponentRow {
                    key,
                    resource,
                    count: 0,
                    queue: Duration::ZERO,
                    service: Duration::ZERO,
                });
                rows.len() - 1
            });
            rows[i].count += 1;
            rows[i].queue += q;
            rows[i].service += s;
        };
        for f in &self.faults {
            for h in &f.hops {
                add(
                    format!("n{}/{}", h.node.index(), h.resource.label()),
                    Some(h.resource),
                    h.queue,
                    h.service,
                );
            }
            let rest = f.transit + f.disk_service;
            let q = f.retry_wait + f.stall_wait;
            if rest > Duration::ZERO || q > Duration::ZERO {
                add(format!("n{}/other", f.node.index()), None, q, rest);
            }
        }
        rows
    }

    /// The distinct fault classes present, in first-seen order.
    #[must_use]
    pub fn classes(&self) -> Vec<FaultClass> {
        let mut seen = Vec::new();
        for f in &self.faults {
            if !seen.contains(&f.class) {
                seen.push(f.class);
            }
        }
        seen
    }

    /// Checks the conservation invariant on every fault: the components
    /// telescope exactly to the observed restart wait.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated fault, if any.
    pub fn check_conserved(&self) -> Result<(), String> {
        for (i, f) in self.faults.iter().enumerate() {
            let sum =
                f.retry_wait + f.transit + f.disk_service + f.queue_total() + f.service_total();
            if sum != f.restart_wait() {
                return Err(format!(
                    "fault #{i} (node {}, page {}): components sum to {} but restart wait is {}",
                    f.node,
                    f.page,
                    sum,
                    f.restart_wait()
                ));
            }
        }
        Ok(())
    }
}

/// An occupancy captured while a fault window was open.
#[derive(Debug, Clone, Copy)]
struct Occ {
    node: NodeId,
    resource: NetResource,
    what: &'static str,
    ready: SimTime,
    start: SimTime,
    end: SimTime,
}

/// A fault window between its `Fault` and `Restart` events.
#[derive(Debug)]
struct OpenFault {
    node: NodeId,
    page: u64,
    subpage: u8,
    class: FaultClass,
    fault_at: SimTime,
    occs: Vec<Occ>,
    /// Times of `Timeout`/`Retry`/`Failover` events in the window: the
    /// last marks where a disk fallback began.
    last_marker: Option<SimTime>,
}

/// Builds the per-fault attribution from a recorded event stream.
///
/// The stream must come from one recorded run (serial or cluster) —
/// events in emission order, occupancies drained between lifecycle
/// events. Faults are synchronous per node and node runs are atomic,
/// so at most one fault window is open at a time; the builder exploits
/// this to assign occupancies to windows without guessing.
///
/// # Errors
///
/// Returns a description of the first stream inconsistency: an event
/// ordering the engine never produces, or a fault whose components do
/// not telescope to its observed restart wait.
pub fn attribute<'a, I>(events: I) -> Result<AttributionReport, String>
where
    I: IntoIterator<Item = &'a Event>,
{
    let mut report = AttributionReport::default();
    let mut open: Option<OpenFault> = None;
    // (node, page) -> fault index whose in-flight arrivals a later
    // Stall on that page waits for.
    let mut stall_target: FastMap<(u32, u64), usize> = FastMap::default();

    for e in events {
        match *e {
            Event::Fault {
                node,
                page,
                subpage,
                class,
                at,
                ..
            } => {
                if let Some(prev) = &open {
                    return Err(format!(
                        "fault on node {node} page {page} opened while node {} page {} is open",
                        prev.node, prev.page
                    ));
                }
                open = Some(OpenFault {
                    node,
                    page,
                    subpage,
                    class,
                    fault_at: at,
                    occs: Vec::new(),
                    last_marker: None,
                });
            }
            Event::Occupancy {
                node,
                resource,
                what,
                ready,
                start,
                end,
            } => {
                if let Some(f) = &mut open {
                    f.occs.push(Occ {
                        node,
                        resource,
                        what,
                        ready,
                        start,
                        end,
                    });
                }
                // Occupancies outside a window are putpage write-backs:
                // background work, not part of any fault's wait.
            }
            Event::Timeout { node, page, at, .. }
            | Event::Retry { node, page, at, .. }
            | Event::Failover { node, page, at, .. } => {
                if let Some(f) = &mut open {
                    if f.node == node && f.page == page {
                        f.last_marker = Some(at);
                    }
                }
            }
            Event::Restart {
                node,
                page,
                at,
                wait,
            } => {
                let f = open.take().ok_or_else(|| {
                    format!("restart on node {node} page {page} with no open fault")
                })?;
                if f.node != node || f.page != page {
                    return Err(format!(
                        "restart on node {node} page {page} closes fault on node {} page {}",
                        f.node, f.page
                    ));
                }
                let fa = close_fault(f, at, &mut report.off_path)?;
                if fa.restart_wait() != wait {
                    return Err(format!(
                        "node {node} page {page}: attributed restart wait {} != recorded {wait}",
                        fa.restart_wait()
                    ));
                }
                report.faults.push(fa);
            }
            Event::Arrival { node, page, .. } => {
                // Emitted right after the Restart of the fault that
                // scheduled the in-flight messages: later stalls on
                // this (node, page) wait on that fault's arrivals.
                if report.faults.is_empty() {
                    return Err(format!(
                        "arrivals on node {node} page {page} before any restart"
                    ));
                }
                stall_target.insert((node.index(), page), report.faults.len() - 1);
            }
            Event::Stall {
                node,
                page,
                start,
                end,
            } => {
                let idx = *stall_target.get(&(node.index(), page)).ok_or_else(|| {
                    format!("stall on node {node} page {page} with no pending arrivals")
                })?;
                report.faults[idx].stall_wait += end.elapsed_since(start);
            }
            Event::GetPage { .. }
            | Event::PutPage { .. }
            | Event::NodeDown { .. }
            | Event::NodeUp { .. }
            | Event::DegradedFetch { .. }
            | Event::PolicyDecision { .. }
            | Event::Prefetch { .. }
            | Event::ReplicaWrite { .. }
            | Event::Repair { .. }
            | Event::DirectoryRebuild { .. } => {}
        }
    }
    if let Some(f) = open {
        return Err(format!(
            "stream ended with fault on node {} page {} still open",
            f.node, f.page
        ));
    }

    report.check_conserved()?;
    Ok(report)
}

/// Resolves one closed window into its exact decomposition. Window
/// occupancies not claimed as critical-path hops — failed-attempt
/// work, follow-on message pipelines, and the outbound twin of the
/// critical wire hop — are accumulated into `off_path`.
fn close_fault(
    f: OpenFault,
    restart_at: SimTime,
    off_path: &mut [OffPathUsage; 5],
) -> Result<FaultAttribution, String> {
    let OpenFault {
        node,
        page,
        subpage,
        class,
        fault_at,
        occs,
        last_marker,
    } = f;

    // The successful attempt starts at the *last* "fault+request"
    // occupancy on the faulting node; everything before it belongs to
    // failed attempts (covered by retry_wait).
    let attempt_start = occs
        .iter()
        .rposition(|o| o.what == "fault+request" && o.node == node);

    // The chain ends with the requester's "receive+resume"; if the last
    // attempt has none, the fault fell back to disk.
    let chain: Option<Vec<usize>> = attempt_start.and_then(|first| {
        let mut chain: Vec<usize> = vec![first];
        let mut pos = first + 1;
        // Stage labels in pipeline order; the wire hop is matched on
        // the requester's inbound direction (the outbound twin on the
        // server records the same interval).
        let stages: [(&str, Option<NetResource>); 6] = [
            ("process-request", None),
            ("send-setup", None),
            ("dma-out", None),
            ("data", Some(NetResource::WireIn)),
            ("dma-in", None),
            ("receive+resume", None),
        ];
        for (what, res) in stages {
            let found = occs[pos..].iter().position(|o| {
                o.what == what
                    && match res {
                        Some(r) => o.resource == r,
                        None => true,
                    }
            })?;
            pos += found;
            chain.push(pos);
            pos += 1;
        }
        Some(chain)
    });

    let mut fa = FaultAttribution {
        node,
        page,
        subpage,
        class,
        fault_at,
        restart_at,
        retry_wait: Duration::ZERO,
        transit: Duration::ZERO,
        disk_service: Duration::ZERO,
        stall_wait: Duration::ZERO,
        hops: Vec::new(),
    };

    match chain {
        Some(chain) => {
            let first = &occs[chain[0]];
            if first.ready < fault_at {
                return Err(format!(
                    "node {node} page {page}: attempt begins at {} before its fault at {fault_at}",
                    first.ready
                ));
            }
            fa.retry_wait = first.ready.elapsed_since(fault_at);
            let mut prev_end = first.ready;
            for &i in &chain {
                let o = &occs[i];
                if o.ready < prev_end {
                    return Err(format!(
                        "node {node} page {page}: hop {}/{} ready {} precedes previous end {prev_end}",
                        o.resource.label(),
                        o.what,
                        o.ready
                    ));
                }
                // The gap between hops is the fixed transit of the tiny
                // request message (zero between data-movement stages).
                fa.transit += o.ready.elapsed_since(prev_end);
                fa.hops.push(Hop {
                    node: o.node,
                    resource: o.resource,
                    what: o.what,
                    queue: o.start.elapsed_since(o.ready),
                    service: o.end.elapsed_since(o.start),
                });
                prev_end = o.end;
            }
            if prev_end != restart_at {
                return Err(format!(
                    "node {node} page {page}: chain ends at {prev_end}, restart at {restart_at}"
                ));
            }
            for (i, o) in occs.iter().enumerate() {
                if !chain.contains(&i) {
                    let slot = &mut off_path[o.resource.index()];
                    slot.count += 1;
                    slot.busy += o.end.elapsed_since(o.start);
                }
            }
        }
        None => {
            // Disk fault, or a remote fault that fell back to disk after
            // its retries (the last Timeout/Retry/Failover marks where
            // the synchronous disk access began).
            let disk_from = last_marker.unwrap_or(fault_at);
            fa.retry_wait = disk_from.elapsed_since(fault_at);
            fa.disk_service = restart_at.elapsed_since(disk_from);
            for o in &occs {
                let slot = &mut off_path[o.resource.index()];
                slot.count += 1;
                slot.busy += o.end.elapsed_since(o.start);
            }
        }
    }
    Ok(fa)
}

/// Renders an attribution report as a `gms-attrib/v1` JSON document:
/// the conserved totals, the per-component aggregation (overall and
/// per class), and the per-node aggregation.
#[must_use]
pub fn attribution_json(report: &AttributionReport) -> String {
    fn rows_json(rows: &[ComponentRow]) -> String {
        let parts: Vec<String> = rows
            .iter()
            .map(|r| {
                format!(
                    "{{\"key\":\"{}\",\"count\":{},\"queue_ns\":{},\"service_ns\":{},\"mean_service_ns\":{}}}",
                    escape_json(&r.key),
                    r.count,
                    r.queue.as_nanos(),
                    r.service.as_nanos(),
                    r.mean_service().as_nanos()
                )
            })
            .collect();
        format!("[{}]", parts.join(","))
    }

    let mut totals = CounterRegistry::new();
    totals.set("faults", report.faults.len() as u64);
    totals.set("total_wait_ns", report.total_wait().as_nanos());
    totals.set(
        "queue_ns",
        report
            .faults
            .iter()
            .map(|f| f.queue_total() + f.retry_wait + f.stall_wait)
            .sum::<Duration>()
            .as_nanos(),
    );
    totals.set(
        "service_ns",
        report
            .faults
            .iter()
            .map(|f| f.service_total() + f.transit + f.disk_service)
            .sum::<Duration>()
            .as_nanos(),
    );

    let by_class: Vec<String> = report
        .classes()
        .iter()
        .map(|&c| {
            let rows = report.by_component(Some(c));
            let wait: Duration = report
                .faults
                .iter()
                .filter(|f| f.class == c)
                .map(FaultAttribution::total_wait)
                .sum();
            format!(
                "{{\"class\":\"{}\",\"total_wait_ns\":{},\"components\":{}}}",
                c.label(),
                wait.as_nanos(),
                rows_json(&rows)
            )
        })
        .collect();

    format!(
        "{{\"schema\":\"{ATTRIB_SCHEMA}\",\"totals\":{},\"components\":{},\"by_class\":[{}],\"by_node\":{}}}",
        totals.to_json(),
        rows_json(&report.by_component(None)),
        by_class.join(","),
        rows_json(&report.by_node())
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    fn occ(
        node: u32,
        resource: NetResource,
        what: &'static str,
        ready: u64,
        start: u64,
        end: u64,
    ) -> Event {
        Event::Occupancy {
            node: NodeId::new(node),
            resource,
            what,
            ready: t(ready),
            start: t(start),
            end: t(end),
        }
    }

    /// A hand-built clean remote fetch: fault at 0, five-hop pipeline
    /// with one queued hop, restart at 1000.
    fn clean_fetch() -> Vec<Event> {
        vec![
            Event::Fault {
                node: NodeId::new(0),
                page: 7,
                subpage: 0,
                class: FaultClass::Remote,
                at_ref: 1,
                at: t(0),
            },
            Event::GetPage {
                node: NodeId::new(0),
                server: NodeId::new(1),
                page: 7,
                at: t(0),
            },
            occ(0, NetResource::Cpu, "fault+request", 0, 0, 140),
            // 15 ns transit gap, then the server CPU is busy until 200.
            occ(1, NetResource::Cpu, "process-request", 155, 200, 340),
            occ(1, NetResource::Cpu, "send-setup", 340, 340, 365),
            occ(1, NetResource::DmaOut, "dma-out", 365, 365, 500),
            occ(0, NetResource::WireIn, "data", 500, 500, 700),
            occ(1, NetResource::WireOut, "data", 500, 500, 700),
            occ(0, NetResource::DmaIn, "dma-in", 700, 700, 850),
            occ(0, NetResource::Cpu, "receive+resume", 850, 850, 1000),
            Event::Restart {
                node: NodeId::new(0),
                page: 7,
                at: t(1000),
                wait: Duration::from_nanos(1000),
            },
        ]
    }

    #[test]
    fn clean_fetch_decomposes_exactly() {
        let report = attribute(&clean_fetch()).expect("valid stream");
        assert_eq!(report.faults.len(), 1);
        let f = &report.faults[0];
        assert_eq!(f.hops.len(), 7);
        assert_eq!(f.retry_wait, Duration::ZERO);
        assert_eq!(f.transit, Duration::from_nanos(15));
        // Only the server CPU hop queued (200 - 155 = 45 ns).
        assert_eq!(f.queue_total(), Duration::from_nanos(45));
        assert_eq!(f.total_wait(), Duration::from_nanos(1000));
        report.check_conserved().expect("conserved");
        // The wire hop appears once (inbound), not twice.
        let wires = f.hops.iter().filter(|h| h.what == "data").count();
        assert_eq!(wires, 1);
        assert_eq!(
            f.hops.iter().find(|h| h.what == "data").unwrap().resource,
            NetResource::WireIn
        );
    }

    #[test]
    fn disk_fault_is_pure_disk_service() {
        let events = vec![
            Event::Fault {
                node: NodeId::new(0),
                page: 3,
                subpage: 0,
                class: FaultClass::Disk,
                at_ref: 1,
                at: t(100),
            },
            Event::Restart {
                node: NodeId::new(0),
                page: 3,
                at: t(10_100),
                wait: Duration::from_nanos(10_000),
            },
        ];
        let report = attribute(&events).expect("valid stream");
        let f = &report.faults[0];
        assert_eq!(f.disk_service, Duration::from_nanos(10_000));
        assert_eq!(f.hops.len(), 0);
        assert_eq!(f.total_wait(), Duration::from_nanos(10_000));
    }

    #[test]
    fn retried_fetch_charges_failed_attempts_to_retry_wait() {
        let mut events = vec![
            Event::Fault {
                node: NodeId::new(0),
                page: 7,
                subpage: 0,
                class: FaultClass::Remote,
                at_ref: 1,
                at: t(0),
            },
            // Failed attempt: request CPU spent, nothing returns.
            occ(0, NetResource::Cpu, "fault+request", 0, 0, 140),
            Event::Timeout {
                node: NodeId::new(0),
                page: 7,
                attempt: 1,
                at: t(2000),
            },
            Event::Retry {
                node: NodeId::new(0),
                page: 7,
                attempt: 2,
                at: t(3000),
            },
            // Successful attempt, shifted by the 3000 ns of stall.
            occ(0, NetResource::Cpu, "fault+request", 3000, 3000, 3140),
            occ(1, NetResource::Cpu, "process-request", 3155, 3155, 3295),
            occ(1, NetResource::Cpu, "send-setup", 3295, 3295, 3320),
            occ(1, NetResource::DmaOut, "dma-out", 3320, 3320, 3455),
            occ(0, NetResource::WireIn, "data", 3455, 3455, 3655),
            occ(1, NetResource::WireOut, "data", 3455, 3455, 3655),
            occ(0, NetResource::DmaIn, "dma-in", 3655, 3655, 3805),
            occ(0, NetResource::Cpu, "receive+resume", 3805, 3805, 3955),
        ];
        events.push(Event::Restart {
            node: NodeId::new(0),
            page: 7,
            at: t(3955),
            wait: Duration::from_nanos(3955),
        });
        let report = attribute(&events).expect("valid stream");
        let f = &report.faults[0];
        assert_eq!(f.retry_wait, Duration::from_nanos(3000));
        assert_eq!(f.total_wait(), Duration::from_nanos(3955));
        report.check_conserved().expect("conserved");
    }

    #[test]
    fn stalls_credit_the_scheduling_fault() {
        let mut events = clean_fetch();
        events.push(Event::Arrival {
            node: NodeId::new(0),
            page: 7,
            msg: 0,
            at: t(2000),
            subpages: 1 << 1,
        });
        events.push(Event::Stall {
            node: NodeId::new(0),
            page: 7,
            start: t(1500),
            end: t(2000),
        });
        let report = attribute(&events).expect("valid stream");
        let f = &report.faults[0];
        assert_eq!(f.stall_wait, Duration::from_nanos(500));
        assert_eq!(f.total_wait(), Duration::from_nanos(1500));
    }

    #[test]
    fn component_rows_sum_to_total_wait() {
        let mut events = clean_fetch();
        events.push(Event::Arrival {
            node: NodeId::new(0),
            page: 7,
            msg: 0,
            at: t(2000),
            subpages: 1 << 1,
        });
        events.push(Event::Stall {
            node: NodeId::new(0),
            page: 7,
            start: t(1500),
            end: t(2000),
        });
        let report = attribute(&events).expect("valid stream");
        let rows = report.by_component(None);
        let sum: Duration = rows.iter().map(ComponentRow::total).sum();
        assert_eq!(sum, report.total_wait());
        let by_node: Duration = report.by_node().iter().map(ComponentRow::total).sum();
        assert_eq!(by_node, report.total_wait());
    }

    #[test]
    fn mismatched_restart_is_an_error() {
        let mut events = clean_fetch();
        // Claim a different wait than the chain telescopes to.
        if let Some(Event::Restart { wait, .. }) = events.last_mut() {
            *wait = Duration::from_nanos(999);
        }
        assert!(attribute(&events).is_err());
    }

    #[test]
    fn attribution_json_is_valid_and_conserved() {
        let report = attribute(&clean_fetch()).expect("valid stream");
        let json = attribution_json(&report);
        let doc = crate::json::JsonValue::parse(&json).expect("valid JSON");
        assert_eq!(doc.get("schema").unwrap().as_str(), Some(ATTRIB_SCHEMA));
        let total = doc
            .get("totals")
            .unwrap()
            .get("total_wait_ns")
            .unwrap()
            .as_u64()
            .unwrap();
        let components = doc.get("components").unwrap().as_array().unwrap();
        let sum: u64 = components
            .iter()
            .map(|c| {
                c.get("queue_ns").unwrap().as_u64().unwrap()
                    + c.get("service_ns").unwrap().as_u64().unwrap()
            })
            .sum();
        assert_eq!(sum, total);
    }
}
