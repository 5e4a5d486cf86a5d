//! The trace-driven simulation engine.
//!
//! The engine replays a reference trace against a memory of configurable
//! size, servicing faults through the fetch policy's transfer plans on the
//! shared cluster network. It is the counterpart of the paper's §3.2
//! simulator:
//!
//! * the clock advances by a fixed cost per memory reference (12 ns —
//!   "83,000 events correspond to one millisecond");
//! * page faults schedule transfers on the five-resource pipeline of the
//!   shared [`ClusterNetwork`], so request/wire/receive components of
//!   concurrent transfers overlap and contend exactly as described ("the
//!   simulator models congestion delays in the network");
//! * follow-on arrivals are applied lazily: the program only stalls when
//!   it touches a subpage whose data has not yet arrived (`page_wait`);
//! * achieved overlap is attributed to I/O-on-I/O vs computation (§4.4).
//!
//! The per-node replay logic lives in [`NodeDriver`]; everything the
//! drivers share — the network and the global memory service — lives in
//! [`ClusterCtx`]. A driver has one entry point,
//! [`NodeDriver::run_to_park`]: it commits the node's parked run against
//! the shared context, then runs local runs, which take no context, up
//! to the next park. A segment on a fully-resident page, local or not,
//! goes through one method, [`NodeDriver::resident_segment`], which
//! batches its references while nothing is in flight; only absent and
//! partial pages take the fault path, where each fault is opened and
//! closed by one method each. [`Simulator`] runs one driver to
//! completion (the single-active-node case); `ClusterSim` drives several
//! over the same shared context, committing their shared sections in
//! canonical `(park clock, node id)` order.

use gms_cluster::Gms;
use gms_mem::{
    FramePool, Geometry, PageId, PageMap, PageState, PageTable, PalEmulator, ReplacementPolicy,
    SubpageIndex, SubpageMask, Tlb,
};
use gms_net::{
    BusyTimes, ClusterNetwork, DiskModel, FaultAttempt, FaultTimeline, LinkModel, NetResource,
    NodeEvent, TransferPlan,
};
use gms_obs::{Event, FaultClass, NoopRecorder, Recorder};
use gms_trace::apps::AppProfile;
use gms_trace::synth::LAYOUT_BASE;
use gms_trace::{AccessKind, Run, TraceSource};
use gms_units::{Duration, FastMap, NodeId, SimTime, VirtAddr};

use crate::cluster_sim::{run_cluster, NodeInput};
use crate::events::{Arrival, EventCore};
use crate::metrics::{DistanceHistogram, FaultCounts, FaultRecord, OverlapStats};
use crate::{AccessCost, FetchPolicy, RunReport, SimConfig};

/// Active nodes place their pages in disjoint slices of the GMS page-id
/// space: node *i*'s pages are offset by `i << PAGE_NAMESPACE_SHIFT`.
pub(crate) const PAGE_NAMESPACE_SHIFT: u32 = 40;

/// The checked per-node namespace base: `node << PAGE_NAMESPACE_SHIFT`,
/// verified not to overflow the id space. Every page id entering the
/// GMS must also stay below `1 << PAGE_NAMESPACE_SHIFT` (see
/// [`namespace_page`]); together the two checks make a silent collision
/// between two nodes' pages impossible at any cluster size.
///
/// # Panics
///
/// Panics if `node` does not fit in the bits above the shift.
pub(crate) fn namespace_base(node: u64) -> u64 {
    assert!(
        node < 1u64 << (u64::BITS - PAGE_NAMESPACE_SHIFT),
        "node index {node} overflows the page-id namespace \
         ({} bits above the {PAGE_NAMESPACE_SHIFT}-bit page field)",
        u64::BITS - PAGE_NAMESPACE_SHIFT
    );
    node << PAGE_NAMESPACE_SHIFT
}

/// The GMS-visible id of node-local page `page` under namespace `base`
/// (a [`namespace_base`] result), rejecting local ids wide enough to
/// spill into another node's slice.
///
/// # Panics
///
/// Panics if `page` needs more than `PAGE_NAMESPACE_SHIFT` bits.
pub(crate) fn namespace_page(base: u64, page: PageId) -> PageId {
    assert!(
        page.get() < 1u64 << PAGE_NAMESPACE_SHIFT,
        "page id {:#x} overflows the {PAGE_NAMESPACE_SHIFT}-bit per-node namespace",
        page.get()
    );
    PageId::new(base + page.get())
}

/// How many of `left` references from `addr`, `stride` apart, stay in
/// the aligned `block`-byte block holding `addr` (a page or a subpage).
fn refs_in_block(addr: VirtAddr, stride: i64, left: u64, block: gms_units::Bytes) -> u64 {
    let offset = addr.offset_in(block).get();
    let in_block = match stride {
        0 => left,
        1.. => (block.get() - 1 - offset) / stride as u64 + 1,
        _ => offset / stride.unsigned_abs() + 1,
    };
    in_block.min(left)
}

/// The per-page segments of `run` in trace order: each page's first
/// address and how many references stay on it. A stride-0 run is one
/// segment; a sparse run (|stride| ≥ page size) is one per reference.
fn segments(geom: Geometry, run: Run) -> impl Iterator<Item = (VirtAddr, u64)> {
    let mut rest = Some(run);
    std::iter::from_fn(move || {
        let run = rest?;
        let n = refs_in_block(
            run.start(),
            run.stride(),
            run.count(),
            geom.page_size().bytes(),
        );
        rest = (n < run.count()).then(|| run.split_at(n).1);
        Some((run.start(), n))
    })
}

/// Simulated time per memory reference. The paper measures ~12 ns:
/// "83,000 events correspond to one millisecond" (§3.2).
pub(crate) const REF_COST: Duration = Duration::from_nanos(12);

/// Getpage attempts on one custodian before the requester gives up on
/// it: the request plus three retries.
const MAX_FETCH_ATTEMPTS: u32 = 4;

/// Putpage sends before the model assumes delivery. Putpage is
/// positive-ACK with retransmit; this backstop bounds the resend loop so
/// every run terminates under any loss rate (at 5% loss it fires with
/// probability 0.05⁸ ≈ 4e-11).
const MAX_PUTPAGE_SENDS: u32 = 8;

/// The backoff unit is this fraction of the getpage timeout.
const BACKOFF_DIVISOR: u64 = 4;

/// Each retry doubles the backoff, up to `1 << BACKOFF_CAP` units.
const BACKOFF_CAP: u32 = 3;

/// Backoff before retry `attempt + 1`: a quarter-timeout unit doubled
/// per attempt, capped at eight units (two timeouts). The three
/// backoffs of one custodian's attempts sum to 14 units.
fn backoff_delay(timeout: Duration, attempt: u32) -> Duration {
    timeout / BACKOFF_DIVISOR * (1u64 << attempt.min(BACKOFF_CAP))
}

/// Runs traces under one [`SimConfig`].
///
/// # Examples
///
/// ```
/// use gms_core::{FetchPolicy, MemoryConfig, SimConfig, Simulator};
/// use gms_mem::SubpageSize;
/// use gms_trace::apps;
///
/// let sim = Simulator::new(
///     SimConfig::builder()
///         .policy(FetchPolicy::eager(SubpageSize::S2K))
///         .memory(MemoryConfig::Quarter)
///         .build(),
/// );
/// let report = sim.run(&apps::gdb().scaled(0.25));
/// report.assert_conserved();
/// assert!(report.faults.total() > 0);
/// ```
#[derive(Debug, Clone)]
pub struct Simulator {
    config: SimConfig,
}

impl Simulator {
    /// A simulator for the given configuration.
    #[must_use]
    pub fn new(config: SimConfig) -> Self {
        Simulator { config }
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Runs one of the synthetic application profiles: builds its trace,
    /// sizes memory from its footprint, warms the global cache with its
    /// pages, and replays it.
    pub fn run(&self, app: &AppProfile) -> RunReport {
        self.run_recorded(app, &mut NoopRecorder)
    }

    /// Like [`run`](Simulator::run), but streams fault-lifecycle and
    /// network-occupancy events into `rec`. With [`NoopRecorder`] every
    /// recording call site compiles away and the report is byte-identical
    /// to [`run`](Simulator::run)'s (the recorder is a write-only side
    /// channel — it never feeds back into timing).
    pub fn run_recorded<R: Recorder>(&self, app: &AppProfile, rec: &mut R) -> RunReport {
        let mut source = app.source();
        self.run_trace_recorded(&mut *source, app.footprint(), LAYOUT_BASE, rec)
    }

    /// Runs an arbitrary trace. `footprint` is the trace's total touched
    /// span starting at `base` (page-aligned); it determines the memory
    /// configuration's frame count and which pages pre-reside in the warm
    /// global cache.
    ///
    /// This is the single-active-node case of the cluster runner: the
    /// report is byte-identical to a `ClusterSim` run with one active
    /// node because both drive the same scheduler.
    ///
    /// # Panics
    ///
    /// Panics if `footprint` is zero, or if the config's fault plan
    /// crashes, recovers or degrades a node outside the cluster.
    pub fn run_trace(
        &self,
        source: &mut dyn TraceSource,
        footprint: gms_units::Bytes,
        base: VirtAddr,
    ) -> RunReport {
        self.run_trace_recorded(source, footprint, base, &mut NoopRecorder)
    }

    /// [`run_trace`](Simulator::run_trace) with an event recorder
    /// attached.
    ///
    /// # Panics
    ///
    /// Panics if `footprint` is zero, or if the fault plan names a node
    /// outside the cluster.
    pub fn run_trace_recorded<R: Recorder>(
        &self,
        source: &mut dyn TraceSource,
        footprint: gms_units::Bytes,
        base: VirtAddr,
        rec: &mut R,
    ) -> RunReport {
        assert!(
            !footprint.is_zero(),
            "cannot size memory for an empty trace"
        );
        let mut inputs = [NodeInput {
            source,
            footprint,
            base,
        }];
        let (mut reports, _net, _per_node) = run_cluster(&self.config, &mut inputs, rec);
        reports.pop().expect("one active node yields one report")
    }
}

/// Everything the per-node drivers share: the contended network, the
/// global memory service, and the event recorder.
pub(crate) struct ClusterCtx<'r, R: Recorder> {
    /// The shared wires, DMA rings and CPU shares of every node.
    pub net: ClusterNetwork,
    /// The global memory service (absent under the disk policy).
    pub gms: Option<Gms>,
    /// Nodes `0..n_active` run applications; the rest only serve pages.
    pub n_active: u32,
    /// Where drivers stream lifecycle events. Write-only: nothing the
    /// recorder does can feed back into timing, which is what keeps
    /// no-op and recording runs byte-identical.
    pub rec: &'r mut R,
    /// Node crash/recovery schedule from the installed fault plan,
    /// sorted by time. Empty without a plan.
    crashes: Vec<NodeEvent>,
    /// How many of `crashes` have been applied to the GMS.
    crash_cursor: usize,
    /// Size of one full page, for charging repair transfers.
    page_bytes: gms_units::Bytes,
    /// Simulated time one background repair copy occupies at the
    /// configured repair rate (`page_bytes / repair_rate`). Zero under
    /// the disk policy.
    repair_interval: Duration,
    /// The repair pacer: no repair copy is sent before this instant, so
    /// re-replication proceeds at most one page per `repair_interval`
    /// and competes with foreground traffic instead of healing for
    /// free.
    next_repair_at: SimTime,
}

impl<'r, R: Recorder> ClusterCtx<'r, R> {
    pub fn new(
        net: ClusterNetwork,
        gms: Option<Gms>,
        n_active: u32,
        page_bytes: gms_units::Bytes,
        rec: &'r mut R,
    ) -> Self {
        let crashes = net
            .fault_plan()
            .map(|p| p.crashes.clone())
            .unwrap_or_default();
        let repair_interval = gms
            .as_ref()
            .map(|g| {
                let rate = g.replication().repair_rate.max(1);
                Duration::from_nanos(page_bytes.get().saturating_mul(1_000_000_000) / rate)
            })
            .unwrap_or(Duration::ZERO);
        let mut ctx = ClusterCtx {
            net,
            gms,
            n_active,
            rec,
            crashes,
            crash_cursor: 0,
            page_bytes,
            repair_interval,
            next_repair_at: SimTime::ZERO,
        };
        if R::ENABLED {
            // Occupancy logging is off by default (it allocates); turn it
            // on only when someone is listening. The log is write-only,
            // so enabling it cannot perturb timing.
            ctx.net.record_occupancies();
            ctx.sync_log_pause();
        }
        ctx
    }

    /// Forwards any network occupancies logged since the last sync to
    /// the recorder. Called after every operation that schedules on the
    /// shared network, so occupancy events interleave with the
    /// lifecycle events that caused them.
    fn sync_net(&mut self) {
        self.forward_occupancies(R::wants_background);
    }

    /// [`ClusterCtx::sync_net`] for the transfer that ends a fault
    /// window whose restart `wait` is now known: the recorder may
    /// decline the window's occupancies if it will discard the window
    /// at the `Restart` anyway.
    fn sync_window(&mut self, wait: Duration) {
        self.forward_occupancies(|rec: &R| rec.wants_window(wait));
    }

    fn forward_occupancies(&mut self, wanted: impl FnOnce(&R) -> bool) {
        if !R::ENABLED {
            return;
        }
        // An empty batch — the steady state between fault windows when
        // the log is paused — has nothing to forward or drain.
        if self.net.occupancies().is_empty() {
            return;
        }
        // A sync batch holds only occupancies — no fault opens or
        // closes inside it — so one probe decides the whole batch
        // exactly as a per-event check would: a recorder that declines
        // (the flight recorder between fault windows, or in a window it
        // will drop) would have discarded every one of these events,
        // and skipping their construction is most of what makes
        // always-on recording affordable.
        if wanted(self.rec) {
            let (net, rec) = (&self.net, &mut self.rec);
            rec.record_batch(net.occupancies().iter().map(|o| Event::Occupancy {
                node: o.node,
                resource: o.resource,
                what: o.what,
                ready: o.ready,
                start: o.start,
                end: o.end,
            }));
        }
        // Drain rather than accumulate: the log stays a few entries
        // long (one op's worth), so its pushes and this scan stay in
        // cache and the vec never grows across the run.
        self.net.clear_occupancies();
    }

    /// Aligns the network's occupancy-log pause state with the
    /// recorder's appetite. Called right after recording a `Fault` or
    /// `Restart` — the only events that flip `wants_background` — so a
    /// declining recorder (the flight recorder between fault windows)
    /// stops the network from even logging the occupancies its sync
    /// gate would discard. Every net-scheduling op syncs before the
    /// next lifecycle record, so no pending in-window entry is ever
    /// paused away.
    fn sync_log_pause(&mut self) {
        if R::ENABLED {
            self.net
                .set_occupancy_log_paused(!self.rec.wants_background());
        }
    }

    /// Applies every scheduled node crash/recovery at or before `now` to
    /// the global memory service: a crash loses the node's cached pages
    /// and drops their directory entries (later fetches of those pages
    /// miss to disk); a recovery returns the node empty. Events naming
    /// active nodes are ignored — active nodes host the applications
    /// being measured and cannot crash in this model. Called at every
    /// GMS interaction point so directory repair is visible before the
    /// next lookup or placement.
    pub fn apply_fault_schedule(&mut self, now: SimTime) {
        while self.crash_cursor < self.crashes.len() && self.crashes[self.crash_cursor].at <= now {
            let ev = self.crashes[self.crash_cursor];
            self.crash_cursor += 1;
            if ev.node.index() < self.n_active {
                continue;
            }
            let Some(gms) = self.gms.as_mut() else {
                continue;
            };
            if ev.up {
                if gms.node_is_down(ev.node) {
                    gms.recover_node(ev.node);
                    if R::ENABLED {
                        self.rec.record(Event::NodeUp {
                            node: ev.node,
                            at: ev.at,
                        });
                    }
                }
            } else if !gms.node_is_down(ev.node) {
                let crash = gms.crash_node(ev.node);
                if R::ENABLED {
                    self.rec.record(Event::NodeDown {
                        node: ev.node,
                        at: ev.at,
                        pages_lost: crash.pages_lost,
                    });
                    if crash.directory_entries_rebuilt > 0 {
                        self.rec.record(Event::DirectoryRebuild {
                            node: ev.node,
                            entries: crash.directory_entries_rebuilt,
                            at: ev.at,
                        });
                    }
                }
                // Repair work starts after the crash, never before it.
                if self.next_repair_at < ev.at {
                    self.next_repair_at = ev.at;
                }
            }
        }
        self.pump_repairs(now);
        if let Some(gms) = self.gms.as_mut() {
            gms.account_vulnerability(now.elapsed_since(SimTime::ZERO).as_nanos());
        }
    }

    /// Sends at most one queued background repair copy, if the pacer
    /// allows it at `now`. Called from [`apply_fault_schedule`], whose
    /// invocation sequence is canonical (shared sections commit in
    /// ascending `(park clock, node id)` order), so the repair traffic —
    /// real transfers on the shared network, contending with foreground
    /// faults — is deterministic too. With
    /// the default single-copy config the queue is always empty and
    /// this is a no-op.
    ///
    /// [`apply_fault_schedule`]: ClusterCtx::apply_fault_schedule
    fn pump_repairs(&mut self, now: SimTime) {
        if self.next_repair_at > now {
            return;
        }
        let Some(gms) = self.gms.as_mut() else {
            return;
        };
        if !gms.repair_pending() {
            return;
        }
        let Some(action) = gms.repair_one(self.page_bytes.get()) else {
            return;
        };
        // Charged like any other transfer: the copy occupies the
        // source's outbound and the target's inbound wire/DMA/CPU.
        let _ = self
            .net
            .send(now, action.source, action.target, self.page_bytes);
        if R::ENABLED {
            self.rec.record(Event::Repair {
                node: action.source,
                target: action.target,
                page: action.page.get(),
                at: now,
            });
        }
        self.next_repair_at = now + self.repair_interval;
        self.sync_net();
    }
}

/// Which accounting bucket a span of simulated time belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Bucket {
    Exec,
    SpLatency,
    PageWait,
    RecvOverhead,
    Emulation,
    Putpage,
}

/// Replays one node's reference trace against its local memory,
/// servicing faults through the shared [`ClusterCtx`].
pub(crate) struct NodeDriver<'a> {
    cfg: &'a SimConfig,
    geom: Geometry,
    policy: FetchPolicy,
    node: NodeId,
    /// Added to every page id at the GMS boundary so active nodes use
    /// disjoint global pages (their address spaces are private).
    page_offset: u64,

    clock: SimTime,
    refs_done: u64,
    exec: Duration,
    sp_latency: Duration,
    page_wait: Duration,
    recv_overhead: Duration,
    emulation: Duration,
    putpage_overhead: Duration,

    /// A run taken off the trace but not yet guaranteed local: the node
    /// is *parked* at its current clock until the scheduler grants it a
    /// shared section. `Run` is `Copy`, so stashing it is free.
    pending_run: Option<Run>,

    frames: FramePool,
    table: PageTable,
    lru: Box<dyn ReplacementPolicy>,
    events: EventCore,
    armed: PageMap<SubpageIndex>,
    /// The per-run policy engine planning whole-page faults. Static
    /// policies carry a history-blind engine whose plans are
    /// byte-identical to [`FetchPolicy::plan_fault`].
    engine: Box<dyn crate::PolicyEngine>,
    /// Whether the engine is history-observing
    /// ([`FetchPolicy::is_adaptive`]): gates every observation hook so
    /// static-policy runs skip them. Adaptive runs take the exec batch
    /// too: every resident segment reports its touches before its
    /// recency touch, in trace order, batched or not.
    adaptive: bool,
    /// Outstanding prefetch predictions per page: the subpages fetched
    /// beyond the demanded one and not yet touched. The window closes at
    /// eviction; whatever is still set was moved for nothing.
    predicted: PageMap<SubpageMask>,
    prefetched_subpages: u64,
    mispredicted_prefetch_bytes: u64,
    /// Which node served each resident remotely-fetched page; lazy
    /// refills go back to the same custodian.
    served_by: FastMap<PageId, NodeId>,
    /// Recent stall intervals, for deciding whether a receive interrupt
    /// fired while the program was blocked (free) or running (charged).
    recent_stalls: std::collections::VecDeque<(SimTime, SimTime)>,

    disk: DiskModel,
    pal: PalEmulator,
    tlb: Tlb,

    faults: FaultCounts,
    fault_log: Vec<FaultRecord>,
    distances: DistanceHistogram,
    overlap: OverlapStats,
    evictions: u64,
    dirty_evictions: u64,
    wasted_transfers: u64,

    timeouts: u64,
    retries: u64,
    failovers: u64,
    fell_back_to_disk: u64,
    /// Subpages whose carrier message was lost in flight, per resident
    /// page: the hole is discovered and re-fetched at touch time.
    lost_subs: FastMap<PageId, SubpageMask>,
}

impl<'a> NodeDriver<'a> {
    /// A driver for node `node` with `frames` page frames. `span` is the
    /// node's footprint as `(first page, page count)`: its page table
    /// and replacement policy index those pages directly.
    pub fn new(
        cfg: &'a SimConfig,
        geom: Geometry,
        frames: u64,
        span: (PageId, u64),
        node: NodeId,
    ) -> Self {
        let disk_pattern = match cfg.policy {
            FetchPolicy::Disk { pattern } => pattern,
            _ => gms_net::AccessPattern::Random,
        };
        NodeDriver {
            cfg,
            geom,
            policy: cfg.policy,
            node,
            page_offset: namespace_base(u64::from(node.index())),
            clock: SimTime::ZERO,
            refs_done: 0,
            exec: Duration::ZERO,
            sp_latency: Duration::ZERO,
            page_wait: Duration::ZERO,
            recv_overhead: Duration::ZERO,
            emulation: Duration::ZERO,
            putpage_overhead: Duration::ZERO,
            pending_run: None,
            frames: FramePool::new(frames),
            table: PageTable::with_span(geom, span.0, span.1),
            lru: cfg.replacement.build(span.0, span.1),
            events: EventCore::new(),
            armed: PageMap::with_span(span.0, span.1),
            engine: cfg.policy.engine(),
            adaptive: cfg.policy.is_adaptive(),
            predicted: PageMap::with_span(span.0, span.1),
            prefetched_subpages: 0,
            mispredicted_prefetch_bytes: 0,
            served_by: FastMap::default(),
            recent_stalls: std::collections::VecDeque::new(),
            disk: DiskModel::paper(disk_pattern),
            pal: PalEmulator::paper(),
            tlb: Tlb::alpha_dtlb(),
            faults: FaultCounts::default(),
            fault_log: Vec::new(),
            distances: DistanceHistogram::new(),
            overlap: OverlapStats::default(),
            evictions: 0,
            dirty_evictions: 0,
            wasted_transfers: 0,
            timeouts: 0,
            retries: 0,
            failovers: 0,
            fell_back_to_disk: 0,
            lost_subs: FastMap::default(),
        }
    }

    /// This node's simulated clock.
    pub fn clock(&self) -> SimTime {
        self.clock
    }

    /// Runs this node up to its next park and returns whether its trace
    /// is exhausted. A parked node first executes its pending run against
    /// the shared context, so call this for the node holding the global
    /// minimum `(park clock, node id)`: shared-section commits must
    /// happen in exactly that order for reports to be deterministic.
    /// Then the node consumes runs from `source` for as long as they are
    /// [local](Self::local_run), and parks at the first run that may
    /// interact with the cluster by stashing it in `pending_run`.
    ///
    /// One exec batch spans the call: while the driver is
    /// [quiescent](Self::exec_quiescent), resident segments defer their
    /// references to it, and it is credited to the clock before any
    /// segment that may fault and before the node parks or its trace
    /// ends. That is exact: exec time is additive, and a resident
    /// segment starts no transfer, so quiescence, once true, holds until
    /// the next segment that may fault.
    pub fn run_to_park<R: Recorder>(
        &mut self,
        source: &mut dyn TraceSource,
        ctx: &mut ClusterCtx<'_, R>,
    ) -> bool {
        let mut batched: u64 = 0;
        if let Some(run) = self.pending_run.take() {
            self.process_run(run, &mut batched, ctx);
        }
        self.local_phase(source, batched)
    }

    /// The local phase of [`run_to_park`](Self::run_to_park), carrying
    /// `batched` references over from the shared section. It takes no
    /// [`ClusterCtx`], and is not generic over the recorder, so one copy
    /// of the hot loop serves every recorder.
    fn local_phase(&mut self, source: &mut dyn TraceSource, mut batched: u64) -> bool {
        let exhausted = loop {
            let Some(run) = source.next_run() else {
                break true;
            };
            if !self.local_run(run, &mut batched) {
                self.pending_run = Some(run);
                break false;
            }
        };
        self.flush_exec_batch(&mut batched);
        exhausted
    }

    /// Executes `run` if it is *local* — every page it touches is fully
    /// resident — and returns whether it was; a run that is not local
    /// changes nothing. A local run reads and writes only this node's
    /// private state, never the shared network, GMS or recorder. A
    /// resident segment never changes any page's residency, so one
    /// check up front holds for the whole run, and a run whose first
    /// and last references share a page — nearly every run — costs one
    /// page-table probe, which checks completeness and sets the dirty
    /// bit together.
    fn local_run(&mut self, run: Run, batched: &mut u64) -> bool {
        let write = run.kind().is_write();
        let page = self.geom.page_of(run.start());
        if page == self.geom.page_of(run.last_addr()) {
            if !self.touch_if_complete(page, write) {
                return false;
            }
            self.resident_segment(page, run.start(), run.stride(), run.count(), batched);
            return true;
        }
        let local = segments(self.geom, run).all(|(addr, _)| {
            self.table
                .get(self.geom.page_of(addr))
                .is_some_and(PageState::is_complete)
        });
        if local {
            for (addr, n) in segments(self.geom, run) {
                let page = self.geom.page_of(addr);
                self.touch_if_complete(page, write);
                self.resident_segment(page, addr, run.stride(), n, batched);
            }
        }
        local
    }

    /// If `page` is fully resident, notes a touch of kind `write` in its
    /// dirty bit and returns `true`; otherwise changes nothing.
    fn touch_if_complete(&mut self, page: PageId, write: bool) -> bool {
        match self.table.get_mut(page) {
            Some(state) if state.is_complete() => {
                state.dirty |= write;
                true
            }
            _ => false,
        }
    }

    /// Executes `n` references at `addr`, `stride` apart, on fully
    /// resident `page`, whose dirty bit the caller has set: the Figure 7
    /// distance, the policy engine's touches, the recency touch, then
    /// the references. While the driver is
    /// [quiescent](Self::exec_quiescent) they join the exec batch;
    /// otherwise they are charged now, after any TLB refill. Always
    /// inlined: it is the per-run work of the local phase, and a call
    /// there measured about 3% of paper_grid's wall time.
    #[inline(always)]
    fn resident_segment(
        &mut self,
        page: PageId,
        addr: VirtAddr,
        stride: i64,
        n: u64,
        batched: &mut u64,
    ) {
        if !self.armed.is_empty() {
            self.resolve_distance(page, addr, stride, n);
        }
        self.note_touches(page, addr, stride, n);
        self.lru.touch(page);
        if *batched > 0 || self.exec_quiescent() {
            *batched += n;
        } else {
            self.charge_tlb(page);
            self.refs_done += n;
            self.advance(REF_COST * n, Bucket::Exec, None);
        }
    }

    /// Feeds the policy engine the subpage footprint of a
    /// complete-resident segment — each subpage it visits, in trace
    /// order — and retires the prefetch predictions those touches
    /// confirm. Partial pages observe through
    /// [`ensure_subpage`](Self::ensure_subpage); complete pages bypass
    /// it, so the engine would otherwise go blind the moment its own
    /// prefetching succeeds.
    fn note_touches(&mut self, page: PageId, addr: VirtAddr, stride: i64, n: u64) {
        if !self.adaptive {
            return;
        }
        let geom = self.geom;
        let at = |i: u64| VirtAddr::new((addr.get() as i64 + stride * i as i64) as u64);
        let mut touched = SubpageMask::empty(geom.subpages_per_page());
        let mut touch = |sub: SubpageIndex| {
            self.engine.observe(crate::PolicyEvent::Touch {
                page: page.get(),
                subpage: sub,
            });
            touched.set(sub);
        };
        if stride.unsigned_abs() <= geom.subpage_size().bytes().get() {
            // No step skips a subpage, so the segment visits every
            // subpage from its first reference's to its last's, in order.
            let first = geom.subpage_of(addr).get();
            let last = geom.subpage_of(at(n - 1)).get();
            if first <= last {
                (first..=last).for_each(|s| touch(SubpageIndex::new(s)));
            } else {
                (last..=first)
                    .rev()
                    .for_each(|s| touch(SubpageIndex::new(s)));
            }
        } else {
            // Every reference lands in a subpage of its own.
            (0..n).for_each(|i| touch(geom.subpage_of(at(i))));
        }
        self.retire_predictions(page, touched);
    }

    /// Marks predicted subpages as actually touched: they leave the
    /// page's outstanding-prediction mask and will not be billed as
    /// mispredicted when the window closes.
    fn retire_predictions(&mut self, page: PageId, touched: SubpageMask) {
        if let Some(mask) = self.predicted.get_mut(page) {
            *mask = mask.difference(touched);
            if mask.is_empty() {
                self.predicted.remove(page);
            }
        }
    }

    /// The GMS-visible id of a local page.
    fn global_page(&self, page: PageId) -> PageId {
        namespace_page(self.page_offset, page)
    }

    // -- time accounting -------------------------------------------------

    /// Advances the clock, attributing the span to `bucket` and to the
    /// overlap statistics. `wait_page` is the page being waited on (for
    /// stall buckets), excluded from the in-flight check so a fault does
    /// not "overlap with itself".
    fn advance(&mut self, d: Duration, bucket: Bucket, wait_page: Option<PageId>) {
        if d == Duration::ZERO {
            return;
        }
        match bucket {
            Bucket::Exec | Bucket::Emulation => {
                if self.events.other_inflight(self.clock, None) {
                    self.overlap.comp_overlap += d;
                }
            }
            Bucket::SpLatency | Bucket::PageWait => {
                if self.events.other_inflight(self.clock, wait_page) {
                    self.overlap.io_overlap += d;
                }
                self.recent_stalls.push_back((self.clock, self.clock + d));
                if self.recent_stalls.len() > 64 {
                    self.recent_stalls.pop_front();
                }
            }
            Bucket::RecvOverhead | Bucket::Putpage => {}
        }
        self.clock += d;
        match bucket {
            Bucket::Exec => self.exec += d,
            Bucket::SpLatency => self.sp_latency += d,
            Bucket::PageWait => self.page_wait += d,
            Bucket::RecvOverhead => self.recv_overhead += d,
            Bucket::Emulation => self.emulation += d,
            Bucket::Putpage => self.putpage_overhead += d,
        }
    }

    // -- trace consumption ------------------------------------------------

    /// Executes a parked run against the shared context. Segments on
    /// fully resident pages go through
    /// [`resident_segment`](Self::resident_segment); before any other
    /// segment the exec batch is flushed, so fault records see the true
    /// clock and reference count.
    fn process_run<R: Recorder>(
        &mut self,
        run: Run,
        batched: &mut u64,
        ctx: &mut ClusterCtx<'_, R>,
    ) {
        for (addr, n) in segments(self.geom, run) {
            let page = self.geom.page_of(addr);
            if self.touch_if_complete(page, run.kind().is_write()) {
                self.resident_segment(page, addr, run.stride(), n, batched);
            } else {
                self.flush_exec_batch(batched);
                self.process_segment(addr, run.stride(), n, run.kind(), batched, ctx);
            }
        }
    }

    /// Whether resident segments can defer their exec time to a batch:
    /// the only clock-dependent work such a segment does is the TLB
    /// refill charge (small-pages policy only) and the overlap test
    /// against follow-on data in flight, so with neither in play,
    /// crediting the time later changes nothing. Resident segments start
    /// no transfer and the clock only moves forward, so once true this
    /// stays true until a segment that may fault.
    fn exec_quiescent(&mut self) -> bool {
        !matches!(self.policy, FetchPolicy::SmallPages { .. })
            && !self.events.other_inflight(self.clock, None)
    }

    /// Credits a batch of references executed on fully-resident pages
    /// while the engine was quiescent.
    fn flush_exec_batch(&mut self, batched: &mut u64) {
        if *batched == 0 {
            return;
        }
        self.refs_done += *batched;
        self.advance(REF_COST * *batched, Bucket::Exec, None);
        *batched = 0;
    }

    /// Executes `n` references at `addr`, `stride` apart, on a page that
    /// is absent or partially resident. An absent page is faulted in
    /// first; if it arrives whole, the segment is a resident one.
    fn process_segment<R: Recorder>(
        &mut self,
        addr: VirtAddr,
        stride: i64,
        n: u64,
        kind: AccessKind,
        batched: &mut u64,
        ctx: &mut ClusterCtx<'_, R>,
    ) {
        let page = self.geom.page_of(addr);
        if self.table.get(page).is_none() {
            self.handle_page_fault(addr, ctx);
            if self.touch_if_complete(page, kind.is_write()) {
                self.resident_segment(page, addr, stride, n, batched);
                return;
            }
        }
        if !self.armed.is_empty() {
            self.resolve_distance(page, addr, stride, n);
        }
        self.lru.touch(page);
        self.process_partial(page, addr, stride, n, kind, ctx);
    }

    /// Small-pages ablation: charge a TLB refill per page transition.
    fn charge_tlb(&mut self, page: PageId) {
        if !matches!(self.policy, FetchPolicy::SmallPages { .. }) {
            return;
        }
        if !self.tlb.access(page) {
            let refill = gms_units::ClockRate::from_mhz(266).time_for(self.tlb.refill_cost());
            self.advance(refill, Bucket::Emulation, None);
        }
    }

    /// Executes a segment on a partially-resident page, subpage chunk by
    /// subpage chunk, stalling where data has not arrived.
    fn process_partial<R: Recorder>(
        &mut self,
        page: PageId,
        mut addr: VirtAddr,
        stride: i64,
        mut left: u64,
        kind: AccessKind,
        ctx: &mut ClusterCtx<'_, R>,
    ) {
        self.charge_tlb(page);
        if kind.is_write() {
            self.table.mark_dirty(page);
        }
        // Catch up on anything that arrived since the page was last
        // touched (billing interrupts that fired during execution).
        self.apply_arrivals(page, true);
        while left > 0 {
            let sub = self.geom.subpage_of(addr);
            self.ensure_subpage(page, sub, ctx);

            let chunk = refs_in_block(addr, stride, left, self.geom.subpage_size().bytes());

            // Execution cost, plus PAL emulation while the page is
            // incomplete under the software scheme.
            self.refs_done += chunk;
            self.advance(REF_COST * chunk, Bucket::Exec, None);
            if self.cfg.access_cost == AccessCost::PalEmulated
                && !self.table.get(page).is_some_and(PageState::is_complete)
            {
                let mut emu = Duration::ZERO;
                for _ in 0..chunk {
                    emu += self.pal.emulated_access(page, kind.is_write());
                }
                self.advance(emu, Bucket::Emulation, None);
            }

            left -= chunk;
            if left > 0 {
                let delta = stride * chunk as i64;
                addr = VirtAddr::new((addr.get() as i64 + delta) as u64);
            }
        }
    }

    /// Blocks (if needed) until subpage `sub` of resident page `page` is
    /// valid.
    fn ensure_subpage<R: Recorder>(
        &mut self,
        page: PageId,
        sub: SubpageIndex,
        ctx: &mut ClusterCtx<'_, R>,
    ) {
        if self.adaptive {
            self.engine.observe(crate::PolicyEvent::Touch {
                page: page.get(),
                subpage: sub,
            });
            let touched = SubpageMask::single(self.geom.subpages_per_page(), sub);
            self.retire_predictions(page, touched);
        }
        if self.table.get(page).expect("resident").mask.contains(sub) {
            return;
        }
        self.apply_arrivals(page, true);
        if self.table.get(page).expect("resident").mask.contains(sub) {
            return;
        }
        // Not yet arrived: either wait for the in-flight message carrying
        // it, or (lazy policy) fault it in now.
        match self.events.waiting_arrival(page, sub) {
            Some(at) => {
                let wait = at.saturating_since(self.clock);
                let fault_idx = self.events.fault_idx(page);
                if R::ENABLED && wait > Duration::ZERO {
                    ctx.rec.record(Event::Stall {
                        node: self.node,
                        page: page.get(),
                        start: self.clock,
                        end: self.clock + wait,
                    });
                }
                self.advance(wait, Bucket::PageWait, Some(page));
                self.fault_log[fault_idx].wait += wait;
                // Arrivals applied here landed during the stall: their
                // receive interrupts were free (CPU was idle).
                self.apply_arrivals(page, false);
                debug_assert!(
                    self.table.get(page).expect("resident").mask.contains(sub),
                    "waited for an arrival that did not carry {sub}"
                );
            }
            None => {
                let lost = self.events.lost_pending(page, sub)
                    || self.lost_subs.get(&page).is_some_and(|m| m.contains(sub));
                if lost {
                    // The carrier message was dropped in flight: re-fetch
                    // the subpage from the custodian, lazily, at the point
                    // the program actually needs it.
                    self.subpage_refill(page, sub, FaultClass::Degraded, ctx);
                } else {
                    assert!(
                        self.policy.demand_fills(),
                        "non-demand-fill incomplete page {page} has no arrival carrying {sub}"
                    );
                    self.subpage_refill(page, sub, FaultClass::LazySubpage, ctx);
                }
            }
        }
    }

    /// Whether the program was stalled at instant `t` (within the
    /// remembered window of recent stalls).
    fn was_stalled_at(&self, t: SimTime) -> bool {
        self.recent_stalls.iter().any(|&(s, e)| s <= t && t <= e)
    }

    /// Applies every arrival whose time has passed. With `charge`, the
    /// receive-interrupt CPU of arrivals that fired while the program was
    /// *running* is billed against the clock (arrivals landing inside a
    /// stall are free — the CPU was idle).
    fn apply_arrivals(&mut self, page: PageId, charge: bool) {
        let due = self.events.pop_due(page, self.clock);
        if due.is_empty() {
            return;
        }
        for arrival in &due {
            let state = self.table.get_mut(page).expect("resident");
            if arrival.lost {
                // The message never landed: remember the holes so a later
                // touch re-fetches them instead of waiting forever. Holes
                // already refilled (or carried by an earlier message) are
                // not holes.
                let holes = arrival.subpages.difference(state.mask);
                if !holes.is_empty() {
                    self.lost_subs
                        .entry(page)
                        .and_modify(|m| m.union_with(holes))
                        .or_insert(holes);
                }
                continue;
            }
            state.mask.union_with(arrival.subpages);
        }
        self.pal.page_state_changed(page);
        if !charge {
            return;
        }
        let mut billed = Duration::ZERO;
        for arrival in &due {
            if arrival.recv_cpu > Duration::ZERO && !self.was_stalled_at(arrival.available_at) {
                billed += arrival.recv_cpu;
            }
        }
        if billed > Duration::ZERO {
            self.advance(billed, Bucket::RecvOverhead, None);
        }
    }

    // -- faulting ----------------------------------------------------------

    fn handle_page_fault<R: Recorder>(&mut self, addr: VirtAddr, ctx: &mut ClusterCtx<'_, R>) {
        let (page, sub) = self.geom.decompose(addr);
        if self.frames.is_full() {
            self.evict_one(ctx);
        }
        assert!(self.frames.try_alloc(), "eviction freed no frame");

        self.fetch_page(page, sub, addr, ctx);
        self.lru.insert(page);
        if self.geom.subpages_per_page() > 1 {
            self.armed.insert(page, sub);
        }
    }

    /// Opens a fault on subpage `sub` of `page`, to be serviced as
    /// `class`: the recorder hears of it, and may start wanting the
    /// occupancies of the window it opens.
    fn open_fault<R: Recorder>(
        &mut self,
        page: PageId,
        sub: SubpageIndex,
        class: FaultClass,
        ctx: &mut ClusterCtx<'_, R>,
    ) {
        if R::ENABLED {
            ctx.rec.record(Event::Fault {
                node: self.node,
                page: page.get(),
                subpage: sub.get(),
                class,
                at_ref: self.refs_done,
                at: self.clock,
            });
            ctx.sync_log_pause();
        }
    }

    /// Closes the fault on `page` now that the program restarts, after
    /// `wait` of stall: counts it and logs its record under `class`,
    /// what serviced it in the end (`Disk` for a remote fault that fell
    /// back), and tells the recorder. Returns the record's index.
    fn close_fault<R: Recorder>(
        &mut self,
        page: PageId,
        class: FaultClass,
        wait: Duration,
        ctx: &mut ClusterCtx<'_, R>,
    ) -> usize {
        self.faults.record(class);
        self.fault_log.push(FaultRecord {
            at_ref: self.refs_done,
            at: self.clock - wait,
            kind: class,
            wait,
        });
        if R::ENABLED {
            ctx.rec.record(Event::Restart {
                node: self.node,
                page: page.get(),
                at: self.clock,
                wait,
            });
            ctx.sync_log_pause();
        }
        self.fault_log.len() - 1
    }

    /// Services an open whole-page fault from the local disk, installs
    /// the page complete and closes the fault. `prior_wait` is stall time
    /// already spent on failed remote attempts for the same fault.
    fn disk_fault<R: Recorder>(
        &mut self,
        page: PageId,
        prior_wait: Duration,
        ctx: &mut ClusterCtx<'_, R>,
    ) {
        // Disk service: position + full page transfer, synchronous.
        let latency = self.disk.transfer_time(self.geom.page_size().bytes());
        self.advance(latency, Bucket::SpLatency, Some(page));
        self.close_fault(page, FaultClass::Disk, prior_wait + latency, ctx);
        self.table
            .insert(page, PageState::complete(self.geom.subpages_per_page()));
    }

    /// Charges one getpage attempt on `page` that expired: the timeout,
    /// then, unless `attempt` was the last the retry budget allows, the
    /// capped backoff before the next. Returns the stall both added.
    fn expire_attempt<R: Recorder>(
        &mut self,
        page: PageId,
        attempt: u32,
        timeout: Duration,
        ctx: &mut ClusterCtx<'_, R>,
    ) -> Duration {
        ctx.sync_net();
        self.timeouts += 1;
        self.advance(timeout, Bucket::SpLatency, Some(page));
        if R::ENABLED {
            ctx.rec.record(Event::Timeout {
                node: self.node,
                page: page.get(),
                attempt,
                at: self.clock,
            });
        }
        if attempt >= MAX_FETCH_ATTEMPTS {
            return timeout;
        }
        let backoff = backoff_delay(timeout, attempt);
        self.advance(backoff, Bucket::SpLatency, Some(page));
        self.retries += 1;
        if R::ENABLED {
            ctx.rec.record(Event::Retry {
                node: self.node,
                page: page.get(),
                attempt: attempt + 1,
                at: self.clock,
            });
        }
        timeout + backoff
    }

    /// Performs the transfer for a whole-page fault and installs the page
    /// (fully or partially).
    fn fetch_page<R: Recorder>(
        &mut self,
        page: PageId,
        sub: SubpageIndex,
        addr: VirtAddr,
        ctx: &mut ClusterCtx<'_, R>,
    ) {
        let n_sub = self.geom.subpages_per_page();
        if self.adaptive {
            // The engine sees every whole-page fault, including ones that
            // end up degrading to disk: the demand itself is history.
            self.engine.observe(crate::PolicyEvent::Fault {
                page: page.get(),
                subpage: sub,
                at: self.clock,
            });
        }

        // Where is the page? (Disk policy never asks the cluster.)
        let gpage = self.global_page(page);
        let located = if self.policy.is_disk() {
            None
        } else {
            ctx.apply_fault_schedule(self.clock);
            let gms = ctx
                .gms
                .as_mut()
                .expect("remote policies run with a cluster");
            let hit = gms.locate(gpage);
            if hit.is_none() {
                gms.record_getpage_miss(self.node, gpage);
                self.fell_back_to_disk += 1;
            }
            hit
        };

        let Some(mut server) = located else {
            self.open_fault(page, sub, FaultClass::Disk, ctx);
            return self.disk_fault(page, Duration::ZERO, ctx);
        };
        self.served_by.insert(page, server);
        self.open_fault(page, sub, FaultClass::Remote, ctx);
        if R::ENABLED {
            ctx.rec.record(Event::GetPage {
                node: self.node,
                server,
                page: page.get(),
                at: self.clock,
            });
        }

        // Remote service through the shared network: the transfer
        // occupies this node's inbound resources and the custodian's
        // CPU/DMA, contending with every other node's traffic.
        let sp_bytes = self.geom.subpage_size().bytes().get() as f64;
        let offset_frac = addr.offset_in(self.geom.subpage_size().bytes()).get() as f64 / sp_bytes;
        let planned = self.engine.plan_fault(self.geom, sub, offset_frac);
        if R::ENABLED {
            if let Some((choice, delta)) = planned.decision {
                ctx.rec.record(Event::PolicyDecision {
                    node: self.node,
                    page: page.get(),
                    choice,
                    delta,
                    at: self.clock,
                });
            }
        }
        let plan = planned.plan;
        let sizes = plan.message_sizes(self.geom);
        let tplan = TransferPlan::new(sizes, self.policy.recv_overhead());

        // Request/retry loop. A lost request or first reply (or a dead
        // custodian) expires the timeout; each retry re-locates the page
        // — the custodian may have crashed during the backoff, in which
        // case its copy is gone and the fault degrades to disk. The
        // custodian commits (gives up its copy) only once data is
        // delivered, so failed attempts leave global state untouched.
        let timeout = ctx.net.params().getpage_timeout(tplan.messages()[0]);
        let mut extra_wait = Duration::ZERO;
        let mut attempt: u32 = 1;
        let ft = loop {
            ctx.apply_fault_schedule(self.clock);
            match ctx
                .gms
                .as_ref()
                .expect("remote fault needs a cluster")
                .locate(gpage)
            {
                Some(s) => server = s,
                None => {
                    // The custodian crashed while we were backing off and
                    // took the only copy with it.
                    ctx.gms
                        .as_mut()
                        .expect("remote fault needs a cluster")
                        .record_getpage_miss(self.node, gpage);
                    self.fell_back_to_disk += 1;
                    self.served_by.remove(&page);
                    return self.disk_fault(page, extra_wait, ctx);
                }
            }
            if let FaultAttempt::Delivered(ft) =
                ctx.net.try_fault(self.clock, self.node, server, &tplan)
            {
                break ft;
            }
            extra_wait += self.expire_attempt(page, attempt, timeout, ctx);
            if attempt < MAX_FETCH_ATTEMPTS {
                attempt += 1;
                continue;
            }
            // Retries exhausted: repair the directory (the entry names an
            // unreachable custodian). With replication a standby may
            // survive — fail over to it with a fresh attempt budget
            // *before* degrading to disk; each exhausted custodian drops
            // one replica, so the rounds are bounded by K.
            let promoted = ctx
                .gms
                .as_mut()
                .expect("remote fault needs a cluster")
                .record_failover(self.node, gpage);
            self.failovers += 1;
            if R::ENABLED {
                ctx.rec.record(Event::Failover {
                    node: self.node,
                    custodian: server,
                    page: page.get(),
                    at: self.clock,
                });
            }
            if promoted.is_some() {
                attempt = 1;
                continue;
            }
            self.fell_back_to_disk += 1;
            self.served_by.remove(&page);
            return self.disk_fault(page, extra_wait, ctx);
        };
        ctx.gms
            .as_mut()
            .expect("remote fault needs a cluster")
            .commit_getpage(self.node, gpage, server);
        // Retries may have relocated the page to a different custodian;
        // lazy refills must go back to whoever actually served it.
        self.served_by.insert(page, server);
        let sp_wait = ft.resume_at.elapsed_since(self.clock);
        ctx.sync_window(extra_wait + sp_wait);
        self.advance(sp_wait, Bucket::SpLatency, Some(page));
        let fault_idx = self.close_fault(page, FaultClass::Remote, extra_wait + sp_wait, ctx);
        if R::ENABLED && ft.arrivals.len() > 1 {
            let survivors = plan.groups()[1..]
                .iter()
                .zip(&ft.arrivals[1..])
                .filter(|(_, arr)| !arr.lost);
            for (msg, (subs, arr)) in survivors.enumerate() {
                ctx.rec.record(Event::Arrival {
                    node: self.node,
                    page: page.get(),
                    msg: msg as u8,
                    at: arr.available_at,
                    subpages: subs.bits(),
                });
            }
        }

        // Install the initial message's subpages; queue the rest. (The
        // page is wholly absent here, so a plain insert is correct.)
        self.table.insert(
            page,
            PageState {
                mask: plan.groups()[0],
                dirty: false,
            },
        );

        if plan.groups().len() > 1 {
            let arrivals: Vec<Arrival> = plan.groups()[1..]
                .iter()
                .zip(&ft.arrivals[1..])
                .map(|(&subpages, arr)| Arrival {
                    available_at: arr.available_at,
                    subpages,
                    recv_cpu: arr.recv_cpu,
                    lost: arr.lost,
                })
                .collect();
            self.events
                .schedule(page, ft.page_complete_at, arrivals, fault_idx);
        }
        if self.adaptive {
            // Everything beyond the demanded subpage was the engine's
            // prediction; track it until touched or evicted.
            let mut mask = SubpageMask::empty(n_sub);
            for &group in plan.groups() {
                mask.union_with(group);
            }
            mask.clear(sub);
            if !mask.is_empty() {
                self.prefetched_subpages += u64::from(mask.count());
                self.predicted.insert(page, mask);
                if R::ENABLED {
                    ctx.rec.record(Event::Prefetch {
                        node: self.node,
                        page: page.get(),
                        subpages: mask.bits(),
                        sub_bytes: self.geom.subpage_size().bytes().get() as u32,
                        unused: false,
                        at: self.clock,
                    });
                }
            }
        }
    }

    /// Fetches one missing subpage of a resident page: a lazy-policy
    /// refill, or a degraded re-fetch of a subpage whose carrier message
    /// was lost in flight (`class` says which). Goes back to the
    /// custodian that served the original fault (which retains the data
    /// for retransmission); if it cannot deliver within the retry budget,
    /// the subpage is read from disk instead.
    fn subpage_refill<R: Recorder>(
        &mut self,
        page: PageId,
        sub: SubpageIndex,
        class: FaultClass,
        ctx: &mut ClusterCtx<'_, R>,
    ) {
        if self.adaptive {
            // Demand refills are faults too: indigo's hotness feedback
            // runs on exactly this refill frequency.
            self.engine.observe(crate::PolicyEvent::Fault {
                page: page.get(),
                subpage: sub,
                at: self.clock,
            });
        }
        let server = self
            .served_by
            .get(&page)
            .copied()
            .expect("subpage refill on a page with no recorded custodian");
        self.open_fault(page, sub, class, ctx);
        if R::ENABLED {
            if class == FaultClass::Degraded {
                ctx.rec.record(Event::DegradedFetch {
                    node: self.node,
                    page: page.get(),
                    subpage: sub.get(),
                    at: self.clock,
                });
            }
            ctx.rec.record(Event::GetPage {
                node: self.node,
                server,
                page: page.get(),
                at: self.clock,
            });
        }
        let tplan = TransferPlan::lazy(self.geom.subpage_size().bytes());
        let (ft, extra_wait) = self.transfer_with_retries(page, server, &tplan, ctx);
        let wait = match ft {
            Some(ft) => {
                let sp_wait = ft.resume_at.elapsed_since(self.clock);
                self.advance(sp_wait, Bucket::SpLatency, Some(page));
                extra_wait + sp_wait
            }
            None => {
                // Custodian unreachable: the subpage comes from disk.
                self.fell_back_to_disk += 1;
                let latency = self.disk.transfer_time(self.geom.subpage_size().bytes());
                self.advance(latency, Bucket::SpLatency, Some(page));
                extra_wait + latency
            }
        };
        self.close_fault(page, class, wait, ctx);
        self.table.mark_valid(page, sub);
        if let Some(holes) = self.lost_subs.get_mut(&page) {
            holes.clear(sub);
        }
        self.pal.page_state_changed(page);
    }

    /// Runs one transfer toward `server`, retrying on loss with capped
    /// exponential backoff. Returns the delivered timeline plus the stall
    /// time spent on failed attempts (charged to `sp_latency` already),
    /// or `None` after `MAX_FETCH_ATTEMPTS` expiries.
    fn transfer_with_retries<R: Recorder>(
        &mut self,
        page: PageId,
        server: NodeId,
        tplan: &TransferPlan,
        ctx: &mut ClusterCtx<'_, R>,
    ) -> (Option<FaultTimeline>, Duration) {
        let timeout = ctx.net.params().getpage_timeout(tplan.messages()[0]);
        let mut extra = Duration::ZERO;
        for attempt in 1..=MAX_FETCH_ATTEMPTS {
            if let FaultAttempt::Delivered(ft) =
                ctx.net.try_fault(self.clock, self.node, server, tplan)
            {
                // The caller's restart wait: retries plus this
                // transfer's stall.
                ctx.sync_window(extra + ft.resume_at.elapsed_since(self.clock));
                return (Some(ft), extra);
            }
            extra += self.expire_attempt(page, attempt, timeout, ctx);
        }
        (None, extra)
    }

    fn evict_one<R: Recorder>(&mut self, ctx: &mut ClusterCtx<'_, R>) {
        let victim = self.lru.evict().expect("full memory implies a victim");
        let state = self.table.remove(victim).expect("victim was resident");
        if self.events.drop_page(victim) {
            // Follow-on data for this page is still in flight; it will be
            // discarded on arrival.
            self.wasted_transfers += 1;
        }
        self.armed.remove(victim);
        self.served_by.remove(&victim);
        self.lost_subs.remove(&victim);
        if let Some(mask) = self.predicted.remove(victim) {
            // The prefetch window closes with the page: whatever the
            // program never touched was moved for nothing.
            let sub_bytes = self.geom.subpage_size().bytes().get() as u32;
            self.mispredicted_prefetch_bytes += u64::from(mask.count()) * u64::from(sub_bytes);
            if R::ENABLED {
                ctx.rec.record(Event::Prefetch {
                    node: self.node,
                    page: victim.get(),
                    subpages: mask.bits(),
                    sub_bytes,
                    unused: true,
                    at: self.clock,
                });
            }
        }
        self.pal.page_state_changed(victim);
        self.tlb.invalidate(victim);
        self.frames.release();
        self.evictions += 1;
        if state.dirty {
            self.dirty_evictions += 1;
        }

        if ctx.gms.is_some() {
            ctx.apply_fault_schedule(self.clock);
        }
        if let Some(gms) = ctx.gms.as_mut() {
            // GMS holds the only copy once a page is fetched: push every
            // eviction back to global memory (asynchronously — only the
            // send setup stalls the CPU, but the transfer occupies the
            // target custodian's wire, DMA ring and CPU). Putpage is
            // positive-ACK with retransmit: a lost transfer is re-sent —
            // the ACK timeout runs off the critical path, so only the
            // extra send setups charge the application.
            let replicas = gms.replication().replicas;
            if let Some(put) = gms.try_putpage(self.node, self.global_page(victim), state.dirty) {
                let mut attempt: u32 = 0;
                loop {
                    let lost = ctx.net.roll_putpage_loss();
                    let send = ctx.net.send(
                        self.clock,
                        self.node,
                        put.stored_at,
                        self.geom.page_size().bytes(),
                    );
                    if R::ENABLED && attempt == 0 {
                        ctx.rec.record(Event::PutPage {
                            node: self.node,
                            custodian: put.stored_at,
                            page: victim.get(),
                            dirty: state.dirty,
                            at: self.clock,
                        });
                    }
                    ctx.sync_net();
                    let setup = send.cpu_free_at.elapsed_since(self.clock);
                    self.advance(setup, Bucket::Putpage, None);
                    attempt += 1;
                    if !lost || attempt >= MAX_PUTPAGE_SENDS {
                        break;
                    }
                    self.retries += 1;
                    if R::ENABLED {
                        ctx.rec.record(Event::Retry {
                            node: self.node,
                            page: victim.get(),
                            attempt: attempt + 1,
                            at: self.clock,
                        });
                    }
                }
                // K − 1 standby copies, each a real transfer to a
                // distinct holder. Standby writes are ACK-reliable (no
                // loss roll — the putpage loop above already models the
                // lossy path once), never displace, and stop early when
                // no eligible node has room: the page then runs
                // under-replicated until repair catches up.
                for copy in 1..replicas {
                    let Some(holder) = ctx
                        .gms
                        .as_mut()
                        .expect("putpage succeeded, so a cluster exists")
                        .replicate(self.node, self.global_page(victim), state.dirty)
                    else {
                        break;
                    };
                    let send =
                        ctx.net
                            .send(self.clock, self.node, holder, self.geom.page_size().bytes());
                    if R::ENABLED {
                        ctx.rec.record(Event::ReplicaWrite {
                            node: self.node,
                            holder,
                            page: victim.get(),
                            copy: copy as u8,
                            at: self.clock,
                        });
                    }
                    ctx.sync_net();
                    let setup = send.cpu_free_at.elapsed_since(self.clock);
                    self.advance(setup, Bucket::Putpage, None);
                }
            }
            // else: every would-be custodian is down — the page leaves the
            // network and a later fetch will miss to disk.
        }
        // Disk policy: clean pages are dropped; dirty pages are written
        // back asynchronously without stalling the application.
    }

    // -- Figure 7 ----------------------------------------------------------

    /// If `page` is armed (recently faulted), record the distance to the
    /// first *different* subpage this segment touches, if any.
    fn resolve_distance(&mut self, page: PageId, addr: VirtAddr, stride: i64, n: u64) {
        let Some(&origin) = self.armed.get(page) else {
            return;
        };
        let first = self.geom.subpage_of(addr);
        if first != origin {
            self.distances.record(first.distance_from(origin));
            self.armed.remove(page);
            return;
        }
        // Does the segment walk beyond the origin subpage?
        if refs_in_block(addr, stride, n, self.geom.subpage_size().bytes()) < n {
            let next = if stride > 0 { 1i8 } else { -1i8 };
            self.distances.record(next);
            self.armed.remove(page);
        }
    }

    // -- reporting -----------------------------------------------------------

    /// Assembles this node's report. Requester-side busy times come from
    /// this node's own network resources; serving-side busy times are
    /// summed over the idle (serving) nodes, which are shared by every
    /// active node in the cluster.
    pub fn into_report<R: Recorder>(self, cfg: &SimConfig, ctx: &ClusterCtx<'_, R>) -> RunReport {
        let own = ctx.net.node(self.node);
        let mut srv_dma = Duration::ZERO;
        let mut srv_cpu = Duration::ZERO;
        for i in ctx.n_active..ctx.net.n_nodes() {
            let idle = ctx.net.node(NodeId::new(i));
            srv_dma += idle.busy(NetResource::DmaOut);
            srv_cpu += idle.busy(NetResource::Cpu);
        }
        let net_busy = BusyTimes {
            req_cpu: own.busy(NetResource::Cpu),
            req_dma_in: own.busy(NetResource::DmaIn),
            req_dma_out: own.busy(NetResource::DmaOut),
            wire_in: own.busy(NetResource::WireIn),
            wire_out: own.busy(NetResource::WireOut),
            srv_dma,
            srv_cpu,
        };
        let report = RunReport {
            policy: cfg.policy.label(),
            memory: cfg.memory.label(),
            frames: self.frames.capacity(),
            total_refs: self.refs_done,
            total_time: self.clock.elapsed_since(SimTime::ZERO),
            exec_time: self.exec,
            sp_latency: self.sp_latency,
            page_wait: self.page_wait,
            recv_overhead: self.recv_overhead,
            emulation_time: self.emulation,
            putpage_overhead: self.putpage_overhead,
            faults: self.faults,
            evictions: self.evictions,
            dirty_evictions: self.dirty_evictions,
            wasted_transfers: self.wasted_transfers,
            prefetched_subpages: self.prefetched_subpages,
            mispredicted_prefetch_bytes: self.mispredicted_prefetch_bytes,
            timeouts: self.timeouts,
            retries: self.retries,
            failovers: self.failovers,
            fell_back_to_disk: self.fell_back_to_disk,
            fault_log: self.fault_log,
            distances: self.distances,
            overlap: self.overlap,
            gms: ctx.gms.as_ref().map(Gms::stats).unwrap_or_default(),
            net_busy,
        };
        report.assert_conserved();
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MemoryConfig, PipelineStrategy};
    use gms_mem::SubpageSize;
    use gms_net::RecvOverhead;
    use gms_trace::synth::{Layout, Phase, PhaseProgram, SeqScan};
    use gms_trace::VecSource;
    use gms_units::Bytes;

    fn run_policy(policy: FetchPolicy, memory: MemoryConfig, app: &AppProfile) -> RunReport {
        Simulator::new(SimConfig::builder().policy(policy).memory(memory).build()).run(app)
    }

    fn tiny_app() -> AppProfile {
        gms_trace::apps::gdb().scaled(0.3)
    }

    #[test]
    fn page_namespacing_is_checked() {
        // 512 nodes fit comfortably: node 511's namespace starts at
        // 511 << 40 and holds every page id below 2^40.
        let base = namespace_base(511);
        assert_eq!(base, 511 << PAGE_NAMESPACE_SHIFT);
        let top = namespace_page(base, PageId::new((1 << PAGE_NAMESPACE_SHIFT) - 1));
        assert_eq!(top.get(), (512 << PAGE_NAMESPACE_SHIFT) - 1);
        // Namespaces of distinct nodes never intersect.
        assert!(
            namespace_page(
                namespace_base(0),
                PageId::new((1 << PAGE_NAMESPACE_SHIFT) - 1)
            ) < namespace_page(namespace_base(1), PageId::new(0))
        );
    }

    #[test]
    #[should_panic(expected = "overflows the page-id namespace")]
    fn node_index_overflow_panics() {
        let _ = namespace_base(1 << (u64::BITS - PAGE_NAMESPACE_SHIFT));
    }

    #[test]
    #[should_panic(expected = "overflows the 40-bit per-node namespace")]
    fn page_id_overflow_panics() {
        let _ = namespace_page(namespace_base(1), PageId::new(1 << PAGE_NAMESPACE_SHIFT));
    }

    #[test]
    fn full_memory_faults_equal_footprint() {
        let app = tiny_app();
        for policy in [
            FetchPolicy::disk(),
            FetchPolicy::fullpage(),
            FetchPolicy::eager(SubpageSize::S1K),
            FetchPolicy::pipelined(SubpageSize::S1K),
        ] {
            let report = run_policy(policy, MemoryConfig::Full, &app);
            assert_eq!(
                report.faults.page_faults(),
                app.footprint_pages(Bytes::kib(8)),
                "{}",
                policy.label()
            );
            report.assert_conserved();
        }
    }

    #[test]
    fn refs_are_fully_executed() {
        let app = tiny_app();
        let report = run_policy(
            FetchPolicy::eager(SubpageSize::S1K),
            MemoryConfig::Quarter,
            &app,
        );
        assert_eq!(report.total_refs, app.target_refs());
        assert_eq!(
            report.exec_time,
            Duration::from_nanos(12 * app.target_refs())
        );
    }

    #[test]
    fn constrained_memory_faults_more() {
        let app = tiny_app();
        let full = run_policy(FetchPolicy::fullpage(), MemoryConfig::Full, &app);
        let half = run_policy(FetchPolicy::fullpage(), MemoryConfig::Half, &app);
        let quarter = run_policy(FetchPolicy::fullpage(), MemoryConfig::Quarter, &app);
        assert!(full.faults.total() < half.faults.total());
        assert!(half.faults.total() < quarter.faults.total());
    }

    #[test]
    fn disk_is_slowest_subpages_beat_fullpage() {
        // The paper's headline ordering (Figure 3).
        let app = tiny_app();
        let disk = run_policy(FetchPolicy::disk(), MemoryConfig::Half, &app);
        let full = run_policy(FetchPolicy::fullpage(), MemoryConfig::Half, &app);
        let eager = run_policy(
            FetchPolicy::eager(SubpageSize::S1K),
            MemoryConfig::Half,
            &app,
        );
        assert!(disk.total_time > full.total_time, "GMS beats disk");
        assert!(full.total_time > eager.total_time, "subpages beat fullpage");
    }

    #[test]
    fn pipelining_reduces_page_wait() {
        let app = tiny_app();
        let eager = run_policy(
            FetchPolicy::eager(SubpageSize::S1K),
            MemoryConfig::Half,
            &app,
        );
        let piped = run_policy(
            FetchPolicy::pipelined(SubpageSize::S1K),
            MemoryConfig::Half,
            &app,
        );
        assert!(
            piped.page_wait < eager.page_wait,
            "pipelined wait {} vs eager {}",
            piped.page_wait,
            eager.page_wait
        );
        assert!(piped.total_time <= eager.total_time);
    }

    #[test]
    fn sequential_scan_distances_are_plus_one() {
        // A pure forward scan: every next-subpage distance is +1.
        let mut layout = Layout::new();
        let region = layout.alloc_pages("seq", 16);
        let mut source = PhaseProgram::new(vec![Phase::new(
            "scan",
            SeqScan::passes(region, 8, 1, AccessKind::Read),
        )]);
        let sim = Simulator::new(
            SimConfig::builder()
                .policy(FetchPolicy::eager(SubpageSize::S1K))
                .build(),
        );
        let report = sim.run_trace(&mut source, region.len(), region.start());
        assert_eq!(report.distances.mode(), Some(1));
        assert!((report.distances.fraction(1) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn backward_scan_distances_are_minus_one() {
        let mut layout = Layout::new();
        let region = layout.alloc_pages("rev", 8);
        let mut source = PhaseProgram::new(vec![Phase::new(
            "scan",
            SeqScan::passes(region, -8, 1, AccessKind::Read),
        )]);
        let sim = Simulator::new(
            SimConfig::builder()
                .policy(FetchPolicy::eager(SubpageSize::S1K))
                .build(),
        );
        let report = sim.run_trace(&mut source, region.len(), region.start());
        assert_eq!(report.distances.mode(), Some(-1));
    }

    #[test]
    fn lazy_policy_fetches_only_touched_subpages() {
        // Touch one word per page: lazy moves one subpage per page; the
        // other policies move everything eventually.
        let mut layout = Layout::new();
        let region = layout.alloc_pages("sparse", 32);
        let run = Run::new(region.start(), 8192, 32, AccessKind::Read);
        let sim = Simulator::new(
            SimConfig::builder()
                .policy(FetchPolicy::lazy(SubpageSize::S1K))
                .build(),
        );
        let mut source = VecSource::new(vec![run]);
        let report = sim.run_trace(&mut source, region.len(), region.start());
        assert_eq!(report.faults.remote, 32);
        assert_eq!(report.faults.lazy_subpage, 0, "one touch per page");
    }

    #[test]
    fn lazy_policy_refaults_on_other_subpages() {
        // Two touches per page, 4 KB apart: the second lands on a missing
        // subpage and triggers a lazy refill.
        let mut layout = Layout::new();
        let region = layout.alloc_pages("two-touch", 8);
        let runs: Vec<Run> = (0..8)
            .map(|i| Run::new(region.at(Bytes::new(i * 8192)), 4096, 2, AccessKind::Read))
            .collect();
        let sim = Simulator::new(
            SimConfig::builder()
                .policy(FetchPolicy::lazy(SubpageSize::S1K))
                .build(),
        );
        let mut source = VecSource::new(runs);
        let report = sim.run_trace(&mut source, region.len(), region.start());
        assert_eq!(report.faults.remote, 8);
        assert_eq!(report.faults.lazy_subpage, 8);
    }

    #[test]
    fn dirty_evictions_are_counted() {
        let app = tiny_app();
        let report = run_policy(FetchPolicy::fullpage(), MemoryConfig::Quarter, &app);
        assert!(report.evictions > 0);
        assert!(report.dirty_evictions > 0, "gdb writes state pages");
        assert!(report.dirty_evictions <= report.evictions);
        // Every remote eviction produced a putpage.
        assert_eq!(report.gms.traffic.putpages, report.evictions);
    }

    #[test]
    fn fault_log_matches_counts_and_is_ordered() {
        let app = tiny_app();
        let report = run_policy(
            FetchPolicy::eager(SubpageSize::S2K),
            MemoryConfig::Quarter,
            &app,
        );
        assert_eq!(report.fault_log.len() as u64, report.faults.total());
        for w in report.fault_log.windows(2) {
            assert!(w[0].at_ref <= w[1].at_ref);
            // A node takes its next fault only after the last restart.
            assert!(w[0].at < w[1].at, "{w:?}");
        }
        // Waits are at least the lone-fault subpage latency... and no
        // more than a handful of full-page times even under congestion.
        for f in &report.fault_log {
            assert!(f.wait >= Duration::from_micros(400), "{f:?}");
            assert!(f.wait <= Duration::from_millis(30), "{f:?}");
        }
    }

    #[test]
    fn overlap_requires_constrained_memory() {
        let app = tiny_app();
        let report = run_policy(
            FetchPolicy::eager(SubpageSize::S1K),
            MemoryConfig::Quarter,
            &app,
        );
        let total_overlap = report.overlap.io_overlap + report.overlap.comp_overlap;
        assert!(
            total_overlap > Duration::ZERO,
            "gdb's bursts should overlap"
        );
    }

    #[test]
    fn pal_emulated_access_costs_extra() {
        let app = tiny_app();
        let free = Simulator::new(
            SimConfig::builder()
                .policy(FetchPolicy::eager(SubpageSize::S1K))
                .memory(MemoryConfig::Half)
                .build(),
        )
        .run(&app);
        let emulated = Simulator::new(
            SimConfig::builder()
                .policy(FetchPolicy::eager(SubpageSize::S1K))
                .memory(MemoryConfig::Half)
                .access_cost(crate::AccessCost::PalEmulated)
                .build(),
        )
        .run(&app);
        assert_eq!(free.emulation_time, Duration::ZERO);
        assert!(emulated.emulation_time > Duration::ZERO);
        assert!(emulated.total_time > free.total_time);
        // "emulation slowed execution by less than 1%" (§3.1.1) — allow
        // a little headroom for the synthetic traces.
        let frac =
            emulated.emulation_time.as_nanos() as f64 / emulated.total_time.as_nanos() as f64;
        assert!(frac < 0.05, "emulation is {:.1}% of runtime", frac * 100.0);
    }

    #[test]
    fn negative_stride_runs_cross_pages_correctly() {
        // A backward scan over 4 pages: every page faults exactly once
        // and every reference executes.
        let mut layout = Layout::new();
        let region = layout.alloc_pages("rev", 4);
        let per_page = 8192 / 8;
        let run = Run::new(
            region.end() - Bytes::new(8),
            -8,
            4 * per_page,
            AccessKind::Read,
        );
        let sim = Simulator::new(
            SimConfig::builder()
                .policy(FetchPolicy::eager(SubpageSize::S1K))
                .build(),
        );
        let mut source = VecSource::new(vec![run]);
        let report = sim.run_trace(&mut source, region.len(), region.start());
        assert_eq!(report.faults.total(), 4);
        assert_eq!(report.total_refs, 4 * per_page);
    }

    #[test]
    fn wasted_transfers_counted_when_pending_pages_evicted() {
        // Two frames, eager policy, and a page-per-touch sweep: pages are
        // evicted while their rest-of-page is still in flight.
        let mut layout = Layout::new();
        let region = layout.alloc_pages("sweep", 16);
        let run = Run::new(region.start(), 8192, 16, AccessKind::Read);
        let sim = Simulator::new(
            SimConfig::builder()
                .policy(FetchPolicy::eager(SubpageSize::S1K))
                .memory(MemoryConfig::Frames(2))
                .build(),
        );
        let mut source = VecSource::new(vec![run]);
        let report = sim.run_trace(&mut source, region.len(), region.start());
        assert!(report.wasted_transfers > 0, "in-flight pages were evicted");
        report.assert_conserved();
    }

    #[test]
    fn burst_faults_pay_congestion() {
        // Back-to-back faults (one touch per page) see higher average
        // subpage latency than a lone fault, because each fault's data
        // queues behind the previous fault's rest-of-page.
        let mut layout = Layout::new();
        let region = layout.alloc_pages("burst", 64);
        let run = Run::new(region.start(), 8192, 64, AccessKind::Read);
        let sim = Simulator::new(
            SimConfig::builder()
                .policy(FetchPolicy::eager(SubpageSize::S1K))
                .build(),
        );
        let mut source = VecSource::new(vec![run]);
        let report = sim.run_trace(&mut source, region.len(), region.start());
        let avg = report.sp_latency / report.faults.total();
        let lone = ClusterNetwork::new(gms_net::NetParams::paper(), 2)
            .fault(
                SimTime::ZERO,
                NodeId::new(0),
                NodeId::new(1),
                &TransferPlan::eager(Bytes::kib(8), Bytes::kib(1)),
            )
            .restart_latency();
        assert!(avg > lone, "burst avg {avg} vs lone {lone}");
    }

    #[test]
    fn small_pages_pay_tlb_refills() {
        let app = tiny_app();
        let report = run_policy(
            FetchPolicy::SmallPages {
                page: gms_mem::PageSize::new(Bytes::kib(1)),
            },
            MemoryConfig::Half,
            &app,
        );
        assert!(
            report.emulation_time > Duration::ZERO,
            "1 KB pages must overflow the 32-entry TLB"
        );
        report.assert_conserved();
    }

    #[test]
    fn pipelining_strategies_all_run() {
        let app = tiny_app();
        for strategy in [
            PipelineStrategy::NeighborsFirst,
            PipelineStrategy::Ascending,
            PipelineStrategy::DoubledFollowOn,
            PipelineStrategy::AdaptiveHalf,
        ] {
            let report = run_policy(
                FetchPolicy::PipelinedSubpage {
                    subpage: SubpageSize::S1K,
                    strategy,
                    recv_overhead: RecvOverhead::Zero,
                },
                MemoryConfig::Half,
                &app,
            );
            report.assert_conserved();
            assert!(report.faults.total() > 0, "{}", strategy.name());
        }
    }

    /// A strided scan: one read every `stride_bytes` across `pages`
    /// pages, `passes` passes over the region.
    fn strided_app(pages: u64, stride_bytes: i64, passes: u64) -> (PhaseProgram, Bytes, VirtAddr) {
        let mut layout = Layout::new();
        let region = layout.alloc_pages("strided", pages);
        let source = PhaseProgram::new(vec![Phase::new(
            "scan",
            SeqScan::passes(region, stride_bytes, passes, AccessKind::Read),
        )]);
        (source, region.len(), region.start())
    }

    #[test]
    fn adaptive_policies_run_conserved() {
        let app = tiny_app();
        for policy in [
            FetchPolicy::leap(SubpageSize::S1K),
            FetchPolicy::indigo(SubpageSize::S1K),
        ] {
            let report = run_policy(policy, MemoryConfig::Half, &app);
            report.assert_conserved();
            assert!(report.faults.total() > 0, "{}", policy.label());
            assert_eq!(report.total_refs, app.target_refs(), "{}", policy.label());
        }
    }

    #[test]
    fn static_policies_report_no_prefetch_counters() {
        let app = tiny_app();
        for policy in [
            FetchPolicy::fullpage(),
            FetchPolicy::pipelined(SubpageSize::S1K),
            FetchPolicy::lazy(SubpageSize::S1K),
        ] {
            let report = run_policy(policy, MemoryConfig::Half, &app);
            assert_eq!(report.prefetched_subpages, 0, "{}", policy.label());
            assert_eq!(report.mispredicted_prefetch_bytes, 0, "{}", policy.label());
        }
    }

    #[test]
    fn leap_beats_pl1024_on_strided_scan() {
        // The EXPERIMENTS.md acceptance cell: a stride-2048B scan (every
        // other 1 KB subpage first, in stride order) under constrained
        // memory. Neighbors-first pipelining ships subpage f+2 in the
        // third follow-on message; leap's detected stride ships it in
        // the first, so the program waits less on follow-on data.
        let (mut leap_src, len, start) = strided_app(64, 2048, 4);
        let leap_sim = Simulator::new(
            SimConfig::builder()
                .policy(FetchPolicy::leap(SubpageSize::S1K))
                .memory(MemoryConfig::Quarter)
                .build(),
        );
        let leap = leap_sim.run_trace(&mut leap_src, len, start);

        let (mut pl_src, len, start) = strided_app(64, 2048, 4);
        let pl_sim = Simulator::new(
            SimConfig::builder()
                .policy(FetchPolicy::pipelined(SubpageSize::S1K))
                .memory(MemoryConfig::Quarter)
                .build(),
        );
        let pl = pl_sim.run_trace(&mut pl_src, len, start);

        leap.assert_conserved();
        pl.assert_conserved();
        assert!(
            leap.page_wait < pl.page_wait,
            "leap page_wait {} vs pl_1024 {}",
            leap.page_wait,
            pl.page_wait
        );
        assert!(leap.prefetched_subpages > 0);
    }

    #[test]
    fn indigo_cold_scan_moves_fewer_bytes_than_pipelined() {
        // One touch per page: indigo's cold path fetches only the
        // demanded subpage, so GMS traffic is a fraction of a
        // whole-page pipeline's.
        let mut layout = Layout::new();
        let region = layout.alloc_pages("sparse", 32);
        let run = Run::new(region.start(), 8192, 32, AccessKind::Read);
        let sim = Simulator::new(
            SimConfig::builder()
                .policy(FetchPolicy::indigo(SubpageSize::S1K))
                .build(),
        );
        let mut source = VecSource::new(vec![run]);
        let report = sim.run_trace(&mut source, region.len(), region.start());
        assert_eq!(report.faults.remote, 32);
        assert_eq!(report.faults.lazy_subpage, 0, "one touch per page");
        assert_eq!(report.prefetched_subpages, 0, "cold pages predict nothing");
    }

    #[test]
    fn adaptive_runs_are_reproducible() {
        for policy in [
            FetchPolicy::leap(SubpageSize::S1K),
            FetchPolicy::indigo(SubpageSize::S1K),
        ] {
            let app = tiny_app();
            let a = run_policy(policy, MemoryConfig::Quarter, &app);
            let b = run_policy(policy, MemoryConfig::Quarter, &app);
            assert_eq!(a, b, "{}", policy.label());
        }
    }
}
