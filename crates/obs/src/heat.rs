//! Spatial heat telemetry: which page regions are hot, and why.
//!
//! Everything observability exported so far is temporal — latency
//! quantile sketches, time series, worst-K exemplars — but the paper's
//! argument is *spatial*: which subpages of which pages the program
//! actually touches. A [`HeatMap`] is a bounded [`Recorder`] that folds
//! the event stream into per-`(node, region)` accumulators, where a
//! *region* is a fixed power-of-two run of consecutive pages
//! (64 pages by default, matching `leap`'s region granularity):
//!
//! * fault counts by [`FaultClass`], split into *first touches* (the
//!   first fault ever seen on a page) and *refaults*, with the
//!   refault *intervals* — the signal `leap`'s region windows and
//!   `indigo`'s hotness threshold quantize — recorded into a
//!   per-region [`QuantileSketch`];
//! * subpage delivery (`Arrival` bitmask popcounts and their union);
//! * adaptive prefetch cost: predicted subpages/bytes at issue vs the
//!   unused remainder reported when the prefetch window closes, which
//!   reconciles exactly with the report's `prefetched_subpages` and
//!   `mispredicted_prefetch_bytes` counters;
//! * replication traffic (`ReplicaWrite` per region, `Repair` per
//!   serving node — repair events carry raw namespaced page ids and
//!   deliberately stay out of per-region accounting, matching
//!   [`Event::page`]).
//!
//! Determinism follows the flight recorder's argument: the cluster
//! simulator feeds recorders in canonical commit order, and a `HeatMap`
//! is a pure fold over that stream, so rerunning the same inputs
//! exports a byte-identical [`heat_json`] document (property-tested in
//! the core chaos suite).
//! [`HeatMap::merge`] is additionally commutative and associative with
//! the empty map as identity — counters add, masks union, sketches
//! merge exactly — so per-cell partials (e.g. a sweep's) roll up
//! order-independently.
//!
//! By default a `HeatMap` declines background events
//! ([`Recorder::wants_background`] is `false`), so the engine skips
//! constructing the occupancy firehose and always-on heat recording
//! stays within the benched `heat_overhead_pct` budget. Opting into
//! [`HeatMap::with_wire_tracking`] keeps background events on and
//! additionally folds wire occupancies into per-node busy-time buckets,
//! which [`heat_perfetto`] renders as per-node wire-utilization counter
//! tracks next to the hot-region fault-rate counters.

use std::borrow::Cow;
use std::fmt::{Display, Write as _};

use gms_units::{Duration, FastMap, NodeId};

use crate::event::{Event, FaultClass, ResourceKind};
use crate::perfetto::{close_trace, open_trace, push_meta, Us};
use crate::recorder::Recorder;
use crate::sketch::{merge_counts, QuantileSketch};

/// Schema tag of the JSON document [`heat_json`] renders.
pub const HEAT_SCHEMA: &str = "gms-heat/v1";

/// Hard cap on time-bucket series length. Activity past the cap folds
/// into the last bucket instead of growing the series, so a heat map's
/// memory is bounded however long the run is (at the default 1 ms
/// quantum the cap covers a 16+ second run, an order of magnitude past
/// the longest benched workload).
const MAX_BUCKETS: usize = 16_384;

/// Never-matching region-cache sentinel (no node is `u32::MAX`).
const CACHE_EMPTY: (u32, u64, u32) = (u32::MAX, u64::MAX, 0);

type RegionIndex = FastMap<(u32, u64), u32>;

/// A faulted page: its last fault time and its region's arena slot.
#[derive(Debug, Clone, Copy)]
struct PageEntry {
    last_fault_ns: u64,
    slot: u32,
}

type PageIndex = FastMap<(u32, u64), PageEntry>;

/// A fault or arrival recorded but not yet folded into the map.
#[derive(Debug, Clone, Copy)]
enum Pending {
    Fault {
        node: u32,
        page: u64,
        class: FaultClass,
        at_ns: u64,
    },
    Arrival {
        node: u32,
        page: u64,
        subpages: u64,
    },
}

/// Faults and arrivals buffered before they are folded into the map.
/// Recording one is then an append to a single buffer, and a fold works
/// through the page index and the regions' counters, series and
/// sketches many times in a row, instead of once per fault with the
/// simulation evicting them from cache in between. Every other event
/// only adds to counters, so folding later changes no result; readers
/// fold what is pending into a copy.
const SETTLE_BATCH: usize = 1024;

/// Accumulated statistics of one `(node, region)` cell.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RegionStats {
    /// Fault counts by class, indexed like [`HeatMap::CLASSES`].
    pub faults: [u64; 4],
    /// Faults on pages never faulted before — equivalently, the number
    /// of distinct pages of the region that faulted at all.
    pub first_touches: u64,
    /// Sum of subpage popcounts over the region's `Arrival` masks: how
    /// many follow-on subpages were delivered into the region.
    pub subpage_arrivals: u64,
    /// Union of the region's `Arrival` subpage bitmasks across pages —
    /// its popcount bounds how much of a page the region's accesses
    /// ever cover.
    pub subpage_mask: u64,
    /// Subpages an adaptive engine predicted (moved beyond demand) for
    /// the region's pages, counted at issue time.
    pub prefetched_subpages: u64,
    /// Bytes behind [`RegionStats::prefetched_subpages`].
    pub prefetched_bytes: u64,
    /// Predicted subpages the program never touched, counted when each
    /// page's prefetch window closed at eviction.
    pub wasted_subpages: u64,
    /// Bytes behind [`RegionStats::wasted_subpages`] — sums to the run
    /// report's `mispredicted_prefetch_bytes` across regions.
    pub wasted_bytes: u64,
    /// Standby copies written for the region's evicted pages (K > 1
    /// replication).
    pub replica_writes: u64,
    /// Refault intervals (nanoseconds between successive faults on the
    /// same page) of the region's pages.
    pub refault: QuantileSketch,
    /// `(time bucket, faults)` for every [`HeatMap::quantum`]-sized
    /// bucket holding a fault, ascending: the series behind
    /// [`heat_perfetto`]'s hot-region counter tracks.
    pub fault_series: Vec<(u32, u32)>,
}

impl RegionStats {
    /// Total faults of the region across classes.
    #[must_use]
    pub fn total_faults(&self) -> u64 {
        self.faults.iter().sum()
    }

    /// Refaults of the region: faults that were not first touches.
    #[must_use]
    pub fn refaults(&self) -> u64 {
        self.refault.count()
    }

    fn absorb(&mut self, other: &RegionStats) {
        for (a, b) in self.faults.iter_mut().zip(other.faults) {
            *a += b;
        }
        self.first_touches += other.first_touches;
        self.subpage_arrivals += other.subpage_arrivals;
        self.subpage_mask |= other.subpage_mask;
        self.prefetched_subpages += other.prefetched_subpages;
        self.prefetched_bytes += other.prefetched_bytes;
        self.wasted_subpages += other.wasted_subpages;
        self.wasted_bytes += other.wasted_bytes;
        self.replica_writes += other.replica_writes;
        self.refault.merge(&other.refault);
        self.fault_series = merge_counts(
            self.fault_series.iter().copied(),
            other.fault_series.iter().copied(),
        );
    }
}

/// Per-node aggregates. The fault count and series are the sums of
/// the node's regions, filled in by [`HeatMap::nodes`]; the rest are
/// counters regions cannot carry.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NodeHeat {
    /// Total faults of the node.
    pub faults: u64,
    /// `(time bucket, faults)` for every bucket holding a fault,
    /// ascending, for the node's fault-rate counter track.
    pub fault_series: Vec<(u32, u32)>,
    /// Standby copies this node wrote (sums the node's regions).
    pub replica_writes: u64,
    /// Background repair copies this node *served* as surviving holder.
    pub repairs: u64,
    /// Wire busy nanoseconds (inbound + outbound) per time bucket.
    /// Empty unless the map was built
    /// [`with_wire_tracking`](HeatMap::with_wire_tracking).
    pub wire_busy: Vec<u64>,
}

impl NodeHeat {
    fn absorb(&mut self, other: &NodeHeat) {
        self.replica_writes += other.replica_writes;
        self.repairs += other.repairs;
        add_series(&mut self.wire_busy, &other.wire_busy);
    }
}

/// Whole-map totals, as summed by [`HeatMap::totals`]. Every field is
/// the sum of the corresponding per-region (or per-node) field, so the
/// document's conservation checks can compare them against the run
/// report directly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HeatTotals {
    /// Fault counts by class, indexed like [`HeatMap::CLASSES`].
    pub faults: [u64; 4],
    /// First touches across regions.
    pub first_touches: u64,
    /// Refaults across regions (`total() - first_touches`).
    pub refaults: u64,
    /// Delivered follow-on subpages across regions.
    pub subpage_arrivals: u64,
    /// Predicted subpages across regions.
    pub prefetched_subpages: u64,
    /// Predicted bytes across regions.
    pub prefetched_bytes: u64,
    /// Never-touched predicted subpages across regions.
    pub wasted_subpages: u64,
    /// Never-touched predicted bytes across regions.
    pub wasted_bytes: u64,
    /// Standby copies written across regions.
    pub replica_writes: u64,
    /// Repair copies served across nodes.
    pub repairs: u64,
}

impl HeatTotals {
    /// Total faults across classes.
    #[must_use]
    pub fn total_faults(&self) -> u64 {
        self.faults.iter().sum()
    }
}

/// A bounded, mergeable spatial-heat accumulator (see the module docs
/// for the full contract).
#[derive(Debug, Clone)]
pub struct HeatMap {
    region_shift: u32,
    quantum_ns: u64,
    wire: bool,
    /// `(node, region)` → arena slot. The stats live out-of-map so the
    /// hot path can keep a one-entry cache of the last slot touched
    /// (the event stream is strongly region-local: a fault's arrivals
    /// and prefetch events hit the faulting page) and skip the hash
    /// entirely on consecutive hits.
    index: RegionIndex,
    arena: Vec<((u32, u64), RegionStats)>,
    /// Last `(node, region, arena slot)` resolved; node `u32::MAX` is
    /// the never-matches sentinel.
    cache: (u32, u64, u32),
    /// Per faulted `(node, page)`: the last fault time, feeding the
    /// refault interval sketches, and the region's arena slot, so a
    /// refault costs one probe in all. Times merge by max, which keeps
    /// merge commutative (the interval spanning a merge seam is
    /// deliberately not reconstructed — merge combines *partials*, it
    /// does not replay).
    pages: PageIndex,
    /// One entry per node observed, holding only the counters regions
    /// cannot carry: faults and fault series stay zero here, since
    /// [`HeatMap::nodes`] sums them from the regions.
    nodes: Vec<NodeHeat>,
    /// Faults and arrivals not yet folded in (fewer than
    /// [`SETTLE_BATCH`]).
    pending: Vec<Pending>,
}

/// Logical equality: the arena's insertion order is an artifact of the
/// event stream (or merge order), so maps compare by sorted region
/// contents — `a.merge(b)` equals `b.merge(a)` as it should.
impl PartialEq for HeatMap {
    fn eq(&self, other: &Self) -> bool {
        let (this, other) = (self.settled(), other.settled());
        this.region_shift == other.region_shift
            && this.quantum_ns == other.quantum_ns
            && this.wire == other.wire
            && this.nodes == other.nodes
            && this.pages.len() == other.pages.len()
            && this.pages.iter().all(|(key, a)| {
                other
                    .pages
                    .get(key)
                    .is_some_and(|b| a.last_fault_ns == b.last_fault_ns)
            })
            && this.regions() == other.regions()
    }
}

impl Eq for HeatMap {}

impl Default for HeatMap {
    fn default() -> Self {
        Self::new()
    }
}

impl HeatMap {
    /// Fault classes in field order of [`RegionStats::faults`] (the
    /// same order as the run report's `FaultCounts`).
    pub const CLASSES: [FaultClass; 4] = [
        FaultClass::Remote,
        FaultClass::Disk,
        FaultClass::LazySubpage,
        FaultClass::Degraded,
    ];

    /// An empty map with 64-page regions, a 1 ms counter quantum and
    /// wire tracking off.
    #[must_use]
    pub fn new() -> Self {
        HeatMap {
            region_shift: 6,
            quantum_ns: 1_000_000,
            wire: false,
            index: RegionIndex::default(),
            arena: Vec::new(),
            cache: CACHE_EMPTY,
            pages: PageIndex::default(),
            nodes: Vec::new(),
            pending: Vec::new(),
        }
    }

    /// Sets the region granularity in pages (a power of two; 1 makes
    /// regions single pages).
    ///
    /// # Panics
    /// If `pages` is not a power of two.
    #[must_use]
    pub fn with_region_pages(mut self, pages: u64) -> Self {
        assert!(
            pages.is_power_of_two(),
            "region granularity must be a power of two, got {pages}"
        );
        self.region_shift = pages.trailing_zeros();
        self
    }

    /// Sets the time-bucket quantum of the counter series.
    ///
    /// # Panics
    /// If `quantum` is zero.
    #[must_use]
    pub fn with_quantum(mut self, quantum: Duration) -> Self {
        assert!(quantum > Duration::ZERO, "counter quantum must be non-zero");
        self.quantum_ns = quantum.as_nanos();
        self
    }

    /// Opts into wire-occupancy tracking: the recorder keeps asking for
    /// background events and folds `WireIn`/`WireOut` occupancies into
    /// per-node busy buckets. Costs roughly what full trace buffering
    /// does (the occupancy firehose must be constructed), so the
    /// always-on `--heat-out` path leaves it off; the `gms-sim heat`
    /// analysis command turns it on.
    #[must_use]
    pub fn with_wire_tracking(mut self) -> Self {
        self.wire = true;
        self
    }

    /// Pages per region.
    #[must_use]
    pub fn region_pages(&self) -> u64 {
        1 << self.region_shift
    }

    /// The counter-series time quantum.
    #[must_use]
    pub fn quantum(&self) -> Duration {
        Duration::from_nanos(self.quantum_ns)
    }

    /// Whether wire-occupancy tracking is on.
    #[must_use]
    pub fn wire_tracking(&self) -> bool {
        self.wire
    }

    /// Whether nothing has been observed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
            && self.arena.is_empty()
            && self.nodes.iter().all(|n| *n == NodeHeat::default())
    }

    /// Forget everything observed but keep the configuration.
    pub fn clear(&mut self) {
        self.index.clear();
        self.arena.clear();
        self.cache = CACHE_EMPTY;
        self.pages.clear();
        self.nodes.clear();
        self.pending.clear();
    }

    /// The populated `(node, region index, stats)` cells, sorted by
    /// `(node, region)` — the deterministic iteration order every
    /// exporter uses.
    #[must_use]
    pub fn regions(&self) -> Vec<(NodeId, u64, RegionStats)> {
        let mut cells: Vec<_> = self
            .settled()
            .arena
            .iter()
            .map(|((node, region), stats)| (NodeId::new(*node), *region, stats.clone()))
            .collect();
        cells.sort_by_key(|(node, region, _)| (node.index(), *region));
        cells
    }

    /// The map with everything pending folded in (borrowed when
    /// nothing is pending).
    fn settled(&self) -> Cow<'_, HeatMap> {
        if self.pending.is_empty() {
            return Cow::Borrowed(self);
        }
        let mut map = self.clone();
        map.settle();
        Cow::Owned(map)
    }

    /// Folds the pending faults and arrivals in, in recording order.
    #[inline(never)]
    fn settle(&mut self) {
        let mut pending = std::mem::take(&mut self.pending);
        for &event in &pending {
            match event {
                Pending::Fault {
                    node,
                    page,
                    class,
                    at_ns,
                } => self.fold_fault(node, page, class, at_ns),
                Pending::Arrival {
                    node,
                    page,
                    subpages,
                } => {
                    let stats = self.region_mut(node, page >> self.region_shift);
                    stats.subpage_arrivals += u64::from(subpages.count_ones());
                    stats.subpage_mask |= subpages;
                }
            }
        }
        pending.clear();
        self.pending = pending;
    }

    /// Per-node aggregates for every node observed, in node order.
    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, NodeHeat)> {
        let map = self.settled();
        let mut nodes = map.nodes.clone();
        for ((node, _), stats) in &map.arena {
            // A region of a node never seen faulting has no faults.
            if let Some(nh) = nodes.get_mut(*node as usize) {
                nh.faults += stats.total_faults();
                nh.fault_series = merge_counts(
                    nh.fault_series.iter().copied(),
                    stats.fault_series.iter().copied(),
                );
            }
        }
        nodes
            .into_iter()
            .enumerate()
            .map(|(i, n)| (NodeId::new(i as u32), n))
    }

    /// Whole-map totals (sums of the per-region and per-node fields).
    #[must_use]
    pub fn totals(&self) -> HeatTotals {
        let map = self.settled();
        let mut t = HeatTotals::default();
        for (_, stats) in &map.arena {
            for (acc, c) in t.faults.iter_mut().zip(stats.faults) {
                *acc += c;
            }
            t.first_touches += stats.first_touches;
            t.refaults += stats.refault.count();
            t.subpage_arrivals += stats.subpage_arrivals;
            t.prefetched_subpages += stats.prefetched_subpages;
            t.prefetched_bytes += stats.prefetched_bytes;
            t.wasted_subpages += stats.wasted_subpages;
            t.wasted_bytes += stats.wasted_bytes;
            t.replica_writes += stats.replica_writes;
        }
        t.repairs = map.nodes.iter().map(|n| n.repairs).sum();
        t
    }

    /// All refault intervals merged into one sketch (for whole-run
    /// percentiles, e.g. calibrating the adaptive engines' windows).
    #[must_use]
    pub fn refault_sketch(&self) -> QuantileSketch {
        let mut all = QuantileSketch::new();
        for (_, stats) in &self.settled().arena {
            all.merge(&stats.refault);
        }
        all
    }

    /// Merge another map's accumulators into this one. Commutative and
    /// associative, with the empty map as identity: counters add,
    /// bitmasks union, series add elementwise, sketches merge exactly
    /// and last-fault times take the max.
    ///
    /// # Panics
    /// If the two maps were configured with different region
    /// granularities or quanta — merging those would silently mix
    /// incomparable keys.
    pub fn merge(&mut self, other: &HeatMap) {
        assert_eq!(
            self.region_shift, other.region_shift,
            "cannot merge heat maps with different region granularities"
        );
        assert_eq!(
            self.quantum_ns, other.quantum_ns,
            "cannot merge heat maps with different counter quanta"
        );
        self.settle();
        let other = other.settled();
        for ((node, region), stats) in &other.arena {
            self.region_mut(*node, *region).absorb(stats);
        }
        for (&(node, page), theirs) in &other.pages {
            let slot = self.region_slot(node, page >> self.region_shift);
            let ours = self.pages.entry((node, page)).or_insert(PageEntry {
                last_fault_ns: theirs.last_fault_ns,
                slot,
            });
            ours.last_fault_ns = ours.last_fault_ns.max(theirs.last_fault_ns);
        }
        if self.nodes.len() < other.nodes.len() {
            self.nodes.resize_with(other.nodes.len(), NodeHeat::default);
        }
        for (a, b) in self.nodes.iter_mut().zip(&other.nodes) {
            a.absorb(b);
        }
    }

    #[inline]
    fn bucket(&self, at_ns: u64) -> u32 {
        // MAX_BUCKETS fits u32.
        (at_ns / self.quantum_ns).min(MAX_BUCKETS as u64 - 1) as u32
    }

    fn node_mut(&mut self, node: u32) -> &mut NodeHeat {
        let idx = node as usize;
        if self.nodes.len() <= idx {
            self.nodes.resize_with(idx + 1, NodeHeat::default);
        }
        &mut self.nodes[idx]
    }

    /// The region cell, hashing only on cache miss: the event stream
    /// is strongly region-local, so consecutive events almost always
    /// resolve to the slot already in [`HeatMap::cache`].
    #[inline]
    fn region_mut(&mut self, node: u32, region: u64) -> &mut RegionStats {
        let slot = self.region_slot(node, region);
        &mut self.arena[slot as usize].1
    }

    #[inline]
    fn region_slot(&mut self, node: u32, region: u64) -> u32 {
        let (cn, cr, slot) = self.cache;
        if cn == node && cr == region {
            return slot;
        }
        self.region_slot_slow(node, region)
    }

    #[inline(never)]
    fn region_slot_slow(&mut self, node: u32, region: u64) -> u32 {
        let arena = &mut self.arena;
        let slot = *self.index.entry((node, region)).or_insert_with(|| {
            arena.push(((node, region), RegionStats::default()));
            u32::try_from(arena.len() - 1).expect("region count fits u32")
        });
        self.cache = (node, region, slot);
        slot
    }

    /// Buffers a fault or arrival, folding the buffer in once full.
    #[inline]
    fn defer(&mut self, event: Pending) {
        self.pending.push(event);
        if self.pending.len() == SETTLE_BATCH {
            self.settle();
        }
    }

    /// Folds one fault into its page, region and node.
    fn fold_fault(&mut self, node: u32, page: u64, class: FaultClass, at_ns: u64) {
        let bucket = self.bucket(at_ns);
        let region = page >> self.region_shift;
        let (slot, prev) = match self.pages.get_mut(&(node, page)) {
            Some(entry) => (
                entry.slot,
                Some(std::mem::replace(&mut entry.last_fault_ns, at_ns)),
            ),
            None => {
                let slot = self.region_slot(node, region);
                let entry = PageEntry {
                    last_fault_ns: at_ns,
                    slot,
                };
                self.pages.insert((node, page), entry);
                (slot, None)
            }
        };
        // The fault's arrivals, folded next, hit the same region.
        self.cache = (node, region, slot);
        let stats = &mut self.arena[slot as usize].1;
        stats.faults[class_index(class)] += 1;
        bump_series(&mut stats.fault_series, bucket);
        // Recorders see each node's events in that node's clock order,
        // so the interval never underflows; saturate anyway rather
        // than trusting a foreign stream.
        match prev {
            Some(prev) => stats.refault.record(at_ns.saturating_sub(prev)),
            None => stats.first_touches += 1,
        }
        // List the node even if it only ever faulted.
        self.node_mut(node);
    }

    // The remaining handlers are outlined with scalar (register)
    // arguments, like the flight recorder's: the inlined dispatcher
    // folds to the one relevant arm per monomorphized call site and
    // the call does not copy a 56-byte Event by value.

    #[inline(never)]
    fn on_prefetch(&mut self, node: u32, page: u64, subpages: u64, sub_bytes: u32, unused: bool) {
        let stats = self.region_mut(node, page >> self.region_shift);
        let count = u64::from(subpages.count_ones());
        let bytes = count * u64::from(sub_bytes);
        if unused {
            stats.wasted_subpages += count;
            stats.wasted_bytes += bytes;
        } else {
            stats.prefetched_subpages += count;
            stats.prefetched_bytes += bytes;
        }
    }

    #[inline(never)]
    fn on_replica_write(&mut self, node: u32, page: u64) {
        self.region_mut(node, page >> self.region_shift)
            .replica_writes += 1;
        self.node_mut(node).replica_writes += 1;
    }

    #[inline(never)]
    fn on_wire(&mut self, node: u32, start_ns: u64, end_ns: u64) {
        let quantum = self.quantum_ns;
        let series = &mut self.node_mut(node).wire_busy;
        let mut t = start_ns;
        while t < end_ns {
            let bucket = ((t / quantum) as usize).min(MAX_BUCKETS - 1);
            let bucket_end = if bucket == MAX_BUCKETS - 1 {
                u64::MAX
            } else {
                (bucket as u64 + 1) * quantum
            };
            let upto = end_ns.min(bucket_end);
            if series.len() <= bucket {
                series.resize(bucket + 1, 0);
            }
            series[bucket] += upto - t;
            t = upto;
        }
    }
}

#[inline]
fn class_index(class: FaultClass) -> usize {
    match class {
        FaultClass::Remote => 0,
        FaultClass::Disk => 1,
        FaultClass::LazySubpage => 2,
        FaultClass::Degraded => 3,
    }
}

/// Counts one fault in `bucket` of a sparse series. A node's events
/// arrive in its clock order, so the bucket is nearly always the last
/// one or a new one past it.
fn bump_series(series: &mut Vec<(u32, u32)>, bucket: u32) {
    match series.last_mut() {
        Some(last) if last.0 == bucket => last.1 += 1,
        Some(last) if last.0 > bucket => {
            *series = merge_counts(series.iter().copied(), [(bucket, 1)]);
        }
        _ => series.push((bucket, 1)),
    }
}

/// A sparse series densely, from bucket 0 through its last bucket with
/// zeros in between: the shape of a Perfetto counter track.
fn dense(series: &[(u32, u32)]) -> impl Iterator<Item = (u64, u32)> + '_ {
    let end = series.last().map_or(0, |&(bucket, _)| bucket + 1);
    let mut rest = series.iter().peekable();
    (0..end).map(move |bucket| match rest.next_if(|&&(b, _)| b == bucket) {
        Some(&(_, count)) => (u64::from(bucket), count),
        None => (u64::from(bucket), 0),
    })
}

fn add_series<T: Copy + Default + std::ops::AddAssign>(into: &mut Vec<T>, from: &[T]) {
    if into.len() < from.len() {
        into.resize(from.len(), T::default());
    }
    for (a, &b) in into.iter_mut().zip(from) {
        *a += b;
    }
}

impl Recorder for HeatMap {
    const ENABLED: bool = true;

    // Like the flight recorder's dispatcher: small enough to inline
    // into every monomorphized engine call site, where the variant is a
    // compile-time constant and the match folds to one arm.
    #[inline(always)]
    fn record(&mut self, event: Event) {
        match event {
            Event::Fault {
                node,
                page,
                class,
                at,
                ..
            } => self.defer(Pending::Fault {
                node: node.index(),
                page,
                class,
                at_ns: at.as_nanos(),
            }),
            Event::Arrival {
                node,
                page,
                subpages,
                ..
            } => self.defer(Pending::Arrival {
                node: node.index(),
                page,
                subpages,
            }),
            Event::Prefetch {
                node,
                page,
                subpages,
                sub_bytes,
                unused,
                ..
            } => self.on_prefetch(node.index(), page, subpages, sub_bytes, unused),
            Event::ReplicaWrite { node, page, .. } => self.on_replica_write(node.index(), page),
            Event::Repair { node, .. } => self.node_mut(node.index()).repairs += 1,
            Event::Occupancy {
                node,
                resource: ResourceKind::WireIn | ResourceKind::WireOut,
                start,
                end,
                ..
            } if self.wire => self.on_wire(node.index(), start.as_nanos(), end.as_nanos()),
            _ => {}
        }
    }

    /// Background events are the occupancy firehose; only wire tracking
    /// needs it. With wire tracking off the engine skips constructing
    /// background occupancies entirely, which is what keeps always-on
    /// heat recording cheap.
    #[inline]
    fn wants_background(&self) -> bool {
        self.wire
    }
}

/// Render a heat map as the single-line `gms-heat/v1` JSON document.
///
/// Deterministic: regions are emitted in `(node, region)` order and
/// nodes in node order, so the string is a pure function of the
/// accumulated state.
#[must_use]
pub fn heat_json(heat: &HeatMap) -> String {
    // Fold what is pending once, not in every reader below.
    let heat = &*heat.settled();
    let totals = heat.totals();
    let mut out = String::with_capacity(4096);
    let _ = write!(
        out,
        "{{\"schema\":\"{HEAT_SCHEMA}\",\"region_pages\":{},\"quantum_ns\":{}",
        heat.region_pages(),
        heat.quantum().as_nanos()
    );

    out.push_str(",\"totals\":");
    push_totals(&mut out, &totals);

    out.push_str(",\"nodes\":[");
    for (i, (node, nh)) in heat.nodes().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"node\":{},\"faults\":{},\"replica_writes\":{},\"repairs\":{},\
             \"wire_busy_ns\":{}}}",
            node.index(),
            nh.faults,
            nh.replica_writes,
            nh.repairs,
            nh.wire_busy.iter().sum::<u64>()
        );
    }
    out.push(']');

    out.push_str(",\"regions\":[");
    for (i, (node, region, stats)) in heat.regions().into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"node\":{},\"region\":{region},\"first_page\":{},\"pages\":{}",
            node.index(),
            region * heat.region_pages(),
            heat.region_pages()
        );
        out.push_str(",\"faults\":");
        push_fault_counts(&mut out, &stats.faults);
        let _ = write!(
            out,
            ",\"first_touches\":{},\"refaults\":{}",
            stats.first_touches,
            stats.refaults()
        );
        out.push_str(",\"refault_ns\":");
        push_refault(&mut out, &stats.refault);
        let _ = write!(
            out,
            ",\"subpage_arrivals\":{},\"subpage_mask\":{},\
             \"prefetched_subpages\":{},\"prefetched_bytes\":{},\
             \"wasted_subpages\":{},\"wasted_bytes\":{},\"replica_writes\":{}}}",
            stats.subpage_arrivals,
            stats.subpage_mask,
            stats.prefetched_subpages,
            stats.prefetched_bytes,
            stats.wasted_subpages,
            stats.wasted_bytes,
            stats.replica_writes
        );
    }
    out.push_str("]}");
    out
}

fn push_fault_counts(out: &mut String, faults: &[u64; 4]) {
    let _ = write!(
        out,
        "{{\"remote\":{},\"disk\":{},\"lazy\":{},\"degraded\":{},\"total\":{}}}",
        faults[0],
        faults[1],
        faults[2],
        faults[3],
        faults.iter().sum::<u64>()
    );
}

fn push_refault(out: &mut String, sketch: &QuantileSketch) {
    let _ = write!(
        out,
        "{{\"count\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"max\":{}}}",
        sketch.count(),
        sketch.quantile(0.50),
        sketch.quantile(0.90),
        sketch.quantile(0.99),
        sketch.max()
    );
}

fn push_totals(out: &mut String, t: &HeatTotals) {
    out.push_str("{\"faults\":");
    push_fault_counts(out, &t.faults);
    let _ = write!(
        out,
        ",\"first_touches\":{},\"refaults\":{},\"subpage_arrivals\":{},\
         \"prefetched_subpages\":{},\"prefetched_bytes\":{},\
         \"wasted_subpages\":{},\"wasted_bytes\":{},\
         \"replica_writes\":{},\"repairs\":{}}}",
        t.first_touches,
        t.refaults,
        t.subpage_arrivals,
        t.prefetched_subpages,
        t.prefetched_bytes,
        t.wasted_subpages,
        t.wasted_bytes,
        t.replica_writes,
        t.repairs
    );
}

/// Render a heat map's counter tracks as a Chrome/Perfetto trace
/// document (`"ph":"C"` counter events):
///
/// * per node, a `faults` counter (faults per quantum) on the node's
///   process;
/// * per node, a `wire-utilization` counter (percent of the node's
///   combined in+out wire capacity busy per quantum) when the map
///   tracked wire occupancies;
/// * one `hot-region` counter track for each of the `top` regions with
///   the most faults (cluster-wide, ties broken by `(node, region)`).
///
/// Like [`heat_json`], the output is a pure function of the
/// accumulated state.
#[must_use]
pub fn heat_perfetto(heat: &HeatMap, top: usize) -> String {
    let heat = &*heat.settled();
    let quantum = heat.quantum().as_nanos();
    let mut out = open_trace();
    for (node, _) in heat.nodes() {
        let name = format!("node{}", node.index());
        push_meta(&mut out, node.index(), 0, "process_name", &name);
    }

    for (node, nh) in heat.nodes() {
        for (bucket, count) in dense(&nh.fault_series) {
            let ts = bucket * quantum;
            push_counter(&mut out, node.index(), "faults", ts, "faults", count);
        }
        for (bucket, &busy) in nh.wire_busy.iter().enumerate() {
            // Two wire directions share the bucket: busy / (2 × quantum).
            let pct = busy as f64 * 100.0 / (2.0 * quantum as f64);
            let ts = bucket as u64 * quantum;
            let pct = format_args!("{pct:.3}");
            push_counter(&mut out, node.index(), "wire-utilization", ts, "pct", pct);
        }
    }

    let mut hot = heat.regions();
    hot.sort_by_key(|(node, region, stats)| {
        (
            std::cmp::Reverse(stats.total_faults()),
            node.index(),
            *region,
        )
    });
    for (node, region, stats) in hot.into_iter().take(top) {
        let name = format!("hot-region n{}/r{region}", node.index());
        for (bucket, count) in dense(&stats.fault_series) {
            let ts = bucket * quantum;
            push_counter(&mut out, node.index(), &name, ts, "faults", count);
        }
    }
    close_trace(out)
}

/// Appends one counter (`"C"`) event and its trailing comma.
fn push_counter(
    out: &mut String,
    pid: u32,
    name: &str,
    at_ns: u64,
    key: &str,
    value: impl Display,
) {
    let _ = write!(
        out,
        "{{\"ph\":\"C\",\"name\":\"{name}\",\"pid\":{pid},\"ts\":{},\
         \"args\":{{\"{key}\":{value}}}}},",
        Us(at_ns)
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::JsonValue;
    use gms_units::SimTime;
    use proptest::prelude::*;
    use std::collections::HashMap;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    fn fault(node: u32, page: u64, class: FaultClass, at_ns: u64) -> Event {
        Event::Fault {
            node: NodeId::new(node),
            page,
            subpage: 0,
            class,
            at_ref: 0,
            at: t(at_ns),
        }
    }

    #[test]
    fn faults_split_into_first_touches_and_refaults() {
        let mut heat = HeatMap::new();
        heat.record(fault(0, 1, FaultClass::Remote, 1_000));
        heat.record(fault(0, 2, FaultClass::Disk, 2_000));
        heat.record(fault(0, 1, FaultClass::Remote, 5_000));
        heat.record(fault(0, 1, FaultClass::LazySubpage, 6_500));

        let totals = heat.totals();
        assert_eq!(totals.total_faults(), 4);
        assert_eq!(totals.faults, [2, 1, 1, 0]);
        assert_eq!(totals.first_touches, 2);
        assert_eq!(totals.refaults, 2);
        assert_eq!(
            totals.first_touches + totals.refaults,
            totals.total_faults()
        );

        // Pages 1 and 2 share region 0 at 64-page granularity.
        let regions = heat.regions();
        assert_eq!(regions.len(), 1);
        let (_, region, stats) = &regions[0];
        assert_eq!(*region, 0);
        assert_eq!(stats.refault.count(), 2);
        // Intervals: 5000-1000 and 6500-5000.
        assert_eq!(stats.refault.min(), 1_500);
        assert_eq!(stats.refault.max(), 4_000);
    }

    #[test]
    fn region_granularity_splits_pages() {
        let mut heat = HeatMap::new().with_region_pages(1);
        heat.record(fault(0, 1, FaultClass::Remote, 0));
        heat.record(fault(0, 2, FaultClass::Remote, 1));
        assert_eq!(heat.regions().len(), 2);

        let mut coarse = HeatMap::new().with_region_pages(1 << 20);
        coarse.record(fault(0, 1, FaultClass::Remote, 0));
        coarse.record(fault(0, 2, FaultClass::Remote, 1));
        assert_eq!(coarse.regions().len(), 1);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn region_granularity_rejects_non_powers() {
        let _ = HeatMap::new().with_region_pages(48);
    }

    #[test]
    fn arrivals_and_prefetches_accumulate() {
        let mut heat = HeatMap::new();
        heat.record(Event::Arrival {
            node: NodeId::new(1),
            page: 7,
            msg: 0,
            at: t(10),
            subpages: 0b1011,
        });
        heat.record(Event::Prefetch {
            node: NodeId::new(1),
            page: 7,
            subpages: 0b1100,
            sub_bytes: 1024,
            unused: false,
            at: t(11),
        });
        heat.record(Event::Prefetch {
            node: NodeId::new(1),
            page: 7,
            subpages: 0b0100,
            sub_bytes: 1024,
            unused: true,
            at: t(90),
        });
        let regions = heat.regions();
        let (_, _, stats) = &regions[0];
        assert_eq!(stats.subpage_arrivals, 3);
        assert_eq!(stats.subpage_mask, 0b1011);
        assert_eq!(stats.prefetched_subpages, 2);
        assert_eq!(stats.prefetched_bytes, 2048);
        assert_eq!(stats.wasted_subpages, 1);
        assert_eq!(stats.wasted_bytes, 1024);
    }

    #[test]
    fn replication_traffic_routes_by_scope() {
        let mut heat = HeatMap::new();
        heat.record(Event::ReplicaWrite {
            node: NodeId::new(0),
            holder: NodeId::new(2),
            page: 12,
            copy: 1,
            at: t(5),
        });
        heat.record(Event::Repair {
            node: NodeId::new(2),
            target: NodeId::new(3),
            page: 1 << 40 | 12, // raw namespaced id: must not hit regions
            at: t(6),
        });
        let totals = heat.totals();
        assert_eq!(totals.replica_writes, 1);
        assert_eq!(totals.repairs, 1);
        assert_eq!(heat.regions().len(), 1, "repair stays out of regions");
        let nodes: Vec<_> = heat.nodes().collect();
        assert_eq!(nodes[0].1.replica_writes, 1);
        assert_eq!(nodes[2].1.repairs, 1);
    }

    #[test]
    fn wire_tracking_is_opt_in_and_buckets_spans() {
        let occ = Event::Occupancy {
            node: NodeId::new(0),
            resource: ResourceKind::WireIn,
            what: "data",
            ready: t(900_000),
            start: t(900_000),
            end: t(2_100_000), // spans three 1 ms buckets
        };
        let mut off = HeatMap::new();
        off.record(occ);
        assert!(!off.wants_background());
        assert!(off.is_empty());

        let mut on = HeatMap::new().with_wire_tracking();
        assert!(on.wants_background());
        on.record(occ);
        let nodes: Vec<_> = on.nodes().collect();
        assert_eq!(nodes[0].1.wire_busy, vec![100_000, 1_000_000, 100_000]);
        // Non-wire occupancies are ignored even with tracking on.
        on.record(Event::Occupancy {
            node: NodeId::new(0),
            resource: ResourceKind::Cpu,
            what: "request",
            ready: t(0),
            start: t(0),
            end: t(500),
        });
        let nodes: Vec<_> = on.nodes().collect();
        assert_eq!(nodes[0].1.wire_busy.iter().sum::<u64>(), 1_200_000);
    }

    #[test]
    fn json_is_valid_and_conserves_totals() {
        let mut heat = HeatMap::new();
        heat.record(fault(0, 1, FaultClass::Remote, 1_000));
        heat.record(fault(0, 1, FaultClass::Remote, 3_000));
        heat.record(fault(1, 200, FaultClass::Disk, 2_000));
        let doc = heat_json(&heat);
        let v = JsonValue::parse(&doc).expect("valid JSON");
        assert_eq!(
            v.get("schema").and_then(JsonValue::as_str),
            Some(HEAT_SCHEMA)
        );
        assert_eq!(v.get("region_pages").and_then(JsonValue::as_u64), Some(64));
        let totals = v.get("totals").unwrap();
        assert_eq!(
            totals
                .get("faults")
                .and_then(|f| f.get("total"))
                .and_then(JsonValue::as_u64),
            Some(3)
        );
        let regions = v.get("regions").and_then(JsonValue::as_array).unwrap();
        let sum: u64 = regions
            .iter()
            .map(|r| {
                r.get("faults")
                    .and_then(|f| f.get("total"))
                    .and_then(JsonValue::as_u64)
                    .unwrap()
            })
            .sum();
        assert_eq!(sum, 3);
        let ft: u64 = regions
            .iter()
            .map(|r| r.get("first_touches").and_then(JsonValue::as_u64).unwrap())
            .sum();
        let rf: u64 = regions
            .iter()
            .map(|r| r.get("refaults").and_then(JsonValue::as_u64).unwrap())
            .sum();
        assert_eq!(ft + rf, 3);
    }

    #[test]
    fn perfetto_counters_parse_and_cover_tracks() {
        let mut heat = HeatMap::new().with_wire_tracking();
        heat.record(fault(0, 1, FaultClass::Remote, 500_000));
        heat.record(fault(0, 1, FaultClass::Remote, 1_500_000));
        heat.record(Event::Occupancy {
            node: NodeId::new(0),
            resource: ResourceKind::WireOut,
            what: "data",
            ready: t(0),
            start: t(0),
            end: t(250_000),
        });
        let doc = heat_perfetto(&heat, 8);
        let v = JsonValue::parse(&doc).expect("valid JSON");
        let items = v.get("traceEvents").and_then(JsonValue::as_array).unwrap();
        let counters: Vec<_> = items
            .iter()
            .filter(|e| e.get("ph").and_then(JsonValue::as_str) == Some("C"))
            .collect();
        assert!(!counters.is_empty());
        let names: std::collections::BTreeSet<&str> = counters
            .iter()
            .filter_map(|e| e.get("name").and_then(JsonValue::as_str))
            .collect();
        assert!(names.contains("faults"));
        assert!(names.contains("wire-utilization"));
        assert!(names.iter().any(|n| n.starts_with("hot-region")));
    }

    #[test]
    fn merge_rejects_mismatched_granularity() {
        let a = HeatMap::new().with_region_pages(64);
        let b = HeatMap::new().with_region_pages(32);
        let result = std::panic::catch_unwind(move || {
            let mut a = a;
            a.merge(&b);
        });
        assert!(result.is_err());
    }

    #[test]
    fn clear_resets_but_keeps_config() {
        let mut heat = HeatMap::new().with_region_pages(16);
        heat.record(fault(0, 1, FaultClass::Remote, 0));
        assert!(!heat.is_empty());
        heat.clear();
        assert!(heat.is_empty());
        assert_eq!(heat.region_pages(), 16);
        assert_eq!(
            heat_json(&heat),
            heat_json(&HeatMap::new().with_region_pages(16))
        );
        // A cleared map forgets its pages' last faults too: what it
        // records next must match a fresh map's record of the same
        // stream (no refault across the clear).
        let stream = [
            fault(0, 1, FaultClass::Remote, 1_000),
            fault(1, 40, FaultClass::Disk, 2_500_000),
            fault(0, 1, FaultClass::Remote, 3_000_000),
        ];
        for e in stream {
            heat.record(e);
        }
        heat.clear();
        heat.record(stream[2]);
        let mut once = HeatMap::new().with_region_pages(16);
        once.record(stream[2]);
        assert_eq!(heat_json(&heat), heat_json(&once));
        assert_eq!(heat, once);
    }

    /// A stream several fold batches long, ending mid-batch, reads the
    /// same as counting it out by hand: readers see the folded
    /// batches and the pending tail alike.
    #[test]
    fn long_streams_fold_across_batches() {
        let mut heat = HeatMap::new().with_region_pages(16);
        let mut last: HashMap<(u32, u64), u64> = HashMap::new();
        let (mut refaults, mut interval_sum, mut arrived) = (0u64, 0u128, 0u64);
        let mut x = 7u64;
        let faults = 3 * SETTLE_BATCH as u64 + 5;
        for i in 0..faults {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            let (node, page, at) = ((x >> 60) as u32 % 2, (x >> 33) % 200, i * 40_000);
            heat.record(fault(node, page, FaultClass::Remote, at));
            heat.record(Event::Arrival {
                node: NodeId::new(node),
                page,
                msg: 0,
                at: t(at + 1),
                subpages: 0b110,
            });
            arrived += 2;
            if let Some(prev) = last.insert((node, page), at) {
                refaults += 1;
                interval_sum += u128::from(at - prev);
            }
        }
        assert!(!heat.pending.is_empty(), "the stream must end mid-batch");
        let totals = heat.totals();
        assert_eq!(totals.faults, [faults, 0, 0, 0]);
        assert_eq!(totals.first_touches, last.len() as u64);
        assert_eq!(totals.refaults, refaults);
        assert_eq!(totals.subpage_arrivals, arrived);
        assert_eq!(heat.refault_sketch().sum(), interval_sum);
        for (_, _, stats) in heat.regions() {
            let series: u64 = stats.fault_series.iter().map(|&(_, c)| u64::from(c)).sum();
            assert_eq!(series, stats.total_faults());
        }
        let node_faults: u64 = heat.nodes().map(|(_, n)| n.faults).sum();
        assert_eq!(node_faults, faults);
    }

    /// A small pool of synthetic events covering every accumulator.
    fn arb_events() -> impl Strategy<Value = Vec<Event>> {
        let ev = (0u32..3, 0u64..512, 0u64..10_000_000, 0u32..8).prop_map(
            |(node, page, at_ns, kind)| {
                let node_id = NodeId::new(node);
                match kind {
                    0 => fault(node, page, FaultClass::Remote, at_ns),
                    1 => fault(node, page, FaultClass::Disk, at_ns),
                    2 => fault(node, page, FaultClass::LazySubpage, at_ns),
                    3 => Event::Arrival {
                        node: node_id,
                        page,
                        msg: 0,
                        at: t(at_ns),
                        subpages: u64::from((page as u32).wrapping_mul(2_654_435_769) & 0xff),
                    },
                    4 => Event::Prefetch {
                        node: node_id,
                        page,
                        subpages: 0b11,
                        sub_bytes: 1024,
                        unused: false,
                        at: t(at_ns),
                    },
                    5 => Event::Prefetch {
                        node: node_id,
                        page,
                        subpages: 0b1,
                        sub_bytes: 1024,
                        unused: true,
                        at: t(at_ns),
                    },
                    6 => Event::ReplicaWrite {
                        node: node_id,
                        holder: NodeId::new(node + 1),
                        page,
                        copy: 1,
                        at: t(at_ns),
                    },
                    _ => Event::Repair {
                        node: node_id,
                        target: NodeId::new(node + 1),
                        page: 1 << 40 | page,
                        at: t(at_ns),
                    },
                }
            },
        );
        prop::collection::vec(ev, 0..80)
    }

    fn fold(events: &[Event]) -> HeatMap {
        let mut heat = HeatMap::new();
        for &e in events {
            heat.record(e);
        }
        heat
    }

    proptest! {
        /// `HeatMap::merge` is commutative and associative, with the
        /// empty map as identity — the laws that make any merge tree
        /// over per-cell partials order-independent.
        #[test]
        fn merge_commutative_associative_identity(
            xs in arb_events(),
            ys in arb_events(),
            zs in arb_events(),
        ) {
            let (a, b, c) = (fold(&xs), fold(&ys), fold(&zs));

            let mut ab = a.clone();
            ab.merge(&b);
            let mut ba = b.clone();
            ba.merge(&a);
            prop_assert_eq!(&ab, &ba);
            prop_assert_eq!(heat_json(&ab), heat_json(&ba));

            let mut ab_c = ab.clone();
            ab_c.merge(&c);
            let mut bc = b.clone();
            bc.merge(&c);
            let mut a_bc = a.clone();
            a_bc.merge(&bc);
            prop_assert_eq!(&ab_c, &a_bc);
            prop_assert_eq!(heat_json(&ab_c), heat_json(&a_bc));

            let mut with_identity = a.clone();
            with_identity.merge(&HeatMap::new());
            prop_assert_eq!(&with_identity, &a);
            let mut identity_with = HeatMap::new();
            identity_with.merge(&a);
            prop_assert_eq!(&identity_with, &a);
        }

        /// First touches and refaults always partition the fault total,
        /// and the JSON document reproduces the accumulator totals.
        #[test]
        fn totals_partition_and_export(xs in arb_events()) {
            let heat = fold(&xs);
            let totals = heat.totals();
            prop_assert_eq!(
                totals.first_touches + totals.refaults,
                totals.total_faults()
            );
            let node_faults: u64 = heat.nodes().map(|(_, n)| n.faults).sum();
            prop_assert_eq!(node_faults, totals.total_faults());
            let doc = heat_json(&heat);
            let v = JsonValue::parse(&doc).expect("valid JSON");
            prop_assert_eq!(
                v.get("totals")
                    .and_then(|x| x.get("faults"))
                    .and_then(|f| f.get("total"))
                    .and_then(JsonValue::as_u64),
                Some(totals.total_faults())
            );
        }
    }
}
