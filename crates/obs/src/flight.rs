//! The flight recorder: O(worst-K) tail forensics.
//!
//! [`MemoryRecorder`](crate::MemoryRecorder) keeps *every* event — the
//! right tool for offline trace export, but its arena grows with the
//! run (~17k events for the serial workloads) and its overhead prices
//! it out of always-on use. A [`FlightRecorder`] answers the question
//! tail investigations actually ask — "show me the complete event
//! chains of the *worst* faults" — while retaining only those chains:
//!
//! * Every fault's events are staged in one reusable buffer between
//!   its `Fault` and matching `Restart` (the engine maintains a single
//!   open fault window at a time — the same invariant the attribution
//!   walk checks — so one buffer suffices). The `Fault` and `Restart`
//!   themselves are rebuilt only for a retained chain, and once the
//!   engine knows a window's wait, a window the reservoir would drop
//!   declines its last occupancies ([`Recorder::wants_window`]).
//! * At restart the chain becomes a *candidate*: each node keeps the
//!   `keep` highest-wait chains per time window (a reservoir keyed by
//!   page wait; no window configured means one window spanning the
//!   run). A candidate replaces the current minimum only when its wait
//!   is *strictly* greater, and ties keep the incumbent, so the
//!   retained set is a pure function of the event stream, which the
//!   cluster simulator feeds in canonical commit order, so a rerun
//!   retains the same exemplars.
//! * Follow-on `Arrival` and `Stall` events attach to the retained
//!   chain of the last fault on their `(node, page)` — mirroring how
//!   [`attribute`](crate::attribute) targets stalls — so
//!   [`FlightRecorder::exemplar_events`] replays through `attribute`
//!   with every per-fault conservation check intact. Stalls also bump
//!   the chain's recorded wait. (A chain evicted *before* a late stall
//!   lands stays evicted: the reservoir ranks by wait-at-restart plus
//!   whatever stalls arrive while the chain is still a candidate — a
//!   deterministic approximation documented here rather than hidden.)
//! * Independently of retention, the recorder tallies *every* fault
//!   into per-node, per-window SLO accounts (fault count, violation
//!   count against a configured threshold, total wait), so attainment
//!   reporting does not depend on which chains survived.
//!
//! Dropped candidates recycle their event buffers through a free pool,
//! so steady-state recording allocates only when a chain is retained.

use gms_units::{Duration, FastMap, NodeId, SimTime};

use crate::event::{Event, FaultClass};
use crate::recorder::Recorder;

/// Probed on every arrival and stall — the hot path of an always-on
/// recorder — so keyed through the workspace's fast hasher.
type OwnerMap = FastMap<(u32, u64), Owner>;

/// Per-node, per-window SLO accounting over *all* faults (not just the
/// retained exemplars).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WindowTally {
    /// The window index (`fault time / window length`; 0 when no
    /// window is configured).
    pub window: u64,
    /// Faults whose window this is.
    pub faults: u64,
    /// Faults whose final wait (restart wait plus later stalls)
    /// exceeded the configured SLO threshold. Zero when no threshold
    /// is configured.
    pub violations: u64,
    /// Total wait of the window's faults.
    pub wait: Duration,
}

/// One retained worst-fault exemplar: identity, final wait, and the
/// complete event chain (fault window, then follow-on arrivals and
/// stalls), borrowable for attribution or export.
#[derive(Debug, Clone, Copy)]
pub struct Exemplar<'a> {
    /// The faulting node.
    pub node: NodeId,
    /// The faulted page (node-local id).
    pub page: u64,
    /// The faulted subpage.
    pub subpage: u8,
    /// What serviced the fault.
    pub class: FaultClass,
    /// References executed when the fault occurred.
    pub at_ref: u64,
    /// The faulting node's clock at the fault.
    pub fault_at: SimTime,
    /// The fault's window index.
    pub window: u64,
    /// Final wait: restart wait plus stalls that reached the chain.
    pub wait: Duration,
    /// The chain's events, in recording order.
    pub events: &'a [Event],
}

/// A retained (or evicted) chain in the slab.
#[derive(Debug, Clone)]
struct Chain {
    node: NodeId,
    page: u64,
    subpage: u8,
    class: FaultClass,
    at_ref: u64,
    fault_at: SimTime,
    window: u64,
    start_seq: u64,
    wait: Duration,
    arrivals: u32,
    alive: bool,
    events: Vec<Event>,
}

/// The fault currently being staged (its `Restart` not yet seen).
#[derive(Debug, Clone, Copy)]
struct CurMeta {
    node: NodeId,
    page: u64,
    subpage: u8,
    class: FaultClass,
    at_ref: u64,
    at: SimTime,
}

/// The last closed fault on a `(node, page)`: the target for follow-on
/// arrivals and stalls. `window` and `wait` let a late stall adjust the
/// fault's already-folded SLO account in place (wait tally, and the
/// violation count when the stall pushes the wait across the
/// threshold); `chain` is its slab index if it was retained.
#[derive(Debug, Clone, Copy)]
struct Owner {
    window: u64,
    wait: Duration,
    chain: Option<u32>,
}

#[derive(Debug, Clone, Default)]
struct NodeState {
    /// Window the reservoir slots belong to.
    slots_window: u64,
    /// Chain-slab indices of the current window's retained chains.
    slots: Vec<usize>,
    /// Cached weakest incumbent of a full reservoir:
    /// `(wait, start_seq, slot position)`, minimal by `(wait, seq)`.
    /// Invalidated (`None`) whenever the slots or a retained chain's
    /// wait change; recomputed lazily at the next close. The cache
    /// turns the common dropped-candidate close into a single compare
    /// instead of a K-way scan.
    weakest: Option<(Duration, u64, usize)>,
    /// One bit per `page % 64` over every page this node ever retained
    /// a chain for (never cleared within a run: evictions would need a
    /// rebuild across windows, and a stale bit only costs a map probe).
    /// Arrivals test it to skip the owner-map probe when no retained
    /// chain can possibly match.
    page_bloom: u64,
    /// Closed per-window tallies, ascending by window.
    tallies: Vec<WindowTally>,
}

/// The bloom bit for a page id (pages cluster in low bits; fold some
/// high bits in so runs of consecutive pages spread across the word).
#[inline]
fn bloom_bit(page: u64) -> u64 {
    1 << ((page ^ (page >> 6)) & 63)
}

/// A bounded [`Recorder`] retaining complete event chains only for the
/// worst-K faults per node per window, plus SLO tallies over all
/// faults. See the module docs for the retention contract.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    keep: usize,
    window_ns: Option<u64>,
    slo: Option<Duration>,
    seq: u64,
    cur: Option<CurMeta>,
    cur_events: Vec<Event>,
    chains: Vec<Chain>,
    free_events: Vec<Vec<Event>>,
    nodes: Vec<NodeState>,
    owner: OwnerMap,
    total_faults: u64,
    total_wait: Duration,
    dropped: u64,
    sealed: bool,
}

impl FlightRecorder {
    /// A recorder keeping the `keep` worst chains per node per window
    /// (`keep` is clamped to at least 1). No window and no SLO
    /// threshold are configured by default.
    #[must_use]
    pub fn new(keep: usize) -> Self {
        Self {
            keep: keep.max(1),
            window_ns: None,
            slo: None,
            seq: 0,
            cur: None,
            cur_events: Vec::new(),
            chains: Vec::new(),
            free_events: Vec::new(),
            nodes: Vec::new(),
            owner: OwnerMap::default(),
            total_faults: 0,
            total_wait: Duration::ZERO,
            dropped: 0,
            sealed: false,
        }
    }

    /// Partition the run into fixed windows of `window` sim-time; the
    /// reservoir and the SLO tallies are kept per window.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    #[must_use]
    pub fn with_window(mut self, window: Duration) -> Self {
        assert!(window > Duration::ZERO, "flight window must be non-zero");
        self.window_ns = Some(window.as_nanos());
        self
    }

    /// Count faults whose final wait exceeds `slo` as violations in
    /// the per-window tallies.
    #[must_use]
    pub fn with_slo(mut self, slo: Duration) -> Self {
        self.slo = Some(slo);
        self
    }

    /// The per-node, per-window retention bound K.
    #[must_use]
    pub fn keep(&self) -> usize {
        self.keep
    }

    /// The configured SLO threshold, if any.
    #[must_use]
    pub fn slo(&self) -> Option<Duration> {
        self.slo
    }

    /// The configured window length, if any.
    #[must_use]
    pub fn window(&self) -> Option<Duration> {
        self.window_ns.map(Duration::from_nanos)
    }

    /// Window index of a fault time.
    fn window_of(&self, at: SimTime) -> u64 {
        self.window_ns.map_or(0, |w| at.as_nanos() / w)
    }

    fn node_state(&mut self, node: u32) -> &mut NodeState {
        let n = node as usize;
        if self.nodes.len() <= n {
            self.nodes.resize_with(n + 1, NodeState::default);
        }
        &mut self.nodes[n]
    }

    /// The tally slot for `(node, window)`. Tallies are pushed in
    /// ascending window order (node clocks are monotone), so the latest
    /// is checked first; the binary search handles late finalizations
    /// landing in older windows.
    fn tally_mut(&mut self, node: u32, window: u64) -> &mut WindowTally {
        let ns = self.node_state(node);
        let pos = match ns.tallies.last() {
            Some(last) if last.window == window => ns.tallies.len() - 1,
            _ => match ns.tallies.binary_search_by_key(&window, |t| t.window) {
                Ok(pos) => pos,
                Err(pos) => {
                    ns.tallies.insert(
                        pos,
                        WindowTally {
                            window,
                            ..WindowTally::default()
                        },
                    );
                    pos
                }
            },
        };
        &mut ns.tallies[pos]
    }

    /// A fresh (cleared) event buffer, reusing the free pool.
    fn fresh_buffer(&mut self) -> Vec<Event> {
        self.free_events.pop().map_or_else(Vec::new, |mut v| {
            v.clear();
            v
        })
    }

    /// The weakest incumbent of `ns`'s full reservoir as `(wait,
    /// start_seq, slot position)`: smallest wait, oldest first. Served
    /// from the cache when nothing invalidated it.
    fn weakest(&self, ns: &NodeState) -> (Duration, u64, usize) {
        ns.weakest.unwrap_or_else(|| {
            ns.slots
                .iter()
                .enumerate()
                .map(|(pos, &ci)| (self.chains[ci].wait, self.chains[ci].start_seq, pos))
                .min()
                .expect("full reservoir has a minimum")
        })
    }

    /// Whether a chain of final `wait` closing on `node` in window `w`
    /// enters the reservoir: into a free slot, or displacing the
    /// weakest incumbent when strictly worse (ties keep the
    /// incumbent).
    fn admits(&self, node: u32, w: u64, wait: Duration) -> bool {
        let Some(ns) = self.nodes.get(node as usize) else {
            return true;
        };
        ns.slots_window != w || ns.slots.len() < self.keep || self.weakest(ns).0 < wait
    }

    /// Close the staged fault at its restart.
    fn close(&mut self, restart_at: SimTime, restart_wait: Duration) {
        let m = self.cur.take().expect("close without an open fault");
        self.seq += 1;
        let seq = self.seq;
        self.total_faults += 1;
        // Fold the fault into the SLO accounts now; a later stall
        // adjusts the account through the owner entry rather than
        // deferring the whole fold to displacement or seal.
        self.total_wait += restart_wait;
        let node = m.node.index();
        let w = self.window_of(m.at);
        let over = self.slo.is_some_and(|slo| restart_wait > slo);
        let tally = self.tally_mut(node, w);
        tally.faults += 1;
        tally.wait += restart_wait;
        if over {
            tally.violations += 1;
        }

        // Reservoir decision: is this chain one of the window's worst?
        let ns = self.node_state(node);
        if ns.slots_window != w {
            ns.slots.clear();
            ns.weakest = None;
            ns.slots_window = w;
        }
        let full = ns.slots.len() >= self.keep;
        if full && self.nodes[node as usize].weakest.is_none() {
            let weakest = self.weakest(&self.nodes[node as usize]);
            self.nodes[node as usize].weakest = Some(weakest);
        }
        if !self.admits(node, w, restart_wait) {
            self.dropped += 1;
            self.cur_events.clear();
            self.owner.insert(
                (node, m.page),
                Owner {
                    window: w,
                    wait: restart_wait,
                    chain: None,
                },
            );
            return;
        }
        let evict = full.then(|| {
            let ns = &self.nodes[node as usize];
            let (_, _, pos) = ns.weakest.expect("cached above");
            (pos, ns.slots[pos])
        });

        // The chain: the fault, its staged window, the restart.
        let mut events = self.fresh_buffer();
        events.push(Event::Fault {
            node: m.node,
            page: m.page,
            subpage: m.subpage,
            class: m.class,
            at_ref: m.at_ref,
            at: m.at,
        });
        events.append(&mut self.cur_events);
        events.push(Event::Restart {
            node: m.node,
            page: m.page,
            at: restart_at,
            wait: restart_wait,
        });
        let idx = self.chains.len();
        self.chains.push(Chain {
            node: m.node,
            page: m.page,
            subpage: m.subpage,
            class: m.class,
            at_ref: m.at_ref,
            fault_at: m.at,
            window: w,
            start_seq: seq,
            wait: restart_wait,
            arrivals: 0,
            alive: true,
            events,
        });
        match evict {
            Some((pos, old)) => {
                self.chains[old].alive = false;
                let recycled = std::mem::take(&mut self.chains[old].events);
                self.free_events.push(recycled);
                self.nodes[node as usize].slots[pos] = idx;
            }
            None => self.nodes[node as usize].slots.push(idx),
        }
        let ns = &mut self.nodes[node as usize];
        ns.weakest = None;
        ns.page_bloom |= bloom_bit(m.page);
        self.owner.insert(
            (node, m.page),
            Owner {
                window: w,
                wait: restart_wait,
                chain: Some(u32::try_from(idx).expect("chain count fits u32")),
            },
        );
    }

    /// Mark recording done, allowing tallies and run totals to be read;
    /// recording after sealing is a logic error. Idempotent. (The SLO
    /// accounts are maintained incrementally — at fault close, adjusted
    /// by stalls — so sealing only closes the stream: it discards a
    /// fault left open mid-window, whose chain never became a
    /// candidate.)
    pub fn seal(&mut self) {
        if self.sealed {
            return;
        }
        self.sealed = true;
        self.cur = None;
        self.cur_events.clear();
    }

    /// Faults observed, retained or not.
    #[must_use]
    pub fn total_faults(&self) -> u64 {
        self.total_faults
    }

    /// Sum of every fault's final wait (restart wait plus stalls) —
    /// equals the engine's `sp_latency + page_wait` for the recorded
    /// run, which the explain path cross-checks. Requires [`seal`].
    ///
    /// # Panics
    ///
    /// Panics if the recorder is not sealed.
    ///
    /// [`seal`]: FlightRecorder::seal
    #[must_use]
    pub fn total_wait(&self) -> Duration {
        assert!(
            self.sealed,
            "seal() the flight recorder before reading totals"
        );
        self.total_wait
    }

    /// Candidates dropped by the reservoir (their events discarded).
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Number of retained chains.
    #[must_use]
    pub fn retained(&self) -> usize {
        self.chains.iter().filter(|c| c.alive).count()
    }

    /// Total events held by retained chains — the O(K) bound the
    /// recorder exists for.
    #[must_use]
    pub fn retained_events(&self) -> usize {
        self.chains
            .iter()
            .filter(|c| c.alive)
            .map(|c| c.events.len())
            .sum()
    }

    /// The retained exemplars, worst first (wait descending, then
    /// fault order), across all nodes and windows.
    #[must_use]
    pub fn exemplars(&self) -> Vec<Exemplar<'_>> {
        let mut alive: Vec<&Chain> = self.chains.iter().filter(|c| c.alive).collect();
        alive.sort_by_key(|c| (std::cmp::Reverse(c.wait), c.start_seq));
        alive
            .into_iter()
            .map(|c| Exemplar {
                node: c.node,
                page: c.page,
                subpage: c.subpage,
                class: c.class,
                at_ref: c.at_ref,
                fault_at: c.fault_at,
                window: c.window,
                wait: c.wait,
                events: &c.events,
            })
            .collect()
    }

    /// The retained chains flattened into one event stream, chains in
    /// fault order, each chain a contiguous block (fault window, then
    /// its arrivals and stalls). The stream is a valid
    /// [`attribute`](crate::attribute) input: per-fault decompositions
    /// and conservation checks hold exactly as they do on the full
    /// stream — only run-total conservation (which needs *every*
    /// fault) does not apply to the subset.
    #[must_use]
    pub fn exemplar_events(&self) -> Vec<Event> {
        let mut alive: Vec<&Chain> = self.chains.iter().filter(|c| c.alive).collect();
        alive.sort_by_key(|c| c.start_seq);
        let mut out = Vec::with_capacity(alive.iter().map(|c| c.events.len()).sum());
        for c in alive {
            out.extend_from_slice(&c.events);
        }
        out
    }

    /// Per-node SLO tallies, ascending by window, skipping nodes that
    /// never faulted. Requires [`seal`].
    ///
    /// # Panics
    ///
    /// Panics if the recorder is not sealed.
    ///
    /// [`seal`]: FlightRecorder::seal
    pub fn windows(&self) -> impl Iterator<Item = (NodeId, &[WindowTally])> + '_ {
        assert!(
            self.sealed,
            "seal() the flight recorder before reading tallies"
        );
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, ns)| !ns.tallies.is_empty())
            .map(|(n, ns)| (NodeId::new(n as u32), ns.tallies.as_slice()))
    }

    /// Forget everything but keep the allocated buffers (chains slab,
    /// free pool), so a recorder reused across runs reaches a steady
    /// state where only chain retention allocates.
    pub fn clear(&mut self) {
        self.seq = 0;
        self.cur = None;
        self.cur_events.clear();
        for chain in &mut self.chains {
            if chain.alive {
                let mut events = std::mem::take(&mut chain.events);
                events.clear();
                self.free_events.push(events);
            }
        }
        self.chains.clear();
        self.nodes.clear();
        self.owner.clear();
        self.total_faults = 0;
        self.total_wait = Duration::ZERO;
        self.dropped = 0;
        self.sealed = false;
    }
}

impl FlightRecorder {
    /// `Fault`: open a staging window. A still-open chain here would
    /// mean a malformed stream; restart staging rather than corrupting
    /// it. Outlined: per fault, not per event — keeping these handlers
    /// out of [`Recorder::record`] lets the dispatcher inline into
    /// every engine call site, where the variant match folds away; they
    /// take destructured scalars (register arguments) rather than a
    /// by-value [`Event`] so the call does not copy 56 bytes per
    /// lifecycle event.
    #[inline(never)]
    fn on_fault(&mut self, m: CurMeta) {
        self.cur_events.clear();
        self.cur = Some(m);
    }

    /// `Restart`: close the staging window into a reservoir candidate.
    #[inline(never)]
    fn on_restart(&mut self, node: NodeId, page: u64, at: SimTime, wait: Duration) {
        if self.cur.is_some_and(|m| m.node == node && m.page == page) {
            self.close(at, wait);
        }
    }

    /// `Arrival`: attach to the retained chain of the last fault on
    /// this `(node, page)`, if it survived. The dispatcher's bloom gate
    /// has already ruled out nodes with no retained chain for the page.
    #[inline(never)]
    fn on_arrival(&mut self, node: NodeId, page: u64, msg: u8, at: SimTime, subpages: u64) {
        if let Some(o) = self.owner.get(&(node.index(), page)) {
            if let Some(ci) = o.chain {
                let c = &mut self.chains[ci as usize];
                if c.alive {
                    c.events.push(Event::Arrival {
                        node,
                        page,
                        msg,
                        at,
                        subpages,
                    });
                    c.arrivals += 1;
                }
            }
        }
    }

    /// `Stall`: bump the owning fault's final wait (SLO accounting over
    /// all faults), and the retained chain's, if any.
    #[inline(never)]
    fn on_stall(&mut self, node: NodeId, page: u64, start: SimTime, end: SimTime) {
        let d = end.elapsed_since(start);
        let Some(o) = self.owner.get_mut(&(node.index(), page)) else {
            return;
        };
        let was = o.wait;
        o.wait += d;
        let (owner_node, window, chain) = (node.index(), o.window, o.chain);
        // Adjust the owning fault's already-folded SLO account: the
        // stall extends its wait, and counts as a (new) violation only
        // when it pushes the wait across the threshold.
        self.total_wait += d;
        let crossed = self.slo.is_some_and(|slo| was <= slo && was + d > slo);
        let tally = self.tally_mut(owner_node, window);
        tally.wait += d;
        if crossed {
            tally.violations += 1;
        }
        if let Some(ci) = chain {
            let c = &mut self.chains[ci as usize];
            // Only chains that emitted arrivals can anchor a stall
            // in the attribution walk.
            if c.alive && c.arrivals > 0 {
                c.events.push(Event::Stall {
                    node,
                    page,
                    start,
                    end,
                });
                c.wait += d;
                // The retained chain's wait grew, so the cached
                // weakest slot of its node may be stale.
                self.nodes[owner_node as usize].weakest = None;
            }
        }
    }
}

impl Recorder for FlightRecorder {
    const ENABLED: bool = true;

    // The dispatcher must stay small enough to inline into every
    // monomorphized engine call site: there the event variant is a
    // compile-time constant, so the match folds to the one relevant
    // arm and the dominant case — an in-window event staged, or a
    // background event discarded — costs a flag test and a push
    // instead of an outlined call moving the event by value.
    #[inline(always)]
    fn record(&mut self, event: Event) {
        match event {
            Event::Fault {
                node,
                page,
                subpage,
                class,
                at_ref,
                at,
            } => self.on_fault(CurMeta {
                node,
                page,
                subpage,
                class,
                at_ref,
                at,
            }),
            Event::Restart {
                node,
                page,
                at,
                wait,
            } => self.on_restart(node, page, at, wait),
            Event::Arrival {
                node,
                page,
                msg,
                at,
                subpages,
            } => {
                // Arrivals only ever attach to a retained chain; the
                // bloom rules most of them out with two loads, without
                // even paying the outlined call.
                match self.nodes.get(node.index() as usize) {
                    Some(ns) if ns.page_bloom & bloom_bit(page) != 0 => {
                        self.on_arrival(node, page, msg, at, subpages);
                    }
                    _ => {}
                }
            }
            Event::Stall {
                node,
                page,
                start,
                end,
            } => self.on_stall(node, page, start, end),
            // Everything else (occupancies, getpage, reliability
            // markers, …) belongs to the open fault window, if any;
            // outside a window it is background work the flight
            // recorder does not retain.
            _ => {
                if self.cur.is_some() {
                    self.cur_events.push(event);
                }
            }
        }
    }

    /// Occupancy bursts are the catch-all arm in bulk: staged wholesale
    /// into the open window, discarded without one. The single `extend`
    /// reserves once for the whole batch instead of paying a capacity
    /// check per event.
    #[inline]
    fn record_batch(&mut self, events: impl Iterator<Item = Event> + Clone) {
        if self.cur.is_some() {
            self.cur_events.extend(events);
        }
    }

    /// Background events are exactly what the catch-all arm above
    /// discards between fault windows, so the engine may skip building
    /// them entirely while no window is open.
    #[inline]
    fn wants_background(&self) -> bool {
        self.cur.is_some()
    }

    /// A window whose wait cannot enter its node's reservoir is
    /// dropped at the restart, background events and all, so its last
    /// occupancies need not be built.
    #[inline]
    fn wants_window(&self, wait: Duration) -> bool {
        self.cur
            .is_some_and(|m| self.admits(m.node.index(), self.window_of(m.at), wait))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attribute;
    use crate::event::ResourceKind;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    /// A minimal remote-fetch chain on `node` for `page`: fault at
    /// `start`, one CPU occupancy covering the window, restart after
    /// `wait_ns`.
    fn fetch(node: u32, page: u64, start: u64, wait_ns: u64) -> Vec<Event> {
        let node = NodeId::new(node);
        vec![
            Event::Fault {
                node,
                page,
                subpage: 0,
                class: FaultClass::Remote,
                at_ref: page,
                at: t(start),
            },
            Event::Occupancy {
                node,
                resource: ResourceKind::Cpu,
                what: "fault+request",
                ready: t(start),
                start: t(start),
                end: t(start + wait_ns),
            },
            Event::Restart {
                node,
                page,
                at: t(start + wait_ns),
                wait: Duration::from_nanos(wait_ns),
            },
        ]
    }

    fn feed(rec: &mut FlightRecorder, events: impl IntoIterator<Item = Event>) {
        for e in events {
            rec.record(e);
        }
    }

    #[test]
    fn retains_worst_k_per_node() {
        let mut rec = FlightRecorder::new(2);
        let waits = [500u64, 9_000, 100, 4_000, 7_000];
        let mut clock = 0;
        for (i, &w) in waits.iter().enumerate() {
            feed(&mut rec, fetch(0, i as u64, clock, w));
            clock += w + 10;
        }
        rec.seal();
        assert_eq!(rec.total_faults(), 5);
        assert_eq!(rec.retained(), 2);
        // 100 was dropped at close; 500 and 4000 were retained then
        // evicted by better candidates (not counted as drops).
        assert_eq!(rec.dropped(), 1);
        let ex = rec.exemplars();
        let waits: Vec<u64> = ex.iter().map(|e| e.wait.as_nanos()).collect();
        assert_eq!(waits, [9_000, 7_000], "worst first");
        assert_eq!(
            rec.total_wait(),
            Duration::from_nanos(500 + 9_000 + 100 + 4_000 + 7_000)
        );
    }

    #[test]
    fn strict_improvement_keeps_incumbent_on_ties() {
        let mut rec = FlightRecorder::new(1);
        feed(&mut rec, fetch(0, 1, 0, 1_000));
        feed(&mut rec, fetch(0, 2, 2_000, 1_000));
        rec.seal();
        let ex = rec.exemplars();
        assert_eq!(ex.len(), 1);
        assert_eq!(ex[0].page, 1, "tie keeps the earlier incumbent");
    }

    /// Before a window's restart, `wants_window` answers exactly what
    /// the reservoir will do with it: a declined window is one the
    /// close drops, so skipping its occupancies loses nothing.
    #[test]
    fn wants_window_predicts_the_close() {
        let mut rec = FlightRecorder::new(2).with_window(Duration::from_nanos(100_000));
        let mut clock = 0;
        // Per node (even and odd faults): free slots, a tie and a
        // weaker wait (dropped), a stronger one (evicts), and a fresh
        // window for the last two.
        let waits = [
            4_000u64, 900, 7_000, 4_000, 4_000, 300, 5_000, 50, 9_000, 60,
        ];
        for (i, &w) in waits.iter().enumerate() {
            if i == 8 {
                clock = 100_000;
            }
            let chain = fetch(i as u32 % 2, i as u64, clock, w);
            let (open, restart) = chain.split_at(chain.len() - 1);
            feed(&mut rec, open.iter().copied());
            let wanted = rec.wants_window(Duration::from_nanos(w));
            let before = rec.dropped();
            feed(&mut rec, restart.iter().copied());
            assert_eq!(wanted, rec.dropped() == before, "fault {i}, wait {w}");
            clock += w + 10;
        }
        assert!(
            !rec.wants_window(Duration::from_nanos(u64::MAX)),
            "no open window"
        );
    }

    #[test]
    fn windows_partition_the_reservoir() {
        let mut rec = FlightRecorder::new(1).with_window(Duration::from_nanos(10_000));
        feed(&mut rec, fetch(0, 1, 0, 900)); // window 0
        feed(&mut rec, fetch(0, 2, 1_000, 400)); // window 0, weaker: dropped
        feed(&mut rec, fetch(0, 3, 12_000, 200)); // window 1
        rec.seal();
        let pages: Vec<u64> = rec.exemplars().iter().map(|e| e.page).collect();
        assert_eq!(rec.retained(), 2);
        assert!(pages.contains(&1) && pages.contains(&3), "{pages:?}");
    }

    #[test]
    fn per_node_reservoirs_are_independent() {
        let mut rec = FlightRecorder::new(1);
        feed(&mut rec, fetch(0, 1, 0, 5_000));
        feed(&mut rec, fetch(1, 1, 100, 50));
        feed(&mut rec, fetch(1, 2, 6_000, 80));
        rec.seal();
        let ex = rec.exemplars();
        assert_eq!(ex.len(), 2);
        assert_eq!((ex[0].node.index(), ex[0].page), (0, 1));
        assert_eq!((ex[1].node.index(), ex[1].page), (1, 2));
    }

    #[test]
    fn exemplar_stream_replays_through_attribute() {
        let mut rec = FlightRecorder::new(2);
        let mut clock = 0;
        for (page, wait) in [(1u64, 3_000u64), (2, 8_000), (3, 500), (4, 6_000)] {
            feed(&mut rec, fetch(0, page, clock, wait));
            clock += wait + 100;
        }
        rec.seal();
        let stream = rec.exemplar_events();
        let report = attribute(&stream).expect("exemplar stream is attributable");
        assert_eq!(report.faults.len(), 2);
        let mut waits: Vec<u64> = report
            .faults
            .iter()
            .map(|f| f.total_wait().as_nanos())
            .collect();
        waits.sort_unstable();
        assert_eq!(waits, [6_000, 8_000]);
        report.check_conserved().expect("per-fault conservation");
    }

    #[test]
    fn arrivals_and_stalls_attach_to_their_chain() {
        let node = NodeId::new(0);
        let mut rec = FlightRecorder::new(1);
        feed(&mut rec, fetch(0, 7, 0, 1_000));
        rec.record(Event::Arrival {
            node,
            page: 7,
            msg: 0,
            at: t(1_500),
            subpages: 0b10,
        });
        rec.record(Event::Stall {
            node,
            page: 7,
            start: t(1_200),
            end: t(1_500),
        });
        rec.seal();
        let ex = rec.exemplars();
        assert_eq!(ex.len(), 1);
        assert_eq!(ex[0].wait, Duration::from_nanos(1_300), "restart + stall");
        assert_eq!(ex[0].events.len(), 5);
        let report = attribute(&rec.exemplar_events()).expect("attributable");
        assert_eq!(report.faults.len(), 1);
        assert_eq!(report.faults[0].total_wait(), Duration::from_nanos(1_300));
        assert_eq!(rec.total_wait(), Duration::from_nanos(1_300));
    }

    #[test]
    fn slo_tallies_cover_all_faults() {
        let mut rec = FlightRecorder::new(1)
            .with_slo(Duration::from_nanos(1_000))
            .with_window(Duration::from_nanos(100_000));
        feed(&mut rec, fetch(0, 1, 0, 500));
        feed(&mut rec, fetch(0, 2, 1_000, 2_000)); // violation
        feed(&mut rec, fetch(0, 3, 5_000, 3_000)); // violation
        feed(&mut rec, fetch(0, 4, 150_000, 800)); // window 1, attained
        rec.seal();
        let tallies: Vec<(NodeId, &[WindowTally])> = rec.windows().collect();
        assert_eq!(tallies.len(), 1);
        let (node, windows) = tallies[0];
        assert_eq!(node.index(), 0);
        assert_eq!(windows.len(), 2);
        assert_eq!((windows[0].faults, windows[0].violations), (3, 2));
        assert_eq!((windows[1].faults, windows[1].violations), (1, 0));
        assert_eq!(windows[0].wait, Duration::from_nanos(500 + 2_000 + 3_000));
    }

    #[test]
    fn memory_stays_bounded_by_k() {
        let mut rec = FlightRecorder::new(3);
        let mut clock = 0;
        for i in 0..500u64 {
            // Monotonically-increasing waits: every fault evicts.
            feed(&mut rec, fetch(0, i, clock, 100 + i));
            clock += 1_000 + i;
        }
        rec.seal();
        assert_eq!(rec.retained(), 3);
        assert_eq!(rec.retained_events(), 9, "3 chains x 3 events");
        let waits: Vec<u64> = rec.exemplars().iter().map(|e| e.wait.as_nanos()).collect();
        assert_eq!(waits, [599, 598, 597]);
        assert_eq!(rec.dropped(), 0, "every candidate was retained once");
    }

    #[test]
    fn clear_resets_for_reuse() {
        let mut rec = FlightRecorder::new(2).with_slo(Duration::from_nanos(1));
        feed(&mut rec, fetch(0, 1, 0, 5_000));
        rec.seal();
        assert_eq!(rec.retained(), 1);
        rec.clear();
        assert_eq!(rec.total_faults(), 0);
        assert_eq!(rec.retained(), 0);
        feed(&mut rec, fetch(0, 2, 0, 700));
        rec.seal();
        assert_eq!(rec.total_faults(), 1);
        assert_eq!(rec.exemplars()[0].page, 2);
        assert_eq!(rec.total_wait(), Duration::from_nanos(700));
    }
}
