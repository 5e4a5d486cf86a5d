//! The GMS facade: the operations the paging engine drives.

use std::collections::VecDeque;

use gms_mem::PageId;
use gms_units::NodeId;

use crate::proto::{Reply, Request, TrafficLog};
use crate::{Directory, EpochManager, Node};

/// Result of a getpage: where the page came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GetPageOutcome {
    /// The page was in some node's global cache and has been transferred
    /// (and, GMS-style, *moved*: the global copy is consumed).
    RemoteHit {
        /// The node that served the page.
        server: NodeId,
    },
    /// No global copy exists; the requester must read from disk.
    Miss,
}

/// Result of a putpage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PutPageOutcome {
    /// The node that now caches the page.
    pub stored_at: NodeId,
    /// A page the target had to push out of the network to make room
    /// (it would be written to disk in the real system). Only set when
    /// the displaced copy was the page's *last* — losing a standby
    /// replica does not cost a disk write.
    pub displaced: Option<PageId>,
}

/// How many copies of each page the cluster keeps, and how fast it
/// restores them after a crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicationConfig {
    /// Copies per page (K). 1 means no replication — the behaviour the
    /// paper describes, and the byte-stable default.
    pub replicas: u32,
    /// Repair bandwidth budget in bytes per second: background
    /// re-replication after a crash is paced so it never exceeds this
    /// rate, competing honestly with foreground faults for the wire.
    pub repair_rate: u64,
}

impl Default for ReplicationConfig {
    fn default() -> Self {
        ReplicationConfig {
            replicas: 1,
            repair_rate: 20_000_000,
        }
    }
}

/// What one node crash destroyed and queued.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CrashReport {
    /// Pages whose last live copy was on the crashed node.
    pub pages_lost: u64,
    /// Page copies the crashed node held (lost + surviving elsewhere).
    pub copies_dropped: u64,
    /// Pages left under-replicated but alive, queued for repair.
    pub pages_queued_for_repair: u64,
    /// Directory entries reconstructed from surviving replica
    /// announcements after the crashed node's shard was dropped.
    pub directory_entries_rebuilt: u64,
}

/// One unit of background repair work: copy `page` from `source` to
/// `target`. The engine charges the transfer to the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RepairAction {
    /// The under-replicated page.
    pub page: PageId,
    /// The surviving holder serving the copy.
    pub source: NodeId,
    /// The node that now holds the new copy.
    pub target: NodeId,
}

/// Aggregate statistics of a GMS instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GmsStats {
    /// Protocol traffic counts.
    pub traffic: TrafficLog,
    /// getpages served from global memory.
    pub remote_hits: u64,
    /// getpages that fell through to disk.
    pub misses: u64,
    /// Pages pushed out of the network entirely (global caches full).
    pub displaced_to_disk: u64,
    /// getpages resolved by reading from disk instead of global memory:
    /// `PageNotFound` replies plus custodian failovers. The first-class
    /// degraded path — every one of these is a disk fault the network
    /// could not avoid.
    pub fell_back_to_disk: u64,
    /// Global pages lost when their custodian crashed (their directory
    /// entries were dropped; later fetches will miss to disk).
    pub pages_lost_to_crash: u64,
    /// The configured copies-per-page target (K).
    pub replicas: u32,
    /// Standby copies written by replicated putpage.
    pub replica_writes: u64,
    /// Pages restored to full replication by background repair.
    pub pages_re_replicated: u64,
    /// Bytes moved by background repair traffic.
    pub repair_bytes: u64,
    /// Directory shards rebuilt from replica announcements after a
    /// custodian crash.
    pub directory_rebuilds: u64,
    /// Total time at least one page sat below its replication target
    /// (the window of vulnerability), in nanoseconds.
    pub window_of_vulnerability_ns: u64,
}

impl Default for GmsStats {
    fn default() -> Self {
        GmsStats {
            traffic: TrafficLog::default(),
            remote_hits: 0,
            misses: 0,
            displaced_to_disk: 0,
            fell_back_to_disk: 0,
            pages_lost_to_crash: 0,
            replicas: 1,
            replica_writes: 0,
            pages_re_replicated: 0,
            repair_bytes: 0,
            directory_rebuilds: 0,
            window_of_vulnerability_ns: 0,
        }
    }
}

impl GmsStats {
    /// Fraction of getpages served from global memory.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.remote_hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.remote_hits as f64 / total as f64
        }
    }
}

/// A running global memory service over a set of nodes.
///
/// The first `n_active` nodes (node 0 alone, for [`Gms::new`]) are the
/// *active* nodes: their local memories are managed by the caller (the
/// simulator engine), they donate no global frames, and they never
/// receive evictions. The remaining nodes are idle memory servers whose
/// global caches are managed here.
///
/// With [`ReplicationConfig::replicas`] above 1 the service keeps K
/// copies of every global page on distinct nodes: putpage writes K
/// copies (the caller drives the extras through [`Gms::replicate`] so
/// each transfer is charged to the network), getpage consumes all of
/// them (GMS moves pages, it does not share them), a crash only loses a
/// page when it takes the *last* copy, and [`Gms::repair_one`] restores
/// the target copy count as pace-limited background work.
///
/// # Examples
///
/// ```
/// use gms_cluster::{GetPageOutcome, Gms};
/// use gms_mem::PageId;
/// use gms_units::NodeId;
///
/// let mut gms = Gms::new(3, 100);
/// gms.warm_cache((0..10).map(PageId::new));
/// let got = gms.getpage(NodeId::new(0), PageId::new(3));
/// assert!(matches!(got, GetPageOutcome::RemoteHit { .. }));
/// // Moved, not copied: a second fetch of the same page misses.
/// let again = gms.getpage(NodeId::new(0), PageId::new(3));
/// assert_eq!(again, GetPageOutcome::Miss);
/// ```
#[derive(Debug, Clone)]
pub struct Gms {
    nodes: Vec<Node>,
    n_active: u32,
    directory: Directory,
    epochs: EpochManager,
    clock: u64,
    stats: GmsStats,
    replication: ReplicationConfig,
    /// Pages awaiting a repair copy, in the order their holders died.
    repair_queue: VecDeque<PageId>,
    /// When the current window of vulnerability opened, if one is open.
    vuln_open_since: Option<u64>,
}

impl Gms {
    /// Default epoch length (placements between weight recomputations).
    const EPOCH_LEN: u64 = 256;

    /// A cluster of `n_nodes` nodes with one active node (the paper's
    /// configuration): [`Gms::with_active`] at `n_active = 1`.
    ///
    /// # Panics
    ///
    /// Panics if `n_nodes < 2` (a global memory system needs at least one
    /// idle node) or `frames_per_node` is zero.
    #[must_use]
    pub fn new(n_nodes: u32, frames_per_node: u64) -> Self {
        Gms::with_active(n_nodes, 1, frames_per_node)
    }

    /// A cluster of `n_nodes` nodes whose first `n_active` are active
    /// (donating no global frames), with every idle node donating
    /// `frames_per_node` global frames.
    ///
    /// # Panics
    ///
    /// Panics if `n_active` is zero, if no idle node remains
    /// (`n_active >= n_nodes`), or if `frames_per_node` is zero.
    #[must_use]
    pub fn with_active(n_nodes: u32, n_active: u32, frames_per_node: u64) -> Self {
        Gms::with_replication(
            n_nodes,
            n_active,
            frames_per_node,
            ReplicationConfig::default(),
        )
    }

    /// Like [`Gms::with_active`], with an explicit replication target.
    ///
    /// # Panics
    ///
    /// Panics additionally if `replication.replicas` is zero or exceeds
    /// the number of idle nodes (K distinct holders must exist).
    #[must_use]
    pub fn with_replication(
        n_nodes: u32,
        n_active: u32,
        frames_per_node: u64,
        replication: ReplicationConfig,
    ) -> Self {
        assert!(n_active >= 1, "GMS needs at least one active node");
        assert!(n_active < n_nodes, "GMS needs at least one idle node");
        assert!(frames_per_node > 0, "idle nodes must donate frames");
        assert!(
            replication.replicas <= n_nodes - n_active,
            "replication target {} exceeds the {} idle nodes",
            replication.replicas,
            n_nodes - n_active
        );
        let nodes = (0..n_nodes)
            .map(|i| {
                // Active nodes donate no frames; zero capacity keeps them
                // out of every placement decision.
                let capacity = if i < n_active { 0 } else { frames_per_node };
                Node::new(NodeId::new(i), capacity)
            })
            .collect();
        let stats = GmsStats {
            replicas: replication.replicas,
            ..GmsStats::default()
        };
        Gms {
            nodes,
            n_active,
            directory: Directory::with_replicas(n_nodes, replication.replicas),
            epochs: EpochManager::new(Self::EPOCH_LEN),
            clock: 0,
            stats,
            replication,
            repair_queue: VecDeque::new(),
            vuln_open_since: None,
        }
    }

    /// How many leading nodes are active (faulting) rather than idle
    /// memory servers.
    #[must_use]
    pub fn n_active(&self) -> u32 {
        self.n_active
    }

    /// The replication settings this service runs with.
    #[must_use]
    pub fn replication(&self) -> ReplicationConfig {
        self.replication
    }

    /// Pre-loads `pages` into the idle nodes' global caches, round-robin —
    /// the paper's warm-cache setup where "all pages are assumed to
    /// initially reside in remote memory". With replication, each page is
    /// warmed onto K distinct idle nodes.
    ///
    /// # Panics
    ///
    /// Panics if the idle nodes cannot hold all the copies.
    pub fn warm_cache(&mut self, pages: impl IntoIterator<Item = PageId>) {
        let idle: Vec<NodeId> = self.nodes[self.n_active as usize..]
            .iter()
            .map(Node::id)
            .collect();
        let copies = self.replication.replicas as usize;
        let mut next = 0usize;
        for page in pages {
            for copy in 0..copies {
                // Find an idle node with room that does not already hold
                // this page, starting from the round-robin cursor.
                let mut placed = false;
                for probe in 0..idle.len() {
                    let node = idle[(next + probe) % idle.len()];
                    if self.nodes[node.as_usize()].free() > 0
                        && !self.nodes[node.as_usize()].contains(page)
                    {
                        self.clock += 1;
                        let displaced = self.nodes[node.as_usize()].store(page, false, self.clock);
                        debug_assert!(displaced.is_none());
                        if copy == 0 {
                            self.directory.record(page, node);
                        } else {
                            self.directory.add_replica(page, node);
                        }
                        next = (next + probe + 1) % idle.len();
                        placed = true;
                        break;
                    }
                }
                assert!(placed, "global caches too small to warm with {page}");
            }
        }
    }

    /// Handles a remote page fault from `requester`: looks the page up in
    /// the directory and, on a hit, consumes the global copy.
    pub fn getpage(&mut self, requester: NodeId, page: PageId) -> GetPageOutcome {
        match self.locate(page) {
            Some(server) => {
                self.commit_getpage(requester, page, server);
                GetPageOutcome::RemoteHit { server }
            }
            None => {
                self.record_getpage_miss(requester, page);
                GetPageOutcome::Miss
            }
        }
    }

    /// Looks `page` up in the directory without consuming anything — the
    /// non-destructive half of [`Gms::getpage`], for callers that must
    /// first attempt network delivery (which can fail under fault
    /// injection) before committing the transfer. Returns the primary
    /// replica; standbys take over via [`Gms::record_failover`].
    #[must_use]
    pub fn locate(&self, page: PageId) -> Option<NodeId> {
        self.directory.lookup(page)
    }

    /// Commits a located getpage: consumes the global copies (the
    /// primary at `server` plus any standbys — GMS moves pages, so every
    /// replica is spent) and records the hit. The custodian retains the
    /// page until this point, so a failed delivery attempt leaves global
    /// state untouched and the requester can simply retry.
    ///
    /// # Panics
    ///
    /// Panics if the directory does not place `page`'s primary at
    /// `server`.
    pub fn commit_getpage(&mut self, requester: NodeId, page: PageId, server: NodeId) {
        assert_eq!(
            self.directory.lookup(page),
            Some(server),
            "commit for a page the directory does not place at {server}"
        );
        // Empty for the unreplicated case: no allocation.
        let standbys: Vec<NodeId> = self.directory.replicas(page)[1..].to_vec();
        self.nodes[server.as_usize()]
            .take(page)
            .expect("directory says the page is here");
        for holder in standbys {
            self.nodes[holder.as_usize()]
                .take(page)
                .expect("directory says a standby copy is here");
        }
        self.directory.clear(page);
        self.stats.remote_hits += 1;
        let request = Request::GetPage {
            from: requester,
            page,
        };
        self.stats
            .traffic
            .record(&request, &Reply::PageFound { server });
    }

    /// Records a getpage that found no global copy (`PageNotFound`) and
    /// fell back to disk — the miss half of [`Gms::getpage`].
    pub fn record_getpage_miss(&mut self, requester: NodeId, page: PageId) {
        self.stats.misses += 1;
        self.stats.fell_back_to_disk += 1;
        let request = Request::GetPage {
            from: requester,
            page,
        };
        self.stats.traffic.record(&request, &Reply::PageNotFound);
    }

    /// Records a getpage that located a holder but never got the data
    /// (retries exhausted against a dead or lossy link). The unreachable
    /// primary's copy is dropped — a stale entry would send the next
    /// fault into the same black hole — and the next live replica, if
    /// any, is promoted and returned so the caller can retry against it
    /// *before* falling back to disk. Only when no replica remains does
    /// this count as a disk fallback (`None`).
    pub fn record_failover(&mut self, requester: NodeId, page: PageId) -> Option<NodeId> {
        if let Some(server) = self.directory.lookup(page) {
            self.nodes[server.as_usize()].take(page);
            self.directory.remove_replica(page, server);
            if let Some(next) = self.directory.lookup(page) {
                // A standby survives: under-replicated now, but alive.
                self.queue_repair(page);
                return Some(next);
            }
        }
        self.stats.fell_back_to_disk += 1;
        let request = Request::GetPage {
            from: requester,
            page,
        };
        self.stats.traffic.record(&request, &Reply::PageNotFound);
        None
    }

    /// Handles an eviction from `from`: picks a target via the epoch
    /// weights and stores the page there. If the target was full, the
    /// displaced (globally oldest) page leaves the network.
    ///
    /// # Panics
    ///
    /// Panics if no live custodian exists (every idle node crashed) —
    /// use [`Gms::try_putpage`] when that can happen.
    pub fn putpage(&mut self, from: NodeId, page: PageId, dirty: bool) -> PutPageOutcome {
        self.try_putpage(from, page, dirty)
            .expect("no live custodian to store the page")
    }

    /// Like [`Gms::putpage`], but returns `None` when no live custodian
    /// exists: the page leaves the network (it would be written to disk)
    /// and is counted as displaced.
    pub fn try_putpage(
        &mut self,
        from: NodeId,
        page: PageId,
        dirty: bool,
    ) -> Option<PutPageOutcome> {
        if !self
            .nodes
            .iter()
            .any(|n| n.id() != from && n.is_available())
        {
            let request = Request::PutPage { from, page, dirty };
            self.drop_all_copies(page);
            self.stats.displaced_to_disk += 1;
            self.stats.traffic.record(&request, &Reply::Ack);
            return None;
        }
        Some(self.putpage_inner(from, page, dirty))
    }

    fn putpage_inner(&mut self, from: NodeId, page: PageId, dirty: bool) -> PutPageOutcome {
        let request = Request::PutPage { from, page, dirty };
        // A stale global copy (e.g. the owner re-pushed a page it never
        // fetched back) is superseded by this newer one.
        self.drop_all_copies(page);
        let target = self.epochs.pick_target(&self.nodes, from);
        self.clock += 1;
        let displaced = self.nodes[target.as_usize()].store(page, dirty, self.clock);
        let displaced = displaced.and_then(|old| {
            self.directory.remove_replica(old, target);
            if self.directory.replicas(old).is_empty() {
                self.stats.displaced_to_disk += 1;
                Some(old)
            } else {
                // A standby survives; the page is merely under-replicated.
                self.queue_repair(old);
                None
            }
        });
        self.directory.record(page, target);
        self.stats.traffic.record(&request, &Reply::Ack);
        PutPageOutcome {
            stored_at: target,
            displaced,
        }
    }

    /// Writes one standby copy of `page` (already stored by a preceding
    /// putpage) to the next eligible node, walking from the page's
    /// custodian: available, distinct from `from` and every current
    /// holder, and with free room — standby copies never displace.
    /// Returns the holder, or `None` when no node qualifies (the page
    /// stays under-replicated). The caller charges the transfer to the
    /// network, once per copy.
    pub fn replicate(&mut self, from: NodeId, page: PageId, dirty: bool) -> Option<NodeId> {
        debug_assert!(
            !self.directory.replicas(page).is_empty(),
            "replicate called before the primary putpage of {page}"
        );
        let n = self.nodes.len();
        let start = self.directory.custodian(page).as_usize();
        for probe in 0..n {
            let idx = (start + probe) % n;
            let node = self.nodes[idx].id();
            if node == from
                || !self.nodes[idx].is_available()
                || self.nodes[idx].free() == 0
                || self.nodes[idx].contains(page)
            {
                continue;
            }
            self.clock += 1;
            let displaced = self.nodes[idx].store(page, dirty, self.clock);
            debug_assert!(displaced.is_none(), "free room cannot displace");
            self.directory.add_replica(page, node);
            self.stats.replica_writes += 1;
            return Some(node);
        }
        None
    }

    /// Handles a discard: the global copies of `page`, if any, are
    /// dropped without a transfer.
    pub fn discard(&mut self, from: NodeId, page: PageId) {
        let request = Request::Discard { from, page };
        self.drop_all_copies(page);
        self.stats.traffic.record(&request, &Reply::Ack);
    }

    /// Removes every cached copy of `page` and its directory entry.
    fn drop_all_copies(&mut self, page: PageId) {
        // Empty slice -> empty Vec: no allocation when unrecorded, one
        // small allocation only on the rare replicated stale-drop path.
        let holders: Vec<NodeId> = self.directory.replicas(page).to_vec();
        for holder in holders {
            self.nodes[holder.as_usize()].take(page);
        }
        self.directory.clear(page);
    }

    /// Queues `page` for background repair if it is alive but below its
    /// replication target.
    fn queue_repair(&mut self, page: PageId) {
        let held = self.directory.replicas(page).len();
        if held > 0 && held < self.replication.replicas as usize {
            self.repair_queue.push_back(page);
        }
    }

    /// Whether background repair work is queued.
    #[must_use]
    pub fn repair_pending(&self) -> bool {
        !self.repair_queue.is_empty()
    }

    /// Performs one unit of background repair: pops queued pages until
    /// one is still alive and under-replicated, copies it from its first
    /// live holder to the next eligible node, and charges `page_bytes`
    /// to the repair ledger. Pages still below target after the copy
    /// (K ≥ 3) are re-queued. Returns `None` when the queue is drained
    /// or no eligible target node has room — in the latter case the page
    /// stays under-replicated until capacity frees up and a later event
    /// re-queues it.
    pub fn repair_one(&mut self, page_bytes: u64) -> Option<RepairAction> {
        while let Some(page) = self.repair_queue.pop_front() {
            let holders = self.directory.replicas(page);
            if holders.is_empty() || holders.len() >= self.replication.replicas as usize {
                continue; // Stale ticket: consumed, re-pushed, or whole.
            }
            let source = holders[0];
            let n = self.nodes.len();
            let start = self.directory.custodian(page).as_usize();
            let mut target = None;
            for probe in 0..n {
                let idx = (start + probe) % n;
                if self.nodes[idx].is_available()
                    && self.nodes[idx].free() > 0
                    && !self.nodes[idx].contains(page)
                {
                    target = Some(self.nodes[idx].id());
                    break;
                }
            }
            let Some(target) = target else {
                continue;
            };
            let dirty = self.nodes[source.as_usize()]
                .entry(page)
                .is_some_and(|e| e.dirty);
            self.clock += 1;
            let displaced = self.nodes[target.as_usize()].store(page, dirty, self.clock);
            debug_assert!(displaced.is_none(), "free room cannot displace");
            self.directory.add_replica(page, target);
            self.queue_repair(page);
            self.stats.pages_re_replicated += 1;
            self.stats.repair_bytes += page_bytes;
            return Some(RepairAction {
                page,
                source,
                target,
            });
        }
        None
    }

    /// Samples the window-of-vulnerability clock: opens a window when
    /// any page sits below its replication target, closes it (and
    /// accumulates the elapsed time) when none does. The caller samples
    /// this at deterministic points (fault application, run end).
    pub fn account_vulnerability(&mut self, now_ns: u64) {
        let exposed = self.directory.under_replicated() > 0;
        match (self.vuln_open_since, exposed) {
            (None, true) => self.vuln_open_since = Some(now_ns),
            (Some(since), false) => {
                self.stats.window_of_vulnerability_ns += now_ns.saturating_sub(since);
                self.vuln_open_since = None;
            }
            _ => {}
        }
    }

    /// Closes any open window of vulnerability at `now_ns` (end of run),
    /// accumulating its duration without requiring the exposure to have
    /// healed.
    pub fn close_vulnerability(&mut self, now_ns: u64) {
        if let Some(since) = self.vuln_open_since.take() {
            self.stats.window_of_vulnerability_ns += now_ns.saturating_sub(since);
        }
    }

    /// Crashes an idle node: every page copy it cached is dropped, and a
    /// page is *lost* only when that was its last copy (with K = 1,
    /// every copy is a last copy — the pre-replication behaviour).
    /// Surviving under-replicated pages are queued for background
    /// repair, the directory shard the node custodied is rebuilt from
    /// surviving replica announcements, and the node receives no
    /// evictions until [`Gms::recover_node`]. Crashing an already-down
    /// node is a no-op reporting zeroes.
    ///
    /// # Panics
    ///
    /// Panics if `node` is an active node.
    pub fn crash_node(&mut self, node: NodeId) -> CrashReport {
        assert!(node.index() >= self.n_active, "cannot crash an active node");
        if self.nodes[node.as_usize()].is_down() {
            return CrashReport::default();
        }
        let mut pages = self.nodes[node.as_usize()].crash();
        // Crash drain order is hash-map order; sort so the repair queue
        // (and everything downstream of it) is deterministic.
        pages.sort_unstable_by_key(|&(page, _)| page);
        let mut report = CrashReport {
            copies_dropped: pages.len() as u64,
            ..CrashReport::default()
        };
        for (page, _) in pages {
            self.directory.remove_replica(page, node);
            let survivors = self.directory.replicas(page).len();
            if survivors == 0 {
                report.pages_lost += 1;
            } else if survivors < self.replication.replicas as usize {
                self.repair_queue.push_back(page);
                report.pages_queued_for_repair += 1;
            }
        }
        self.stats.pages_lost_to_crash += report.pages_lost;
        report.directory_entries_rebuilt = self.rebuild_directory_shard(node);
        report
    }

    /// Rebuilds the directory shard custodied by `custodian` (which just
    /// crashed, taking the shard with it) from the announcements of
    /// surviving nodes: each live node re-announces `(page, stored_at)`
    /// for every copy it holds whose custodian is the crashed node, and
    /// the shard is reconstructed in store-clock order — byte-identical
    /// to what was lost, minus the crashed node's own copies.
    fn rebuild_directory_shard(&mut self, custodian: NodeId) -> u64 {
        let mut announcements: Vec<(PageId, NodeId, u64)> = Vec::new();
        for node in &self.nodes {
            if node.is_down() {
                continue;
            }
            for (page, entry) in node.iter() {
                if self.directory.custodian(page) == custodian {
                    announcements.push((page, node.id(), entry.stored_at));
                }
            }
        }
        let rebuilt = self.directory.rebuild_shard(custodian, announcements) as u64;
        self.stats.directory_rebuilds += 1;
        rebuilt
    }

    /// Brings a crashed node back, with all its frames free. It attracts
    /// evictions again from the next epoch on.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not down.
    pub fn recover_node(&mut self, node: NodeId) {
        self.nodes[node.as_usize()].recover();
    }

    /// Whether `node` is currently crashed.
    #[must_use]
    pub fn node_is_down(&self, node: NodeId) -> bool {
        self.nodes[node.as_usize()].is_down()
    }

    /// The cluster's nodes.
    #[must_use]
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// The directory (read-only).
    #[must_use]
    pub fn directory(&self) -> &Directory {
        &self.directory
    }

    /// Aggregate statistics.
    #[must_use]
    pub fn stats(&self) -> GmsStats {
        self.stats
    }

    /// Epochs elapsed in the placement manager.
    #[must_use]
    pub fn epochs_completed(&self) -> u64 {
        self.epochs.epochs_completed()
    }

    /// Checks the directory against the nodes: every replica entry must
    /// point at a node actually caching the page, and every cached copy
    /// must have exactly one directory claim. Used by tests and debug
    /// assertions.
    #[must_use]
    pub fn is_consistent(&self) -> bool {
        let dir_ok = self.directory.iter_replicas().all(|(page, holders)| {
            !holders.is_empty()
                && holders
                    .iter()
                    .all(|n| self.nodes[n.as_usize()].contains(page))
        });
        let cached: usize = self.nodes.iter().map(Node::len).sum();
        dir_ok && cached == self.directory.total_replicas()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn warm_gms(nodes: u32, frames: u64, pages: u64) -> Gms {
        let mut gms = Gms::new(nodes, frames);
        gms.warm_cache((0..pages).map(PageId::new));
        gms
    }

    fn warm_replicated(nodes: u32, active: u32, frames: u64, pages: u64, k: u32) -> Gms {
        let mut gms = Gms::with_replication(
            nodes,
            active,
            frames,
            ReplicationConfig {
                replicas: k,
                ..ReplicationConfig::default()
            },
        );
        gms.warm_cache((0..pages).map(PageId::new));
        gms
    }

    #[test]
    fn warm_cache_spreads_round_robin() {
        let gms = warm_gms(4, 100, 90);
        // 90 pages over 3 idle nodes: 30 each.
        for node in &gms.nodes()[1..] {
            assert_eq!(node.len(), 30, "{}", node.id());
        }
        assert!(gms.is_consistent());
    }

    #[test]
    fn getpage_moves_the_page() {
        let mut gms = warm_gms(3, 100, 10);
        let active = NodeId::new(0);
        let got = gms.getpage(active, PageId::new(5));
        let GetPageOutcome::RemoteHit { server } = got else {
            panic!("warm page should hit");
        };
        assert!(!gms.nodes()[server.as_usize()].contains(PageId::new(5)));
        assert_eq!(gms.getpage(active, PageId::new(5)), GetPageOutcome::Miss);
        assert_eq!(gms.stats().remote_hits, 1);
        assert_eq!(gms.stats().misses, 1);
        assert!((gms.stats().hit_rate() - 0.5).abs() < 1e-12);
        assert!(gms.is_consistent());
    }

    #[test]
    fn putpage_restores_a_copy_for_later_fetch() {
        let mut gms = warm_gms(3, 100, 4);
        let active = NodeId::new(0);
        gms.getpage(active, PageId::new(2));
        let put = gms.putpage(active, PageId::new(2), true);
        assert_ne!(put.stored_at, active);
        assert_eq!(put.displaced, None);
        assert!(matches!(
            gms.getpage(active, PageId::new(2)),
            GetPageOutcome::RemoteHit { .. }
        ));
        assert!(gms.is_consistent());
    }

    #[test]
    fn full_global_caches_displace_oldest_to_disk() {
        // 2 idle nodes with 2 frames each, warmed with 4 pages: full.
        let mut gms = warm_gms(3, 2, 4);
        let active = NodeId::new(0);
        let put = gms.putpage(active, PageId::new(99), false);
        assert!(put.displaced.is_some(), "a full cache must displace");
        assert_eq!(gms.stats().displaced_to_disk, 1);
        assert!(gms.is_consistent());
        // The displaced page is really gone.
        let gone = put.displaced.expect("displaced");
        assert_eq!(gms.getpage(active, gone), GetPageOutcome::Miss);
    }

    #[test]
    fn discard_drops_without_transfer() {
        let mut gms = warm_gms(3, 100, 4);
        gms.discard(NodeId::new(0), PageId::new(1));
        assert_eq!(
            gms.getpage(NodeId::new(0), PageId::new(1)),
            GetPageOutcome::Miss
        );
        assert_eq!(gms.stats().traffic.discards, 1);
        assert!(gms.is_consistent());
        // Discarding a page with no copy is a harmless no-op.
        gms.discard(NodeId::new(0), PageId::new(77));
        assert!(gms.is_consistent());
    }

    #[test]
    fn fault_evict_cycle_stays_consistent() {
        let mut gms = warm_gms(4, 50, 100);
        let active = NodeId::new(0);
        // Simulate heavy paging: fetch a page, push another back, 500x.
        for i in 0..500u64 {
            let want = PageId::new(i % 100);
            let _ = gms.getpage(active, want);
            gms.putpage(active, PageId::new((i + 37) % 100 + 1000), i % 3 == 0);
            assert!(gms.is_consistent(), "iteration {i}");
        }
        assert!(gms.epochs_completed() >= 1);
        assert_eq!(gms.stats().traffic.putpages, 500);
    }

    #[test]
    #[should_panic(expected = "at least one idle node")]
    fn single_node_cluster_panics() {
        let _ = Gms::new(1, 10);
    }

    #[test]
    fn multi_active_cluster_keeps_actives_out_of_placement() {
        let mut gms = Gms::with_active(5, 2, 10);
        assert_eq!(gms.n_active(), 2);
        gms.warm_cache((0..30).map(PageId::new));
        // Warming spreads over the three idle nodes only.
        assert!(gms.nodes()[0].is_empty());
        assert!(gms.nodes()[1].is_empty());
        for node in &gms.nodes()[2..] {
            assert_eq!(node.len(), 10, "{}", node.id());
        }
        // Evictions from either active node land on idle nodes only.
        for i in 0..40u64 {
            let from = NodeId::new((i % 2) as u32);
            let got = gms.getpage(from, PageId::new(i % 30));
            if matches!(got, GetPageOutcome::RemoteHit { .. }) {
                let put = gms.putpage(from, PageId::new(i % 30), i % 2 == 0);
                assert!(put.stored_at.index() >= 2, "stored on {}", put.stored_at);
            }
            assert!(gms.is_consistent(), "iteration {i}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one idle node")]
    fn all_active_cluster_panics() {
        let _ = Gms::with_active(3, 3, 10);
    }

    #[test]
    #[should_panic(expected = "too small to warm")]
    fn overfull_warm_cache_panics() {
        let mut gms = Gms::new(2, 2);
        gms.warm_cache((0..5).map(PageId::new));
    }

    #[test]
    fn locate_commit_matches_getpage() {
        let mut a = warm_gms(4, 100, 30);
        let mut b = a.clone();
        let active = NodeId::new(0);
        for i in 0..30 {
            let got = a.getpage(active, PageId::new(i));
            let server = b.locate(PageId::new(i));
            match (got, server) {
                (GetPageOutcome::RemoteHit { server: s }, Some(located)) => {
                    assert_eq!(s, located);
                    b.commit_getpage(active, PageId::new(i), located);
                }
                (GetPageOutcome::Miss, None) => b.record_getpage_miss(active, PageId::new(i)),
                (got, located) => panic!("diverged: {got:?} vs {located:?}"),
            }
        }
        assert_eq!(a.stats(), b.stats());
        assert!(b.is_consistent());
    }

    #[test]
    fn fell_back_to_disk_pins_not_found_count() {
        let mut gms = warm_gms(3, 100, 10);
        let active = NodeId::new(0);
        // 10 warm hits: no fallback.
        for i in 0..10 {
            assert!(matches!(
                gms.getpage(active, PageId::new(i)),
                GetPageOutcome::RemoteHit { .. }
            ));
        }
        assert_eq!(gms.stats().fell_back_to_disk, 0);
        // 5 fetches of pages with no global copy: PageNotFound each time.
        for i in 100..105 {
            assert_eq!(gms.getpage(active, PageId::new(i)), GetPageOutcome::Miss);
        }
        assert_eq!(gms.stats().fell_back_to_disk, 5);
        assert_eq!(gms.stats().misses, 5);
        assert_eq!(gms.stats().traffic.not_found, 5);
    }

    #[test]
    fn failover_drops_the_unreachable_entry() {
        let mut gms = warm_gms(3, 100, 4);
        let active = NodeId::new(0);
        let page = PageId::new(2);
        let server = gms.locate(page).expect("warm");
        assert_eq!(gms.record_failover(active, page), None);
        assert_eq!(gms.locate(page), None);
        assert!(!gms.nodes()[server.as_usize()].contains(page));
        assert_eq!(gms.stats().fell_back_to_disk, 1);
        assert_eq!(gms.stats().misses, 0, "a failover is not a directory miss");
        assert!(gms.is_consistent());
    }

    #[test]
    fn crash_loses_pages_and_drops_directory_entries() {
        let mut gms = warm_gms(4, 100, 90);
        let crashed = NodeId::new(2);
        let held = gms.nodes()[2].len() as u64;
        assert!(held > 0);
        let crash = gms.crash_node(crashed);
        assert_eq!(crash.pages_lost, held);
        assert_eq!(crash.copies_dropped, held);
        assert_eq!(
            crash.pages_queued_for_repair, 0,
            "K=1 has nothing to repair"
        );
        assert_eq!(gms.stats().pages_lost_to_crash, held);
        assert!(gms.node_is_down(crashed));
        assert!(gms.nodes()[2].is_empty());
        assert!(gms.is_consistent());
        // Crashing again is a no-op.
        assert_eq!(gms.crash_node(crashed), CrashReport::default());
        // Lost pages miss; pages on surviving nodes still hit.
        let mut hits = 0;
        let mut misses = 0;
        for i in 0..90 {
            match gms.getpage(NodeId::new(0), PageId::new(i)) {
                GetPageOutcome::RemoteHit { server } => {
                    assert_ne!(server, crashed);
                    hits += 1;
                }
                GetPageOutcome::Miss => misses += 1,
            }
        }
        assert_eq!(misses, held);
        assert_eq!(hits, 90 - held);
        // A down node never receives putpages.
        for i in 0..40u64 {
            let put = gms.putpage(NodeId::new(0), PageId::new(i), false);
            assert_ne!(put.stored_at, crashed, "iteration {i}");
        }
    }

    #[test]
    fn recovered_node_rejoins_empty_and_attracts_evictions() {
        let mut gms = warm_gms(3, 4, 8); // two idle nodes, both full
        gms.crash_node(NodeId::new(1));
        gms.recover_node(NodeId::new(1));
        assert!(!gms.node_is_down(NodeId::new(1)));
        assert!(gms.nodes()[1].is_empty());
        // Node 2 is still full, node 1 is empty: putpages flow to 1.
        for i in 0..3u64 {
            let put = gms.putpage(NodeId::new(0), PageId::new(1000 + i), false);
            assert_eq!(put.stored_at, NodeId::new(1), "iteration {i}");
        }
        assert!(gms.is_consistent());
    }

    #[test]
    fn putpage_with_every_custodian_down_drops_to_disk() {
        let mut gms = warm_gms(3, 4, 4);
        gms.crash_node(NodeId::new(1));
        gms.crash_node(NodeId::new(2));
        let before = gms.stats().displaced_to_disk;
        assert!(gms
            .try_putpage(NodeId::new(0), PageId::new(50), true)
            .is_none());
        assert_eq!(gms.stats().displaced_to_disk, before + 1);
        assert!(gms.is_consistent());
    }

    #[test]
    #[should_panic(expected = "cannot crash an active node")]
    fn crashing_active_node_panics() {
        let mut gms = warm_gms(3, 10, 4);
        gms.crash_node(NodeId::new(0));
    }

    // ---- replication ----

    #[test]
    fn warm_cache_places_k_distinct_copies() {
        let gms = warm_replicated(4, 1, 100, 30, 2);
        assert_eq!(gms.directory().len(), 30);
        assert_eq!(gms.directory().total_replicas(), 60);
        for i in 0..30 {
            let holders = gms.directory().replicas(PageId::new(i));
            assert_eq!(holders.len(), 2);
            assert_ne!(holders[0], holders[1]);
        }
        assert!(gms.is_consistent());
        assert_eq!(gms.directory().under_replicated(), 0);
    }

    #[test]
    fn getpage_consumes_every_replica() {
        let mut gms = warm_replicated(4, 1, 100, 10, 2);
        let active = NodeId::new(0);
        let page = PageId::new(3);
        assert!(matches!(
            gms.getpage(active, page),
            GetPageOutcome::RemoteHit { .. }
        ));
        // Both copies are gone: a refetch misses rather than finding a
        // stale standby.
        assert_eq!(gms.getpage(active, page), GetPageOutcome::Miss);
        assert!(gms.is_consistent());
    }

    #[test]
    fn replicate_adds_distinct_standby_without_displacing() {
        let mut gms = warm_replicated(4, 1, 100, 4, 2);
        let active = NodeId::new(0);
        let page = PageId::new(1);
        gms.getpage(active, page);
        let put = gms.putpage(active, page, true);
        assert_eq!(gms.directory().replicas(page).len(), 1);
        let standby = gms.replicate(active, page, true).expect("room exists");
        assert_ne!(standby, put.stored_at);
        assert_eq!(gms.directory().replicas(page), &[put.stored_at, standby]);
        assert_eq!(gms.stats().replica_writes, 1);
        assert!(gms.is_consistent());
        // A third copy at K=2 is legal (the directory just grows the
        // set); a second replicate finds the remaining idle node.
        assert!(gms.replicate(active, page, true).is_some());
    }

    #[test]
    fn replicate_returns_none_when_no_node_qualifies() {
        // One idle node only: the primary holder is the sole candidate.
        let mut gms = Gms::new(2, 10);
        let active = NodeId::new(0);
        gms.putpage(active, PageId::new(7), false);
        assert_eq!(gms.replicate(active, PageId::new(7), false), None);
        assert!(gms.is_consistent());
    }

    #[test]
    fn crash_with_replicas_loses_nothing_and_queues_repair() {
        let mut gms = warm_replicated(5, 1, 100, 40, 2);
        let crashed = NodeId::new(2);
        let held = gms.nodes()[2].len() as u64;
        assert!(held > 0);
        let crash = gms.crash_node(crashed);
        assert_eq!(crash.pages_lost, 0, "every page has a standby");
        assert_eq!(crash.copies_dropped, held);
        assert_eq!(crash.pages_queued_for_repair, held);
        assert_eq!(gms.stats().pages_lost_to_crash, 0);
        assert_eq!(gms.directory().len(), 40, "no entry vanished");
        assert_eq!(gms.directory().under_replicated(), held as usize);
        assert!(gms.repair_pending());
        assert!(gms.is_consistent());
        // Every page is still fetchable from a surviving replica.
        for i in 0..40 {
            assert!(matches!(
                gms.getpage(NodeId::new(0), PageId::new(i)),
                GetPageOutcome::RemoteHit { .. }
            ));
        }
        assert_eq!(gms.stats().fell_back_to_disk, 0);
    }

    #[test]
    fn repair_restores_full_replication() {
        let mut gms = warm_replicated(5, 1, 100, 40, 2);
        let crash = gms.crash_node(NodeId::new(2));
        let mut repaired = 0;
        while let Some(action) = gms.repair_one(4096) {
            assert_ne!(action.target, NodeId::new(2), "down nodes take no copies");
            assert!(gms.is_consistent());
            repaired += 1;
        }
        assert_eq!(repaired, crash.pages_queued_for_repair);
        assert_eq!(gms.directory().under_replicated(), 0);
        assert_eq!(gms.stats().pages_re_replicated, repaired);
        assert_eq!(gms.stats().repair_bytes, repaired * 4096);
        assert_eq!(gms.directory().total_replicas(), 80);
    }

    #[test]
    fn failover_promotes_standby_before_disk() {
        let mut gms = warm_replicated(4, 1, 100, 10, 2);
        let active = NodeId::new(0);
        let page = PageId::new(5);
        let primary = gms.locate(page).expect("warm");
        let next = gms.record_failover(active, page).expect("standby exists");
        assert_ne!(next, primary);
        assert_eq!(gms.locate(page), Some(next));
        assert_eq!(gms.stats().fell_back_to_disk, 0, "standby absorbed it");
        assert!(gms.repair_pending(), "the dropped copy queues a repair");
        // Exhausting the standby too finally falls back to disk.
        assert_eq!(gms.record_failover(active, page), None);
        assert_eq!(gms.stats().fell_back_to_disk, 1);
        assert!(gms.is_consistent());
    }

    #[test]
    fn vulnerability_window_opens_and_closes() {
        let mut gms = warm_replicated(5, 1, 100, 20, 2);
        gms.account_vulnerability(1_000);
        assert_eq!(gms.stats().window_of_vulnerability_ns, 0);
        gms.crash_node(NodeId::new(2));
        gms.account_vulnerability(2_000);
        while gms.repair_one(4096).is_some() {}
        gms.account_vulnerability(7_500);
        assert_eq!(gms.stats().window_of_vulnerability_ns, 5_500);
        // A still-open window is closed explicitly at end of run.
        gms.crash_node(NodeId::new(3));
        gms.account_vulnerability(10_000);
        gms.close_vulnerability(11_000);
        assert_eq!(gms.stats().window_of_vulnerability_ns, 6_500);
    }

    #[test]
    fn directory_rebuild_preserves_surviving_holders() {
        let mut gms = warm_replicated(5, 1, 100, 60, 2);
        let before: Vec<(PageId, Vec<NodeId>)> = (0..60)
            .map(PageId::new)
            .map(|p| (p, gms.directory().replicas(p).to_vec()))
            .collect();
        let crashed = NodeId::new(3);
        let crash = gms.crash_node(crashed);
        assert_eq!(gms.stats().directory_rebuilds, 1);
        assert!(crash.directory_entries_rebuilt > 0);
        for (page, holders) in before {
            let survivors: Vec<NodeId> = holders.into_iter().filter(|&n| n != crashed).collect();
            assert_eq!(gms.directory().replicas(page), survivors.as_slice());
        }
    }
}
