//! The typed event taxonomy of the fault lifecycle.

use gms_units::{Duration, NetResource, NodeId, SimTime};

/// What serviced a fault (the observability mirror of the engine's
/// fault kinds, kept dependency-free).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultClass {
    /// A whole-page fault served from another node's memory.
    Remote,
    /// A fault served from the local disk.
    Disk,
    /// A lazy-policy fault on a missing subpage of a resident page.
    LazySubpage,
    /// A degraded re-fetch of a subpage whose original message was lost
    /// in flight (fault injection).
    Degraded,
}

impl FaultClass {
    /// A short label (`remote`, `disk`, `lazy`, `degraded`).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            FaultClass::Remote => "remote",
            FaultClass::Disk => "disk",
            FaultClass::LazySubpage => "lazy",
            FaultClass::Degraded => "degraded",
        }
    }
}

/// Why an adaptive policy engine shaped a fault's transfer the way it
/// did (the observability mirror of the engine's decision, kept
/// dependency-free like [`FaultClass`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyChoice {
    /// A stride predictor was confident: follow-ons ride in predicted
    /// stride order.
    Stride,
    /// Prediction confidence was too low: the engine fell back to the
    /// static neighbours-first order.
    Fallback,
    /// A hotness tracker classified the page hot: it migrates whole in
    /// one message.
    Migrate,
    /// A hotness tracker classified the page cold: only the demanded
    /// subpage is fetched.
    Demand,
}

impl PolicyChoice {
    /// A short label (`stride`, `fallback`, `migrate`, `demand`).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            PolicyChoice::Stride => "stride",
            PolicyChoice::Fallback => "fallback",
            PolicyChoice::Migrate => "migrate",
            PolicyChoice::Demand => "demand",
        }
    }
}

/// One structured trace event.
///
/// Events are emitted in simulation order by whichever node is being
/// advanced; `node` is always the node the event belongs to. Page ids
/// are the node-local ids (before GMS namespacing) so they match the
/// per-node fault log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A page fault began: the program touched a non-resident page (or
    /// missing subpage, for lazy refills).
    Fault {
        /// The faulting node.
        node: NodeId,
        /// The faulted page (node-local id).
        page: u64,
        /// The faulted subpage within the page.
        subpage: u8,
        /// What will service the fault.
        class: FaultClass,
        /// References executed when the fault occurred.
        at_ref: u64,
        /// The faulting node's clock at the fault.
        at: SimTime,
    },
    /// The GMS located the page and a getpage request was sent to its
    /// custodian.
    GetPage {
        /// The requesting node.
        node: NodeId,
        /// The custodian serving the page.
        server: NodeId,
        /// The requested page (node-local id).
        page: u64,
        /// Request time (the faulting node's clock).
        at: SimTime,
    },
    /// The program restarted after receiving the initially-faulted
    /// subpage (or the whole page / disk block for non-subpage
    /// policies).
    Restart {
        /// The restarting node.
        node: NodeId,
        /// The page whose data arrived.
        page: u64,
        /// Restart time.
        at: SimTime,
        /// How long the program stalled for the initial data.
        wait: Duration,
    },
    /// One follow-on message's data became usable. Emitted right after
    /// the `Restart` of the fault that scheduled it, one event per
    /// surviving message in send order. Keeping the event `Copy` (a
    /// bitmask instead of a subpage list) is what lets the recorder
    /// buffer the whole stream without a single side allocation.
    Arrival {
        /// The receiving node.
        node: NodeId,
        /// The page the data belongs to (node-local id).
        page: u64,
        /// Index of this message among the fault's surviving follow-on
        /// messages, in send order (0-based).
        msg: u8,
        /// The instant the message's data becomes usable.
        at: SimTime,
        /// Bitmask of the subpages the message carries (bit `i` =
        /// subpage `i`; a page has at most 64 subpages at the smallest
        /// 128-byte subpage size).
        subpages: u64,
    },
    /// The program stalled waiting for follow-on data on an incomplete
    /// page (`page_wait` in the report's decomposition).
    Stall {
        /// The stalled node.
        node: NodeId,
        /// The page being waited on.
        page: u64,
        /// Stall start.
        start: SimTime,
        /// Stall end (the awaited arrival).
        end: SimTime,
    },
    /// An evicted page was pushed back to its custodian.
    PutPage {
        /// The evicting node.
        node: NodeId,
        /// The custodian absorbing the write-back.
        custodian: NodeId,
        /// The evicted page (node-local id).
        page: u64,
        /// Whether the page was dirty.
        dirty: bool,
        /// Eviction time.
        at: SimTime,
    },
    /// One occupancy of a `(node, resource)` pair on the shared
    /// network, drained from the cluster network's occupancy log.
    Occupancy {
        /// The node whose resource was occupied.
        node: NodeId,
        /// Which of the node's five resources.
        resource: NetResource,
        /// What the occupancy was for (`"dma-out"`, `"request"`, …).
        what: &'static str,
        /// When the work entered the resource's queue (its input became
        /// available). `start - ready` is queueing; `end - start` is
        /// service.
        ready: SimTime,
        /// Occupancy start (grant).
        start: SimTime,
        /// Occupancy end (release).
        end: SimTime,
    },
    /// A getpage attempt got no data back within the derived timeout
    /// (lost request or reply, or a dead custodian).
    Timeout {
        /// The waiting node.
        node: NodeId,
        /// The page being fetched.
        page: u64,
        /// Which attempt timed out (1-based).
        attempt: u32,
        /// When the timeout expired.
        at: SimTime,
    },
    /// A timed-out getpage is being retried after backoff.
    Retry {
        /// The retrying node.
        node: NodeId,
        /// The page being fetched.
        page: u64,
        /// Which attempt is starting (2-based: the first retry is 2).
        attempt: u32,
        /// When the retry was issued.
        at: SimTime,
    },
    /// Retries were exhausted against an unreachable custodian; the
    /// directory entry was dropped and the fault fell back to disk.
    Failover {
        /// The failing-over node.
        node: NodeId,
        /// The unreachable custodian.
        custodian: NodeId,
        /// The page whose entry was repaired.
        page: u64,
        /// Failover time.
        at: SimTime,
    },
    /// A node crashed per the fault plan; its global cache is lost.
    NodeDown {
        /// The crashed node.
        node: NodeId,
        /// Crash time.
        at: SimTime,
        /// Global pages lost with it.
        pages_lost: u64,
    },
    /// A crashed node recovered (empty) per the fault plan.
    NodeUp {
        /// The recovered node.
        node: NodeId,
        /// Recovery time.
        at: SimTime,
    },
    /// A touch found a subpage whose carrier message was lost; it is
    /// being re-fetched lazily (degraded mode).
    DegradedFetch {
        /// The touching node.
        node: NodeId,
        /// The page holding the lost subpage.
        page: u64,
        /// The lost subpage.
        subpage: u8,
        /// Re-fetch time.
        at: SimTime,
    },
    /// An adaptive policy engine planned a whole-page fault. Static
    /// policies never emit this: their plans are fixed functions of the
    /// faulted subpage.
    PolicyDecision {
        /// The faulting node.
        node: NodeId,
        /// The faulted page (node-local id).
        page: u64,
        /// What the engine decided.
        choice: PolicyChoice,
        /// The predicted subpage stride backing a [`PolicyChoice::Stride`]
        /// decision (zero for the other choices).
        delta: i8,
        /// Decision time (the faulting node's clock).
        at: SimTime,
    },
    /// Subpages an adaptive engine moved beyond the demanded one. With
    /// `unused: false` this marks the prediction at issue time; with
    /// `unused: true` it reports, when the page's prefetch window closes
    /// (eviction), the predicted subpages the program never touched.
    Prefetch {
        /// The predicting node.
        node: NodeId,
        /// The page the prediction covers (node-local id).
        page: u64,
        /// Bitmask of the predicted subpages (bit `i` = subpage `i`).
        subpages: u64,
        /// Bytes per subpage in the mask, so misprediction cost is
        /// computable from the event alone.
        sub_bytes: u32,
        /// Whether this closes the window (unused remainder) rather than
        /// opening it (issued prediction).
        unused: bool,
        /// Issue / close time.
        at: SimTime,
    },
    /// A standby copy of an evicted page was written to an extra holder
    /// (replicated putpage, K > 1).
    ReplicaWrite {
        /// The evicting node.
        node: NodeId,
        /// The node absorbing the standby copy.
        holder: NodeId,
        /// The evicted page (node-local id).
        page: u64,
        /// Which copy this is (1-based: the first standby is 1; the
        /// primary putpage is copy 0 and has its own `PutPage` event).
        copy: u8,
        /// Write time.
        at: SimTime,
    },
    /// Background repair copied an under-replicated page to a new
    /// holder, restoring it toward its replication target.
    Repair {
        /// The surviving holder serving the copy.
        node: NodeId,
        /// The node receiving the new copy.
        target: NodeId,
        /// The repaired page (raw global id: repair is a background
        /// activity with no owning application context, so the id is
        /// not de-namespaced).
        page: u64,
        /// Repair transfer time.
        at: SimTime,
    },
    /// A crashed custodian's directory shard was rebuilt from surviving
    /// replica announcements.
    DirectoryRebuild {
        /// The crashed custodian whose shard was rebuilt.
        node: NodeId,
        /// Directory entries reconstructed from announcements.
        entries: u64,
        /// Rebuild time (the crash instant).
        at: SimTime,
    },
}

impl Event {
    /// The page the event concerns, for the page-scoped events of the
    /// fault lifecycle (`None` for occupancies and node-level events,
    /// which carry no page). Consumers that route events by
    /// `(node, page)` — the flight recorder, the attribution walk's
    /// stall targeting — key off this.
    #[must_use]
    pub fn page(&self) -> Option<u64> {
        match *self {
            Event::Fault { page, .. }
            | Event::GetPage { page, .. }
            | Event::Restart { page, .. }
            | Event::Arrival { page, .. }
            | Event::Stall { page, .. }
            | Event::PutPage { page, .. }
            | Event::Timeout { page, .. }
            | Event::Retry { page, .. }
            | Event::Failover { page, .. }
            | Event::DegradedFetch { page, .. }
            | Event::PolicyDecision { page, .. }
            | Event::Prefetch { page, .. }
            | Event::ReplicaWrite { page, .. } => Some(page),
            // Repair carries a raw (namespaced) global id and is
            // background work with no faulting context: it must not be
            // routed into per-page flight logs.
            Event::Occupancy { .. }
            | Event::NodeDown { .. }
            | Event::NodeUp { .. }
            | Event::Repair { .. }
            | Event::DirectoryRebuild { .. } => None,
        }
    }

    /// The node this event belongs to.
    #[must_use]
    pub fn node(&self) -> NodeId {
        match *self {
            Event::Fault { node, .. }
            | Event::GetPage { node, .. }
            | Event::Restart { node, .. }
            | Event::Arrival { node, .. }
            | Event::Stall { node, .. }
            | Event::PutPage { node, .. }
            | Event::Occupancy { node, .. }
            | Event::Timeout { node, .. }
            | Event::Retry { node, .. }
            | Event::Failover { node, .. }
            | Event::NodeDown { node, .. }
            | Event::NodeUp { node, .. }
            | Event::DegradedFetch { node, .. }
            | Event::PolicyDecision { node, .. }
            | Event::Prefetch { node, .. }
            | Event::ReplicaWrite { node, .. }
            | Event::Repair { node, .. }
            | Event::DirectoryRebuild { node, .. } => node,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_node_extraction() {
        let e = Event::Fault {
            node: NodeId::new(3),
            page: 7,
            subpage: 1,
            class: FaultClass::Remote,
            at_ref: 100,
            at: SimTime::ZERO,
        };
        assert_eq!(e.node(), NodeId::new(3));
        assert_eq!(e.page(), Some(7));
        let occ = Event::Occupancy {
            node: NodeId::new(1),
            resource: NetResource::Cpu,
            what: "request",
            ready: SimTime::ZERO,
            start: SimTime::ZERO,
            end: SimTime::from_nanos(10),
        };
        assert_eq!(occ.page(), None);
        assert_eq!(FaultClass::LazySubpage.label(), "lazy");
    }

    #[test]
    fn policy_choice_labels_are_distinct() {
        let mut labels = [
            PolicyChoice::Stride,
            PolicyChoice::Fallback,
            PolicyChoice::Migrate,
            PolicyChoice::Demand,
        ]
        .map(PolicyChoice::label);
        labels.sort_unstable();
        let mut deduped = labels.to_vec();
        deduped.dedup();
        assert_eq!(deduped.len(), 4);
    }

    #[test]
    fn adaptive_events_carry_their_node() {
        let d = Event::PolicyDecision {
            node: NodeId::new(2),
            page: 9,
            choice: PolicyChoice::Stride,
            delta: 2,
            at: SimTime::from_nanos(5),
        };
        assert_eq!(d.node(), NodeId::new(2));
        let p = Event::Prefetch {
            node: NodeId::new(1),
            page: 4,
            subpages: 0b1010,
            sub_bytes: 1024,
            unused: true,
            at: SimTime::from_nanos(7),
        };
        assert_eq!(p.node(), NodeId::new(1));
    }

    #[test]
    fn replication_events_route_correctly() {
        let w = Event::ReplicaWrite {
            node: NodeId::new(0),
            holder: NodeId::new(3),
            page: 12,
            copy: 1,
            at: SimTime::from_nanos(9),
        };
        assert_eq!(w.node(), NodeId::new(0));
        assert_eq!(w.page(), Some(12));
        let r = Event::Repair {
            node: NodeId::new(2),
            target: NodeId::new(4),
            page: 1 << 40 | 12,
            at: SimTime::from_nanos(11),
        };
        assert_eq!(r.node(), NodeId::new(2));
        assert_eq!(r.page(), None, "repair must stay out of per-page logs");
        let d = Event::DirectoryRebuild {
            node: NodeId::new(3),
            entries: 40,
            at: SimTime::from_nanos(13),
        };
        assert_eq!(d.node(), NodeId::new(3));
        assert_eq!(d.page(), None);
    }
}
