//! The per-node event core: in-flight follow-on data and its arrival
//! queue.
//!
//! Every fault that transfers more than one message leaves *pending
//! arrivals* behind: follow-on messages still crossing the network toward
//! a resident page, plus the instant the page's transfer completes
//! (cross-node transfer completion). [`EventCore`] owns both in one
//! structure so the driver's stall logic, overlap attribution and
//! eviction bookkeeping all consult a single queue.

use gms_mem::{PageId, SubpageIndex, SubpageMask};
use gms_units::{Duration, FastMap, SimTime};

/// One follow-on message still on its way to a resident page.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Arrival {
    /// Instant the message's data is usable by the application.
    pub available_at: SimTime,
    /// The subpages the message carries.
    pub subpages: SubpageMask,
    /// CPU the receive interrupt steals *if* the program is running when
    /// it fires (it is free while the program is stalled anyway — the
    /// paper's Table 2 deducts this overhead from the overlap window,
    /// not from stall time).
    pub recv_cpu: Duration,
    /// Whether the message was lost in flight (fault injection): its
    /// subpages never become valid and the requester discovers the hole
    /// lazily, at touch time. Always `false` without a fault plan.
    pub lost: bool,
}

/// Follow-on data still on its way to a resident page.
#[derive(Debug)]
struct PendingPage {
    /// In send order (monotone arrival times).
    arrivals: Vec<Arrival>,
    /// First unapplied arrival.
    next: usize,
    /// Index of the fault record waiting-time is attributed to.
    fault_idx: usize,
}

/// Pending arrivals and transfer completions for one node, in one queue.
#[derive(Debug, Default)]
pub(crate) struct EventCore {
    pending: FastMap<PageId, PendingPage>,
    /// `(page_complete_at, page)` for every transfer still in flight.
    inflight: Vec<(SimTime, PageId)>,
}

impl EventCore {
    pub fn new() -> Self {
        EventCore::default()
    }

    /// Queues a fault's follow-on arrivals for `page`, completing (all
    /// data landed) at `complete_at`. Waiting time for the page is
    /// attributed to fault record `fault_idx`.
    pub fn schedule(
        &mut self,
        page: PageId,
        complete_at: SimTime,
        arrivals: Vec<Arrival>,
        fault_idx: usize,
    ) {
        self.inflight.push((complete_at, page));
        self.pending.insert(
            page,
            PendingPage {
                arrivals,
                next: 0,
                fault_idx,
            },
        );
    }

    /// Whether any fault's follow-on data (other than `exclude`'s) is
    /// still in flight at `now`. Expired completions are dropped.
    pub fn other_inflight(&mut self, now: SimTime, exclude: Option<PageId>) -> bool {
        self.inflight.retain(|(t, _)| *t > now);
        self.inflight.iter().any(|(_, p)| Some(*p) != exclude)
    }

    /// Whether no follow-on data is pending for any page.
    #[cfg(test)]
    pub fn is_idle(&self) -> bool {
        self.pending.is_empty()
    }

    /// When the in-flight arrival carrying `sub` of `page` lands, if
    /// any. Lost messages never land, so they are not waited on.
    pub fn waiting_arrival(&self, page: PageId, sub: SubpageIndex) -> Option<SimTime> {
        self.pending.get(&page).and_then(|p| {
            p.arrivals[p.next..]
                .iter()
                .find(|a| !a.lost && a.subpages.contains(sub))
                .map(|a| a.available_at)
        })
    }

    /// Whether a *lost* in-flight message was carrying `sub` of `page`:
    /// the data will never arrive and the toucher must re-fetch it.
    pub fn lost_pending(&self, page: PageId, sub: SubpageIndex) -> bool {
        self.pending.get(&page).is_some_and(|p| {
            p.arrivals[p.next..]
                .iter()
                .any(|a| a.lost && a.subpages.contains(sub))
        })
    }

    /// The fault record waiting on `page` is attributed to.
    ///
    /// # Panics
    ///
    /// Panics if `page` has no pending arrivals.
    pub fn fault_idx(&self, page: PageId) -> usize {
        self.pending[&page].fault_idx
    }

    /// Removes and returns the arrivals for `page` due at or before
    /// `now`, in send order; the page's entry is dropped once its last
    /// arrival is consumed. Empty if nothing is pending or due.
    pub fn pop_due(&mut self, page: PageId, now: SimTime) -> Vec<Arrival> {
        let Some(p) = self.pending.get_mut(&page) else {
            return Vec::new();
        };
        let first = p.next;
        while p.next < p.arrivals.len() && p.arrivals[p.next].available_at <= now {
            p.next += 1;
        }
        let due = p.arrivals[first..p.next].to_vec();
        if p.next == p.arrivals.len() {
            self.pending.remove(&page);
        }
        due
    }

    /// Drops `page`'s pending arrivals (the page was evicted while its
    /// data was in flight). Returns whether anything was pending.
    pub fn drop_page(&mut self, page: PageId) -> bool {
        self.pending.remove(&page).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arrival(at_ns: u64, sub: u8) -> Arrival {
        Arrival {
            available_at: SimTime::from_nanos(at_ns),
            subpages: SubpageMask::single(8, SubpageIndex::new(sub)),
            recv_cpu: Duration::ZERO,
            lost: false,
        }
    }

    #[test]
    fn pop_due_consumes_in_order_and_clears() {
        let mut ev = EventCore::new();
        let page = PageId::new(7);
        ev.schedule(
            page,
            SimTime::from_nanos(300),
            vec![arrival(100, 1), arrival(200, 2), arrival(300, 3)],
            0,
        );
        assert!(!ev.is_idle());
        assert_eq!(
            ev.waiting_arrival(page, SubpageIndex::new(2)),
            Some(SimTime::from_nanos(200))
        );
        let due = ev.pop_due(page, SimTime::from_nanos(250));
        assert_eq!(due.len(), 2);
        assert_eq!(
            due[0].subpages,
            SubpageMask::single(8, SubpageIndex::new(1))
        );
        // Already-popped arrivals are no longer waited on.
        assert_eq!(ev.waiting_arrival(page, SubpageIndex::new(1)), None);
        let rest = ev.pop_due(page, SimTime::from_nanos(1000));
        assert_eq!(rest.len(), 1);
        assert!(ev.is_idle());
        assert!(ev.pop_due(page, SimTime::from_nanos(2000)).is_empty());
    }

    #[test]
    fn inflight_tracks_completions_not_arrivals() {
        let mut ev = EventCore::new();
        let (a, b) = (PageId::new(1), PageId::new(2));
        ev.schedule(a, SimTime::from_nanos(500), vec![arrival(100, 1)], 0);
        ev.schedule(b, SimTime::from_nanos(900), vec![arrival(700, 1)], 1);
        assert!(ev.other_inflight(SimTime::from_nanos(0), None));
        assert!(
            !ev.other_inflight(SimTime::from_nanos(600), Some(b)),
            "only b is still in flight"
        );
        assert!(!ev.other_inflight(SimTime::from_nanos(1000), None));
    }

    #[test]
    fn drop_page_reports_waste() {
        let mut ev = EventCore::new();
        let page = PageId::new(4);
        ev.schedule(page, SimTime::from_nanos(100), vec![arrival(50, 0)], 0);
        assert!(ev.drop_page(page));
        assert!(!ev.drop_page(page));
        assert!(ev.is_idle());
    }
}
