//! Metric types collected by the simulator.

use std::collections::BTreeMap;

use gms_net::NetResource;
use gms_obs::FaultClass;
use gms_units::{Duration, NodeId, SimTime};

/// Aggregate contention metrics for the shared cluster network over one
/// multi-node run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ClusterNetStats {
    /// Total time transfers spent queued behind busy resources, summed
    /// over every `(node, resource)` pair. Zero means no transfer ever
    /// waited — the cluster was effectively uncontended.
    pub queue_delay: Duration,
    /// Inbound-wire busy time summed over all nodes.
    pub wire_in_busy: Duration,
    /// Outbound-wire busy time summed over all nodes. Always equals
    /// `wire_in_busy`: every transfer books the sender's outbound and
    /// the receiver's inbound direction for the same interval.
    pub wire_out_busy: Duration,
    /// Fraction of the cluster's aggregate inbound wire capacity in use:
    /// `wire_in_busy / (nodes × makespan)`.
    pub wire_utilization: f64,
    /// The least-loaded node's wire utilization (inbound + outbound busy
    /// over twice the network horizon), in `[0, 1]`.
    pub min_node_utilization: f64,
    /// The most-loaded node's wire utilization, in `[0, 1]`. A wide
    /// `max − min` gap means custodian load is asymmetric.
    pub max_node_utilization: f64,
}

/// Per-node, per-resource busy and queue-delay breakdown for one
/// cluster run — the attribution layer behind [`ClusterNetStats`]'s
/// aggregates. One entry per node (active *and* idle).
#[derive(Debug, Clone, PartialEq)]
pub struct NodeNetStats {
    /// The node these figures describe.
    pub node: NodeId,
    /// Busy time per resource, indexed like [`NetResource::ALL`].
    pub busy: [Duration; 5],
    /// Queue delay inflicted per resource, indexed like
    /// [`NetResource::ALL`].
    pub waited: [Duration; 5],
    /// This node's wire utilization: inbound + outbound busy over twice
    /// the network horizon, in `[0, 1]`.
    pub utilization: f64,
}

impl NodeNetStats {
    /// Busy time of one resource.
    #[must_use]
    pub fn busy(&self, r: NetResource) -> Duration {
        self.busy[r.index()]
    }

    /// Queue delay inflicted by one resource.
    #[must_use]
    pub fn waited(&self, r: NetResource) -> Duration {
        self.waited[r.index()]
    }

    /// Queue delay summed over this node's five resources.
    #[must_use]
    pub fn total_waited(&self) -> Duration {
        self.waited.iter().copied().sum()
    }
}

/// One page fault, as recorded for Figures 5 and 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultRecord {
    /// How many references had been executed when the fault occurred
    /// (the X axis of Figures 6 and 10).
    pub at_ref: u64,
    /// The node clock when the fault was taken: the time of its `Fault`
    /// event, which is its restart time less its restart wait.
    pub at: SimTime,
    /// What serviced it: the class of the `Fault` event that opened it,
    /// except that a remote fault which fell back to disk is `Disk`.
    pub kind: FaultClass,
    /// Total waiting attributed to this fault: the initial subpage
    /// latency plus any later stalls for the remainder of the same page
    /// (the Y axis of Figure 5).
    pub wait: Duration,
}

/// Fault totals by kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultCounts {
    /// Remote whole-page faults.
    pub remote: u64,
    /// Disk faults.
    pub disk: u64,
    /// Lazy subpage faults.
    pub lazy_subpage: u64,
    /// Degraded re-fetches of lost subpages (fault injection only).
    pub degraded: u64,
}

impl FaultCounts {
    /// All faults.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.remote + self.disk + self.lazy_subpage + self.degraded
    }

    /// Page-granularity faults (excluding lazy subpage refills and
    /// degraded re-fetches).
    #[must_use]
    pub fn page_faults(&self) -> u64 {
        self.remote + self.disk
    }

    /// Adds one fault of the given kind.
    pub fn record(&mut self, kind: FaultClass) {
        match kind {
            FaultClass::Remote => self.remote += 1,
            FaultClass::Disk => self.disk += 1,
            FaultClass::LazySubpage => self.lazy_subpage += 1,
            FaultClass::Degraded => self.degraded += 1,
        }
    }
}

/// Attribution of achieved overlap (§4.4): while at least one fault's
/// follow-on data was in flight, was the program computing or stalled on
/// another fault?
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OverlapStats {
    /// Time stalled on one fault while another fault's data was in
    /// flight: overlapped I/O.
    pub io_overlap: Duration,
    /// Time executing while fault data was in flight: overlapped
    /// computation.
    pub comp_overlap: Duration,
}

impl OverlapStats {
    /// Fraction of total overlap that was I/O-on-I/O, in `[0, 1]`.
    /// The paper measures 53% (Atom) to 83% (gdb).
    #[must_use]
    pub fn io_fraction(&self) -> f64 {
        let total = self.io_overlap + self.comp_overlap;
        if total == Duration::ZERO {
            0.0
        } else {
            self.io_overlap.as_nanos() as f64 / total.as_nanos() as f64
        }
    }
}

/// Histogram of distances from a faulted subpage to the next different
/// subpage touched on the same page (Figure 7).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DistanceHistogram {
    counts: BTreeMap<i8, u64>,
    total: u64,
}

impl DistanceHistogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        DistanceHistogram::default()
    }

    /// Records one observed distance (in subpages, signed).
    pub fn record(&mut self, distance: i8) {
        *self.counts.entry(distance).or_insert(0) += 1;
        self.total += 1;
    }

    /// Total observations.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Fraction of observations at `distance`, in `[0, 1]`.
    #[must_use]
    pub fn fraction(&self, distance: i8) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            *self.counts.get(&distance).unwrap_or(&0) as f64 / self.total as f64
        }
    }

    /// Iterates `(distance, count)` in ascending distance order.
    pub fn iter(&self) -> impl Iterator<Item = (i8, u64)> + '_ {
        self.counts.iter().map(|(d, c)| (*d, *c))
    }

    /// The most common distance, if any observations exist. Ties are
    /// broken toward the smaller absolute distance, and between `+d`
    /// and `-d` toward the positive (forward) direction — forward
    /// locality is the paper's common case, so a tie should not report
    /// a spurious backward stride.
    #[must_use]
    pub fn mode(&self) -> Option<i8> {
        self.counts
            .iter()
            .max_by_key(|(d, c)| (**c, std::cmp::Reverse(d.unsigned_abs()), **d))
            .map(|(d, _)| *d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_records_stay_four_words() {
        // Reports retain one record per fault.
        assert_eq!(std::mem::size_of::<FaultRecord>(), 32);
    }

    #[test]
    fn fault_counts_record_by_kind() {
        let mut c = FaultCounts::default();
        c.record(FaultClass::Remote);
        c.record(FaultClass::Remote);
        c.record(FaultClass::Disk);
        c.record(FaultClass::LazySubpage);
        assert_eq!(c.remote, 2);
        assert_eq!(c.total(), 4);
        assert_eq!(c.page_faults(), 3);
    }

    #[test]
    fn overlap_fraction() {
        let s = OverlapStats {
            io_overlap: Duration::from_micros(80),
            comp_overlap: Duration::from_micros(20),
        };
        assert!((s.io_fraction() - 0.8).abs() < 1e-12);
        assert_eq!(OverlapStats::default().io_fraction(), 0.0);
    }

    #[test]
    fn histogram_fractions_and_mode() {
        let mut h = DistanceHistogram::new();
        for _ in 0..7 {
            h.record(1);
        }
        for _ in 0..2 {
            h.record(-1);
        }
        h.record(3);
        assert_eq!(h.total(), 10);
        assert!((h.fraction(1) - 0.7).abs() < 1e-12);
        assert!((h.fraction(-1) - 0.2).abs() < 1e-12);
        assert_eq!(h.fraction(5), 0.0);
        assert_eq!(h.mode(), Some(1));
        let dists: Vec<i8> = h.iter().map(|(d, _)| d).collect();
        assert_eq!(dists, vec![-1, 1, 3]);
    }

    #[test]
    fn mode_ties_prefer_small_positive_distances() {
        // Equal counts at -3 and +1: the smaller |distance| wins, not
        // the most negative distance.
        let mut h = DistanceHistogram::new();
        h.record(-3);
        h.record(-3);
        h.record(1);
        h.record(1);
        assert_eq!(h.mode(), Some(1));

        // Equal counts at -2 and +2: the positive direction wins.
        let mut h = DistanceHistogram::new();
        h.record(-2);
        h.record(2);
        assert_eq!(h.mode(), Some(2));

        // A strictly larger count still wins regardless of sign.
        let mut h = DistanceHistogram::new();
        h.record(-4);
        h.record(-4);
        h.record(1);
        assert_eq!(h.mode(), Some(-4));
    }

    #[test]
    fn empty_histogram_is_harmless() {
        let h = DistanceHistogram::new();
        assert_eq!(h.mode(), None);
        assert_eq!(h.fraction(1), 0.0);
        assert_eq!(h.total(), 0);
    }
}
