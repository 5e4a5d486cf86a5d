//! The output of one simulation run.

use gms_cluster::GmsStats;
use gms_net::BusyTimes;
use gms_obs::QuantileSketch;
use gms_units::Duration;

use crate::metrics::{DistanceHistogram, FaultCounts, FaultRecord, OverlapStats};

/// Everything the simulator measured about one run — "a complete
/// description of the paging behavior" (§3.2).
///
/// The time buckets partition the total:
/// `total_time = exec_time + sp_latency + page_wait + recv_overhead +
/// emulation_time + putpage_overhead`, which
/// [`RunReport::assert_conserved`] checks.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunReport {
    /// The policy label (`sp_1024`, `p_8192`, …).
    pub policy: String,
    /// The memory-configuration label (`1/2-mem`, …).
    pub memory: String,
    /// Frames the program ran in.
    pub frames: u64,
    /// References executed.
    pub total_refs: u64,

    /// Wall-clock length of the run.
    pub total_time: Duration,
    /// Pure application execution (references × per-reference cost).
    pub exec_time: Duration,
    /// Stall waiting for the initially-faulted subpage (or whole page /
    /// disk block for non-subpage policies): Figure 4's `sp_latency`.
    pub sp_latency: Duration,
    /// Stall waiting for follow-on data on incomplete pages: Figure 4's
    /// `page_wait`.
    pub page_wait: Duration,
    /// Requester CPU consumed by follow-on receive interrupts.
    pub recv_overhead: Duration,
    /// PALcode emulation time (zero under TLB-supported access).
    pub emulation_time: Duration,
    /// CPU setup time for pushing evicted pages to global memory.
    pub putpage_overhead: Duration,

    /// Fault totals by kind.
    pub faults: FaultCounts,
    /// Pages evicted from local memory.
    pub evictions: u64,
    /// Dirty pages among those evictions.
    pub dirty_evictions: u64,
    /// In-flight transfers dropped because their page was evicted before
    /// the data arrived.
    pub wasted_transfers: u64,
    /// Subpages an adaptive policy engine moved beyond the demanded one
    /// (prefetch predictions issued). Always zero for static policies.
    pub prefetched_subpages: u64,
    /// Bytes of those predictions the program never touched before the
    /// page's eviction closed its prefetch window. Always zero for
    /// static policies.
    pub mispredicted_prefetch_bytes: u64,

    /// Getpage attempts that expired without data (lost request or
    /// reply, or a dead custodian). Zero without a fault plan.
    pub timeouts: u64,
    /// Re-issued requests after a timeout (getpage and putpage retries
    /// combined). Zero without a fault plan.
    pub retries: u64,
    /// Faults that exhausted their retries against an unreachable
    /// custodian, repaired the directory, and fell back to disk.
    pub failovers: u64,
    /// Remote-policy faults this node served from disk because no global
    /// copy was reachable (directory misses plus failovers). Always zero
    /// under the disk policy, where disk is the design, not a fallback.
    pub fell_back_to_disk: u64,

    /// Per-fault records, in fault order (Figures 5 and 6).
    pub fault_log: Vec<FaultRecord>,
    /// Distance-to-next-subpage histogram (Figure 7).
    pub distances: DistanceHistogram,
    /// Overlap attribution (§4.4).
    pub overlap: OverlapStats,
    /// Global-memory-service statistics.
    pub gms: GmsStats,
    /// Cumulative busy time per network-pipeline resource.
    pub net_busy: BusyTimes,
}

impl RunReport {
    /// Runtime relative to `baseline` (>1 means this run was faster):
    /// the speedup the paper reports.
    ///
    /// # Panics
    ///
    /// Panics if this run's total time is zero.
    #[must_use]
    pub fn speedup_vs(&self, baseline: &RunReport) -> f64 {
        assert!(self.total_time > Duration::ZERO, "empty run has no speedup");
        baseline.total_time.as_nanos() as f64 / self.total_time.as_nanos() as f64
    }

    /// Fractional reduction in execution time relative to `baseline`
    /// (Figure 9's Y axis): `1 - self/baseline`.
    #[must_use]
    pub fn reduction_vs(&self, baseline: &RunReport) -> f64 {
        1.0 - self.total_time.as_nanos() as f64 / baseline.total_time.as_nanos() as f64
    }

    /// The share of runtime spent in each of Figure 4's three components
    /// `(exec, sp_latency, page_wait)`, as fractions of the total.
    #[must_use]
    pub fn decomposition(&self) -> (f64, f64, f64) {
        let t = self.total_time.as_nanos() as f64;
        if t == 0.0 {
            return (0.0, 0.0, 0.0);
        }
        (
            self.exec_time.as_nanos() as f64 / t,
            self.sp_latency.as_nanos() as f64 / t,
            self.page_wait.as_nanos() as f64 / t,
        )
    }

    /// Checks that the time buckets partition the total exactly.
    ///
    /// # Panics
    ///
    /// Panics (with the discrepancy) if they do not.
    pub fn assert_conserved(&self) {
        let sum = self.exec_time
            + self.sp_latency
            + self.page_wait
            + self.recv_overhead
            + self.emulation_time
            + self.putpage_overhead;
        assert_eq!(
            sum, self.total_time,
            "time buckets do not partition the total: {sum} vs {}",
            self.total_time
        );
    }

    /// Fraction of the run the inbound wire was occupied — the paper's
    /// congestion indicator.
    #[must_use]
    pub fn wire_utilization(&self) -> f64 {
        self.net_busy.wire_in_utilization(self.total_time)
    }

    /// Mergeable sketch of the per-fault waiting times (nanoseconds),
    /// for every percentile from p50 to p99.99 within a 1/256 relative
    /// error. Built on demand from the fault log rather than stored, so
    /// it is deterministic for a given run whatever recorder (or none)
    /// observed it, and per-node sketches merge exactly associatively
    /// into cluster sketches.
    #[must_use]
    pub fn wait_sketch(&self) -> QuantileSketch {
        let mut s = QuantileSketch::new();
        for f in &self.fault_log {
            s.record(f.wait.as_nanos());
        }
        s
    }

    /// Mean waiting time per fault; zero for a fault-free run.
    #[must_use]
    pub fn mean_fault_wait(&self) -> Duration {
        if self.fault_log.is_empty() {
            Duration::ZERO
        } else {
            let total: Duration = self.fault_log.iter().map(|f| f.wait).sum();
            total / self.fault_log.len() as u64
        }
    }

    /// One-line human-readable summary.
    #[must_use]
    pub fn summary(&self) -> String {
        format!(
            "{} {} ({} frames): {:.2} ms total = exec {:.2} + sp {:.2} + wait {:.2} ms; {} faults",
            self.policy,
            self.memory,
            self.frames,
            self.total_time.as_millis_f64(),
            self.exec_time.as_millis_f64(),
            self.sp_latency.as_millis_f64(),
            self.page_wait.as_millis_f64(),
            self.faults.total(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(total_ms: u64) -> RunReport {
        RunReport {
            total_time: Duration::from_millis(total_ms),
            exec_time: Duration::from_millis(total_ms),
            ..RunReport::default()
        }
    }

    #[test]
    fn speedup_and_reduction() {
        let fast = report(50);
        let slow = report(100);
        assert!((fast.speedup_vs(&slow) - 2.0).abs() < 1e-12);
        assert!((fast.reduction_vs(&slow) - 0.5).abs() < 1e-12);
        assert!((slow.speedup_vs(&fast) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn decomposition_fractions_sum() {
        let r = RunReport {
            total_time: Duration::from_millis(100),
            exec_time: Duration::from_millis(60),
            sp_latency: Duration::from_millis(30),
            page_wait: Duration::from_millis(10),
            ..RunReport::default()
        };
        let (e, s, w) = r.decomposition();
        assert!((e + s + w - 1.0).abs() < 1e-12);
        r.assert_conserved();
    }

    #[test]
    #[should_panic(expected = "do not partition")]
    fn conservation_violation_panics() {
        let r = RunReport {
            total_time: Duration::from_millis(100),
            exec_time: Duration::from_millis(10),
            ..RunReport::default()
        };
        r.assert_conserved();
    }

    #[test]
    fn empty_report_is_harmless() {
        let r = RunReport::default();
        assert_eq!(r.mean_fault_wait(), Duration::ZERO);
        assert_eq!(r.decomposition(), (0.0, 0.0, 0.0));
        r.assert_conserved();
    }

    #[test]
    fn summary_names_policy() {
        let mut r = report(10);
        r.policy = "sp_1024".into();
        r.memory = "1/2-mem".into();
        assert!(r.summary().contains("sp_1024"));
        assert!(r.summary().contains("1/2-mem"));
    }
}
