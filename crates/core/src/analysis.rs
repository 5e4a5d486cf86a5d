//! Cross-run analysis helpers backing the paper's figures.

use gms_units::Duration;

use crate::RunReport;

/// Per-fault waiting times sorted descending — Figure 5's curves ("the
/// faults are sorted by waiting time, with the highest waiting times on
/// the left").
#[must_use]
pub fn sorted_wait_curve(report: &RunReport) -> Vec<Duration> {
    let mut waits: Vec<Duration> = report.fault_log.iter().map(|f| f.wait).collect();
    waits.sort_unstable_by(|a, b| b.cmp(a));
    waits
}

/// Cumulative fault count as a function of the reference clock —
/// Figures 6 and 10 ("for each simulation event, the graph shows the
/// number of page faults that have occurred up to that point").
///
/// Returns `(refs_executed, faults_so_far)` pairs, one per fault.
#[must_use]
pub fn cumulative_fault_series(report: &RunReport) -> Vec<(u64, u64)> {
    report
        .fault_log
        .iter()
        .enumerate()
        .map(|(i, f)| (f.at_ref, (i + 1) as u64))
        .collect()
}

/// Down-samples a series to at most `max_points` evenly-spaced points
/// (keeping the first and last), for compact figure output.
#[must_use]
pub fn downsample<T: Copy>(series: &[T], max_points: usize) -> Vec<T> {
    if max_points == 0 || series.is_empty() {
        return Vec::new();
    }
    if series.len() <= max_points {
        return series.to_vec();
    }
    if max_points == 1 {
        return vec![series[0]];
    }
    let last = series.len() - 1;
    (0..max_points)
        .map(|i| series[i * last / (max_points - 1)])
        .collect()
}

/// A measure of how "bursty" a fault series is: the fraction of faults
/// that occur within the busiest `window_fraction` of the reference
/// clock. High values mean steep Figure-10 staircases (gdb); values near
/// `window_fraction` mean a smooth ramp (Atom).
///
/// # Panics
///
/// Panics if `window_fraction` is not in `(0, 1]`.
#[must_use]
pub fn burstiness(report: &RunReport, window_fraction: f64) -> f64 {
    assert!(
        window_fraction > 0.0 && window_fraction <= 1.0,
        "window fraction must be in (0, 1]"
    );
    let n = report.fault_log.len();
    if n == 0 || report.total_refs == 0 {
        return 0.0;
    }
    let window = ((report.total_refs as f64 * window_fraction).ceil() as u64).max(1);
    // Slide a window over fault positions (two-pointer over the sorted
    // at_ref values, which the log already provides in order).
    let positions: Vec<u64> = report.fault_log.iter().map(|f| f.at_ref).collect();
    let mut best = 0usize;
    let mut lo = 0usize;
    for hi in 0..positions.len() {
        while positions[hi] - positions[lo] > window {
            lo += 1;
        }
        best = best.max(hi - lo + 1);
    }
    best as f64 / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::FaultRecord;
    use gms_obs::FaultClass;
    use gms_units::SimTime;

    fn fault(at_ref: u64, wait_us: u64) -> FaultRecord {
        FaultRecord {
            at_ref,
            at: SimTime::from_nanos(at_ref),
            kind: FaultClass::Remote,
            wait: Duration::from_micros(wait_us),
        }
    }

    fn report_with(faults: Vec<FaultRecord>, total_refs: u64) -> RunReport {
        RunReport {
            fault_log: faults,
            total_refs,
            ..RunReport::default()
        }
    }

    #[test]
    fn wait_curve_sorts_descending() {
        let r = report_with(vec![fault(0, 500), fault(1, 1400), fault(2, 520)], 100);
        let curve = sorted_wait_curve(&r);
        assert_eq!(
            curve,
            vec![
                Duration::from_micros(1400),
                Duration::from_micros(520),
                Duration::from_micros(500)
            ]
        );
    }

    #[test]
    fn cumulative_series_counts_up() {
        let r = report_with(vec![fault(10, 1), fault(20, 1), fault(90, 1)], 100);
        assert_eq!(cumulative_fault_series(&r), vec![(10, 1), (20, 2), (90, 3)]);
    }

    #[test]
    fn downsample_keeps_ends() {
        let series: Vec<u64> = (0..100).collect();
        let ds = downsample(&series, 5);
        assert_eq!(ds.len(), 5);
        assert_eq!(ds[0], 0);
        assert_eq!(ds[4], 99);
        // Short series pass through unchanged.
        assert_eq!(downsample(&series[..3], 5), vec![0, 1, 2]);
        assert!(downsample(&series, 0).is_empty());
        assert_eq!(downsample(&series, 1), vec![0]);
    }

    #[test]
    fn burstiness_separates_staircase_from_ramp() {
        // gdb-like: all faults in a tiny window.
        let clustered = report_with((0..100).map(|i| fault(5000 + i, 1)).collect(), 1_000_000);
        // atom-like: faults spread evenly.
        let smooth = report_with((0..100).map(|i| fault(i * 10_000, 1)).collect(), 1_000_000);
        let b_clustered = burstiness(&clustered, 0.1);
        let b_smooth = burstiness(&smooth, 0.1);
        assert!(b_clustered > 0.99, "{b_clustered}");
        assert!(b_smooth < 0.2, "{b_smooth}");
    }

    #[test]
    fn burstiness_of_empty_report_is_zero() {
        assert_eq!(burstiness(&report_with(vec![], 0), 0.5), 0.0);
    }

    #[test]
    #[should_panic(expected = "window fraction")]
    fn bad_window_panics() {
        let _ = burstiness(&report_with(vec![], 10), 0.0);
    }
}
