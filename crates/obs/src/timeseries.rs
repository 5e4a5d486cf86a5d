//! Windowed time-series metrics.
//!
//! [`TimeSeriesRecorder`] is a [`Recorder`] that folds the event
//! stream into fixed-length time windows as it is emitted: per-window
//! fault/restart/timeout/retry counts, per-resource busy time (and so
//! utilization), wait percentiles, stall time and mean in-flight
//! fetches. Because it implements [`Recorder`], it threads through
//! `Simulator::run_recorded` and `ClusterSim::run_recorded` unchanged
//! — or replay an already-captured event stream into it with
//! [`TimeSeriesRecorder::replay`].
//!
//! Two exporters: [`metrics_json`] renders the series as a
//! `gms-metrics/v1` document (one object per window — the
//! time-resolved view that makes a fault plan's degradation window
//! visible as a curve), and [`TimeSeriesRecorder::prometheus_text`]
//! renders the end-of-run cumulative state in the Prometheus text
//! exposition format.
//!
//! Loss itself is not directly observable at the requester (a lost
//! message simply never arrives), so the per-window `timeouts` count
//! is the observed-loss proxy: every lost request or first reply
//! surfaces as exactly one timeout.

use std::collections::BTreeSet;

use gms_units::{Duration, SimTime};

use crate::counters::CounterRegistry;
use crate::event::Event;
use crate::recorder::Recorder;
use crate::sketch::QuantileSketch;

/// Schema tag of the JSON rendering produced by [`metrics_json`].
pub const METRICS_SCHEMA: &str = "gms-metrics/v1";

/// One fixed-length window of the series.
#[derive(Debug, Clone, Default)]
pub struct Window {
    /// Faults that began in this window.
    pub faults: u64,
    /// Restarts (fault completions) in this window.
    pub restarts: u64,
    /// Getpage timeouts expiring in this window (the observed-loss
    /// proxy).
    pub timeouts: u64,
    /// Fetch/putpage retries issued in this window.
    pub retries: u64,
    /// Degraded re-fetches of lost subpages begun in this window.
    pub degraded_fetches: u64,
    /// Putpage write-backs begun in this window.
    pub putpages: u64,
    /// Node crashes in this window.
    pub node_downs: u64,
    /// Node recoveries in this window.
    pub node_ups: u64,
    /// Program stall time for follow-on arrivals overlapping this
    /// window.
    pub stall: Duration,
    /// Total fault-outstanding time overlapping this window: divide by
    /// the window length for the mean number of in-flight fetches.
    pub inflight: Duration,
    /// Busy time per resource kind (summed over nodes), clipped to
    /// this window; indexed like [`crate::ResourceKind::ALL`].
    pub busy: [Duration; 5],
    /// Restart waits of faults completing in this window.
    pub waits: QuantileSketch,
}

/// A [`Recorder`] that folds events into fixed windows on the fly.
#[derive(Debug, Clone)]
pub struct TimeSeriesRecorder {
    window: Duration,
    windows: Vec<Window>,
    nodes: BTreeSet<u32>,
    all_waits: QuantileSketch,
}

impl TimeSeriesRecorder {
    /// A recorder with the given window length.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    #[must_use]
    pub fn new(window: Duration) -> Self {
        assert!(window > Duration::ZERO, "window must be positive");
        TimeSeriesRecorder {
            window,
            windows: Vec::new(),
            nodes: BTreeSet::new(),
            all_waits: QuantileSketch::new(),
        }
    }

    /// Builds a series from an already-captured event stream: the same
    /// folding as recording live, applied after the fact.
    #[must_use]
    pub fn replay<'a, I: IntoIterator<Item = &'a Event>>(window: Duration, events: I) -> Self {
        let mut rec = TimeSeriesRecorder::new(window);
        for e in events {
            rec.record(*e);
        }
        rec
    }

    /// The window length.
    #[must_use]
    pub fn window(&self) -> Duration {
        self.window
    }

    /// The windows, in time order from `t = 0`. The last window is
    /// partial (the run ends inside it).
    #[must_use]
    pub fn windows(&self) -> &[Window] {
        &self.windows
    }

    /// Distinct nodes observed in the stream — the denominator for
    /// per-resource utilization.
    #[must_use]
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Restart waits over the whole run (all windows merged).
    #[must_use]
    pub fn all_waits(&self) -> &QuantileSketch {
        &self.all_waits
    }

    fn at(&mut self, t: SimTime) -> &mut Window {
        let i = (t.as_nanos() / self.window.as_nanos()) as usize;
        if self.windows.len() <= i {
            self.windows.resize_with(i + 1, Window::default);
        }
        &mut self.windows[i]
    }

    /// Applies `f(window, overlap)` to every window the span
    /// `[start, end)` overlaps, with the clipped overlap length.
    fn clip<F: FnMut(&mut Window, Duration)>(&mut self, start: SimTime, end: SimTime, mut f: F) {
        if end <= start {
            return;
        }
        let w = self.window.as_nanos();
        let (s, e) = (start.as_nanos(), end.as_nanos());
        let last = ((e - 1) / w) as usize;
        if self.windows.len() <= last {
            self.windows.resize_with(last + 1, Window::default);
        }
        for (i, win) in self.windows[(s / w) as usize..=last].iter_mut().enumerate() {
            let ws = (s / w + i as u64) * w;
            let lo = s.max(ws);
            let hi = e.min(ws + w);
            f(win, Duration::from_nanos(hi - lo));
        }
    }
}

impl Recorder for TimeSeriesRecorder {
    const ENABLED: bool = true;

    fn record(&mut self, event: Event) {
        self.nodes.insert(event.node().index());
        match event {
            Event::Fault { at, .. } => self.at(at).faults += 1,
            Event::Restart { at, wait, .. } => {
                let win = self.at(at);
                win.restarts += 1;
                win.waits.record(wait.as_nanos());
                self.all_waits.record(wait.as_nanos());
                // The fault was outstanding from `at - wait` to `at`.
                let from = SimTime::from_nanos(at.as_nanos() - wait.as_nanos());
                self.clip(from, at, |w, d| w.inflight += d);
            }
            Event::Timeout { at, .. } => self.at(at).timeouts += 1,
            Event::Retry { at, .. } => self.at(at).retries += 1,
            Event::DegradedFetch { at, .. } => self.at(at).degraded_fetches += 1,
            Event::PutPage { at, .. } => self.at(at).putpages += 1,
            Event::NodeDown { at, .. } => self.at(at).node_downs += 1,
            Event::NodeUp { at, .. } => self.at(at).node_ups += 1,
            Event::Stall { start, end, .. } => {
                self.clip(start, end, |w, d| w.stall += d);
            }
            Event::Occupancy {
                resource,
                start,
                end,
                ..
            } => {
                let i = resource.index();
                self.clip(start, end, |w, d| w.busy[i] += d);
            }
            Event::GetPage { .. }
            | Event::Arrival { .. }
            | Event::Failover { .. }
            | Event::PolicyDecision { .. }
            | Event::Prefetch { .. }
            | Event::ReplicaWrite { .. }
            | Event::Repair { .. }
            | Event::DirectoryRebuild { .. } => {}
        }
    }
}

impl TimeSeriesRecorder {
    /// The end-of-run cumulative state in the Prometheus text
    /// exposition format (counters, per-resource busy gauges, wait
    /// quantiles).
    #[must_use]
    pub fn prometheus_text(&self) -> String {
        let sum = |f: fn(&Window) -> u64| -> u64 { self.windows.iter().map(f).sum() };
        let mut out = String::new();
        let mut counter = |name: &str, help: &str, v: u64| {
            out.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} counter\n{name} {v}\n"
            ));
        };
        counter("gms_faults_total", "Page faults begun.", sum(|w| w.faults));
        counter(
            "gms_restarts_total",
            "Fault completions (program restarts).",
            sum(|w| w.restarts),
        );
        counter(
            "gms_timeouts_total",
            "Getpage timeouts (observed message loss).",
            sum(|w| w.timeouts),
        );
        counter("gms_retries_total", "Retries issued.", sum(|w| w.retries));
        counter(
            "gms_degraded_fetches_total",
            "Degraded re-fetches of lost subpages.",
            sum(|w| w.degraded_fetches),
        );
        counter(
            "gms_putpages_total",
            "Putpage write-backs.",
            sum(|w| w.putpages),
        );
        counter(
            "gms_node_downs_total",
            "Node crashes.",
            sum(|w| w.node_downs),
        );

        let stall: Duration = self.windows.iter().map(|w| w.stall).sum();
        out.push_str(&format!(
            "# HELP gms_stall_seconds_total Program stall time for follow-on arrivals.\n\
             # TYPE gms_stall_seconds_total counter\n\
             gms_stall_seconds_total {:.9}\n",
            stall.as_nanos() as f64 / 1e9
        ));

        out.push_str(
            "# HELP gms_resource_busy_seconds_total Busy time per resource kind, summed over nodes.\n\
             # TYPE gms_resource_busy_seconds_total counter\n",
        );
        for r in crate::ResourceKind::ALL {
            let busy: Duration = self.windows.iter().map(|w| w.busy[r.index()]).sum();
            out.push_str(&format!(
                "gms_resource_busy_seconds_total{{resource=\"{}\"}} {:.9}\n",
                r.label(),
                busy.as_nanos() as f64 / 1e9
            ));
        }

        out.push_str(
            "# HELP gms_wait_seconds Restart wait quantiles over the whole run.\n\
             # TYPE gms_wait_seconds summary\n",
        );
        if self.all_waits.count() > 0 {
            for (q, label) in [(0.5, "0.5"), (0.9, "0.9"), (0.99, "0.99")] {
                out.push_str(&format!(
                    "gms_wait_seconds{{quantile=\"{label}\"}} {:.9}\n",
                    self.all_waits.quantile(q) as f64 / 1e9
                ));
            }
        }
        out.push_str(&format!(
            "gms_wait_seconds_sum {:.9}\ngms_wait_seconds_count {}\n",
            self.all_waits.sum() as f64 / 1e9,
            self.all_waits.count()
        ));
        out
    }
}

/// Renders the series as a `gms-metrics/v1` JSON document: one object
/// per window with counters, per-resource utilization, stall time,
/// mean in-flight fetches and wait percentiles.
#[must_use]
pub fn metrics_json(ts: &TimeSeriesRecorder) -> String {
    let window_ns = ts.window().as_nanos();
    let nodes = ts.n_nodes().max(1) as u64;
    let util_keys =
        crate::ResourceKind::ALL.map(|r| format!("util_{}", r.label().replace('-', "_")));
    let mut out = format!(
        "{{\"schema\":\"{METRICS_SCHEMA}\",\"window_ns\":{window_ns},\"nodes\":{},\"windows\":[",
        ts.n_nodes()
    );
    // One registry serves every window: each `set` overwrites a value in
    // place, so key names are allocated once.
    let mut reg = CounterRegistry::new();
    for (i, w) in ts.windows().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        reg.set("t_ns", i as u64 * window_ns);
        reg.set("faults", w.faults);
        reg.set("restarts", w.restarts);
        reg.set("timeouts", w.timeouts);
        reg.set("retries", w.retries);
        reg.set("degraded_fetches", w.degraded_fetches);
        reg.set("putpages", w.putpages);
        reg.set("node_downs", w.node_downs);
        reg.set("node_ups", w.node_ups);
        reg.set("stall_ns", w.stall.as_nanos());
        reg.set_f64(
            "inflight_mean",
            w.inflight.as_nanos() as f64 / window_ns as f64,
        );
        for (r, key) in crate::ResourceKind::ALL.iter().zip(&util_keys) {
            // Aggregate utilization: busy time over every node's copy of
            // this resource. The last window is partial, so its
            // utilization is understated.
            reg.set_f64(
                key,
                w.busy[r.index()].as_nanos() as f64 / (window_ns * nodes) as f64,
            );
        }
        reg.set("wait_count", w.waits.count());
        reg.set("wait_p50_ns", w.waits.quantile(0.5));
        reg.set("wait_p99_ns", w.waits.quantile(0.99));
        reg.write_json(&mut out);
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{FaultClass, ResourceKind};
    use crate::json::JsonValue;
    use gms_units::NodeId;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn spans_clip_across_window_boundaries() {
        let mut ts = TimeSeriesRecorder::new(Duration::from_nanos(1_000));
        ts.record(Event::Occupancy {
            node: NodeId::new(0),
            resource: ResourceKind::Cpu,
            what: "fault+request",
            ready: t(500),
            start: t(500),
            end: t(2_500),
        });
        assert_eq!(ts.windows().len(), 3);
        assert_eq!(ts.windows()[0].busy[0], Duration::from_nanos(500));
        assert_eq!(ts.windows()[1].busy[0], Duration::from_nanos(1_000));
        assert_eq!(ts.windows()[2].busy[0], Duration::from_nanos(500));
        let total: Duration = ts.windows().iter().map(|w| w.busy[0]).sum();
        assert_eq!(total, Duration::from_nanos(2_000));
    }

    #[test]
    fn counters_and_waits_land_in_their_windows() {
        let mut ts = TimeSeriesRecorder::new(Duration::from_nanos(1_000));
        ts.record(Event::Fault {
            node: NodeId::new(0),
            page: 1,
            subpage: 0,
            class: FaultClass::Remote,
            at_ref: 1,
            at: t(100),
        });
        ts.record(Event::Restart {
            node: NodeId::new(0),
            page: 1,
            at: t(1_600),
            wait: Duration::from_nanos(1_500),
        });
        assert_eq!(ts.windows()[0].faults, 1);
        assert_eq!(ts.windows()[1].restarts, 1);
        assert_eq!(ts.windows()[1].waits.count(), 1);
        // In-flight coverage: [100, 1600) split 900 / 600.
        assert_eq!(ts.windows()[0].inflight, Duration::from_nanos(900));
        assert_eq!(ts.windows()[1].inflight, Duration::from_nanos(600));
        assert_eq!(ts.all_waits().count(), 1);
    }

    #[test]
    fn metrics_json_parses_with_schema_and_utils_in_range() {
        let mut ts = TimeSeriesRecorder::new(Duration::from_nanos(1_000));
        ts.record(Event::Occupancy {
            node: NodeId::new(0),
            resource: ResourceKind::WireIn,
            what: "data",
            ready: t(0),
            start: t(0),
            end: t(800),
        });
        let doc = JsonValue::parse(&metrics_json(&ts)).expect("valid JSON");
        assert_eq!(doc.get("schema").unwrap().as_str(), Some(METRICS_SCHEMA));
        assert_eq!(doc.get("window_ns").unwrap().as_u64(), Some(1_000));
        let windows = doc.get("windows").unwrap().as_array().unwrap();
        assert_eq!(windows.len(), 1);
        let util = windows[0].get("util_wire_in").unwrap().as_f64().unwrap();
        assert!((util - 0.8).abs() < 1e-9, "got {util}");
    }

    #[test]
    fn prometheus_text_has_types_and_totals() {
        let mut ts = TimeSeriesRecorder::new(Duration::from_nanos(1_000));
        ts.record(Event::Timeout {
            node: NodeId::new(0),
            page: 1,
            attempt: 1,
            at: t(50),
        });
        ts.record(Event::Restart {
            node: NodeId::new(0),
            page: 1,
            at: t(500),
            wait: Duration::from_nanos(400),
        });
        let text = ts.prometheus_text();
        assert!(text.contains("# TYPE gms_timeouts_total counter"));
        assert!(text.contains("gms_timeouts_total 1"));
        assert!(text.contains("gms_wait_seconds_count 1"));
        assert!(text.contains("resource=\"cpu\""));
    }
}
