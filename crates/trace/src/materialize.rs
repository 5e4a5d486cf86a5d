//! Materialized traces: synthesize once, replay many times.
//!
//! The synthetic generators in [`synth`](crate::synth) are deterministic
//! but not free — a paper-scale application trace costs millions of RNG
//! draws to produce. Experiment grids ([`gms-core`'s sweeps]) replay the
//! *same* trace for every `(policy, memory)` cell, so synthesizing it
//! per cell multiplies that cost by the grid size and, worse,
//! serializes it.
//!
//! [`MaterializedTrace`] captures a [`TraceSource`]'s full run sequence
//! into a compact `Vec<Run>` (the RLE representation stays compact:
//! runs, not references). Cheap borrowing cursors
//! ([`MaterializedTrace::cursor`]) then re-iterate it any number of
//! times. Replaying a cursor is bit-identical to draining the original
//! source, so simulation results are unchanged; they only arrive sooner.

use crate::{Run, TraceSource};

/// A fully-synthesized trace, replayable any number of times.
///
/// # Examples
///
/// ```
/// use gms_trace::{apps, MaterializedTrace, TraceSource};
///
/// let app = apps::gdb().scaled(0.05);
/// let trace = MaterializedTrace::capture(&mut *app.source());
/// assert_eq!(trace.total_refs(), app.target_refs());
///
/// // Two replays yield the identical run sequence.
/// let mut a = trace.cursor();
/// let mut b = trace.cursor();
/// while let Some(run) = a.next_run() {
///     assert_eq!(Some(run), b.next_run());
/// }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MaterializedTrace {
    runs: Vec<Run>,
    total_refs: u64,
}

impl MaterializedTrace {
    /// Drains `source` into a materialized trace.
    pub fn capture(source: &mut dyn TraceSource) -> Self {
        let (lower, _) = source.refs_hint();
        // Runs average well over one reference; the lower hint still
        // bounds the reallocation count usefully.
        let mut runs = Vec::with_capacity((lower / 64).min(1 << 20) as usize);
        let mut total_refs = 0u64;
        while let Some(run) = source.next_run() {
            total_refs += run.count();
            runs.push(run);
        }
        MaterializedTrace { runs, total_refs }
    }

    /// Wraps an explicit run list.
    #[must_use]
    pub fn from_runs(runs: Vec<Run>) -> Self {
        let total_refs = runs.iter().map(|r| r.count()).sum();
        MaterializedTrace { runs, total_refs }
    }

    /// The captured runs, in replay order.
    #[must_use]
    pub fn runs(&self) -> &[Run] {
        &self.runs
    }

    /// Total references across all runs.
    #[must_use]
    pub fn total_refs(&self) -> u64 {
        self.total_refs
    }

    /// A borrowing cursor over the trace, starting at the beginning.
    #[must_use]
    pub fn cursor(&self) -> TraceCursor<'_> {
        TraceCursor {
            trace: self,
            pos: 0,
            refs_left: self.total_refs,
        }
    }
}

/// A replay cursor borrowing a [`MaterializedTrace`].
#[derive(Debug, Clone)]
pub struct TraceCursor<'a> {
    trace: &'a MaterializedTrace,
    pos: usize,
    refs_left: u64,
}

impl TraceSource for TraceCursor<'_> {
    fn next_run(&mut self) -> Option<Run> {
        let run = self.trace.runs.get(self.pos).copied()?;
        self.pos += 1;
        self.refs_left -= run.count();
        Some(run)
    }

    fn refs_hint(&self) -> (u64, Option<u64>) {
        (self.refs_left, Some(self.refs_left))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps;
    use crate::{AccessKind, VecSource};
    use gms_units::VirtAddr;

    fn toy_runs() -> Vec<Run> {
        vec![
            Run::new(VirtAddr::new(0x1000), 8, 100, AccessKind::Read),
            Run::new(VirtAddr::new(0x9000), -8, 50, AccessKind::Write),
            Run::new(VirtAddr::new(0x2000), 0, 7, AccessKind::Read),
        ]
    }

    #[test]
    fn capture_preserves_run_sequence_and_counts() {
        let runs = toy_runs();
        let trace = MaterializedTrace::capture(&mut VecSource::new(runs.clone()));
        assert_eq!(trace.runs(), &runs[..]);
        assert_eq!(trace.total_refs(), 157);
    }

    #[test]
    fn cursors_replay_identically_and_independently() {
        let trace = MaterializedTrace::from_runs(toy_runs());
        let mut a = trace.cursor();
        let mut b = trace.cursor();
        // Interleave the two cursors: each sees the full sequence.
        let mut seen_a = Vec::new();
        let mut seen_b = Vec::new();
        loop {
            match (a.next_run(), b.next_run()) {
                (None, None) => break,
                (ra, rb) => {
                    assert_eq!(ra, rb);
                    seen_a.extend(ra);
                    seen_b.extend(rb);
                }
            }
        }
        assert_eq!(seen_a, trace.runs());
        assert_eq!(seen_b, trace.runs());
    }

    #[test]
    fn refs_hint_tracks_consumption() {
        let trace = MaterializedTrace::from_runs(toy_runs());
        let mut c = trace.cursor();
        assert_eq!(c.refs_hint(), (157, Some(157)));
        let first = c.next_run().expect("non-empty");
        assert_eq!(
            c.refs_hint(),
            (157 - first.count(), Some(157 - first.count()))
        );
        while c.next_run().is_some() {}
        assert_eq!(c.refs_hint(), (0, Some(0)));
    }

    #[test]
    fn capture_matches_app_source_exactly() {
        let app = apps::gdb().scaled(0.05);
        let trace = MaterializedTrace::capture(&mut *app.source());
        assert_eq!(trace.total_refs(), app.target_refs());
        // A second synthesis produces the same sequence (sources are
        // deterministic), so replay == resynthesis.
        let again = MaterializedTrace::capture(&mut *app.source());
        assert_eq!(trace, again);
    }
}
