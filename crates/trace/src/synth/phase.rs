//! Phase programs: named sequences of generators.

use core::fmt;

use crate::{Run, TraceSource};

/// A named span of a synthetic workload.
///
/// Phases are the mechanism behind the paper's Figure 6/10 fault
/// clustering: a *scan* phase touches new pages and produces a burst of
/// faults; a *work* phase re-references resident data and produces few.
pub struct Phase {
    name: &'static str,
    source: Box<dyn TraceSource>,
}

impl Phase {
    /// Wraps `source` as the phase called `name`.
    pub fn new(name: &'static str, source: impl TraceSource + 'static) -> Self {
        Phase {
            name,
            source: Box::new(source),
        }
    }

    /// The phase's name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }
}

impl fmt::Debug for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (lo, hi) = self.source.refs_hint();
        f.debug_struct("Phase")
            .field("name", &self.name)
            .field("refs_remaining", &(lo, hi))
            .finish()
    }
}

/// A whole synthetic application: its phases, played in order.
///
/// # Examples
///
/// ```
/// use gms_trace::synth::{Layout, Phase, PhaseProgram, SeqScan, WorkLoop};
/// use gms_trace::{AccessKind, TraceStats};
/// use gms_units::Bytes;
///
/// let mut layout = Layout::new();
/// let data = layout.alloc_pages("data", 8);
/// let mut program = PhaseProgram::new(vec![
///     Phase::new("load", SeqScan::passes(data, 8, 1, AccessKind::Read)),
///     Phase::new("compute", WorkLoop::builder(data).refs(20_000).build()),
/// ]);
/// let stats = TraceStats::collect(&mut program, Bytes::kib(8));
/// assert_eq!(stats.distinct_pages, 8);
/// ```
#[derive(Debug, Default)]
pub struct PhaseProgram {
    phases: std::collections::VecDeque<Phase>,
    current: Option<Phase>,
}

impl PhaseProgram {
    /// Creates a program from phases played front to back.
    #[must_use]
    pub fn new(phases: Vec<Phase>) -> Self {
        PhaseProgram {
            phases: phases.into(),
            current: None,
        }
    }

    /// Appends a phase.
    pub fn push(&mut self, phase: Phase) -> &mut Self {
        self.phases.push_back(phase);
        self
    }
}

impl TraceSource for PhaseProgram {
    fn next_run(&mut self) -> Option<Run> {
        loop {
            if let Some(phase) = self.current.as_mut() {
                if let Some(run) = phase.source.next_run() {
                    return Some(run);
                }
                self.current = None;
            }
            self.current = Some(self.phases.pop_front()?);
        }
    }

    fn refs_hint(&self) -> (u64, Option<u64>) {
        let mut lo = 0u64;
        let mut hi = Some(0u64);
        let all = self.current.iter().chain(self.phases.iter());
        for phase in all {
            let (plo, phi) = phase.source.refs_hint();
            lo += plo;
            hi = hi.zip(phi).map(|(a, b)| a + b);
        }
        (lo, hi)
    }
}

impl FromIterator<Phase> for PhaseProgram {
    fn from_iter<I: IntoIterator<Item = Phase>>(iter: I) -> Self {
        PhaseProgram::new(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{Layout, SeqScan};
    use crate::{AccessKind, TraceStats};
    use gms_units::Bytes;

    #[test]
    fn plays_phases_in_order() {
        let mut layout = Layout::new();
        let a = layout.alloc_pages("a", 1);
        let b = layout.alloc_pages("b", 1);
        let mut prog = PhaseProgram::new(vec![
            Phase::new("first", SeqScan::passes(a, 8, 1, AccessKind::Read)),
            Phase::new("second", SeqScan::passes(b, 8, 1, AccessKind::Read)),
        ]);
        let r1 = prog.next_run().expect("phase 1 run");
        assert_eq!(r1.start(), a.start());
        let r2 = prog.next_run().expect("phase 2 run");
        assert_eq!(r2.start(), b.start());
        assert!(prog.next_run().is_none());
    }

    #[test]
    fn refs_hint_sums_phases() {
        let mut layout = Layout::new();
        let a = layout.alloc_pages("a", 1);
        let prog = PhaseProgram::new(vec![
            Phase::new("x", SeqScan::new(a, 8, 100, AccessKind::Read)),
            Phase::new("y", SeqScan::new(a, 8, 50, AccessKind::Read)),
        ]);
        assert_eq!(prog.refs_hint(), (150, Some(150)));
    }

    #[test]
    fn empty_program_is_empty() {
        let mut prog = PhaseProgram::default();
        assert!(prog.next_run().is_none());
        assert_eq!(prog.refs_hint(), (0, Some(0)));
    }

    #[test]
    fn collects_from_iterator() {
        let mut layout = Layout::new();
        let a = layout.alloc_pages("a", 2);
        let mut prog: PhaseProgram = (0..3)
            .map(|_| Phase::new("p", SeqScan::new(a, 8, 10, AccessKind::Read)))
            .collect();
        let stats = TraceStats::collect(&mut prog, Bytes::kib(8));
        assert_eq!(stats.total_refs, 30);
    }

    #[test]
    fn debug_shows_phase_name() {
        let mut layout = Layout::new();
        let a = layout.alloc_pages("a", 1);
        let phase = Phase::new("load", SeqScan::new(a, 8, 10, AccessKind::Read));
        let dbg = format!("{phase:?}");
        assert!(dbg.contains("load"), "{dbg}");
    }
}
