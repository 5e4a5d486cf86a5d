//! Streaming trace sources and adapters.

use crate::{Access, Run};

/// A pull-based stream of trace [`Run`]s.
///
/// Implementors produce the reference stream lazily; a 245-million-reference
/// Render trace is never materialized. The simulator drains a source run by
/// run; [`PerRef`] flattens a source into single references.
pub trait TraceSource {
    /// The next run, or `None` when the trace is exhausted.
    fn next_run(&mut self) -> Option<Run>;

    /// Remaining references `(lower_bound, upper_bound)`; `None` for an
    /// unknown upper bound. Defaults to "unknown".
    fn refs_hint(&self) -> (u64, Option<u64>) {
        (0, None)
    }
}

impl<T: TraceSource + ?Sized> TraceSource for Box<T> {
    fn next_run(&mut self) -> Option<Run> {
        (**self).next_run()
    }
    fn refs_hint(&self) -> (u64, Option<u64>) {
        (**self).refs_hint()
    }
}

impl<T: TraceSource + ?Sized> TraceSource for &mut T {
    fn next_run(&mut self) -> Option<Run> {
        (**self).next_run()
    }
    fn refs_hint(&self) -> (u64, Option<u64>) {
        (**self).refs_hint()
    }
}

/// A source backed by an in-memory list of runs. Mostly useful in tests
/// and for replaying traces loaded with [`crate::io`].
#[derive(Debug, Clone, Default)]
pub struct VecSource {
    runs: std::vec::IntoIter<Run>,
}

impl VecSource {
    /// Creates a source that yields `runs` in order.
    #[must_use]
    pub fn new(runs: Vec<Run>) -> Self {
        VecSource {
            runs: runs.into_iter(),
        }
    }
}

impl TraceSource for VecSource {
    fn next_run(&mut self) -> Option<Run> {
        self.runs.next()
    }

    fn refs_hint(&self) -> (u64, Option<u64>) {
        let total = self.runs.as_slice().iter().map(|r| r.count()).sum();
        (total, Some(total))
    }
}

impl FromIterator<Run> for VecSource {
    fn from_iter<I: IntoIterator<Item = Run>>(iter: I) -> Self {
        VecSource::new(iter.into_iter().collect())
    }
}

/// Flattens a source into individual [`Access`]es. Created by [`per_ref`].
#[derive(Debug)]
pub struct PerRef<S> {
    inner: S,
    current: Option<crate::run::RunIter>,
}

/// Iterates a source reference by reference (slow path; prefer consuming
/// whole runs when performance matters).
pub fn per_ref<S: TraceSource>(source: S) -> PerRef<S> {
    PerRef {
        inner: source,
        current: None,
    }
}

impl<S: TraceSource> Iterator for PerRef<S> {
    type Item = Access;

    fn next(&mut self) -> Option<Access> {
        loop {
            if let Some(iter) = self.current.as_mut() {
                if let Some(access) = iter.next() {
                    return Some(access);
                }
                self.current = None;
            }
            self.current = Some(self.inner.next_run()?.iter());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AccessKind;
    use gms_units::VirtAddr;

    fn run(start: u64, count: u64) -> Run {
        Run::new(VirtAddr::new(start), 8, count, AccessKind::Read)
    }

    #[test]
    fn vec_source_yields_in_order() {
        let mut s = VecSource::new(vec![run(0, 2), run(100, 3)]);
        assert_eq!(s.refs_hint(), (5, Some(5)));
        assert_eq!(s.next_run(), Some(run(0, 2)));
        assert_eq!(s.refs_hint(), (3, Some(3)));
        assert_eq!(s.next_run(), Some(run(100, 3)));
        assert_eq!(s.next_run(), None);
    }

    #[test]
    fn per_ref_flattens() {
        let s = VecSource::new(vec![run(0, 2), run(100, 1)]);
        let addrs: Vec<u64> = per_ref(s).map(|a| a.addr.get()).collect();
        assert_eq!(addrs, vec![0, 8, 100]);
    }

    #[test]
    fn from_iterator_collects() {
        let s: VecSource = [run(0, 1), run(8, 1)].into_iter().collect();
        assert_eq!(s.refs_hint().0, 2);
    }
}
