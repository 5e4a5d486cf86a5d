//! Follow-on sequencing strategies for subpage pipelining.
//!
//! [`MessagePlan`] is the common currency of the policy layer: the
//! static [`FetchPolicy`](crate::FetchPolicy) planner builds one per
//! fault from geometry alone, and the adaptive
//! [`PolicyEngine`](crate::PolicyEngine)s (leap, indigo) build theirs
//! from observed fault history — the engine downstream of the plan
//! never knows or cares which produced it.

use gms_mem::{Geometry, SubpageIndex, SubpageMask};
use gms_units::Bytes;

/// How the rest of a faulted page is sequenced behind the initial
/// subpage (§4.3).
///
/// Figure 7 shows that the subpage touched next after a fault is most
/// often the `+1` neighbour, sometimes the `−1` neighbour; the paper's
/// measured scheme pipelines those two, then ships the remainder in one
/// message. §4.3 also sketches two variants, both implemented here.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PipelineStrategy {
    /// The paper's scheme: `+1`, then `−1`, then the remainder as one
    /// message.
    #[default]
    NeighborsFirst,
    /// All following subpages one by one (ascending), then the preceding
    /// ones (descending) — maximal pipelining.
    Ascending,
    /// §4.3: "we doubled the size of the pipeline transfers" — the `+1`
    /// and `+2` neighbours ride in one double-sized message, then `−1`,
    /// then the remainder.
    DoubledFollowOn,
    /// §4.3: the initial transfer is doubled instead — the neighbour on
    /// the side of the fault's offset within the subpage ("preceding or
    /// following, depending on where in the subpage the faulted word was
    /// located") joins the first message; the remainder follows in one
    /// message.
    AdaptiveHalf,
}

/// A planned fault transfer: per-message subpage payloads.
///
/// `groups[0]` is the initial message the program blocks on; the rest are
/// follow-ons in send order. Produced by [`PipelineStrategy::plan`] and by
/// the eager/fullpage planners in [`crate::FetchPolicy`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MessagePlan {
    groups: Vec<SubpageMask>,
}

impl MessagePlan {
    /// Creates a plan from explicit per-message subpage sets.
    ///
    /// # Panics
    ///
    /// Panics if there are no groups or any group is empty.
    #[must_use]
    pub fn new(groups: Vec<SubpageMask>) -> Self {
        assert!(!groups.is_empty(), "a plan needs at least one message");
        assert!(
            groups.iter().all(|g| !g.is_empty()),
            "messages must carry at least one subpage"
        );
        MessagePlan { groups }
    }

    /// Per-message subpage sets, initial message first.
    #[must_use]
    pub fn groups(&self) -> &[SubpageMask] {
        &self.groups
    }

    /// Message sizes in bytes for the given geometry.
    #[must_use]
    pub fn message_sizes(&self, geom: Geometry) -> Vec<Bytes> {
        self.groups
            .iter()
            .map(|g| geom.subpage_size().bytes() * u64::from(g.count()))
            .collect()
    }
}

impl PipelineStrategy {
    /// Plans the messages for a fault on subpage `faulted` of a wholly
    /// non-resident page: which subpages ride in which message, in order.
    ///
    /// Every subpage of the page appears exactly once across the plan.
    ///
    /// The fault's byte offset *within* the subpage (`offset_in_subpage`,
    /// as a fraction in `[0, 1)`) feeds the [`AdaptiveHalf`] variant.
    ///
    /// [`AdaptiveHalf`]: PipelineStrategy::AdaptiveHalf
    #[must_use]
    pub fn plan(
        self,
        geom: Geometry,
        faulted: SubpageIndex,
        offset_in_subpage: f64,
    ) -> MessagePlan {
        let n = geom.subpages_per_page();
        let f = faulted.get();
        debug_assert!(u32::from(f) < n);
        let one = |s: SubpageIndex| SubpageMask::single(n, s);
        let mut remaining = SubpageMask::full(n).difference(one(faulted));
        // Moves subpage `i` out of `remaining`, if it is still there.
        let take = |remaining: &mut SubpageMask, i: u8| -> Option<SubpageIndex> {
            let s = (u32::from(i) < n).then(|| SubpageIndex::new(i))?;
            remaining.clear(s).then_some(s)
        };

        let mut groups = Vec::new();
        match self {
            PipelineStrategy::NeighborsFirst => {
                groups.push(one(faulted));
                if let Some(next) = f.checked_add(1).and_then(|i| take(&mut remaining, i)) {
                    groups.push(one(next));
                }
                if let Some(prev) = f.checked_sub(1).and_then(|i| take(&mut remaining, i)) {
                    groups.push(one(prev));
                }
            }
            PipelineStrategy::Ascending => {
                groups.push(one(faulted));
                for i in (f + 1..n as u8).chain((0..f).rev()) {
                    if let Some(s) = take(&mut remaining, i) {
                        groups.push(one(s));
                    }
                }
            }
            PipelineStrategy::DoubledFollowOn => {
                groups.push(one(faulted));
                let mut double = SubpageMask::empty(n);
                for i in [f.checked_add(1), f.checked_add(2)].into_iter().flatten() {
                    if let Some(s) = take(&mut remaining, i) {
                        double.set(s);
                    }
                }
                if !double.is_empty() {
                    groups.push(double);
                }
                if let Some(prev) = f.checked_sub(1).and_then(|i| take(&mut remaining, i)) {
                    groups.push(one(prev));
                }
            }
            PipelineStrategy::AdaptiveHalf => {
                // The companion rides in the *initial* message.
                let mut first = one(faulted);
                let companion = if offset_in_subpage >= 0.5 {
                    f.checked_add(1)
                } else {
                    f.checked_sub(1)
                };
                if let Some(s) = companion.and_then(|i| take(&mut remaining, i)) {
                    first.set(s);
                }
                groups.push(first);
            }
        }

        if !remaining.is_empty() {
            groups.push(remaining);
        }
        MessagePlan::new(groups)
    }

    /// Short name for reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            PipelineStrategy::NeighborsFirst => "neighbors-first",
            PipelineStrategy::Ascending => "ascending",
            PipelineStrategy::DoubledFollowOn => "doubled-followon",
            PipelineStrategy::AdaptiveHalf => "adaptive-half",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FetchPolicy, IndigoEngine, LeapEngine, PlannedFault, PolicyEngine, PolicyEvent};
    use gms_mem::{PageSize, SubpageSize};
    use gms_obs::PolicyChoice;
    use gms_units::SimTime;

    fn geom() -> Geometry {
        Geometry::new(PageSize::P8K, SubpageSize::S1K) // 8 subpages
    }

    fn mask(subs: &[u8]) -> SubpageMask {
        let mut m = SubpageMask::empty(8);
        for &s in subs {
            m.set(SubpageIndex::new(s));
        }
        m
    }

    /// The lowest subpage of each message, in send order.
    fn firsts(plan: &MessagePlan) -> Vec<u8> {
        plan.groups()
            .iter()
            .map(|g| g.iter().next().expect("non-empty group").get())
            .collect()
    }

    /// Checks one plan for a fault on `faulted`: its messages are
    /// pairwise disjoint, the first carries the faulted subpage, and the
    /// message sizes add up to the subpages moved. Returns the union.
    fn moved(plan: &MessagePlan, geom: Geometry, faulted: SubpageIndex) -> SubpageMask {
        let mut union = SubpageMask::empty(geom.subpages_per_page());
        for g in plan.groups() {
            assert_eq!(union.bits() & g.bits(), 0, "messages overlap: {plan:?}");
            union.union_with(*g);
        }
        assert!(plan.groups()[0].contains(faulted), "{plan:?}");
        let bytes: Bytes = plan.message_sizes(geom).into_iter().sum();
        assert_eq!(
            bytes,
            geom.subpage_size().bytes() * u64::from(union.count())
        );
        union
    }

    /// A leap engine whose region history strides by 2 (subpages 0, 2,
    /// 4, 6 of page 0) when it plans a fault on page 1.
    fn leap_with_stride(geom: Geometry, faulted: SubpageIndex) -> PlannedFault {
        let subpage = geom.subpage_size();
        let mut engine = LeapEngine::new(FetchPolicy::leap(subpage));
        for s in [0u8, 2, 4, 6] {
            engine.observe(PolicyEvent::Touch {
                page: 0,
                subpage: SubpageIndex::new(s),
            });
        }
        engine.observe(PolicyEvent::Fault {
            page: 1,
            subpage: faulted,
            at: SimTime::ZERO,
        });
        engine.plan_fault(geom, faulted, 0.0)
    }

    /// An indigo engine planning page 7's fault, after an earlier fault
    /// on it `gap_ns` before (hot within 10 ms).
    fn indigo_after(geom: Geometry, faulted: SubpageIndex, gap_ns: u64) -> PlannedFault {
        let mut engine = IndigoEngine::new(FetchPolicy::indigo(geom.subpage_size()));
        for at in [0, gap_ns] {
            engine.observe(PolicyEvent::Fault {
                page: 7,
                subpage: faulted,
                at: SimTime::from_nanos(at),
            });
        }
        engine.plan_fault(geom, faulted, 0.0)
    }

    #[test]
    fn every_strategy_covers_the_page_exactly_once() {
        // Widths 1, 8, 32 and 64 on an 8 KB page; bit 63 rides through
        // every planner at width 64.
        for sub_bytes in [8192u64, 1024, 256, 128] {
            let geom = Geometry::new(PageSize::P8K, SubpageSize::new(Bytes::new(sub_bytes)));
            let n = geom.subpages_per_page();
            let full = SubpageMask::full(n);
            for f in [0u8, 31, 32, 63].into_iter().filter(|&f| u32::from(f) < n) {
                let faulted = SubpageIndex::new(f);
                let case = format!("{n} subpages, fault {f}");
                for strategy in [
                    PipelineStrategy::NeighborsFirst,
                    PipelineStrategy::Ascending,
                    PipelineStrategy::DoubledFollowOn,
                    PipelineStrategy::AdaptiveHalf,
                ] {
                    for offset in [0.1, 0.9] {
                        let plan = strategy.plan(geom, faulted, offset);
                        assert_eq!(moved(&plan, geom, faulted), full, "{strategy:?} {case}");
                    }
                }
                let eager = FetchPolicy::eager(geom.subpage_size()).plan_fault(geom, faulted, 0.5);
                assert_eq!(moved(&eager, geom, faulted), full, "eager {case}");
                assert_eq!(eager.groups().len(), if n == 1 { 1 } else { 2 });

                let leap = leap_with_stride(geom, faulted);
                assert_eq!(moved(&leap.plan, geom, faulted), full, "leap {case}");
                if n > 1 {
                    assert_eq!(leap.decision, Some((PolicyChoice::Stride, 2)), "{case}");
                }

                let hot = indigo_after(geom, faulted, 1_000_000);
                assert_eq!(moved(&hot.plan, geom, faulted), full, "indigo hot {case}");
                let cold = indigo_after(geom, faulted, 50_000_000);
                assert_eq!(
                    moved(&cold.plan, geom, faulted),
                    SubpageMask::single(n, faulted),
                    "indigo cold {case}"
                );
            }
        }
    }

    #[test]
    fn neighbors_first_orders_plus_one_then_minus_one() {
        let plan = PipelineStrategy::NeighborsFirst.plan(geom(), SubpageIndex::new(3), 0.0);
        assert_eq!(firsts(&plan)[..3], [3, 4, 2]);
        // Remainder in one message.
        assert_eq!(plan.groups().len(), 4);
        assert_eq!(plan.groups()[3].count(), 5);
    }

    #[test]
    fn neighbors_first_at_page_edges() {
        let at0 = PipelineStrategy::NeighborsFirst.plan(geom(), SubpageIndex::new(0), 0.0);
        assert_eq!(at0.groups()[1], mask(&[1]));
        assert_eq!(at0.groups().len(), 3); // no -1 neighbour
        let at7 = PipelineStrategy::NeighborsFirst.plan(geom(), SubpageIndex::new(7), 0.0);
        assert_eq!(at7.groups()[1], mask(&[6]));
        assert_eq!(at7.groups().len(), 3); // no +1 neighbour
    }

    #[test]
    fn ascending_sends_every_subpage_individually() {
        let plan = PipelineStrategy::Ascending.plan(geom(), SubpageIndex::new(2), 0.0);
        assert_eq!(plan.groups().len(), 8);
        assert_eq!(firsts(&plan), vec![2, 3, 4, 5, 6, 7, 1, 0]);
    }

    #[test]
    fn doubled_followon_pairs_the_next_two() {
        let plan = PipelineStrategy::DoubledFollowOn.plan(geom(), SubpageIndex::new(3), 0.0);
        assert_eq!(plan.groups()[0], mask(&[3]));
        assert_eq!(plan.groups()[1], mask(&[4, 5]));
        assert_eq!(plan.groups()[2], mask(&[2]));
        let sizes = plan.message_sizes(geom());
        assert_eq!(sizes[1], Bytes::kib(2)); // double-sized message
    }

    #[test]
    fn adaptive_half_picks_side_by_offset() {
        let high = PipelineStrategy::AdaptiveHalf.plan(geom(), SubpageIndex::new(3), 0.8);
        assert_eq!(
            high.groups()[0],
            mask(&[3, 4]),
            "fault near the end pulls the following subpage"
        );
        let low = PipelineStrategy::AdaptiveHalf.plan(geom(), SubpageIndex::new(3), 0.2);
        assert_eq!(
            low.groups()[0],
            mask(&[2, 3]),
            "fault near the start pulls the preceding subpage"
        );
    }

    #[test]
    fn single_subpage_geometry_degenerates() {
        let g = Geometry::fullpage_8k();
        let plan = PipelineStrategy::NeighborsFirst.plan(g, SubpageIndex::new(0), 0.0);
        assert_eq!(plan.groups().len(), 1);
        assert_eq!(plan.message_sizes(g), vec![Bytes::kib(8)]);
    }

    #[test]
    fn message_sizes_scale_with_group_len() {
        let plan = MessagePlan::new(vec![mask(&[0]), mask(&[1, 2, 3])]);
        let g = Geometry::new(PageSize::P8K, SubpageSize::S2K);
        assert_eq!(plan.message_sizes(g), vec![Bytes::kib(2), Bytes::kib(6)]);
    }

    #[test]
    #[should_panic(expected = "at least one subpage")]
    fn empty_group_panics() {
        let _ = MessagePlan::new(vec![SubpageMask::empty(8)]);
    }

    #[test]
    fn names_are_distinct() {
        let names: std::collections::HashSet<_> = [
            PipelineStrategy::NeighborsFirst,
            PipelineStrategy::Ascending,
            PipelineStrategy::DoubledFollowOn,
            PipelineStrategy::AdaptiveHalf,
        ]
        .iter()
        .map(|s| s.name())
        .collect();
        assert_eq!(names.len(), 4);
    }
}
