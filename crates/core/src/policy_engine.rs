//! Per-run stateful policy engines.
//!
//! [`FetchPolicy`] stays a static *description* — label, parsing,
//! geometry — while the planning itself runs through a [`PolicyEngine`]
//! instantiated per node per run. The engine observes the node's own
//! fault/touch history and turns each whole-page fault into a
//! [`MessagePlan`]; static policies use the history-blind
//! [`StaticEngine`] (whose plans are byte-identical to calling
//! [`FetchPolicy::plan_fault`] directly), the adaptive policies carry
//! real state.
//!
//! # Determinism rules
//!
//! Cluster runs must reproduce byte for byte, so an engine's state may
//! be fed *only* from its own node's trace, in that node's execution
//! order:
//!
//! * one engine per node, owned by the node driver — never shared;
//! * observations arrive in the node's deterministic replay order
//!   (local segments run in trace order, shared sections commit in
//!   canonical park order);
//! * `plan_fault` may depend only on prior observations and its
//!   arguments — no wall-clock, randomness, or cross-node state.

use std::collections::VecDeque;

use gms_mem::{Geometry, SubpageIndex, SubpageMask};
use gms_obs::PolicyChoice;
use gms_units::{Duration, FastMap, SimTime};

use crate::pipeline::{MessagePlan, PipelineStrategy};
use crate::policy::FetchPolicy;

/// One fault-history observation fed to a [`PolicyEngine`], in the
/// owning node's execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyEvent {
    /// A fault demanded `subpage` of non-resident (or, for demand
    /// refills, partially resident) `page`.
    Fault {
        /// The faulted page (node-local id).
        page: u64,
        /// The demanded subpage.
        subpage: SubpageIndex,
        /// The node's clock at the fault.
        at: SimTime,
    },
    /// The program touched `subpage` of resident `page`. Touches carry
    /// no time: the driver observes a quiescent node's touches in trace
    /// order but credits their execution time in batches, so its clock
    /// at a touch is not the touch's instant.
    Touch {
        /// The touched page (node-local id).
        page: u64,
        /// The touched subpage.
        subpage: SubpageIndex,
    },
}

/// What an engine decided for one whole-page fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlannedFault {
    /// The transfer plan (`groups()[0]` is the blocking initial
    /// message).
    pub plan: MessagePlan,
    /// The adaptive decision behind the plan, with the predicted stride
    /// for stride decisions. `None` from static engines — the absence
    /// is what keeps their recorded streams byte-identical to the
    /// pre-engine simulator.
    pub decision: Option<(PolicyChoice, i8)>,
}

/// A per-run, per-node fault planner.
pub trait PolicyEngine {
    /// Feeds one observation from the owning node's history.
    fn observe(&mut self, event: PolicyEvent);

    /// Plans the messages for a fault on `faulted` of a wholly
    /// non-resident page, in the light of everything observed so far.
    /// Every subpage of the page must appear exactly once across the
    /// plan unless the policy demand-fills ([`FetchPolicy::demand_fills`]).
    fn plan_fault(
        &mut self,
        geom: Geometry,
        faulted: SubpageIndex,
        offset_in_subpage: f64,
    ) -> PlannedFault;
}

/// The history-blind engine carrying the five static paper policies:
/// delegates every plan to [`FetchPolicy::plan_fault`] and ignores
/// observations.
#[derive(Debug, Clone)]
pub struct StaticEngine {
    policy: FetchPolicy,
}

impl StaticEngine {
    /// Wraps a static policy description.
    #[must_use]
    pub fn new(policy: FetchPolicy) -> Self {
        StaticEngine { policy }
    }
}

impl PolicyEngine for StaticEngine {
    fn observe(&mut self, _event: PolicyEvent) {}

    fn plan_fault(
        &mut self,
        geom: Geometry,
        faulted: SubpageIndex,
        offset_in_subpage: f64,
    ) -> PlannedFault {
        PlannedFault {
            plan: self.policy.plan_fault(geom, faulted, offset_in_subpage),
            decision: None,
        }
    }
}

/// Pages per stride-detection region: strides are program-local
/// behaviour, so detection runs per 64-page region rather than
/// globally (mirroring Leap's split of the access stream).
const LEAP_REGION_PAGES: u64 = 64;
/// Recent absolute subpage positions remembered per region.
const LEAP_WINDOW: usize = 16;
/// Minimum deltas before a majority can win (too-short histories
/// fall back to neighbours-first).
const LEAP_MIN_DELTAS: usize = 2;

/// Leap-style majority-vote stride detection (PAPERS.md: "Effectively
/// Prefetching Remote Memory with Leap").
///
/// Faulted and touched subpages are flattened to absolute positions
/// (`page × subpages_per_page + subpage`) so a stride detected inside
/// one page carries seamlessly across page boundaries. Per region, the
/// engine keeps a short window of recent positions; a fault's plan
/// follows the majority delta of that window when one delta wins an
/// absolute majority, else the static neighbours-first order.
pub struct LeapEngine {
    /// Recent absolute subpage positions per region, consecutive
    /// duplicates collapsed.
    history: FastMap<u64, VecDeque<i64>>,
    /// Observations made before the first `plan_fault` fixed the
    /// geometry, replayed into `history` once `n_sub` is known.
    pending: Vec<(u64, SubpageIndex)>,
    /// The page of the most recent observation — the page the next
    /// `plan_fault` is about.
    last_page: Option<u64>,
    n_sub: u8,
}

impl LeapEngine {
    /// A fresh engine for one node's run.
    ///
    /// # Panics
    ///
    /// Panics if `policy` is not [`FetchPolicy::Leap`].
    #[must_use]
    pub fn new(policy: FetchPolicy) -> Self {
        assert!(
            matches!(policy, FetchPolicy::Leap { .. }),
            "LeapEngine carries the leap policy"
        );
        LeapEngine {
            history: FastMap::default(),
            pending: Vec::new(),
            last_page: None,
            n_sub: 0,
        }
    }

    fn push(&mut self, page: u64, subpage: SubpageIndex) {
        self.last_page = Some(page);
        // Positions are meaningless until the geometry is known; the
        // first plan_fault fixes `n_sub` and replays what came before.
        if self.n_sub == 0 {
            self.pending.push((page, subpage));
            return;
        }
        let pos = (page * u64::from(self.n_sub)) as i64 + i64::from(subpage.get());
        let window = self.history.entry(page / LEAP_REGION_PAGES).or_default();
        if window.back() == Some(&pos) {
            return;
        }
        window.push_back(pos);
        if window.len() > LEAP_WINDOW {
            window.pop_front();
        }
    }

    /// The majority delta of a region's recent positions, if one delta
    /// holds a strict majority and is usable as an in-page stride.
    fn majority_delta(&self, page: u64) -> Option<i64> {
        let window = self.history.get(&(page / LEAP_REGION_PAGES))?;
        let deltas: Vec<i64> = window
            .iter()
            .zip(window.iter().skip(1))
            .map(|(a, b)| b - a)
            .collect();
        if deltas.len() < LEAP_MIN_DELTAS {
            return None;
        }
        // Mode by first-seen order: deterministic without sorting.
        let mut best: Option<(i64, usize)> = None;
        for &d in &deltas {
            let count = deltas.iter().filter(|&&x| x == d).count();
            if best.is_none_or(|(_, c)| count > c) {
                best = Some((d, count));
            }
        }
        let (d, count) = best?;
        let usable = d != 0 && d.unsigned_abs() < u64::from(self.n_sub);
        (usable && count * 2 > deltas.len()).then_some(d)
    }
}

impl PolicyEngine for LeapEngine {
    fn observe(&mut self, event: PolicyEvent) {
        match event {
            PolicyEvent::Fault { page, subpage, .. } | PolicyEvent::Touch { page, subpage } => {
                self.push(page, subpage)
            }
        }
    }

    fn plan_fault(
        &mut self,
        geom: Geometry,
        faulted: SubpageIndex,
        offset_in_subpage: f64,
    ) -> PlannedFault {
        if self.n_sub == 0 {
            self.n_sub = geom.subpages_per_page() as u8;
            for (page, sub) in std::mem::take(&mut self.pending) {
                self.push(page, sub);
            }
        }
        let n = self.n_sub;
        let f = faulted.get();
        // The faulted page's id is recoverable from neither `geom` nor
        // `faulted`, so the driver must have observed the Fault first;
        // the detection below only reads history.
        let delta = if n > 1 {
            self.majority_delta_hint()
        } else {
            None
        };
        let Some(d) = delta else {
            return PlannedFault {
                plan: PipelineStrategy::NeighborsFirst.plan(geom, faulted, offset_in_subpage),
                decision: Some((PolicyChoice::Fallback, 0)),
            };
        };
        // Follow the predicted stride while it stays inside the page,
        // one subpage per message; everything unpredicted ships as one
        // trailing message.
        let width = u32::from(n);
        let mut picked = SubpageMask::single(width, faulted);
        let mut groups = vec![picked];
        let mut pos = i64::from(f) + d;
        while (0..i64::from(n)).contains(&pos) {
            let next = SubpageIndex::new(pos as u8);
            if !picked.set(next) {
                break;
            }
            groups.push(SubpageMask::single(width, next));
            pos += d;
        }
        let rest = SubpageMask::full(width).difference(picked);
        if !rest.is_empty() {
            groups.push(rest);
        }
        PlannedFault {
            plan: MessagePlan::new(groups),
            decision: Some((
                PolicyChoice::Stride,
                d.clamp(i64::from(i8::MIN), i64::from(i8::MAX)) as i8,
            )),
        }
    }
}

impl LeapEngine {
    /// The majority delta of the most recently observed region — the
    /// driver observes the Fault immediately before planning it, so the
    /// freshest window is the faulted page's region.
    fn majority_delta_hint(&self) -> Option<i64> {
        let page = self.last_page?;
        self.majority_delta(page)
    }
}

/// Refaults within this window classify a page hot (INDIGO's
/// fault-rate feedback, collapsed to a refault-interval test to stay
/// deterministic and allocation-light).
const INDIGO_HOT_WINDOW: Duration = Duration::from_millis(10);
/// Fault times remembered per page.
const INDIGO_PAGE_HISTORY: usize = 4;

/// INDIGO-style hotness feedback (PAPERS.md: INDIGO): pages that fault
/// again within `INDIGO_HOT_WINDOW` (10 ms) of their previous fault are
/// migrated whole in a single message; cold pages fetch only the
/// demanded subpage and demand-fill the rest lazily.
pub struct IndigoEngine {
    /// Recent fault times per page (whole-page faults and demand
    /// refills both count toward hotness).
    faults: FastMap<u64, VecDeque<SimTime>>,
    /// The page and time of the most recent Fault observation — the
    /// fault `plan_fault` is about to plan.
    current: Option<(u64, SimTime)>,
}

impl IndigoEngine {
    /// A fresh engine for one node's run.
    ///
    /// # Panics
    ///
    /// Panics if `policy` is not [`FetchPolicy::Indigo`].
    #[must_use]
    pub fn new(policy: FetchPolicy) -> Self {
        assert!(
            matches!(policy, FetchPolicy::Indigo { .. }),
            "IndigoEngine carries the indigo policy"
        );
        IndigoEngine {
            faults: FastMap::default(),
            current: None,
        }
    }

    /// Whether the page of the pending fault refaulted within the hot
    /// window (needs at least two recorded faults on the page — the
    /// pending one and a predecessor).
    fn is_hot(&self) -> bool {
        let Some((page, _)) = self.current else {
            return false;
        };
        let Some(times) = self.faults.get(&page) else {
            return false;
        };
        let n = times.len();
        n >= 2 && times[n - 1].saturating_since(times[n - 2]) <= INDIGO_HOT_WINDOW
    }
}

impl PolicyEngine for IndigoEngine {
    fn observe(&mut self, event: PolicyEvent) {
        match event {
            PolicyEvent::Fault { page, at, .. } => {
                let times = self.faults.entry(page).or_default();
                times.push_back(at);
                if times.len() > INDIGO_PAGE_HISTORY {
                    times.pop_front();
                }
                self.current = Some((page, at));
            }
            PolicyEvent::Touch { .. } => {}
        }
    }

    fn plan_fault(
        &mut self,
        geom: Geometry,
        faulted: SubpageIndex,
        _offset_in_subpage: f64,
    ) -> PlannedFault {
        let n = geom.subpages_per_page();
        if n > 1 && self.is_hot() {
            // Hot: migrate the page whole — one message, no follow-ons,
            // no demand refills.
            PlannedFault {
                plan: MessagePlan::new(vec![SubpageMask::full(n)]),
                decision: Some((PolicyChoice::Migrate, 0)),
            }
        } else {
            // Cold: demanded subpage only; later touches demand-fill.
            PlannedFault {
                plan: MessagePlan::new(vec![SubpageMask::single(n, faulted)]),
                decision: Some((PolicyChoice::Demand, 0)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gms_mem::{PageSize, SubpageSize};

    fn geom() -> Geometry {
        Geometry::new(PageSize::P8K, SubpageSize::S1K) // 8 subpages
    }

    /// The union of a plan's messages, which must be pairwise disjoint.
    fn flat(plan: &MessagePlan) -> Vec<u8> {
        let mut all = SubpageMask::empty(8);
        for g in plan.groups() {
            assert_eq!(all.bits() & g.bits(), 0, "messages overlap");
            all.union_with(*g);
        }
        all.iter().map(|s| s.get()).collect()
    }

    fn one(sub: u8) -> SubpageMask {
        SubpageMask::single(8, SubpageIndex::new(sub))
    }

    #[test]
    fn static_engine_matches_policy_plan() {
        for policy in [
            FetchPolicy::disk(),
            FetchPolicy::fullpage(),
            FetchPolicy::eager(SubpageSize::S1K),
            FetchPolicy::pipelined(SubpageSize::S1K),
            FetchPolicy::lazy(SubpageSize::S1K),
        ] {
            let g = policy.geometry(PageSize::P8K);
            let mut engine = StaticEngine::new(policy);
            for f in 0..g.subpages_per_page() as u8 {
                let planned = engine.plan_fault(g, SubpageIndex::new(f), 0.25);
                assert_eq!(
                    planned.plan,
                    policy.plan_fault(g, SubpageIndex::new(f), 0.25),
                    "{} fault {f}",
                    policy.label()
                );
                assert!(planned.decision.is_none());
            }
        }
    }

    fn fault(engine: &mut dyn PolicyEngine, page: u64, sub: u8, at_ns: u64) -> PlannedFault {
        engine.observe(PolicyEvent::Fault {
            page,
            subpage: SubpageIndex::new(sub),
            at: SimTime::from_nanos(at_ns),
        });
        engine.plan_fault(geom(), SubpageIndex::new(sub), 0.0)
    }

    #[test]
    fn leap_detects_intra_page_stride() {
        let mut engine = LeapEngine::new(FetchPolicy::leap(SubpageSize::S1K));
        // Stride-2 touch pattern: subpages 0, 2, 4 of page 0, then a
        // fault on page 1.
        let _ = fault(&mut engine, 0, 0, 0);
        for s in [2u8, 4, 6] {
            engine.observe(PolicyEvent::Touch {
                page: 0,
                subpage: SubpageIndex::new(s),
            });
        }
        let planned = fault(&mut engine, 1, 0, 100);
        let (choice, delta) = planned.decision.expect("adaptive decision");
        assert_eq!(choice, gms_obs::PolicyChoice::Stride);
        assert_eq!(delta, 2);
        // Predicted follow-ons ride first, one per message: 2, 4, 6.
        assert_eq!(planned.plan.groups()[..4], [one(0), one(2), one(4), one(6)]);
        assert_eq!(flat(&planned.plan), (0..8).collect::<Vec<u8>>());
    }

    #[test]
    fn leap_stride_crosses_page_boundaries() {
        let mut engine = LeapEngine::new(FetchPolicy::leap(SubpageSize::S1K));
        let _ = fault(&mut engine, 0, 0, 0);
        for s in [2u8, 4, 6] {
            engine.observe(PolicyEvent::Touch {
                page: 0,
                subpage: SubpageIndex::new(s),
            });
        }
        // Page 1 subpage 0 is absolute position 8: delta 2 from 6.
        let planned = fault(&mut engine, 1, 0, 0);
        assert_eq!(
            planned.decision,
            Some((gms_obs::PolicyChoice::Stride, 2)),
            "the page boundary does not break the stride"
        );
    }

    #[test]
    fn leap_falls_back_without_history() {
        let mut engine = LeapEngine::new(FetchPolicy::leap(SubpageSize::S1K));
        let planned = fault(&mut engine, 0, 3, 0);
        assert_eq!(planned.decision, Some((gms_obs::PolicyChoice::Fallback, 0)));
        // Fallback is exactly the static neighbours-first plan.
        assert_eq!(
            planned.plan,
            PipelineStrategy::NeighborsFirst.plan(geom(), SubpageIndex::new(3), 0.0)
        );
    }

    #[test]
    fn leap_fallback_on_mixed_history() {
        let mut engine = LeapEngine::new(FetchPolicy::leap(SubpageSize::S1K));
        // 0 → 3 → 4 → 6 then the fault at position 10 gives deltas
        // 3,1,2,4 — all distinct, no strict majority.
        let _ = fault(&mut engine, 0, 0, 0);
        for s in [3u8, 4, 6] {
            engine.observe(PolicyEvent::Touch {
                page: 0,
                subpage: SubpageIndex::new(s),
            });
        }
        let planned = fault(&mut engine, 1, 2, 0);
        assert_eq!(planned.decision, Some((gms_obs::PolicyChoice::Fallback, 0)));
    }

    #[test]
    fn leap_plans_cover_the_page_exactly_once() {
        let mut engine = LeapEngine::new(FetchPolicy::leap(SubpageSize::S1K));
        for (i, s) in [0u8, 2, 4, 6, 0, 2, 4, 6, 1, 5, 3].iter().enumerate() {
            let planned = fault(&mut engine, i as u64, *s, i as u64 * 10);
            assert_eq!(flat(&planned.plan), (0..8).collect::<Vec<u8>>());
            assert_eq!(planned.plan.groups()[0], one(*s));
        }
    }

    #[test]
    fn indigo_cold_page_fetches_demand_only() {
        let mut engine = IndigoEngine::new(FetchPolicy::indigo(SubpageSize::S1K));
        let planned = fault(&mut engine, 0, 5, 0);
        assert_eq!(planned.decision, Some((gms_obs::PolicyChoice::Demand, 0)));
        assert_eq!(planned.plan.groups(), &[one(5)]);
    }

    #[test]
    fn indigo_refault_within_window_migrates_whole() {
        let mut engine = IndigoEngine::new(FetchPolicy::indigo(SubpageSize::S1K));
        let _ = fault(&mut engine, 7, 0, 0);
        // Refault 1 ms later: hot.
        let planned = fault(&mut engine, 7, 2, 1_000_000);
        assert_eq!(planned.decision, Some((gms_obs::PolicyChoice::Migrate, 0)));
        assert_eq!(planned.plan.groups().len(), 1, "one migration message");
        assert!(planned.plan.groups()[0].contains(SubpageIndex::new(2)));
        assert_eq!(flat(&planned.plan), (0..8).collect::<Vec<u8>>());
        // Refault 50 ms later: cold again.
        let planned = fault(&mut engine, 7, 1, 51_000_000);
        assert_eq!(planned.decision, Some((gms_obs::PolicyChoice::Demand, 0)));
    }

    #[test]
    fn indigo_hotness_is_per_page() {
        let mut engine = IndigoEngine::new(FetchPolicy::indigo(SubpageSize::S1K));
        let _ = fault(&mut engine, 1, 0, 0);
        let _ = fault(&mut engine, 2, 0, 1_000);
        // Page 3's first fault is cold even though other pages faulted
        // recently.
        let planned = fault(&mut engine, 3, 0, 2_000);
        assert_eq!(planned.decision, Some((gms_obs::PolicyChoice::Demand, 0)));
    }
}
