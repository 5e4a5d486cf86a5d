//! Fetch policies: what a page fault transfers.

use core::fmt;

use gms_mem::{Geometry, PageSize, SubpageIndex, SubpageMask, SubpageSize};
use gms_net::{AccessPattern, RecvOverhead};

use crate::pipeline::{MessagePlan, PipelineStrategy};

/// The backing-store / transfer-granularity policy under evaluation.
///
/// # Examples
///
/// ```
/// use gms_core::FetchPolicy;
/// use gms_mem::SubpageSize;
///
/// let policy = FetchPolicy::pipelined(SubpageSize::S1K);
/// assert_eq!(policy.label(), "pl_1024");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FetchPolicy {
    /// All faults go to the local disk, full pages (the `disk_8192` bars
    /// of Figure 3).
    Disk {
        /// Seek behaviour of the paging disk.
        pattern: AccessPattern,
    },
    /// Global memory with full-page transfers (the `p_8192` bars).
    RemoteFullPage,
    /// Eager fullpage fetch: faulted subpage first, rest of page as one
    /// follow-on message (§2.1, scheme 2).
    EagerSubpage {
        /// The transfer granularity.
        subpage: SubpageSize,
    },
    /// Subpage pipelining: faulted subpage, then sequenced subpage
    /// messages (§2.1, scheme 3).
    PipelinedSubpage {
        /// The transfer granularity.
        subpage: SubpageSize,
        /// Follow-on ordering.
        strategy: PipelineStrategy,
        /// Receiver CPU cost model for follow-ons. The paper's
        /// simulations "assume zero CPU overhead on the receiving node
        /// for the follow-on pipelined subpages" (§4.3).
        recv_overhead: RecvOverhead,
    },
    /// Lazy subpage fetch: only faulted subpages, on demand (§2.1,
    /// scheme 1 — the ablation the paper rejects).
    LazySubpage {
        /// The transfer granularity.
        subpage: SubpageSize,
    },
    /// Small pages: the page size itself is reduced (the §2.1
    /// architecture comparison; pays TLB coverage costs).
    SmallPages {
        /// The reduced page size.
        page: PageSize,
    },
    /// Leap-style adaptive pipelining: a per-region majority-vote stride
    /// detector over the recent fault/touch history orders the follow-on
    /// subpages along the predicted stride, falling back to
    /// neighbours-first when confidence is low. The static description
    /// here only fixes the geometry; the per-run state lives in a
    /// [`LeapEngine`](crate::LeapEngine).
    Leap {
        /// The transfer granularity.
        subpage: SubpageSize,
    },
    /// INDIGO-style hotness feedback: pages refaulting within a short
    /// window are migrated whole in one message, cold pages demand-fetch
    /// subpages lazily. Per-run state lives in an
    /// [`IndigoEngine`](crate::IndigoEngine).
    Indigo {
        /// The transfer granularity.
        subpage: SubpageSize,
    },
}

impl FetchPolicy {
    /// Disk paging with random-access seeks.
    #[must_use]
    pub fn disk() -> Self {
        FetchPolicy::Disk {
            pattern: AccessPattern::Random,
        }
    }

    /// Full 8 KB pages from global memory.
    #[must_use]
    pub fn fullpage() -> Self {
        FetchPolicy::RemoteFullPage
    }

    /// Eager fullpage fetch at the given subpage size.
    #[must_use]
    pub fn eager(subpage: SubpageSize) -> Self {
        FetchPolicy::EagerSubpage { subpage }
    }

    /// Subpage pipelining with the paper's defaults: neighbours first,
    /// idealized (zero-overhead) follow-on receives.
    #[must_use]
    pub fn pipelined(subpage: SubpageSize) -> Self {
        FetchPolicy::PipelinedSubpage {
            subpage,
            strategy: PipelineStrategy::NeighborsFirst,
            recv_overhead: RecvOverhead::Zero,
        }
    }

    /// Lazy subpage fetch at the given subpage size.
    #[must_use]
    pub fn lazy(subpage: SubpageSize) -> Self {
        FetchPolicy::LazySubpage { subpage }
    }

    /// Leap-style adaptive stride pipelining at the given subpage size.
    #[must_use]
    pub fn leap(subpage: SubpageSize) -> Self {
        FetchPolicy::Leap { subpage }
    }

    /// INDIGO-style hotness-adaptive fetch at the given subpage size.
    #[must_use]
    pub fn indigo(subpage: SubpageSize) -> Self {
        FetchPolicy::Indigo { subpage }
    }

    /// The transfer geometry this policy imposes on `base_page`-sized
    /// pages.
    ///
    /// # Panics
    ///
    /// Panics if the subpage does not divide the page (see
    /// [`Geometry::new`]).
    #[must_use]
    pub fn geometry(&self, base_page: PageSize) -> Geometry {
        match *self {
            FetchPolicy::Disk { .. } | FetchPolicy::RemoteFullPage => {
                Geometry::new(base_page, SubpageSize::new(base_page.bytes()))
            }
            FetchPolicy::EagerSubpage { subpage }
            | FetchPolicy::PipelinedSubpage { subpage, .. }
            | FetchPolicy::LazySubpage { subpage }
            | FetchPolicy::Leap { subpage }
            | FetchPolicy::Indigo { subpage } => Geometry::new(base_page, subpage),
            FetchPolicy::SmallPages { page } => Geometry::new(page, SubpageSize::new(page.bytes())),
        }
    }

    /// Plans the messages for a fault on `faulted` of a wholly
    /// non-resident page. `offset_in_subpage` is the fault's fractional
    /// position within the subpage (used by the adaptive strategies).
    #[must_use]
    pub fn plan_fault(
        &self,
        geom: Geometry,
        faulted: SubpageIndex,
        offset_in_subpage: f64,
    ) -> MessagePlan {
        let demanded = SubpageMask::single(geom.subpages_per_page(), faulted);
        match *self {
            FetchPolicy::Disk { .. }
            | FetchPolicy::RemoteFullPage
            | FetchPolicy::SmallPages { .. }
            | FetchPolicy::LazySubpage { .. }
            | FetchPolicy::Indigo { .. } => MessagePlan::new(vec![demanded]),
            FetchPolicy::EagerSubpage { .. } => {
                let rest = SubpageMask::full(demanded.width()).difference(demanded);
                let mut groups = vec![demanded];
                if !rest.is_empty() {
                    groups.push(rest);
                }
                MessagePlan::new(groups)
            }
            FetchPolicy::PipelinedSubpage { strategy, .. } => {
                strategy.plan(geom, faulted, offset_in_subpage)
            }
            // History-free default for the adaptive stride policy; a
            // run's `LeapEngine` refines this from the observed history.
            FetchPolicy::Leap { .. } => {
                PipelineStrategy::NeighborsFirst.plan(geom, faulted, offset_in_subpage)
            }
        }
    }

    /// Receiver-side CPU model for follow-on messages. The adaptive
    /// policies pipeline like `pl_*` and inherit its idealized
    /// zero-overhead receives, so comparisons against `pl_*` isolate the
    /// ordering decision.
    #[must_use]
    pub fn recv_overhead(&self) -> RecvOverhead {
        match *self {
            FetchPolicy::PipelinedSubpage { recv_overhead, .. } => recv_overhead,
            FetchPolicy::Leap { .. } | FetchPolicy::Indigo { .. } => RecvOverhead::Zero,
            _ => RecvOverhead::Measured,
        }
    }

    /// Whether this policy's plans may leave subpages with no follow-on
    /// message in flight, to be demand-fetched at touch time: the lazy
    /// policy always, INDIGO for the pages it classifies cold.
    #[must_use]
    pub fn demand_fills(&self) -> bool {
        matches!(
            self,
            FetchPolicy::LazySubpage { .. } | FetchPolicy::Indigo { .. }
        )
    }

    /// Whether this policy's plans depend on per-run fault history (the
    /// engine then feeds it observations and may bill prefetches).
    #[must_use]
    pub fn is_adaptive(&self) -> bool {
        matches!(self, FetchPolicy::Leap { .. } | FetchPolicy::Indigo { .. })
    }

    /// Whether this policy pages to disk rather than remote memory.
    #[must_use]
    pub fn is_disk(&self) -> bool {
        matches!(self, FetchPolicy::Disk { .. })
    }

    /// The label used in the paper's figures (`disk_8192`, `p_8192`,
    /// `sp_1024`, …). Every label round-trips through the CLI's
    /// `parse_policy` back to the same policy: non-default disk patterns
    /// and pipelining variants carry suffixes (`disk_8192_seq`,
    /// `pl_1024_asc`, `pl_1024_mrecv`, …) rather than collapsing onto
    /// the default's label.
    #[must_use]
    pub fn label(&self) -> String {
        match *self {
            FetchPolicy::Disk {
                pattern: AccessPattern::Random,
            } => "disk_8192".to_owned(),
            FetchPolicy::Disk {
                pattern: AccessPattern::Sequential,
            } => "disk_8192_seq".to_owned(),
            FetchPolicy::RemoteFullPage => "p_8192".to_owned(),
            FetchPolicy::EagerSubpage { subpage } => {
                format!("sp_{}", subpage.bytes().get())
            }
            FetchPolicy::PipelinedSubpage {
                subpage,
                strategy,
                recv_overhead,
            } => {
                let mut label = format!("pl_{}", subpage.bytes().get());
                match strategy {
                    PipelineStrategy::NeighborsFirst => {}
                    PipelineStrategy::Ascending => label.push_str("_asc"),
                    PipelineStrategy::DoubledFollowOn => label.push_str("_dbl"),
                    PipelineStrategy::AdaptiveHalf => label.push_str("_half"),
                }
                if recv_overhead == RecvOverhead::Measured {
                    label.push_str("_mrecv");
                }
                label
            }
            FetchPolicy::LazySubpage { subpage } => {
                format!("lazy_{}", subpage.bytes().get())
            }
            FetchPolicy::SmallPages { page } => {
                format!("small_{}", page.bytes().get())
            }
            FetchPolicy::Leap { subpage } => {
                format!("leap_{}", subpage.bytes().get())
            }
            FetchPolicy::Indigo { subpage } => {
                format!("indigo_{}", subpage.bytes().get())
            }
        }
    }

    /// Builds the per-run stateful engine realizing this policy: the
    /// static policies get the history-blind delegator, the adaptive
    /// ones their observing engines. One engine per node per run — see
    /// the `PolicyEngine` determinism rules.
    #[must_use]
    pub fn engine(&self) -> Box<dyn crate::PolicyEngine> {
        match *self {
            FetchPolicy::Leap { .. } => Box::new(crate::LeapEngine::new(*self)),
            FetchPolicy::Indigo { .. } => Box::new(crate::IndigoEngine::new(*self)),
            _ => Box::new(crate::policy_engine::StaticEngine::new(*self)),
        }
    }
}

impl fmt::Display for FetchPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gms_units::Bytes;

    #[test]
    fn geometry_follows_policy() {
        let base = PageSize::P8K;
        assert_eq!(FetchPolicy::disk().geometry(base).subpages_per_page(), 1);
        assert_eq!(
            FetchPolicy::fullpage().geometry(base).subpages_per_page(),
            1
        );
        assert_eq!(
            FetchPolicy::eager(SubpageSize::S1K)
                .geometry(base)
                .subpages_per_page(),
            8
        );
        let small = FetchPolicy::SmallPages {
            page: PageSize::new(Bytes::kib(1)),
        };
        let g = small.geometry(base);
        assert_eq!(g.page_size().bytes(), Bytes::kib(1));
        assert_eq!(g.subpages_per_page(), 1);
    }

    #[test]
    fn eager_plan_is_subpage_plus_rest() {
        let policy = FetchPolicy::eager(SubpageSize::S1K);
        let geom = policy.geometry(PageSize::P8K);
        let plan = policy.plan_fault(geom, SubpageIndex::new(5), 0.0);
        assert_eq!(plan.groups().len(), 2);
        assert_eq!(
            plan.groups()[0],
            SubpageMask::single(8, SubpageIndex::new(5))
        );
        assert_eq!(plan.groups()[1].count(), 7);
        assert_eq!(plan.message_sizes(geom), vec![Bytes::kib(1), Bytes::kib(7)]);
    }

    #[test]
    fn fullpage_plan_is_one_message() {
        let policy = FetchPolicy::fullpage();
        let geom = policy.geometry(PageSize::P8K);
        let plan = policy.plan_fault(geom, SubpageIndex::new(0), 0.0);
        assert_eq!(plan.message_sizes(geom), vec![Bytes::kib(8)]);
    }

    #[test]
    fn lazy_plan_fetches_only_the_fault() {
        let policy = FetchPolicy::lazy(SubpageSize::S2K);
        let geom = policy.geometry(PageSize::P8K);
        let plan = policy.plan_fault(geom, SubpageIndex::new(1), 0.0);
        assert_eq!(plan.message_sizes(geom), vec![Bytes::kib(2)]);
        assert!(policy.demand_fills());
    }

    #[test]
    fn pipelined_defaults_match_paper() {
        let FetchPolicy::PipelinedSubpage {
            strategy,
            recv_overhead,
            ..
        } = FetchPolicy::pipelined(SubpageSize::S1K)
        else {
            panic!("wrong variant");
        };
        assert_eq!(strategy, PipelineStrategy::NeighborsFirst);
        assert_eq!(recv_overhead, RecvOverhead::Zero);
    }

    #[test]
    fn labels_match_figure3_legend() {
        assert_eq!(FetchPolicy::disk().label(), "disk_8192");
        assert_eq!(FetchPolicy::fullpage().label(), "p_8192");
        assert_eq!(FetchPolicy::eager(SubpageSize::S256).label(), "sp_256");
        assert_eq!(FetchPolicy::pipelined(SubpageSize::S1K).label(), "pl_1024");
        assert_eq!(FetchPolicy::lazy(SubpageSize::S512).label(), "lazy_512");
        assert_eq!(format!("{}", FetchPolicy::fullpage()), "p_8192");
    }

    #[test]
    fn recv_overhead_defaults() {
        assert_eq!(
            FetchPolicy::eager(SubpageSize::S1K).recv_overhead(),
            RecvOverhead::Measured
        );
        assert_eq!(
            FetchPolicy::pipelined(SubpageSize::S1K).recv_overhead(),
            RecvOverhead::Zero
        );
    }
}
