//! Simulation configuration.

use gms_cluster::ReplicationConfig;
use gms_mem::PageSize;
use gms_net::{FaultPlan, NetParams};
use gms_units::Duration;

use crate::engine::REF_COST;
use crate::FetchPolicy;

/// How much local memory the traced program gets (Figure 3's three
/// configurations).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemoryConfig {
    /// As much as it needs: every fault is an initial (cold) fault.
    Full,
    /// Half of its maximum memory.
    Half,
    /// One quarter of its maximum memory.
    Quarter,
    /// An explicit frame count.
    Frames(u64),
}

impl MemoryConfig {
    /// Resolves to a frame count for a program whose footprint is
    /// `footprint_pages` pages (minimum 2 frames so that eviction is
    /// always possible while one page is being faulted in).
    #[must_use]
    pub fn frames(self, footprint_pages: u64) -> u64 {
        let frames = match self {
            MemoryConfig::Full => footprint_pages,
            MemoryConfig::Half => footprint_pages.div_ceil(2),
            MemoryConfig::Quarter => footprint_pages.div_ceil(4),
            MemoryConfig::Frames(n) => n,
        };
        frames.max(2)
    }

    /// The label used in the paper's figures.
    #[must_use]
    pub fn label(self) -> String {
        match self {
            MemoryConfig::Full => "full-mem".to_owned(),
            MemoryConfig::Half => "1/2-mem".to_owned(),
            MemoryConfig::Quarter => "1/4-mem".to_owned(),
            MemoryConfig::Frames(n) => format!("{n}-frames"),
        }
    }
}

/// Which local page-replacement policy the simulated node runs.
///
/// The paper's simulator uses LRU by default; the alternatives exist for
/// the replacement ablation bench.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReplacementKind {
    /// True least-recently-used (the paper's default).
    #[default]
    Lru,
    /// First-in-first-out.
    Fifo,
    /// Clock / second chance.
    Clock,
    /// Two random choices, evicting the older.
    Random2 {
        /// RNG seed for the random choices.
        seed: u64,
    },
}

impl ReplacementKind {
    /// Instantiates the policy for a node whose footprint is the
    /// `pages` pages from `first`: those index directly, any other page
    /// through a hash map.
    #[must_use]
    pub fn build(self, first: gms_mem::PageId, pages: u64) -> Box<dyn gms_mem::ReplacementPolicy> {
        match self {
            ReplacementKind::Lru => Box::new(gms_mem::Lru::with_span(first, pages)),
            ReplacementKind::Fifo => Box::new(gms_mem::Fifo::with_span(first, pages)),
            ReplacementKind::Clock => Box::new(gms_mem::Clock::with_span(first, pages)),
            ReplacementKind::Random2 { seed } => {
                Box::new(gms_mem::Random2::with_span(seed, first, pages))
            }
        }
    }

    /// The policy's name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ReplacementKind::Lru => "lru",
            ReplacementKind::Fifo => "fifo",
            ReplacementKind::Clock => "clock",
            ReplacementKind::Random2 { .. } => "random2",
        }
    }
}

/// How accesses to valid subpages of *incomplete* pages are charged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AccessCost {
    /// TLB-supported subpage valid bits: "no overhead associated with
    /// accessing resident subpages" (§3.1.1) — the paper's simulation
    /// assumption.
    #[default]
    TlbSupported,
    /// The prototype's software scheme: every access to an incomplete
    /// page pays the Table-1 PALcode emulation cost.
    PalEmulated,
}

/// Complete configuration of one simulation run.
///
/// # Examples
///
/// ```
/// use gms_core::{FetchPolicy, MemoryConfig, SimConfig};
/// use gms_mem::SubpageSize;
///
/// let config = SimConfig::builder()
///     .policy(FetchPolicy::eager(SubpageSize::S2K))
///     .memory(MemoryConfig::Quarter)
///     .build();
/// assert_eq!(config.policy.label(), "sp_2048");
/// ```
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// The machine's base page size (8 KB on the paper's Alphas).
    pub page_size: PageSize,
    /// The fetch policy under evaluation. This is the static
    /// description only; each node of a run instantiates its own
    /// [`PolicyEngine`](crate::PolicyEngine) from it (via
    /// [`FetchPolicy::engine`]), so adaptive policies never share
    /// history across nodes or runs.
    pub policy: FetchPolicy,
    /// Local memory available to the program.
    pub memory: MemoryConfig,
    /// Network timing constants.
    pub net: NetParams,
    /// Cluster size (one active node plus idle memory servers).
    pub cluster_nodes: u32,
    /// Cost model for accesses to incomplete pages.
    pub access_cost: AccessCost,
    /// Local page-replacement policy.
    pub replacement: ReplacementKind,
    /// Deterministic fault-injection plan. `None` (the default) and
    /// `Some(empty)` both leave the run byte-identical to a fault-free
    /// one: an empty plan is never installed, so no RNG is ever drawn.
    pub fault_plan: Option<FaultPlan>,
    /// Page replication: how many copies each putpage writes and how
    /// fast crash-repair traffic re-replicates. The default (one copy,
    /// no repair work to do) is byte-identical to the pre-replication
    /// engine.
    pub replication: ReplicationConfig,
}

impl SimConfig {
    /// Starts building a configuration from the paper's defaults:
    /// 8 KB pages, full-page remote fetch, full memory, the calibrated
    /// AN2 network, 4 nodes, TLB-supported subpage access.
    #[must_use]
    pub fn builder() -> SimConfigBuilder {
        SimConfigBuilder {
            config: SimConfig::default(),
        }
    }

    /// Time for `n` references of pure execution, at the engine's fixed
    /// 12 ns per reference: "83,000 events correspond to one
    /// millisecond" (§3.2).
    #[must_use]
    pub fn exec_time(&self, n: u64) -> Duration {
        REF_COST * n
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            page_size: PageSize::P8K,
            policy: FetchPolicy::fullpage(),
            memory: MemoryConfig::Full,
            net: NetParams::paper(),
            cluster_nodes: 4,
            access_cost: AccessCost::default(),
            replacement: ReplacementKind::default(),
            fault_plan: None,
            replication: ReplicationConfig::default(),
        }
    }
}

/// Builder for [`SimConfig`]. Created by [`SimConfig::builder`].
#[derive(Debug, Clone)]
pub struct SimConfigBuilder {
    config: SimConfig,
}

impl SimConfigBuilder {
    /// Sets the base page size.
    #[must_use]
    pub fn page_size(mut self, page_size: PageSize) -> Self {
        self.config.page_size = page_size;
        self
    }

    /// Sets the fetch policy.
    #[must_use]
    pub fn policy(mut self, policy: FetchPolicy) -> Self {
        self.config.policy = policy;
        self
    }

    /// Sets the memory configuration.
    #[must_use]
    pub fn memory(mut self, memory: MemoryConfig) -> Self {
        self.config.memory = memory;
        self
    }

    /// Sets the network timing constants.
    #[must_use]
    pub fn net(mut self, net: NetParams) -> Self {
        self.config.net = net;
        self
    }

    /// Sets the cluster size.
    ///
    /// # Panics
    ///
    /// Panics if `nodes < 2`.
    #[must_use]
    pub fn cluster_nodes(mut self, nodes: u32) -> Self {
        assert!(nodes >= 2, "need at least one idle node");
        self.config.cluster_nodes = nodes;
        self
    }

    /// Sets the incomplete-page access cost model.
    #[must_use]
    pub fn access_cost(mut self, access_cost: AccessCost) -> Self {
        self.config.access_cost = access_cost;
        self
    }

    /// Sets the local page-replacement policy.
    #[must_use]
    pub fn replacement(mut self, replacement: ReplacementKind) -> Self {
        self.config.replacement = replacement;
        self
    }

    /// Installs a deterministic fault-injection plan (message loss,
    /// link degradation windows, node crash/recovery).
    #[must_use]
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.config.fault_plan = Some(plan);
        self
    }

    /// Sets the page-replication parameters (copies per putpage and the
    /// background repair rate). Feasibility against the cluster size —
    /// `replicas` distinct idle holders must exist — is checked when the
    /// GMS is built.
    ///
    /// # Panics
    ///
    /// Panics if `replicas` or `repair_rate` is zero.
    #[must_use]
    pub fn replication(mut self, replication: ReplicationConfig) -> Self {
        assert!(replication.replicas >= 1, "need at least one copy");
        assert!(replication.repair_rate > 0, "repair rate must be positive");
        self.config.replication = replication;
        self
    }

    /// Finalizes the configuration.
    #[must_use]
    pub fn build(self) -> SimConfig {
        self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gms_mem::SubpageSize;

    #[test]
    fn memory_config_resolves_frames() {
        assert_eq!(MemoryConfig::Full.frames(773), 773);
        assert_eq!(MemoryConfig::Half.frames(773), 387);
        assert_eq!(MemoryConfig::Quarter.frames(773), 194);
        assert_eq!(MemoryConfig::Frames(10).frames(773), 10);
        // Tiny footprints still get at least two frames.
        assert_eq!(MemoryConfig::Quarter.frames(3), 2);
    }

    #[test]
    fn labels_match_figures() {
        assert_eq!(MemoryConfig::Full.label(), "full-mem");
        assert_eq!(MemoryConfig::Half.label(), "1/2-mem");
        assert_eq!(MemoryConfig::Quarter.label(), "1/4-mem");
        assert_eq!(MemoryConfig::Frames(5).label(), "5-frames");
    }

    #[test]
    fn builder_overrides_defaults() {
        let config = SimConfig::builder()
            .policy(FetchPolicy::eager(SubpageSize::S1K))
            .memory(MemoryConfig::Half)
            .replacement(ReplacementKind::Clock)
            .cluster_nodes(8)
            .access_cost(AccessCost::PalEmulated)
            .build();
        assert_eq!(config.replacement, ReplacementKind::Clock);
        assert_eq!(config.cluster_nodes, 8);
        assert_eq!(config.access_cost, AccessCost::PalEmulated);
        assert_eq!(config.policy.label(), "sp_1024");
    }

    #[test]
    fn default_matches_paper_clock() {
        let config = SimConfig::default();
        // 83,000 events correspond to one millisecond (§3.2).
        let ms = config.exec_time(83_000).as_millis_f64();
        assert!((0.95..1.05).contains(&ms), "{ms} ms");
    }

    #[test]
    fn replication_defaults_to_single_copy() {
        let config = SimConfig::default();
        assert_eq!(config.replication.replicas, 1);
        let two = SimConfig::builder()
            .replication(ReplicationConfig {
                replicas: 2,
                ..ReplicationConfig::default()
            })
            .build();
        assert_eq!(two.replication.replicas, 2);
    }

    #[test]
    #[should_panic(expected = "at least one copy")]
    fn zero_replicas_panics() {
        let _ = SimConfig::builder().replication(ReplicationConfig {
            replicas: 0,
            ..ReplicationConfig::default()
        });
    }
}
