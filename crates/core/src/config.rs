//! Simulation configuration.

use gms_cluster::ReplicationConfig;
use gms_mem::PageSize;
use gms_net::{FaultPlan, NetParams};
use gms_units::Duration;

use crate::FetchPolicy;

/// The engine's remote-transfer retry knobs. The defaults reproduce the
/// constants the engine originally hard-coded, so a default
/// `RetryConfig` leaves every report byte-identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryConfig {
    /// Remote-transfer attempts before giving up on a custodian: the
    /// initial request plus `max_fetch_attempts - 1` retries.
    pub max_fetch_attempts: u32,
    /// Putpage send attempts before the model assumes delivery. Putpage
    /// is positive-ACK with retransmit; this backstop bounds the retry
    /// loop so every run terminates even under adversarial loss rates
    /// (at 5% loss the default backstop fires with probability
    /// 0.05⁸ ≈ 4e-11).
    pub max_putpage_attempts: u32,
    /// The first backoff is `timeout / backoff_divisor`.
    pub backoff_divisor: u32,
    /// Each retry doubles the backoff, up to `1 << backoff_cap` base
    /// units.
    pub backoff_cap: u32,
}

impl Default for RetryConfig {
    fn default() -> Self {
        RetryConfig {
            max_fetch_attempts: 4,
            max_putpage_attempts: 8,
            backoff_divisor: 4,
            backoff_cap: 3,
        }
    }
}

/// The longest one custodian may stall a fault, in getpage timeouts. A
/// getpage timeout is below 2^25 ns on every modelled network (an 8 KB
/// page over 10 Mb/s Ethernet waits 16.8 ms), so such a stall stays
/// below 2^41 ns and the u64-nanosecond clock (2^64 ns, 584 years)
/// holds 2^23 of them.
const MAX_STALL_TIMEOUTS: u64 = 1 << 16;

impl RetryConfig {
    /// One custodian's worst-case stall of a fault, in getpage timeouts:
    /// every one of `max_fetch_attempts` attempts times out, and each
    /// backoff between them is `1 / backoff_divisor` of a timeout
    /// doubled per retry up to `1 << backoff_cap`. Returned as
    /// `(numerator, backoff_divisor)`, exact for caps below 64.
    fn worst_stall(&self) -> (u128, u128) {
        let attempts = u128::from(self.max_fetch_attempts);
        let retries = attempts.saturating_sub(1);
        // Backoffs 1..=k double; the remaining `retries - k` sit at the cap.
        let k = retries.min(u128::from(self.backoff_cap));
        let backoffs = (1u128 << (k + 1)) - 2 + (retries - k) * (1u128 << self.backoff_cap);
        let divisor = u128::from(self.backoff_divisor);
        (attempts * divisor + backoffs, divisor)
    }

    /// Checks the knobs for values that would wedge or overflow the
    /// retry loops, returning a human-readable complaint instead of
    /// panicking mid-run.
    ///
    /// # Errors
    ///
    /// Rejects zero attempt counts (the loops would never send), a zero
    /// backoff divisor (division by zero), a backoff cap at or above 64
    /// (the doubling factor `1 << cap` would overflow `u64`), and a
    /// schedule under which one custodian can stall a fault for more
    /// than 2^16 getpage timeouts — `max_fetch_attempts` expiries plus
    /// every backoff between them at its capped length. The
    /// u64-nanosecond clock holds 2^23 such stalls.
    pub fn validate(&self) -> Result<(), String> {
        if self.max_fetch_attempts == 0 {
            return Err("max fetch attempts must be at least 1".into());
        }
        if self.max_putpage_attempts == 0 {
            return Err("max putpage attempts must be at least 1".into());
        }
        if self.backoff_divisor == 0 {
            return Err("backoff divisor must be at least 1".into());
        }
        if self.backoff_cap >= 64 {
            return Err("backoff cap must be below 64 (doubling factor overflows)".into());
        }
        let (stall, divisor) = self.worst_stall();
        if stall > u128::from(MAX_STALL_TIMEOUTS) * divisor {
            return Err(format!(
                "{} fetch attempts with backoff cap {} and divisor {} can stall one fault for \
                 {:.0} getpage timeouts, above the {} that keep the nanosecond clock from \
                 overflowing",
                self.max_fetch_attempts,
                self.backoff_cap,
                self.backoff_divisor,
                stall as f64 / divisor as f64,
                MAX_STALL_TIMEOUTS
            ));
        }
        Ok(())
    }
}

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
    /// Simulated time per memory reference. The paper measures ~12 ns:
    /// "83,000 events correspond to one millisecond" (§3.2).
    pub ns_per_ref: u64,
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
    /// Remote-transfer retry knobs. The defaults reproduce the engine's
    /// original hard-coded constants byte-for-byte.
    pub retry: RetryConfig,
    /// Page replication: how many copies each putpage writes and how
    /// fast crash-repair traffic re-replicates. The default (one copy,
    /// no repair work to do) is byte-identical to the pre-replication
    /// engine.
    pub replication: ReplicationConfig,
}

impl SimConfig {
    /// Starts building a configuration from the paper's defaults:
    /// 8 KB pages, full-page remote fetch, full memory, 12 ns per
    /// reference, the calibrated AN2 network, 4 nodes, TLB-supported
    /// subpage access.
    #[must_use]
    pub fn builder() -> SimConfigBuilder {
        SimConfigBuilder {
            config: SimConfig::default(),
        }
    }

    /// Time for `n` references of pure execution.
    #[must_use]
    pub fn exec_time(&self, n: u64) -> Duration {
        Duration::from_nanos(self.ns_per_ref * n)
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            page_size: PageSize::P8K,
            policy: FetchPolicy::fullpage(),
            memory: MemoryConfig::Full,
            ns_per_ref: 12,
            net: NetParams::paper(),
            cluster_nodes: 4,
            access_cost: AccessCost::default(),
            replacement: ReplacementKind::default(),
            fault_plan: None,
            retry: RetryConfig::default(),
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

    /// Sets the simulated cost of one memory reference, in nanoseconds.
    ///
    /// # Panics
    ///
    /// Panics if `ns` is zero.
    #[must_use]
    pub fn ns_per_ref(mut self, ns: u64) -> Self {
        assert!(ns > 0, "a reference must take non-zero time");
        self.config.ns_per_ref = ns;
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

    /// Sets the remote-transfer retry knobs.
    ///
    /// # Panics
    ///
    /// Panics if the knobs fail [`RetryConfig::validate`]. Callers that
    /// must not panic (the CLI) validate first and surface the error.
    #[must_use]
    pub fn retry(mut self, retry: RetryConfig) -> Self {
        if let Err(e) = retry.validate() {
            panic!("invalid retry config: {e}");
        }
        self.config.retry = retry;
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
            .ns_per_ref(10)
            .cluster_nodes(8)
            .access_cost(AccessCost::PalEmulated)
            .build();
        assert_eq!(config.ns_per_ref, 10);
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
    #[should_panic(expected = "non-zero time")]
    fn zero_ref_cost_panics() {
        let _ = SimConfig::builder().ns_per_ref(0);
    }

    #[test]
    fn retry_defaults_match_original_constants() {
        let retry = SimConfig::default().retry;
        assert_eq!(retry.max_fetch_attempts, 4);
        assert_eq!(retry.max_putpage_attempts, 8);
        assert_eq!(retry.backoff_divisor, 4);
        assert_eq!(retry.backoff_cap, 3);
        assert!(retry.validate().is_ok());
    }

    #[test]
    fn retry_validation_rejects_degenerate_knobs() {
        let ok = RetryConfig::default();
        assert!(RetryConfig {
            max_fetch_attempts: 0,
            ..ok
        }
        .validate()
        .is_err());
        assert!(RetryConfig {
            max_putpage_attempts: 0,
            ..ok
        }
        .validate()
        .is_err());
        assert!(RetryConfig {
            backoff_divisor: 0,
            ..ok
        }
        .validate()
        .is_err());
        assert!(RetryConfig {
            backoff_cap: 64,
            ..ok
        }
        .validate()
        .is_err());
    }

    #[test]
    fn retry_validation_bounds_the_worst_stall() {
        let schedule = |max_fetch_attempts, backoff_divisor, backoff_cap| RetryConfig {
            max_fetch_attempts,
            max_putpage_attempts: 8,
            backoff_divisor,
            backoff_cap,
        };
        // The defaults: 4 timeouts plus backoffs of 2, 4 and 8 quarters.
        assert_eq!(RetryConfig::default().worst_stall(), (4 * 4 + 14, 4));
        // Attempts past the cap each add 2^cap quarters.
        assert_eq!(
            schedule(6, 4, 2).worst_stall(),
            (6 * 4 + 2 + 4 + 4 + 4 + 4, 4)
        );
        assert_eq!(schedule(1, 1, 63).worst_stall(), (1, 1));
        // Exactly at the limit passes; one attempt more does not.
        assert_eq!(schedule(21_846, 1, 1).worst_stall(), (1 << 16, 1));
        assert!(schedule(21_846, 1, 1).validate().is_ok());
        assert!(schedule(21_847, 1, 1).validate().is_err());
        // Settings the CLI tests use stay accepted.
        for ok in [schedule(3, 4, 8), schedule(6, 4, 3), schedule(8, 4, 3)] {
            assert!(ok.validate().is_ok(), "{ok:?}");
        }
        // The bound assumes every timeout fits in 2^25 ns; the slowest
        // modelled network's longest one (a whole page) does.
        let slowest = NetParams::ethernet().getpage_timeout(gms_units::Bytes::kib(8));
        assert!(slowest < Duration::from_nanos(1 << 25), "{slowest}");
        let err = schedule(64, 4, 40).validate().expect_err("cap 40");
        assert!(err.contains("above the 65536"), "{err}");
        assert!(schedule(64, 4, 63).validate().is_err());
        assert!(schedule(u32::MAX, 4, 3).validate().is_err());
    }

    #[test]
    #[should_panic(expected = "invalid retry config")]
    fn builder_rejects_invalid_retry() {
        let _ = SimConfig::builder().retry(RetryConfig {
            max_fetch_attempts: 0,
            ..RetryConfig::default()
        });
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
