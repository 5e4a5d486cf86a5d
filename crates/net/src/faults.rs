//! Deterministic, seeded fault injection for the cluster network.
//!
//! A [`FaultPlan`] declares everything that will go wrong in a run:
//! a per-message loss probability, latency-degradation windows (a
//! node's links run at `k×` cost during `[from, until)`), and scheduled
//! node crash/recovery events. The plan is pure data — parseable from a
//! compact CLI spec string — and a [`FaultInjector`] pairs it with the
//! vendored xoshiro RNG so every run is bit-reproducible: the same plan
//! and the same (deterministic) sequence of network operations draw the
//! same losses.
//!
//! With no injector installed the network never consults this module,
//! so fault support is zero-cost when disabled, matching the
//! `Recorder` discipline.

use gms_units::{Duration, NodeId, SimTime};
use rand::{rngs::SmallRng, Rng, SeedableRng};

/// The largest cost multiplier a plan may apply at any instant, whether
/// from one degrade window or from several that overlap in time. A
/// million-fold slowdown already stretches a millisecond transfer past
/// a quarter of an hour; a larger factor would push simulated times
/// toward the `u64` nanosecond range. A link that should stop carrying
/// traffic is a `crash`.
const MAX_DEGRADE_FACTOR: f64 = 1e6;

/// A latency-degradation window: every transfer touching `node` during
/// `[from, until)` has its data-movement costs multiplied by `factor`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradeWindow {
    /// The degraded node (either endpoint of a transfer qualifies).
    pub node: NodeId,
    /// Window start (inclusive).
    pub from: SimTime,
    /// Window end (exclusive).
    pub until: SimTime,
    /// Cost multiplier in `[1, 1e6]`.
    pub factor: f64,
}

/// A scheduled node availability change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeEvent {
    /// The node crashing or recovering.
    pub node: NodeId,
    /// When the change takes effect.
    pub at: SimTime,
    /// `true` for recovery, `false` for crash.
    pub up: bool,
}

/// Everything that will go wrong in a run, as pure data.
///
/// The default plan is empty: no loss, no windows, no crashes. An empty
/// plan injects nothing and runs are byte-identical to fault-free ones.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Per-message loss probability in `[0, 1)`.
    pub loss: f64,
    /// Seed for the loss RNG.
    pub seed: u64,
    /// Latency-degradation windows.
    pub degrades: Vec<DegradeWindow>,
    /// Crash/recovery schedule, sorted by `(at, node)`.
    pub crashes: Vec<NodeEvent>,
}

impl FaultPlan {
    /// Whether the plan injects nothing at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.loss == 0.0 && self.degrades.is_empty() && self.crashes.is_empty()
    }

    /// Whether `node` is crashed at `at` per the schedule: the latest
    /// event for `node` at or before `at` is a crash.
    #[must_use]
    pub fn is_down(&self, node: NodeId, at: SimTime) -> bool {
        self.crashes
            .iter()
            .rfind(|e| e.node == node && e.at <= at)
            .is_some_and(|e| !e.up)
    }

    /// Combined degradation factor for a transfer between `a` and `b`
    /// starting at `at`: the product of every window covering either
    /// endpoint. `1.0` when no window applies.
    #[must_use]
    pub fn degrade_factor(&self, a: NodeId, b: NodeId, at: SimTime) -> f64 {
        self.degrades
            .iter()
            .filter(|w| (w.node == a || w.node == b) && w.from <= at && at < w.until)
            .map(|w| w.factor)
            .product()
    }

    /// Checks that every node the plan crashes, recovers or degrades is
    /// in a cluster of `nodes` nodes.
    ///
    /// # Errors
    ///
    /// Names the first node outside the cluster, and the cluster size.
    pub fn check_nodes(&self, nodes: u32) -> Result<(), String> {
        let crashed = self.crashes.iter().map(|e| e.node);
        let mut named = crashed.chain(self.degrades.iter().map(|w| w.node));
        match named.find(|node| node.index() >= nodes) {
            Some(node) => Err(format!("{node} is outside the {nodes}-node cluster")),
            None => Ok(()),
        }
    }

    /// Parses a compact spec string, e.g.
    /// `loss=0.01,seed=7,crash=n2@40ms,recover=n2@60ms,degrade=n1@5ms..20msx4`.
    ///
    /// Fields (comma-separated, each `key=value`):
    ///
    /// * `loss=<p>` — per-message loss probability in `[0, 1)`
    /// * `seed=<n>` — loss RNG seed (default 0)
    /// * `crash=n<K>@<t>` — node K goes down at time t
    /// * `recover=n<K>@<t>` — node K comes back (empty) at time t
    /// * `degrade=n<K>@<t0>..<t1>x<f>` — node K's links cost f× during
    ///   `[t0, t1)`, for f in `[1, 1e6]`; windows that overlap in time
    ///   may not multiply past that ceiling either
    ///
    /// Times take `ns`/`us`/`ms`/`s` suffixes, or `%` of `horizon` (the
    /// caller-supplied nominal run length; `%` is an error when
    /// `horizon` is `None`). A time must be a finite, non-negative
    /// number of nanoseconds that fits in a `u64`.
    pub fn parse(spec: &str, horizon: Option<Duration>) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for field in spec.split(',').filter(|f| !f.is_empty()) {
            let (key, value) = field
                .split_once('=')
                .ok_or_else(|| format!("fault-plan field `{field}` is not key=value"))?;
            match key {
                "loss" => {
                    let p: f64 = value
                        .parse()
                        .map_err(|_| format!("bad loss probability `{value}`"))?;
                    if !(0.0..1.0).contains(&p) {
                        return Err(format!("loss probability {p} outside [0, 1)"));
                    }
                    plan.loss = p;
                }
                "seed" => {
                    plan.seed = value.parse().map_err(|_| format!("bad seed `{value}`"))?;
                }
                "crash" | "recover" => {
                    let (node, at) = parse_node_at(value, horizon)?;
                    plan.crashes.push(NodeEvent {
                        node,
                        at,
                        up: key == "recover",
                    });
                }
                "degrade" => {
                    let (node, rest) = parse_node(value)?;
                    let (window, factor) = rest
                        .split_once('x')
                        .ok_or_else(|| format!("degrade `{value}` missing `x<factor>`"))?;
                    let (from, until) = window
                        .split_once("..")
                        .ok_or_else(|| format!("degrade window `{window}` missing `..`"))?;
                    let from = parse_time(from, horizon)?;
                    let until = parse_time(until, horizon)?;
                    if until <= from {
                        return Err(format!("degrade window `{window}` is empty"));
                    }
                    let factor: f64 = factor
                        .parse()
                        .map_err(|_| format!("bad degrade factor `{factor}`"))?;
                    if !(1.0..=MAX_DEGRADE_FACTOR).contains(&factor) {
                        return Err(format!(
                            "degrade factor {factor} outside [1, {MAX_DEGRADE_FACTOR}]"
                        ));
                    }
                    plan.degrades.push(DegradeWindow {
                        node,
                        from,
                        until,
                        factor,
                    });
                }
                other => return Err(format!("unknown fault-plan field `{other}`")),
            }
        }
        // Factors are at least 1, so the stacked factor peaks at some
        // window's start: checking each start bounds it everywhere.
        for w in &plan.degrades {
            let stacked: f64 = plan
                .degrades
                .iter()
                .filter(|v| v.from <= w.from && w.from < v.until)
                .map(|v| v.factor)
                .product();
            if stacked > MAX_DEGRADE_FACTOR {
                return Err(format!(
                    "degrade windows stack to factor {stacked} at {}ns, above {MAX_DEGRADE_FACTOR}",
                    w.from.as_nanos()
                ));
            }
        }
        plan.crashes
            .sort_by_key(|e| (e.at.as_nanos(), e.node.index(), e.up));
        Ok(plan)
    }

    /// Renders the plan back to the compact spec grammar of
    /// [`FaultPlan::parse`]. Times are emitted in absolute nanoseconds,
    /// so the result never depends on a horizon; parsing it back yields
    /// an equal plan (provided the crash schedule is in the parser's
    /// canonical `(at, node, up)` order, which every parsed plan is).
    #[must_use]
    pub fn to_spec(&self) -> String {
        let mut fields = Vec::new();
        if self.loss > 0.0 {
            fields.push(format!("loss={}", self.loss));
        }
        if self.seed != 0 {
            fields.push(format!("seed={}", self.seed));
        }
        for w in &self.degrades {
            fields.push(format!(
                "degrade=n{}@{}ns..{}nsx{}",
                w.node.index(),
                w.from.as_nanos(),
                w.until.as_nanos(),
                w.factor
            ));
        }
        for e in &self.crashes {
            fields.push(format!(
                "{}=n{}@{}ns",
                if e.up { "recover" } else { "crash" },
                e.node.index(),
                e.at.as_nanos()
            ));
        }
        fields.join(",")
    }
}

/// Parses a `n<K>@...` prefix, returning the node and the remainder.
fn parse_node(value: &str) -> Result<(NodeId, &str), String> {
    let rest = value
        .strip_prefix('n')
        .ok_or_else(|| format!("node spec `{value}` must start with `n`"))?;
    let (id, rest) = rest
        .split_once('@')
        .ok_or_else(|| format!("node spec `{value}` missing `@<time>`"))?;
    let id: u32 = id.parse().map_err(|_| format!("bad node id `{id}`"))?;
    Ok((NodeId::new(id), rest))
}

/// Parses a full `n<K>@<time>` spec.
fn parse_node_at(value: &str, horizon: Option<Duration>) -> Result<(NodeId, SimTime), String> {
    let (node, at) = parse_node(value)?;
    Ok((node, parse_time(at, horizon)?))
}

/// Parses a time with `ns`/`us`/`ms`/`s` suffix, or `%` of `horizon`,
/// refusing one that is negative, NaN or beyond the `u64` nanosecond
/// range.
fn parse_time(value: &str, horizon: Option<Duration>) -> Result<SimTime, String> {
    let ns = if let Some(pct) = value.strip_suffix('%') {
        let pct: f64 = pct
            .parse()
            .map_err(|_| format!("bad percentage `{value}`"))?;
        let horizon =
            horizon.ok_or_else(|| format!("`{value}`: no run horizon to take a percentage of"))?;
        horizon.as_nanos() as f64 * pct / 100.0
    } else {
        let (digits, scale) = if let Some(d) = value.strip_suffix("ns") {
            (d, 1.0)
        } else if let Some(d) = value.strip_suffix("us") {
            (d, 1e3)
        } else if let Some(d) = value.strip_suffix("ms") {
            (d, 1e6)
        } else if let Some(d) = value.strip_suffix('s') {
            (d, 1e9)
        } else {
            return Err(format!("time `{value}` needs a ns/us/ms/s or % suffix"));
        };
        let digits: f64 = digits
            .parse()
            .map_err(|_| format!("bad time value `{value}`"))?;
        digits * scale
    };
    if !(0.0..u64::MAX as f64).contains(&ns) {
        return Err(format!("time `{value}` is negative or out of range"));
    }
    Ok(SimTime::from_nanos(ns as u64))
}

/// A [`FaultPlan`] armed with its RNG: the object the network consults.
///
/// Loss draws mutate the RNG, so they must happen in a deterministic
/// order — the simulator's lockstep schedule guarantees network
/// operations are issued identically run over run.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    rng: SmallRng,
}

impl FaultInjector {
    /// Arms `plan` with its seeded RNG.
    #[must_use]
    pub fn new(plan: FaultPlan) -> Self {
        let rng = SmallRng::seed_from_u64(plan.seed);
        FaultInjector { plan, rng }
    }

    /// The plan in force.
    #[must_use]
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Draws one loss decision. Plans with zero loss never touch the
    /// RNG, so crash-only plans stay loss-deterministic.
    pub fn lose_message(&mut self) -> bool {
        self.plan.loss > 0.0 && self.rng.gen_bool(self.plan.loss)
    }

    /// Whether `node` is crashed at `at`.
    #[must_use]
    pub fn is_down(&self, node: NodeId, at: SimTime) -> bool {
        self.plan.is_down(node, at)
    }

    /// Degradation factor for a transfer between `a` and `b` at `at`.
    #[must_use]
    pub fn degrade_factor(&self, a: NodeId, b: NodeId, at: SimTime) -> f64 {
        self.plan.degrade_factor(a, b, at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> SimTime {
        SimTime::from_nanos(n * 1_000_000)
    }

    #[test]
    fn check_nodes_names_the_first_node_outside() {
        let plan = FaultPlan::parse("crash=n2@1ms,degrade=n5@0ms..1msx2", None).unwrap();
        assert_eq!(plan.check_nodes(6), Ok(()));
        assert_eq!(
            plan.check_nodes(5),
            Err("node5 is outside the 5-node cluster".to_owned())
        );
        assert_eq!(
            plan.check_nodes(2),
            Err("node2 is outside the 2-node cluster".to_owned())
        );
    }

    #[test]
    fn empty_plan_is_empty() {
        assert!(FaultPlan::default().is_empty());
        let plan = FaultPlan::parse("", None).expect("empty spec");
        assert!(plan.is_empty());
    }

    #[test]
    fn parses_the_readme_example() {
        let plan =
            FaultPlan::parse("loss=0.01,seed=7,crash=n2@40ms,recover=n2@60ms", None).expect("ok");
        assert_eq!(plan.loss, 0.01);
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.crashes.len(), 2);
        assert!(!plan.is_down(NodeId::new(2), ms(39)));
        assert!(plan.is_down(NodeId::new(2), ms(40)));
        assert!(plan.is_down(NodeId::new(2), ms(59)));
        assert!(!plan.is_down(NodeId::new(2), ms(60)));
        assert!(!plan.is_down(NodeId::new(3), ms(50)));
    }

    #[test]
    fn parses_degrade_windows() {
        let plan = FaultPlan::parse("degrade=n1@5ms..20msx4", None).expect("ok");
        let n1 = NodeId::new(1);
        let n0 = NodeId::new(0);
        assert_eq!(plan.degrade_factor(n0, n1, ms(10)), 4.0);
        assert_eq!(plan.degrade_factor(n1, n0, ms(10)), 4.0);
        assert_eq!(plan.degrade_factor(n0, n1, ms(4)), 1.0);
        assert_eq!(plan.degrade_factor(n0, n1, ms(20)), 1.0);
        assert_eq!(plan.degrade_factor(n0, NodeId::new(2), ms(10)), 1.0);
    }

    #[test]
    fn percent_times_need_a_horizon() {
        assert!(FaultPlan::parse("crash=n3@25%", None).is_err());
        let plan = FaultPlan::parse("crash=n3@25%", Some(Duration::from_millis(100))).expect("ok");
        assert_eq!(plan.crashes[0].at, ms(25));
    }

    #[test]
    fn rejects_malformed_specs() {
        for bad in [
            "nonsense",
            "loss=2.0",
            "loss=-0.1",
            "crash=2@40ms",
            "crash=n2@40",
            "degrade=n1@5ms..20ms",
            "degrade=n1@20ms..5msx2",
            "degrade=n1@5ms..20msx0.5",
            "degrade=n1@5ms..20msxnan",
            "degrade=n1@5ms..20msxinf",
            "degrade=n1@5ms..20msx1e15",
            "degrade=n1@5ms..20msx1e3,degrade=n2@10ms..30msx1e4",
            "crash=n2@-5ms",
            "crash=n2@nanms",
            "crash=n2@infs",
            "crash=n2@1e30s",
            "frobnicate=1",
        ] {
            assert!(FaultPlan::parse(bad, None).is_err(), "accepted `{bad}`");
        }
        // Windows that do not overlap in time never stack.
        let apart = "degrade=n1@5ms..20msx1e6,degrade=n1@20ms..30msx1e6";
        assert!(FaultPlan::parse(apart, None).is_ok());
    }

    #[test]
    fn loss_draws_are_seed_deterministic() {
        let plan = FaultPlan::parse("loss=0.2,seed=42", None).expect("ok");
        let draw = |plan: &FaultPlan| {
            let mut inj = FaultInjector::new(plan.clone());
            (0..64).map(|_| inj.lose_message()).collect::<Vec<_>>()
        };
        assert_eq!(draw(&plan), draw(&plan));
        assert!(draw(&plan).iter().any(|&l| l), "0.2 loss over 64 draws");
        let other = FaultPlan::parse("loss=0.2,seed=43", None).expect("ok");
        assert_ne!(draw(&plan), draw(&other), "different seeds differ");
    }

    #[test]
    fn zero_loss_never_draws() {
        let plan = FaultPlan::parse("crash=n2@40ms", None).expect("ok");
        let mut inj = FaultInjector::new(plan);
        for _ in 0..16 {
            assert!(!inj.lose_message());
        }
    }
}
