//! The multi-node cluster simulator.
//!
//! [`ClusterSim`] advances *A* active nodes — each replaying its own
//! application trace against its own page table, frame pool and LRU —
//! in one deterministic commit order over one shared
//! [`ClusterNetwork`] and one shared GMS. Concurrent faults, follow-on
//! pipelines and putpage
//! write-backs from different nodes contend on the shared wires and on
//! the serving nodes' CPU and DMA, so each node's page-wait grows with
//! cluster load (the effect [`ClusterReport`] surfaces as queueing delay
//! and wire utilization).
//!
//! `Simulator::run` is exactly the one-active-node case: both funnel
//! into [`run_cluster`], so a single-app cluster run and a serial run
//! produce byte-identical reports.
//!
//! # Determinism
//!
//! Each node alternates between a *local phase* (runs on fully-resident
//! pages, touching only node-private state) and *shared sections* (the
//! parked run that may fault, refill or evict through the shared
//! network and GMS). [`run_cluster`] commits shared sections in exactly
//! ascending `(park clock, node id)` order by always popping the minimal
//! parked node from a heap. Because that order is a pure function of
//! the inputs, the same inputs give the same report every time.
//!
//! [`ClusterNetwork`]: gms_net::ClusterNetwork

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use gms_cluster::Gms;
use gms_mem::PageId;
use gms_net::{ClusterNetwork, FaultInjector, NetResource};
use gms_obs::{NoopRecorder, QuantileSketch, Recorder};
use gms_trace::apps::AppProfile;
use gms_trace::synth::LAYOUT_BASE;
use gms_trace::TraceSource;
use gms_units::{Bytes, Duration, NodeId, SimTime, VirtAddr};

use crate::engine::{namespace_base, namespace_page, ClusterCtx, NodeDriver};
use crate::export::SloCount;
use crate::metrics::{ClusterNetStats, NodeNetStats};
use crate::{RunReport, SimConfig};

/// One active node's workload: a trace, its footprint and base address.
pub(crate) struct NodeInput<'a> {
    /// The reference trace the node replays.
    pub source: &'a mut dyn TraceSource,
    /// Total touched span, for sizing memory and warming the cache.
    pub footprint: Bytes,
    /// Page-aligned base of the footprint.
    pub base: VirtAddr,
}

/// Replays one trace per active node over a shared network and GMS,
/// committing shared sections in canonical `(park clock, node id)` order.
/// Returns one report per active node, the aggregate network
/// statistics, and the per-node network breakdown (one entry per
/// cluster node, active and idle). Lifecycle and occupancy events
/// stream into `rec`; with [`NoopRecorder`] every recording site
/// compiles away.
///
/// # Panics
///
/// Panics if `inputs` is empty, if the config has no idle node left to
/// donate memory, or if any footprint is zero.
pub(crate) fn run_cluster<R: Recorder>(
    cfg: &SimConfig,
    inputs: &mut [NodeInput<'_>],
    rec: &mut R,
) -> (Vec<RunReport>, ClusterNetStats, Vec<NodeNetStats>) {
    let active = u32::try_from(inputs.len()).expect("node count fits in u32");
    assert!(active >= 1, "a cluster run needs at least one active node");
    assert!(
        active < cfg.cluster_nodes,
        "a cluster of {} nodes cannot host {active} active nodes and an idle server",
        cfg.cluster_nodes
    );
    let geom = cfg.policy.geometry(cfg.page_size);
    let page_bytes = geom.page_size().bytes();
    for input in inputs.iter() {
        assert!(
            !input.footprint.is_zero(),
            "cannot size memory for an empty trace"
        );
    }

    // The shared substrate: every node's wires/DMA/CPU, plus the global
    // memory service holding every trace's pages in the idle nodes.
    let gms = if cfg.policy.is_disk() {
        None
    } else {
        let total_pages: u64 = inputs
            .iter()
            .map(|input| input.footprint.div_ceil(page_bytes))
            .sum();
        // Idle nodes need room for the combined footprint plus churn
        // headroom — and K copies of everything when replicating.
        let per_idle = total_pages
            .div_ceil(u64::from(cfg.cluster_nodes - active))
            .max(1)
            * 2
            * u64::from(cfg.replication.replicas.max(1));
        let mut gms = Gms::with_replication(cfg.cluster_nodes, active, per_idle, cfg.replication);
        for (i, input) in inputs.iter().enumerate() {
            let base_page = geom.page_of(input.base);
            let pages = input.footprint.div_ceil(page_bytes);
            let base = namespace_base(i as u64);
            gms.warm_cache(
                (0..pages).map(|k| namespace_page(base, PageId::new(base_page.get() + k))),
            );
        }
        Some(gms)
    };
    let mut net = ClusterNetwork::new(cfg.net, cfg.cluster_nodes);
    if let Some(plan) = &cfg.fault_plan {
        // An empty plan is never installed: no injector means no RNG is
        // ever constructed or drawn, keeping `Some(empty)` byte-identical
        // to `None`.
        if !plan.is_empty() {
            net.install_faults(FaultInjector::new(plan.clone()));
        }
    }
    let mut ctx = ClusterCtx::new(net, gms, active, page_bytes, rec);

    let mut drivers: Vec<NodeDriver<'_>> = inputs
        .iter()
        .enumerate()
        .map(|(i, input)| {
            let pages = input.footprint.div_ceil(page_bytes);
            let span = (geom.page_of(input.base), pages);
            NodeDriver::new(
                cfg,
                geom,
                cfg.memory.frames(pages),
                span,
                NodeId::new(i as u32),
            )
        })
        .collect();

    // Advance every node to its park, then repeatedly commit the
    // globally minimal `(park clock, id)` node's shared section and
    // re-advance it. A node's fully-resident runs between two parks
    // cost no heap operation.
    let mut parked: BinaryHeap<Reverse<(SimTime, usize)>> =
        BinaryHeap::with_capacity(drivers.len());
    for (i, (driver, input)) in drivers.iter_mut().zip(inputs.iter_mut()).enumerate() {
        if !driver.advance_local(&mut *input.source) {
            parked.push(Reverse((driver.clock(), i)));
        }
    }
    while let Some(Reverse((_, i))) = parked.pop() {
        drivers[i].process_pending_shared(&mut ctx);
        if !drivers[i].advance_local(&mut *inputs[i].source) {
            parked.push(Reverse((drivers[i].clock(), i)));
        }
    }

    // Close any window of vulnerability still open at the end of the
    // run: exposure that never healed counts in full.
    let end = ctx.net.horizon();
    if let Some(gms) = ctx.gms.as_mut() {
        gms.close_vulnerability(end.elapsed_since(SimTime::ZERO).as_nanos());
    }

    let reports: Vec<RunReport> = drivers
        .into_iter()
        .map(|d| d.into_report(cfg, &ctx))
        .collect();
    let makespan = reports
        .iter()
        .map(|r| r.total_time)
        .max()
        .unwrap_or(Duration::ZERO);
    let wire_in_busy = ctx.net.total_wire_in_busy();
    let span = makespan.as_nanos() as f64 * f64::from(cfg.cluster_nodes);

    // Per-node breakdown. Utilization is measured against the network
    // horizon (the latest any resource is booked), not the makespan:
    // busy ≤ next_free ≤ horizon for every resource, so the figure is
    // guaranteed to stay in [0, 1] even though transfers can be booked
    // past the slowest application's finish time.
    let horizon = ctx.net.horizon().elapsed_since(SimTime::ZERO);
    let per_node: Vec<NodeNetStats> = (0..ctx.net.n_nodes())
        .map(|i| {
            let node = NodeId::new(i);
            let nn = ctx.net.node(node);
            let busy = NetResource::ALL.map(|r| nn.busy(r));
            let waited = NetResource::ALL.map(|r| nn.waited(r));
            let wire = nn.busy(NetResource::WireIn) + nn.busy(NetResource::WireOut);
            let utilization = if horizon > Duration::ZERO {
                wire.as_nanos() as f64 / (2.0 * horizon.as_nanos() as f64)
            } else {
                0.0
            };
            NodeNetStats {
                node,
                busy,
                waited,
                utilization,
            }
        })
        .collect();
    let utils = per_node.iter().map(|n| n.utilization);
    let net = ClusterNetStats {
        queue_delay: ctx.net.total_queue_delay(),
        wire_in_busy,
        wire_out_busy: ctx.net.total_wire_out_busy(),
        wire_utilization: if span > 0.0 {
            wire_in_busy.as_nanos() as f64 / span
        } else {
            0.0
        },
        min_node_utilization: utils.clone().fold(f64::INFINITY, f64::min).clamp(0.0, 1.0),
        max_node_utilization: utils.fold(0.0, f64::max),
    };
    (reports, net, per_node)
}

/// Runs several applications concurrently, one per active node, over a
/// shared cluster.
///
/// # Examples
///
/// ```
/// use gms_core::{ClusterSim, FetchPolicy, MemoryConfig, SimConfig};
/// use gms_mem::SubpageSize;
/// use gms_trace::apps;
///
/// let config = SimConfig::builder()
///     .policy(FetchPolicy::eager(SubpageSize::S1K))
///     .memory(MemoryConfig::Half)
///     .cluster_nodes(4)
///     .build();
/// let app = apps::gdb().scaled(0.1);
/// let report = ClusterSim::new(config).run(&[app.clone(), app]);
/// assert_eq!(report.nodes.len(), 2);
/// for node in &report.nodes {
///     node.assert_conserved();
/// }
/// ```
#[derive(Debug, Clone)]
pub struct ClusterSim {
    config: SimConfig,
}

impl ClusterSim {
    /// A cluster simulator for the given configuration. The number of
    /// active nodes is set by how many apps are passed to [`run`]; the
    /// config's `cluster_nodes` is the cluster's *total* size.
    ///
    /// [`run`]: ClusterSim::run
    #[must_use]
    pub fn new(config: SimConfig) -> Self {
        ClusterSim { config }
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Runs one application per active node (node *i* runs `apps[i]`),
    /// all contending on the shared network and global memory.
    ///
    /// # Panics
    ///
    /// Panics if `apps` is empty or leaves no idle node in the cluster
    /// (`apps.len() >= cluster_nodes`).
    pub fn run(&self, apps: &[AppProfile]) -> ClusterReport {
        self.run_recorded(apps, &mut NoopRecorder)
    }

    /// Like [`run`](ClusterSim::run), but streams fault-lifecycle and
    /// network-occupancy events from every node into `rec`. With
    /// [`NoopRecorder`] the report is byte-identical to
    /// [`run`](ClusterSim::run)'s.
    ///
    /// # Panics
    ///
    /// Panics if `apps` is empty or leaves no idle node in the cluster.
    pub fn run_recorded<R: Recorder>(&self, apps: &[AppProfile], rec: &mut R) -> ClusterReport {
        let mut sources: Vec<_> = apps.iter().map(AppProfile::source).collect();
        let mut inputs: Vec<NodeInput<'_>> = sources
            .iter_mut()
            .zip(apps)
            .map(|(source, app)| NodeInput {
                source: &mut **source,
                footprint: app.footprint(),
                base: LAYOUT_BASE,
            })
            .collect();
        let (nodes, net, per_node) = run_cluster(&self.config, &mut inputs, rec);
        let makespan = nodes
            .iter()
            .map(|r| r.total_time)
            .max()
            .unwrap_or(Duration::ZERO);
        ClusterReport {
            nodes,
            makespan,
            net,
            per_node,
        }
    }
}

/// The outcome of a [`ClusterSim`] run: one [`RunReport`] per active
/// node plus cluster-wide network aggregates.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterReport {
    /// Per-active-node reports, in node order. Requester-side counters
    /// are private to each node; the GMS statistics and serving-side
    /// busy times are cluster-wide.
    pub nodes: Vec<RunReport>,
    /// The slowest node's total time.
    pub makespan: Duration,
    /// Aggregate contention metrics for the shared network.
    pub net: ClusterNetStats,
    /// Per-node network breakdown, indexed by node id: one entry per
    /// cluster node, active *and* idle — idle custodians show up here
    /// with serving-side CPU/DMA/wire busy time.
    pub per_node: Vec<NodeNetStats>,
}

impl ClusterReport {
    /// Mean per-node time spent waiting for pages (initial subpage
    /// latency plus rest-of-page waits). Grows with cluster load as
    /// transfers queue on shared wires and serving nodes.
    #[must_use]
    pub fn mean_page_wait(&self) -> Duration {
        if self.nodes.is_empty() {
            return Duration::ZERO;
        }
        let total: Duration = self.nodes.iter().map(|r| r.sp_latency + r.page_wait).sum();
        total / self.nodes.len() as u64
    }

    /// Every active node's fault waits in one sketch: the merge is
    /// exact, so this is the sketch of every fault in the cluster.
    #[must_use]
    pub fn wait_sketch(&self) -> QuantileSketch {
        let mut sketch = QuantileSketch::new();
        for node in &self.nodes {
            sketch.merge(&node.wait_sketch());
        }
        sketch
    }

    /// The faults of every active node, and how many of them waited at
    /// most `slo`.
    #[must_use]
    pub fn slo_count(&self, slo: Duration) -> SloCount {
        let mut count = SloCount {
            threshold: slo,
            faults: 0,
            under: 0,
        };
        for f in self.nodes.iter().flat_map(|n| &n.fault_log) {
            count.faults += 1;
            count.under += u64::from(f.wait <= slo);
        }
        count
    }

    /// A compact human-readable summary of the cluster run.
    #[must_use]
    pub fn summary(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "cluster: {} active node(s), makespan {}, wire util {:.1}%, queue delay {}\n",
            self.nodes.len(),
            self.makespan,
            self.net.wire_utilization * 100.0,
            self.net.queue_delay,
        ));
        for (i, node) in self.nodes.iter().enumerate() {
            out.push_str(&format!(
                "  node{i}: {} refs in {} ({} faults, page wait {})\n",
                node.total_refs,
                node.total_time,
                node.faults.total(),
                node.sp_latency + node.page_wait,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FetchPolicy, MemoryConfig, Simulator};
    use gms_mem::SubpageSize;

    fn config(nodes: u32) -> SimConfig {
        SimConfig::builder()
            .policy(FetchPolicy::eager(SubpageSize::S1K))
            .memory(MemoryConfig::Half)
            .cluster_nodes(nodes)
            .build()
    }

    #[test]
    fn one_active_node_matches_serial_simulator() {
        let app = gms_trace::apps::gdb().scaled(0.2);
        let serial = Simulator::new(config(4)).run(&app);
        let cluster = ClusterSim::new(config(4)).run(std::slice::from_ref(&app));
        assert_eq!(cluster.nodes.len(), 1);
        assert_eq!(cluster.nodes[0], serial);
        assert_eq!(cluster.makespan, serial.total_time);
    }

    #[test]
    fn active_nodes_contend_and_slow_each_other() {
        // The acceptance experiment: four actives sharing three idle
        // servers wait strictly longer per node than a lone active at
        // the same parameters, and the aggregate metrics show why.
        let app = gms_trace::apps::modula3().scaled(0.05);
        let alone = ClusterSim::new(config(7)).run(std::slice::from_ref(&app));
        let crowd = ClusterSim::new(config(7)).run(&[app.clone(), app.clone(), app.clone(), app]);
        assert!(
            crowd.mean_page_wait() > alone.mean_page_wait(),
            "crowded wait {} vs lone wait {}",
            crowd.mean_page_wait(),
            alone.mean_page_wait()
        );
        assert!(crowd.net.queue_delay > Duration::ZERO);
        assert!(crowd.net.wire_utilization > 0.0);
        for node in &crowd.nodes {
            node.assert_conserved();
            assert_eq!(node.total_refs, crowd.nodes[0].total_refs);
        }
    }

    #[test]
    fn cluster_runs_are_deterministic() {
        let app = gms_trace::apps::ld().scaled(0.1);
        let run = || ClusterSim::new(config(5)).run(&[app.clone(), app.clone()]);
        assert_eq!(run(), run());
    }

    #[test]
    fn five_hundred_twelve_node_cluster_runs() {
        // Guarded page-id namespacing at scale: 512 nodes' footprints
        // coexist in one GMS without colliding.
        let apps = [
            gms_trace::apps::gdb().scaled(0.02),
            gms_trace::apps::ld().scaled(0.02),
            gms_trace::apps::render().scaled(0.02),
            gms_trace::apps::modula3().scaled(0.02),
        ];
        let report = ClusterSim::new(config(512)).run(&apps);
        assert_eq!(report.nodes.len(), 4);
        assert_eq!(report.per_node.len(), 512);
        for node in &report.nodes {
            node.assert_conserved();
        }
    }

    #[test]
    #[should_panic(expected = "cannot host")]
    fn cluster_needs_an_idle_server() {
        let app = gms_trace::apps::gdb().scaled(0.1);
        let _ = ClusterSim::new(config(2)).run(&[app.clone(), app]);
    }

    #[test]
    fn summary_mentions_every_node() {
        let app = gms_trace::apps::gdb().scaled(0.1);
        let report = ClusterSim::new(config(4)).run(&[app.clone(), app]);
        let summary = report.summary();
        assert!(summary.contains("node0:"));
        assert!(summary.contains("node1:"));
        assert!(summary.contains("wire util"));
    }
}
