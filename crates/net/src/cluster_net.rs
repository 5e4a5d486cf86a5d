//! A shared, stateful network for a whole cluster.
//!
//! [`ClusterNetwork`] generalizes the five-resource fault pipeline of
//! Figure 2 from "one requester plus a lumped server" to *K* nodes, each
//! owning its own CPU share, RX/TX DMA rings and inbound/outbound wire
//! directions. Every resource is keyed by `(node, resource, direction)`
//! and persists across operations, so concurrent faults, follow-on
//! pipelines and putpage write-backs from different nodes contend on the
//! shared switch ports and on the *serving* node's CPU and DMA — the
//! congestion the paper's §3.2 simulator models for a single node,
//! extended to many. A two-node network (requester plus one lumped
//! server) is the paper's single-node pipeline: a fresh one times an
//! isolated fault, as Table 2 and Figure 2 do.

use gms_units::{Bytes, Duration, NetResource, NodeId, SimTime};

use crate::faults::{FaultInjector, FaultPlan};
use crate::timeline::{FaultTimeline, MessageArrival, RecvOverhead, SendTimeline, TransferPlan};
use crate::{NetParams, Resource};

/// The outcome of one getpage transfer attempt under fault injection.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultAttempt {
    /// The first (faulted-subpage) message was delivered and the program
    /// can resume. Follow-on arrivals may still individually be marked
    /// [`MessageArrival::lost`].
    Delivered(FaultTimeline),
    /// The request, or the first reply message, was lost — or the server
    /// is down. Nothing arrives; the requester must time out and retry.
    /// Resources spent before the loss (requester fault CPU, and the
    /// server side if the request got through) stay occupied.
    Failed,
}

/// One recorded occupancy of a `(node, resource)` pair, available when
/// [`ClusterNetwork::record_occupancies`] is enabled. Used by causality
/// tests, tracing and the Figure 2 renderer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Occupancy {
    /// The node whose resource was occupied.
    pub node: NodeId,
    /// Which of the node's resources.
    pub resource: NetResource,
    /// What the occupancy was for (`"fault+request"`, `"dma-out"`,
    /// `"data"`, …).
    pub what: &'static str,
    /// When the work *entered the queue* for this resource — the instant
    /// its input was available. `start - ready` is the queueing delay
    /// inflicted by earlier occupants; `end - start` is pure service.
    pub ready: SimTime,
    /// Occupancy start (grant).
    pub start: SimTime,
    /// Occupancy end (release).
    pub end: SimTime,
}

impl Occupancy {
    /// Queueing delay: time between entering the resource's queue and
    /// being granted the resource.
    #[must_use]
    pub fn queue(&self) -> Duration {
        self.start.elapsed_since(self.ready)
    }

    /// Service time: time the resource was actually held.
    #[must_use]
    pub fn service(&self) -> Duration {
        self.end.elapsed_since(self.start)
    }
}

/// The per-node slice of the shared network: CPU share, DMA rings, and
/// the two directions of the node's switch port.
#[derive(Debug, Clone, Default)]
pub struct NodeNet {
    cpu: Resource,
    dma_in: Resource,
    dma_out: Resource,
    wire_in: Resource,
    wire_out: Resource,
}

impl NodeNet {
    fn res_mut(&mut self, r: NetResource) -> &mut Resource {
        match r {
            NetResource::Cpu => &mut self.cpu,
            NetResource::DmaIn => &mut self.dma_in,
            NetResource::DmaOut => &mut self.dma_out,
            NetResource::WireIn => &mut self.wire_in,
            NetResource::WireOut => &mut self.wire_out,
        }
    }

    fn res(&self, r: NetResource) -> &Resource {
        match r {
            NetResource::Cpu => &self.cpu,
            NetResource::DmaIn => &self.dma_in,
            NetResource::DmaOut => &self.dma_out,
            NetResource::WireIn => &self.wire_in,
            NetResource::WireOut => &self.wire_out,
        }
    }

    /// Total busy time of one resource.
    #[must_use]
    pub fn busy(&self, r: NetResource) -> Duration {
        self.res(r).total_busy()
    }

    /// Total queueing delay inflicted by one resource.
    #[must_use]
    pub fn waited(&self, r: NetResource) -> Duration {
        self.res(r).total_waited()
    }

    /// Queueing delay summed over all five resources.
    #[must_use]
    pub fn total_waited(&self) -> Duration {
        NetResource::ALL.iter().map(|&r| self.waited(r)).sum()
    }
}

/// A cluster-wide network: one [`NodeNet`] per node on a full-duplex
/// switched interconnect, with the Figure-2 fault pipeline and putpage
/// sends scheduled over the shared state.
///
/// Modelling choices:
///
/// * The AN2 is a *switched, full-duplex* ATM network, so a transfer
///   from `a` to `b` occupies `a`'s outbound and `b`'s inbound wire
///   directions for the same interval ([`Resource::acquire_pair`]) and
///   nothing else on the fabric — there is no single shared medium.
/// * Tiny control messages (a fault's request) bypass the wire queues:
///   ATM multiplexes at cell granularity, so a 64-byte request never
///   waits behind a bulk transfer in any meaningful way. They are
///   charged their fixed transit latency only.
/// * Service is scheduled greedily in call order: within one simulated
///   instant, whichever operation is scheduled first claims the shared
///   stage first (FIFO per resource).
#[derive(Debug, Clone)]
pub struct ClusterNetwork {
    params: NetParams,
    nodes: Vec<NodeNet>,
    log: Option<Vec<Occupancy>>,
    /// While `true`, an enabled log records nothing. A consumer that
    /// knows the entries of a span will be discarded unseen (the flight
    /// recorder between fault windows) pauses the log across it rather
    /// than paying to push and then skip every entry.
    log_paused: bool,
    faults: Option<FaultInjector>,
}

impl ClusterNetwork {
    /// A network of `nodes` idle nodes.
    ///
    /// # Panics
    ///
    /// Panics if `nodes < 2` — a transfer needs two distinct endpoints.
    #[must_use]
    pub fn new(params: NetParams, nodes: u32) -> Self {
        assert!(nodes >= 2, "a cluster network needs at least two nodes");
        ClusterNetwork {
            params,
            nodes: (0..nodes).map(|_| NodeNet::default()).collect(),
            log: None,
            log_paused: false,
            faults: None,
        }
    }

    /// Installs a fault injector. Without one (the default), no fault
    /// path is ever consulted and scheduling is byte-identical to a
    /// fault-free network.
    pub fn install_faults(&mut self, injector: FaultInjector) {
        self.faults = Some(injector);
    }

    /// The installed fault plan, if any.
    #[must_use]
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.faults.as_ref().map(FaultInjector::plan)
    }

    /// Draws one loss decision for a putpage transfer (one draw per
    /// call; `false` without an injector, consuming no randomness).
    pub fn roll_putpage_loss(&mut self) -> bool {
        self.faults
            .as_mut()
            .is_some_and(FaultInjector::lose_message)
    }

    /// The timing constants in use.
    #[must_use]
    pub fn params(&self) -> &NetParams {
        &self.params
    }

    /// Number of nodes on the network.
    #[must_use]
    pub fn n_nodes(&self) -> u32 {
        self.nodes.len() as u32
    }

    /// The per-node resource state.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[must_use]
    pub fn node(&self, node: NodeId) -> &NodeNet {
        &self.nodes[node.as_usize()]
    }

    /// Starts recording every resource occupancy (off by default; the
    /// log grows with every transfer, so tests enable it explicitly).
    pub fn record_occupancies(&mut self) {
        // Consumers that never drain accumulate the whole run here
        // (occupancies dominate traced event volume); start big enough
        // that growth reallocs are rare. Draining consumers stay far
        // below this watermark and pay the allocation once.
        self.log = Some(Vec::with_capacity(8192));
    }

    /// The recorded occupancies, in acquisition order. Empty unless
    /// [`ClusterNetwork::record_occupancies`] was called.
    #[must_use]
    pub fn occupancies(&self) -> &[Occupancy] {
        self.log.as_deref().unwrap_or(&[])
    }

    /// Pause or resume an enabled occupancy log. While paused, nothing
    /// is recorded; scheduling is unaffected (the log is write-only).
    /// Pausing without [`ClusterNetwork::record_occupancies`] is a
    /// no-op.
    pub fn set_occupancy_log_paused(&mut self, paused: bool) {
        self.log_paused = paused;
    }

    /// Forget the logged occupancies, keeping the allocation. A consumer
    /// that drains the log at every sync keeps it a few entries long —
    /// cache-resident and never growing — instead of accumulating the
    /// whole run's history only to scan each entry once.
    pub fn clear_occupancies(&mut self) {
        if let Some(log) = &mut self.log {
            log.clear();
        }
    }

    /// Queueing delay summed over every resource of every node — the
    /// cluster's aggregate congestion indicator.
    #[must_use]
    pub fn total_queue_delay(&self) -> Duration {
        self.nodes.iter().map(NodeNet::total_waited).sum()
    }

    /// Inbound-wire busy time summed over all nodes. Divide by
    /// `nodes × span` for the cluster's aggregate wire utilization.
    #[must_use]
    pub fn total_wire_in_busy(&self) -> Duration {
        self.nodes.iter().map(|n| n.busy(NetResource::WireIn)).sum()
    }

    /// Outbound-wire busy time summed over all nodes. Equal to
    /// [`ClusterNetwork::total_wire_in_busy`]: each switched link occupies
    /// one inbound and one outbound direction for the same interval.
    #[must_use]
    pub fn total_wire_out_busy(&self) -> Duration {
        self.nodes
            .iter()
            .map(|n| n.busy(NetResource::WireOut))
            .sum()
    }

    /// The latest instant any resource of any node is committed to — an
    /// upper bound on every recorded occupancy's end. Transfers can
    /// outlive the last node's program (putpage tails, follow-on
    /// arrivals), so this is the denominator that keeps per-node
    /// utilizations within `[0, 1]`.
    #[must_use]
    pub fn horizon(&self) -> SimTime {
        self.nodes
            .iter()
            .flat_map(|n| NetResource::ALL.iter().map(move |&r| n.res(r).next_free()))
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    #[allow(clippy::too_many_arguments)]
    fn record(
        &mut self,
        node: NodeId,
        resource: NetResource,
        what: &'static str,
        ready: SimTime,
        start: SimTime,
        end: SimTime,
    ) {
        if let Some(log) = &mut self.log {
            if !self.log_paused {
                log.push(Occupancy {
                    node,
                    resource,
                    what,
                    ready,
                    start,
                    end,
                });
            }
        }
    }

    fn acquire(
        &mut self,
        node: NodeId,
        resource: NetResource,
        what: &'static str,
        ready: SimTime,
        duration: Duration,
    ) -> (SimTime, SimTime) {
        let (start, end) = self.nodes[node.as_usize()]
            .res_mut(resource)
            .acquire(ready, duration);
        self.record(node, resource, what, ready, start, end);
        (start, end)
    }

    /// Occupies the `rx` node's inbound and the `tx` node's outbound wire
    /// direction for one transfer (both ends of the switched link).
    fn acquire_wire(
        &mut self,
        rx: NodeId,
        tx: NodeId,
        what: &'static str,
        ready: SimTime,
        duration: Duration,
    ) -> (SimTime, SimTime) {
        let (ri, ti) = (rx.as_usize(), tx.as_usize());
        assert_ne!(ri, ti, "a transfer needs two distinct endpoints");
        let (start, end) = if ri < ti {
            let (lo, hi) = self.nodes.split_at_mut(ti);
            lo[ri]
                .wire_in
                .acquire_pair(&mut hi[0].wire_out, ready, duration)
        } else {
            let (lo, hi) = self.nodes.split_at_mut(ri);
            hi[0]
                .wire_in
                .acquire_pair(&mut lo[ti].wire_out, ready, duration)
        };
        self.record(rx, NetResource::WireIn, what, ready, start, end);
        self.record(tx, NetResource::WireOut, what, ready, start, end);
        (start, end)
    }

    /// Schedules a fault by `requester` at `at`, served from `server`'s
    /// memory, transferring `plan` — the Figure-2 pipeline over the
    /// shared state. The requester's fault handling and receives occupy
    /// its own CPU/DMA/wire-in; request processing, send setups and the
    /// outbound DMA occupy the *server's* CPU, TX DMA ring and wire-out,
    /// so getpage service from a busy custodian queues.
    ///
    /// # Panics
    ///
    /// Panics if `requester == server`, or if `at` precedes a time the
    /// requester CPU is already committed past and the clock would run
    /// backwards (callers should fault at monotonically non-decreasing
    /// times).
    pub fn fault(
        &mut self,
        at: SimTime,
        requester: NodeId,
        server: NodeId,
        plan: &TransferPlan,
    ) -> FaultTimeline {
        match self.fault_with(at, requester, server, plan, 1.0, false, &[]) {
            FaultAttempt::Delivered(timeline) => timeline,
            FaultAttempt::Failed => unreachable!("no losses were injected"),
        }
    }

    /// Schedules a fault like [`ClusterNetwork::fault`], but consults the
    /// installed [`FaultInjector`]: the server may be down, the request
    /// or any reply message may be lost, and degradation windows scale
    /// the data-movement costs. Without an injector this is exactly
    /// [`ClusterNetwork::fault`].
    ///
    /// Loss draws are made up front — one for the request, one per data
    /// message — so every attempt consumes a fixed amount of randomness
    /// regardless of outcome, keeping plans comparable across runs.
    pub fn try_fault(
        &mut self,
        at: SimTime,
        requester: NodeId,
        server: NodeId,
        plan: &TransferPlan,
    ) -> FaultAttempt {
        let (factor, request_lost, lost) = match &mut self.faults {
            None => (1.0, false, Vec::new()),
            Some(inj) => {
                let request_lost = inj.is_down(server, at) || inj.lose_message();
                let lost: Vec<bool> = plan.messages().iter().map(|_| inj.lose_message()).collect();
                (
                    inj.degrade_factor(requester, server, at),
                    request_lost,
                    lost,
                )
            }
        };
        self.fault_with(at, requester, server, plan, factor, request_lost, &lost)
    }

    #[allow(clippy::too_many_arguments)]
    fn fault_with(
        &mut self,
        at: SimTime,
        requester: NodeId,
        server: NodeId,
        plan: &TransferPlan,
        factor: f64,
        request_lost: bool,
        lost: &[bool],
    ) -> FaultAttempt {
        let p = self.params;
        let scaled = |d: Duration| if factor == 1.0 { d } else { d.mul_f64(factor) };

        // 1. Requester CPU: handle the fault, look up the page's location,
        //    send the request message.
        let (_, fend) = self.acquire(
            requester,
            NetResource::Cpu,
            "fault+request",
            at,
            p.fault_cpu,
        );

        // 2. The request message crosses the network. It is tiny, so it
        //    rides between the cells of any bulk transfer: fixed transit
        //    latency, no queueing, no booking.
        let qend = fend + p.request_transit;

        // A lost request (or a down server) goes no further: the
        // requester's fault CPU is spent, nothing else happens.
        if request_lost {
            return FaultAttempt::Failed;
        }

        // 3. Server CPU: interpret the request.
        let (_, send_ready) = self.acquire(
            server,
            NetResource::Cpu,
            "process-request",
            qend,
            p.server_request_cpu,
        );

        // 4. Each message flows through send-CPU -> server DMA -> wire ->
        //    requester DMA -> receive CPU. Send setups are issued back to
        //    back; the per-stage resources provide the pipelining (and the
        //    contention) of Figure 2.
        let mut arrivals = Vec::with_capacity(plan.messages().len());
        let mut resume_at = SimTime::ZERO;
        let mut stolen = Duration::ZERO;
        let mut setup_ready = send_ready;
        let mut aborted = false;

        for (index, &size) in plan.messages().iter().enumerate() {
            let (_, b) = self.acquire(
                server,
                NetResource::Cpu,
                "send-setup",
                setup_ready,
                p.server_send_cpu,
            );
            setup_ready = b;

            let (_, b) = self.acquire(
                server,
                NetResource::DmaOut,
                "dma-out",
                b,
                p.dma_startup + scaled(p.dma_time(size)),
            );

            let (_, b) = self.acquire_wire(
                requester,
                server,
                "data",
                b,
                p.wire_startup + scaled(p.wire.wire_time(size)),
            );

            // A lost message left the server and crossed the wire, but
            // never reached the application: no requester-side DMA or
            // receive work. Losing the *first* message aborts the whole
            // attempt — the requester will time out — while the server,
            // unaware, still streams the remaining messages.
            let is_lost = aborted || lost.get(index).copied().unwrap_or(false);
            if index == 0 && is_lost {
                aborted = true;
            }
            if is_lost {
                if !aborted {
                    arrivals.push(MessageArrival {
                        index,
                        size,
                        available_at: b,
                        recv_cpu: Duration::ZERO,
                        lost: true,
                    });
                }
                continue;
            }

            let (_, rdma_end) = self.acquire(
                requester,
                NetResource::DmaIn,
                "dma-in",
                b,
                p.dma_startup + scaled(p.dma_time(size)),
            );

            let first = index == 0;
            let charged = first || plan.recv_overhead() == RecvOverhead::Measured;
            let (available_at, recv_cpu) = if first {
                // The faulting CPU is idle (blocked on this very data):
                // it takes the interrupt and copies, then resumes.
                let cost = p.recv_interrupt_cpu + p.copy_time(size);
                let (_, b) = self.acquire(
                    requester,
                    NetResource::Cpu,
                    "receive+resume",
                    rdma_end,
                    cost,
                );
                (b, cost)
            } else if charged {
                // Follow-on receives steal CPU from the (running)
                // application. Their cost is reported via `stolen_cpu`
                // and charged by the caller against the application's
                // clock — not against this pipeline's CPU resource, which
                // would double-bill it.
                let cost = p.recv_interrupt_cpu + p.copy_time(size);
                (rdma_end + cost, cost)
            } else {
                // Idealized controller: data lands in place, valid bits
                // update, no interrupt.
                (rdma_end, Duration::ZERO)
            };

            if first {
                resume_at = available_at;
            } else {
                stolen += recv_cpu;
            }
            arrivals.push(MessageArrival {
                index,
                size,
                available_at,
                recv_cpu,
                lost: false,
            });
        }

        if aborted {
            return FaultAttempt::Failed;
        }

        let page_complete_at = arrivals
            .iter()
            .map(|m| m.available_at)
            .max()
            .expect("plans are non-empty");

        FaultAttempt::Delivered(FaultTimeline {
            fault_at: at,
            resume_at,
            arrivals,
            page_complete_at,
            stolen_cpu: stolen,
        })
    }

    /// Schedules an outbound transfer of `size` bytes from `from` to
    /// `to` — e.g. a `putpage` pushing an evicted page to its custodian.
    /// Both ends are modelled: the data occupies `to`'s inbound wire
    /// direction and RX DMA ring, and the receive work (interrupt plus
    /// copy) occupies its CPU — so a custodian absorbing write-backs
    /// serves subsequent getpage requests late.
    ///
    /// The sending CPU pays only the send setup (the paper's
    /// asynchronous putpage); DMA and wire proceed in the background.
    ///
    /// The custodian's CPU work is charged when the announcement message
    /// reaches it (one request-transit after the send setup), not when
    /// the data finishes crossing the wire: the custodian pre-posts the
    /// receive frame and the data is DMA'd into place. Charging at
    /// announce time also keeps the serially-reusable resource model
    /// fair — `next_free` never moves past an idle gap, so a slow bulk
    /// transfer cannot block getpage requests that arrive while the
    /// putpage data is still on the wire.
    ///
    /// # Panics
    ///
    /// Panics if `from == to`.
    pub fn send(&mut self, at: SimTime, from: NodeId, to: NodeId, size: Bytes) -> SendTimeline {
        let p = self.params;
        let factor = self
            .faults
            .as_ref()
            .map_or(1.0, |i| i.degrade_factor(from, to, at));
        let scaled = |d: Duration| if factor == 1.0 { d } else { d.mul_f64(factor) };
        let (_, cpu_free_at) = self.acquire(
            from,
            NetResource::Cpu,
            "putpage-send",
            at,
            p.server_send_cpu,
        );
        let (_, recv_cpu_end) = self.acquire(
            to,
            NetResource::Cpu,
            "putpage-receive",
            cpu_free_at + p.request_transit,
            p.recv_interrupt_cpu + p.copy_time(size),
        );
        let (_, dma_end) = self.acquire(
            from,
            NetResource::DmaOut,
            "putpage-dma-out",
            cpu_free_at,
            p.dma_startup + scaled(p.dma_time(size)),
        );
        let (_, wire_end) = self.acquire_wire(
            to,
            from,
            "putpage-data",
            dma_end,
            p.wire_startup + scaled(p.wire.wire_time(size)),
        );
        let (_, rdma_end) = self.acquire(
            to,
            NetResource::DmaIn,
            "putpage-dma-in",
            wire_end,
            p.dma_startup + scaled(p.dma_time(size)),
        );
        let delivered_at = rdma_end.max(recv_cpu_end);
        SendTimeline {
            send_at: at,
            cpu_free_at,
            delivered_at,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BusyTimes;

    const REQ: NodeId = NodeId::new(0);
    const SRV: NodeId = NodeId::new(1);

    fn plan_1k() -> TransferPlan {
        TransferPlan::eager(Bytes::kib(8), Bytes::new(1024))
    }

    /// An isolated fault: a fresh two-node network, requester and one
    /// lumped server, all resources idle.
    fn lone_fault(plan: &TransferPlan) -> FaultTimeline {
        ClusterNetwork::new(NetParams::paper(), 2).fault(SimTime::ZERO, REQ, SRV, plan)
    }

    /// Table 2 of the paper: subpage restart latencies for eager fullpage
    /// fetch on an 8 KB page, within 10%.
    #[test]
    fn table2_subpage_latencies() {
        let page = Bytes::kib(8);
        let cases = [
            (256u64, 0.45),
            (512, 0.47),
            (1024, 0.52),
            (2048, 0.66),
            (4096, 0.94),
        ];
        for (size, paper_ms) in cases {
            let fault = lone_fault(&TransferPlan::eager(page, Bytes::new(size)));
            let got = fault.restart_latency().as_millis_f64();
            let err = (got - paper_ms).abs() / paper_ms;
            assert!(
                err < 0.10,
                "{size} B subpage: got {got:.3} ms, paper {paper_ms} ms"
            );
        }
    }

    /// Table 2: "Rest of Page" arrival latencies, within 10%.
    #[test]
    fn table2_rest_of_page_latencies() {
        let page = Bytes::kib(8);
        let cases = [
            (256u64, 1.49),
            (512, 1.46),
            (1024, 1.38),
            (2048, 1.25),
            (4096, 1.23),
        ];
        for (size, paper_ms) in cases {
            let fault = lone_fault(&TransferPlan::eager(page, Bytes::new(size)));
            let got = fault.completion_latency().as_millis_f64();
            let err = (got - paper_ms).abs() / paper_ms;
            assert!(
                err < 0.10,
                "{size} B rest: got {got:.3} ms, paper {paper_ms} ms"
            );
        }
    }

    /// Table 2: a full 8 KB page fault restarts in about 1.48 ms.
    #[test]
    fn table2_fullpage_latency() {
        let mut net = ClusterNetwork::new(NetParams::paper(), 2);
        net.record_occupancies();
        let fault = net.fault(
            SimTime::ZERO,
            REQ,
            SRV,
            &TransferPlan::fullpage(Bytes::kib(8)),
        );
        let got = fault.restart_latency().as_millis_f64();
        assert!((1.35..1.60).contains(&got), "got {got:.3} ms");
        // Figure 2: the requester DMA completes at about 1.15 ms.
        let dma_end = net
            .occupancies()
            .iter()
            .filter(|o| o.node == REQ && o.resource == NetResource::DmaIn)
            .map(|o| o.end)
            .max()
            .expect("dma occupancy");
        let dma_ms = dma_end.as_millis_f64();
        assert!((1.00..1.30).contains(&dma_ms), "dma ends {dma_ms:.3} ms");
    }

    /// §3.1.1: eager fetch with 2 KB subpages completes the whole page
    /// *sooner* than the monolithic full-page transfer, thanks to
    /// DMA/wire overlap between the two messages.
    #[test]
    fn eager_2k_completes_before_fullpage() {
        let full = lone_fault(&TransferPlan::fullpage(Bytes::kib(8)));
        let eager = lone_fault(&TransferPlan::eager(Bytes::kib(8), Bytes::new(2048)));
        assert!(eager.page_complete_at < full.page_complete_at);
    }

    /// §3.1.1: the 1 KB eager case finishes the total operation slightly
    /// later than the 2 KB case — the first message is "too small" for
    /// optimal overlap.
    #[test]
    fn eager_1k_completion_slightly_worse_than_2k() {
        let e1k = lone_fault(&TransferPlan::eager(Bytes::kib(8), Bytes::new(1024)));
        let e2k = lone_fault(&TransferPlan::eager(Bytes::kib(8), Bytes::new(2048)));
        assert!(e1k.page_complete_at > e2k.page_complete_at);
    }

    /// Restart latency rises monotonically with subpage size.
    #[test]
    fn restart_latency_monotonic_in_subpage_size() {
        let page = Bytes::kib(8);
        let mut last = Duration::ZERO;
        for size in [256u64, 512, 1024, 2048, 4096] {
            let f = lone_fault(&TransferPlan::eager(page, Bytes::new(size)));
            assert!(f.restart_latency() > last, "{size} not monotonic");
            last = f.restart_latency();
        }
    }

    /// Causality: every message arrives after the fault, the first
    /// message defines resume, and the last defines completion.
    #[test]
    fn arrival_invariants() {
        let plan = TransferPlan::pipelined(
            Bytes::new(1024),
            &[Bytes::new(1024), Bytes::new(1024), Bytes::new(5120)],
            RecvOverhead::Zero,
        );
        let f = lone_fault(&plan);
        assert_eq!(f.arrivals.len(), 4);
        assert_eq!(f.arrivals[0].available_at, f.resume_at);
        // Follow-ons share a path and arrive in order. (The first message
        // may become available *after* an early follow-on, because only
        // the first message pays the interrupt-plus-copy cost here.)
        for w in f.arrivals[1..].windows(2) {
            assert!(w[0].available_at <= w[1].available_at);
        }
        for m in &f.arrivals {
            assert!(m.available_at > f.fault_at);
        }
        assert_eq!(
            f.page_complete_at,
            f.arrivals
                .iter()
                .map(|m| m.available_at)
                .max()
                .expect("non-empty")
        );
        assert_eq!(f.stolen_cpu, Duration::ZERO, "zero-overhead follow-ons");
    }

    /// Measured receive overhead charges the requester CPU per follow-on.
    #[test]
    fn measured_recv_overhead_steals_cpu() {
        let plan = TransferPlan::pipelined(
            Bytes::new(1024),
            &[Bytes::new(1024); 3],
            RecvOverhead::Measured,
        );
        let f = lone_fault(&plan);
        // Three follow-ons at 65 us + 1 KB * 36 ns each.
        let per = Duration::from_micros(65) + Duration::from_nanos(36 * 1024);
        assert_eq!(f.stolen_cpu, per * 3);
    }

    /// Back-to-back eager faults contend: the second fault's subpage
    /// queues behind the first fault's still-in-flight rest-of-page on
    /// the inbound wire.
    #[test]
    fn consecutive_faults_queue_on_the_inbound_wire() {
        let mut net = ClusterNetwork::new(NetParams::paper(), 2);
        let plan = plan_1k();
        let f1 = net.fault(SimTime::ZERO, REQ, SRV, &plan);
        // Fault again the instant the program resumes: f1's 7 KB rest is
        // still being transferred.
        let f2 = net.fault(f1.resume_at, REQ, SRV, &plan);
        let lone = lone_fault(&plan).restart_latency();
        assert!(
            f2.restart_latency() > lone + Duration::from_micros(50),
            "second fault {} vs lone {lone}",
            f2.restart_latency()
        );
        // A third fault issued long after everything drained sees the
        // lone latency again.
        let quiet = f2.page_complete_at + Duration::from_millis(10);
        let f3 = net.fault(quiet, REQ, SRV, &plan);
        assert_eq!(f3.restart_latency(), lone);
    }

    /// Overlapping faults: faulting immediately after restart while the
    /// rest-of-page is in flight delays the rest of page (congestion).
    #[test]
    fn overlap_window_is_positive_for_small_subpages() {
        let f = lone_fault(&TransferPlan::eager(Bytes::kib(8), Bytes::new(256)));
        // Table 2: about 50% of the full-page latency is overlappable.
        let window_ms = f.overlap_window().as_millis_f64();
        assert!((0.55..0.95).contains(&window_ms), "got {window_ms:.3} ms");
    }

    #[test]
    fn busy_time_accumulates_by_direction() {
        let mut net = ClusterNetwork::new(NetParams::paper(), 2);
        let busy = |net: &ClusterNetwork, r| net.node(REQ).busy(r);
        net.fault(
            SimTime::ZERO,
            REQ,
            SRV,
            &TransferPlan::fullpage(Bytes::kib(8)),
        );
        let wire_in = busy(&net, NetResource::WireIn);
        assert!(wire_in > Duration::ZERO);
        assert_eq!(
            busy(&net, NetResource::WireOut),
            Duration::ZERO,
            "fetches are inbound"
        );
        net.send(SimTime::ZERO, REQ, SRV, Bytes::kib(8));
        assert!(busy(&net, NetResource::WireOut) > Duration::ZERO);
        assert_eq!(
            busy(&net, NetResource::WireIn),
            wire_in,
            "sends are outbound"
        );
        // An 8 KB page occupies the wire for ~0.47 ms.
        let times = BusyTimes {
            wire_in,
            ..BusyTimes::default()
        };
        let util = times.wire_in_utilization(Duration::from_millis(1));
        assert!((0.4..0.55).contains(&util), "got {util}");
        assert_eq!(times.wire_in_utilization(Duration::ZERO), 0.0);
    }

    #[test]
    fn send_is_asynchronous_and_duplex() {
        // Putpages go to node 2, so the fetch's server (node 1) stays idle.
        let mut net = ClusterNetwork::new(NetParams::paper(), 3);
        let custodian = NodeId::new(2);
        let s1 = net.send(SimTime::ZERO, REQ, custodian, Bytes::kib(8));
        // The CPU is released long before delivery completes.
        assert!(s1.cpu_free_at < s1.delivered_at);
        let cpu_us = s1.cpu_free_at.elapsed_since(s1.send_at).as_micros_f64();
        assert!(cpu_us < 50.0, "putpage stalled the CPU for {cpu_us} us");
        // Consecutive putpages serialize with each other on the outbound
        // direction.
        let s2 = net.send(s1.cpu_free_at, REQ, custodian, Bytes::kib(8));
        assert!(
            s2.delivered_at.elapsed_since(s2.send_at) > s1.delivered_at.elapsed_since(s1.send_at)
        );
        // But an inbound fetch is essentially unaffected: the link is
        // full duplex and the request message multiplexes between cells.
        // (Only s2's 25 µs CPU send setup can delay the fault handler.)
        let full = TransferPlan::fullpage(Bytes::kib(8));
        let f = net.fault(s2.cpu_free_at, REQ, SRV, &full);
        assert_eq!(f.restart_latency(), lone_fault(&full).restart_latency());
    }

    /// Faults from two different requesters served by two different
    /// custodians do not contend at all on a switched fabric.
    #[test]
    fn disjoint_node_pairs_do_not_contend() {
        let mut net = ClusterNetwork::new(NetParams::paper(), 4);
        let plan = plan_1k();
        let lone = lone_fault(&plan).restart_latency();
        let f1 = net.fault(SimTime::ZERO, NodeId::new(0), NodeId::new(1), &plan);
        let f2 = net.fault(SimTime::ZERO, NodeId::new(2), NodeId::new(3), &plan);
        assert_eq!(f1.restart_latency(), lone);
        assert_eq!(f2.restart_latency(), lone);
    }

    /// Two requesters faulting against the *same* custodian queue on its
    /// CPU and TX DMA: the second fault restarts later than a lone one.
    #[test]
    fn shared_custodian_serializes_service() {
        let mut net = ClusterNetwork::new(NetParams::paper(), 3);
        let plan = plan_1k();
        let lone = lone_fault(&plan).restart_latency();
        let f1 = net.fault(SimTime::ZERO, NodeId::new(0), NodeId::new(2), &plan);
        let f2 = net.fault(SimTime::ZERO, NodeId::new(1), NodeId::new(2), &plan);
        assert_eq!(f1.restart_latency(), lone);
        assert!(
            f2.restart_latency() > lone,
            "second fault {} vs lone {lone}",
            f2.restart_latency()
        );
        assert!(net.total_queue_delay() > Duration::ZERO);
    }

    /// A putpage landing on a custodian occupies its CPU, so a getpage
    /// served right behind it is delayed.
    #[test]
    fn putpage_delays_subsequent_getpage_service() {
        let plan = plan_1k();
        let lone = lone_fault(&plan).restart_latency();
        let mut net = ClusterNetwork::new(NetParams::paper(), 3);
        let s = net.send(SimTime::ZERO, NodeId::new(1), NodeId::new(2), Bytes::kib(8));
        assert!(s.delivered_at > s.cpu_free_at);
        // Fault while the putpage data is still being absorbed.
        let f = net.fault(s.cpu_free_at, NodeId::new(0), NodeId::new(2), &plan);
        assert!(
            f.restart_latency() > lone,
            "got {} vs lone {lone}",
            f.restart_latency()
        );
    }

    /// Recorded occupancies never overlap per `(node, resource)` and have
    /// non-negative length.
    #[test]
    fn occupancy_log_is_causal() {
        let mut net = ClusterNetwork::new(NetParams::paper(), 3);
        net.record_occupancies();
        let plan = plan_1k();
        let f1 = net.fault(SimTime::ZERO, NodeId::new(0), NodeId::new(2), &plan);
        net.send(f1.resume_at, NodeId::new(1), NodeId::new(2), Bytes::kib(8));
        net.fault(f1.resume_at, NodeId::new(1), NodeId::new(2), &plan);
        let log = net.occupancies();
        assert!(!log.is_empty());
        let mut horizon = std::collections::HashMap::new();
        for occ in log {
            assert!(occ.end >= occ.start);
            assert!(
                occ.ready <= occ.start,
                "grant precedes queue entry: {} < {}",
                occ.start,
                occ.ready
            );
            assert_eq!(
                occ.queue() + occ.service(),
                occ.end.elapsed_since(occ.ready)
            );
            let last = horizon
                .entry((occ.node, occ.resource))
                .or_insert(SimTime::ZERO);
            assert!(
                occ.start >= *last,
                "{}/{} overlaps: starts {} before {}",
                occ.node,
                occ.resource.label(),
                occ.start,
                last
            );
            *last = occ.end;
        }
    }

    #[test]
    fn recording_is_off_by_default() {
        let mut net = ClusterNetwork::new(NetParams::paper(), 2);
        net.fault(SimTime::ZERO, NodeId::new(0), NodeId::new(1), &plan_1k());
        assert!(net.occupancies().is_empty());
    }

    #[test]
    #[should_panic(expected = "two distinct endpoints")]
    fn self_transfer_panics() {
        let mut net = ClusterNetwork::new(NetParams::paper(), 2);
        net.fault(SimTime::ZERO, NodeId::new(1), NodeId::new(1), &plan_1k());
    }

    #[test]
    #[should_panic(expected = "at least two nodes")]
    fn tiny_network_panics() {
        let _ = ClusterNetwork::new(NetParams::paper(), 1);
    }
}
