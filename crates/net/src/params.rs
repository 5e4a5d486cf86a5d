//! Calibrated timing constants for remote-memory faults.

use gms_units::Duration;

use crate::AtmLink;

/// The per-stage timing constants of a remote page fetch.
///
/// These are fitted so a lone fault on a two-node
/// [`ClusterNetwork`](crate::ClusterNetwork) reproduces the paper's
/// measurements:
///
/// * Table 2's subpage restart latencies (0.45 ms at 256 B rising to
///   1.48 ms for a full 8 KB page),
/// * Figure 2's component layout (the 8 KB requester DMA finishing at
///   ~1.15 ms, restart at ~1.48 ms),
/// * the paper's statement that ~1.03 ms of the 1.6 ms full-page fault in
///   the original GMS was network and controller time, and
/// * the measured per-message interrupt overhead of 68–91 µs (§4.3).
///
/// The restart latency of a lone fault decomposes as
/// `fixed_request_cost() + per-byte costs`, where the per-byte slope is
/// `dma ⋅ 2 + wire (framed) + copy ≈ 135 ns/B` — matching Table 2's
/// near-affine measurements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetParams {
    /// Requester CPU: fault handling, directory lookup, building and
    /// sending the request message.
    pub fault_cpu: Duration,
    /// Transit of the (tiny) request message: wire plus server-side DMA.
    pub request_transit: Duration,
    /// Server CPU: receiving and interpreting the request, locating the
    /// page frame.
    pub server_request_cpu: Duration,
    /// Server CPU: per data message send setup.
    pub server_send_cpu: Duration,
    /// Fixed startup of each DMA transfer (either side).
    pub dma_startup: Duration,
    /// Per-byte DMA time (either side), in nanoseconds.
    pub dma_ns_per_byte: f64,
    /// Fixed wire acquisition per message.
    pub wire_startup: Duration,
    /// The wire itself (rate and cell framing).
    pub wire: AtmLink,
    /// Requester CPU: taking the receive interrupt for a data message.
    pub recv_interrupt_cpu: Duration,
    /// Requester CPU: per-byte copy from the receive buffer into the
    /// page frame, in nanoseconds.
    pub copy_ns_per_byte: f64,
}

impl NetParams {
    /// The constants calibrated against the paper's Alpha 250 / AN2
    /// prototype.
    #[must_use]
    pub fn paper() -> Self {
        NetParams {
            fault_cpu: Duration::from_micros(140),
            request_transit: Duration::from_micros(15),
            server_request_cpu: Duration::from_micros(140),
            server_send_cpu: Duration::from_micros(25),
            dma_startup: Duration::from_micros(12),
            dma_ns_per_byte: 21.0,
            wire_startup: Duration::from_micros(6),
            wire: AtmLink::an2(),
            recv_interrupt_cpu: Duration::from_micros(65),
            copy_ns_per_byte: 36.0,
        }
    }

    /// Remote paging over a 10 Mb/s Ethernet instead of the AN2: the
    /// same host software and DMA costs, a 65× slower wire, and longer
    /// request transit. Used to test Figure 1's observation that "even
    /// Ethernet … would still have better latency than disk for very
    /// small pages". (Framing overhead is approximated with the ATM cell
    /// model, which slightly overstates Ethernet's ~2.5% overhead.)
    #[must_use]
    pub fn ethernet() -> Self {
        let mut p = NetParams::paper();
        p.wire = AtmLink::new(
            gms_units::BytesPerSec::from_bits_per_sec(10_000_000),
            Duration::ZERO,
        );
        p.request_transit = Duration::from_micros(120);
        p
    }

    /// A hypothetical future network: `factor`-times faster wire and DMA
    /// with the same software costs. Used for the paper's closing
    /// speculation that the optimal subpage size shrinks as the ratio of
    /// network speed to memory speed increases.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not strictly positive.
    #[must_use]
    pub fn scaled_network(mut self, factor: f64) -> Self {
        assert!(factor > 0.0, "network scale factor must be positive");
        self.dma_ns_per_byte /= factor;
        self.wire = AtmLink::new(self.wire_rate().scaled(factor), Duration::ZERO);
        self
    }

    fn wire_rate(&self) -> gms_units::BytesPerSec {
        // Reconstruct the nominal rate from the per-payload-byte figure.
        let ns_per_raw_byte = self.wire.nanos_per_payload_byte() * crate::atm::CELL_PAYLOAD as f64
            / crate::atm::CELL_TOTAL as f64;
        gms_units::BytesPerSec::new((1e9 / ns_per_raw_byte).round() as u64)
    }

    /// The total fixed cost of a lone fault, before any per-byte costs:
    /// the sum of every per-fault, size-independent term.
    #[must_use]
    pub fn fixed_request_cost(&self) -> Duration {
        self.fault_cpu
            + self.request_transit
            + self.server_request_cpu
            + self.server_send_cpu
            + self.dma_startup
            + self.wire_startup
            + self.dma_startup
            + self.recv_interrupt_cpu
    }

    /// Per-byte DMA time as a [`Duration`] for `n` bytes.
    #[must_use]
    pub fn dma_time(&self, bytes: gms_units::Bytes) -> Duration {
        Duration::from_nanos((bytes.get() as f64 * self.dma_ns_per_byte).round() as u64)
    }

    /// Per-byte copy time as a [`Duration`] for `n` bytes.
    #[must_use]
    pub fn copy_time(&self, bytes: gms_units::Bytes) -> Duration {
        Duration::from_nanos((bytes.get() as f64 * self.copy_ns_per_byte).round() as u64)
    }

    /// How long a requester waits for the first message of a getpage
    /// before declaring the request (or its reply) lost: the fixed
    /// request cost plus the per-byte cost of delivering `bytes`
    /// (DMA out, framed wire, DMA in, copy — an uncontended first
    /// message), doubled as the margin for queueing behind other
    /// transfers. Deterministic — derived entirely from the calibrated
    /// constants, never measured.
    #[must_use]
    pub fn getpage_timeout(&self, bytes: gms_units::Bytes) -> Duration {
        let transfer = self.dma_time(bytes)
            + self.dma_time(bytes)
            + self.wire.wire_time(bytes)
            + self.copy_time(bytes);
        (self.fixed_request_cost() + transfer) * 2
    }
}

impl Default for NetParams {
    fn default() -> Self {
        NetParams::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gms_units::Bytes;

    #[test]
    fn fixed_cost_is_about_415_us() {
        // The intercept of Table 2's near-affine latency curve.
        let fixed = NetParams::paper().fixed_request_cost().as_micros_f64();
        assert!((380.0..450.0).contains(&fixed), "got {fixed} us");
    }

    #[test]
    fn per_byte_slope_is_about_135_ns() {
        // dma*2 + framed wire + copy: Table 2's marginal cost per byte.
        let p = NetParams::paper();
        let slope = 2.0 * p.dma_ns_per_byte + p.wire.nanos_per_payload_byte() + p.copy_ns_per_byte;
        assert!((125.0..145.0).contains(&slope), "got {slope} ns/B");
    }

    #[test]
    fn helpers_convert_bytes() {
        let p = NetParams::paper();
        assert_eq!(p.dma_time(Bytes::new(1000)), Duration::from_micros(21));
        assert_eq!(p.copy_time(Bytes::new(1000)), Duration::from_micros(36));
    }

    #[test]
    fn scaled_network_speeds_up_wire_and_dma_only() {
        let base = NetParams::paper();
        let fast = base.scaled_network(4.0);
        assert!(fast.dma_ns_per_byte < base.dma_ns_per_byte);
        assert!(fast.wire.nanos_per_payload_byte() < base.wire.nanos_per_payload_byte() / 3.0);
        assert_eq!(fast.fault_cpu, base.fault_cpu);
    }

    #[test]
    fn default_is_paper() {
        assert_eq!(NetParams::default(), NetParams::paper());
    }

    #[test]
    fn ethernet_preset_is_much_slower_on_the_wire_only() {
        let eth = NetParams::ethernet();
        let atm = NetParams::paper();
        // ~15.5x slower wire.
        let ratio = eth.wire.nanos_per_payload_byte() / atm.wire.nanos_per_payload_byte();
        assert!((14.0..17.0).contains(&ratio), "ratio {ratio}");
        // Host costs unchanged.
        assert_eq!(eth.fault_cpu, atm.fault_cpu);
        assert_eq!(eth.copy_ns_per_byte, atm.copy_ns_per_byte);
        // A lone fullpage fault over Ethernet takes several ms —
        // Figure 1's "much worse than disk for transferring large pages".
        let fault = crate::ClusterNetwork::new(eth, 2).fault(
            gms_units::SimTime::ZERO,
            gms_units::NodeId::new(0),
            gms_units::NodeId::new(1),
            &crate::TransferPlan::fullpage(Bytes::kib(8)),
        );
        let ms = fault.restart_latency().as_millis_f64();
        assert!((6.0..10.0).contains(&ms), "got {ms} ms");
    }
}
