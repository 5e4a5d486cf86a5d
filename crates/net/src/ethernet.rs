//! Classic 10 Mb/s Ethernet, lightly or heavily loaded.

use gms_units::{Bytes, BytesPerSec, Duration};

use crate::LinkModel;

/// A shared 10 Mb/s Ethernet segment.
///
/// Figure 1 of the paper plots both a lightly-loaded and a heavily-loaded
/// Ethernet. Contention on a shared CSMA/CD segment stretches the
/// size-dependent component: at utilization `u` the effective service time
/// scales by roughly `1 / (1 - u)` (an M/M/1-style slowdown), and backoff
/// adds to the fixed overhead.
///
/// # Examples
///
/// ```
/// use gms_net::{EthernetLink, LinkModel};
/// use gms_units::Bytes;
///
/// let light = EthernetLink::light();
/// let loaded = EthernetLink::loaded();
/// let page = Bytes::kib(8);
/// assert!(loaded.transfer_time(page) > light.transfer_time(page) * 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EthernetLink {
    rate: BytesPerSec,
    fixed: Duration,
    utilization: f64,
    name: &'static str,
}

impl EthernetLink {
    /// A lightly-loaded segment: full 10 Mb/s, ~400 µs of protocol and
    /// driver overhead per transfer (mid-1990s UDP/IP stacks).
    #[must_use]
    pub fn light() -> Self {
        EthernetLink {
            rate: BytesPerSec::from_bits_per_sec(10_000_000),
            fixed: Duration::from_micros(400),
            utilization: 0.0,
            name: "ethernet-light",
        }
    }

    /// A heavily-loaded segment: 65% background utilization plus extra
    /// collision/backoff overhead.
    #[must_use]
    pub fn loaded() -> Self {
        EthernetLink {
            rate: BytesPerSec::from_bits_per_sec(10_000_000),
            fixed: Duration::from_micros(900),
            utilization: 0.65,
            name: "ethernet-loaded",
        }
    }

    /// The background utilization of the segment.
    #[must_use]
    pub fn utilization(&self) -> f64 {
        self.utilization
    }
}

impl LinkModel for EthernetLink {
    fn transfer_time(&self, size: Bytes) -> Duration {
        let slowdown = 1.0 / (1.0 - self.utilization);
        self.fixed + self.rate.time_for(size).mul_f64(slowdown)
    }

    fn name(&self) -> &'static str {
        self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn light_8k_page_takes_about_7ms() {
        // 8192 B at 1.25 MB/s is 6.55 ms plus 0.4 ms overhead.
        let t = EthernetLink::light().transfer_time(Bytes::kib(8));
        let ms = t.as_millis_f64();
        assert!((6.5..7.5).contains(&ms), "got {ms} ms");
    }

    #[test]
    fn loaded_inflates_the_variable_part() {
        let light = EthernetLink::light();
        let loaded = EthernetLink::loaded();
        let dl = light.transfer_time(Bytes::kib(8)) - light.zero_length_latency();
        let dh = loaded.transfer_time(Bytes::kib(8)) - loaded.zero_length_latency();
        // 1 / (1 - 0.65) is about 2.86x.
        let ratio = dh.as_nanos() as f64 / dl.as_nanos() as f64;
        assert!((2.7..3.0).contains(&ratio), "got {ratio}");
    }

    #[test]
    fn figure1_shape_ethernet_beats_disk_for_tiny_transfers() {
        // Figure 1's observation: even Ethernet has lower latency than a
        // disk for very small pages.
        use crate::{AccessPattern, DiskModel};
        let loaded = EthernetLink::loaded();
        let disk = DiskModel::paper(AccessPattern::Random);
        assert!(loaded.transfer_time(Bytes::new(256)) < disk.transfer_time(Bytes::new(256)));
    }

    #[test]
    fn names_distinguish_variants() {
        assert_ne!(EthernetLink::light().name(), EthernetLink::loaded().name());
    }
}
