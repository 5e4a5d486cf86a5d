//! The local-disk backing-store model.

use gms_units::{Bytes, BytesPerSec, Duration};

use crate::LinkModel;

/// Whether consecutive accesses land near each other on the platter.
///
/// The paper reports that "an average local disk access takes 4 to 14 ms
/// on the same system, depending on the nature of the access — sequential
/// or random."
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessPattern {
    /// Short seeks, mostly rotational settling: the 4 ms end.
    Sequential,
    /// Full average seek plus half a rotation: the 14 ms end.
    Random,
}

/// A mid-1990s local disk: positioning time plus media transfer.
///
/// # Examples
///
/// ```
/// use gms_net::{AccessPattern, DiskModel, LinkModel};
/// use gms_units::Bytes;
///
/// let disk = DiskModel::paper(AccessPattern::Random);
/// let ms = disk.transfer_time(Bytes::kib(8)).as_millis_f64();
/// assert!((12.0..15.0).contains(&ms)); // the paper's "14 ms" end
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiskModel {
    position: Duration,
    media_rate: BytesPerSec,
    pattern: AccessPattern,
}

impl DiskModel {
    /// The disk of the paper's measurements, in the given access pattern:
    /// random positioning ≈ 12.1 ms (8.9 ms average seek + 5.56 ms/2
    /// rotation at 5400 RPM + controller), sequential ≈ 2.5 ms, media rate
    /// 5 MB/s.
    #[must_use]
    pub fn paper(pattern: AccessPattern) -> Self {
        let position = match pattern {
            AccessPattern::Sequential => Duration::from_micros(2_500),
            AccessPattern::Random => Duration::from_micros(12_100),
        };
        DiskModel {
            position,
            media_rate: BytesPerSec::new(5_000_000),
            pattern,
        }
    }

    /// Creates a disk with explicit positioning time and media rate.
    #[must_use]
    pub fn new(position: Duration, media_rate: BytesPerSec, pattern: AccessPattern) -> Self {
        DiskModel {
            position,
            media_rate,
            pattern,
        }
    }

    /// The configured access pattern.
    #[must_use]
    pub fn pattern(&self) -> AccessPattern {
        self.pattern
    }
}

impl LinkModel for DiskModel {
    fn transfer_time(&self, size: Bytes) -> Duration {
        self.position + self.media_rate.time_for(size)
    }

    fn name(&self) -> &'static str {
        match self.pattern {
            AccessPattern::Sequential => "disk-seq",
            AccessPattern::Random => "disk-rand",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_band_4_to_14_ms_for_8k() {
        let seq = DiskModel::paper(AccessPattern::Sequential)
            .transfer_time(Bytes::kib(8))
            .as_millis_f64();
        let rand = DiskModel::paper(AccessPattern::Random)
            .transfer_time(Bytes::kib(8))
            .as_millis_f64();
        assert!((3.5..5.0).contains(&seq), "sequential {seq} ms");
        assert!((12.0..15.0).contains(&rand), "random {rand} ms");
    }

    #[test]
    fn zero_length_access_still_pays_positioning() {
        // Figure 1: "the disk subsystem exhibits high latency even for a
        // 'zero-length' page".
        let disk = DiskModel::paper(AccessPattern::Random);
        assert!(disk.zero_length_latency() >= Duration::from_millis(10));
    }

    #[test]
    fn size_dependence_is_mild_compared_to_positioning() {
        let disk = DiskModel::paper(AccessPattern::Random);
        let small = disk.transfer_time(Bytes::new(256));
        let large = disk.transfer_time(Bytes::kib(8));
        let growth = (large - small).as_millis_f64();
        assert!(growth < 2.0, "transfer adds {growth} ms");
    }

    #[test]
    fn figure1_shape_atm_beats_disk_everywhere() {
        use crate::{AtmLink, LinkModel};
        let atm = AtmLink::an2();
        let disk = DiskModel::paper(AccessPattern::Sequential);
        for kb in [0u64, 1, 2, 4, 8] {
            let size = Bytes::kib(kb);
            assert!(atm.transfer_time(size) < disk.transfer_time(size));
        }
    }

    #[test]
    fn names_follow_pattern() {
        assert_eq!(DiskModel::paper(AccessPattern::Random).name(), "disk-rand");
        assert_eq!(
            DiskModel::paper(AccessPattern::Sequential).name(),
            "disk-seq"
        );
    }
}
