//! Cluster-wide identifiers.

use core::fmt;

/// Identifies a node in the global-memory cluster.
///
/// Node 0 is conventionally the *active* (faulting) node in the paper's
/// experiments; the remaining nodes are idle memory servers.
///
/// # Examples
///
/// ```
/// use gms_units::NodeId;
/// let server = NodeId::new(3);
/// assert_eq!(server.index(), 3);
/// assert_eq!(format!("{server}"), "node3");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(u32);

impl NodeId {
    /// Creates a node identifier from a dense index.
    #[must_use]
    pub const fn new(index: u32) -> Self {
        NodeId(index)
    }

    /// The dense index of this node.
    #[must_use]
    pub const fn index(self) -> u32 {
        self.0
    }

    /// The dense index as a `usize`, for direct slice indexing.
    #[must_use]
    pub const fn as_usize(self) -> usize {
        self.0 as usize
    }
}

impl From<u32> for NodeId {
    fn from(index: u32) -> NodeId {
        NodeId(index)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// One of a node's five serially-reusable network resources: the
/// network books transfers on them, and the recorders and exporters key
/// their per-resource tracks and counters by them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NetResource {
    /// The node CPU's share of message processing.
    Cpu,
    /// The inbound (receive) DMA ring.
    DmaIn,
    /// The outbound (transmit) DMA ring.
    DmaOut,
    /// The inbound wire direction of the node's switch port.
    WireIn,
    /// The outbound wire direction of the node's switch port.
    WireOut,
}

impl NetResource {
    /// All five resources, in a fixed order (the per-node track order
    /// of the Perfetto export).
    pub const ALL: [NetResource; 5] = [
        NetResource::Cpu,
        NetResource::DmaIn,
        NetResource::DmaOut,
        NetResource::WireIn,
        NetResource::WireOut,
    ];

    /// A short human-readable label (`cpu`, `dma-in`, …).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            NetResource::Cpu => "cpu",
            NetResource::DmaIn => "dma-in",
            NetResource::DmaOut => "dma-out",
            NetResource::WireIn => "wire-in",
            NetResource::WireOut => "wire-out",
        }
    }

    /// The position of this resource in [`NetResource::ALL`]: the
    /// stable per-node index of exporters and per-resource arrays.
    #[must_use]
    pub const fn index(self) -> usize {
        self as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_and_displays() {
        let id = NodeId::new(7);
        assert_eq!(id.index(), 7);
        assert_eq!(id.as_usize(), 7);
        assert_eq!(NodeId::from(7u32), id);
        assert_eq!(format!("{id}"), "node7");
    }

    #[test]
    fn orders_by_index() {
        assert!(NodeId::new(1) < NodeId::new(2));
    }

    #[test]
    fn resource_index_matches_all_order() {
        for (i, r) in NetResource::ALL.iter().enumerate() {
            assert_eq!(r.index(), i);
        }
    }

    #[test]
    fn resource_labels_are_distinct() {
        let mut labels: Vec<&str> = NetResource::ALL.iter().map(|r| r.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), 5);
    }
}
