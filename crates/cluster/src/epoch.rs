//! Epoch-based eviction-target placement.
//!
//! The GMS paper (Feeley et al., SOSP '95) approximates global LRU with
//! *epochs*: periodically, nodes summarize the ages of their pages; a
//! coordinator computes, for each node, the fraction of the globally
//! oldest pages it holds, and during the next epoch evicted pages are sent
//! to node *i* with probability proportional to that fraction. This
//! concentrates replacement on the nodes with the most idle (oldest)
//! memory.
//!
//! This implementation keeps the structure — periodic weight recomputation
//! from per-node age and free-space summaries, weighted target selection —
//! while making the selection deterministic (smooth weighted round-robin)
//! so simulations are reproducible.

use gms_units::NodeId;

use crate::Node;

/// Chooses which node receives each evicted (putpage) page.
///
/// # Examples
///
/// ```
/// use gms_cluster::{EpochManager, Node};
/// use gms_units::NodeId;
///
/// let nodes = vec![Node::new(NodeId::new(0), 10), Node::new(NodeId::new(1), 10)];
/// let mut epochs = EpochManager::new(100);
/// let target = epochs.pick_target(&nodes, NodeId::new(0));
/// assert_eq!(target, NodeId::new(1)); // never the requester itself
/// ```
#[derive(Debug, Clone)]
pub struct EpochManager {
    epoch_len: u64,
    ops_in_epoch: u64,
    epochs_completed: u64,
    weights: Vec<f64>,
    credit: Vec<f64>,
}

impl EpochManager {
    /// A manager that recomputes weights every `epoch_len` placements.
    ///
    /// # Panics
    ///
    /// Panics if `epoch_len` is zero.
    #[must_use]
    pub fn new(epoch_len: u64) -> Self {
        assert!(epoch_len > 0, "epoch length must be non-zero");
        EpochManager {
            epoch_len,
            ops_in_epoch: 0,
            epochs_completed: 0,
            weights: Vec::new(),
            credit: Vec::new(),
        }
    }

    /// How many epochs have elapsed.
    #[must_use]
    pub fn epochs_completed(&self) -> u64 {
        self.epochs_completed
    }

    /// The current per-node weights (empty before the first placement).
    #[must_use]
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Recomputes weights from the nodes' summaries: free frames count
    /// fully, and old resident pages add pressure to *receive* more
    /// evictions (they will be pushed onward to disk, as GMS sends the
    /// globally oldest pages out of the network).
    pub fn begin_epoch(&mut self, nodes: &[Node]) {
        let now = self.epochs_completed * self.epoch_len + self.ops_in_epoch;
        self.weights = nodes
            .iter()
            .map(|n| {
                let free = n.free() as f64;
                // Nodes holding the oldest pages can absorb evictions by
                // displacing them; weight by normalized age.
                let age = n.oldest_age(now) as f64;
                free + age / (self.epoch_len as f64)
            })
            .collect();
        if self.weights.iter().all(|w| *w <= 0.0) {
            // Every node full of fresh pages: spread evenly over the
            // nodes that still donate frames.
            self.weights = nodes
                .iter()
                .map(|n| if n.is_available() { 1.0 } else { 0.0 })
                .collect();
        }
        // Active and crashed nodes never receive evictions.
        for (w, n) in self.weights.iter_mut().zip(nodes) {
            if !n.is_available() {
                *w = 0.0;
            }
        }
        self.credit = vec![0.0; nodes.len()];
        self.epochs_completed += 1;
        self.ops_in_epoch = 0;
    }

    /// Picks the target node for the next evicted page. Never returns
    /// `requester`. Recomputes weights at epoch boundaries.
    ///
    /// # Panics
    ///
    /// Panics if the cluster has no node other than `requester`.
    pub fn pick_target(&mut self, nodes: &[Node], requester: NodeId) -> NodeId {
        assert!(
            nodes
                .iter()
                .any(|n| n.id() != requester && n.is_available()),
            "no eviction target other than the requester"
        );
        if self.weights.len() != nodes.len() || self.ops_in_epoch >= self.epoch_len {
            self.begin_epoch(nodes);
        }
        self.ops_in_epoch += 1;

        // Smooth weighted round-robin: accumulate credit, pick the
        // highest, subtract the total weight from the winner.
        let total: f64 = self
            .weights
            .iter()
            .zip(nodes)
            .filter(|(_, n)| n.id() != requester)
            .map(|(w, _)| *w)
            .sum();
        let mut best: Option<usize> = None;
        for (i, node) in nodes.iter().enumerate() {
            if node.id() == requester || !node.is_available() {
                continue;
            }
            self.credit[i] += self.weights[i];
            match best {
                None => best = Some(i),
                Some(b) if self.credit[i] > self.credit[b] => best = Some(i),
                Some(_) => {}
            }
        }
        let winner = best.expect("at least one eligible node");
        self.credit[winner] -= total.max(1.0);
        nodes[winner].id()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gms_mem::PageId;

    fn cluster(caps: &[u64]) -> Vec<Node> {
        caps.iter()
            .enumerate()
            .map(|(i, &c)| Node::new(NodeId::new(i as u32), c))
            .collect()
    }

    #[test]
    fn never_picks_the_requester() {
        let nodes = cluster(&[10, 10, 10]);
        let mut em = EpochManager::new(10);
        for _ in 0..100 {
            assert_ne!(em.pick_target(&nodes, NodeId::new(1)), NodeId::new(1));
        }
    }

    #[test]
    fn free_space_attracts_evictions() {
        // Node 1 has far more free space than node 2.
        let mut nodes = cluster(&[0, 100, 10]);
        // Fill node 2 almost completely.
        for i in 0..9 {
            nodes[2].store(PageId::new(i), false, i);
        }
        let mut em = EpochManager::new(1000);
        let mut counts = [0u32; 3];
        for _ in 0..110 {
            counts[em.pick_target(&nodes, NodeId::new(0)).as_usize()] += 1;
        }
        assert!(
            counts[1] > counts[2] * 5,
            "node1 {} vs node2 {}",
            counts[1],
            counts[2]
        );
    }

    #[test]
    fn weights_split_proportionally() {
        let nodes = cluster(&[0, 30, 10]);
        let mut em = EpochManager::new(10_000);
        let mut counts = [0u32; 3];
        for _ in 0..400 {
            counts[em.pick_target(&nodes, NodeId::new(0)).as_usize()] += 1;
        }
        // Expect roughly 3:1 between nodes 1 and 2.
        let ratio = counts[1] as f64 / counts[2] as f64;
        assert!((2.4..3.6).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn epoch_boundaries_recompute() {
        let nodes = cluster(&[5, 5]);
        let mut em = EpochManager::new(3);
        for _ in 0..10 {
            em.pick_target(&nodes, NodeId::new(0));
        }
        // 10 placements at epoch length 3: epochs at ops 1, 4, 7, 10.
        assert_eq!(em.epochs_completed(), 4);
    }

    #[test]
    fn deterministic_sequences() {
        let nodes = cluster(&[4, 7, 9]);
        let run = || {
            let mut em = EpochManager::new(5);
            (0..30)
                .map(|_| em.pick_target(&nodes, NodeId::new(0)).index())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "no eviction target")]
    fn lone_node_panics() {
        let nodes = cluster(&[5]);
        let mut em = EpochManager::new(5);
        em.pick_target(&nodes, NodeId::new(0));
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_epoch_panics() {
        let _ = EpochManager::new(0);
    }
}
