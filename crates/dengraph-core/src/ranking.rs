//! The event-ranking function of Section 6.
//!
//! Because any global computation over "all current events" would violate
//! the real-time budget, the rank of a cluster uses only local cluster
//! properties:
//!
//! * the *support* of each node (number of distinct users behind the
//!   keyword in the current window) — the weight vector `W`,
//! * the edge-correlation coefficients of the cluster's edges — the matrix
//!   `C` with `C_ii = 1` and `C_ij = EC(i,j)` for cluster edges, 0 otherwise,
//! * the cluster size `n`, used to normalise so that rank is not a
//!   monotonically increasing function of size.
//!
//! `rank(C) = (1/n) · W · C · 1 = (1/n) Σ_i w_i (1 + Σ_{(i,j)∈E(C)} EC_ij)`.
//!
//! Dense, strongly correlated, well-supported clusters therefore rank high;
//! accidental clusters rank low.

use dengraph_graph::dynamic_graph::EdgeKey;
use dengraph_graph::DynamicGraph;
use dengraph_graph::NodeId;

use crate::cluster::Cluster;

/// The inputs the ranking needs per node: its support (window user count).
pub trait NodeSupport {
    /// Number of distinct users behind this node's keyword in the window.
    fn support(&self, node: NodeId) -> usize;
}

impl<F: Fn(NodeId) -> usize> NodeSupport for F {
    fn support(&self, node: NodeId) -> usize {
        self(node)
    }
}

/// Computes the rank of a cluster.
///
/// `graph` supplies the edge-correlation weights of the cluster's edges;
/// `support` supplies the per-node user counts.  Returns 0.0 for an empty
/// cluster.  The detector ranks through a reused scratch node column
/// instead, bit for bit the same.
pub fn cluster_rank<S: NodeSupport>(cluster: &Cluster, graph: &DynamicGraph, support: &S) -> f64 {
    RankScratch::default().rank(cluster, graph, support)
}

/// Reusable buffers for ranking many clusters without allocating per
/// cluster.
#[derive(Debug, Default)]
pub(crate) struct RankScratch {
    /// The most recently ranked cluster's nodes, ascending.
    nodes: Vec<NodeId>,
    /// Its [`cluster_support`], summed in the same pass.
    support: usize,
}

impl RankScratch {
    /// Ranks `cluster` as [`cluster_rank`] does, bit for bit, in one pass
    /// over its sorted node column.
    ///
    /// Each node's row is `1 + Σ EC` over its cluster neighbours in
    /// ascending order and rows are summed in ascending node order: the
    /// f64 accumulation is not associative, so the fold order is fixed by
    /// sorted columns, never by the hash sets' iteration order.  A row
    /// walks the node's AKG adjacency, which ascends, and keeps the
    /// neighbours whose edge belongs to the cluster.  A cluster edge
    /// missing from the AKG would contribute `EC = 0`, and adding 0 to a
    /// row of at least 1 leaves it unchanged, so skipping it is exact.
    pub fn rank<S: NodeSupport>(
        &mut self,
        cluster: &Cluster,
        graph: &DynamicGraph,
        support: &S,
    ) -> f64 {
        self.nodes.clear();
        self.nodes.extend(cluster.nodes.iter().copied());
        self.nodes.sort_unstable();
        self.support = 0;
        let n = self.nodes.len();
        if n == 0 {
            return 0.0;
        }
        let mut total = 0.0;
        for &node in &self.nodes {
            let node_support = support.support(node);
            self.support += node_support;
            let w = node_support as f64;
            // Diagonal contribution C_ii = 1, then the cluster edges
            // incident to this node.
            let mut row = 1.0;
            for (other, ec) in graph.neighbors_weighted(node) {
                if cluster.contains_edge(EdgeKey::new(node, other)) {
                    row += ec;
                }
            }
            total += w * row;
        }
        total / n as f64
    }

    /// The nodes of the cluster last passed to [`Self::rank`], ascending.
    pub fn sorted_nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// The [`cluster_support`] of the cluster last passed to
    /// [`Self::rank`].
    pub fn support(&self) -> usize {
        self.support
    }
}

/// Total support of a cluster: the number of distinct users behind its
/// keywords (upper-bounded here by the sum of per-node supports, which is
/// what the paper's weight vector uses).
pub fn cluster_support<S: NodeSupport>(cluster: &Cluster, support: &S) -> usize {
    // lint: allow(L001, usize sum is commutative; the result is order-independent)
    cluster.nodes.iter().map(|&n| support.support(n)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterId;
    use dengraph_graph::dynamic_graph::EdgeKey;
    use dengraph_graph::fxhash::FxHashSet;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    fn triangle_cluster(weights: f64) -> (Cluster, DynamicGraph) {
        let mut g = DynamicGraph::new();
        g.add_edge(n(1), n(2), weights);
        g.add_edge(n(2), n(3), weights);
        g.add_edge(n(1), n(3), weights);
        let nodes: FxHashSet<NodeId> = [n(1), n(2), n(3)].into_iter().collect();
        let edges: FxHashSet<EdgeKey> = [
            EdgeKey::new(n(1), n(2)),
            EdgeKey::new(n(2), n(3)),
            EdgeKey::new(n(1), n(3)),
        ]
        .into_iter()
        .collect();
        (Cluster::new(ClusterId(0), nodes, edges, 0), g)
    }

    #[test]
    fn uniform_triangle_rank_matches_closed_form() {
        // Every node: weight 5, two incident edges of EC 0.5.
        let (c, g) = triangle_cluster(0.5);
        let rank = cluster_rank(&c, &g, &|_: NodeId| 5usize);
        // per node: 5 * (1 + 0.5 + 0.5) = 10; total 30; /3 = 10.
        assert!((rank - 10.0).abs() < 1e-12);
    }

    #[test]
    fn higher_correlation_means_higher_rank() {
        let (c_low, g_low) = triangle_cluster(0.2);
        let (c_high, g_high) = triangle_cluster(0.9);
        let support = |_: NodeId| 5usize;
        assert!(cluster_rank(&c_high, &g_high, &support) > cluster_rank(&c_low, &g_low, &support));
    }

    #[test]
    fn higher_support_means_higher_rank() {
        let (c, g) = triangle_cluster(0.5);
        let low = cluster_rank(&c, &g, &|_: NodeId| 4usize);
        let high = cluster_rank(&c, &g, &|_: NodeId| 40usize);
        assert!(high > low);
    }

    #[test]
    fn rank_is_normalised_by_size() {
        // A denser 4-clique with the same weights should not automatically
        // dominate a triangle purely by having more nodes.
        let (tri, tri_g) = triangle_cluster(0.5);
        let mut g = DynamicGraph::new();
        let nodes: Vec<NodeId> = (1..=4).map(n).collect();
        let mut edge_set: FxHashSet<EdgeKey> = FxHashSet::default();
        for i in 0..4 {
            for j in (i + 1)..4 {
                g.add_edge(nodes[i], nodes[j], 0.5);
                edge_set.insert(EdgeKey::new(nodes[i], nodes[j]));
            }
        }
        let clique = Cluster::new(ClusterId(1), nodes.into_iter().collect(), edge_set, 0);
        let support = |_: NodeId| 5usize;
        let tri_rank = cluster_rank(&tri, &tri_g, &support);
        let clique_rank = cluster_rank(&clique, &g, &support);
        // The 4-clique has 3 incident edges per node instead of 2, so its
        // rank is higher — but only by the density factor, not by raw size.
        assert!(clique_rank > tri_rank);
        assert!(clique_rank < 2.0 * tri_rank);
    }

    #[test]
    fn minimum_rank_bound_of_config_holds() {
        // A bare 4-cycle at exactly the thresholds sits at the configured
        // minimum cluster rank.
        let cfg = crate::config::DetectorConfig::nominal();
        let mut g = DynamicGraph::new();
        let tau = cfg.edge_correlation_threshold;
        g.add_edge(n(1), n(2), tau);
        g.add_edge(n(2), n(3), tau);
        g.add_edge(n(3), n(4), tau);
        g.add_edge(n(4), n(1), tau);
        let nodes: FxHashSet<NodeId> = (1..=4).map(n).collect();
        let edges: FxHashSet<EdgeKey> = [
            EdgeKey::new(n(1), n(2)),
            EdgeKey::new(n(2), n(3)),
            EdgeKey::new(n(3), n(4)),
            EdgeKey::new(n(4), n(1)),
        ]
        .into_iter()
        .collect();
        let c = Cluster::new(ClusterId(0), nodes, edges, 0);
        let sigma = cfg.high_state_threshold as usize;
        let rank = cluster_rank(&c, &g, &|_: NodeId| sigma);
        assert!((rank - cfg.minimum_cluster_rank()).abs() < 1e-9);
        // Any real cluster (more support, more correlation) ranks above it.
        let better = cluster_rank(&c, &g, &|_: NodeId| sigma * 3);
        assert!(better > cfg.minimum_cluster_rank());
    }

    #[test]
    fn scratch_rank_is_bit_identical_across_reuse() {
        // A triangle plus a pendant square with distinct weights, so any
        // change in fold order would show in the low bits.  The AKG also
        // holds edges outside the cluster, which must not count.
        let mut g = DynamicGraph::new();
        g.add_edge(n(1), n(9), 0.77);
        g.add_edge(n(3), n(0), 0.53);
        let edges = [
            (1, 2, 0.31),
            (2, 3, 0.47),
            (1, 3, 0.23),
            (3, 4, 0.61),
            (4, 5, 0.29),
            (5, 3, 0.37),
        ];
        let mut edge_set: FxHashSet<EdgeKey> = FxHashSet::default();
        for &(a, b, w) in &edges {
            g.add_edge(n(a), n(b), w);
            edge_set.insert(EdgeKey::new(n(a), n(b)));
        }
        let nodes: FxHashSet<NodeId> = (1..=5).map(n).collect();
        let c = Cluster::new(ClusterId(0), nodes, edge_set, 0);
        let support = |node: NodeId| 3 + node.0 as usize;
        // Reference: rows folded per node over its sorted cluster
        // neighbours, as the per-node neighbour scan did.
        let mut expected = 0.0;
        for node in 1..=5u32 {
            let mut nbrs: Vec<u32> = edges
                .iter()
                .filter_map(|&(a, b, _)| {
                    if a == node {
                        Some(b)
                    } else if b == node {
                        Some(a)
                    } else {
                        None
                    }
                })
                .collect();
            nbrs.sort_unstable();
            let mut row = 1.0;
            for other in nbrs {
                row += g.edge_weight(n(node), n(other)).unwrap();
            }
            expected += (3 + node) as f64 * row;
        }
        expected /= 5.0;
        let mut scratch = RankScratch::default();
        let (tri, tri_g) = triangle_cluster(0.5);
        scratch.rank(&tri, &tri_g, &support);
        let rank = scratch.rank(&c, &g, &support);
        assert_eq!(rank.to_bits(), expected.to_bits());
        assert_eq!(scratch.sorted_nodes(), &[n(1), n(2), n(3), n(4), n(5)]);
        assert_eq!(scratch.support(), cluster_support(&c, &support));
        assert_eq!(cluster_rank(&c, &g, &support).to_bits(), expected.to_bits());
    }

    #[test]
    fn empty_cluster_ranks_zero() {
        let c = Cluster::new(ClusterId(0), FxHashSet::default(), FxHashSet::default(), 0);
        let g = DynamicGraph::new();
        assert_eq!(cluster_rank(&c, &g, &|_: NodeId| 10usize), 0.0);
        assert_eq!(cluster_support(&c, &|_: NodeId| 10usize), 0);
    }

    #[test]
    fn cluster_support_sums_node_supports() {
        let (c, _) = triangle_cluster(0.5);
        assert_eq!(
            cluster_support(&c, &|node: NodeId| node.0 as usize),
            1 + 2 + 3
        );
    }
}
