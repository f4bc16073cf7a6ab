//! Server-graph topologies.
//!
//! §3 of the paper: "Define a graph in which time servers are nodes and
//! communication paths are edges. We assume this graph is connected."
//! The constructors here build the standard shapes plus the two-network
//! internet of the §3 recovery experiment, and — for scale runs far
//! beyond the paper's deployment — disjoint cliques modelling many
//! independent consistency groups.
//!
//! Storage is adjacency-compact (CSR): one flat neighbour array plus
//! per-node offsets, so a 10,000-node topology costs two contiguous
//! allocations rather than ten thousand.

use crate::node::NodeId;

/// An undirected communication graph over `n` nodes, stored in
/// compressed sparse row form.
#[derive(Debug, Clone)]
pub struct Topology {
    /// `offsets[i]..offsets[i + 1]` indexes node `i`'s neighbours.
    offsets: Vec<u32>,
    /// All neighbour lists, concatenated; each list sorted ascending.
    adjacency: Vec<NodeId>,
}

impl Topology {
    /// Builds a topology from undirected edges.
    ///
    /// Duplicate edges are ignored; self-loops are rejected.
    ///
    /// # Panics
    ///
    /// Panics if an edge references a node `>= n` or is a self-loop.
    #[must_use]
    pub fn from_edges(n: usize, edges: &[(usize, usize)]) -> Self {
        let mut directed = Vec::with_capacity(edges.len() * 2);
        for &(a, b) in edges {
            assert!(a < n && b < n, "edge ({a}, {b}) out of range for {n} nodes");
            assert!(a != b, "self-loop on node {a}");
            directed.push((a, b));
            directed.push((b, a));
        }
        directed.sort_unstable();
        directed.dedup();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut adjacency = Vec::with_capacity(directed.len());
        let mut next = directed.iter().peekable();
        offsets.push(0);
        for node in 0..n {
            while let Some(&&(a, b)) = next.peek() {
                if a != node {
                    break;
                }
                adjacency.push(NodeId::new(b));
                next.next();
            }
            offsets.push(u32::try_from(adjacency.len()).expect("adjacency fits u32"));
        }
        Topology { offsets, adjacency }
    }

    /// Every node connected to every other (the paper's fully-connected
    /// service, the setting of Theorems 2–4). Built directly in CSR
    /// form — no intermediate edge list.
    #[must_use]
    pub fn full_mesh(n: usize) -> Self {
        let mut offsets = Vec::with_capacity(n + 1);
        let mut adjacency = Vec::with_capacity(n.saturating_mul(n.saturating_sub(1)));
        offsets.push(0);
        for a in 0..n {
            adjacency.extend((0..n).filter(|&b| b != a).map(NodeId::new));
            offsets.push(u32::try_from(adjacency.len()).expect("adjacency fits u32"));
        }
        Topology { offsets, adjacency }
    }

    /// `groups` disjoint full-mesh cliques of `size` nodes each —
    /// `groups × size` nodes total, nodes `[g·size, (g+1)·size)`
    /// forming clique `g`. The scale-experiment shape: many
    /// independent consistency groups that share nothing, so the
    /// engine can run them on separate shards.
    ///
    /// # Panics
    ///
    /// Panics if `groups` or `size` is zero.
    #[must_use]
    pub fn disjoint_cliques(groups: usize, size: usize) -> Self {
        assert!(groups > 0, "need at least one clique");
        assert!(size > 0, "cliques need at least one node");
        let n = groups * size;
        let mut offsets = Vec::with_capacity(n + 1);
        let mut adjacency = Vec::with_capacity(n * (size - 1));
        offsets.push(0);
        for a in 0..n {
            let base = (a / size) * size;
            adjacency.extend((base..base + size).filter(|&b| b != a).map(NodeId::new));
            offsets.push(u32::try_from(adjacency.len()).expect("adjacency fits u32"));
        }
        Topology { offsets, adjacency }
    }

    /// A ring: node `i` connected to `i±1 mod n`.
    #[must_use]
    pub fn ring(n: usize) -> Self {
        assert!(n >= 3, "a ring needs at least 3 nodes, got {n}");
        let edges: Vec<(usize, usize)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        Topology::from_edges(n, &edges)
    }

    /// A star with node 0 as the hub.
    #[must_use]
    pub fn star(n: usize) -> Self {
        assert!(n >= 2, "a star needs at least 2 nodes, got {n}");
        let edges: Vec<(usize, usize)> = (1..n).map(|i| (0, i)).collect();
        Topology::from_edges(n, &edges)
    }

    /// A line: `0 — 1 — … — n−1`.
    #[must_use]
    pub fn line(n: usize) -> Self {
        assert!(n >= 2, "a line needs at least 2 nodes, got {n}");
        let edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        Topology::from_edges(n, &edges)
    }

    /// Two full-mesh networks of sizes `na` and `nb`, joined by a single
    /// link between node `0` (in network A) and node `na` (the first
    /// node of network B) — the shape of the §3 recovery experiment,
    /// where a server facing inconsistency "obtained the time from a
    /// server on some other network".
    #[must_use]
    pub fn two_networks(na: usize, nb: usize) -> Self {
        assert!(na >= 1 && nb >= 1, "both networks need at least one node");
        let mut edges = Vec::new();
        for a in 0..na {
            for b in (a + 1)..na {
                edges.push((a, b));
            }
        }
        for a in na..na + nb {
            for b in (a + 1)..na + nb {
                edges.push((a, b));
            }
        }
        edges.push((0, na)); // gateway link
        Topology::from_edges(na + nb, &edges)
    }

    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// `true` when the topology has no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The neighbours of `node`, sorted ascending.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[must_use]
    #[inline]
    pub fn neighbors(&self, node: NodeId) -> &[NodeId] {
        let i = node.index();
        &self.adjacency[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Whether `a` and `b` share an edge.
    #[must_use]
    pub fn connected(&self, a: NodeId, b: NodeId) -> bool {
        a.index() < self.len() && self.neighbors(a).binary_search(&b).is_ok()
    }

    /// Whether the graph is connected (the paper's standing assumption).
    #[must_use]
    pub fn is_connected(&self) -> bool {
        self.len() <= 1 || self.components().len() == 1
    }

    /// The connected components, each sorted ascending, ordered by
    /// their smallest node. A connected graph yields one component
    /// covering every node.
    #[must_use]
    pub fn components(&self) -> Vec<Vec<NodeId>> {
        let n = self.len();
        let mut seen = vec![false; n];
        let mut components = Vec::new();
        let mut stack = Vec::new();
        for start in 0..n {
            if seen[start] {
                continue;
            }
            let mut members = vec![NodeId::new(start)];
            seen[start] = true;
            stack.push(start);
            while let Some(i) = stack.pop() {
                for nb in self.neighbors(NodeId::new(i)) {
                    if !seen[nb.index()] {
                        seen[nb.index()] = true;
                        members.push(*nb);
                        stack.push(nb.index());
                    }
                }
            }
            members.sort_unstable();
            components.push(members);
        }
        components
    }

    /// The subgraph induced by `nodes` (which must be sorted ascending
    /// and closed under edges — i.e. a union of components), with node
    /// `nodes[k]` relabelled to local id `k`.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is unsorted, contains duplicates, or has an
    /// edge leaving the set.
    #[must_use]
    pub fn induced(&self, nodes: &[NodeId]) -> Topology {
        assert!(
            nodes.windows(2).all(|w| w[0] < w[1]),
            "induced node set must be sorted and duplicate-free"
        );
        let mut offsets = Vec::with_capacity(nodes.len() + 1);
        let mut adjacency = Vec::new();
        offsets.push(0);
        for &node in nodes {
            for nb in self.neighbors(node) {
                let local = nodes
                    .binary_search(nb)
                    .unwrap_or_else(|_| panic!("edge {node}—{nb} leaves the induced set"));
                adjacency.push(NodeId::new(local));
            }
            offsets.push(u32::try_from(adjacency.len()).expect("adjacency fits u32"));
        }
        Topology { offsets, adjacency }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_mesh_everyone_connected() {
        let t = Topology::full_mesh(4);
        assert_eq!(t.len(), 4);
        assert!(!t.is_empty());
        for a in 0..4 {
            assert_eq!(t.neighbors(NodeId::new(a)).len(), 3);
            for b in 0..4 {
                assert_eq!(t.connected(NodeId::new(a), NodeId::new(b)), a != b);
            }
        }
        assert!(t.is_connected());
    }

    #[test]
    fn ring_has_two_neighbors_each() {
        let t = Topology::ring(5);
        for i in 0..5 {
            assert_eq!(t.neighbors(NodeId::new(i)).len(), 2);
        }
        assert!(t.connected(NodeId::new(0), NodeId::new(4)));
        assert!(!t.connected(NodeId::new(0), NodeId::new(2)));
        assert!(t.is_connected());
    }

    #[test]
    fn star_hub_sees_all() {
        let t = Topology::star(4);
        assert_eq!(t.neighbors(NodeId::new(0)).len(), 3);
        for i in 1..4 {
            assert_eq!(t.neighbors(NodeId::new(i)), &[NodeId::new(0)]);
        }
        assert!(t.is_connected());
    }

    #[test]
    fn line_endpoints_have_one_neighbor() {
        let t = Topology::line(4);
        assert_eq!(t.neighbors(NodeId::new(0)).len(), 1);
        assert_eq!(t.neighbors(NodeId::new(3)).len(), 1);
        assert_eq!(t.neighbors(NodeId::new(1)).len(), 2);
        assert!(t.is_connected());
    }

    #[test]
    fn two_networks_joined_by_gateway() {
        let t = Topology::two_networks(3, 2);
        assert_eq!(t.len(), 5);
        assert!(t.is_connected());
        // Gateway link 0—3.
        assert!(t.connected(NodeId::new(0), NodeId::new(3)));
        // Cross-network non-gateway pairs are not direct neighbours.
        assert!(!t.connected(NodeId::new(1), NodeId::new(3)));
        assert!(!t.connected(NodeId::new(2), NodeId::new(4)));
        // Within-network pairs are.
        assert!(t.connected(NodeId::new(1), NodeId::new(2)));
        assert!(t.connected(NodeId::new(3), NodeId::new(4)));
    }

    #[test]
    fn from_edges_dedupes() {
        let t = Topology::from_edges(3, &[(0, 1), (1, 0), (0, 1)]);
        assert_eq!(t.neighbors(NodeId::new(0)), &[NodeId::new(1)]);
        assert_eq!(t.neighbors(NodeId::new(1)), &[NodeId::new(0)]);
        assert!(!t.is_connected()); // node 2 isolated
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_rejected() {
        let _ = Topology::from_edges(2, &[(0, 0)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_rejected() {
        let _ = Topology::from_edges(2, &[(0, 5)]);
    }

    #[test]
    fn trivial_graphs_are_connected() {
        assert!(Topology::from_edges(0, &[]).is_connected());
        assert!(Topology::from_edges(1, &[]).is_connected());
        assert!(Topology::from_edges(0, &[]).is_empty());
    }

    #[test]
    fn disjoint_cliques_shape() {
        let t = Topology::disjoint_cliques(3, 4);
        assert_eq!(t.len(), 12);
        for a in 0..12 {
            assert_eq!(t.neighbors(NodeId::new(a)).len(), 3);
        }
        assert!(t.connected(NodeId::new(0), NodeId::new(3)));
        assert!(!t.connected(NodeId::new(3), NodeId::new(4)));
        assert!(!t.is_connected());
        let comps = t.components();
        assert_eq!(comps.len(), 3);
        assert_eq!(comps[1], (4..8).map(NodeId::new).collect::<Vec<_>>());
    }

    #[test]
    fn components_ordered_and_sorted() {
        // 0—2 and 1—3 interleave; components still come out sorted by
        // their minimum and sorted internally.
        let t = Topology::from_edges(4, &[(0, 2), (1, 3)]);
        let comps = t.components();
        assert_eq!(comps.len(), 2);
        assert_eq!(comps[0], vec![NodeId::new(0), NodeId::new(2)]);
        assert_eq!(comps[1], vec![NodeId::new(1), NodeId::new(3)]);
    }

    #[test]
    fn induced_relabels_to_local_ids() {
        let t = Topology::from_edges(4, &[(0, 2), (1, 3)]);
        let sub = t.induced(&[NodeId::new(1), NodeId::new(3)]);
        assert_eq!(sub.len(), 2);
        assert_eq!(sub.neighbors(NodeId::new(0)), &[NodeId::new(1)]);
        assert_eq!(sub.neighbors(NodeId::new(1)), &[NodeId::new(0)]);
    }

    #[test]
    #[should_panic(expected = "leaves the induced set")]
    fn induced_rejects_open_sets() {
        let t = Topology::line(3);
        let _ = t.induced(&[NodeId::new(0), NodeId::new(1)]);
    }

    #[test]
    fn full_mesh_matches_edge_list_construction() {
        let direct = Topology::full_mesh(6);
        let mut edges = Vec::new();
        for a in 0..6 {
            for b in (a + 1)..6 {
                edges.push((a, b));
            }
        }
        let via_edges = Topology::from_edges(6, &edges);
        for i in 0..6 {
            assert_eq!(
                direct.neighbors(NodeId::new(i)),
                via_edges.neighbors(NodeId::new(i))
            );
        }
    }
}
