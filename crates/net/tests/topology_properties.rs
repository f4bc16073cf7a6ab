//! Property tests for the topology generators: every generator yields a
//! connected graph (the paper's standing assumption) with symmetric
//! adjacency and the expected degree structure.

use tempo_check::check;

use tempo_net::{NodeId, Topology};

fn assert_symmetric(t: &Topology) {
    for a in 0..t.len() {
        for &b in t.neighbors(NodeId::new(a)) {
            assert!(
                t.connected(b, NodeId::new(a)),
                "edge {a}→{b} is not symmetric"
            );
        }
    }
}

#[test]
fn full_mesh_properties() {
    check("full_mesh_properties", 256, |g| {
        let n = g.int(1usize..40);
        let t = Topology::full_mesh(n);
        assert!(t.is_connected());
        assert_symmetric(&t);
        for i in 0..n {
            assert_eq!(t.neighbors(NodeId::new(i)).len(), n - 1);
        }
    });
}

#[test]
fn ring_properties() {
    check("ring_properties", 256, |g| {
        let n = g.int(3usize..40);
        let t = Topology::ring(n);
        assert!(t.is_connected());
        assert_symmetric(&t);
        for i in 0..n {
            assert_eq!(t.neighbors(NodeId::new(i)).len(), 2);
        }
    });
}

#[test]
fn star_properties() {
    check("star_properties", 256, |g| {
        let n = g.int(2usize..40);
        let t = Topology::star(n);
        assert!(t.is_connected());
        assert_symmetric(&t);
        assert_eq!(t.neighbors(NodeId::new(0)).len(), n - 1);
        for i in 1..n {
            assert_eq!(t.neighbors(NodeId::new(i)).len(), 1);
        }
    });
}

#[test]
fn line_properties() {
    check("line_properties", 256, |g| {
        let n = g.int(2usize..40);
        let t = Topology::line(n);
        assert!(t.is_connected());
        assert_symmetric(&t);
        let degrees: Vec<usize> = (0..n).map(|i| t.neighbors(NodeId::new(i)).len()).collect();
        assert_eq!(degrees[0], 1);
        assert_eq!(degrees[n - 1], 1);
        for &d in &degrees[1..n - 1] {
            assert_eq!(d, 2);
        }
    });
}

#[test]
fn two_networks_properties() {
    check("two_networks_properties", 256, |g| {
        let na = g.int(1usize..12);
        let nb = g.int(1usize..12);
        let t = Topology::two_networks(na, nb);
        assert_eq!(t.len(), na + nb);
        assert!(t.is_connected());
        assert_symmetric(&t);
        // Exactly one cross-network link: 0 — na.
        let mut cross = 0;
        for a in 0..na {
            for b in na..na + nb {
                if t.connected(NodeId::new(a), NodeId::new(b)) {
                    cross += 1;
                }
            }
        }
        assert_eq!(cross, 1);
        assert!(t.connected(NodeId::new(0), NodeId::new(na)));
    });
}

/// `from_edges` over a random spanning-tree-plus-extras is always
/// connected; dropping the tree edges can disconnect it, and
/// `is_connected` notices.
#[test]
fn connectivity_detection() {
    check("connectivity_detection", 256, |g| {
        let n = g.int(2usize..20);
        let extra_seed = g.u64();
        // Spanning tree: each node i>0 links to some parent < i.
        let mut edges = Vec::new();
        let mut x = extra_seed;
        let mut next = || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 33) as usize
        };
        for i in 1..n {
            edges.push((next() % i, i));
        }
        let t = Topology::from_edges(n, &edges);
        assert!(t.is_connected());
        // Remove node n-1's only guaranteed link by rebuilding without
        // any edge touching n-1 (when n ≥ 3 this isolates it).
        if n >= 3 {
            let reduced: Vec<(usize, usize)> = edges
                .iter()
                .copied()
                .filter(|&(a, b)| a != n - 1 && b != n - 1)
                .collect();
            let t2 = Topology::from_edges(n, &reduced);
            assert!(!t2.is_connected(), "isolating a node must disconnect");
        }
    });
}
