//! Network topologies for tomography experiments.
//!
//! A lightweight undirected multigraph-free graph with generators for the
//! topology families used in the tomography literature (refs \[19\]–\[22\]):
//! trees, grids, and random connected graphs.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// An undirected graph with `n` nodes and indexed edges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    n: usize,
    edges: Vec<(usize, usize)>,
    adj: Vec<Vec<(usize, usize)>>, // (neighbor, edge index)
}

impl Topology {
    /// Creates a graph from an edge list.
    ///
    /// Self-loops and duplicate edges are rejected.
    ///
    /// # Panics
    ///
    /// Panics on `n == 0`, endpoints out of range, self-loops, or
    /// duplicate edges.
    pub fn new(n: usize, edges: Vec<(usize, usize)>) -> Self {
        assert!(n > 0, "graph must have nodes");
        let mut seen = std::collections::BTreeSet::new();
        for &(a, b) in &edges {
            assert!(a < n && b < n, "edge endpoint out of range");
            assert_ne!(a, b, "self-loops are not allowed");
            let key = (a.min(b), a.max(b));
            assert!(seen.insert(key), "duplicate edge {key:?}");
        }
        let mut adj = vec![Vec::new(); n];
        for (i, &(a, b)) in edges.iter().enumerate() {
            adj[a].push((b, i));
            adj[b].push((a, i));
        }
        Topology { n, edges, adj }
    }

    /// A `cols x rows` grid.
    pub fn grid(cols: usize, rows: usize) -> Self {
        assert!(cols > 0 && rows > 0, "grid dims must be nonzero");
        let idx = |c: usize, r: usize| r * cols + c;
        let mut edges = Vec::new();
        for r in 0..rows {
            for c in 0..cols {
                if c + 1 < cols {
                    edges.push((idx(c, r), idx(c + 1, r)));
                }
                if r + 1 < rows {
                    edges.push((idx(c, r), idx(c, r + 1)));
                }
            }
        }
        Topology::new(cols * rows, edges)
    }

    /// A connected random graph: a random spanning tree plus `extra_edges`
    /// random chords, deterministic in `seed`.
    pub fn random_connected(n: usize, extra_edges: usize, seed: u64) -> Self {
        assert!(n > 0, "graph must have nodes");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut edges = Vec::new();
        let mut seen = std::collections::BTreeSet::new();
        // Random tree: attach each node to a random earlier node.
        for v in 1..n {
            let u = rng.gen_range(0..v);
            edges.push((u, v));
            seen.insert((u.min(v), u.max(v)));
        }
        let max_extra = n * (n - 1) / 2 - edges.len();
        let mut added = 0;
        let mut guard = 0;
        while added < extra_edges.min(max_extra) && guard < 100 * (extra_edges + 1) {
            guard += 1;
            let a = rng.gen_range(0..n);
            let b = rng.gen_range(0..n);
            if a == b {
                continue;
            }
            let key = (a.min(b), a.max(b));
            if seen.insert(key) {
                edges.push(key);
                added += 1;
            }
        }
        Topology::new(n, edges)
    }

    /// Number of nodes.
    pub const fn node_count(&self) -> usize {
        self.n
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Degree of node `v`.
    ///
    /// # Panics
    ///
    /// Panics when `v` is out of range.
    pub fn degree(&self, v: usize) -> usize {
        self.adj[v].len()
    }

    /// BFS shortest path from `src` to `dst` as a list of **edge indices**,
    /// or `None` when disconnected. Ties resolve toward smaller node ids
    /// (deterministic).
    pub fn shortest_path_edges(&self, src: usize, dst: usize) -> Option<Vec<usize>> {
        assert!(src < self.n && dst < self.n, "node out of range");
        if src == dst {
            return Some(Vec::new());
        }
        let mut prev: Vec<Option<(usize, usize)>> = vec![None; self.n]; // (node, edge)
        let mut visited = vec![false; self.n];
        let mut queue = std::collections::VecDeque::new();
        visited[src] = true;
        queue.push_back(src);
        while let Some(u) = queue.pop_front() {
            if u == dst {
                break;
            }
            let mut neighbors = self.adj[u].clone();
            neighbors.sort();
            for (v, e) in neighbors {
                if !visited[v] {
                    visited[v] = true;
                    prev[v] = Some((u, e));
                    queue.push_back(v);
                }
            }
        }
        if !visited[dst] {
            return None;
        }
        let mut path = Vec::new();
        let mut cur = dst;
        while cur != src {
            #[expect(clippy::expect_used, reason = "BFS sets prev for every visited node except src, and cur != src here")]
            let (p, e) = prev[cur].expect("visited nodes have predecessors");
            path.push(e);
            cur = p;
        }
        path.reverse();
        Some(path)
    }

    /// Whether the graph is connected.
    pub fn is_connected(&self) -> bool {
        let mut visited = vec![false; self.n];
        let mut stack = vec![0];
        visited[0] = true;
        let mut count = 1;
        while let Some(u) = stack.pop() {
            for &(v, _) in &self.adj[u] {
                if !visited[v] {
                    visited[v] = true;
                    count += 1;
                    stack.push(v);
                }
            }
        }
        count == self.n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Topology {
        /// A path graph `0 - 1 - … - (n-1)`.
        pub(crate) fn line(n: usize) -> Self {
            let edges = (0..n.saturating_sub(1)).map(|i| (i, i + 1)).collect();
            Topology::new(n, edges)
        }

        /// A balanced binary tree with `depth` levels below the root
        /// (`2^(depth+1) - 1` nodes).
        pub(crate) fn binary_tree(depth: u32) -> Self {
            let n = (1usize << (depth + 1)) - 1;
            let edges = (1..n).map(|child| ((child - 1) / 2, child)).collect();
            Topology::new(n, edges)
        }

        /// Nodes with degree 1.
        pub(crate) fn leaves(&self) -> Vec<usize> {
            (0..self.n).filter(|&v| self.degree(v) == 1).collect()
        }
    }
    use proptest::prelude::*;

    #[test]
    fn line_structure() {
        let g = Topology::line(4);
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.leaves(), vec![0, 3]);
        assert!(g.is_connected());
    }

    #[test]
    fn binary_tree_structure() {
        let g = Topology::binary_tree(2);
        assert_eq!(g.node_count(), 7);
        assert_eq!(g.edge_count(), 6);
        assert_eq!(g.leaves(), vec![3, 4, 5, 6]);
    }

    #[test]
    fn grid_structure() {
        let g = Topology::grid(3, 2);
        assert_eq!(g.node_count(), 6);
        assert_eq!(g.edge_count(), 7); // 2*2 horizontal + 3 vertical
        assert!(g.is_connected());
    }

    #[test]
    fn shortest_path_on_line() {
        let g = Topology::line(5);
        let path = g.shortest_path_edges(0, 4).unwrap();
        assert_eq!(path, vec![0, 1, 2, 3]);
        assert_eq!(g.shortest_path_edges(2, 2), Some(vec![]));
    }

    #[test]
    fn disconnected_pairs_have_no_path() {
        let g = Topology::new(4, vec![(0, 1), (2, 3)]);
        assert!(!g.is_connected());
        assert_eq!(g.shortest_path_edges(0, 3), None);
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn rejects_self_loops() {
        Topology::new(2, vec![(1, 1)]);
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn rejects_duplicate_edges() {
        Topology::new(3, vec![(0, 1), (1, 0)]);
    }

    #[test]
    fn random_connected_is_connected_and_deterministic() {
        for seed in 0..5 {
            let g = Topology::random_connected(30, 15, seed);
            assert!(g.is_connected());
            assert_eq!(g.edge_count(), 29 + 15);
            assert_eq!(g, Topology::random_connected(30, 15, seed));
        }
    }

    proptest! {
        #[test]
        fn paths_connect_endpoints(n in 2usize..20, extra in 0usize..10, seed in 0u64..20) {
            let g = Topology::random_connected(n, extra, seed);
            let path = g.shortest_path_edges(0, n - 1).expect("connected");
            // Walk the path, verifying consecutive edges share nodes.
            let mut at = 0usize;
            for &e in &path {
                let (a, b) = g.edges[e];
                prop_assert!(at == a || at == b, "edge {e} not incident to {at}");
                at = if at == a { b } else { a };
            }
            prop_assert_eq!(at, n - 1);
        }
    }
}
