//! Coupling-graph topologies.

use std::collections::VecDeque;
use std::fmt;

/// An undirected qubit coupling graph.
///
/// The X-Tree constructors additionally record the tree structure (root and
/// per-qubit levels) that the paper's hierarchical initial layout and
/// Merge-to-Root compiler rely on.
///
/// # Examples
///
/// ```
/// use arch::Topology;
///
/// let t = Topology::xtree(8);
/// assert_eq!(t.num_qubits(), 8);
/// assert_eq!(t.num_edges(), 7);
/// assert_eq!(t.level(0), Some(0)); // the root
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    name: String,
    num_qubits: usize,
    edges: Vec<(usize, usize)>,
    adjacency: Vec<Vec<usize>>,
    /// For tree topologies: the root qubit and each qubit's level
    /// (distance from root) and parent.
    tree: Option<TreeInfo>,
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct TreeInfo {
    root: usize,
    levels: Vec<usize>,
    parents: Vec<Option<usize>>,
}

impl Topology {
    /// Builds a topology from an edge list.
    ///
    /// # Panics
    ///
    /// Panics if an edge is out of range, reflexive, or duplicated.
    pub fn from_edges(name: &str, num_qubits: usize, edges: Vec<(usize, usize)>) -> Self {
        let mut adjacency = vec![Vec::new(); num_qubits];
        let mut seen = std::collections::HashSet::new();
        for &(a, b) in &edges {
            assert!(
                a < num_qubits && b < num_qubits,
                "edge ({a},{b}) out of range"
            );
            assert_ne!(a, b, "reflexive edge ({a},{b})");
            let key = (a.min(b), a.max(b));
            assert!(seen.insert(key), "duplicate edge ({a},{b})");
            adjacency[a].push(b);
            adjacency[b].push(a);
        }
        for adj in &mut adjacency {
            adj.sort_unstable();
        }
        Topology {
            name: name.to_string(),
            num_qubits,
            edges,
            adjacency,
            tree: None,
        }
    }

    /// The X-Tree architecture on `n` qubits (Fig 6): grow breadth-first
    /// from a root of degree ≤ 4, every other qubit taking ≤ 3 children
    /// (degree ≤ 4 including its parent). `xtree(5)`, `xtree(8)`,
    /// `xtree(17)`, `xtree(26)` reproduce the paper's XTree5Q/8Q/17Q/26Q.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn xtree(n: usize) -> Self {
        assert!(n >= 1, "X-Tree needs at least one qubit");
        let mut edges = Vec::with_capacity(n.saturating_sub(1));
        let mut parents: Vec<Option<usize>> = vec![None; n];
        let mut levels = vec![0usize; n];
        // Queue of (qubit, remaining child capacity).
        let mut queue: VecDeque<(usize, usize)> = VecDeque::new();
        queue.push_back((0, 4));
        let mut next = 1;
        while next < n {
            // Every placed qubit enqueues with capacity ≥ 1, so the queue
            // cannot drain before all n qubits are placed.
            let Some((q, cap)) = queue.pop_front() else {
                unreachable!("capacity exhausted before placing qubits")
            };
            let take = cap.min(n - next);
            for _ in 0..take {
                edges.push((q, next));
                parents[next] = Some(q);
                levels[next] = levels[q] + 1;
                queue.push_back((next, 3));
                next += 1;
            }
        }
        let mut t = Topology::from_edges(&format!("XTree{n}Q"), n, edges);
        t.tree = Some(TreeInfo {
            root: 0,
            levels,
            parents,
        });
        t
    }

    /// An X-Tree with *per-level branching degrees* — the paper's §VII
    /// variant ("tree structures with different degrees at different
    /// levels"). `degrees[k]` children are attached to each qubit at level
    /// `k` (the last entry repeats for deeper levels). `xtree(n)` equals
    /// `xtree_with_degrees(n, &[4, 3])`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero, `degrees` is empty, or contains a zero.
    pub fn xtree_with_degrees(n: usize, degrees: &[usize]) -> Self {
        assert!(n >= 1, "X-Tree needs at least one qubit");
        assert!(
            !degrees.is_empty(),
            "at least one branching degree required"
        );
        assert!(
            degrees.iter().all(|&d| d >= 1),
            "branching degrees must be positive"
        );
        let cap_at = |level: usize| degrees[level.min(degrees.len() - 1)];
        let mut edges = Vec::with_capacity(n.saturating_sub(1));
        let mut parents: Vec<Option<usize>> = vec![None; n];
        let mut levels = vec![0usize; n];
        let mut queue: VecDeque<(usize, usize)> = VecDeque::new();
        queue.push_back((0, cap_at(0)));
        let mut next = 1;
        while next < n {
            let Some((q, cap)) = queue.pop_front() else {
                unreachable!("capacity exhausted before placing qubits")
            };
            let take = cap.min(n - next);
            for _ in 0..take {
                edges.push((q, next));
                parents[next] = Some(q);
                levels[next] = levels[q] + 1;
                queue.push_back((next, cap_at(levels[next])));
                next += 1;
            }
        }
        let name = format!(
            "XTree{n}Q[{}]",
            degrees
                .iter()
                .map(|d| d.to_string())
                .collect::<Vec<_>>()
                .join(",")
        );
        let mut t = Topology::from_edges(&name, n, edges);
        t.tree = Some(TreeInfo {
            root: 0,
            levels,
            parents,
        });
        t
    }

    /// A heavy-hex lattice (IBM's low-degree architecture family):
    /// `rows` horizontal chains of `cols` qubits each, joined by bridge
    /// qubits at alternating columns (period 4, offset 2 between
    /// neighboring row pairs). Maximum degree 3.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn heavy_hex(rows: usize, cols: usize) -> Self {
        assert!(
            rows >= 1 && cols >= 1,
            "heavy-hex dimensions must be positive"
        );
        let row_qubit = |r: usize, c: usize| r * cols + c;
        let mut edges = Vec::new();
        for r in 0..rows {
            for c in 0..cols.saturating_sub(1) {
                edges.push((row_qubit(r, c), row_qubit(r, c + 1)));
            }
        }
        let mut next = rows * cols;
        for r in 0..rows.saturating_sub(1) {
            let offset = if r % 2 == 0 { 0 } else { 2 };
            let mut c = offset;
            while c < cols {
                edges.push((row_qubit(r, c), next));
                edges.push((next, row_qubit(r + 1, c)));
                next += 1;
                c += 4;
            }
        }
        Topology::from_edges(&format!("HeavyHex{rows}x{cols}"), next, edges)
    }

    /// The paper's 17-qubit grid baseline (Fig 11 left): IBM's
    /// surface-code-style 17-qubit lattice [Brink et al.], 9 data qubits on
    /// a 3×3 grid plus 8 ancilla qubits, 24 couplings, max degree 4.
    pub fn grid17q() -> Self {
        // Data qubits 0..9 laid out row-major on a 3×3 grid.
        let d = |r: usize, c: usize| r * 3 + c;
        let mut edges = Vec::new();
        // 4 bulk ancillas (ids 9..13) at the centers of the 2×2 plaquettes.
        let mut id = 9;
        for r in 0..2 {
            for c in 0..2 {
                for (dr, dc) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
                    edges.push((id, d(r + dr, c + dc)));
                }
                id += 1;
            }
        }
        // 4 boundary ancillas (ids 13..17), two data neighbors each.
        edges.push((13, d(0, 1)));
        edges.push((13, d(0, 2)));
        edges.push((14, d(2, 0)));
        edges.push((14, d(2, 1)));
        edges.push((15, d(0, 0)));
        edges.push((15, d(1, 0)));
        edges.push((16, d(1, 2)));
        edges.push((16, d(2, 2)));
        Topology::from_edges("Grid17Q", 17, edges)
    }

    /// A `rows × cols` rectangular grid (row-major ids).
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn grid(rows: usize, cols: usize) -> Self {
        assert!(rows >= 1 && cols >= 1, "grid dimensions must be positive");
        let mut edges = Vec::new();
        let id = |r: usize, c: usize| r * cols + c;
        for r in 0..rows {
            for c in 0..cols {
                if c + 1 < cols {
                    edges.push((id(r, c), id(r, c + 1)));
                }
                if r + 1 < rows {
                    edges.push((id(r, c), id(r + 1, c)));
                }
            }
        }
        Topology::from_edges(&format!("Grid{rows}x{cols}"), rows * cols, edges)
    }

    /// A 1D line of `n` qubits.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn line(n: usize) -> Self {
        assert!(n >= 1, "line needs at least one qubit");
        let edges = (0..n.saturating_sub(1)).map(|i| (i, i + 1)).collect();
        let mut t = Topology::from_edges(&format!("Line{n}Q"), n, edges);
        // A line is a degenerate tree rooted at qubit 0.
        t.tree = Some(TreeInfo {
            root: 0,
            levels: (0..n).collect(),
            parents: (0..n)
                .map(|i| if i == 0 { None } else { Some(i - 1) })
                .collect(),
        });
        t
    }

    /// A fully connected graph (idealized architecture, used as an
    /// ablation reference).
    pub fn complete(n: usize) -> Self {
        let mut edges = Vec::new();
        for a in 0..n {
            for b in (a + 1)..n {
                edges.push((a, b));
            }
        }
        Topology::from_edges(&format!("Complete{n}Q"), n, edges)
    }

    /// The topology's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of physical qubits.
    #[inline]
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Number of couplings.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// The edge list.
    pub fn edges(&self) -> &[(usize, usize)] {
        &self.edges
    }

    /// Neighbors of qubit `q`, ascending.
    pub fn neighbors(&self, q: usize) -> &[usize] {
        &self.adjacency[q]
    }

    /// Degree of qubit `q`.
    pub fn degree(&self, q: usize) -> usize {
        self.adjacency[q].len()
    }

    /// Maximum degree over all qubits.
    pub fn max_degree(&self) -> usize {
        self.adjacency.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Whether `a` and `b` are directly coupled.
    pub fn are_connected(&self, a: usize, b: usize) -> bool {
        self.adjacency[a].binary_search(&b).is_ok()
    }

    /// Whether the graph is a tree (connected with N−1 edges).
    pub fn is_tree(&self) -> bool {
        self.edges.len() + 1 == self.num_qubits && self.is_connected()
    }

    /// Whether the graph is connected.
    pub fn is_connected(&self) -> bool {
        if self.num_qubits == 0 {
            return true;
        }
        let d = self.bfs_distances(0);
        d.iter().all(|&x| x != usize::MAX)
    }

    /// For tree topologies: the root qubit.
    pub fn root(&self) -> Option<usize> {
        self.tree.as_ref().map(|t| t.root)
    }

    /// For tree topologies: qubit `q`'s level (distance from root).
    pub fn level(&self, q: usize) -> Option<usize> {
        self.tree.as_ref().map(|t| t.levels[q])
    }

    /// For tree topologies: qubit `q`'s parent (`None` for the root).
    pub fn parent(&self, q: usize) -> Option<usize> {
        self.tree.as_ref().and_then(|t| t.parents[q])
    }

    /// For tree topologies: the maximum level.
    pub fn num_levels(&self) -> Option<usize> {
        self.tree
            .as_ref()
            .map(|t| t.levels.iter().max().copied().unwrap_or(0) + 1)
    }

    /// BFS distances from `source` (`usize::MAX` when unreachable).
    pub fn bfs_distances(&self, source: usize) -> Vec<usize> {
        let mut dist = vec![usize::MAX; self.num_qubits];
        dist[source] = 0;
        let mut queue = VecDeque::from([source]);
        while let Some(q) = queue.pop_front() {
            for &nb in &self.adjacency[q] {
                if dist[nb] == usize::MAX {
                    dist[nb] = dist[q] + 1;
                    queue.push_back(nb);
                }
            }
        }
        dist
    }

    /// The all-pairs distance matrix (BFS from every qubit).
    pub fn distance_matrix(&self) -> Vec<Vec<usize>> {
        (0..self.num_qubits)
            .map(|q| self.bfs_distances(q))
            .collect()
    }

    /// A shortest path between two qubits (inclusive of both endpoints).
    ///
    /// # Panics
    ///
    /// Panics if the qubits are disconnected. Use
    /// [`try_shortest_path`](Self::try_shortest_path) to handle broken coupling graphs
    /// without panicking.
    pub fn shortest_path(&self, from: usize, to: usize) -> Vec<usize> {
        match self.try_shortest_path(from, to) {
            Some(path) => path,
            None => panic!("qubits {from} and {to} are disconnected"),
        }
    }

    /// A shortest path between two qubits (inclusive of both endpoints), or
    /// `None` when they lie in different connected components.
    pub fn try_shortest_path(&self, from: usize, to: usize) -> Option<Vec<usize>> {
        let dist = self.bfs_distances(to);
        if dist[from] == usize::MAX {
            return None;
        }
        let mut path = vec![from];
        let mut cur = from;
        while cur != to {
            let next = *self.adjacency[cur]
                .iter()
                .find(|&&nb| dist[nb] + 1 == dist[cur])?;
            path.push(next);
            cur = next;
        }
        Some(path)
    }

    /// Count of adjacent edge pairs (edges sharing a qubit) — a simple
    /// proxy for simultaneous-gate crosstalk exposure.
    pub fn adjacent_edge_pairs(&self) -> usize {
        self.adjacency
            .iter()
            .map(|adj| adj.len() * adj.len().saturating_sub(1) / 2)
            .sum()
    }
}

impl fmt::Display for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} qubits, {} edges, max degree {})",
            self.name,
            self.num_qubits,
            self.num_edges(),
            self.max_degree()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xtree_family_matches_figure6() {
        for (n, edges) in [(5, 4), (8, 7), (17, 16), (26, 25)] {
            let t = Topology::xtree(n);
            assert_eq!(t.num_qubits(), n);
            assert_eq!(t.num_edges(), edges);
            assert!(t.is_tree(), "XTree{n}Q must be a tree");
            assert!(t.max_degree() <= 4, "physical constraint: ≤ 4 couplings");
        }
    }

    #[test]
    fn xtree17_levels() {
        let t = Topology::xtree(17);
        assert_eq!(t.root(), Some(0));
        assert_eq!(t.level(0), Some(0));
        // Qubits 1–4 at level 1, 5–16 at level 2.
        for q in 1..=4 {
            assert_eq!(t.level(q), Some(1));
        }
        for q in 5..17 {
            assert_eq!(t.level(q), Some(2));
        }
        assert_eq!(t.num_levels(), Some(3));
    }

    #[test]
    fn xtree8_grows_one_leaf() {
        // Paper: "add three more qubits to one leaf qubit of XTree5Q".
        let t = Topology::xtree(8);
        assert_eq!(t.degree(0), 4);
        assert_eq!(t.degree(1), 4); // leaf 1 became an internal qubit
        for q in [2, 3, 4, 5, 6, 7] {
            assert_eq!(t.degree(q), 1, "qubit {q}");
        }
    }

    #[test]
    fn grid17q_matches_paper_counts() {
        let g = Topology::grid17q();
        assert_eq!(g.num_qubits(), 17);
        assert_eq!(g.num_edges(), 24); // "Grid17Q has 24 connections" (§VI-E)
        assert!(g.max_degree() <= 4);
        assert!(g.is_connected());
        assert!(!g.is_tree());
    }

    #[test]
    fn generic_grid_edge_count() {
        let g = Topology::grid(4, 4);
        assert_eq!(g.num_edges(), 24);
        assert_eq!(g.num_qubits(), 16);
        // Paper: grids have roughly 2N edges for N qubits.
        let big = Topology::grid(10, 10);
        assert_eq!(big.num_edges(), 180);
    }

    #[test]
    fn distances_and_paths() {
        let t = Topology::xtree(17);
        let d = t.distance_matrix();
        // Leaf to leaf through the root: 4 hops.
        assert_eq!(d[5][16], 4);
        let p = t.shortest_path(5, 16);
        assert_eq!(p.len(), 5);
        assert_eq!(p[0], 5);
        assert_eq!(*p.last().unwrap(), 16);
        for w in p.windows(2) {
            assert!(t.are_connected(w[0], w[1]));
        }
    }

    #[test]
    fn line_and_complete() {
        let l = Topology::line(5);
        assert!(l.is_tree());
        assert_eq!(l.bfs_distances(0)[4], 4);
        let k = Topology::complete(5);
        assert_eq!(k.num_edges(), 10);
        assert_eq!(k.bfs_distances(0)[4], 1);
    }

    #[test]
    fn xtree_has_fewer_crosstalk_pairs_than_grid() {
        let x = Topology::xtree(17);
        let g = Topology::grid17q();
        assert!(x.adjacent_edge_pairs() < g.adjacent_edge_pairs());
    }

    #[test]
    #[should_panic]
    fn duplicate_edges_rejected() {
        let _ = Topology::from_edges("bad", 3, vec![(0, 1), (1, 0)]);
    }

    #[test]
    fn degree_variant_matches_default_xtree() {
        let a = Topology::xtree(17);
        let b = Topology::xtree_with_degrees(17, &[4, 3]);
        assert_eq!(a.edges(), b.edges());
        assert_eq!(a.level(16), b.level(16));
    }

    #[test]
    fn binary_xtree_is_deeper() {
        let b = Topology::xtree_with_degrees(15, &[2]);
        assert!(b.is_tree());
        assert!(b.max_degree() <= 3);
        // Complete binary tree of 15 nodes has 4 levels (0..=3).
        assert_eq!(b.num_levels(), Some(4));
        // Wider trees are shallower.
        assert_eq!(
            Topology::xtree_with_degrees(15, &[6, 5]).num_levels(),
            Some(3)
        );
    }

    #[test]
    fn heavy_hex_structure() {
        let h = Topology::heavy_hex(3, 9);
        assert!(h.is_connected());
        assert!(h.max_degree() <= 3, "heavy-hex is a degree-3 family");
        // 27 row qubits + 3 + 2 bridges.
        assert_eq!(h.num_qubits(), 32);
        assert!(!h.is_tree());
    }

    #[test]
    fn heavy_hex_single_row_is_a_line() {
        let h = Topology::heavy_hex(1, 5);
        assert_eq!(h.num_qubits(), 5);
        assert_eq!(h.num_edges(), 4);
    }
}
