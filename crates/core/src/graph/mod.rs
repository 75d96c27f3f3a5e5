//! The workstation graph and its shortest paths (paper §2).
//!
//! *"BIPS defines a weighted undirected connected graph that reflects the
//! topology of workstations inside the building … BIPS implements the
//! Dijkstra algorithm … the static nature of BIPS wired network allows us
//! to compute off-line all the shortest paths that connect all the
//! possible pairs of two nodes."*
//!
//! [`WsGraph`] is that graph; [`WsGraph::dijkstra`] the single-source
//! solver; [`Apsp`] the offline all-pairs table whose online lookups cost
//! O(path length) — the property the paper relies on to keep path
//! queries off the critical path. A Bellman–Ford reference implementation
//! backs the property tests.
//!
//! The paper's static precomputation collapses under topology churn
//! (workstation failure, congestion-driven weight updates): the
//! [`dynamic`] submodule's [`PathEngine`] maintains shortest paths
//! incrementally (or, as the reference, rebuilds them), and the
//! [`walk`] submodule is the panic-free `prev`-row walk the serving
//! layers route through.

pub mod dynamic;
pub mod walk;

pub use dynamic::{
    PathEngine, PathEngineKind, TopologyError, WarmQuery, DEFAULT_CACHE_SLOTS, DENSE_MAX_NODES,
};
pub use walk::PathWalkError;

/// A node index in the workstation graph (one per BIPS workstation).
pub type NodeId = usize;

/// A weighted undirected graph over workstation nodes.
///
/// Weights are walking distances in meters (the paper uses positive
/// integers; any positive finite weight is accepted).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WsGraph {
    adj: Vec<Vec<(NodeId, f64)>>,
}

impl WsGraph {
    /// A graph with `n` isolated nodes.
    pub fn new(n: usize) -> WsGraph {
        WsGraph {
            adj: vec![Vec::new(); n],
        }
    }

    /// Builds the graph from a building floor plan: one node per room,
    /// one edge per door/corridor, weighted by walking distance.
    pub fn from_building(b: &bips_mobility::Building) -> WsGraph {
        let mut g = WsGraph::new(b.num_rooms());
        for r in b.rooms() {
            for &(n, d) in b.edges(r) {
                if r.index() < n.index() {
                    g.add_edge(r.index(), n.index(), d);
                }
            }
        }
        g
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.adj.len()
    }

    /// Number of undirected edges.
    pub fn num_edges(&self) -> usize {
        self.adj.iter().map(Vec::len).sum::<usize>() / 2
    }

    /// Adds an undirected edge.
    ///
    /// # Panics
    ///
    /// Panics if a node is out of range, `a == b`, or `weight` is not
    /// positive and finite.
    pub fn add_edge(&mut self, a: NodeId, b: NodeId, weight: f64) {
        assert!(a < self.adj.len(), "node {a} out of range");
        assert!(b < self.adj.len(), "node {b} out of range");
        assert!(a != b, "self loops are not allowed");
        assert!(weight > 0.0 && weight.is_finite(), "bad weight {weight}");
        // lint:allow(serve-panic-reach): bounds asserted at fn entry
        self.adj[a].push((b, weight));
        self.adj[b].push((a, weight)); // lint:allow(serve-panic-reach): bounds asserted at fn entry
    }

    /// The neighbors of `n` with edge weights.
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of range.
    pub fn edges(&self, n: NodeId) -> &[(NodeId, f64)] {
        // lint:allow(serve-panic-reach): documented panic API; serve-path ids pre-validated by Topo::check_node
        &self.adj[n]
    }

    /// Single-source shortest paths (Dijkstra with a binary heap).
    /// Returns `(dist, prev)`: `dist[v]` is `f64::INFINITY` for
    /// unreachable nodes, and `prev[v]` reconstructs paths.
    ///
    /// # Panics
    ///
    /// Panics if `src` is out of range.
    pub fn dijkstra(&self, src: NodeId) -> (Vec<f64>, Vec<Option<NodeId>>) {
        let mut dist = Vec::new();
        let mut prev = Vec::new();
        self.dijkstra_into(src, &mut dist, &mut prev);
        let prev = prev
            .iter()
            .map(|&p| (p != NO_PREV).then_some(p as usize))
            .collect();
        (dist, prev)
    }

    /// [`WsGraph::dijkstra`] into caller-owned buffers, with `prev` in
    /// the flat [`NO_PREV`]-sentinel encoding [`Apsp`] uses. With warm
    /// buffers the only allocation is the binary heap's backing store.
    ///
    /// # Panics
    ///
    /// Panics if `src` is out of range.
    pub(crate) fn dijkstra_into(&self, src: NodeId, dist: &mut Vec<f64>, prev: &mut Vec<u32>) {
        assert!(src < self.adj.len(), "node {src} out of range");
        let n = self.adj.len();
        assert!(
            n <= NO_PREV as usize,
            "graph too large for the prev encoding"
        );
        dist.clear();
        dist.resize(n, f64::INFINITY);
        prev.clear();
        prev.resize(n, NO_PREV);
        let mut heap = std::collections::BinaryHeap::new();
        // lint:allow(serve-panic-reach): hot kernel; src asserted and buffers resized to n at entry
        dist[src] = 0.0;
        heap.push(HeapEntry {
            dist: 0.0,
            node: src,
        });
        while let Some(HeapEntry { dist: d, node: u }) = heap.pop() {
            // lint:allow(serve-panic-reach): hot kernel; src asserted and buffers resized to n at entry
            if d > dist[u] {
                continue; // stale entry
            }
            // lint:allow(serve-panic-reach): hot kernel; src asserted and buffers resized to n at entry
            for &(v, w) in &self.adj[u] {
                let nd = d + w;
                // lint:allow(serve-panic-reach): hot kernel; src asserted and buffers resized to n at entry
                if nd < dist[v] {
                    dist[v] = nd; // lint:allow(serve-panic-reach): hot kernel; src asserted and buffers resized to n at entry
                    prev[v] = u as u32;
                    heap.push(HeapEntry { dist: nd, node: v });
                }
            }
        }
    }

    /// Bellman–Ford reference solver (O(V·E)); used to cross-check
    /// Dijkstra in tests and benches.
    ///
    /// # Panics
    ///
    /// Panics if `src` is out of range.
    pub fn bellman_ford(&self, src: NodeId) -> Vec<f64> {
        assert!(src < self.adj.len(), "node {src} out of range");
        let n = self.adj.len();
        let mut dist = vec![f64::INFINITY; n];
        dist[src] = 0.0;
        for _ in 0..n.saturating_sub(1) {
            let mut changed = false;
            for u in 0..n {
                if dist[u].is_infinite() {
                    continue;
                }
                for &(v, w) in &self.adj[u] {
                    if dist[u] + w < dist[v] {
                        dist[v] = dist[u] + w;
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        dist
    }

    /// Computes the offline all-pairs table (n Dijkstra runs — the
    /// paper's "compute off-line all the shortest paths").
    pub fn precompute_all_pairs(&self) -> Apsp {
        let n = self.adj.len();
        assert!(n < NO_PREV as usize, "graph too large for the APSP table");
        let mut apsp = Apsp {
            n,
            dist: Vec::with_capacity(n * n),
            prev: Vec::with_capacity(n * n),
        };
        let (mut dist, mut prev) = (Vec::new(), Vec::new());
        for src in 0..n {
            self.dijkstra_into(src, &mut dist, &mut prev);
            apsp.dist.extend_from_slice(&dist);
            apsp.prev.extend_from_slice(&prev);
        }
        apsp
    }

    /// True if every node reaches every other (the paper assumes a
    /// connected graph).
    pub fn is_connected(&self) -> bool {
        if self.adj.is_empty() {
            return true;
        }
        let (dist, _) = self.dijkstra(0);
        dist.iter().all(|d| d.is_finite())
    }

    /// Sets the weight of the undirected edge `a`–`b`, inserting the
    /// edge if absent. Returns the previous weight (`None` if the edge
    /// was added).
    ///
    /// # Panics
    ///
    /// Panics if a node is out of range, `a == b`, or `weight` is not
    /// positive and finite.
    pub fn set_edge_weight(&mut self, a: NodeId, b: NodeId, weight: f64) -> Option<f64> {
        assert!(a < self.adj.len(), "node {a} out of range");
        assert!(b < self.adj.len(), "node {b} out of range");
        assert!(a != b, "self loops are not allowed");
        assert!(weight > 0.0 && weight.is_finite(), "bad weight {weight}");
        // lint:allow(serve-panic-reach): bounds asserted at fn entry
        let old = self.adj[a].iter_mut().find(|e| e.0 == b).map(|e| {
            let o = e.1;
            e.1 = weight;
            o
        });
        match old {
            Some(_) => {
                // lint:allow(serve-panic-reach): bounds asserted at fn entry
                if let Some(e) = self.adj[b].iter_mut().find(|e| e.0 == a) {
                    e.1 = weight;
                }
            }
            None => {
                // lint:allow(serve-panic-reach): bounds asserted at fn entry
                self.adj[a].push((b, weight));
                self.adj[b].push((a, weight)); // lint:allow(serve-panic-reach): bounds asserted at fn entry
            }
        }
        old
    }

    /// Removes the undirected edge `a`–`b`, returning its weight
    /// (`None` if the edge does not exist).
    ///
    /// # Panics
    ///
    /// Panics if a node is out of range.
    pub fn remove_edge(&mut self, a: NodeId, b: NodeId) -> Option<f64> {
        assert!(a < self.adj.len(), "node {a} out of range");
        assert!(b < self.adj.len(), "node {b} out of range");
        let adj_a = self.adj.get_mut(a)?;
        let pos = adj_a.iter().position(|&(v, _)| v == b)?;
        let (_, w) = adj_a.swap_remove(pos);
        let adj_b = self.adj.get_mut(b)?;
        if let Some(p) = adj_b.iter().position(|&(v, _)| v == a) {
            adj_b.swap_remove(p);
        }
        Some(w)
    }
}

/// Max-heap entry ordered by *smallest* distance first.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct HeapEntry {
    pub(crate) dist: f64,
    pub(crate) node: NodeId,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reverse: BinaryHeap is a max-heap, we need the minimum.
        // Distances are finite sums of non-negative edge weights, so
        // `total_cmp` agrees with the mathematical order and stays total
        // (no NaN panic path) even if an upstream invariant breaks.
        other
            .dist
            .total_cmp(&self.dist)
            .then_with(|| other.node.cmp(&self.node))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Sentinel in the flattened `prev` table: no predecessor (source node or
/// unreachable).
pub(crate) const NO_PREV: u32 = u32::MAX;

/// The precomputed all-pairs shortest-path table.
///
/// Lookups never touch the graph again: `path(a, b)` walks the `prev`
/// chain, so the online cost is proportional to the path length — "the
/// computation of the shortest path has no impact on BIPS online
/// activities" (§2).
///
/// Both tables are stored flat (row `a` at offset `a * n`), so a path
/// walk touches one contiguous row instead of chasing per-source `Vec`
/// allocations, and [`Apsp::path_into`] reconstructs a path with zero
/// heap allocation into a caller-owned buffer — the serving hot path of
/// [`ShardedService`](crate::service::ShardedService) depends on both
/// properties.
#[derive(Debug, Clone, PartialEq)]
pub struct Apsp {
    n: usize,
    dist: Vec<f64>,
    prev: Vec<u32>,
}

impl Apsp {
    /// The shortest distance from `a` to `b` (`None` if unreachable).
    ///
    /// # Panics
    ///
    /// Panics if a node is out of range.
    pub fn distance(&self, a: NodeId, b: NodeId) -> Option<f64> {
        assert!(a < self.n && b < self.n, "node out of range");
        let d = self.dist[a * self.n + b];
        d.is_finite().then_some(d)
    }

    /// The shortest path from `a` to `b` inclusive, with its length.
    /// `None` if unreachable.
    ///
    /// Thin wrapper over [`Apsp::path_into`] that allocates a fresh
    /// `Vec` per call; hot paths should hold a scratch buffer and call
    /// `path_into` directly.
    ///
    /// # Panics
    ///
    /// Panics if a node is out of range.
    pub fn path(&self, a: NodeId, b: NodeId) -> Option<(Vec<NodeId>, f64)> {
        let mut path = Vec::new();
        let d = self.path_into(a, b, &mut path)?;
        Some((path, d))
    }

    /// Writes the shortest path from `a` to `b` inclusive into `out`
    /// (cleared first) and returns its length, or `None` if `b` is
    /// unreachable (`out` is left empty).
    ///
    /// Beyond `out`'s initial growth this performs no heap allocation:
    /// with a warm buffer the walk only reads the flat `prev` row.
    ///
    /// # Panics
    ///
    /// Panics if a node is out of range or the table is corrupt (see
    /// [`Apsp::try_path_into`] for the panic-free walk).
    pub fn path_into(&self, a: NodeId, b: NodeId, out: &mut Vec<NodeId>) -> Option<f64> {
        match self.try_path_into(a, b, out) {
            Ok(d) => d,
            Err(e) => panic!("{e}"),
        }
    }

    /// Like [`Apsp::path_into`] but panic-free: out-of-range endpoints
    /// and corrupt `prev` chains come back as a typed
    /// [`PathWalkError`] instead of aborting the serving thread.
    pub fn try_path_into(
        &self,
        a: NodeId,
        b: NodeId,
        out: &mut Vec<NodeId>,
    ) -> Result<Option<f64>, PathWalkError> {
        let n = self.n;
        for x in [a, b] {
            if x >= n {
                out.clear();
                return Err(PathWalkError::NodeOutOfRange {
                    node: x as u32,
                    num_nodes: n as u32,
                });
            }
        }
        let start = a * n;
        let dist_row = self.dist.get(start..start + n).unwrap_or(&[]);
        let prev_row = self.prev.get(start..start + n).unwrap_or(&[]);
        walk::walk_prev_row(n, a, b, dist_row, prev_row, out)
    }

    /// Number of nodes covered by the table.
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// The `(dist, prev)` cells of each block of `rows` source rows,
    /// mutable, in source order: the dynamic engine repairs the table in
    /// place through these.
    pub(crate) fn row_blocks_mut(
        &mut self,
        rows: usize,
    ) -> impl Iterator<Item = (&mut [f64], &mut [u32])> {
        // `chunks_mut(0)` panics; an empty table has no rows either way.
        let cells = (self.n * rows).max(1);
        self.dist.chunks_mut(cells).zip(self.prev.chunks_mut(cells))
    }

    /// Test hook: overwrite `prev[a][b]` with the no-predecessor
    /// sentinel to simulate table corruption.
    #[doc(hidden)]
    pub fn debug_break_prev(&mut self, a: NodeId, b: NodeId) {
        assert!(a < self.n && b < self.n, "node out of range");
        self.prev[a * self.n + b] = NO_PREV;
    }
}

/// Deterministic pseudo-random connected graph for tests and benches:
/// a spanning chain plus `extra_edges` shortcuts.
pub fn random_connected_graph(n: usize, extra_edges: usize, seed: u64) -> WsGraph {
    assert!(n >= 2, "need at least two nodes");
    let mut rng = desim::SimRng::seed_from(seed);
    let mut g = WsGraph::new(n);
    for i in 1..n {
        g.add_edge(i - 1, i, rng.uniform(1.0, 30.0));
    }
    let mut added = 0;
    let mut guard = 0;
    while added < extra_edges && guard < extra_edges * 20 {
        guard += 1;
        let a = rng.below(n as u64) as usize;
        let b = rng.below(n as u64) as usize;
        if a == b || g.edges(a).iter().any(|&(v, _)| v == b) {
            continue;
        }
        g.add_edge(a, b, rng.uniform(1.0, 30.0));
        added += 1;
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's scenario graph: a small department.
    fn department() -> WsGraph {
        let b = bips_mobility::Building::academic_department();
        WsGraph::from_building(&b)
    }

    #[test]
    fn triangle_shortest_path() {
        let mut g = WsGraph::new(3);
        g.add_edge(0, 1, 7.0);
        g.add_edge(1, 2, 5.0);
        g.add_edge(0, 2, 20.0);
        let (dist, prev) = g.dijkstra(0);
        assert_eq!(dist, vec![0.0, 7.0, 12.0]);
        assert_eq!(prev[2], Some(1));
    }

    #[test]
    fn unreachable_nodes_are_infinite() {
        let mut g = WsGraph::new(4);
        g.add_edge(0, 1, 1.0);
        g.add_edge(2, 3, 1.0);
        let (dist, _) = g.dijkstra(0);
        assert!(dist[2].is_infinite());
        assert!(!g.is_connected());
        let apsp = g.precompute_all_pairs();
        assert_eq!(apsp.distance(0, 3), None);
        assert_eq!(apsp.path(0, 3), None);
    }

    #[test]
    fn department_graph_is_connected() {
        let g = department();
        assert!(g.is_connected());
        assert_eq!(g.num_nodes(), 9);
    }

    #[test]
    fn apsp_matches_per_source_dijkstra() {
        let g = random_connected_graph(40, 60, 7);
        let apsp = g.precompute_all_pairs();
        for src in [0usize, 7, 23, 39] {
            let (dist, _) = g.dijkstra(src);
            for (v, &d) in dist.iter().enumerate() {
                assert_eq!(apsp.distance(src, v), Some(d));
            }
        }
    }

    #[test]
    fn dijkstra_matches_bellman_ford() {
        for seed in 0..8 {
            let g = random_connected_graph(30, 45, seed);
            let (d1, _) = g.dijkstra(0);
            let d2 = g.bellman_ford(0);
            for (v, (a, b)) in d1.iter().zip(&d2).enumerate() {
                assert!((a - b).abs() < 1e-9, "seed {seed} node {v}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn paths_are_valid_walks_with_correct_length() {
        let g = random_connected_graph(25, 30, 3);
        let apsp = g.precompute_all_pairs();
        for a in 0..25 {
            for b in 0..25 {
                let (path, total) = apsp.path(a, b).expect("connected");
                assert_eq!(path[0], a);
                assert_eq!(*path.last().unwrap(), b);
                let mut sum = 0.0;
                for w in path.windows(2) {
                    let weight = g
                        .edges(w[0])
                        .iter()
                        .find(|&&(v, _)| v == w[1])
                        .map(|&(_, wt)| wt)
                        .expect("edge exists along path");
                    sum += weight;
                }
                assert!((sum - total).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn path_to_self_is_trivial() {
        let g = department();
        let apsp = g.precompute_all_pairs();
        assert_eq!(apsp.path(3, 3), Some((vec![3], 0.0)));
    }

    #[test]
    fn path_into_matches_path_and_reuses_buffer() {
        let g = random_connected_graph(25, 30, 3);
        let apsp = g.precompute_all_pairs();
        let mut buf = Vec::new();
        for a in 0..25 {
            for b in 0..25 {
                let (path, total) = apsp.path(a, b).expect("connected");
                let d = apsp.path_into(a, b, &mut buf).expect("connected");
                assert_eq!(buf, path);
                assert_eq!(d.to_bits(), total.to_bits());
            }
        }
        // Unreachable pairs leave the buffer empty.
        let mut g2 = WsGraph::new(4);
        g2.add_edge(0, 1, 1.0);
        g2.add_edge(2, 3, 1.0);
        let apsp2 = g2.precompute_all_pairs();
        assert_eq!(apsp2.path_into(0, 3, &mut buf), None);
        assert!(buf.is_empty());
    }

    #[test]
    fn symmetric_distances() {
        let g = random_connected_graph(20, 25, 11);
        let apsp = g.precompute_all_pairs();
        for a in 0..20 {
            for b in 0..20 {
                // Same path, possibly summed in opposite order: equal up
                // to floating-point rounding.
                let ab = apsp.distance(a, b).unwrap();
                let ba = apsp.distance(b, a).unwrap();
                assert!((ab - ba).abs() < 1e-9, "{a}->{b}: {ab} vs {ba}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "bad weight")]
    fn negative_weight_rejected() {
        let mut g = WsGraph::new(2);
        g.add_edge(0, 1, -1.0);
    }

    #[test]
    #[should_panic(expected = "self loops")]
    fn self_loop_rejected() {
        let mut g = WsGraph::new(2);
        g.add_edge(1, 1, 1.0);
    }
}
