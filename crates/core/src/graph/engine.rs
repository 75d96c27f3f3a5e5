//! Engine selection for dynamic shortest paths.
//!
//! [`PathEngine`] fronts two implementations with identical answers:
//! the incremental [`DynApsp`] (the production path) and
//! [`RebuildEngine`], which re-runs `precompute_all_pairs` after every
//! applied mutation — the paper's original semantics, kept selectable
//! the way PR 8 kept `ReadPath::Locked`, both as the differential
//! reference and as the baseline the `path_churn` bench gates against.

use super::dynamic::{DynApsp, EdgeUpdate, NodeToggle, Topo, TopologyError, WarmQuery};
use super::walk::PathWalkError;
use super::{Apsp, NodeId, WsGraph};

/// Engine selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathEngineKind {
    /// Full `precompute_all_pairs` rebuild per mutation (reference).
    Rebuild,
    /// [`DynApsp`] in its size-chosen mode (dense ≤ threshold).
    Dynamic,
    /// [`DynApsp`] forced dense.
    DynamicDense,
    /// [`DynApsp`] forced sparse (default slot count).
    DynamicSparse,
}

impl PathEngineKind {
    /// The kind's name in reports and test messages.
    pub fn name(self) -> &'static str {
        match self {
            PathEngineKind::Rebuild => "rebuild",
            PathEngineKind::Dynamic => "dynamic",
            PathEngineKind::DynamicDense => "dyn-dense",
            PathEngineKind::DynamicSparse => "dyn-sparse",
        }
    }
}

/// The paper's rebuild-from-scratch semantics behind the common
/// engine interface: every applied mutation recomputes the full
/// [`Apsp`]. O(n · Dijkstra) per mutation and O(n²) memory — the
/// baseline the incremental engine is gated against, and the oracle
/// the differential suites compare bit-for-bit.
#[derive(Debug, Clone)]
pub struct RebuildEngine {
    topo: Topo,
    apsp: Apsp,
    epoch: u64,
}

impl RebuildEngine {
    fn new(graph: WsGraph) -> RebuildEngine {
        let apsp = graph.precompute_all_pairs();
        RebuildEngine {
            topo: Topo::new(graph),
            apsp,
            epoch: 0,
        }
    }

    fn rebuilt(&mut self) {
        self.epoch += 1;
        self.apsp = self.topo.graph.precompute_all_pairs();
    }

    /// The current full table (differential tests compare against it).
    pub fn apsp(&self) -> &Apsp {
        &self.apsp
    }
}

/// A dynamic shortest-path engine: answers are identical across
/// variants; only the maintenance cost differs.
#[derive(Debug, Clone)]
pub enum PathEngine {
    /// Rebuild-per-mutation reference.
    Rebuild(RebuildEngine),
    /// Incremental maintenance.
    Dynamic(DynApsp),
}

impl PathEngine {
    /// Builds the engine variant `kind` over `graph`.
    pub fn new(kind: PathEngineKind, graph: WsGraph) -> PathEngine {
        match kind {
            PathEngineKind::Rebuild => PathEngine::Rebuild(RebuildEngine::new(graph)),
            PathEngineKind::Dynamic => PathEngine::Dynamic(DynApsp::new(graph)),
            PathEngineKind::DynamicDense => PathEngine::Dynamic(DynApsp::new_dense(graph)),
            PathEngineKind::DynamicSparse => PathEngine::Dynamic(DynApsp::new_sparse(
                graph,
                super::dynamic::DEFAULT_CACHE_SLOTS,
            )),
        }
    }

    /// A short human-readable variant name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            PathEngine::Rebuild(_) => "rebuild",
            PathEngine::Dynamic(d) => {
                if d.is_dense() {
                    "dyn-dense"
                } else {
                    "dyn-sparse"
                }
            }
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        match self {
            PathEngine::Rebuild(r) => r.topo.graph.num_nodes(),
            PathEngine::Dynamic(d) => d.num_nodes(),
        }
    }

    /// Mutation epoch (bumped per applied mutation).
    pub fn epoch(&self) -> u64 {
        match self {
            PathEngine::Rebuild(r) => r.epoch,
            PathEngine::Dynamic(d) => d.epoch(),
        }
    }

    /// The current live graph (down nodes appear isolated).
    pub fn graph(&self) -> &WsGraph {
        match self {
            PathEngine::Rebuild(r) => &r.topo.graph,
            PathEngine::Dynamic(d) => d.graph(),
        }
    }

    /// False while `x` is down.
    pub fn is_node_up(&self, x: NodeId) -> bool {
        match self {
            PathEngine::Rebuild(r) => r.topo.is_node_up(x),
            PathEngine::Dynamic(d) => d.is_node_up(x),
        }
    }

    /// Sets (or inserts) an edge weight. `Ok(true)` iff state changed.
    pub fn set_edge_weight(
        &mut self,
        a: NodeId,
        b: NodeId,
        weight: f64,
    ) -> Result<bool, TopologyError> {
        match self {
            PathEngine::Rebuild(r) => match r.topo.set_edge_weight(a, b, weight)? {
                EdgeUpdate::NoOp => Ok(false),
                EdgeUpdate::Added | EdgeUpdate::Changed { .. } => {
                    r.rebuilt();
                    Ok(true)
                }
            },
            PathEngine::Dynamic(d) => d.set_edge_weight(a, b, weight),
        }
    }

    /// Takes a node down / brings it up. `Ok(true)` iff state changed.
    pub fn set_node_up(&mut self, x: NodeId, up: bool) -> Result<bool, TopologyError> {
        match self {
            PathEngine::Rebuild(r) => match r.topo.set_node_up(x, up)? {
                NodeToggle::NoOp => Ok(false),
                NodeToggle::Down { .. } | NodeToggle::Up { .. } => {
                    r.rebuilt();
                    Ok(true)
                }
            },
            PathEngine::Dynamic(d) => d.set_node_up(x, up),
        }
    }

    /// Appends a new isolated node.
    pub fn add_node(&mut self) -> NodeId {
        match self {
            PathEngine::Rebuild(r) => {
                let id = r.topo.graph.add_node();
                r.rebuilt();
                id
            }
            PathEngine::Dynamic(d) => d.add_node(),
        }
    }

    /// Shared-reference query; the rebuild engine is never cold.
    pub fn query_warm(
        &self,
        a: NodeId,
        b: NodeId,
        out: &mut Vec<NodeId>,
    ) -> Result<WarmQuery, PathWalkError> {
        match self {
            PathEngine::Rebuild(r) => r.apsp.try_path_into(a, b, out).map(WarmQuery::Ready),
            PathEngine::Dynamic(d) => d.query_warm(a, b, out),
        }
    }

    /// Ensures a warm tree for `src` (no-op for rebuild/dense).
    pub fn warm(&mut self, src: NodeId) {
        if let PathEngine::Dynamic(d) = self {
            d.warm(src);
        }
    }

    /// Query with on-demand warming.
    pub fn query(
        &mut self,
        a: NodeId,
        b: NodeId,
        out: &mut Vec<NodeId>,
    ) -> Result<Option<f64>, PathWalkError> {
        match self {
            PathEngine::Rebuild(r) => r.apsp.try_path_into(a, b, out),
            PathEngine::Dynamic(d) => d.query(a, b, out),
        }
    }

    /// Convenience distance lookup (tests and tools).
    pub fn distance(&mut self, a: NodeId, b: NodeId) -> Option<f64> {
        let mut buf = Vec::new();
        self.query(a, b, &mut buf).ok().flatten()
    }

    /// Exports `core.graph.*` counters (dynamic engine only; the
    /// rebuild reference maintains no incremental state to count).
    pub fn export_metrics(&self, metrics: &mut desim::MetricSet) {
        if let PathEngine::Dynamic(d) = self {
            d.export_metrics(metrics);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::random_connected_graph;
    use super::*;

    #[test]
    fn all_variants_agree_under_churn() {
        let g = random_connected_graph(30, 40, 17);
        let mut engines: Vec<PathEngine> = [
            PathEngineKind::Rebuild,
            PathEngineKind::DynamicDense,
            PathEngineKind::DynamicSparse,
        ]
        .into_iter()
        .map(|k| PathEngine::new(k, g.clone()))
        .collect();
        let mut rng = desim::SimRng::seed_from(23);
        let mut bufs = vec![Vec::new(); engines.len()];
        for step in 0..60 {
            // One mutation…
            let (a, b) = (rng.below(30) as usize, rng.below(30) as usize);
            if step % 7 == 3 {
                let x = rng.below(30) as usize;
                let up = rng.below(2) == 0;
                let mut applied = Vec::new();
                for e in engines.iter_mut() {
                    applied.push(e.set_node_up(x, up).expect("valid"));
                }
                assert!(applied.windows(2).all(|w| w[0] == w[1]));
            } else if a != b {
                let w = rng.uniform(0.5, 50.0);
                // A down endpoint is a (consistent) rejection.
                let mut applied = Vec::new();
                for e in engines.iter_mut() {
                    applied.push(e.set_edge_weight(a, b, w));
                }
                assert!(applied.windows(2).all(|w| w[0] == w[1]), "{applied:?}");
            }
            // … then a handful of differential queries.
            for _ in 0..8 {
                let (qa, qb) = (rng.below(30) as usize, rng.below(30) as usize);
                let mut results = Vec::new();
                for (e, buf) in engines.iter_mut().zip(bufs.iter_mut()) {
                    let d = e.query(qa, qb, buf).expect("no corruption");
                    results.push((d.map(f64::to_bits), buf.clone()));
                }
                assert!(
                    results.windows(2).all(|w| w[0] == w[1]),
                    "step {step}: {qa}->{qb} diverged: {results:?}"
                );
            }
        }
        for e in &engines {
            assert!(e.epoch() > 0);
        }
    }

    #[test]
    fn rebuild_reference_rejects_and_accepts_like_dynamic() {
        let g = random_connected_graph(10, 8, 4);
        let mut r = PathEngine::new(PathEngineKind::Rebuild, g.clone());
        let mut d = PathEngine::new(PathEngineKind::Dynamic, g);
        assert_eq!(r.set_edge_weight(0, 99, 1.0), d.set_edge_weight(0, 99, 1.0));
        assert_eq!(r.set_node_up(3, false), d.set_node_up(3, false));
        assert_eq!(r.set_edge_weight(3, 4, 2.0), d.set_edge_weight(3, 4, 2.0));
        assert_eq!(r.epoch(), d.epoch());
        assert_eq!(r.is_node_up(3), d.is_node_up(3));
    }
}
