//! Incremental all-pairs shortest paths under topology churn.
//!
//! The paper computes every pair offline and never touches the tables
//! again (§3). That is O(n²) memory and a full n-source rebuild per
//! topology change — fine for ~20 workstations, fatal for a 100k-cell
//! campus where cells flap and congestion reweights edges continuously
//! (ROADMAP item 3). [`DynApsp`] keeps path answers *bit-identical* to
//! a full rebuild while doing only incremental work:
//!
//! - **Dense mode** (`n ≤` [`DENSE_MAX_NODES`]): the exact flat table
//!   is kept, and every mutation runs a Ramalingam–Reps-style dynamic
//!   SSSP repair per source row, touching only vertices whose distance
//!   actually changes (weight decreases/edge adds seed a restricted
//!   Dijkstra from the changed edge; increases/node-downs rebuild just
//!   the affected shortest-path subtree).
//! - **Sparse mode** (larger `n`): the O(n²) table is dropped for an
//!   LRU cache of hot per-source shortest-path trees, computed on
//!   demand with the existing Dijkstra and *repaired in place* on
//!   mutation with the same row-repair machinery. A repair that would
//!   touch more than `n / REPAIR_BUDGET_DIV` vertices of one tree
//!   instead leaves the slot stale (an epoch invalidation) to be
//!   recomputed on next use. Memory is O(slots · n); a warm-tree query
//!   is the same zero-alloc `prev`-row walk as the static table.
//!
//! **Why repairs are bit-identical.** `WsGraph::dijkstra` relaxes with
//! a strict `<` and pops a min-heap ordered by `(dist, node)` via
//! `total_cmp`, so its output is *canonical*: `dist[v]` is the unique
//! least fixpoint of `min over neighbors u of (dist[u] + w(u,v))` in
//! exact f64 arithmetic, and `prev[v]` is the argmin by key
//! `(dist[u], u)` among the neighbors achieving that minimum (equal
//! sums of identical f64 values are bitwise equal, so "the minimum" is
//! a unique bit pattern). The repairs re-settle exactly the vertices
//! whose fixpoint inputs changed, with the same heap order and the
//! same additions, and then recompute `prev` by the same argmin rule
//! over the set of vertices whose inputs (own distance, any neighbor
//! distance, any incident weight) changed — so every cell of the table
//! lands on the same bits a scratch rebuild would produce. The
//! differential suites (`graph_churn`, `churn_differential`) pin this.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

use super::walk::{walk_prev_row, PathWalkError};
use super::{HeapEntry, NodeId, WsGraph, NO_PREV};

/// Largest node count for which [`DynApsp::new`] keeps the exact flat
/// O(n²) table (dense mode); larger graphs get the sparse tree cache.
pub const DENSE_MAX_NODES: usize = 1024;

/// Default number of cached source trees in sparse mode.
pub const DEFAULT_CACHE_SLOTS: usize = 32;

/// Sparse-mode repair budget divisor: a single-tree repair touching
/// more than `n / REPAIR_BUDGET_DIV` vertices invalidates the slot
/// instead (recomputing one tree from scratch is cheaper than a repair
/// of comparable size, and the budget keeps worst-case mutation cost
/// bounded).
const REPAIR_BUDGET_DIV: usize = 4;

/// Sentinel for an unoccupied cache slot.
const NO_SRC: u32 = u32::MAX;

/// A rejected topology mutation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologyError {
    /// An endpoint is not a node of the graph.
    NodeOutOfRange {
        /// The offending node id.
        node: u32,
        /// Current node count.
        num_nodes: u32,
    },
    /// Edge endpoints are equal.
    SelfLoop,
    /// Weight is not positive and finite.
    BadWeight,
    /// An edge mutation touched a node that is currently down.
    NodeDown {
        /// The down node.
        node: u32,
    },
}

impl std::fmt::Display for TopologyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            TopologyError::NodeOutOfRange { node, num_nodes } => {
                write!(f, "node {node} out of range (graph has {num_nodes})")
            }
            TopologyError::SelfLoop => write!(f, "self loops are not allowed"),
            TopologyError::BadWeight => write!(f, "edge weight must be positive and finite"),
            TopologyError::NodeDown { node } => write!(f, "node {node} is down"),
        }
    }
}

impl std::error::Error for TopologyError {}

/// Outcome of a validated edge-weight mutation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum EdgeUpdate {
    /// The weight was already bitwise-equal: nothing changed.
    NoOp,
    /// A new edge was inserted.
    Added,
    /// The weight changed from `old`.
    Changed {
        /// Previous weight.
        old: f64,
    },
}

/// Outcome of a validated node up/down toggle.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum NodeToggle {
    /// The node was already in the requested state.
    NoOp,
    /// The node went down; `removed` lists the incident edges taken
    /// out of the graph (partner, weight).
    Down {
        /// Removed incident edges.
        removed: Vec<(u32, f64)>,
    },
    /// The node came back up; `restored` lists the edges re-inserted
    /// *now* (edges whose partner is still down stay stashed with that
    /// partner and return when it does).
    Up {
        /// Re-inserted incident edges.
        restored: Vec<(u32, f64)>,
    },
}

/// The mutable topology: the live graph plus stashed incident-edge
/// lists for down nodes. Shared by both [`super::PathEngine`] variants
/// so the reference `Rebuild` engine and [`DynApsp`] apply identical
/// mutation semantics (same validation, same adjacency order).
///
/// Invariant: every logical edge lives either in the graph (both
/// endpoints up) or in exactly one down-node stash.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Topo {
    pub(crate) graph: WsGraph,
    /// Down node → incident edges removed when it went down.
    pub(crate) down: BTreeMap<u32, Vec<(u32, f64)>>,
}

impl Topo {
    pub(crate) fn new(graph: WsGraph) -> Topo {
        Topo {
            graph,
            down: BTreeMap::new(),
        }
    }

    fn check_node(&self, x: NodeId) -> Result<(), TopologyError> {
        let n = self.graph.num_nodes();
        if x >= n {
            return Err(TopologyError::NodeOutOfRange {
                node: x as u32,
                num_nodes: n as u32,
            });
        }
        Ok(())
    }

    pub(crate) fn set_edge_weight(
        &mut self,
        a: NodeId,
        b: NodeId,
        weight: f64,
    ) -> Result<EdgeUpdate, TopologyError> {
        self.check_node(a)?;
        self.check_node(b)?;
        if a == b {
            return Err(TopologyError::SelfLoop);
        }
        if !(weight > 0.0 && weight.is_finite()) {
            return Err(TopologyError::BadWeight);
        }
        for x in [a, b] {
            if self.down.contains_key(&(x as u32)) {
                return Err(TopologyError::NodeDown { node: x as u32 });
            }
        }
        let old = self
            .graph
            .edges(a)
            .iter()
            .find(|&&(v, _)| v == b)
            .map(|&(_, w)| w);
        match old {
            Some(o) if o.to_bits() == weight.to_bits() => Ok(EdgeUpdate::NoOp),
            Some(o) => {
                self.graph.set_edge_weight(a, b, weight);
                Ok(EdgeUpdate::Changed { old: o })
            }
            None => {
                self.graph.set_edge_weight(a, b, weight);
                Ok(EdgeUpdate::Added)
            }
        }
    }

    pub(crate) fn set_node_up(&mut self, x: NodeId, up: bool) -> Result<NodeToggle, TopologyError> {
        self.check_node(x)?;
        let xk = x as u32;
        if up {
            let Some(stash) = self.down.remove(&xk) else {
                return Ok(NodeToggle::NoOp);
            };
            let mut restored = Vec::new();
            for (y, w) in stash {
                if let Some(st) = self.down.get_mut(&y) {
                    // The partner is still down: the edge moves to its
                    // stash and returns when *it* comes back up.
                    st.push((xk, w));
                } else {
                    self.graph.add_edge(x, y as usize, w);
                    restored.push((y, w));
                }
            }
            Ok(NodeToggle::Up { restored })
        } else {
            if self.down.contains_key(&xk) {
                return Ok(NodeToggle::NoOp);
            }
            let removed: Vec<(u32, f64)> = self
                .graph
                .edges(x)
                .iter()
                .map(|&(v, w)| (v as u32, w))
                .collect();
            for &(y, _) in &removed {
                self.graph.remove_edge(x, y as usize);
            }
            self.down.insert(xk, removed.clone());
            Ok(NodeToggle::Down { removed })
        }
    }

    pub(crate) fn is_node_up(&self, x: NodeId) -> bool {
        !self.down.contains_key(&(x as u32))
    }
}

/// One source row: distances and `prev` links for a single source, in
/// the same encoding as one row of the flat [`super::Apsp`] tables.
#[derive(Debug, Clone, Default, PartialEq)]
struct Row {
    dist: Vec<f64>,
    prev: Vec<u32>,
}

/// A cached source tree (sparse mode).
#[derive(Debug)]
struct TreeSlot {
    /// Source node, or [`NO_SRC`] when empty.
    src: u32,
    /// Epoch the tree is consistent with; stale ⇒ recompute on use.
    epoch: u64,
    row: Row,
    /// LRU stamp; atomic so lookups can touch it through `&self`.
    last_used: AtomicU64,
}

impl Clone for TreeSlot {
    fn clone(&self) -> TreeSlot {
        TreeSlot {
            src: self.src,
            epoch: self.epoch,
            row: self.row.clone(),
            last_used: AtomicU64::new(self.last_used.load(Ordering::Relaxed)),
        }
    }
}

#[derive(Debug)]
struct TreeCache {
    slots: Vec<TreeSlot>,
    tick: AtomicU64,
}

impl Clone for TreeCache {
    fn clone(&self) -> TreeCache {
        TreeCache {
            slots: self.slots.clone(),
            tick: AtomicU64::new(self.tick.load(Ordering::Relaxed)),
        }
    }
}

#[derive(Debug, Clone)]
enum Tables {
    Dense(Vec<Row>),
    Sparse(TreeCache),
}

/// `core.graph.*` counters (see docs/OBSERVABILITY.md).
#[derive(Debug, Default)]
struct Counters {
    tree_repairs: u64,
    vertices_touched: u64,
    epoch_invalidations: u64,
    cache_misses: u64,
    /// Atomic: bumped on the shared-reference query path.
    cache_hits: AtomicU64,
}

impl Clone for Counters {
    fn clone(&self) -> Counters {
        Counters {
            tree_repairs: self.tree_repairs,
            vertices_touched: self.vertices_touched,
            epoch_invalidations: self.epoch_invalidations,
            cache_misses: self.cache_misses,
            cache_hits: AtomicU64::new(self.cache_hits.load(Ordering::Relaxed)),
        }
    }
}

/// Reusable repair scratch: generation-stamped membership arrays avoid
/// an O(n) clear per repair.
#[derive(Debug, Default)]
struct Scratch {
    heap: std::collections::BinaryHeap<HeapEntry>,
    /// Rebuild region (affected shortest-path subtree).
    region: Vec<u32>,
    region_mark: Vec<u64>,
    /// Vertices whose distance was modified this repair: (node, old).
    touched: Vec<(u32, f64)>,
    touched_mark: Vec<u64>,
    /// `prev`-recompute set.
    aset: Vec<u32>,
    aset_mark: Vec<u64>,
    generation: u64,
}

impl Scratch {
    fn begin(&mut self, n: usize) {
        self.generation += 1;
        if self.region_mark.len() < n {
            self.region_mark.resize(n, 0);
            self.touched_mark.resize(n, 0);
            self.aset_mark.resize(n, 0);
        }
        self.heap.clear();
        self.region.clear();
        self.touched.clear();
        self.aset.clear();
    }
}

/// One topology mutation, normalized for row repair.
#[derive(Debug)]
enum RepairOp {
    /// Weight decrease, edge add, or node-up: relax `edges` and
    /// propagate. `extra` lists endpoints whose incident weights
    /// changed (their `prev` is re-derived even if no distance moved).
    Decrease {
        edges: Vec<(u32, u32, f64)>,
        extra: Vec<u32>,
    },
    /// Weight increase on edge `a`–`b`.
    Increase { a: u32, b: u32 },
    /// Node `x` went down; `removed` are its former incident edges.
    NodeDown {
        x: u32,
        removed: Vec<(u32, f64)>,
        extra: Vec<u32>,
    },
}

/// Per-row repair outcome.
enum RowOutcome {
    /// The mutation provably cannot change this row.
    Clean,
    /// Repaired in place; `usize` = vertices whose distance moved.
    Repaired(usize),
    /// Repair would exceed the budget; the row was possibly left
    /// inconsistent and must be treated as stale.
    Exceeded,
}

/// Query outcome on the shared-reference path ([`DynApsp::query_warm`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WarmQuery {
    /// Answered from a warm table or tree: the distance (`None` if
    /// unreachable), with the path in the caller's buffer.
    Ready(Option<f64>),
    /// Sparse mode: no warm tree for this source. Take the write side
    /// and call [`DynApsp::warm`].
    Cold,
}

/// Dynamic all-pairs shortest paths: bit-identical to a full rebuild,
/// maintained incrementally. See the module docs for the two modes and
/// the exactness argument.
#[derive(Debug)]
pub struct DynApsp {
    topo: Topo,
    epoch: u64,
    tables: Tables,
    counters: Counters,
    scratch: Scratch,
}

impl Clone for DynApsp {
    fn clone(&self) -> DynApsp {
        DynApsp {
            topo: self.topo.clone(),
            epoch: self.epoch,
            tables: self.tables.clone(),
            counters: self.counters.clone(),
            // Transient repair state: a clone starts with empty scratch.
            scratch: Scratch::default(),
        }
    }
}

impl DynApsp {
    /// Builds the engine, picking dense mode for `n ≤`
    /// [`DENSE_MAX_NODES`] and the sparse tree cache otherwise. The
    /// mode is fixed for the engine's lifetime.
    pub fn new(graph: WsGraph) -> DynApsp {
        if graph.num_nodes() <= DENSE_MAX_NODES {
            DynApsp::new_dense(graph)
        } else {
            DynApsp::new_sparse(graph, DEFAULT_CACHE_SLOTS)
        }
    }

    /// Dense mode regardless of size: the exact flat table, repaired
    /// in place on every mutation.
    ///
    /// # Panics
    ///
    /// Panics if the graph is too large for the `prev` encoding.
    pub fn new_dense(graph: WsGraph) -> DynApsp {
        let n = graph.num_nodes();
        assert!(n < NO_PREV as usize, "graph too large for the APSP table");
        let mut rows = Vec::with_capacity(n);
        for src in 0..n {
            let mut row = Row::default();
            graph.dijkstra_into(src, &mut row.dist, &mut row.prev);
            rows.push(row);
        }
        DynApsp {
            topo: Topo::new(graph),
            epoch: 0,
            tables: Tables::Dense(rows),
            counters: Counters::default(),
            scratch: Scratch::default(),
        }
    }

    /// Sparse mode regardless of size: `slots` cached source trees
    /// (at least one), O(slots · n) memory, no O(n²) table.
    pub fn new_sparse(graph: WsGraph, slots: usize) -> DynApsp {
        let slots = slots.max(1);
        let cache = TreeCache {
            slots: (0..slots)
                .map(|_| TreeSlot {
                    src: NO_SRC,
                    epoch: 0,
                    row: Row::default(),
                    last_used: AtomicU64::new(0),
                })
                .collect(),
            tick: AtomicU64::new(0),
        };
        DynApsp {
            topo: Topo::new(graph),
            epoch: 0,
            tables: Tables::Sparse(cache),
            counters: Counters::default(),
            scratch: Scratch::default(),
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.topo.graph.num_nodes()
    }

    /// Mutation epoch: bumped once per applied (state-changing)
    /// mutation. Cached trees stamped with an older epoch are stale.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// True in dense (exact flat table) mode.
    pub fn is_dense(&self) -> bool {
        matches!(self.tables, Tables::Dense(_))
    }

    /// The current live graph (down nodes appear isolated).
    pub fn graph(&self) -> &WsGraph {
        &self.topo.graph
    }

    /// False while `x` is down.
    pub fn is_node_up(&self, x: NodeId) -> bool {
        self.topo.is_node_up(x)
    }

    /// Shared-reference query: walks a warm table row or cached tree
    /// into `out` (zero-alloc with a warm buffer), or reports
    /// [`WarmQuery::Cold`] when sparse mode has no tree for `a` yet.
    pub fn query_warm(
        &self,
        a: NodeId,
        b: NodeId,
        out: &mut Vec<NodeId>,
    ) -> Result<WarmQuery, PathWalkError> {
        let n = self.topo.graph.num_nodes();
        for x in [a, b] {
            if x >= n {
                out.clear();
                return Err(PathWalkError::NodeOutOfRange {
                    node: x as u32,
                    num_nodes: n as u32,
                });
            }
        }
        match &self.tables {
            Tables::Dense(rows) => {
                let row = match rows.get(a) {
                    Some(r) => r,
                    None => {
                        out.clear();
                        return Err(PathWalkError::BrokenPrevChain {
                            from: a as u32,
                            to: b as u32,
                        });
                    }
                };
                walk_prev_row(n, a, b, &row.dist, &row.prev, out).map(WarmQuery::Ready)
            }
            Tables::Sparse(cache) => {
                let slot = cache
                    .slots
                    .iter()
                    .find(|s| s.src == a as u32 && s.epoch == self.epoch);
                match slot {
                    Some(slot) => {
                        let stamp = cache.tick.fetch_add(1, Ordering::Relaxed) + 1;
                        slot.last_used.store(stamp, Ordering::Relaxed);
                        self.counters.cache_hits.fetch_add(1, Ordering::Relaxed);
                        walk_prev_row(n, a, b, &slot.row.dist, &slot.row.prev, out)
                            .map(WarmQuery::Ready)
                    }
                    None => Ok(WarmQuery::Cold),
                }
            }
        }
    }

    /// Ensures a warm tree for `src` (sparse mode; dense tables are
    /// always warm). Evicts empty, then stale, then least-recently
    /// used slots, lowest index on ties — fully deterministic.
    pub fn warm(&mut self, src: NodeId) {
        if src >= self.topo.graph.num_nodes() {
            return;
        }
        let DynApsp {
            topo,
            epoch,
            tables,
            counters,
            ..
        } = self;
        let Tables::Sparse(cache) = tables else {
            return;
        };
        if cache
            .slots
            .iter()
            .any(|s| s.src == src as u32 && s.epoch == *epoch)
        {
            return;
        }
        counters.cache_misses += 1;
        let mut victim = 0usize;
        let mut best = (u8::MAX, u64::MAX);
        for (i, s) in cache.slots.iter().enumerate() {
            let class = if s.src == NO_SRC {
                0
            } else if s.epoch != *epoch {
                1
            } else {
                2
            };
            let key = (class, s.last_used.load(Ordering::Relaxed));
            if key < best {
                best = key;
                victim = i;
            }
        }
        // lint:allow(serve-panic-reach): victim indexes the slot scan above
        let slot = &mut cache.slots[victim];
        topo.graph
            .dijkstra_into(src, &mut slot.row.dist, &mut slot.row.prev);
        slot.src = src as u32;
        slot.epoch = *epoch;
        let stamp = cache.tick.fetch_add(1, Ordering::Relaxed) + 1;
        slot.last_used.store(stamp, Ordering::Relaxed);
    }

    /// Query with on-demand warming: [`DynApsp::query_warm`], warming
    /// the source tree first if needed.
    pub fn query(
        &mut self,
        a: NodeId,
        b: NodeId,
        out: &mut Vec<NodeId>,
    ) -> Result<Option<f64>, PathWalkError> {
        match self.query_warm(a, b, out)? {
            WarmQuery::Ready(r) => Ok(r),
            WarmQuery::Cold => {
                self.warm(a);
                match self.query_warm(a, b, out)? {
                    WarmQuery::Ready(r) => Ok(r),
                    // `warm` always installs a tree for in-range `a`.
                    WarmQuery::Cold => Err(PathWalkError::BrokenPrevChain {
                        from: a as u32,
                        to: b as u32,
                    }),
                }
            }
        }
    }

    /// Convenience distance lookup (allocates a scratch path buffer;
    /// swallows walk errors as `None` — tests and tools only).
    pub fn distance(&mut self, a: NodeId, b: NodeId) -> Option<f64> {
        let mut buf = Vec::new();
        self.query(a, b, &mut buf).ok().flatten()
    }

    /// Sets (or inserts) the weight of edge `a`–`b` and repairs the
    /// tables. `Ok(false)` if the weight was already bitwise-equal (no
    /// epoch bump).
    pub fn set_edge_weight(
        &mut self,
        a: NodeId,
        b: NodeId,
        weight: f64,
    ) -> Result<bool, TopologyError> {
        let upd = self.topo.set_edge_weight(a, b, weight)?;
        let (a, b) = (a as u32, b as u32);
        let op = match upd {
            EdgeUpdate::NoOp => return Ok(false),
            EdgeUpdate::Added => RepairOp::Decrease {
                edges: vec![(a, b, weight)],
                extra: vec![a, b],
            },
            EdgeUpdate::Changed { old } if weight < old => RepairOp::Decrease {
                edges: vec![(a, b, weight)],
                extra: vec![a, b],
            },
            EdgeUpdate::Changed { .. } => RepairOp::Increase { a, b },
        };
        self.apply_op(&op);
        Ok(true)
    }

    /// Takes node `x` down (removing its incident edges) or brings it
    /// back up (restoring them), repairing the tables. `Ok(false)` if
    /// already in the requested state.
    pub fn set_node_up(&mut self, x: NodeId, up: bool) -> Result<bool, TopologyError> {
        let toggle = self.topo.set_node_up(x, up)?;
        let xk = x as u32;
        let op = match toggle {
            NodeToggle::NoOp => return Ok(false),
            NodeToggle::Down { removed } => {
                let extra = std::iter::once(xk)
                    .chain(removed.iter().map(|&(y, _)| y))
                    .collect();
                RepairOp::NodeDown {
                    x: xk,
                    removed,
                    extra,
                }
            }
            NodeToggle::Up { restored } => {
                let extra = std::iter::once(xk)
                    .chain(restored.iter().map(|&(y, _)| y))
                    .collect();
                RepairOp::Decrease {
                    edges: restored.iter().map(|&(y, w)| (xk, y, w)).collect(),
                    extra,
                }
            }
        };
        self.apply_op(&op);
        Ok(true)
    }

    /// Appends a new isolated node. Dense rows grow by one column plus
    /// a trivial new row; sparse trees grow on their next recompute.
    pub fn add_node(&mut self) -> NodeId {
        let id = self.topo.graph.add_node();
        self.epoch += 1;
        let n = self.topo.graph.num_nodes();
        match &mut self.tables {
            Tables::Dense(rows) => {
                for row in rows.iter_mut() {
                    row.dist.push(f64::INFINITY);
                    row.prev.push(NO_PREV);
                }
                let mut dist = vec![f64::INFINITY; n];
                dist[id] = 0.0;
                rows.push(Row {
                    dist,
                    prev: vec![NO_PREV; n],
                });
            }
            Tables::Sparse(cache) => {
                // An isolated node cannot change any existing tree:
                // extend warm rows in place and keep them warm.
                for slot in cache.slots.iter_mut() {
                    if slot.src != NO_SRC && slot.epoch + 1 == self.epoch {
                        slot.row.dist.push(f64::INFINITY);
                        slot.row.prev.push(NO_PREV);
                        slot.epoch = self.epoch;
                    }
                }
            }
        }
        id
    }

    /// Applies one normalized mutation to every maintained row.
    fn apply_op(&mut self, op: &RepairOp) {
        self.epoch += 1;
        let DynApsp {
            topo,
            epoch,
            tables,
            counters,
            scratch,
        } = self;
        let graph = &topo.graph;
        match tables {
            Tables::Dense(rows) => {
                for (src, row) in rows.iter_mut().enumerate() {
                    match repair_row(graph, src, row, op, scratch, usize::MAX) {
                        RowOutcome::Clean => {}
                        RowOutcome::Repaired(t) => {
                            if t > 0 {
                                counters.tree_repairs += 1;
                                counters.vertices_touched += t as u64;
                            }
                        }
                        RowOutcome::Exceeded => {
                            // lint:allow(serve-panic-reach): dense repair runs with an unlimited budget; Exceeded cannot occur
                            unreachable!("dense repair has no budget")
                        }
                    }
                }
            }
            Tables::Sparse(cache) => {
                let budget = (graph.num_nodes() / REPAIR_BUDGET_DIV).max(64);
                for slot in cache.slots.iter_mut() {
                    // Only trees consistent with the pre-mutation graph
                    // can be repaired; stale ones stay stale.
                    if slot.src == NO_SRC || slot.epoch + 1 != *epoch {
                        continue;
                    }
                    match repair_row(graph, slot.src as usize, &mut slot.row, op, scratch, budget) {
                        RowOutcome::Clean => slot.epoch = *epoch,
                        RowOutcome::Repaired(t) => {
                            slot.epoch = *epoch;
                            if t > 0 {
                                counters.tree_repairs += 1;
                                counters.vertices_touched += t as u64;
                            }
                        }
                        RowOutcome::Exceeded => {
                            counters.epoch_invalidations += 1;
                        }
                    }
                }
            }
        }
    }

    /// Exports the `core.graph.*` counters (docs/OBSERVABILITY.md).
    pub fn export_metrics(&self, metrics: &mut desim::MetricSet) {
        let c = &self.counters;
        metrics.set_counter("core.graph.tree_repairs", c.tree_repairs);
        metrics.set_counter("core.graph.vertices_touched", c.vertices_touched);
        metrics.set_counter("core.graph.epoch_invalidations", c.epoch_invalidations);
        metrics.set_counter("core.graph.cache_misses", c.cache_misses);
        metrics.set_counter(
            "core.graph.cache_hits",
            c.cache_hits.load(Ordering::Relaxed),
        );
    }
}

/// Records `v`'s pre-repair distance on first touch.
fn touch(
    touched: &mut Vec<(u32, f64)>,
    touched_mark: &mut [u64],
    generation: u64,
    v: usize,
    old: f64,
) {
    // lint:allow(serve-panic-reach): hot repair kernel; ids validated at the Topo boundary and buffers sized to n
    if touched_mark[v] != generation {
        touched_mark[v] = generation; // lint:allow(serve-panic-reach): hot repair kernel; ids validated at the Topo boundary and buffers sized to n
        touched.push((v as u32, old));
    }
}

/// Seeds the heap from `edges` (relaxing both directions of each) and
/// propagates a restricted Dijkstra. Returns `false` on budget bail
/// (row left partially modified — caller must mark it stale).
fn propagate_decrease(
    graph: &WsGraph,
    row: &mut Row,
    edges: &[(u32, u32, f64)],
    scratch: &mut Scratch,
    budget: usize,
) -> bool {
    let Scratch {
        heap,
        touched,
        touched_mark,
        generation,
        ..
    } = scratch;
    let generation = *generation;
    for &(a, b, w) in edges {
        let (a, b) = (a as usize, b as usize);
        // lint:allow(serve-panic-reach): hot repair kernel; ids validated at the Topo boundary and buffers sized to n
        let da = row.dist[a];
        if da.is_finite() {
            let nd = da + w;
            // lint:allow(serve-panic-reach): hot repair kernel; ids validated at the Topo boundary and buffers sized to n
            if nd < row.dist[b] {
                touch(touched, touched_mark, generation, b, row.dist[b]); // lint:allow(serve-panic-reach): hot repair kernel; ids validated at the Topo boundary and buffers sized to n
                row.dist[b] = nd;
                heap.push(HeapEntry { dist: nd, node: b });
            }
        }
        // lint:allow(serve-panic-reach): hot repair kernel; ids validated at the Topo boundary and buffers sized to n
        let db = row.dist[b];
        if db.is_finite() {
            let nd = db + w;
            // lint:allow(serve-panic-reach): hot repair kernel; ids validated at the Topo boundary and buffers sized to n
            if nd < row.dist[a] {
                touch(touched, touched_mark, generation, a, row.dist[a]); // lint:allow(serve-panic-reach): hot repair kernel; ids validated at the Topo boundary and buffers sized to n
                row.dist[a] = nd;
                heap.push(HeapEntry { dist: nd, node: a });
            }
        }
    }
    while let Some(HeapEntry { dist: d, node: u }) = heap.pop() {
        // lint:allow(serve-panic-reach): hot repair kernel; ids validated at the Topo boundary and buffers sized to n
        if d > row.dist[u] {
            continue; // stale entry
        }
        if touched.len() > budget {
            heap.clear();
            return false;
        }
        for &(v, w) in graph.edges(u) {
            let nd = d + w;
            // lint:allow(serve-panic-reach): hot repair kernel; ids validated at the Topo boundary and buffers sized to n
            if nd < row.dist[v] {
                touch(touched, touched_mark, generation, v, row.dist[v]); // lint:allow(serve-panic-reach): hot repair kernel; ids validated at the Topo boundary and buffers sized to n
                row.dist[v] = nd;
                heap.push(HeapEntry { dist: nd, node: v });
            }
        }
    }
    true
}

/// Collects the shortest-path subtree rooted at `root` (following
/// `prev` child links) into `scratch.region`. `extra_edges` supplies
/// the already-removed incident edges of a down node so its children
/// are still discoverable.
fn collect_subtree(
    graph: &WsGraph,
    extra_edges: Option<(usize, &[(u32, f64)])>,
    row: &Row,
    root: usize,
    scratch: &mut Scratch,
) {
    let Scratch {
        region,
        region_mark,
        generation,
        ..
    } = scratch;
    let generation = *generation;
    region.push(root as u32);
    // lint:allow(serve-panic-reach): hot repair kernel; ids validated at the Topo boundary and buffers sized to n
    region_mark[root] = generation;
    let mut i = 0;
    while i < region.len() {
        // lint:allow(serve-panic-reach): hot repair kernel; ids validated at the Topo boundary and buffers sized to n
        let u = region[i] as usize;
        i += 1;
        for &(v, _) in graph.edges(u) {
            // lint:allow(serve-panic-reach): hot repair kernel; ids validated at the Topo boundary and buffers sized to n
            if row.prev[v] == u as u32 && region_mark[v] != generation {
                region_mark[v] = generation; // lint:allow(serve-panic-reach): hot repair kernel; ids validated at the Topo boundary and buffers sized to n
                region.push(v as u32);
            }
        }
        if let Some((x, extra)) = extra_edges {
            if u == x {
                for &(v, _) in extra {
                    let v = v as usize;
                    // lint:allow(serve-panic-reach): hot repair kernel; ids validated at the Topo boundary and buffers sized to n
                    if row.prev[v] == u as u32 && region_mark[v] != generation {
                        region_mark[v] = generation; // lint:allow(serve-panic-reach): hot repair kernel; ids validated at the Topo boundary and buffers sized to n
                        region.push(v as u32);
                    }
                }
            }
        }
    }
}

/// Invalidates the collected region (saving old distances), seeds each
/// member from its best out-of-region neighbor, and re-settles with a
/// restricted Dijkstra. Out-of-region distances are provably
/// unaffected, so the fixpoint reached is the canonical one.
fn rebuild_region(graph: &WsGraph, row: &mut Row, scratch: &mut Scratch) {
    let Scratch {
        heap,
        region,
        region_mark,
        touched,
        touched_mark,
        generation,
        ..
    } = scratch;
    let generation = *generation;
    for &u in region.iter() {
        let u = u as usize;
        // lint:allow(serve-panic-reach): hot repair kernel; ids validated at the Topo boundary and buffers sized to n
        touch(touched, touched_mark, generation, u, row.dist[u]);
        row.dist[u] = f64::INFINITY; // lint:allow(serve-panic-reach): hot repair kernel; ids validated at the Topo boundary and buffers sized to n
    }
    for &u in region.iter() {
        let u = u as usize;
        let mut best = f64::INFINITY;
        for &(y, w) in graph.edges(u) {
            // lint:allow(serve-panic-reach): hot repair kernel; ids validated at the Topo boundary and buffers sized to n
            if region_mark[y] != generation {
                let dy = row.dist[y]; // lint:allow(serve-panic-reach): hot repair kernel; ids validated at the Topo boundary and buffers sized to n
                if dy.is_finite() {
                    let c = dy + w;
                    if c < best {
                        best = c;
                    }
                }
            }
        }
        // lint:allow(serve-panic-reach): hot repair kernel; ids validated at the Topo boundary and buffers sized to n
        if best < row.dist[u] {
            row.dist[u] = best; // lint:allow(serve-panic-reach): hot repair kernel; ids validated at the Topo boundary and buffers sized to n
            heap.push(HeapEntry {
                dist: best,
                node: u,
            });
        }
    }
    while let Some(HeapEntry { dist: d, node: u }) = heap.pop() {
        // lint:allow(serve-panic-reach): hot repair kernel; ids validated at the Topo boundary and buffers sized to n
        if d > row.dist[u] {
            continue; // stale entry
        }
        for &(v, w) in graph.edges(u) {
            let nd = d + w;
            // lint:allow(serve-panic-reach): hot repair kernel; ids validated at the Topo boundary and buffers sized to n
            if nd < row.dist[v] {
                row.dist[v] = nd; // lint:allow(serve-panic-reach): hot repair kernel; ids validated at the Topo boundary and buffers sized to n
                heap.push(HeapEntry { dist: nd, node: v });
            }
        }
    }
}

/// The canonical predecessor of `t` in the tree of `src`: the argmin
/// by `(dist[y], y)` over neighbors `y` achieving
/// `dist[y] + w(y,t) == dist[t]` — exactly what `dijkstra` assigns
/// (first-popped achiever wins, pops ascend by `(dist, node)`).
fn canonical_prev(graph: &WsGraph, row: &Row, src: usize, t: usize) -> u32 {
    if t == src {
        return NO_PREV;
    }
    // lint:allow(serve-panic-reach): hot repair kernel; ids validated at the Topo boundary and buffers sized to n
    let dt = row.dist[t];
    if !dt.is_finite() {
        return NO_PREV;
    }
    let mut best = NO_PREV;
    let mut best_d = f64::INFINITY;
    for &(y, w) in graph.edges(t) {
        // lint:allow(serve-panic-reach): hot repair kernel; ids validated at the Topo boundary and buffers sized to n
        let dy = row.dist[y];
        // Exact equality is the right test: equal shortest-path sums
        // of identical f64 inputs are bitwise equal, and all sums are
        // strictly positive (no ±0 ambiguity).
        if dy.is_finite() && dy + w == dt {
            let yk = y as u32;
            if best == NO_PREV || dy < best_d || (dy == best_d && yk < best) {
                best = yk;
                best_d = dy;
            }
        }
    }
    best
}

/// Re-derives `prev` for every vertex whose argmin inputs may have
/// changed: vertices whose distance moved, their neighbors, and the
/// endpoints of mutated edges (`extra`).
fn recompute_prevs(
    graph: &WsGraph,
    row: &mut Row,
    src: usize,
    extra: &[u32],
    scratch: &mut Scratch,
) {
    let Scratch {
        touched,
        aset,
        aset_mark,
        generation,
        ..
    } = scratch;
    let generation = *generation;
    fn add(aset: &mut Vec<u32>, aset_mark: &mut [u64], generation: u64, t: u32) {
        let ti = t as usize;
        // lint:allow(serve-panic-reach): hot repair kernel; ids validated at the Topo boundary and buffers sized to n
        if aset_mark[ti] != generation {
            aset_mark[ti] = generation; // lint:allow(serve-panic-reach): hot repair kernel; ids validated at the Topo boundary and buffers sized to n
            aset.push(t);
        }
    }
    for &(u, old) in touched.iter() {
        // lint:allow(serve-panic-reach): hot repair kernel; ids validated at the Topo boundary and buffers sized to n
        if row.dist[u as usize].to_bits() == old.to_bits() {
            continue; // distance unchanged: argmin inputs intact
        }
        add(aset, aset_mark, generation, u);
        for &(y, _) in graph.edges(u as usize) {
            add(aset, aset_mark, generation, y as u32);
        }
    }
    for &t in extra {
        add(aset, aset_mark, generation, t);
    }
    for &t in aset.iter() {
        let t = t as usize;
        let p = canonical_prev(graph, row, src, t);
        // lint:allow(serve-panic-reach): hot repair kernel; ids validated at the Topo boundary and buffers sized to n
        row.prev[t] = p;
    }
}

/// Applies `op` to one source row. `budget` caps the number of
/// distance-modified vertices (sparse mode); dense rows pass
/// `usize::MAX` and always complete.
fn repair_row(
    graph: &WsGraph,
    src: usize,
    row: &mut Row,
    op: &RepairOp,
    scratch: &mut Scratch,
    budget: usize,
) -> RowOutcome {
    let n = graph.num_nodes();
    scratch.begin(n);
    match op {
        RepairOp::Decrease { edges, extra } => {
            if !propagate_decrease(graph, row, edges, scratch, budget) {
                return RowOutcome::Exceeded;
            }
            recompute_prevs(graph, row, src, extra, scratch);
            RowOutcome::Repaired(scratch.touched.len())
        }
        RepairOp::Increase { a, b } => {
            let (ai, bi) = (*a as usize, *b as usize);
            // Only rows whose tree routes through a–b can change; for
            // a non-tree edge a weight increase can neither create a
            // shorter path nor a new equal-cost argmin winner.
            // lint:allow(serve-panic-reach): hot repair kernel; ids validated at the Topo boundary and buffers sized to n
            let root = if row.prev[bi] == *a {
                bi
            // lint:allow(serve-panic-reach): hot repair kernel; ids validated at the Topo boundary and buffers sized to n
            } else if row.prev[ai] == *b {
                ai
            } else {
                return RowOutcome::Clean;
            };
            collect_subtree(graph, None, row, root, scratch);
            if scratch.region.len() > budget {
                return RowOutcome::Exceeded; // nothing modified yet
            }
            rebuild_region(graph, row, scratch);
            recompute_prevs(graph, row, src, &[*a, *b], scratch);
            RowOutcome::Repaired(scratch.touched.len())
        }
        RepairOp::NodeDown { x, removed, extra } => {
            let xi = *x as usize;
            if src == xi {
                // The whole row collapses to the isolated source.
                for d in row.dist.iter_mut() {
                    *d = f64::INFINITY;
                }
                for p in row.prev.iter_mut() {
                    *p = NO_PREV;
                }
                // lint:allow(serve-panic-reach): hot repair kernel; ids validated at the Topo boundary and buffers sized to n
                row.dist[xi] = 0.0;
                return RowOutcome::Repaired(n);
            }
            // lint:allow(serve-panic-reach): hot repair kernel; ids validated at the Topo boundary and buffers sized to n
            if !row.dist[xi].is_finite() {
                return RowOutcome::Clean; // x was unreachable already
            }
            collect_subtree(graph, Some((xi, removed)), row, xi, scratch);
            if scratch.region.len() > budget {
                return RowOutcome::Exceeded;
            }
            rebuild_region(graph, row, scratch);
            recompute_prevs(graph, row, src, extra, scratch);
            RowOutcome::Repaired(scratch.touched.len())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::random_connected_graph;
    use super::*;

    /// Rebuilds from scratch and asserts every maintained cell of
    /// `dyn_apsp` is bitwise identical (dense: all rows; sparse: every
    /// fresh cached tree).
    fn assert_matches_rebuild(d: &DynApsp) {
        let reference = |src: usize| {
            let mut dist = Vec::new();
            let mut prev = Vec::new();
            d.topo.graph.dijkstra_into(src, &mut dist, &mut prev);
            (dist, prev)
        };
        match &d.tables {
            Tables::Dense(rows) => {
                for (src, row) in rows.iter().enumerate() {
                    let (dist, prev) = reference(src);
                    for v in 0..dist.len() {
                        assert_eq!(row.dist[v].to_bits(), dist[v].to_bits(), "dist[{src}][{v}]");
                        assert_eq!(row.prev[v], prev[v], "prev[{src}][{v}]");
                    }
                }
            }
            Tables::Sparse(cache) => {
                for slot in &cache.slots {
                    if slot.src == NO_SRC || slot.epoch != d.epoch {
                        continue;
                    }
                    let src = slot.src as usize;
                    let (dist, prev) = reference(src);
                    for v in 0..dist.len() {
                        assert_eq!(
                            slot.row.dist[v].to_bits(),
                            dist[v].to_bits(),
                            "dist[{src}][{v}]"
                        );
                        assert_eq!(slot.row.prev[v], prev[v], "prev[{src}][{v}]");
                    }
                }
            }
        }
    }

    #[test]
    fn dense_weight_churn_stays_bit_identical() {
        let g = random_connected_graph(24, 30, 42);
        let mut d = DynApsp::new_dense(g);
        let mut rng = desim::SimRng::seed_from(7);
        for _ in 0..120 {
            let a = rng.below(24) as usize;
            let b = rng.below(24) as usize;
            if a == b {
                continue;
            }
            let w = rng.uniform(0.5, 40.0);
            d.set_edge_weight(a, b, w).expect("valid mutation");
            assert_matches_rebuild(&d);
        }
        assert!(d.counters.tree_repairs > 0);
    }

    #[test]
    fn dense_node_flaps_stay_bit_identical() {
        let g = random_connected_graph(20, 24, 3);
        let mut d = DynApsp::new_dense(g);
        let mut rng = desim::SimRng::seed_from(11);
        let mut down: Vec<usize> = Vec::new();
        for _ in 0..80 {
            if !down.is_empty() && rng.below(2) == 0 {
                let x = down.swap_remove(rng.below(down.len() as u64) as usize);
                assert!(d.set_node_up(x, true).expect("valid"));
            } else {
                let x = rng.below(20) as usize;
                if d.set_node_up(x, false).expect("valid") {
                    down.push(x);
                }
            }
            assert_matches_rebuild(&d);
        }
        for &x in &down {
            assert!(!d.is_node_up(x));
        }
    }

    #[test]
    fn sparse_trees_survive_churn_bit_identically() {
        let g = random_connected_graph(60, 80, 9);
        let mut d = DynApsp::new_sparse(g, 8);
        let mut rng = desim::SimRng::seed_from(5);
        let mut buf = Vec::new();
        for _ in 0..100 {
            // Keep a few hot sources warm, then mutate.
            for src in [0usize, 17, 33] {
                let _ = d.query(src, rng.below(60) as usize, &mut buf);
            }
            let a = rng.below(60) as usize;
            let b = rng.below(60) as usize;
            if a == b {
                continue;
            }
            d.set_edge_weight(a, b, rng.uniform(0.5, 40.0))
                .expect("valid");
            assert_matches_rebuild(&d);
        }
        assert!(d.counters.cache_hits.load(Ordering::Relaxed) > 0);
        assert!(d.counters.cache_misses > 0);
    }

    #[test]
    fn disconnect_unreachable_reconnect_cycle() {
        // A line graph: dropping the middle node splits it.
        let mut g = WsGraph::new(5);
        for i in 1..5 {
            g.add_edge(i - 1, i, 2.0);
        }
        let mut d = DynApsp::new_dense(g);
        assert_eq!(d.distance(0, 4), Some(8.0));
        assert!(d.set_node_up(2, false).expect("valid"));
        assert_eq!(d.distance(0, 4), None);
        assert_eq!(d.distance(0, 1), Some(2.0));
        assert_matches_rebuild(&d);
        assert!(d.set_node_up(2, true).expect("valid"));
        assert_eq!(d.distance(0, 4), Some(8.0));
        assert_matches_rebuild(&d);
    }

    #[test]
    fn overlapping_node_downs_restore_cleanly() {
        let g = random_connected_graph(12, 14, 21);
        let reference = g.clone();
        let mut d = DynApsp::new_dense(g);
        // Down x, down neighbor y, up x (edge deferred), up y.
        assert!(d.set_node_up(3, false).expect("valid"));
        assert!(d.set_node_up(4, false).expect("valid"));
        assert_matches_rebuild(&d);
        assert!(d.set_node_up(3, true).expect("valid"));
        assert_matches_rebuild(&d);
        assert!(d.set_node_up(4, true).expect("valid"));
        assert_matches_rebuild(&d);
        // Everything restored: the graph equals the original up to
        // adjacency order; distances must match a fresh rebuild.
        let apsp = reference.precompute_all_pairs();
        for a in 0..12 {
            for b in 0..12 {
                assert_eq!(
                    d.distance(a, b).map(f64::to_bits),
                    apsp.distance(a, b).map(f64::to_bits),
                    "{a}->{b}"
                );
            }
        }
    }

    #[test]
    fn noop_mutations_do_not_bump_the_epoch() {
        let g = random_connected_graph(8, 6, 2);
        let w0 = g.edges(0)[0].1;
        let b0 = g.edges(0)[0].0;
        let mut d = DynApsp::new_dense(g);
        assert!(!d.set_edge_weight(0, b0, w0).expect("valid"));
        assert!(!d.set_node_up(1, true).expect("valid"));
        assert_eq!(d.epoch(), 0);
        assert!(d.set_edge_weight(0, b0, w0 + 1.0).expect("valid"));
        assert_eq!(d.epoch(), 1);
    }

    #[test]
    fn invalid_mutations_are_typed_errors() {
        let g = random_connected_graph(6, 4, 2);
        let mut d = DynApsp::new_dense(g);
        assert_eq!(
            d.set_edge_weight(0, 9, 1.0),
            Err(TopologyError::NodeOutOfRange {
                node: 9,
                num_nodes: 6
            })
        );
        assert_eq!(d.set_edge_weight(2, 2, 1.0), Err(TopologyError::SelfLoop));
        assert_eq!(
            d.set_edge_weight(0, 1, f64::NAN),
            Err(TopologyError::BadWeight)
        );
        assert_eq!(d.set_edge_weight(0, 1, -2.0), Err(TopologyError::BadWeight));
        d.set_node_up(1, false).expect("valid");
        assert_eq!(
            d.set_edge_weight(0, 1, 3.0),
            Err(TopologyError::NodeDown { node: 1 })
        );
        assert_eq!(
            d.set_node_up(6, false),
            Err(TopologyError::NodeOutOfRange {
                node: 6,
                num_nodes: 6
            })
        );
    }

    #[test]
    fn add_node_grows_tables_consistently() {
        let g = random_connected_graph(10, 8, 13);
        let mut d = DynApsp::new_dense(g);
        let id = d.add_node();
        assert_eq!(id, 10);
        assert_eq!(d.num_nodes(), 11);
        assert_eq!(d.distance(0, id), None);
        d.set_edge_weight(0, id, 4.5).expect("valid");
        assert!(d.distance(3, id).is_some());
        assert_matches_rebuild(&d);
    }

    #[test]
    fn sparse_mode_reports_invalidations_under_heavy_mutation() {
        // A tiny budget graph: node-down of a line-center moves half
        // the tree, exceeding n/4 once n is small enough relative to
        // the flap... use a long line so subtrees are huge.
        let mut g = WsGraph::new(400);
        for i in 1..400 {
            g.add_edge(i - 1, i, 1.0);
        }
        let mut d = DynApsp::new_sparse(g, 4);
        let mut buf = Vec::new();
        let _ = d.query(0, 399, &mut buf);
        // Dropping node 200 rebuilds 199 vertices of source 0's tree —
        // more than 400/4 = 100: the slot must be invalidated.
        assert!(d.set_node_up(200, false).expect("valid"));
        assert!(d.counters.epoch_invalidations > 0);
        // The answer is still correct after on-demand recompute.
        assert_eq!(d.distance(0, 399), None);
        assert_eq!(d.distance(0, 150), Some(150.0));
    }

    #[test]
    fn export_metrics_names_match_the_catalog() {
        let g = random_connected_graph(8, 6, 2);
        let mut d = DynApsp::new(g);
        d.set_edge_weight(0, 2, 9.0).expect("valid");
        let mut m = desim::MetricSet::default();
        d.export_metrics(&mut m);
        for name in [
            "core.graph.tree_repairs",
            "core.graph.vertices_touched",
            "core.graph.epoch_invalidations",
            "core.graph.cache_misses",
            "core.graph.cache_hits",
        ] {
            assert!(m.counter_value(name).is_some(), "{name} missing");
        }
    }
}
