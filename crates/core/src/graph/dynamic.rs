//! Shortest paths under topology churn: the [`PathEngine`].
//!
//! The paper computes every pair offline and never touches the tables
//! again (§3). That is O(n²) memory and a full n-source rebuild per
//! topology change — fine for ~20 workstations, fatal for a 100k-cell
//! campus where cells flap and congestion reweights edges continuously.
//! [`PathEngine`] keeps path answers *bit-identical* to a full rebuild
//! while doing only incremental work:
//!
//! - **Dense mode** (`n ≤` [`DENSE_MAX_NODES`]): the exact [`Apsp`]
//!   table the frozen service serves is kept, and every mutation runs a
//!   Ramalingam–Reps-style dynamic SSSP repair per source row, touching
//!   only vertices whose distance actually changes (weight
//!   decreases/edge adds seed a restricted Dijkstra from the changed
//!   edge; increases/node-downs rebuild just the affected shortest-path
//!   subtree).
//! - **Sparse mode** (larger `n`): the O(n²) table is dropped for an
//!   LRU cache of hot per-source shortest-path trees, computed on
//!   demand with the existing Dijkstra and *repaired in place* on
//!   mutation with the same row-repair machinery. A repair that would
//!   touch more than `n / REPAIR_BUDGET_DIV` vertices of one tree
//!   instead leaves the slot stale (an epoch invalidation) to be
//!   recomputed on next use. Memory is O(slots · n); a warm-tree query
//!   is the same zero-alloc `prev`-row walk as the static table.
//! - **Rebuild** ([`PathEngineKind::Rebuild`]): the dense table
//!   recomputed by [`WsGraph::precompute_all_pairs`] after every applied
//!   mutation — the paper's semantics, kept as the differential
//!   reference and as the baseline the `path_churn` bench gates
//!   against. It runs none of the repair code it checks.
//!
//! **Why repairs are bit-identical.** `WsGraph::dijkstra` relaxes with
//! a strict `<` and pops a min-heap ordered by `(dist, node)` via
//! `total_cmp`, so its output is *canonical*: `dist[v]` is the unique
//! least fixpoint of `min over neighbors u of (dist[u] + w(u,v))` in
//! exact f64 arithmetic (equal sums of identical f64 values are bitwise
//! equal, so "the minimum" is a unique bit pattern), and `prev[v]` is
//! the first popped neighbor achieving it: the argmin by key
//! `(dist[u], u)` among the neighbors `u` with `dist[u] + w(u,v) ==
//! dist[v]`. The repairs re-settle exactly the vertices whose distance
//! can change, with the same additions, and settle `prev` in the same
//! relax step by that argmin: a strictly shorter sum takes `v` over,
//! and an equal one replaces `prev[v]` only when its `(dist[u], u)`
//! comes before `(dist[prev[v]], prev[v])`. Keys only fall during a
//! repair, so the kept `prev[v]` is the argmin over every neighbor that
//! offered itself at its final distance, and every achiever of a vertex
//! whose `prev` can move does offer itself:
//!
//! - *Decrease* (weight down, edge or node up): a vertex whose distance
//!   falls is reached only through vertices that fell too or through a
//!   changed edge; one whose distance holds only gains achievers, each a
//!   vertex that fell or a changed edge's endpoint. Fallen vertices offer
//!   themselves to every neighbor when popped, at their final distance,
//!   and the changed edges are offered in both directions when the repair
//!   is seeded, so no other vertex's `prev` can move.
//! - *Increase* or *node down*: only the shortest-path subtree below the
//!   changed edge or node can change, and it is rebuilt. Each of its
//!   vertices is seeded with the argmin over its neighbors outside the
//!   subtree, whose distances are final, and region vertices offer
//!   themselves when popped. A vertex outside the subtree keeps its `prev`,
//!   which lies outside too: it only loses achievers, never that one.
//!
//! So every cell of the table lands on the same bits a scratch rebuild
//! would produce. The differential suites (`graph_churn`,
//! `churn_differential`) pin this, including grids of few distinct
//! weights where equal sums abound.
//!
//! **Rows are repaired on several cores.** Each row's repair reads only
//! the graph and writes only its own row, so dense mode hands blocks of
//! `ROW_BLOCK` rows out to `std::thread::scope` workers, each with its
//! own scratch kept in the engine, and sums their counts afterwards: the
//! table and the counters are bit-identical at any width. Blocks go out
//! on demand, not as fixed shares, because the rows one mutation changes
//! cluster together. Each mutation spawns its workers afresh, at a fixed
//! cost per thread on the mutating thread, so a table gets one thread
//! per `ROWS_PER_THREAD` rows, at most [`desim::par::default_jobs`]
//! (`BIPS_JOBS`, else the machine width), resolved once at construction.
//! Width 1 runs the same loop on the calling thread, with no thread.
//! docs/PERF.md has the measured crossover; widths above 2 are not yet
//! measured.

use std::collections::{BTreeMap, BinaryHeap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

use super::walk::{walk_prev_row, PathWalkError};
use super::{Apsp, HeapEntry, NodeId, WsGraph, NO_PREV};

/// Largest node count for which [`PathEngineKind::Dynamic`] keeps the
/// exact flat O(n²) table (dense mode); larger graphs get the sparse
/// tree cache.
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

/// Rows of a dense table per thread its repairs run on: a table of `n`
/// rows is repaired on `n / ROWS_PER_THREAD` threads, at least one and
/// at most [`desim::par::default_jobs`]. Every mutation spawns its
/// threads afresh, one after another on the mutating thread, so each
/// must bring enough rows to pay for its spawn; docs/PERF.md has the
/// measured crossover and why the bound sits above it.
const ROWS_PER_THREAD: usize = 256;

/// Rows a dense repair worker takes at a time.
const ROW_BLOCK: usize = 16;

/// Engine selection: every kind answers identically; only the
/// maintenance cost differs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathEngineKind {
    /// Full `precompute_all_pairs` rebuild per mutation (reference).
    Rebuild,
    /// Incremental, in its size-chosen mode (dense ≤ [`DENSE_MAX_NODES`]).
    Dynamic,
    /// Incremental, forced dense.
    DynamicDense,
    /// Incremental, forced sparse ([`DEFAULT_CACHE_SLOTS`] slots).
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
enum EdgeUpdate {
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
enum NodeToggle {
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
/// lists for down nodes. Every [`PathEngineKind`] applies mutations
/// through it, so the `Rebuild` reference and the incremental modes
/// share identical mutation semantics (same validation, same
/// adjacency order).
///
/// Invariant: every logical edge lives either in the graph (both
/// endpoints up) or in exactly one down-node stash.
#[derive(Debug, Clone, PartialEq)]
struct Topo {
    graph: WsGraph,
    /// Down node → incident edges removed when it went down.
    down: BTreeMap<u32, Vec<(u32, f64)>>,
}

impl Topo {
    fn new(graph: WsGraph) -> Topo {
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

    fn set_edge_weight(
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

    fn set_node_up(&mut self, x: NodeId, up: bool) -> Result<NodeToggle, TopologyError> {
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

    fn is_node_up(&self, x: NodeId) -> bool {
        !self.down.contains_key(&(x as u32))
    }
}

/// One source row under repair: distances and `prev` links for a single
/// source, in the encoding of one row of the flat [`Apsp`] table —
/// borrowed from that table (dense mode) or from a cached tree.
struct RowMut<'a> {
    dist: &'a mut [f64],
    prev: &'a mut [u32],
}

/// A cached source tree (sparse mode).
#[derive(Debug)]
struct TreeSlot {
    /// Source node, or [`NO_SRC`] when empty.
    src: u32,
    /// Epoch the tree is consistent with; stale ⇒ recompute on use.
    epoch: u64,
    dist: Vec<f64>,
    prev: Vec<u32>,
    /// LRU stamp; atomic so lookups can touch it through `&self`.
    last_used: AtomicU64,
}

impl Clone for TreeSlot {
    fn clone(&self) -> TreeSlot {
        TreeSlot {
            src: self.src,
            epoch: self.epoch,
            dist: self.dist.clone(),
            prev: self.prev.clone(),
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
    /// The exact all-pairs table: repaired in place per mutation, or
    /// recomputed from scratch when `rebuild`.
    Dense {
        table: Apsp,
        rebuild: bool,
    },
    Sparse(TreeCache),
}

/// Row repairs done and the vertices they touched: the
/// `core.graph.tree_repairs` and `core.graph.vertices_touched` counts.
#[derive(Debug, Clone, Copy, Default)]
struct Tally {
    tree_repairs: u64,
    vertices_touched: u64,
}

impl Tally {
    /// Counts one completed row repair that touched `touched` vertices.
    fn repaired(&mut self, touched: usize) {
        if touched > 0 {
            self.tree_repairs += 1;
            self.vertices_touched += touched as u64;
        }
    }

    /// Adds `other`'s counts to these.
    fn add(&mut self, other: Tally) {
        self.tree_repairs += other.tree_repairs;
        self.vertices_touched += other.vertices_touched;
    }
}

/// `core.graph.*` counters (see docs/OBSERVABILITY.md).
#[derive(Debug, Default)]
struct Counters {
    repairs: Tally,
    epoch_invalidations: u64,
    cache_misses: u64,
    /// Atomic: bumped on the shared-reference query path.
    cache_hits: AtomicU64,
}

impl Clone for Counters {
    fn clone(&self) -> Counters {
        Counters {
            repairs: self.repairs,
            epoch_invalidations: self.epoch_invalidations,
            cache_misses: self.cache_misses,
            cache_hits: AtomicU64::new(self.cache_hits.load(Ordering::Relaxed)),
        }
    }
}

/// Reusable repair scratch, one per repair worker: generation-stamped
/// membership arrays avoid an O(n) clear per repair.
#[derive(Debug, Default)]
struct Scratch {
    heap: BinaryHeap<HeapEntry>,
    /// Rebuild region (affected shortest-path subtree).
    region: Vec<u32>,
    region_mark: Vec<u64>,
    /// Vertices whose distance fell this repair, each counted once.
    touched: usize,
    touched_mark: Vec<u64>,
    generation: u64,
    /// This worker's dense row repairs in the current mutation.
    tally: Tally,
}

impl Scratch {
    fn begin(&mut self, n: usize) {
        self.generation += 1;
        if self.region_mark.len() < n {
            self.region_mark.resize(n, 0);
            self.touched_mark.resize(n, 0);
        }
        self.heap.clear();
        self.region.clear();
        self.touched = 0;
    }

    /// Queues `v`, just lowered to `dist`, counting it touched on its
    /// first lowering this repair.
    fn lowered(&mut self, v: usize, dist: f64) {
        // lint:allow(serve-panic-reach): hot repair kernel; ids validated at the Topo boundary and buffers sized to n
        if self.touched_mark[v] != self.generation {
            self.touched_mark[v] = self.generation; // lint:allow(serve-panic-reach): hot repair kernel; ids validated at the Topo boundary and buffers sized to n
            self.touched += 1;
        }
        self.heap.push(HeapEntry { dist, node: v });
    }
}

/// One topology mutation, normalized for row repair. It borrows the
/// mutation's edges, so building it allocates nothing.
#[derive(Debug)]
enum RepairOp<'a> {
    /// Weight decrease, edge add, or node-up: relax `edges`, all
    /// incident to `x` (partner, weight), and propagate.
    Decrease { x: u32, edges: &'a [(u32, f64)] },
    /// Weight increase on edge `a`–`b`.
    Increase { a: u32, b: u32 },
    /// Node `x` went down; `removed` are its former incident edges.
    NodeDown { x: u32, removed: &'a [(u32, f64)] },
}

/// Per-row repair outcome.
enum RowOutcome {
    /// The mutation provably cannot change this row.
    Clean,
    /// Repaired in place; `usize` = vertices touched (lowered, or in
    /// the rebuilt region).
    Repaired(usize),
    /// Repair would exceed the budget; the row was possibly left
    /// inconsistent and must be treated as stale.
    Exceeded,
}

/// Query outcome on the shared-reference path ([`PathEngine::query_warm`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WarmQuery {
    /// Answered from a warm table or tree: the distance (`None` if
    /// unreachable), with the path in the caller's buffer.
    Ready(Option<f64>),
    /// Sparse mode: no warm tree for this source. Take the write side
    /// and call [`PathEngine::warm`].
    Cold,
}

/// Dynamic all-pairs shortest paths: bit-identical to a full rebuild,
/// maintained incrementally (or, for [`PathEngineKind::Rebuild`],
/// rebuilt). See the module docs for the modes and the exactness
/// argument.
#[derive(Debug)]
pub struct PathEngine {
    topo: Topo,
    epoch: u64,
    tables: Tables,
    counters: Counters,
    /// The calling thread's repair scratch.
    scratch: Scratch,
    /// One scratch per further thread a dense repair runs on; empty
    /// when it runs on the calling thread alone.
    workers: Vec<Scratch>,
}

impl Clone for PathEngine {
    fn clone(&self) -> PathEngine {
        PathEngine {
            topo: self.topo.clone(),
            epoch: self.epoch,
            tables: self.tables.clone(),
            counters: self.counters.clone(),
            // Transient repair state: a clone starts with empty scratch.
            scratch: Scratch::default(),
            workers: self.workers.iter().map(|_| Scratch::default()).collect(),
        }
    }
}

impl PathEngine {
    /// Builds the engine `kind` over `graph`. [`PathEngineKind::Dynamic`]
    /// picks dense mode for `n ≤` [`DENSE_MAX_NODES`] and the sparse
    /// tree cache otherwise. The mode is fixed for the engine's
    /// lifetime, and so is the number of threads a dense table is
    /// repaired on: one per `ROWS_PER_THREAD` rows, at most
    /// [`desim::par::default_jobs`] (see the module docs).
    ///
    /// # Panics
    ///
    /// Panics if a dense table is asked of a graph too large for the
    /// `prev` encoding.
    pub fn new(kind: PathEngineKind, graph: WsGraph) -> PathEngine {
        let shares = graph.num_nodes() / ROWS_PER_THREAD;
        let width = if shares > 1 {
            desim::par::default_jobs().min(shares)
        } else {
            1
        };
        PathEngine::with_width(kind, graph, width)
    }

    /// [`PathEngine::new`] with a dense table's repairs spread over
    /// `width` threads (at least one), whatever its size.
    pub(crate) fn with_width(kind: PathEngineKind, graph: WsGraph, width: usize) -> PathEngine {
        let rebuild = match kind {
            PathEngineKind::Rebuild => true,
            PathEngineKind::DynamicDense => false,
            PathEngineKind::Dynamic if graph.num_nodes() <= DENSE_MAX_NODES => false,
            PathEngineKind::Dynamic | PathEngineKind::DynamicSparse => {
                return PathEngine::new_sparse(graph, DEFAULT_CACHE_SLOTS);
            }
        };
        let table = graph.precompute_all_pairs();
        let mut engine = PathEngine::with_tables(graph, Tables::Dense { table, rebuild });
        if !rebuild {
            engine.workers = (1..width).map(|_| Scratch::default()).collect();
        }
        engine
    }

    /// Sparse mode regardless of size: `slots` cached source trees
    /// (at least one), O(slots · n) memory, no O(n²) table.
    pub fn new_sparse(graph: WsGraph, slots: usize) -> PathEngine {
        let slots = slots.max(1);
        let cache = TreeCache {
            slots: (0..slots)
                .map(|_| TreeSlot {
                    src: NO_SRC,
                    epoch: 0,
                    dist: Vec::new(),
                    prev: Vec::new(),
                    last_used: AtomicU64::new(0),
                })
                .collect(),
            tick: AtomicU64::new(0),
        };
        PathEngine::with_tables(graph, Tables::Sparse(cache))
    }

    fn with_tables(graph: WsGraph, tables: Tables) -> PathEngine {
        PathEngine {
            topo: Topo::new(graph),
            epoch: 0,
            tables,
            counters: Counters::default(),
            scratch: Scratch::default(),
            workers: Vec::new(),
        }
    }

    /// The engine's name in reports and test messages: `rebuild`,
    /// `dyn-dense` or `dyn-sparse` (a [`PathEngineKind::Dynamic`]
    /// engine reports the mode it chose).
    pub fn name(&self) -> &'static str {
        let kind = match self.tables {
            Tables::Dense { rebuild: true, .. } => PathEngineKind::Rebuild,
            Tables::Dense { rebuild: false, .. } => PathEngineKind::DynamicDense,
            Tables::Sparse(_) => PathEngineKind::DynamicSparse,
        };
        kind.name()
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

    /// The current live graph (down nodes appear isolated).
    pub fn graph(&self) -> &WsGraph {
        &self.topo.graph
    }

    /// False while `x` is down.
    pub fn is_node_up(&self, x: NodeId) -> bool {
        self.topo.is_node_up(x)
    }

    /// Shared-reference query: walks the dense table's row or a cached
    /// tree into `out` (zero-alloc with a warm buffer), or reports
    /// [`WarmQuery::Cold`] when sparse mode has no tree for `a` yet.
    pub fn query_warm(
        &self,
        a: NodeId,
        b: NodeId,
        out: &mut Vec<NodeId>,
    ) -> Result<WarmQuery, PathWalkError> {
        let cache = match &self.tables {
            Tables::Dense { table, .. } => {
                return table.try_path_into(a, b, out).map(WarmQuery::Ready);
            }
            Tables::Sparse(cache) => cache,
        };
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
        let slot = cache
            .slots
            .iter()
            .find(|s| s.src == a as u32 && s.epoch == self.epoch);
        match slot {
            Some(slot) => {
                let stamp = cache.tick.fetch_add(1, Ordering::Relaxed) + 1;
                slot.last_used.store(stamp, Ordering::Relaxed);
                self.counters.cache_hits.fetch_add(1, Ordering::Relaxed);
                walk_prev_row(n, a, b, &slot.dist, &slot.prev, out).map(WarmQuery::Ready)
            }
            None => Ok(WarmQuery::Cold),
        }
    }

    /// Ensures a warm tree for `src` (sparse mode; dense tables are
    /// always warm). Evicts empty, then stale, then least-recently
    /// used slots, lowest index on ties — fully deterministic.
    pub fn warm(&mut self, src: NodeId) {
        if src >= self.topo.graph.num_nodes() {
            return;
        }
        let PathEngine {
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
            .dijkstra_into(src, &mut slot.dist, &mut slot.prev);
        slot.src = src as u32;
        slot.epoch = *epoch;
        let stamp = cache.tick.fetch_add(1, Ordering::Relaxed) + 1;
        slot.last_used.store(stamp, Ordering::Relaxed);
    }

    /// Query with on-demand warming: [`PathEngine::query_warm`], warming
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
        let edge = [(b, weight)];
        let op = match upd {
            EdgeUpdate::NoOp => return Ok(false),
            EdgeUpdate::Added => RepairOp::Decrease { x: a, edges: &edge },
            EdgeUpdate::Changed { old } if weight < old => {
                RepairOp::Decrease { x: a, edges: &edge }
            }
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
        let x = x as u32;
        let op = match &toggle {
            NodeToggle::NoOp => return Ok(false),
            NodeToggle::Down { removed } => RepairOp::NodeDown { x, removed },
            NodeToggle::Up { restored } => RepairOp::Decrease { x, edges: restored },
        };
        self.apply_op(&op);
        Ok(true)
    }

    /// Applies one normalized mutation to every maintained row (or,
    /// for the rebuild reference, recomputes the table).
    fn apply_op(&mut self, op: &RepairOp<'_>) {
        self.epoch += 1;
        let PathEngine {
            topo,
            epoch,
            tables,
            counters,
            scratch,
            workers,
        } = self;
        let graph = &topo.graph;
        match tables {
            Tables::Dense {
                table,
                rebuild: true,
            } => *table = graph.precompute_all_pairs(),
            Tables::Dense {
                table,
                rebuild: false,
            } => {
                repair_dense(graph, table, op, scratch, workers);
                for s in std::iter::once(scratch).chain(workers.iter_mut()) {
                    counters.repairs.add(std::mem::take(&mut s.tally));
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
                    let row = &mut RowMut {
                        dist: &mut slot.dist,
                        prev: &mut slot.prev,
                    };
                    match repair_row(graph, slot.src as usize, row, op, scratch, budget) {
                        RowOutcome::Clean => slot.epoch = *epoch,
                        RowOutcome::Repaired(t) => {
                            slot.epoch = *epoch;
                            counters.repairs.repaired(t);
                        }
                        RowOutcome::Exceeded => {
                            counters.epoch_invalidations += 1;
                        }
                    }
                }
            }
        }
    }

    /// Exports the `core.graph.*` counters (docs/OBSERVABILITY.md). The
    /// rebuild reference keeps no incremental state and reports zeros.
    pub fn export_metrics(&self, metrics: &mut desim::MetricSet) {
        let c = &self.counters;
        metrics.set_counter("core.graph.tree_repairs", c.repairs.tree_repairs);
        metrics.set_counter("core.graph.vertices_touched", c.repairs.vertices_touched);
        metrics.set_counter("core.graph.epoch_invalidations", c.epoch_invalidations);
        metrics.set_counter("core.graph.cache_misses", c.cache_misses);
        metrics.set_counter(
            "core.graph.cache_hits",
            c.cache_hits.load(Ordering::Relaxed),
        );
    }
}

/// Repairs every row of a dense table for `op`: the calling thread with
/// `scratch` and one scoped thread per `workers` entry take blocks of
/// [`ROW_BLOCK`] rows off one shared iterator until none are left, each
/// adding its row repairs to its own scratch's tally. With no workers
/// the same loop runs on the calling thread alone.
fn repair_dense(
    graph: &WsGraph,
    table: &mut Apsp,
    op: &RepairOp<'_>,
    scratch: &mut Scratch,
    workers: &mut [Scratch],
) {
    let n = graph.num_nodes();
    let blocks = Mutex::new(table.row_blocks_mut(ROW_BLOCK).enumerate());
    let work = |scratch: &mut Scratch| loop {
        // Held only to take the next block, which cannot panic, so a
        // poisoned lock still guards a valid iterator.
        // lint:allow(serve-lock-reach): mutation-side only; repair workers hold it for one `next()`, never across a repair
        let next = blocks.lock().unwrap_or_else(PoisonError::into_inner).next();
        let Some((block, (dist, prev))) = next else {
            return;
        };
        for (i, (dist, prev)) in dist.chunks_mut(n).zip(prev.chunks_mut(n)).enumerate() {
            let row = &mut RowMut { dist, prev };
            match repair_row(graph, block * ROW_BLOCK + i, row, op, scratch, usize::MAX) {
                RowOutcome::Clean => {}
                RowOutcome::Repaired(t) => scratch.tally.repaired(t),
                RowOutcome::Exceeded => {
                    // lint:allow(serve-panic-reach): dense repair runs with an unlimited budget; Exceeded cannot occur
                    unreachable!("dense repair has no budget")
                }
            }
        }
    };
    if workers.is_empty() {
        return work(scratch);
    }
    let work = &work;
    std::thread::scope(|s| {
        for w in workers.iter_mut() {
            // A worker that cannot start leaves its blocks to the rest.
            let _ = std::thread::Builder::new().spawn_scoped(s, move || work(w));
        }
        work(scratch);
    });
}

/// Offers `u`, settled at `du`, as `v`'s predecessor over an edge of
/// weight `w`: a strictly shorter sum takes `v` over, an equal one
/// replaces `prev[v]` only when `(du, u)` comes before
/// `(dist[prev[v]], prev[v])` — the first-popped achiever `dijkstra`
/// keeps. Returns `v`'s new distance if it fell.
#[inline]
fn relax(row: &mut RowMut<'_>, u: usize, du: f64, v: usize, w: f64) -> Option<f64> {
    let nd = du + w;
    // lint:allow(serve-panic-reach): hot repair kernel; ids validated at the Topo boundary and buffers sized to n
    let dv = row.dist[v];
    if nd < dv {
        row.dist[v] = nd; // lint:allow(serve-panic-reach): hot repair kernel; ids validated at the Topo boundary and buffers sized to n
        row.prev[v] = u as u32;
        return Some(nd);
    }
    // Exact equality is the right test: equal shortest-path sums of
    // identical f64 inputs are bitwise equal, and all sums are strictly
    // positive, so `v` is reached and not the source: `prev[v]` is a node.
    if nd == dv {
        // lint:allow(serve-panic-reach): hot repair kernel; ids validated at the Topo boundary and buffers sized to n
        let p = row.prev[v] as usize;
        if let Some(&dp) = row.dist.get(p) {
            if du < dp || (du == dp && u < p) {
                row.prev[v] = u as u32; // lint:allow(serve-panic-reach): hot repair kernel; ids validated at the Topo boundary and buffers sized to n
            }
        }
    }
    None
}

/// Seeds the heap from `edges` (each incident to `x`, relaxed in both
/// directions) and propagates a restricted Dijkstra. Returns `false` on
/// budget bail (row left partially modified — caller must mark it
/// stale).
fn propagate_decrease(
    graph: &WsGraph,
    row: &mut RowMut<'_>,
    x: usize,
    edges: &[(u32, f64)],
    scratch: &mut Scratch,
    budget: usize,
) -> bool {
    for &(y, w) in edges {
        let y = y as usize;
        for (u, v) in [(x, y), (y, x)] {
            // lint:allow(serve-panic-reach): hot repair kernel; ids validated at the Topo boundary and buffers sized to n
            let du = row.dist[u];
            if du.is_finite() {
                if let Some(dv) = relax(row, u, du, v, w) {
                    scratch.lowered(v, dv);
                }
            }
        }
    }
    while let Some(HeapEntry { dist: d, node: u }) = scratch.heap.pop() {
        // lint:allow(serve-panic-reach): hot repair kernel; ids validated at the Topo boundary and buffers sized to n
        if d > row.dist[u] {
            continue; // stale entry
        }
        if scratch.touched > budget {
            scratch.heap.clear();
            return false;
        }
        for &(v, w) in graph.edges(u) {
            if let Some(dv) = relax(row, u, d, v, w) {
                scratch.lowered(v, dv);
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
    row: &RowMut<'_>,
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

/// Invalidates the collected region, seeds each member with the best
/// offer of its out-of-region neighbors, and re-settles with a
/// restricted Dijkstra. Out-of-region distances are provably
/// unaffected, so the fixpoint reached is the canonical one.
fn rebuild_region(graph: &WsGraph, row: &mut RowMut<'_>, scratch: &mut Scratch) {
    let Scratch {
        heap,
        region,
        region_mark,
        generation,
        ..
    } = scratch;
    let generation = *generation;
    for &u in region.iter() {
        let u = u as usize;
        // lint:allow(serve-panic-reach): hot repair kernel; ids validated at the Topo boundary and buffers sized to n
        row.dist[u] = f64::INFINITY;
        row.prev[u] = NO_PREV; // lint:allow(serve-panic-reach): hot repair kernel; ids validated at the Topo boundary and buffers sized to n
    }
    for &u in region.iter() {
        let u = u as usize;
        for &(y, w) in graph.edges(u) {
            // lint:allow(serve-panic-reach): hot repair kernel; ids validated at the Topo boundary and buffers sized to n
            let dy = row.dist[y];
            // lint:allow(serve-panic-reach): hot repair kernel; ids validated at the Topo boundary and buffers sized to n
            if region_mark[y] != generation && dy.is_finite() {
                relax(row, y, dy, u, w);
            }
        }
        // lint:allow(serve-panic-reach): hot repair kernel; ids validated at the Topo boundary and buffers sized to n
        let du = row.dist[u];
        if du.is_finite() {
            heap.push(HeapEntry { dist: du, node: u });
        }
    }
    while let Some(HeapEntry { dist: d, node: u }) = heap.pop() {
        // lint:allow(serve-panic-reach): hot repair kernel; ids validated at the Topo boundary and buffers sized to n
        if d > row.dist[u] {
            continue; // stale entry
        }
        for &(v, w) in graph.edges(u) {
            if let Some(dv) = relax(row, u, d, v, w) {
                heap.push(HeapEntry { dist: dv, node: v });
            }
        }
    }
}

/// Applies `op` to one source row. `budget` caps the number of
/// touched vertices (sparse mode); dense rows pass `usize::MAX` and
/// always complete.
fn repair_row(
    graph: &WsGraph,
    src: usize,
    row: &mut RowMut<'_>,
    op: &RepairOp<'_>,
    scratch: &mut Scratch,
    budget: usize,
) -> RowOutcome {
    let n = graph.num_nodes();
    scratch.begin(n);
    match *op {
        RepairOp::Decrease { x, edges } => {
            if !propagate_decrease(graph, row, x as usize, edges, scratch, budget) {
                return RowOutcome::Exceeded;
            }
            RowOutcome::Repaired(scratch.touched)
        }
        RepairOp::Increase { a, b } => {
            let (ai, bi) = (a as usize, b as usize);
            // Only rows whose tree routes through a–b can change; for
            // a non-tree edge a weight increase can neither create a
            // shorter path nor a new equal-cost argmin winner.
            // lint:allow(serve-panic-reach): hot repair kernel; ids validated at the Topo boundary and buffers sized to n
            let root = if row.prev[bi] == a {
                bi
            // lint:allow(serve-panic-reach): hot repair kernel; ids validated at the Topo boundary and buffers sized to n
            } else if row.prev[ai] == b {
                ai
            } else {
                return RowOutcome::Clean;
            };
            collect_subtree(graph, None, row, root, scratch);
            if scratch.region.len() > budget {
                return RowOutcome::Exceeded; // nothing modified yet
            }
            rebuild_region(graph, row, scratch);
            RowOutcome::Repaired(scratch.region.len())
        }
        RepairOp::NodeDown { x, removed } => {
            let xi = x as usize;
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
            RowOutcome::Repaired(scratch.region.len())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::random_connected_graph;
    use super::*;

    /// Rebuilds from scratch and asserts every maintained cell of `d`
    /// is bitwise identical (dense: all rows; sparse: every fresh
    /// cached tree).
    fn assert_matches_rebuild(d: &PathEngine) {
        let check = |src: usize, dist: &[f64], prev: &[u32]| {
            let (mut want_dist, mut want_prev) = (Vec::new(), Vec::new());
            d.topo
                .graph
                .dijkstra_into(src, &mut want_dist, &mut want_prev);
            for v in 0..want_dist.len() {
                assert_eq!(
                    dist[v].to_bits(),
                    want_dist[v].to_bits(),
                    "dist[{src}][{v}]"
                );
                assert_eq!(prev[v], want_prev[v], "prev[{src}][{v}]");
            }
        };
        match &d.tables {
            Tables::Dense { table, .. } => {
                let n = table.n;
                for src in 0..n {
                    let row = src * n..(src + 1) * n;
                    check(src, &table.dist[row.clone()], &table.prev[row]);
                }
            }
            Tables::Sparse(cache) => {
                for slot in &cache.slots {
                    if slot.src != NO_SRC && slot.epoch == d.epoch {
                        check(slot.src as usize, &slot.dist, &slot.prev);
                    }
                }
            }
        }
    }

    #[test]
    fn dense_weight_churn_stays_bit_identical() {
        let g = random_connected_graph(24, 30, 42);
        let mut d = PathEngine::new(PathEngineKind::DynamicDense, g);
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
        assert!(d.counters.repairs.tree_repairs > 0);
    }

    /// Dense repairs spread over 1, 2 and 3 threads, whatever the
    /// table's size, leave every row and both repair counters
    /// identical: on a grid weighted from a few values, where equal-sum
    /// routes abound, under reweights, chords and node flaps.
    #[test]
    fn dense_repairs_are_identical_at_every_width() {
        const SIDE: usize = 7; // 49 rows: four row blocks
        const N: usize = SIDE * SIDE;
        const WEIGHTS: [f64; 5] = [0.5, 1.0, 2.0, 3.0, 10.0];
        let mut g = WsGraph::new(N);
        for v in 0..N {
            if v % SIDE + 1 < SIDE {
                g.add_edge(v, v + 1, 10.0);
            }
            if v + SIDE < N {
                g.add_edge(v, v + SIDE, 10.0);
            }
        }
        let mut engines: Vec<PathEngine> = [1, 2, 3]
            .into_iter()
            .map(|width| PathEngine::with_width(PathEngineKind::DynamicDense, g.clone(), width))
            .collect();
        let threads: Vec<usize> = engines.iter().map(|e| e.workers.len() + 1).collect();
        assert_eq!(threads, [1, 2, 3]);
        let mut rng = desim::SimRng::seed_from(33);
        for step in 0..300 {
            let a = rng.below(N as u64) as usize;
            let outcomes: Vec<_> = if step % 8 == 0 {
                let up = rng.below(2) == 0;
                engines.iter_mut().map(|e| e.set_node_up(a, up)).collect()
            } else {
                let b = match rng.below(4) {
                    0 => rng.below(N as u64) as usize, // a chord
                    _ if a + SIDE < N => a + SIDE,
                    _ => a - SIDE,
                };
                let w = WEIGHTS[rng.below(WEIGHTS.len() as u64) as usize];
                engines
                    .iter_mut()
                    .map(|e| e.set_edge_weight(a, b, w))
                    .collect()
            };
            assert!(outcomes.windows(2).all(|o| o[0] == o[1]), "{outcomes:?}");
            let Tables::Dense { table: want, .. } = &engines[0].tables else {
                unreachable!("dense engine");
            };
            for e in &engines[1..] {
                let Tables::Dense { table, .. } = &e.tables else {
                    unreachable!("dense engine");
                };
                let bits = |t: &Apsp| t.dist.iter().map(|d| d.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(table), bits(want), "step {step}: dist");
                assert_eq!(table.prev, want.prev, "step {step}: prev");
                let counts = |e: &PathEngine| {
                    let r = e.counters.repairs;
                    (r.tree_repairs, r.vertices_touched)
                };
                assert_eq!(counts(e), counts(&engines[0]), "step {step}: counters");
            }
        }
        assert_matches_rebuild(&engines[2]);
        assert!(engines[0].counters.repairs.tree_repairs > 0);
    }

    #[test]
    fn dense_node_flaps_stay_bit_identical() {
        let g = random_connected_graph(20, 24, 3);
        let mut d = PathEngine::new(PathEngineKind::DynamicDense, g);
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
        let mut d = PathEngine::new_sparse(g, 8);
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
        let mut d = PathEngine::new(PathEngineKind::DynamicDense, g);
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
        let mut d = PathEngine::new(PathEngineKind::DynamicDense, g);
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
        let mut d = PathEngine::new(PathEngineKind::DynamicDense, g);
        assert!(!d.set_edge_weight(0, b0, w0).expect("valid"));
        assert!(!d.set_node_up(1, true).expect("valid"));
        assert_eq!(d.epoch(), 0);
        assert!(d.set_edge_weight(0, b0, w0 + 1.0).expect("valid"));
        assert_eq!(d.epoch(), 1);
    }

    #[test]
    fn invalid_mutations_are_typed_errors() {
        let g = random_connected_graph(6, 4, 2);
        let mut d = PathEngine::new(PathEngineKind::DynamicDense, g);
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
    fn sparse_mode_reports_invalidations_under_heavy_mutation() {
        // A tiny budget graph: node-down of a line-center moves half
        // the tree, exceeding n/4 once n is small enough relative to
        // the flap... use a long line so subtrees are huge.
        let mut g = WsGraph::new(400);
        for i in 1..400 {
            g.add_edge(i - 1, i, 1.0);
        }
        let mut d = PathEngine::new_sparse(g, 4);
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
        let mut d = PathEngine::new(PathEngineKind::Dynamic, g);
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
