//! `path_churn`: topology writes beside reads. Each tick applies seeded
//! corridor reweights and workstation flaps through `serve_payload`,
//! then a tick of moves and queries, on an engine built with
//! `ShardedService::new_dynamic` over a dense `PathEngineKind::Dynamic`
//! table. Answers are checked against the benchmark's own model of the
//! topology; a sampled query per tick is also checked for optimality
//! against a from-scratch Dijkstra on that model.

use std::time::Instant;

use bips_core::graph::WsGraph;
use bips_core::protocol::{Request, Response};
use bips_core::service::WhereIs;
use desim::{MetricSet, SeedDeriver, SimRng};

use crate::alloc;
use crate::inputs::{self, Shape, CHECKSUM_INIT};
use crate::measure::{nanos, repeat_setup, Budget, Latency, Overhead, Windows};
use crate::serve::{build_service, ingest_initial, service_counters, where_kind};
use crate::spans::{Spans, ROOT};
use crate::Outcome;

/// Ticks the fingerprint covers; every run gets this far.
const FINGERPRINT_TICKS: usize = 200;

/// The churn workload's size.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Population, building and per-tick mix.
    pub shape: Shape,
    /// Topology mutations per tick.
    pub mutations_per_tick: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Input seed.
    pub seed: u64,
}

impl Config {
    /// 100k users on a 32×32 grid (1024 cells, the dense side of
    /// `DENSE_MAX_NODES`), 10 mutations, 64 moves and 256 queries per
    /// tick; nine set-ups of about a tenth of a second.
    pub fn full(seed: u64) -> Config {
        Config {
            shape: Shape {
                users: 100_000,
                side: 32,
                moves_per_tick: 64,
                queries_per_tick: 256,
                ticks: 500,
                pool: 1024,
                shards: 16,
            },
            mutations_per_tick: 10,
            setups: 9,
            seed,
        }
    }

    /// A seconds-scale size for the tests.
    #[cfg(test)]
    pub fn tiny(seed: u64) -> Config {
        Config {
            shape: Shape {
                users: 1024,
                side: 6,
                moves_per_tick: 8,
                queries_per_tick: 32,
                ticks: 40,
                pool: 64,
                shards: 4,
            },
            mutations_per_tick: 4,
            setups: 2,
            seed,
        }
    }
}

/// The benchmark's own model of the topology: every corridor's current
/// weight, and the one workstation (at most) that is down.
struct Topology {
    side: usize,
    edges: Vec<(usize, usize)>,
    weights: Vec<f64>,
    down: Option<usize>,
    rng: SimRng,
}

impl Topology {
    fn new(side: usize, seed: u64) -> Topology {
        let edges: Vec<(usize, usize)> = inputs::grid_edges(side).collect();
        Topology {
            side,
            weights: vec![10.0; edges.len()],
            edges,
            down: None,
            rng: SeedDeriver::new(seed).rng(3),
        }
    }

    /// The next mutation: mostly a corridor reweight, one in eight a
    /// workstation flap — a random one goes down, and the next flap
    /// brings it back up. Returns the request, the applied flag the
    /// model predicts, and the edge index of a reweight.
    fn next(&mut self) -> (Request, bool, Option<usize>) {
        if self.rng.below(8) == 0 {
            return match self.down {
                Some(x) => (
                    Request::SetNodeUp {
                        node: x as u32,
                        up: true,
                    },
                    true,
                    None,
                ),
                None => {
                    let x = self.rng.below((self.side * self.side) as u64) as usize;
                    (
                        Request::SetNodeUp {
                            node: x as u32,
                            up: false,
                        },
                        true,
                        None,
                    )
                }
            };
        }
        let e = self.rng.below(self.edges.len() as u64) as usize;
        let weight = self.rng.uniform(0.5, 50.0);
        let (a, b) = self.edges[e];
        let applied = self.down != Some(a)
            && self.down != Some(b)
            && self.weights[e].to_bits() != weight.to_bits();
        (
            Request::SetEdgeWeight {
                a: a as u32,
                b: b as u32,
                weight,
            },
            applied,
            Some(e),
        )
    }

    /// Applies a mutation the engine acknowledged.
    fn apply(&mut self, req: &Request, edge: Option<usize>) {
        match (req, edge) {
            (Request::SetNodeUp { node, up }, _) => self.down = (!up).then_some(*node as usize),
            (Request::SetEdgeWeight { weight, .. }, Some(e)) => self.weights[e] = *weight,
            _ => {}
        }
    }

    fn weight(&self, a: usize, b: usize) -> Option<f64> {
        if self.down == Some(a) || self.down == Some(b) {
            return None;
        }
        let key = (a.min(b), a.max(b));
        let e = self.edges.binary_search(&key).ok()?;
        Some(self.weights[e])
    }

    /// Whether `path` is a walk from `from` to `to` over live corridors
    /// whose weights sum to `distance`.
    fn walk_ok(&self, from: usize, to: usize, distance: f64, path: &[usize]) -> bool {
        if path.first() != Some(&from) || path.last() != Some(&to) {
            return false;
        }
        let mut sum = 0.0;
        for w in path.windows(2) {
            match self.weight(w[0], w[1]) {
                Some(x) => sum += x,
                None => return false,
            }
        }
        (sum - distance).abs() <= 1e-9 * distance.max(1.0)
    }

    /// Shortest distance by a full Dijkstra over the live graph.
    fn shortest(&self, from: usize, to: usize) -> Option<f64> {
        let mut g = WsGraph::new(self.side * self.side);
        for (&(a, b), &w) in self.edges.iter().zip(&self.weights) {
            if self.down != Some(a) && self.down != Some(b) {
                g.add_edge(a, b, w);
            }
        }
        let d = g.dijkstra(from).0[to];
        d.is_finite().then_some(d)
    }
}

#[derive(Default)]
struct MutationStats {
    edge: Latency,
    toggle: Latency,
    done: u64,
    applied: u64,
    allocs: u64,
    traced: u64,
}

/// `path_churn`.
pub fn path_churn(cfg: &Config, budget: Budget, trace: bool) -> Outcome {
    let shape = cfg.shape;
    let sched = inputs::schedule(&shape, cfg.seed);
    let (svc, stages, setup_s) = repeat_setup(
        cfg.setups,
        || {
            let (svc, mut stages) = build_service(&shape, true);
            ingest_initial(&svc, &sched, &mut stages);
            (svc, stages)
        },
        drop,
    );
    let mut out = Outcome::new(trace);
    out.metrics.put("setup_s", setup_s.value, setup_s.samples);
    stages.report(&mut out.metrics);
    out.failed += stages.bad_acks;

    let mut topo = Topology::new(shape.side, cfg.seed);
    let mut truth = sched.initial.clone();
    let (mut checksum, mut attempted, mut failed) = (CHECKSUM_INIT, 0u64, 0u64);
    let mut epoch = 0u64;
    let mut latency = Latency::default();
    let mut where_ns = Latency::default();
    let mut qps = Windows::new(10 * shape.queries_per_tick as u64);
    let mut updates = Windows::new(10 * cfg.mutations_per_tick as u64);
    let mut muts = MutationStats::default();
    let (mut found, mut path_nodes) = (0u64, 0u64);
    let (mut allocs_q, mut queries_q) = (0u64, 0u64);
    let mut overhead = Overhead::default();
    let mut prefix = None;
    let mut spans = Spans::new(trace);
    let (mut scratch, mut reply, mut path) = (Vec::new(), Vec::new(), Vec::new());
    let mut ts = shape.users;
    let start = Instant::now();
    let mut k = 0;
    while !budget.spent(k, start) {
        let traced = trace && k % 2 == 1;
        let tick_span = if traced {
            spans.open("tick", ROOT, k as u64, Instant::now())
        } else {
            ROOT
        };

        let mut busy = 0.0;
        for _ in 0..cfg.mutations_per_tick {
            let (req, expect, edge) = topo.next();
            let payload = req.encode();
            reply.clear();
            let t0 = Instant::now();
            let (_, n) = alloc::count(|| svc.serve_payload(&payload, 1, &mut scratch, &mut reply));
            let t1 = Instant::now();
            busy += (t1 - t0).as_secs_f64();
            let (name, hist, kind) = match req {
                Request::SetNodeUp { .. } => ("graph.node_toggle", &mut muts.toggle, 96),
                _ => ("graph.edge_weight", &mut muts.edge, 98),
            };
            if traced {
                hist.span(t0, t1);
                spans.push(name, tick_span, muts.done, t0, t1);
                muts.allocs += n;
                muts.traced += 1;
            }
            muts.done += 1;
            attempted += 1;
            match Response::decode(&reply) {
                Ok(Response::TopologyAck {
                    applied,
                    epoch: after,
                }) => {
                    let bumped = if applied { epoch + 1 } else { epoch };
                    if applied != expect || after != bumped {
                        failed += 1;
                    }
                    if applied {
                        topo.apply(&req, edge);
                        muts.applied += 1;
                    }
                    epoch = after;
                    let target = match req {
                        Request::SetNodeUp { node, .. } => u64::from(node),
                        Request::SetEdgeWeight { a, .. } => u64::from(a),
                        _ => 0,
                    };
                    inputs::fold(
                        &mut checksum,
                        kind + u64::from(applied),
                        target,
                        after,
                        &[] as &[u32],
                    );
                }
                _ => failed += 1,
            }
        }
        if !traced {
            updates.put(cfg.mutations_per_tick as u64, busy);
        }

        let (moves, queries) = sched.tick(&shape, k);
        let mut notices = 0usize;
        for (uid, from, to) in moves {
            for (cell, present) in [(to, true), (from, false)] {
                ts += 1;
                svc.ingest(inputs::addr(uid), cell, present, ts);
                notices += 1;
            }
            truth[uid as usize] = to;
        }
        let acks = svc.flush(1);
        attempted += notices as u64;
        if acks.len() != notices || !acks.iter().all(|&a| a) {
            failed += notices as u64;
        }

        let block = Instant::now();
        let mut busy = 0u64;
        for (i, &(querier, target, from)) in queries.iter().enumerate() {
            let t0 = Instant::now();
            let (answer, n) = if traced {
                alloc::count(|| svc.where_is(querier, target, from as usize, &mut path))
            } else {
                (svc.where_is(querier, target, from as usize, &mut path), 0)
            };
            let t1 = Instant::now();
            if traced {
                where_ns.span(t0, t1);
                spans.push(
                    "service.where_is",
                    tick_span,
                    (k * queries.len() + i) as u64,
                    t0,
                    t1,
                );
                allocs_q += n;
                queries_q += 1;
            } else {
                latency.span(t0, t1);
                busy += nanos(t1 - t0);
            }
            attempted += 1;
            let (from, to) = (from as usize, truth[target as usize] as usize);
            // One query per tick is also checked for optimality.
            let shortest = (i == 0).then(|| topo.shortest(from, to));
            match answer {
                WhereIs::Found { cell, distance } => {
                    let ok = cell as usize == to
                        && topo.walk_ok(from, to, distance, &path)
                        && shortest.is_none_or(|d| {
                            d.is_some_and(|d| (d - distance).abs() <= 1e-9 * d.max(1.0))
                        });
                    if !ok {
                        failed += 1;
                    }
                    found += 1;
                    path_nodes += path.len() as u64;
                    inputs::fold(&mut checksum, 0, u64::from(cell), distance.to_bits(), &path);
                }
                other => {
                    // A grid minus one cell stays connected, so only a
                    // querier or target in the down cell is cut off.
                    let cut_off = other == WhereIs::OutOfCoverage
                        && topo
                            .down
                            .is_some_and(|x| from != to && (x == from || x == to));
                    failed += u64::from(!cut_off);
                    inputs::fold(&mut checksum, where_kind(&other), 0, 0, &[] as &[u32]);
                }
            }
        }
        let block_end = Instant::now();
        overhead.put(
            traced,
            queries.len() as u64,
            (block_end - block).as_secs_f64(),
        );
        if traced {
            spans.close(tick_span, block_end);
        } else {
            qps.put(queries.len() as u64, busy as f64 * 1e-9);
        }
        k += 1;
        if k == FINGERPRINT_TICKS {
            prefix = Some((checksum, epoch));
        }
    }

    let m = &mut out.metrics;
    let (rate, windows) = qps.median();
    m.put("throughput", rate, windows);
    let (p50, p99) = latency.p50_p99();
    m.put("latency_p50_us", p50 / 1e3, latency.count());
    m.put("latency_p99_us", p99 / 1e3, latency.count());
    let (rate, windows) = updates.median();
    m.put("update_rate", rate, windows);
    let (p50, p99) = where_ns.p50_p99();
    m.put("service.where_is_p50_ns", p50, where_ns.count());
    m.put("service.where_is_p99_ns", p99, where_ns.count());
    let (p50, p99) = muts.edge.p50_p99();
    m.put("churn.edge_weight_p50_us", p50 / 1e3, muts.edge.count());
    m.put("churn.edge_weight_p99_us", p99 / 1e3, muts.edge.count());
    let (p50, p99) = muts.toggle.p50_p99();
    m.put("churn.node_toggle_p50_us", p50 / 1e3, muts.toggle.count());
    m.put("churn.node_toggle_p99_us", p99 / 1e3, muts.toggle.count());
    m.put(
        "churn.applied_frac",
        muts.applied as f64 / muts.done.max(1) as f64,
        muts.done,
    );
    m.put(
        "graph.path_len_mean",
        path_nodes as f64 / found.max(1) as f64,
        found,
    );
    m.put(
        "alloc.per_query",
        allocs_q as f64 / queries_q.max(1) as f64,
        queries_q,
    );
    m.put(
        "alloc.per_mutation",
        muts.allocs as f64 / muts.traced.max(1) as f64,
        muts.traced,
    );
    m.put("trace.spans", spans.len() as f64, spans.len() as u64);
    overhead.report(m);
    let mut set = MetricSet::new();
    svc.export_metrics(&mut set);
    let counter = |name: &str| set.counter_value(name).unwrap_or(0) as f64;
    let per_applied = muts.applied.max(1) as f64;
    m.put(
        "graph.tree_repairs_per_mutation",
        counter("core.graph.tree_repairs") / per_applied,
        muts.applied,
    );
    m.put(
        "graph.vertices_touched_per_mutation",
        counter("core.graph.vertices_touched") / per_applied,
        muts.applied,
    );
    m.put("graph.cache_hits", counter("core.graph.cache_hits"), 1);
    m.put("graph.cache_misses", counter("core.graph.cache_misses"), 1);
    service_counters(&svc, m);
    let (checksum, epoch) = prefix.unwrap_or((checksum, epoch));
    out.attempted += attempted;
    out.failed += failed;
    out.fingerprint("ticks", k.min(FINGERPRINT_TICKS) as u64);
    out.fingerprint("epoch", epoch);
    out.fingerprint("checksum", format!("{checksum:016x}"));
    if trace {
        out.spans = Some(spans);
    }
    out
}
