//! Churn bench + CI gate for the dynamic shortest-path engine (PR 9).
//!
//! Replays the campus-scale churn scenario the paper's offline APSP
//! cannot survive: 10k and 100k cells with 1% of cells flapping per
//! virtual minute (node down/up plus congestion reweights) under a
//! mixed path-query load from a warm source pool. For each section it
//! reports:
//!
//! - the **estimated full-rebuild cost** (mean of 32 sampled Dijkstra
//!   runs × n sources — actually rebuilding 10k–100k sources per
//!   mutation is exactly the cost this PR removes),
//! - the **mean per-mutation repair cost** of the dynamic engine,
//! - **query throughput under churn vs quiet** on the same engine, and
//! - the process **VmHWM** high-water mark, proving the 100k-cell run
//!   holds no O(n²) table (that table alone would be ~120 GB).
//!
//! Usage:
//!   cargo run -p bips-bench --bin path_churn --release -- \
//!       [--smoke] [--json PATH] [--check FILE]
//!
//! By default both the `cells_*` full sections and the seconds-scale
//! `smoke_*` sections run. `--smoke` runs the smoke sections only.
//! `--json PATH` writes a `bips-run-report/v1` document with one
//! section per workload (see `docs/PERF.md`). `--check FILE` gates each
//! section it ran against the `path_churn` entry of a committed
//! baseline file (`BENCH.json`; table in
//! [`bips_bench::gate::path_churn`]):
//!
//! | field | gate |
//! |-------|------|
//! | `repair_speedup` | ≥ 20 (same run) |
//! | `queries.churn_over_quiet` | ≥ 0.8 (same run) |
//! | `vm_hwm_mb` | < 2048 (same run; `*_100k` sections only) |
//! | `repair.mutations` | = committed (the churn schedule is deterministic) |
//! | `queries.churn_qps` | ≥ committed − 20% |

// Bench binary: wall-clock reads feed the perf report, not simulation
// results.
#![allow(clippy::disallowed_methods)]

use std::time::Instant;

use bips_bench::gate;
use bips_bench::telemetry::{reject_unknown, take_flag, take_switch};
use bips_core::graph::{random_connected_graph, PathEngine, PathEngineKind};
use desim::metrics::MetricSet;
use desim::report::{Json, RunReport};
use desim::SimRng;

/// One churn scenario: `cells` nodes, 1% flapping per virtual minute.
struct Workload {
    name: &'static str,
    cells: usize,
    extra_edges: usize,
    /// Virtual minutes; each applies `cells / 100` mutations.
    ticks: u64,
    queries_per_tick: u64,
    /// Query sources are confined to this pool so sparse-mode queries
    /// hit warm trees (the serving pattern the cache is sized for).
    warm_sources: usize,
    seed: u64,
    /// Gate VmHWM (the no-O(n²)-table proof) for this section.
    check_memory: bool,
}

impl Workload {
    fn full() -> Vec<Workload> {
        vec![
            Workload {
                name: "cells_10k",
                cells: 10_000,
                extra_edges: 20_000,
                ticks: 20,
                queries_per_tick: 100_000,
                warm_sources: 16,
                seed: 2003,
                check_memory: false,
            },
            Workload {
                name: "cells_100k",
                cells: 100_000,
                extra_edges: 200_000,
                ticks: 5,
                queries_per_tick: 50_000,
                warm_sources: 16,
                seed: 2003,
                check_memory: true,
            },
        ]
    }

    fn smoke() -> Vec<Workload> {
        vec![
            Workload {
                name: "smoke_10k",
                cells: 10_000,
                extra_edges: 20_000,
                ticks: 5,
                queries_per_tick: 50_000,
                warm_sources: 16,
                seed: 2003,
                check_memory: false,
            },
            Workload {
                name: "smoke_100k",
                cells: 100_000,
                extra_edges: 200_000,
                ticks: 2,
                queries_per_tick: 25_000,
                warm_sources: 8,
                seed: 2003,
                check_memory: true,
            },
        ]
    }

    fn flaps_per_tick(&self) -> usize {
        (self.cells / 100).max(1)
    }
}

struct SectionResult {
    engine: &'static str,
    sampled_sssp: u64,
    mean_sssp_secs: f64,
    est_rebuild_secs: f64,
    mutations: u64,
    repair_secs: f64,
    churn_queries: u64,
    churn_query_secs: f64,
    quiet_queries: u64,
    quiet_query_secs: f64,
    found: u64,
    unreachable: u64,
    vm_hwm_mb: Option<f64>,
    counters: Vec<(&'static str, u64)>,
}

impl SectionResult {
    fn mean_repair_secs(&self) -> f64 {
        self.repair_secs / self.mutations.max(1) as f64
    }

    fn repair_speedup(&self) -> f64 {
        self.est_rebuild_secs / self.mean_repair_secs()
    }

    fn churn_qps(&self) -> f64 {
        self.churn_queries as f64 / self.churn_query_secs
    }

    fn quiet_qps(&self) -> f64 {
        self.quiet_queries as f64 / self.quiet_query_secs
    }

    fn churn_over_quiet(&self) -> f64 {
        self.churn_qps() / self.quiet_qps()
    }
}

/// Process peak resident set from `/proc/self/status`, in MiB.
fn vm_hwm_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn run_section(w: &Workload) -> SectionResult {
    let g = random_connected_graph(w.cells, w.extra_edges, w.seed);
    let mut rng = SimRng::seed_from(w.seed ^ 0x9e37_79b9);

    // Sample the rebuild cost this engine avoids: a full
    // `precompute_all_pairs` is n Dijkstra runs, so estimate it as
    // (mean sampled SSSP) × n instead of spending hours measuring it.
    let sampled = 32u64.min(w.cells as u64);
    let t = Instant::now();
    for _ in 0..sampled {
        let s = rng.below(w.cells as u64) as usize;
        std::hint::black_box(g.dijkstra(s));
    }
    let mean_sssp_secs = t.elapsed().as_secs_f64() / sampled as f64;
    let est_rebuild_secs = mean_sssp_secs * w.cells as f64;

    let mut engine = PathEngine::new(PathEngineKind::Dynamic, g);
    for s in 0..w.warm_sources {
        engine.warm(s);
    }

    // Churn phase: every tick (one virtual minute) flaps 1% of cells —
    // a blend of congestion reweights and node down/up toggles (downed
    // cells come back the next minute) — then serves the query load.
    let mut downed: Vec<usize> = Vec::new();
    let mut mutations = 0u64;
    let mut repair_secs = 0.0f64;
    let mut churn_query_secs = 0.0f64;
    let (mut found, mut unreachable) = (0u64, 0u64);
    let mut buf = Vec::new();
    let mut run_queries =
        |engine: &mut PathEngine, rng: &mut SimRng, found: &mut u64, unreachable: &mut u64| {
            let t = Instant::now();
            for _ in 0..w.queries_per_tick {
                let src = rng.below(w.warm_sources as u64) as usize;
                let dst = rng.below(w.cells as u64) as usize;
                match engine.query(src, dst, &mut buf) {
                    Ok(Some(_)) => *found += 1,
                    Ok(None) => *unreachable += 1,
                    Err(e) => panic!("path corruption under churn: {e}"),
                }
            }
            t.elapsed().as_secs_f64()
        };

    for _tick in 0..w.ticks {
        let t = Instant::now();
        for x in downed.drain(..) {
            mutations += u64::from(engine.set_node_up(x, true).unwrap_or(false));
        }
        for _ in 0..w.flaps_per_tick() {
            if rng.below(4) == 0 {
                let x = rng.below(w.cells as u64) as usize;
                if engine.set_node_up(x, false) == Ok(true) {
                    downed.push(x);
                    mutations += 1;
                }
            } else {
                let a = rng.below(w.cells as u64) as usize;
                let es = engine.graph().edges(a);
                if es.is_empty() {
                    continue;
                }
                let b = es[rng.below(es.len() as u64) as usize].0;
                let weight = rng.uniform(0.5, 50.0);
                // A down endpoint is a legitimate rejection mid-churn.
                mutations += u64::from(engine.set_edge_weight(a, b, weight).unwrap_or(false));
            }
        }
        // Maintenance includes re-warming the hot pool: a repair that
        // blew the per-tree budget left its slot stale, and recomputing
        // it here (not on the first unlucky query) is the serving
        // discipline the ratio gate models. Charged to repair cost.
        for s in 0..w.warm_sources {
            engine.warm(s);
        }
        repair_secs += t.elapsed().as_secs_f64();
        churn_query_secs += run_queries(&mut engine, &mut rng, &mut found, &mut unreachable);
    }

    // Quiet phase: the same query volume with churn stopped — the
    // denominator of the "throughput under churn" ratio.
    let mut quiet_query_secs = 0.0f64;
    let (mut qfound, mut qunreachable) = (0u64, 0u64);
    for _tick in 0..w.ticks {
        quiet_query_secs += run_queries(&mut engine, &mut rng, &mut qfound, &mut qunreachable);
    }

    let mut ms = MetricSet::new();
    engine.export_metrics(&mut ms);
    let counters = [
        "core.graph.tree_repairs",
        "core.graph.vertices_touched",
        "core.graph.epoch_invalidations",
        "core.graph.cache_misses",
        "core.graph.cache_hits",
    ]
    .into_iter()
    .map(|name| (name, ms.counter_value(name).unwrap_or(0)))
    .collect();

    SectionResult {
        engine: engine.name(),
        sampled_sssp: sampled,
        mean_sssp_secs,
        est_rebuild_secs,
        mutations,
        repair_secs,
        churn_queries: w.ticks * w.queries_per_tick,
        churn_query_secs,
        quiet_queries: w.ticks * w.queries_per_tick,
        quiet_query_secs,
        found: found + qfound,
        unreachable: unreachable + qunreachable,
        vm_hwm_mb: vm_hwm_mb(),
        counters,
    }
}

fn section_json(w: &Workload, r: &SectionResult) -> Json {
    let mut config = Json::object();
    config
        .set("cells", w.cells)
        .set("extra_edges", w.extra_edges)
        .set("ticks", w.ticks)
        .set("flaps_per_tick", w.flaps_per_tick())
        .set("queries_per_tick", w.queries_per_tick)
        .set("warm_sources", w.warm_sources)
        .set("seed", w.seed);
    let mut rebuild_est = Json::object();
    rebuild_est
        .set("sampled_sssp", r.sampled_sssp)
        .set("mean_sssp_secs", r.mean_sssp_secs)
        .set("est_full_secs", r.est_rebuild_secs);
    let mut repair = Json::object();
    repair
        .set("mutations", r.mutations)
        .set("total_secs", r.repair_secs)
        .set("mean_secs", r.mean_repair_secs());
    let mut queries = Json::object();
    queries
        .set("churn_qps", r.churn_qps())
        .set("quiet_qps", r.quiet_qps())
        .set("churn_over_quiet", r.churn_over_quiet())
        .set("found", r.found)
        .set("unreachable", r.unreachable);
    let mut metrics = Json::object();
    for &(name, value) in &r.counters {
        metrics.set(name, value);
    }
    let mut j = Json::object();
    j.set("config", config)
        .set("engine", r.engine)
        .set("rebuild_est", rebuild_est)
        .set("repair", repair)
        .set("repair_speedup", r.repair_speedup())
        .set("queries", queries)
        .set("vm_hwm_mb", r.vm_hwm_mb.map_or(Json::Null, Json::Num))
        .set("metrics", metrics);
    j
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (args, json_path) = take_flag(args, "--json");
    let (args, check_path) = take_flag(args, "--check");
    let (args, smoke_only) = take_switch(args, "--smoke");
    reject_unknown(&args);

    let workloads = if smoke_only {
        Workload::smoke()
    } else {
        let mut all = Workload::full();
        all.extend(Workload::smoke());
        all
    };

    let mut report = RunReport::new("path_churn", workloads[0].seed);
    let mut rows = Vec::new();
    for w in &workloads {
        eprintln!(
            "[{}] {} cells, {} ticks x {} flaps + {} queries ...",
            w.name,
            w.cells,
            w.ticks,
            w.flaps_per_tick(),
            w.queries_per_tick
        );
        let r = run_section(w);
        println!("== {} ({}) ==", w.name, r.engine);
        println!(
            "  rebuild est: {:>10.3} ms   repair mean: {:>10.3} us   speedup: {:>8.0}x",
            r.est_rebuild_secs * 1e3,
            r.mean_repair_secs() * 1e6,
            r.repair_speedup()
        );
        println!(
            "  churn qps: {:>12.0}   quiet qps: {:>12.0}   ratio: {:.3}",
            r.churn_qps(),
            r.quiet_qps(),
            r.churn_over_quiet()
        );
        println!(
            "  mutations: {:>12}   found/unreachable: {}/{}   VmHWM: {} MiB",
            r.mutations,
            r.found,
            r.unreachable,
            r.vm_hwm_mb.map_or("?".to_string(), |m| format!("{m:.0}"))
        );
        report.section(w.name, section_json(w, &r));
        rows.extend(gate::path_churn(w.name, w.check_memory));
    }
    gate::finish(&report, json_path.as_deref(), check_path.as_deref(), &rows);
}
