//! Serving-path load bench: seed server vs. sharded engine vs. sharded
//! engine with tracing.
//!
//! The workload driver lives in [`bips_bench::loadgen`]; this binary is
//! the CLI, the report writer, and the regression gate. Each workload
//! runs three modes:
//!
//! * **baseline** — the seed [`BipsServer`](bips_core::BipsServer);
//! * **sharded** — [`ShardedService`](bips_core::service::ShardedService),
//!   tracing off;
//! * **traced** — the same engine with a per-shard trace ring attached
//!   and a fresh span per query, under a flight-recorder panic guard
//!   (dumps land in `target/flight-recorder/`).
//!
//! All three checksums must match exactly, and the sharded and traced
//! ack checksums must match — the bench refuses to report numbers over
//! diverging answers, which is the standing proof that tracing is
//! non-perturbing.
//!
//! Usage:
//!   cargo run -p bips-bench --bin server_throughput --release -- \
//!       [--smoke] [--json PATH] [--check FILE] [--jobs N] [--mix Q:U]
//!
//! `--mix Q:U` re-tunes every workload to a query:update preset
//! (`80:20` default, `50:50`, `99:1`); non-default mixes suffix the
//! section names (`smoke` → `smoke_50_50`) so baselines never collide.
//! `--json PATH` writes a `bips-run-report/v1` document (see
//! `docs/OBSERVABILITY.md`) with a section per workload, including HDR
//! latency quantiles (p50/p99/p999/p9999, relative error < 1.5625%)
//! and a per-shard breakdown that `bips-top` renders. `--check FILE`
//! gates each section it ran against a committed baseline file
//! (`BENCH.json`; table in [`bips_bench::gate::server_throughput`]).
//! The tail and the non-default-mix throughput read the `sharded`
//! block `mix_throughput` recorded for the same replay:
//!
//! | field | committed value | gate |
//! |-------|-----------------|------|
//! | `sharded.queries_per_sec` | `server_throughput` (default mix), `mix_throughput` (other mixes) | ≥ committed − 20% |
//! | `traced.queries_per_sec` | `server_throughput` (default mix only) | ≥ committed − 20% |
//! | `sharded.p999_us` | `mix_throughput` | ≤ committed + 20% + 5 µs |
//! | `speedup.tracing_overhead` | — (same run) | ≥ 0.70, when the untraced query phase ran ≥ 0.2 s |
//!
//! The last row is a circuit breaker: quiet-machine tracing overhead
//! is 15–25%, so the 30% budget catches structural regressions such as
//! an allocation sneaking onto the record path without flaking on
//! noise; a ratio of two shorter phases is noise, not a gate.

// Bench binary: wall-clock reads feed the perf report
// (artifacts.wall_secs), not simulation results.
#![allow(clippy::disallowed_methods)]

use std::path::Path;
use std::sync::Arc;

use bips_bench::gate;
use bips_bench::loadgen::{
    generate_trace, merge_shard_hdrs, run_baseline, run_sharded, run_sharded_traced,
    shard_latency_hdrs, Mix, ModeResult, Trace, Workload,
};
use bips_bench::telemetry::{reject_unknown, take_flag, take_jobs, take_mix, take_switch};
use desim::metrics::MetricSet;
use desim::report::{hdr_json, Json, RunReport};
use desim::tracing::{FlightRecorder, Tracer};

/// Events per shard ring: enough to hold the last few ticks' worth of
/// query/ingest activity for a post-mortem window.
const RING_CAPACITY: usize = 4096;

/// Events drained into a flight-recorder dump.
const FLIGHT_LAST_N: usize = 256;

/// Where flight-recorder JSONL artifacts land; CI uploads this
/// directory when a bench job fails.
const FLIGHT_DIR: &str = "target/flight-recorder";

fn mode_json(r: &ModeResult) -> Json {
    let hdr = r.latency_hdr();
    let mut j = Json::object();
    j.set("queries_per_sec", r.queries_per_sec())
        .set("p50_us", r.percentile_us(0.50))
        .set("p99_us", r.percentile_us(0.99))
        .set("p999_us", hdr.quantile(0.999) as f64 / 1000.0)
        .set("latency_hdr_ns", hdr_json(&hdr))
        .set("query_secs", r.query_secs)
        .set("total_secs", r.total_secs)
        .set("found", r.found)
        .set("checksum", format!("{:016x}", r.checksum))
        .set("ack_checksum", format!("{:016x}", r.ack_checksum));
    j
}

fn shards_json(
    w: &Workload,
    trace: &Trace,
    traced: &ModeResult,
    tracer: &Tracer,
    metrics: &MetricSet,
) -> Json {
    let hdrs = shard_latency_hdrs(w, trace, traced);
    let mut rows = Vec::with_capacity(hdrs.len());
    for (i, h) in hdrs.iter().enumerate() {
        let mut row = Json::object();
        row.set("shard", i as u64)
            .set("queries", h.count())
            .set(
                "queries_per_sec",
                h.count() as f64 / traced.query_secs.max(1e-9),
            )
            .set("p50_us", h.quantile(0.50) as f64 / 1000.0)
            .set("p999_us", h.quantile(0.999) as f64 / 1000.0)
            .set(
                "read_retries",
                metrics
                    .counter_value(&format!("core.service.shard{i}.read_retries"))
                    .unwrap_or(0),
            );
        if let Some(ring) = tracer.ring(i) {
            row.set("ring_recorded", ring.recorded())
                .set("ring_occupancy", ring.occupancy());
        }
        rows.push(row);
    }
    Json::Arr(rows)
}

#[allow(clippy::too_many_arguments)]
fn section_json(
    w: &Workload,
    mix: Mix,
    trace: &Trace,
    baseline: &ModeResult,
    sharded: &ModeResult,
    traced: &ModeResult,
    tracer: &Tracer,
    traced_metrics: &MetricSet,
) -> Json {
    let mut config = Json::object();
    config
        .set("users", w.users)
        .set("cells", w.cells())
        .set("mix", mix.name())
        .set("updates_per_tick", w.updates_per_tick)
        .set("queries_per_tick", w.queries_per_tick)
        .set("ticks", w.ticks)
        .set("querier_pool", w.pool)
        .set("shards", w.shards)
        .set("ring_capacity", RING_CAPACITY)
        .set("seed", w.seed);
    let mut speedup = Json::object();
    speedup
        .set(
            "queries_per_sec",
            sharded.queries_per_sec() / baseline.queries_per_sec(),
        )
        .set(
            "tracing_overhead",
            traced.queries_per_sec() / sharded.queries_per_sec(),
        );
    let mut tracing = Json::object();
    tracing
        .set("recorded", tracer.recorded())
        .set("dropped", tracer.dropped());
    let mut j = Json::object();
    j.set("config", config)
        .set("baseline", mode_json(baseline))
        .set("sharded", mode_json(sharded))
        .set("traced", mode_json(traced))
        .set("speedup", speedup)
        .set("tracing", tracing)
        .set(
            "shards",
            shards_json(w, trace, traced, tracer, traced_metrics),
        );
    j
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (args, json_path) = take_flag(args, "--json");
    let (args, check_path) = take_flag(args, "--check");
    let (args, mix) = take_mix(args);
    let (args, jobs) = take_jobs(args);
    let (args, smoke_only) = take_switch(args, "--smoke");
    reject_unknown(&args);

    let workloads = if smoke_only {
        vec![Workload::smoke().with_mix(mix)]
    } else {
        vec![
            Workload::full().with_mix(mix),
            Workload::smoke().with_mix(mix),
        ]
    };

    let mut report = RunReport::new("server_throughput", workloads[0].seed);
    report.config("jobs", jobs as u64);
    report.artifact("flight_recorder_dir", FLIGHT_DIR);
    let mut rows = Vec::new();
    let mut total_dumps = 0u64;
    for w in workloads {
        eprintln!(
            "[{}] {} users, {} cells, {} ticks x ({} moves + {} queries) ...",
            w.name,
            w.users,
            w.cells(),
            w.ticks,
            w.updates_per_tick,
            w.queries_per_tick
        );
        let trace = generate_trace(&w);
        let baseline = run_baseline(&w, &trace);
        let (sharded, _metrics) = run_sharded(&w, &trace, jobs);
        let tracer = Arc::new(Tracer::new(w.shards, RING_CAPACITY));
        let recorder =
            FlightRecorder::new(Arc::clone(&tracer), Path::new(FLIGHT_DIR), FLIGHT_LAST_N);
        let (traced, traced_metrics) = {
            let _guard = recorder.guard(w.name);
            run_sharded_traced(&w, &trace, jobs, &tracer, Some(&recorder))
        };
        total_dumps += recorder.dumps();
        assert_eq!(
            baseline.checksum, sharded.checksum,
            "{}: the two serving models answered differently",
            w.name
        );
        assert_eq!(
            sharded.checksum, traced.checksum,
            "{}: tracing perturbed the answers",
            w.name
        );
        assert_eq!(
            sharded.ack_checksum, traced.ack_checksum,
            "{}: tracing perturbed the flush acks",
            w.name
        );
        assert_eq!(baseline.latencies_ns.len() as u64, w.queries());
        println!("== {} ==", w.name);
        for (label, r) in [
            ("baseline", &baseline),
            ("sharded ", &sharded),
            ("traced  ", &traced),
        ] {
            let hdr = r.latency_hdr();
            println!(
                "  {label}: {:>10.0} q/s  p50 {:>7.2} us  p99 {:>7.2} us  p999 {:>8.2} us  ({:.2} s queries, {:.2} s total)",
                r.queries_per_sec(),
                r.percentile_us(0.50),
                r.percentile_us(0.99),
                hdr.quantile(0.999) as f64 / 1000.0,
                r.query_secs,
                r.total_secs,
            );
        }
        println!(
            "  speedup: {:.2}x queries/sec, tracing overhead {:.1}%  (checksum {:016x}, {} found, {} events)",
            sharded.queries_per_sec() / baseline.queries_per_sec(),
            (1.0 - traced.queries_per_sec() / sharded.queries_per_sec()) * 100.0,
            traced.checksum,
            traced.found,
            tracer.recorded(),
        );
        report.section(
            w.name,
            section_json(
                &w,
                mix,
                &trace,
                &baseline,
                &sharded,
                &traced,
                &tracer,
                &traced_metrics,
            ),
        );
        if w.name == "full" {
            report.metrics(&traced_metrics);
        }
        // Overall HDR for the section, merged shard-by-shard in index
        // order — the same deterministic merge the proptests pin down.
        let merged = merge_shard_hdrs(&shard_latency_hdrs(&w, &trace, &traced));
        report.artifact(
            &format!("{}_traced_latency_hdr_ns", w.name),
            hdr_json(&merged),
        );
        rows.extend(gate::server_throughput(w.name, mix, sharded.query_secs));
    }
    report.artifact("flight_recorder_dumps", total_dumps);
    gate::finish(&report, json_path.as_deref(), check_path.as_deref(), &rows);
}
