//! Serving-path load bench: seed server vs. sharded engine, on both
//! slot-read paths and with tracing, plus the write-burst tail model.
//!
//! The workload driver lives in [`bips_bench::loadgen`]; this binary is
//! the CLI, the report writer, and the regression gate. Each workload
//! runs four barriered replays:
//!
//! * **baseline** — the seed [`BipsServer`](bips_core::BipsServer);
//! * **sharded** — [`ShardedService`](bips_core::service::ShardedService)
//!   on its default seqlock read path, tracing off;
//! * **locked** — the same engine on [`ReadPath::Locked`], whose readers
//!   share the shard writer lock;
//! * **traced** — the seqlock engine with a per-shard trace ring
//!   attached and a fresh span per query, under a flight-recorder panic
//!   guard (dumps land in `target/flight-recorder/`).
//!
//! All four checksums must match exactly, the sharded, locked and
//! traced ack checksums too, and the two read paths' found counts —
//! the bench refuses to report numbers over diverging answers, which is
//! the standing proof that tracing is non-perturbing and the two read
//! paths agree. Then [`run_burst_model`] composes each read path's
//! measured service distribution with the measured lock holds of a
//! write burst ([`WRITE_BURST_TICKS`] ticks of moves, one flush) into
//! the open-loop tail each path shows while the burst is flushed.
//!
//! Usage:
//!   cargo run -p bips-bench --bin server_throughput --release -- \
//!       [--smoke] [--json PATH] [--jobs N] [--mix Q:U]
//!
//! `--mix Q:U` re-tunes every workload to a query:update preset
//! (`80:20` default, `50:50`, `99:1`); non-default mixes suffix the
//! section names (`smoke` → `smoke_50_50`) so reports never collide.
//! `--json PATH` writes a `bips-run-report/v1` document (see
//! `docs/OBSERVABILITY.md`) with a section per workload, including HDR
//! latency quantiles (p50/p99/p999/p9999, relative error < 1.5625%)
//! and a per-shard breakdown that `bips-top` renders. Every run then
//! judges each section's same-run ratios (table in
//! [`bips_bench::gate::server_throughput`], rows chosen from the
//! workload) and exits 1 if one fails:
//!
//! | field | gate |
//! |-------|------|
//! | `speedup.queries_per_sec` | sharded ÷ seed server ≥ 2 |
//! | `speedup.p999_write_burst` | locked ÷ seqlock burst-model p999 ≥ 20, when a burst flushes ≥ 256 notices per shard (80:20, 50:50) |
//! | `speedup.tracing_overhead` | traced ÷ sharded ≥ 0.70, when the section replays ≥ 1M queries (every full mix) |
//!
//! The first row catches a query path slowed by a per-answer scan. The
//! second catches the same scan and also a stall on a few answers in a
//! thousand, which lifts only the seqlock tail: it is the one check on
//! the tail of the query path. The third is a circuit breaker against
//! structural regressions on the trace record path, such as an
//! allocation: measured tracing overhead is 15% at full size (one run)
//! and 13–44% at smoke size (20 runs), so smoke sections are not
//! judged on it. Allocations and clock reads on the query path are
//! caught by the `query_alloc` test and the lints, and a lock on the
//! seqlock read path by the `serve-lock-reach` lint and `bips-core`'s
//! `a_held_writer_lock_stalls_only_locked_reads` test, not here.

// Bench binary: wall-clock reads feed the perf report
// (artifacts.wall_secs), not simulation results.
#![allow(clippy::disallowed_methods)]

use std::path::Path;
use std::sync::Arc;

use bips_bench::gate;
use bips_bench::loadgen::{
    generate_trace, run_baseline, run_burst_model, run_sharded, run_sharded_traced,
    run_sharded_with, shard_latency_hdrs, BurstModelResult, Mix, ModeResult, Trace, Workload,
    WRITE_BURST_TICKS,
};
use bips_bench::telemetry::{reject_unknown, take_flag, take_jobs, take_mix, take_switch};
use bips_core::service::ReadPath;
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

/// Evenly spaced open-loop arrivals replayed through the write-burst
/// model per read path.
const MODEL_ARRIVALS: usize = 1_000_000;

fn burst_model_json(m: &BurstModelResult) -> Json {
    let mut j = Json::object();
    j.set("p50_us", m.hdr.quantile(0.50) as f64 / 1000.0)
        .set("p99_us", m.hdr.quantile(0.99) as f64 / 1000.0)
        .set("p999_us", m.hdr.quantile(0.999) as f64 / 1000.0)
        .set("p9999_us", m.hdr.quantile(0.9999) as f64 / 1000.0)
        .set("ingest_ms", m.ingest_secs * 1e3)
        .set("flush_ms", m.flush_secs * 1e3)
        .set("hold_us", m.hold_ns as f64 / 1000.0)
        .set("duty", m.duty);
    j
}

/// Locked ÷ seqlock write-burst model p999.
fn p999_write_burst(seqlock: &BurstModelResult, locked: &BurstModelResult) -> f64 {
    locked.hdr.quantile(0.999).max(1) as f64 / seqlock.hdr.quantile(0.999).max(1) as f64
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
    locked: &ModeResult,
    traced: &ModeResult,
    model_seq: &BurstModelResult,
    model_lck: &BurstModelResult,
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
        .set("write_burst_ticks", WRITE_BURST_TICKS)
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
        )
        .set("p999_write_burst", p999_write_burst(model_seq, model_lck));
    let mut tracing = Json::object();
    tracing
        .set("recorded", tracer.recorded())
        .set("dropped", tracer.dropped());
    let mut j = Json::object();
    j.set("config", config)
        .set("baseline", baseline.to_json())
        .set("sharded", sharded.to_json())
        .set("locked", locked.to_json())
        .set("traced", traced.to_json())
        .set("burst_model_seqlock", burst_model_json(model_seq))
        .set("burst_model_locked", burst_model_json(model_lck))
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
        // Unmeasured warm-up replay: a fresh process's first sharded
        // replay pays cold caches and page faults that later ones don't,
        // and the measured replay's p999 is the write-burst row's
        // denominator.
        let _ = run_sharded(&w, &trace, jobs);
        let (sharded, _metrics) = run_sharded(&w, &trace, jobs);
        let (locked, _) = run_sharded_with(&w, &trace, jobs, ReadPath::Locked);
        let tracer = Arc::new(Tracer::new(w.shards, RING_CAPACITY));
        let recorder =
            FlightRecorder::new(Arc::clone(&tracer), Path::new(FLIGHT_DIR), FLIGHT_LAST_N);
        let (traced, traced_metrics) = {
            let _guard = recorder.guard(w.name);
            run_sharded_traced(&w, &trace, jobs, &tracer)
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
        assert_eq!(
            sharded.checksum, locked.checksum,
            "{}: the two read paths answered differently",
            w.name
        );
        assert_eq!(
            sharded.ack_checksum, locked.ack_checksum,
            "{}: the two read paths acked differently",
            w.name
        );
        assert_eq!(sharded.found, locked.found);
        assert_eq!(baseline.latencies_ns.len() as u64, w.queries());
        let burst_model = |path, service: &ModeResult| {
            let hdr = service.latency_hdr();
            run_burst_model(&w, &trace, WRITE_BURST_TICKS, MODEL_ARRIVALS, path, &hdr)
        };
        let model_seq = burst_model(ReadPath::Seqlock, &sharded);
        let model_lck = burst_model(ReadPath::Locked, &locked);
        println!("== {} ==", w.name);
        baseline.print_row("baseline");
        sharded.print_row("sharded ");
        locked.print_row("locked  ");
        traced.print_row("traced  ");
        println!(
            "  speedup: {:.2}x queries/sec, tracing overhead {:.1}%  (checksum {:016x}, {} found, {} events)",
            sharded.queries_per_sec() / baseline.queries_per_sec(),
            (1.0 - traced.queries_per_sec() / sharded.queries_per_sec()) * 100.0,
            traced.checksum,
            traced.found,
            tracer.recorded(),
        );
        println!(
            "  write-burst model: hold {:.1} us, duty {:.1}%  ->  p999 locked {:.2} us vs seqlock {:.2} us ({:.1}x)",
            model_lck.hold_ns as f64 / 1000.0,
            model_lck.duty * 100.0,
            model_lck.hdr.quantile(0.999) as f64 / 1000.0,
            model_seq.hdr.quantile(0.999) as f64 / 1000.0,
            p999_write_burst(&model_seq, &model_lck),
        );
        report.section(
            w.name,
            section_json(
                &w,
                mix,
                &trace,
                &baseline,
                &sharded,
                &locked,
                &traced,
                &model_seq,
                &model_lck,
                &tracer,
                &traced_metrics,
            ),
        );
        if w.name == "full" {
            report.metrics(&traced_metrics);
        }
        report.artifact(
            &format!("{}_traced_latency_hdr_ns", w.name),
            hdr_json(&traced.latency_hdr()),
        );
        rows.extend(gate::server_throughput(&w));
    }
    report.artifact("flight_recorder_dumps", total_dumps);
    gate::finish(&report, json_path.as_deref(), &rows);
}
