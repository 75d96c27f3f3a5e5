//! Mixed-workload locked-vs-seqlock bench.
//!
//! For every [`Mix`] preset (80:20, 50:50, 99:1 query:update) this
//! binary measures the engine's two slot-read protocols side by side:
//!
//! * **barriered** — [`run_sharded_with`] on the seqlock and on the
//!   locked path. Queries never race flushes here, so the two paths
//!   must be *bit-identical* (answer checksum, ack checksum, found
//!   count) — the bench refuses to report numbers over diverging
//!   answers — and their throughputs show the uncontended cost of each
//!   scheme.
//! * **contended** — [`run_contended`] on both paths: reader threads
//!   race a continuously flushing writer, which is the scenario where
//!   the locked path's tail collapses (a reader queues behind every
//!   flush holding the shard's writer lock) and the seqlock path keeps
//!   serving. The headline number is `speedup.p999_contended` =
//!   locked / seqlock write-burst p999 — the tail over only the
//!   queries that overlapped a flush, which is the subset the read
//!   protocol actually decides (overall percentiles additionally carry
//!   coordinated-omission-corrected scheduler noise that hits both
//!   paths alike).
//! * **burst model** — [`run_burst_model`] composes measured flush
//!   holds and the barriered service distribution into a deterministic
//!   open-loop write-burst tail per path; `speedup.p999_write_burst` is
//!   locked / seqlock, and is gated.
//!
//! The seqlock contended run arms the flight recorder's retry-storm
//! trigger ([`FlightRecorder::with_retry_threshold`]); a query burning
//! more than [`RETRY_STORM_THRESHOLD`] retries dumps a post-mortem
//! window to `target/flight-recorder/`.
//!
//! Usage:
//!   cargo run -p bips-bench --bin mix_throughput --release -- \
//!       [--smoke] [--json PATH] [--jobs N] [--readers N]
//!
//! `--json PATH` writes a `bips-run-report/v1` document with one
//! section per workload-mix (`full_50_50`, `smoke_99_1`, …; the
//! default mix keeps bare names). Each section's `sharded` block is
//! schema-compatible with `server_throughput`'s. Every run then judges
//! each section's same-run ratio (table in
//! [`bips_bench::gate::mix_throughput`]) and exits 1 if one fails:
//!
//! | field | gate |
//! |-------|------|
//! | `speedup.p999_write_burst` | locked ÷ seqlock model p999 ≥ 20, when the model's per-shard hold is ≥ 50 µs |
//!
//! A query path slowed toward the order of a flush's lock hold (a scan
//! per answer, say) lifts the seqlock tail toward the locked one; a
//! hold of a few µs (the 99:1 mix) is within a few service tails, so
//! its ratio is not judged. A seqlock read that takes the writer lock
//! is the `serve-lock-reach` lint's to catch: the model charges lock
//! holds to the locked path only.

// Bench binary: wall-clock reads feed the perf report, not simulation
// results.
#![allow(clippy::disallowed_methods)]

use std::path::Path;
use std::sync::Arc;

use bips_bench::gate;
use bips_bench::loadgen::{
    generate_trace, run_burst_model, run_contended, run_sharded_with, BurstModelResult,
    ContendedResult, Mix, Workload,
};
use bips_bench::telemetry::{reject_unknown, take_flag, take_jobs, take_switch};
use bips_core::service::ReadPath;
use desim::report::{hdr_json, Json, RunReport};
use desim::tracing::{FlightRecorder, Tracer};

/// Reader threads racing the writer in contended mode (override with
/// `--readers`): one per spare hardware thread after the writer's,
/// between 2 and 4 — oversubscribing a small machine only adds
/// scheduler noise to the tails.
fn default_readers() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(2)
        .saturating_sub(1)
        .clamp(2, 4)
}

/// Ticks the contended writer accumulates per flush: one flush then
/// applies `64 * 2 * updates_per_tick` notices as a single per-shard
/// batch — the inquiry-sweep write burst. Under the 50:50 mix that is
/// a multi-thousand-notice batch whose lock hold time is exactly what
/// the locked read path's tail pays and the seqlock path does not.
const WRITE_BURST_TICKS: usize = 64;

/// Notices the contended writer ingests+flushes per run, regardless of
/// mix: the writer replays the move schedule for however many passes
/// reach this volume, so every contended measurement races readers
/// against a comparable amount of write traffic and the mixes differ
/// only in burst size and flush cadence.
const CONTENDED_NOTICES_TARGET: u64 = 4_000_000;

/// Writer passes over the move schedule needed to reach
/// [`CONTENDED_NOTICES_TARGET`] (at least one, at most 64 so the
/// read-saturated mixes stay seconds-scale).
fn contended_passes(w: &Workload) -> usize {
    let per_pass = (w.ticks * 2 * w.updates_per_tick) as u64;
    (CONTENDED_NOTICES_TARGET / per_pass.max(1)).clamp(1, 64) as usize
}

/// Evenly spaced open-loop arrivals replayed through the deterministic
/// write-burst model (`run_burst_model`) per path and mix.
const MODEL_ARRIVALS: usize = 1_000_000;

/// Seqlock retries on one query beyond which the flight recorder dumps
/// a retry-storm artifact. Normal contention costs single-digit
/// retries; thousands mean a writer is starving its readers.
const RETRY_STORM_THRESHOLD: u64 = 1_000;

/// Events per tracer ring backing the retry-storm recorder.
const RING_CAPACITY: usize = 4096;

/// Events drained into a flight-recorder dump.
const FLIGHT_LAST_N: usize = 256;

/// Where flight-recorder JSONL artifacts land.
const FLIGHT_DIR: &str = "target/flight-recorder";

fn contended_json(r: &ContendedResult) -> Json {
    let mut j = Json::object();
    j.set("queries_per_sec", r.queries_per_sec())
        .set("p50_us", r.hdr.quantile(0.50) as f64 / 1000.0)
        .set("p99_us", r.hdr.quantile(0.99) as f64 / 1000.0)
        .set("p999_us", r.hdr.quantile(0.999) as f64 / 1000.0)
        .set("p9999_us", r.hdr.quantile(0.9999) as f64 / 1000.0)
        .set("burst_queries", r.burst_hdr.count())
        .set("burst_p50_us", r.burst_quantile(0.50) as f64 / 1000.0)
        .set("burst_p99_us", r.burst_quantile(0.99) as f64 / 1000.0)
        .set("burst_p999_us", r.burst_quantile(0.999) as f64 / 1000.0)
        .set("burst_p9999_us", r.burst_quantile(0.9999) as f64 / 1000.0)
        .set("latency_hdr_ns", hdr_json(&r.hdr))
        .set("queries", r.queries)
        .set("found", r.found)
        .set("read_retries", r.read_retries)
        .set("retries_per_query", r.retries_per_query())
        .set("slot_publishes", r.slot_publishes)
        .set("wall_secs", r.wall_secs);
    j
}

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

fn print_contended(label: &str, r: &ContendedResult) {
    println!(
        "  {label}: {:>10.0} q/s  burst p50 {:>7.2} us  p99 {:>8.2} us  p999 {:>8.2} us  ({} burst queries, {} retries, {} publishes)",
        r.queries_per_sec(),
        r.burst_quantile(0.50) as f64 / 1000.0,
        r.burst_quantile(0.99) as f64 / 1000.0,
        r.burst_quantile(0.999) as f64 / 1000.0,
        r.burst_hdr.count(),
        r.read_retries,
        r.slot_publishes,
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (args, json_path) = take_flag(args, "--json");
    let (args, readers_arg) = take_flag(args, "--readers");
    let (args, jobs) = take_jobs(args);
    let (args, smoke_only) = take_switch(args, "--smoke");
    reject_unknown(&args);
    let readers: usize = readers_arg.map_or_else(default_readers, |v| {
        v.parse().unwrap_or_else(|_| {
            eprintln!("--readers must be a positive integer");
            std::process::exit(2);
        })
    });

    let bases: Vec<fn() -> Workload> = if smoke_only {
        vec![Workload::smoke]
    } else {
        vec![Workload::full, Workload::smoke]
    };

    let mut report = RunReport::new("mix_throughput", Workload::smoke().seed);
    report.config("jobs", jobs as u64);
    report.config("readers", readers as u64);
    report.artifact("flight_recorder_dir", FLIGHT_DIR);
    let mut rows = Vec::new();
    let mut total_dumps = 0u64;
    for base in bases {
        for mix in Mix::ALL {
            let w = base().with_mix(mix);
            eprintln!(
                "[{}] {} users, mix {}: {} ticks x ({} moves + {} queries), {} readers ...",
                w.name,
                w.users,
                mix.name(),
                w.ticks,
                w.updates_per_tick,
                w.queries_per_tick,
                readers,
            );
            let trace = generate_trace(&w);
            // Unmeasured warmup replay: the first section of a fresh
            // process otherwise pays cold caches and page faults that
            // later sections don't.
            let _ = run_sharded_with(&w, &trace, jobs, ReadPath::Seqlock);
            let (sharded, _) = run_sharded_with(&w, &trace, jobs, ReadPath::Seqlock);
            let (locked, _) = run_sharded_with(&w, &trace, jobs, ReadPath::Locked);
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

            let tracer = Arc::new(Tracer::new(w.shards, RING_CAPACITY));
            let recorder =
                FlightRecorder::new(Arc::clone(&tracer), Path::new(FLIGHT_DIR), FLIGHT_LAST_N)
                    .with_retry_threshold(RETRY_STORM_THRESHOLD);
            let passes = contended_passes(&w);
            let cont_seq = run_contended(
                &w,
                &trace,
                readers,
                WRITE_BURST_TICKS,
                passes,
                ReadPath::Seqlock,
                Some(&recorder),
            );
            total_dumps += recorder.dumps();
            let cont_locked = run_contended(
                &w,
                &trace,
                readers,
                WRITE_BURST_TICKS,
                passes,
                ReadPath::Locked,
                None,
            );
            let model_seq = run_burst_model(
                &w,
                &trace,
                WRITE_BURST_TICKS,
                MODEL_ARRIVALS,
                ReadPath::Seqlock,
                &sharded.latency_hdr(),
            );
            let model_lck = run_burst_model(
                &w,
                &trace,
                WRITE_BURST_TICKS,
                MODEL_ARRIVALS,
                ReadPath::Locked,
                &locked.latency_hdr(),
            );

            println!("== {} ==", w.name);
            sharded.print_row("seqlock ");
            locked.print_row("locked  ");
            print_contended("cont-seq", &cont_seq);
            print_contended("cont-lck", &cont_locked);
            let seq_p999 = model_seq.hdr.quantile(0.999).max(1) as f64;
            let lck_p999 = model_lck.hdr.quantile(0.999).max(1) as f64;
            println!(
                "  burst model: hold {:.1} us, duty {:.1}%  ->  p999 locked {:.2} us vs seqlock {:.2} us",
                model_lck.hold_ns as f64 / 1000.0,
                model_lck.duty * 100.0,
                lck_p999 / 1000.0,
                seq_p999 / 1000.0,
            );
            println!(
                "  write-burst p999: locked/seqlock = {:.1}x  (checksum {:016x})",
                lck_p999 / seq_p999,
                sharded.checksum,
            );

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
                .set("readers", readers as u64)
                .set("write_burst_ticks", WRITE_BURST_TICKS)
                .set("writer_passes", passes as u64)
                .set("seed", w.seed);
            let mut speedup = Json::object();
            speedup
                .set("p999_write_burst", lck_p999 / seq_p999)
                .set(
                    "p999_contended",
                    cont_locked.burst_quantile(0.999).max(1) as f64
                        / cont_seq.burst_quantile(0.999).max(1) as f64,
                )
                .set(
                    "queries_per_sec_barriered",
                    sharded.queries_per_sec() / locked.queries_per_sec(),
                )
                .set(
                    "queries_per_sec_contended",
                    cont_seq.queries_per_sec() / cont_locked.queries_per_sec().max(1e-9),
                );
            let mut section = Json::object();
            section
                .set("config", config)
                .set("sharded", sharded.to_json())
                .set("locked", locked.to_json())
                .set("contended_seqlock", contended_json(&cont_seq))
                .set("contended_locked", contended_json(&cont_locked))
                .set("burst_model_seqlock", burst_model_json(&model_seq))
                .set("burst_model_locked", burst_model_json(&model_lck))
                .set("speedup", speedup);
            report.section(w.name, section);
            rows.extend(gate::mix_throughput(
                w.name,
                model_lck.hold_ns as f64 / 1000.0,
            ));
        }
    }
    report.artifact("flight_recorder_dumps", total_dumps);
    gate::finish(&report, json_path.as_deref(), &rows);
}
