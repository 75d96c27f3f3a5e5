//! Perf report for the skip-ahead inquiry scheduler.
//!
//! Runs the Figure 2 inquiry workload twice — once with the naive
//! slot-ticking `InqTx` chain (`skip_ahead = false`) and once with the
//! skip-ahead scheduler — and reports dispatched-event counts and wall
//! time for both, plus the derived speedups. The two modes are
//! bit-identical in every observable (see
//! `crates/baseband/tests/skip_ahead_equivalence.rs`); this harness
//! measures only how much work the calendar avoids.
//!
//! Usage:
//!   cargo run -p bips-bench --bin perf_baseline --release -- \
//!       [--smoke] [--json PATH]
//!
//! By default both the `full` section and the `smoke` section (a
//! seconds-scale subset for CI) are run. `--smoke` runs the smoke
//! section only. `--json PATH` writes the run as a `bips-run-report/v1`
//! document with one section per workload (see `docs/PERF.md`).
//!
//! Nothing here is gated: the smoke shape's dispatched events (2,655
//! skip-ahead, 183,973 naive) and allocations are exact counts, pinned
//! by the `query_alloc` Tier-1 test on every host.

// Bench binary: wall-clock reads feed the perf report
// (artifacts.wall_secs), not simulation results.
#![allow(clippy::disallowed_methods)]

use std::time::Instant;

use bips_bench::figure2::PerfWorkload;
use bips_bench::telemetry::{reject_unknown, take_flag, take_switch, write_report};
use desim::report::{Json, RunReport};
use desim::SimTime;

/// Aggregate measurements for one scheduler mode over a workload.
struct ModeResult {
    wall_secs: f64,
    events: u64,
    discoveries: u64,
    virtual_secs: f64,
}

impl ModeResult {
    fn events_per_wall_sec(&self) -> f64 {
        self.events as f64 / self.wall_secs
    }
}

fn run_mode(w: &PerfWorkload, skip_ahead: bool) -> ModeResult {
    let start = Instant::now();
    let mut events = 0u64;
    let mut discoveries = 0u64;
    for mut engine in w.engines(skip_ahead) {
        engine.run_until(SimTime::ZERO + w.horizon);
        events += engine.steps();
        discoveries += engine.world().baseband().discoveries().len() as u64;
    }
    ModeResult {
        wall_secs: start.elapsed().as_secs_f64(),
        events,
        discoveries,
        virtual_secs: w.horizon.as_secs_f64()
            * (w.replications * w.slave_counts.len() as u64) as f64,
    }
}

fn run_workload(w: &PerfWorkload) -> (ModeResult, ModeResult) {
    let naive = run_mode(w, false);
    let skip = run_mode(w, true);
    // The equivalence suite proves bit-identity; this cheap cross-check
    // catches a build that silently diverges.
    assert_eq!(
        naive.discoveries, skip.discoveries,
        "modes disagree on total discoveries — scheduler equivalence broken"
    );
    (naive, skip)
}

fn mode_json(r: &ModeResult) -> Json {
    let mut j = Json::object();
    j.set("wall_secs", r.wall_secs)
        .set("events", r.events)
        .set("events_per_wall_sec", r.events_per_wall_sec())
        .set("virtual_secs_per_wall_sec", r.virtual_secs / r.wall_secs);
    j
}

fn section_json(w: &PerfWorkload, naive: &ModeResult, skip: &ModeResult) -> Json {
    let mut config = Json::object();
    config
        .set("slave_counts", w.slave_counts.clone())
        .set("replications", w.replications)
        .set("horizon_s", w.horizon.as_secs_f64())
        .set("seed", w.seed);
    let mut speedup = Json::object();
    speedup
        .set("events", naive.events as f64 / skip.events as f64)
        .set("wall", naive.wall_secs / skip.wall_secs);
    let mut j = Json::object();
    j.set("config", config)
        .set("naive", mode_json(naive))
        .set("skip_ahead", mode_json(skip))
        .set("speedup", speedup);
    j
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (args, json_path) = take_flag(args, "--json");
    let (args, smoke_only) = take_switch(args, "--smoke");
    reject_unknown(&args);

    let workloads = if smoke_only {
        vec![PerfWorkload::smoke()]
    } else {
        vec![PerfWorkload::full(), PerfWorkload::smoke()]
    };

    let mut report = RunReport::new("perf_baseline", workloads[0].seed);
    for w in &workloads {
        eprintln!(
            "[{}] {} slave counts x {} replications, {:?} horizon ...",
            w.name,
            w.slave_counts.len(),
            w.replications,
            w.horizon
        );
        let (naive, skip) = run_workload(w);
        println!("== {} ==", w.name);
        println!(
            "  naive:      {:>10} events  {:>8.3} s wall  {:>12.0} ev/s",
            naive.events,
            naive.wall_secs,
            naive.events_per_wall_sec()
        );
        println!(
            "  skip-ahead: {:>10} events  {:>8.3} s wall  {:>12.0} ev/s",
            skip.events,
            skip.wall_secs,
            skip.events_per_wall_sec()
        );
        println!(
            "  speedup:    {:>9.1}x events  {:>6.1}x wall",
            naive.events as f64 / skip.events as f64,
            naive.wall_secs / skip.wall_secs
        );
        report.section(w.name, section_json(w, &naive, &skip));
    }
    if let Some(path) = json_path {
        write_report(&report, &path);
    }
}
