//! Runs the ablation suite (design-choice sensitivity).
//!
//! Usage: `cargo run -p bips-bench --bin ablations --release [replications] [seed] [--jobs N] [--json PATH]`
//!
//! `--jobs N` sets the replication worker count (`0` / absent = the
//! `BIPS_JOBS` env var, else the machine width). Results are
//! bit-identical for every value; see `docs/OBSERVABILITY.md`.
//!
//! With `--json PATH`, a structured run report (one section per ablation)
//! is written to `PATH`.

// Bench binary: wall-clock reads feed the perf report
// (artifacts.wall_secs), not simulation results.
#![allow(clippy::disallowed_methods)]

use bips_bench::ablations;
use bips_bench::telemetry;
use desim::{Json, RunReport};

fn main() {
    let (args, json_path) = telemetry::take_flag(std::env::args().skip(1).collect(), "--json");
    let (args, jobs) = telemetry::take_jobs(args);
    let mut args = args.into_iter();
    let reps: u64 = args
        .next()
        .map(|r| r.parse().expect("replications must be an integer"))
        .unwrap_or(150);
    // Default bumped 7 -> 8 when per-arm seed streams moved to
    // `SeedDeriver` (the old `seed ^ b` / `seed ^ p.to_bits()` arms were
    // correlated); reference numbers are re-baselined in EXPERIMENTS.md.
    let seed: u64 = args
        .next()
        .map(|s| s.parse().expect("seed must be an integer"))
        .unwrap_or(8);

    let wall_start = std::time::Instant::now();
    let suite = [
        (
            "a1_collision_handling",
            "A1 — FHS collision handling (20 slaves)",
            ablations::collision_handling(reps, seed, jobs),
        ),
        (
            "a2_backoff_bound",
            "A2 — response backoff bound (20 slaves)",
            ablations::backoff_bound(reps, seed, jobs),
        ),
        (
            "a3_scan_freq_model",
            "A3 — scan-frequency model (10 slaves)",
            ablations::scan_freq_model(reps, seed, jobs),
        ),
        (
            "a4_scan_duty",
            "A4 — slave scan duty (10 slaves)",
            ablations::scan_duty(reps, seed, jobs),
        ),
        (
            "a5_channel_errors",
            "A5 — channel errors (10 slaves; paper assumes error-free)",
            ablations::channel_errors(reps, seed, jobs),
        ),
    ];
    let wall_secs = wall_start.elapsed().as_secs_f64();
    eprintln!(
        "[{} replications/arm, jobs={}, {:.2} s wall]",
        reps,
        desim::par::resolve_jobs(jobs),
        wall_secs
    );

    let mut first = true;
    for (_, title, points) in &suite {
        if !first {
            println!();
        }
        first = false;
        print!("{}", ablations::render(title, points));
    }

    if let Some(path) = json_path {
        let mut report = RunReport::new("ablations", seed);
        report
            .config("replications", reps)
            .config("jobs", desim::par::resolve_jobs(jobs) as u64);
        report.artifact("wall_secs", wall_secs);
        for (key, _, points) in &suite {
            let mut rows = Vec::new();
            for p in points {
                let mut row = Json::object();
                row.set("label", p.label.as_str())
                    .set("in_first_phase", p.in_first_phase)
                    .set("in_horizon", p.in_horizon);
                rows.push(row);
            }
            report.section(key, Json::from(rows));
        }
        telemetry::write_report(&report, &path);
    }
}
