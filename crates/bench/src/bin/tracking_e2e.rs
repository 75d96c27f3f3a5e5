//! Runs the full BIPS deployment end to end (experiment E2E).
//!
//! Usage: `cargo run -p bips-bench --bin tracking_e2e --release [users] [seconds] [seed] [--jobs N] [--json PATH]`
//!
//! `--jobs N` is accepted for CLI uniformity and recorded in the run
//! report; the e2e run is a single coupled engine with nothing to
//! parallelise.
//!
//! With `--json PATH`, a structured run report (config, seed, pipeline
//! numbers, full metric snapshot) is written to `PATH`.

// Bench binary: wall-clock reads feed the perf report
// (artifacts.wall_secs), not simulation results.
#![allow(clippy::disallowed_methods)]

use bips_bench::e2e::{run_with_metrics, E2eConfig};
use bips_bench::telemetry;
use desim::SimDuration;

fn main() {
    let (args, json_path) = telemetry::take_flag(std::env::args().skip(1).collect(), "--json");
    let (args, jobs) = telemetry::take_jobs(args);
    let mut args = args.into_iter();
    let mut cfg = E2eConfig {
        jobs,
        ..E2eConfig::default()
    };
    if let Some(u) = args.next() {
        cfg.users = u.parse().expect("users must be an integer");
    }
    if let Some(d) = args.next() {
        cfg.duration = SimDuration::from_secs(d.parse().expect("seconds must be an integer"));
    }
    if let Some(s) = args.next() {
        cfg.seed = s.parse().expect("seed must be an integer");
    }
    let wall_start = std::time::Instant::now();
    let (result, metrics) = run_with_metrics(&cfg);
    let wall_secs = wall_start.elapsed().as_secs_f64();
    print!("{}", result.render());
    println!("\n— telemetry —");
    print!("{metrics}");

    if let Some(path) = json_path {
        let mut report = result.to_report(&cfg);
        report.artifact("wall_secs", wall_secs);
        report.metrics(&metrics);
        telemetry::write_report(&report, &path);
    }
}
