//! Runs the full BIPS deployment end to end (experiment E2E).
//!
//! Usage: `cargo run -p bips-bench --bin tracking_e2e --release [users] [seconds] [seed] [--json PATH]`
//!
//! The run is one coupled engine on one thread, so it takes no `--jobs`.
//!
//! With `--json PATH`, a structured run report (config, seed, pipeline
//! numbers, full metric snapshot) is written to `PATH`.

// Bench binary: wall-clock reads feed the perf report
// (artifacts.wall_secs), not simulation results.
#![allow(clippy::disallowed_methods)]

use bips_bench::e2e::{run_with_metrics, E2eConfig};
use bips_bench::telemetry::{self, Positionals};
use desim::SimDuration;

fn main() {
    let (args, json_path) = telemetry::take_flag(std::env::args().skip(1).collect(), "--json");
    let mut args = Positionals::new(args, 3);
    let mut cfg = E2eConfig::default();
    if let Some(users) = args.next("users") {
        cfg.users = users;
    }
    if let Some(seconds) = args.next("seconds") {
        cfg.duration = SimDuration::from_secs(seconds);
    }
    if let Some(seed) = args.next("seed") {
        cfg.seed = seed;
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
