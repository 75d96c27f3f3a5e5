//! Regenerates the paper's §4.1 table (experiment T1).
//!
//! Usage: `cargo run -p bips-bench --bin table1 --release [trials] [seed] [--jobs N] [--json PATH]`
//!
//! `--jobs N` sets the replication worker count (`0` / absent = the
//! `BIPS_JOBS` env var, else the machine width). Results are
//! bit-identical for every value; see `docs/OBSERVABILITY.md`.
//!
//! With `--json PATH`, a structured run report (config, seed, table rows,
//! full metric snapshot) is written to `PATH`; see `docs/OBSERVABILITY.md`.

// Bench binary: wall-clock reads feed the perf report
// (artifacts.wall_secs), not simulation results.
#![allow(clippy::disallowed_methods)]

use bips_bench::table1::{run_with_metrics, Table1Config};
use bips_bench::telemetry::{self, SnapshotConfig};

fn main() {
    let (args, json_path) = telemetry::take_flag(std::env::args().skip(1).collect(), "--json");
    let (args, jobs) = telemetry::take_jobs(args);
    let mut args = args.into_iter();
    let mut cfg = Table1Config {
        jobs,
        ..Table1Config::default()
    };
    if let Some(t) = args.next() {
        cfg.trials = t.parse().expect("trials must be an integer");
    }
    if let Some(s) = args.next() {
        cfg.seed = s.parse().expect("seed must be an integer");
    }
    let wall_start = std::time::Instant::now();
    let (result, mut metrics) = run_with_metrics(&cfg);
    let wall_secs = wall_start.elapsed().as_secs_f64();
    print!("{}", result.render());
    eprintln!(
        "[{} trials, jobs={}, {:.2} s wall]",
        cfg.trials,
        desim::par::resolve_jobs(cfg.jobs),
        wall_secs
    );
    println!("\n— telemetry (accumulated over {} trials) —", cfg.trials);
    print!("{metrics}");

    if let Some(path) = json_path {
        // The discovery experiment only exercises the baseband; fold in a
        // small full-deployment run so the report carries the complete
        // metric catalog (lan.*, mobility.*, core.*, engine.*).
        let snapshot = telemetry::system_snapshot(&SnapshotConfig {
            seed: cfg.seed,
            ..SnapshotConfig::default()
        });
        metrics.merge(&snapshot);
        let mut report = result.to_report(&cfg);
        report.artifact("wall_secs", wall_secs);
        report.metrics(&metrics);
        telemetry::write_report(&report, &path);
    }
}
