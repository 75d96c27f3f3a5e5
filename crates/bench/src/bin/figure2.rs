//! Regenerates the paper's Figure 2 (experiment F2).
//!
//! Prints a summary table and the full CSV series.
//!
//! Usage: `cargo run -p bips-bench --bin figure2 --release [replications] [seed] [svg-path] [--jobs N] [--json PATH]`
//!
//! `--jobs N` sets the replication worker count (`0` / absent = the
//! `BIPS_JOBS` env var, else the machine width). Results are
//! bit-identical for every value; see `docs/OBSERVABILITY.md`.
//!
//! When an `svg-path` is given, the figure is also written as an SVG plot.
//! With `--json PATH`, a structured run report (config, seed, curve
//! readings + series, full metric snapshot) is written to `PATH`; see
//! `docs/OBSERVABILITY.md`.

// Bench binary: wall-clock reads feed the perf report
// (artifacts.wall_secs), not simulation results.
#![allow(clippy::disallowed_methods)]

use bips_bench::figure2::{run_with_metrics, Figure2Config};
use bips_bench::telemetry::{self, Positionals, SnapshotConfig};

fn main() {
    let (args, json_path) = telemetry::take_flag(std::env::args().skip(1).collect(), "--json");
    let (args, jobs) = telemetry::take_jobs(args);
    let mut args = Positionals::new(args, 3);
    let mut cfg = Figure2Config {
        jobs,
        ..Figure2Config::default()
    };
    if let Some(replications) = args.next("replications") {
        cfg.replications = replications;
    }
    if let Some(seed) = args.next("seed") {
        cfg.seed = seed;
    }
    let svg_path: Option<String> = args.next("svg-path");
    let wall_start = std::time::Instant::now();
    let (result, mut metrics) = run_with_metrics(&cfg);
    let wall_secs = wall_start.elapsed().as_secs_f64();
    eprintln!(
        "[{} replications/curve, jobs={}, {:.2} s wall]",
        cfg.replications,
        desim::par::resolve_jobs(cfg.jobs),
        wall_secs
    );
    print!("{}", result.render_summary());
    println!();
    print!("{}", result.render_csv());
    println!("\n— telemetry (accumulated over all curves) —");
    print!("{metrics}");
    if let Some(path) = svg_path {
        std::fs::write(&path, result.render_svg()).expect("write svg");
        eprintln!("wrote {path}");
    }

    if let Some(path) = json_path {
        // Fold in a small full-deployment run so the report carries the
        // complete metric catalog (lan.*, mobility.*, core.*, engine.*).
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
