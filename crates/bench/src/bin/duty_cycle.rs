//! Regenerates the paper's §4.2/§5 sizing numbers (experiment S5).
//!
//! Usage: `cargo run -p bips-bench --bin duty_cycle --release [replications] [seed] [--jobs N] [--json PATH]`
//!
//! `--jobs N` sets the replication/sweep worker count (`0` / absent =
//! the `BIPS_JOBS` env var, else the machine width). Results are
//! bit-identical for every value; see `docs/OBSERVABILITY.md`.
//!
//! With `--json PATH`, a structured run report (config, seed, sweep and
//! trade-off series) is written to `PATH`.

// Bench binary: wall-clock reads feed the perf report
// (artifacts.wall_secs), not simulation results.
#![allow(clippy::disallowed_methods)]

use bips_bench::duty::{
    render_tradeoff, run_dwell, run_sweep, run_tradeoff, DutySweepConfig, TradeoffConfig,
};
use bips_bench::telemetry::{self, Positionals};
use desim::{Json, RunReport};

fn main() {
    let (args, json_path) = telemetry::take_flag(std::env::args().skip(1).collect(), "--json");
    let (args, jobs) = telemetry::take_jobs(args);
    let mut args = Positionals::new(args, 2);
    let mut cfg = DutySweepConfig {
        jobs,
        ..DutySweepConfig::default()
    };
    if let Some(replications) = args.next("replications") {
        cfg.replications = replications;
    }
    if let Some(seed) = args.next("seed") {
        cfg.seed = seed;
    }
    let wall_start = std::time::Instant::now();
    let sweep = run_sweep(&cfg);
    print!("{}", sweep.render(cfg.slaves));
    println!();
    let dwell = run_dwell(cfg.seed);
    print!("{}", dwell.render());
    println!();
    let tradeoff = run_tradeoff(&TradeoffConfig {
        jobs,
        ..TradeoffConfig::default()
    });
    print!("{}", render_tradeoff(&tradeoff));
    let wall_secs = wall_start.elapsed().as_secs_f64();
    eprintln!(
        "[jobs={}, {:.2} s wall]",
        desim::par::resolve_jobs(jobs),
        wall_secs
    );

    if let Some(path) = json_path {
        let mut report = RunReport::new("duty_cycle", cfg.seed);
        report
            .config("replications", cfg.replications)
            .config("slaves", cfg.slaves)
            .config("jobs", desim::par::resolve_jobs(jobs) as u64);
        report.artifact("wall_secs", wall_secs);
        report
            .artifact("dwell.paper_estimate_s", dwell.paper_estimate_s)
            .artifact("dwell.monte_carlo_s", dwell.monte_carlo_s)
            .artifact("dwell.tracking_load", dwell.tracking_load);
        let mut sweep_json = Json::object();
        for p in &sweep.points {
            sweep_json.set(&format!("{:.2}s", p.inquiry_s), p.discovered);
        }
        report.section("sweep_discovered", sweep_json);
        let mut trade = Vec::new();
        for p in &tradeoff {
            let mut row = Json::object();
            row.set("inquiry_s", p.inquiry_s)
                .set("load", p.load)
                .set("detection_latency_s", p.detection_latency_s)
                .set("samples", p.samples)
                .set("missed", p.missed);
            trade.push(row);
        }
        report.section("tradeoff", Json::from(trade));
        telemetry::write_report(&report, &path);
    }
}
