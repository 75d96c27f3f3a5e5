//! Perf baseline for the skip-ahead inquiry scheduler (PR 3).
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
//!       [--smoke] [--json PATH] [--check FILE]
//!
//! By default both the `full` section (the committed-baseline workload)
//! and the `smoke` section (a seconds-scale subset for CI) are run.
//! `--smoke` runs the smoke section only. `--json PATH` writes the run
//! as a `bips-run-report/v1` document with one section per workload
//! (see `docs/PERF.md`). `--check FILE` gates each section it ran
//! against the `perf_baseline` entry of a committed baseline file
//! (`BENCH.json`; table in [`bips_bench::gate::perf_baseline`]):
//!
//! | field | gate |
//! |-------|------|
//! | `skip_ahead.events` | ≤ committed + 20% |
//! | `skip_ahead.events_per_wall_sec` | ≥ committed − 20% |

// Bench binary: wall-clock reads feed the perf report
// (artifacts.wall_secs), not simulation results.
#![allow(clippy::disallowed_methods)]

use std::time::Instant;

use bips_bench::gate;
use bips_bench::telemetry::{reject_unknown, take_flag, take_switch};
use bt_baseband::hop::Train;
use bt_baseband::params::{
    DutyCycle, MediumConfig, ScanFreqModel, ScanPattern, StartFreq, StartTrain, TrainPolicy,
};
use bt_baseband::world::BasebandWorld;
use bt_baseband::{BdAddr, MasterConfig, SlaveConfig};
use desim::report::{Json, RunReport};
use desim::{SeedDeriver, SimDuration, SimTime};

/// One benchmark workload: the Figure 2 scenario family.
struct Workload {
    name: &'static str,
    slave_counts: Vec<usize>,
    replications: u64,
    horizon: SimDuration,
    seed: u64,
}

impl Workload {
    fn full() -> Workload {
        Workload {
            name: "full",
            slave_counts: vec![2, 4, 6, 8, 10, 15, 20],
            replications: 50,
            horizon: SimDuration::from_secs(14),
            seed: 1967,
        }
    }

    fn smoke() -> Workload {
        // Still seconds-scale, but large enough that the wall-clock
        // denominator of the events/sec gate is not timer noise.
        Workload {
            name: "smoke",
            slave_counts: vec![2, 6, 10],
            replications: 25,
            horizon: SimDuration::from_secs(14),
            seed: 1967,
        }
    }
}

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

/// The Figure 2 scenario (1 s / 5 s duty cycle, single train A, shared
/// scan sequence, FHS collisions, halting slaves) with the scheduler
/// mode overridden.
fn build_world(n: usize, skip_ahead: bool) -> BasebandWorld {
    let mut builder = BasebandWorld::builder().medium(MediumConfig {
        fhs_collisions: true,
        scan_freq_model: ScanFreqModel::SharedSequence,
        skip_ahead,
        ..MediumConfig::default()
    });
    builder = builder.master(
        MasterConfig::new(BdAddr::new(0xA0_0000))
            .duty(DutyCycle::periodic(
                SimDuration::from_secs(1),
                SimDuration::from_secs(5),
            ))
            .trains(TrainPolicy::Single)
            .start_train(StartTrain::Fixed(Train::A)),
    );
    for i in 0..n {
        builder = builder.slave(
            SlaveConfig::new(BdAddr::new(0x10_0000 + i as u64))
                .scan(ScanPattern::continuous_inquiry())
                .start_freq(StartFreq::InTrain(Train::A))
                .halt_when_discovered(true),
        );
    }
    builder.build()
}

fn run_mode(w: &Workload, skip_ahead: bool) -> ModeResult {
    // Replication seeding mirrors `figure2::run_with_metrics`: one
    // SeedDeriver stream per curve, keyed by the slave count.
    let curve_seeds = SeedDeriver::new(w.seed);
    let start = Instant::now();
    let mut events = 0u64;
    let mut discoveries = 0u64;
    for &n in &w.slave_counts {
        let rep_seeds = SeedDeriver::new(curve_seeds.derive(n as u64));
        for i in 0..w.replications {
            let mut engine = build_world(n, skip_ahead).into_engine(rep_seeds.derive(i));
            engine.run_until(SimTime::ZERO + w.horizon);
            events += engine.steps();
            discoveries += engine.world().baseband().discoveries().len() as u64;
        }
    }
    ModeResult {
        wall_secs: start.elapsed().as_secs_f64(),
        events,
        discoveries,
        virtual_secs: w.horizon.as_secs_f64()
            * (w.replications * w.slave_counts.len() as u64) as f64,
    }
}

fn run_workload(w: &Workload) -> (ModeResult, ModeResult) {
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

fn section_json(w: &Workload, naive: &ModeResult, skip: &ModeResult) -> Json {
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
    let (args, check_path) = take_flag(args, "--check");
    let (args, smoke_only) = take_switch(args, "--smoke");
    reject_unknown(&args);

    let workloads = if smoke_only {
        vec![Workload::smoke()]
    } else {
        vec![Workload::full(), Workload::smoke()]
    };

    let mut report = RunReport::new("perf_baseline", workloads[0].seed);
    let mut rows = Vec::new();
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
        rows.extend(gate::perf_baseline(w.name));
    }
    gate::finish(&report, json_path.as_deref(), check_path.as_deref(), &rows);
}
