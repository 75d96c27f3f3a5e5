//! Cross-commit golden pin: exact counters and float bits of a small
//! tracking run and a small Table 1 run.
//!
//! The equivalence suites (`skip_ahead_equivalence`, `parallel_determinism`,
//! the observer tests) compare two modes of one build, so an ordering
//! change that both modes share passes them. These values were recorded
//! before the calendar, location-DB and medium fast paths were rewritten,
//! and every rewrite since must reproduce them bit for bit: same events
//! dispatched, same RNG draws, same answers. A change that alters the
//! event stream on purpose re-records them and says why.

use bips::core::system::{BipsSystem, SysEvent, SystemConfig, UserSpec};
use bips::mobility::walker::WalkMode;
use bips::mobility::Building;
use bips::sim::{SeedDeriver, SimDuration, SimTime};
use bips_bench::table1::{run as run_t1, Table1Config};

/// What the small tracking run pins.
#[derive(Debug, PartialEq, Eq)]
struct TrackingPin {
    steps: u64,
    db_applied: u64,
    ids_transmitted: u64,
    fhs_collisions: u64,
    accuracy_bits: u64,
    detect_mean_bits: u64,
}

/// 24 walkers in a two-floor office (12 rooms) for 900 virtual seconds,
/// with a random pair's `Locate` every 30 s — the `tracking` benchmark
/// workload at a size debug builds run in seconds.
fn tracking_run() -> TrackingPin {
    const WALKERS: u64 = 24;
    const SECS: u64 = 900;
    const SEED: u64 = 2003;
    let sys = SystemConfig {
        building: Building::multi_floor_office(2),
        ..SystemConfig::default()
    };
    let mut builder = BipsSystem::builder(sys);
    for i in 0..WALKERS as usize {
        let walk = WalkMode::RandomWalk {
            pause: (SimDuration::from_secs(10), SimDuration::from_secs(60)),
        };
        builder = builder.user(UserSpec::new(format!("user{i}"), i % 12).mode(walk));
    }
    let mut engine = builder.into_engine(SEED);
    let mut rng = SeedDeriver::new(SEED).rng(4);
    for t in (60..SECS).step_by(30) {
        let a = rng.below(WALKERS);
        let b = (a + 1 + rng.below(WALKERS - 1)) % WALKERS;
        engine.schedule(
            SimTime::from_secs(t),
            SysEvent::locate(format!("user{a}"), format!("user{b}")),
        );
    }
    let mut accuracy = 0.0;
    for t in (30..=SECS).step_by(30) {
        engine.run_until(SimTime::from_secs(t));
        accuracy += engine.world().tracking_accuracy();
    }
    accuracy /= (SECS / 30) as f64;

    let world = engine.world();
    let mut m = bips::sim::MetricSet::new();
    world.export_metrics(&mut m, engine.now());
    let counter = |name: &str| m.counter_value(name).expect(name);
    TrackingPin {
        steps: engine.steps(),
        db_applied: counter("core.db.applied"),
        ids_transmitted: counter("baseband.inquiry.ids_transmitted"),
        fhs_collisions: counter("baseband.inquiry.fhs_collisions"),
        accuracy_bits: accuracy.to_bits(),
        detect_mean_bits: world.detection_latency().mean().to_bits(),
    }
}

#[test]
fn tracking_run_matches_the_recorded_event_stream() {
    assert_eq!(
        tracking_run(),
        TrackingPin {
            steps: 72_069,
            db_applied: 730,
            ids_transmitted: 4_349_952,
            fhs_collisions: 50,
            accuracy_bits: 4_604_955_638_984_261_995,
            detect_mean_bits: 4_624_864_973_130_314_755,
        }
    );
}

#[test]
fn table1_run_matches_the_recorded_means() {
    let r = run_t1(&Table1Config {
        trials: 60,
        horizon: SimDuration::from_secs(60),
        seed: 2003,
        jobs: 1,
    });
    let got: Vec<(u64, u64)> = r
        .rows
        .iter()
        .map(|row| (row.cases, row.mean_secs.to_bits()))
        .collect();
    assert_eq!(
        got,
        vec![
            (29, 4_611_958_296_937_187_065),
            (31, 4_617_335_641_152_476_346),
            (60, 4_615_328_703_382_240_799),
        ]
    );
}
