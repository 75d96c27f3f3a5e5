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
//!
//! Re-recorded: `steps` fell from 72,069 to 29,298 when the skip-ahead
//! medium stopped scheduling slave scan-window and backoff events and
//! settled them in closed form instead, and from 29,298 to 28,942 (the
//! department run's from 14,051 to 13,940, which moves its digest) when
//! the calendar began ordering an instant's medium events by rank and
//! skip-ahead stopped requeueing `InqTx` events behind their instant.
//! Every other field held, and the eager medium (`skip_ahead = false`)
//! must still reproduce them, under both page models: that is the
//! system-level check of the skip-ahead scheduler, with a dozen masters
//! sharing slot grids and a duty-cycle origin, pages, links and
//! mobility-driven range flaps.
//!
//! The department pin covers the deployment's query path, which the
//! tracking run's counters do not see: every answer a handheld shows, when
//! it arrived, and the link and RPC traffic that carried it.

use bips::baseband::params::{MediumConfig, PageModel};
use bips::core::protocol::Response;
use bips::core::system::{BipsSystem, QueryKind, SysEvent, SystemConfig, UserSpec};
use bips::mobility::walker::WalkMode;
use bips::mobility::Building;
use bips::scenario::Scenario;
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
fn tracking_run(medium: MediumConfig) -> TrackingPin {
    const WALKERS: u64 = 24;
    const SECS: u64 = 900;
    const SEED: u64 = 2003;
    let sys = SystemConfig {
        building: Building::multi_floor_office(2),
        medium,
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

const RECORDED: TrackingPin = TrackingPin {
    steps: 28_942,
    db_applied: 730,
    ids_transmitted: 4_349_952,
    fhs_collisions: 50,
    accuracy_bits: 4_604_955_638_984_261_995,
    detect_mean_bits: 4_624_864_973_130_314_755,
};

#[test]
fn tracking_run_matches_the_recorded_event_stream() {
    assert_eq!(tracking_run(MediumConfig::default()), RECORDED);
}

/// The eager medium — every slot pair, scan window and backoff an event —
/// reproduces every recorded field but the event count.
#[test]
fn eager_medium_reproduces_the_recorded_run() {
    let eager = tracking_run(MediumConfig {
        skip_ahead: false,
        ..MediumConfig::default()
    });
    assert!(eager.steps > RECORDED.steps, "{} events", eager.steps);
    assert_eq!(
        TrackingPin {
            steps: RECORDED.steps,
            ..eager
        },
        RECORDED
    );
}

/// The same eager-against-default check with slot-accurate paging, whose
/// page-ID transmissions read the slaves' scan state too.
#[test]
fn eager_medium_matches_skip_ahead_with_slot_accurate_paging() {
    let medium = |skip_ahead| MediumConfig {
        page_model: PageModel::SlotAccurate,
        skip_ahead,
        ..MediumConfig::default()
    };
    let eager = tracking_run(medium(false));
    let skip = tracking_run(medium(true));
    assert!(
        eager.steps > skip.steps,
        "{} vs {}",
        eager.steps,
        skip.steps
    );
    assert_eq!(
        TrackingPin {
            steps: skip.steps,
            ..eager
        },
        skip
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

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(h: &mut u64, bytes: &[u8]) {
    for &byte in bytes {
        *h ^= u64::from(byte);
        *h = h.wrapping_mul(FNV_PRIME);
    }
}

fn fnv_u64(h: &mut u64, x: u64) {
    fnv(h, &x.to_le_bytes());
}

/// What the department scenario pins: a few readable totals and one
/// digest of everything else.
#[derive(Debug, PartialEq, Eq)]
struct DepartmentPin {
    steps: u64,
    logins_completed: u64,
    rpc_round_trips: u64,
    data_delivered: u64,
    queries_answered: u64,
    digest: u64,
}

/// `examples/department.bips` — six users, three locates, a server
/// restart at 600 s and a history query — run to completion. The digest
/// folds, in order: every query record (user, target, kind, issue and
/// answer instants in µs, and the answer's wire encoding), every
/// [`SystemStats`](bips::core::system::SystemStats) counter, the
/// medium's data and page counters, and the event count.
fn department_run() -> DepartmentPin {
    let scenario = Scenario::parse(include_str!("../examples/department.bips")).expect("parse");
    let (engine, _) = scenario.run();
    let world = engine.world();
    let mut h = FNV_OFFSET;
    for q in world.queries() {
        fnv(&mut h, q.user.as_bytes());
        fnv(&mut h, q.target.as_bytes());
        match q.kind {
            QueryKind::Locate => fnv_u64(&mut h, 0),
            QueryKind::History { from_us, to_us } => {
                fnv_u64(&mut h, 1);
                fnv_u64(&mut h, from_us);
                fnv_u64(&mut h, to_us);
            }
        }
        fnv_u64(&mut h, q.issued_at.as_micros());
        fnv_u64(&mut h, q.answered_at.map_or(u64::MAX, SimTime::as_micros));
        if let Some(o) = q.outcome {
            fnv(&mut h, &Response::LocateResult(o).encode());
        }
        if let Some(o) = q.history_outcome {
            fnv(&mut h, &Response::HistoryResult(o).encode());
        }
    }
    let s = world.stats();
    for x in [
        s.logins_completed,
        s.presence_updates_sent,
        s.presence_messages_sent,
        s.naive_announcements,
        s.queries_issued,
        s.queries_answered,
        s.heartbeats_sent,
        s.missed_detections,
        s.rpc_round_trips,
    ] {
        fnv_u64(&mut h, x);
    }
    let bb = world.baseband().stats();
    for x in [
        bb.data_delivered,
        bb.pages_started,
        bb.pages_completed,
        bb.pages_failed,
    ] {
        fnv_u64(&mut h, x);
    }
    fnv_u64(&mut h, engine.steps());
    DepartmentPin {
        steps: engine.steps(),
        logins_completed: s.logins_completed,
        rpc_round_trips: s.rpc_round_trips,
        data_delivered: bb.data_delivered,
        queries_answered: s.queries_answered,
        digest: h,
    }
}

#[test]
fn department_scenario_matches_the_recorded_queries() {
    assert_eq!(
        department_run(),
        DepartmentPin {
            steps: 13_940,
            logins_completed: 12,
            rpc_round_trips: 734,
            data_delivered: 32,
            queries_answered: 4,
            digest: 15_191_854_770_087_108_522,
        }
    );
}
