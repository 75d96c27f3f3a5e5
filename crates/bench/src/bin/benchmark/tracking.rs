//! `tracking`: the paper's own pipeline — radios, mobility, LAN and the
//! central server — simulated by `BipsSystem` with walkers in a
//! multi-floor office, timed one virtual second at a time. The serving
//! layers do no work here.

use std::time::Instant;

use bips_core::protocol::LocateOutcome;
use bips_core::system::{BipsSystem, SysEvent, SystemConfig, UserSpec};
use bips_mobility::building::Building;
use bips_mobility::walker::WalkMode;
use desim::{Engine, Json, MetricSet, SeedDeriver, SimDuration, SimTime};

use crate::catalog::{self, TRACKING_COUNTERS};
use crate::measure::{nanos, repeat_setup, Latency, Overhead};
use crate::spans::{Spans, ROOT};
use crate::Outcome;

/// The tracking workload's size.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Floors of `Building::multi_floor_office` (six rooms each).
    pub floors: usize,
    /// Random walkers, pausing 10–60 s in each room.
    pub walkers: usize,
    /// Virtual length of the run, seconds; its two halves are the
    /// `.h1`/`.h2` metrics.
    pub virtual_secs: u64,
    /// Virtual seconds simulated during set-up, while everyone logs in.
    pub warmup_secs: u64,
    /// A random pair's `Locate` every this many virtual seconds.
    pub locate_every: u64,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Input and simulation seed.
    pub seed: u64,
}

impl Config {
    /// 600 walkers in 120 rooms for two virtual hours; nine set-ups of
    /// about a tenth of a second.
    pub fn full(seed: u64) -> Config {
        Config {
            floors: 20,
            walkers: 600,
            virtual_secs: 7200,
            warmup_secs: 120,
            locate_every: 30,
            setups: 9,
            seed,
        }
    }

    /// A seconds-scale size for the tests.
    #[cfg(test)]
    pub fn tiny(seed: u64) -> Config {
        Config {
            floors: 2,
            walkers: 12,
            virtual_secs: 600,
            warmup_secs: 60,
            locate_every: 30,
            setups: 2,
            seed,
        }
    }
}

/// Tracking accuracy is sampled this often, in virtual seconds.
const ACCURACY_EVERY: u64 = 30;

/// Locates issued this close to the end may still be in flight.
const ANSWER_GRACE_SECS: u64 = 60;

/// Builds the deployment, schedules the seeded `Locate`s and simulates
/// the warm-up. Returns the engine and the build and warm-up times.
fn build(cfg: &Config) -> (Engine<BipsSystem>, (f64, f64)) {
    let t0 = Instant::now();
    let sys = SystemConfig {
        building: Building::multi_floor_office(cfg.floors),
        ..SystemConfig::default()
    };
    let rooms = 6 * cfg.floors;
    let mut builder = BipsSystem::builder(sys);
    for i in 0..cfg.walkers {
        let walk = WalkMode::RandomWalk {
            pause: (SimDuration::from_secs(10), SimDuration::from_secs(60)),
        };
        builder = builder.user(UserSpec::new(format!("user{i}"), i % rooms).mode(walk));
    }
    let mut engine = builder.into_engine(cfg.seed);
    let mut rng = SeedDeriver::new(cfg.seed).rng(4);
    let mut t = cfg.warmup_secs + cfg.locate_every;
    while t < cfg.virtual_secs {
        let a = rng.below(cfg.walkers as u64);
        let b = (a + 1 + rng.below(cfg.walkers as u64 - 1)) % cfg.walkers as u64;
        engine.schedule(
            SimTime::from_secs(t),
            SysEvent::locate(format!("user{a}"), format!("user{b}")),
        );
        t += cfg.locate_every;
    }
    let t1 = Instant::now();
    engine.run_until(SimTime::from_secs(cfg.warmup_secs));
    let t2 = Instant::now();
    (engine, ((t1 - t0).as_secs_f64(), (t2 - t1).as_secs_f64()))
}

/// Everything the pass measured.
struct Pass {
    latency: Latency,
    host_secs: f64,
    virtual_secs: u64,
    applied: u64,
    /// `(events, host ns)` per half.
    halves: [(u64, u64); 2],
    /// Cumulative counters at the end of each half.
    counters: [MetricSet; 2],
    accuracy: f64,
    detect_mean: f64,
    events: u64,
    attempted: u64,
    failed: u64,
    overhead: Overhead,
}

fn run_pass(cfg: &Config, mut engine: Engine<BipsSystem>, trace: bool, spans: &mut Spans) -> Pass {
    let split = cfg.virtual_secs / 2;
    let mut latency = Latency::default();
    let mut overhead = Overhead::default();
    let mut halves = [(0u64, 0u64); 2];
    let mut counters = [MetricSet::new(), MetricSet::new()];
    let (mut accuracy, mut samples) = (0.0, 0u32);
    let mut host_ns = 0u64;
    let applied_before = applied(&engine);
    let (mut events_at, mut half_ns) = (engine.steps(), 0u64);
    for t in cfg.warmup_secs + 1..=cfg.virtual_secs {
        let traced = trace && t % 2 == 1;
        let t0 = Instant::now();
        engine.run_until(SimTime::from_secs(t));
        let t1 = Instant::now();
        let ns = nanos(t1 - t0);
        if traced {
            spans.push("sim.run_until", ROOT, t, t0, t1);
        } else {
            latency.record(ns);
        }
        overhead.put(traced, 1, ns as f64 * 1e-9);
        host_ns += ns;
        half_ns += ns;
        if t % ACCURACY_EVERY == 0 {
            accuracy += engine.world().tracking_accuracy();
            samples += 1;
        }
        if t == split || t == cfg.virtual_secs {
            let h = usize::from(t != split);
            halves[h] = (engine.steps() - events_at, half_ns);
            (events_at, half_ns) = (engine.steps(), 0);
            engine
                .world()
                .export_metrics(&mut counters[h], SimTime::from_secs(t));
        }
    }

    let end = SimTime::from_secs(cfg.virtual_secs);
    let world = engine.world();
    let rooms = 6 * cfg.floors;
    let (mut attempted, mut failed) = (0u64, 0u64);
    for q in world.queries() {
        if q.issued_at + SimDuration::from_secs(ANSWER_GRACE_SECS) > end {
            continue;
        }
        attempted += 1;
        let ok = match (&q.answered_at, &q.outcome) {
            (Some(_), Some(LocateOutcome::Found { cell, path, .. })) => {
                (*cell as usize) < rooms && path.last() == Some(cell)
            }
            (Some(_), Some(_)) => true,
            _ => false,
        };
        failed += u64::from(!ok);
    }
    let accuracy = accuracy / f64::from(samples.max(1));
    let detect_mean = world.detection_latency().mean();
    // The paper's budget: a walker is detected within one 15.4 s duty
    // cycle plus one sweep interval.
    attempted += 2;
    failed += u64::from(accuracy < 0.5) + u64::from(detect_mean.is_nan() || detect_mean > 30.8);
    Pass {
        latency,
        host_secs: host_ns as f64 * 1e-9,
        virtual_secs: cfg.virtual_secs - cfg.warmup_secs,
        applied: applied(&engine) - applied_before,
        halves,
        counters,
        accuracy,
        detect_mean,
        events: engine.steps(),
        attempted,
        failed,
        overhead,
    }
}

fn applied(engine: &Engine<BipsSystem>) -> u64 {
    engine.world().server().db().stats().applied
}

/// `tracking`: one pass of the full virtual run. The pass is a fixed
/// span of virtual time, so `--seconds` does not shorten it.
pub fn tracking(cfg: &Config, trace: bool) -> Outcome {
    let (engine, (build_s, warmup_s), setup_s) = repeat_setup(cfg.setups, || build(cfg), drop);
    let mut out = Outcome::new(trace);
    let mut spans = Spans::new(trace);
    let pass = run_pass(cfg, engine, trace, &mut spans);

    let m = &mut out.metrics;
    m.put("setup_s", setup_s.value, setup_s.samples);
    m.put("setup.registry_s", build_s, 1);
    m.put("setup.warmup_s", warmup_s, 1);
    m.put("throughput", pass.virtual_secs as f64 / pass.host_secs, 1);
    m.put("update_rate", pass.applied as f64 / pass.host_secs, 1);
    let (p50, p99) = pass.latency.p50_p99();
    m.put("latency_p50_us", p50 / 1e3, pass.latency.count());
    m.put("latency_p99_us", p99 / 1e3, pass.latency.count());

    m.put("sim.events", pass.events as f64, 1);
    for (h, name) in [(0, "sim.ns_per_event_h1"), (1, "sim.ns_per_event_h2")] {
        let (events, ns) = pass.halves[h];
        m.put(name, ns as f64 / events.max(1) as f64, events);
    }
    let counter = |h: usize, name: &str| pass.counters[h].counter_value(name).unwrap_or(0);
    for name in TRACKING_COUNTERS {
        for (h, value) in [
            (0, counter(0, name)),
            (1, counter(1, name) - counter(0, name)),
        ] {
            let metric = format!("{name}.h{}", h + 1);
            let spec = catalog::find(&metric).expect("hourly counters are declared");
            m.put(spec.name, value as f64, 1);
        }
    }
    m.put("tracking.accuracy", pass.accuracy, 1);
    m.put("tracking.detect_mean_s", pass.detect_mean, 1);
    m.put("trace.spans", spans.len() as f64, spans.len() as u64);
    pass.overhead.report(m);

    out.attempted += pass.attempted;
    out.failed += pass.failed;
    out.fingerprint("events", pass.events);
    out.fingerprint("db_applied", counter(1, "core.db.applied"));
    out.fingerprint("accuracy", Json::Num(pass.accuracy));
    out.fingerprint("detect_mean_s", Json::Num(pass.detect_mean));
    if trace {
        out.spans = Some(spans);
    }
    out
}
