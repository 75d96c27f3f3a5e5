//! `bips-sim` — run a BIPS deployment scenario from the command line.
//!
//! ```console
//! $ bips-sim --building department --users 6 --duration 900 --seed 42
//! $ bips-sim --building office:3 --users 10 --inquiry 3.84 --cycle 15.4
//! $ bips-sim --building corridor:5 --users 2 --query alice:bob
//! $ bips-sim --file examples/department.bips --json run.json
//! ```
//!
//! With `--file`, the scenario text format (see [`bips::scenario`]) defines
//! everything and the other simulation flags are ignored. Every run is
//! deterministic in its seed.
//!
//! `--json PATH` writes a structured run report (config, seed, headline
//! numbers, full metric snapshot); `--jsonl PATH` appends the same report
//! as one compact line, for accumulating sweeps. The JSON schema and the
//! metric catalog are documented in `docs/OBSERVABILITY.md`.

// Operator-facing binary: timing the run for the human at the
// terminal is fine; simulation results never depend on it.
#![allow(clippy::disallowed_methods)]

use bips::core::system::{BipsSystem, SysEvent, SystemConfig, UserSpec};
use bips::mobility::RoomId;
use bips::sim::probe::{EngineProbe, ProbeHandle};
use bips::sim::{MetricSet, RunReport, SimDuration, SimTime};

struct Args {
    building: String,
    users: usize,
    duration_s: u64,
    seed: u64,
    inquiry_s: f64,
    cycle_s: f64,
    batch: bool,
    query: Option<(String, String)>,
    json: Option<String>,
    jsonl: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: bips-sim [--building department|office:<floors>|corridor:<rooms>]\n\
         \x20               [--users N] [--duration SECONDS] [--seed SEED]\n\
         \x20               [--inquiry SECS] [--cycle SECS] [--batch]\n\
         \x20               [--query USER:TARGET]\n\
         \x20               [--json PATH] [--jsonl PATH]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        building: "department".into(),
        users: 6,
        duration_s: 900,
        seed: 42,
        inquiry_s: 3.84,
        cycle_s: 15.4,
        batch: false,
        query: None,
        json: None,
        jsonl: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = |name: &str| -> String {
            it.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                usage()
            })
        };
        match flag.as_str() {
            "--building" => args.building = val("--building"),
            "--users" => args.users = val("--users").parse().unwrap_or_else(|_| usage()),
            "--duration" => args.duration_s = val("--duration").parse().unwrap_or_else(|_| usage()),
            "--seed" => args.seed = val("--seed").parse().unwrap_or_else(|_| usage()),
            "--inquiry" => args.inquiry_s = val("--inquiry").parse().unwrap_or_else(|_| usage()),
            "--cycle" => args.cycle_s = val("--cycle").parse().unwrap_or_else(|_| usage()),
            "--batch" => args.batch = true,
            "--query" => {
                let v = val("--query");
                let Some((a, b)) = v.split_once(':') else {
                    usage()
                };
                args.query = Some((a.to_string(), b.to_string()));
            }
            "--json" => args.json = Some(val("--json")),
            "--jsonl" => args.jsonl = Some(val("--jsonl")),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other}");
                usage()
            }
        }
    }
    if args.users == 0 || args.inquiry_s <= 0.0 || args.cycle_s < args.inquiry_s {
        usage();
    }
    args
}

/// Event classification for the engine probe's per-type profiles.
fn classify(ev: &SysEvent) -> &'static str {
    match ev {
        SysEvent::Bb(ev) => ev.census_label(),
        SysEvent::Lan(_) => "lan",
        SysEvent::Tr(_) => "transport",
        SysEvent::Mob(_) => "mobility",
        SysEvent::Sweep { .. } => "sweep",
        SysEvent::Cmd(_) => "cmd",
    }
}

/// Collects the run's full metric snapshot (substrates + engine probe).
fn snapshot(sys: &BipsSystem, probe: &ProbeHandle, end: SimTime) -> MetricSet {
    let mut metrics = MetricSet::new();
    sys.export_metrics(&mut metrics, end);
    probe.borrow().export_into(&mut metrics, end);
    metrics
}

/// Writes the structured report wherever the user asked for it.
fn emit_report(report: &RunReport, json: Option<&str>, jsonl: Option<&str>) {
    if let Some(path) = json {
        report.write_json(path).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(2);
        });
        eprintln!("wrote {path}");
    }
    if let Some(path) = jsonl {
        report.append_jsonl(path).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(2);
        });
        eprintln!("appended to {path}");
    }
}

fn run_scenario_file(path: &str, json: Option<&str>, jsonl: Option<&str>) {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(1);
    });
    let scenario = bips::scenario::Scenario::parse(&text).unwrap_or_else(|e| {
        eprintln!("{path}:{e}");
        std::process::exit(1);
    });
    let building = scenario.config.building.clone();
    let names: Vec<String> = scenario.users.iter().map(|u| u.name.clone()).collect();
    let duration = scenario.duration;
    let seed = scenario.seed;
    println!(
        "bips-sim: scenario {path} ({} rooms, {} users, {}s, seed {})",
        building.num_rooms(),
        names.len(),
        duration.as_secs_f64(),
        seed
    );
    let mut engine = scenario.into_engine();
    let probe = EngineProbe::new(classify);
    let handle = probe.handle();
    engine.attach_observer(Box::new(probe));
    let end = SimTime::ZERO + duration;
    engine.run_until(end);
    let metrics = snapshot(engine.world(), &handle, end);
    report(engine.world(), &building, &names, end, true);
    println!("\n— telemetry —");
    print!("{metrics}");

    if json.is_some() || jsonl.is_some() {
        let mut run = RunReport::new("bips-sim", seed);
        run.config("scenario_file", path)
            .config("users", names.len())
            .config("duration_s", duration.as_secs_f64());
        let sys = engine.world();
        headline_artifacts(&mut run, sys, names.len());
        run.metrics(&metrics);
        emit_report(&run, json, jsonl);
    }
}

/// The headline numbers every bips-sim report carries.
fn headline_artifacts(run: &mut RunReport, sys: &BipsSystem, users: usize) {
    let st = sys.stats();
    run.artifact("users", users)
        .artifact("logins_completed", st.logins_completed)
        .artifact("tracking_accuracy", sys.tracking_accuracy())
        .artifact("presence_updates_sent", st.presence_updates_sent)
        .artifact("presence_messages_sent", st.presence_messages_sent)
        .artifact("naive_announcements", st.naive_announcements)
        .artifact("heartbeats_sent", st.heartbeats_sent)
        .artifact("missed_detections", st.missed_detections)
        .artifact("detection_latency_mean_s", sys.detection_latency().mean());
}

fn report(
    sys: &BipsSystem,
    building: &bips::mobility::Building,
    names: &[String],
    end: SimTime,
    show_queries: bool,
) {
    let st = sys.stats();
    println!("\n== results ==");
    println!(
        "logins completed: {} ({} users)   accuracy now: {:.0}%",
        st.logins_completed,
        names.len(),
        sys.tracking_accuracy() * 100.0
    );
    println!(
        "presence: {} changes in {} LAN messages (+{} heartbeats; naive: {})",
        st.presence_updates_sent,
        st.presence_messages_sent,
        st.heartbeats_sent,
        st.naive_announcements
    );
    let lat = sys.detection_latency();
    if !lat.is_empty() {
        println!(
            "detection latency: {:.1}s mean over {} samples ({} visits missed)",
            lat.mean(),
            lat.len(),
            st.missed_detections
        );
    }
    println!("\nwhere is everyone?");
    for name in names {
        let loc = sys
            .db_cell_of(name)
            .map(|c| building.name(RoomId::new(c)).to_string())
            .unwrap_or_else(|| "out of coverage".to_string());
        println!("  {name:<12} {loc}");
    }
    if show_queries && !sys.queries().is_empty() {
        println!("\nqueries:");
        for q in sys.queries() {
            let verdict = match (&q.outcome, &q.history_outcome) {
                (Some(o), _) => format!("{o:?}"),
                (_, Some(h)) => format!("{h:?}"),
                _ => "(pending)".into(),
            };
            println!("  {}→{} at {}: {}", q.user, q.target, q.issued_at, verdict);
        }
    }
    println!("\noccupancy (time-weighted devices per cell):");
    for (room, avg) in sys.cell_occupancy(end).iter().enumerate() {
        if *avg > 0.005 {
            println!("  {:<12} {avg:.2}", building.name(RoomId::new(room)));
        }
    }
}

fn main() {
    // --file mode takes over; only the report flags still apply.
    let argv: Vec<String> = std::env::args().collect();
    if let Some(pos) = argv.iter().position(|a| a == "--file") {
        let take = |flag: &str| {
            argv.iter()
                .position(|a| a == flag)
                .and_then(|i| argv.get(i + 1))
                .map(String::as_str)
        };
        match argv.get(pos + 1) {
            Some(path) => return run_scenario_file(path, take("--json"), take("--jsonl")),
            None => usage(),
        }
    }
    let args = parse_args();
    let building = bips::scenario::preset(&args.building).unwrap_or_else(|| {
        eprintln!("unknown building {}", args.building);
        usage()
    });
    let n_rooms = building.num_rooms();
    let config = SystemConfig {
        building: building.clone(),
        duty: bips::baseband::params::DutyCycle::periodic(
            SimDuration::from_secs_f64(args.inquiry_s),
            SimDuration::from_secs_f64(args.cycle_s),
        ),
        sweep_interval: SimDuration::from_secs_f64(args.cycle_s),
        absence_timeout: SimDuration::from_secs_f64(2.0 * args.cycle_s),
        batch_updates: args.batch,
        ..SystemConfig::default()
    };

    println!(
        "bips-sim: {} ({} rooms), {} users, {}s, seed {}, inquiry {:.2}s / cycle {:.2}s{}",
        args.building,
        n_rooms,
        args.users,
        args.duration_s,
        args.seed,
        args.inquiry_s,
        args.cycle_s,
        if args.batch { ", batched updates" } else { "" }
    );

    let mut builder = BipsSystem::builder(config);
    let mut names = Vec::new();
    for i in 0..args.users {
        let name = match &args.query {
            Some((a, _)) if i == 0 => a.clone(),
            Some((_, b)) if i == 1 => b.clone(),
            _ => format!("user{i}"),
        };
        names.push(name.clone());
        builder = builder.user(UserSpec::new(name, i % n_rooms));
    }
    let mut engine = builder.into_engine(args.seed);
    let probe = EngineProbe::new(classify);
    let handle = probe.handle();
    engine.attach_observer(Box::new(probe));

    // Optional periodic query between the named pair.
    if let Some((from, to)) = &args.query {
        let mut t = 120u64;
        while t < args.duration_s {
            engine.schedule(
                SimTime::from_secs(t),
                SysEvent::locate(from.clone(), to.clone()),
            );
            t += 120;
        }
    }

    let end = SimTime::from_secs(args.duration_s);
    let wall_start = std::time::Instant::now();
    engine.run_until(end);
    let wall_secs = wall_start.elapsed().as_secs_f64();

    let metrics = snapshot(engine.world(), &handle, end);
    report(engine.world(), &building, &names, end, args.query.is_some());
    println!("\n— telemetry —");
    print!("{metrics}");

    if args.json.is_some() || args.jsonl.is_some() {
        let mut run = RunReport::new("bips-sim", args.seed);
        run.config("building", args.building.as_str())
            .config("users", args.users)
            .config("duration_s", args.duration_s)
            .config("inquiry_s", args.inquiry_s)
            .config("cycle_s", args.cycle_s)
            .config("batch_updates", args.batch);
        headline_artifacts(&mut run, engine.world(), args.users);
        run.artifact("wall_secs", wall_secs);
        run.metrics(&metrics);
        emit_report(&run, args.json.as_deref(), args.jsonl.as_deref());
    }
}
