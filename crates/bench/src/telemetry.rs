//! Cross-substrate telemetry for the report-emitting binaries.
//!
//! The discovery experiments (Table 1, Figure 2) only exercise the
//! baseband, but a run report should show the whole deployment's metric
//! catalog. [`system_snapshot`] runs a small fixed-configuration
//! [`BipsSystem`] with an [`EngineProbe`] attached and returns the
//! resulting [`MetricSet`] — names spanning `baseband.*`, `lan.*`,
//! `mobility.*`, `core.*` and `engine.*`. The binaries merge it into
//! their experiment metrics before writing the report, so every JSON
//! file documents the full catalog (`docs/OBSERVABILITY.md`).

use bips_core::system::{BipsSystem, SysEvent, SystemConfig, UserSpec};
use desim::probe::EngineProbe;
use desim::report::RunReport;

use crate::loadgen::Mix;
use desim::{MetricSet, SimDuration, SimTime};

/// Classifies a [`SysEvent`] for per-event-type engine profiling.
pub fn classify_sys(ev: &SysEvent) -> &'static str {
    match ev {
        SysEvent::Bb(_) => "bb",
        SysEvent::Lan(_) => "lan",
        SysEvent::Tr(_) => "transport",
        SysEvent::Mob(_) => "mobility",
        SysEvent::Sweep { .. } => "sweep",
        SysEvent::Cmd(_) => "cmd",
    }
}

/// Configuration of the telemetry snapshot run.
#[derive(Debug, Clone, Copy)]
pub struct SnapshotConfig {
    /// Mobile users in the deployment.
    pub users: usize,
    /// Virtual run length.
    pub duration: SimDuration,
    /// Run seed.
    pub seed: u64,
}

impl Default for SnapshotConfig {
    fn default() -> Self {
        SnapshotConfig {
            users: 4,
            duration: SimDuration::from_secs(400),
            seed: 77,
        }
    }
}

/// Runs a small full-stack deployment and returns its metric snapshot.
///
/// Deterministic in the seed; the attached engine probe adds `engine.*`
/// wall-time profiles (those vary run to run, the simulation does not).
pub fn system_snapshot(cfg: &SnapshotConfig) -> MetricSet {
    let sys_cfg = SystemConfig::default();
    let n_rooms = sys_cfg.building.num_rooms();
    let mut builder = BipsSystem::builder(sys_cfg);
    for i in 0..cfg.users {
        builder = builder.user(UserSpec::new(format!("user{i}"), i % n_rooms));
    }
    let mut engine = builder.into_engine(cfg.seed);
    let probe = EngineProbe::new(classify_sys);
    let handle = probe.handle();
    engine.attach_observer(Box::new(probe));

    let end = SimTime::ZERO + cfg.duration;
    engine.run_until(end);

    let mut metrics = MetricSet::new();
    engine.world().export_metrics(&mut metrics, end);
    handle.borrow().export_into(&mut metrics, end);
    metrics
}

/// Removes `flag PATH` from a raw argument list, returning the remaining
/// positional arguments and the path if the flag was present.
///
/// Lets the paper-artifact binaries keep their positional CLI while
/// gaining `--json PATH` / `--jsonl PATH` report flags.
pub fn take_flag(args: Vec<String>, flag: &str) -> (Vec<String>, Option<String>) {
    let mut rest = Vec::with_capacity(args.len());
    let mut value = None;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        if a == flag {
            match it.next() {
                Some(v) => value = Some(v),
                None => {
                    eprintln!("missing value for {flag}");
                    std::process::exit(2);
                }
            }
        } else {
            rest.push(a);
        }
    }
    (rest, value)
}

/// Removes every `switch` (a flag that takes no value) from a raw
/// argument list, returning the remaining arguments and whether it was
/// present.
pub fn take_switch(args: Vec<String>, switch: &str) -> (Vec<String>, bool) {
    let before = args.len();
    let rest: Vec<String> = args.into_iter().filter(|a| a != switch).collect();
    let present = rest.len() < before;
    (rest, present)
}

/// Exits with status 2, naming the first argument, if any argument is
/// left once the caller has taken every flag it knows: a mistyped flag
/// must fail the run, not silently change what runs or turn a gate off.
pub fn reject_unknown(args: &[String]) {
    if let Some(stray) = args.first() {
        eprintln!("unknown argument: {stray}");
        std::process::exit(2);
    }
}

/// Strips `--jobs N` from the CLI args, returning the remaining args and
/// the requested replication-worker count. `0` (the default) means
/// ambient: `BIPS_JOBS` if set, else the machine width (`desim::par`).
pub fn take_jobs(args: Vec<String>) -> (Vec<String>, usize) {
    let (rest, value) = take_flag(args, "--jobs");
    let jobs = value
        .map(|v| {
            v.parse().unwrap_or_else(|_| {
                eprintln!("--jobs must be a non-negative integer");
                std::process::exit(2);
            })
        })
        .unwrap_or(0);
    (rest, jobs)
}

/// Strips `--mix Q:U` from the CLI args, returning the remaining args
/// and the preset (the default mix when absent).
pub fn take_mix(args: Vec<String>) -> (Vec<String>, Mix) {
    let (rest, value) = take_flag(args, "--mix");
    let mix = value.map_or(Mix::default(), |s| {
        Mix::parse(&s).unwrap_or_else(|| {
            eprintln!("--mix must be one of 80:20, 50:50, 99:1 (got {s})");
            std::process::exit(2);
        })
    });
    (rest, mix)
}

/// Writes `report` to `path` (the `--json PATH` flag), exiting with
/// status 2 when the file cannot be written.
pub fn write_report(report: &RunReport, path: &str) {
    report.write_json(path).unwrap_or_else(|e| {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(2);
    });
    eprintln!("wrote {path}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_spans_all_substrates() {
        let cfg = SnapshotConfig {
            users: 2,
            duration: SimDuration::from_secs(120),
            seed: 3,
        };
        let m = system_snapshot(&cfg);
        for prefix in ["baseband.", "lan.", "mobility.", "core.", "engine."] {
            assert!(
                m.names().any(|n| n.starts_with(prefix)),
                "no {prefix}* metric in snapshot: {:?}",
                m.names().collect::<Vec<_>>()
            );
        }
        assert!(m.len() >= 10, "catalog too small: {} names", m.len());
    }

    #[test]
    fn snapshot_is_deterministic_in_the_seed() {
        let cfg = SnapshotConfig {
            users: 2,
            duration: SimDuration::from_secs(60),
            seed: 9,
        };
        let a = system_snapshot(&cfg);
        let b = system_snapshot(&cfg);
        // Wall-time profiles differ run to run; every simulation-domain
        // metric must not.
        for name in a.names() {
            if name.starts_with("engine.handle_nanos.") {
                continue;
            }
            assert_eq!(
                format!("{:?}", a.get(name)),
                format!("{:?}", b.get(name)),
                "metric {name} not deterministic"
            );
        }
    }

    #[test]
    fn take_flag_extracts_and_preserves_order() {
        let args = vec!["10".into(), "--json".into(), "out.json".into(), "7".into()];
        let (rest, path) = take_flag(args, "--json");
        assert_eq!(rest, vec!["10".to_string(), "7".to_string()]);
        assert_eq!(path.as_deref(), Some("out.json"));

        let (rest, path) = take_flag(vec!["5".into()], "--json");
        assert_eq!(rest, vec!["5".to_string()]);
        assert!(path.is_none());
    }
}
