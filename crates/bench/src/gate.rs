//! CI regression gates for the bench binaries, one table per bench.
//!
//! `--check FILE` names the committed baselines: `BENCH.json`, keyed by
//! bench name, each entry the report that bench wrote when its numbers
//! were recorded. A bench hands [`finish`] its own report and the rows
//! of its table. A [`Row`] names a section, a field path below it and a
//! [`Kind`]; both documents are read with [`Json::parse`]. A row whose
//! field is missing from the run, or (for a committed comparison) from
//! the baseline, fails and names the full path — no row is skipped.
//!
//! Rows are built from what the run did: only the sections it ran, and
//! for `net_throughput` only the connection counts it drove.

use desim::report::{Json, RunReport};

use crate::loadgen::Mix;

/// How a row judges its number.
#[derive(Debug, Clone, Copy)]
pub enum Kind {
    /// Fails when the run falls more than `tol` (a fraction) below the
    /// committed value.
    Floor {
        /// Allowed relative shortfall.
        tol: f64,
    },
    /// Fails when the run exceeds the committed value by more than
    /// `tol` (a fraction) plus `slack` (absolute, in the field's unit).
    Ceiling {
        /// Allowed relative excess.
        tol: f64,
        /// Absolute jitter allowance on top of `tol`.
        slack: f64,
    },
    /// Fails unless the run equals the committed value (deterministic
    /// counts).
    Exact,
    /// Same-run bound: fails when the run's own value is below this.
    AtLeast(f64),
    /// Same-run bound: fails unless the run's own value is below this.
    Below(f64),
}

/// One gated number.
#[derive(Debug, Clone)]
pub struct Row {
    /// The `BENCH.json` entry holding the committed value.
    pub bench: &'static str,
    /// Section, in the run report and in the committed entry.
    pub section: String,
    /// Dot-separated field path below the section.
    pub field: String,
    /// How the number is judged.
    pub kind: Kind,
    /// An advisory row reports a violated threshold as a warning and
    /// never fails (a missing field still fails).
    pub advisory: bool,
}

impl Row {
    fn new(bench: &'static str, section: &str, field: &str, kind: Kind) -> Row {
        Row {
            bench,
            section: section.to_string(),
            field: field.to_string(),
            kind,
            advisory: false,
        }
    }

    /// Path of the number in the run report.
    pub fn run_path(&self) -> String {
        format!("{}.{}", self.section, self.field)
    }

    /// Path of the committed number in `BENCH.json`.
    pub fn baseline_path(&self) -> String {
        format!("{}.{}", self.bench, self.run_path())
    }
}

const FLOOR_20: Kind = Kind::Floor { tol: 0.2 };
const CEILING_20: Kind = Kind::Ceiling {
    tol: 0.2,
    slack: 0.0,
};
/// The tail gates' budget: 20% plus 5 µs, so a single scheduler hiccup
/// on a sub-10 µs tail does not fail while a lock on the read path
/// (hundreds of µs) does.
const TAIL_CEILING: Kind = Kind::Ceiling {
    tol: 0.2,
    slack: 5.0,
};

/// `perf_baseline`: skip-ahead dispatched events (ceiling) and events
/// per wall second (floor).
pub fn perf_baseline(section: &str) -> Vec<Row> {
    let row = |field, kind| Row::new("perf_baseline", section, field, kind);
    vec![
        row("skip_ahead.events", CEILING_20),
        row("skip_ahead.events_per_wall_sec", FLOOR_20),
    ]
}

/// `server_throughput`: queries/sec floors, sharded and traced against
/// its own committed run at the default mix, sharded only against
/// `mix_throughput`'s replay of the same section at other mixes; the
/// sharded p999 ceiling against `mix_throughput`'s replay of the same
/// section; and, when the untraced query phase ran at least 0.2 s,
/// traced/untraced throughput ≥ 0.7.
pub fn server_throughput(section: &str, mix: Mix, untraced_query_secs: f64) -> Vec<Row> {
    let own = |field, kind| Row::new("server_throughput", section, field, kind);
    let replay = |field, kind| Row::new("mix_throughput", section, field, kind);
    let mut rows = if mix == Mix::default() {
        vec![
            own("sharded.queries_per_sec", FLOOR_20),
            own("traced.queries_per_sec", FLOOR_20),
        ]
    } else {
        vec![replay("sharded.queries_per_sec", FLOOR_20)]
    };
    rows.push(replay("sharded.p999_us", TAIL_CEILING));
    if untraced_query_secs >= 0.2 {
        rows.push(own("speedup.tracing_overhead", Kind::AtLeast(0.7)));
    }
    rows
}

/// `mix_throughput`: the burst-model seqlock p999 ceiling, plus an
/// advisory (never failing) barriered seqlock queries/sec floor.
pub fn mix_throughput(section: &str) -> Vec<Row> {
    let row = |field, kind| Row::new("mix_throughput", section, field, kind);
    vec![
        Row {
            advisory: true,
            ..row("sharded.queries_per_sec", FLOOR_20)
        },
        row("burst_model_seqlock.p999_us", TAIL_CEILING),
    ]
}

/// `net_throughput`: the end-to-end p99 ceiling of each connection
/// count the run drove.
pub fn net_throughput(section: &str, conns: &[usize]) -> Vec<Row> {
    conns
        .iter()
        .map(|c| {
            let field = format!("socket_c{c}.p99_us");
            Row::new("net_throughput", section, &field, CEILING_20)
        })
        .collect()
}

/// `path_churn`: repair ≥ 20x cheaper than the estimated rebuild,
/// churn/quiet queries/sec ≥ 0.8, VmHWM < 2048 MiB where the section
/// proves bounded memory, mutation count exactly as committed, and the
/// churn queries/sec floor.
pub fn path_churn(section: &str, check_memory: bool) -> Vec<Row> {
    let row = |field, kind| Row::new("path_churn", section, field, kind);
    let mut rows = vec![
        row("repair_speedup", Kind::AtLeast(20.0)),
        row("queries.churn_over_quiet", Kind::AtLeast(0.8)),
    ];
    if check_memory {
        rows.push(row("vm_hwm_mb", Kind::Below(2048.0)));
    }
    rows.push(row("repair.mutations", Kind::Exact));
    rows.push(row("queries.churn_qps", FLOOR_20));
    rows
}

/// The JSON value at a dot-separated `path`.
pub fn resolve<'a>(doc: &'a Json, path: &str) -> Option<&'a Json> {
    path.split('.').try_fold(doc, |at, key| at.get(key))
}

fn number(doc: &Json, path: &str, what: &str) -> Result<f64, String> {
    match resolve(doc, path) {
        Some(Json::UInt(v)) => Ok(*v as f64),
        Some(Json::Int(v)) => Ok(*v as f64),
        Some(Json::Num(v)) => Ok(*v),
        Some(other) => Err(format!(
            "{what} {path} is not a number: {}",
            other.render_compact()
        )),
        None => Err(format!("{what} lacks {path}")),
    }
}

/// What [`check`] found.
#[derive(Debug, Default)]
pub struct Verdict {
    /// One message per failed row.
    pub failures: Vec<String>,
    /// One message per advisory row over its threshold.
    pub warnings: Vec<String>,
}

/// Rounds to 4 decimals for messages.
fn show(x: f64) -> f64 {
    (x * 1e4).round() / 1e4
}

/// Judges one row: `Ok(None)` passes, `Ok(Some(msg))` is over its
/// threshold, `Err(msg)` names a missing or non-numeric field.
fn judge(baseline: &Json, run: &Json, row: &Row) -> Result<Option<String>, String> {
    let path = row.run_path();
    let got = number(run, &path, "run report")?;
    let (ok, bound) = match row.kind {
        Kind::AtLeast(min) => (got >= min, format!(">= {min} (same run)")),
        Kind::Below(max) => (got < max, format!("< {max} (same run)")),
        kind => {
            let base_path = row.baseline_path();
            let base = number(baseline, &base_path, "baseline")?;
            let (ok, op, limit) = match kind {
                Kind::Floor { tol } => {
                    let min = base * (1.0 - tol);
                    (got >= min, ">=", min)
                }
                Kind::Ceiling { tol, slack } => {
                    let max = base * (1.0 + tol) + slack;
                    (got <= max, "<=", max)
                }
                _ => (got == base, "==", base),
            };
            let why = format!("{kind:?} of committed {base_path} = {base}");
            (ok, format!("{op} {} ({why})", show(limit)))
        }
    };
    Ok((!ok).then(|| format!("{path} = {} fails {bound}", show(got))))
}

/// Judges every row of a run report against the committed baselines.
pub fn check(baseline: &Json, run: &Json, rows: &[Row]) -> Verdict {
    let mut verdict = Verdict::default();
    for row in rows {
        match judge(baseline, run, row) {
            Ok(None) => {}
            Ok(Some(msg)) if row.advisory => verdict.warnings.push(msg),
            Ok(Some(msg)) | Err(msg) => verdict.failures.push(msg),
        }
    }
    verdict
}

/// The end of a gated bench binary: `--json PATH` writes `report` to
/// `json_path`, then `--check FILE` judges `rows` of it against the
/// baselines in `check_path` and prints the outcome. Exits the process
/// with status 2 when a file cannot be written, read or parsed and 1
/// when any row fails.
pub fn finish(report: &RunReport, json_path: Option<&str>, check_path: Option<&str>, rows: &[Row]) {
    if let Some(path) = json_path {
        crate::telemetry::write_report(report, path);
    }
    let Some(path) = check_path else { return };
    let baseline = std::fs::read_to_string(path)
        .map_err(|e| e.to_string())
        .and_then(|text| Json::parse(&text).map_err(|e| e.to_string()))
        .unwrap_or_else(|e| {
            eprintln!("cannot read baseline {path}: {e}");
            std::process::exit(2);
        });
    let verdict = check(&baseline, &report.to_json(), rows);
    for w in &verdict.warnings {
        eprintln!("warning: {w} (advisory, not gated)");
    }
    for f in &verdict.failures {
        eprintln!("REGRESSION: {f}");
    }
    if !verdict.failures.is_empty() {
        std::process::exit(1);
    }
    eprintln!("check against {path}: {} gates ok", rows.len());
}
