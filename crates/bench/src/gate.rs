//! Same-run regression gates for the bench binaries, one table per
//! bench.
//!
//! Every row bounds a ratio or a peak that the run itself measured
//! (traced against untraced, sharded against the seed server, locked
//! against seqlock, socket against in process, churn against quiet), so
//! a gate reads the same on a fast host and a slow one and needs no
//! committed baseline. The exact counts (events, allocations, repairs,
//! bytes) are pinned by Tier-1 tests instead. A bench hands [`finish`]
//! its own report and the rows of its table; a [`Row`] names a section,
//! a field path below it and a [`Kind`]. A row whose field is missing
//! from the run fails and names the full path — no row is skipped.
//!
//! Rows are built from what the run did: only the sections it ran, for
//! `net_throughput` only the connection counts it drove, and for
//! `server_throughput` from each section's workload. No row is chosen
//! by a number the run measured.

use desim::report::{Json, RunReport};

use crate::loadgen::{Workload, WRITE_BURST_TICKS};

/// How a row judges its number.
#[derive(Debug, Clone, Copy)]
pub enum Kind {
    /// Fails when the run's value is below this.
    AtLeast(f64),
    /// Fails unless the run's value is below this.
    Below(f64),
}

/// One gated number.
#[derive(Debug, Clone)]
pub struct Row {
    /// Section of the run report.
    pub section: String,
    /// Dot-separated field path below the section.
    pub field: String,
    /// How the number is judged.
    pub kind: Kind,
}

impl Row {
    fn new(section: &str, field: &str, kind: Kind) -> Row {
        Row {
            section: section.to_string(),
            field: field.to_string(),
            kind,
        }
    }

    /// Path of the number in the run report.
    pub fn path(&self) -> String {
        format!("{}.{}", self.section, self.field)
    }
}

/// `server_throughput`, its rows chosen from the workload alone:
///
/// * the sharded engine answers ≥ 2× the seed server's queries/sec (a
///   per-answer scan of the querier's shard drops it below 1×);
/// * the write-burst model's locked p999 ≥ 20× its seqlock p999, when
///   a burst flushes at least 256 notices per shard (80:20 and 50:50
///   flush 512–2,560, 99:1 only 24–48). The locked p999 is about one
///   per-shard lock hold and the seqlock p999 a 1–2 µs service tail, so
///   a query path slowed toward a hold's length (a per-answer scan, or
///   a tail-only stall) erases the gap, and a 99:1 hold of a few µs
///   cannot show it. The 80:20 row is the one that catches a ~30 µs
///   stall on 1 answer in 256: its hold is 3–9× the stalled p999, while
///   the 50:50 hold is 11–22× it, so that row alone may pass the stall;
/// * traced/untraced throughput ≥ 0.7, when the section replays at
///   least 1M queries (every full mix). A smoke section's ratio is two
///   short phases; on one core its median sits near 0.65.
pub fn server_throughput(w: &Workload) -> Vec<Row> {
    let mut rows = vec![Row::new(
        w.name,
        "speedup.queries_per_sec",
        Kind::AtLeast(2.0),
    )];
    if WRITE_BURST_TICKS * 2 * w.updates_per_tick / w.shards >= 256 {
        rows.push(Row::new(
            w.name,
            "speedup.p999_write_burst",
            Kind::AtLeast(20.0),
        ));
    }
    if w.queries() >= 1_000_000 {
        rows.push(Row::new(
            w.name,
            "speedup.tracing_overhead",
            Kind::AtLeast(0.7),
        ));
    }
    rows
}

/// `net_throughput`: each connection count's socket p50 below 1,000×
/// the in-process p50 of the same replay. A millisecond stall per read
/// on the serving loop lifts it past 3,000×.
pub fn net_throughput(section: &str, conns: &[usize]) -> Vec<Row> {
    conns
        .iter()
        .map(|c| {
            let field = format!("socket_c{c}.p50_over_inproc");
            Row::new(section, &field, Kind::Below(1000.0))
        })
        .collect()
}

/// `path_churn`: repair ≥ 20× cheaper than the estimated rebuild,
/// churn/quiet queries/sec ≥ 0.8, and VmHWM < 2048 MiB where the
/// section proves bounded memory.
pub fn path_churn(section: &str, check_memory: bool) -> Vec<Row> {
    let mut rows = vec![
        Row::new(section, "repair_speedup", Kind::AtLeast(20.0)),
        Row::new(section, "queries.churn_over_quiet", Kind::AtLeast(0.8)),
    ];
    if check_memory {
        rows.push(Row::new(section, "vm_hwm_mb", Kind::Below(2048.0)));
    }
    rows
}

/// The JSON value at a dot-separated `path`.
fn resolve<'a>(doc: &'a Json, path: &str) -> Option<&'a Json> {
    path.split('.').try_fold(doc, |at, key| at.get(key))
}

/// Rounds to 4 decimals for messages.
fn show(x: f64) -> f64 {
    (x * 1e4).round() / 1e4
}

/// Judges one row: `None` passes, `Some(msg)` names a violated bound or
/// a missing or non-numeric field.
fn judge(run: &Json, row: &Row) -> Option<String> {
    let path = row.path();
    let got = match resolve(run, &path) {
        Some(Json::UInt(v)) => *v as f64,
        Some(Json::Int(v)) => *v as f64,
        Some(Json::Num(v)) => *v,
        Some(other) => {
            let shown = other.render_compact();
            return Some(format!("run report {path} is not a number: {shown}"));
        }
        None => return Some(format!("run report lacks {path}")),
    };
    let (ok, bound) = match row.kind {
        Kind::AtLeast(min) => (got >= min, format!(">= {min}")),
        Kind::Below(max) => (got < max, format!("< {max}")),
    };
    (!ok).then(|| format!("{path} = {} fails {bound}", show(got)))
}

/// Judges every row of a run report: one message per failed row.
pub fn check(run: &Json, rows: &[Row]) -> Vec<String> {
    rows.iter().filter_map(|row| judge(run, row)).collect()
}

/// The end of a gated bench binary: `--json PATH` writes `report` to
/// `json_path`, then `rows` of it are judged and the outcome printed.
/// Exits the process with status 2 when the report cannot be written
/// and 1 when any row fails.
pub fn finish(report: &RunReport, json_path: Option<&str>, rows: &[Row]) {
    if let Some(path) = json_path {
        crate::telemetry::write_report(report, path);
    }
    let failures = check(&report.to_json(), rows);
    for f in &failures {
        eprintln!("REGRESSION: {f}");
    }
    if !failures.is_empty() {
        std::process::exit(1);
    }
    eprintln!("same-run gates: {} ok", rows.len());
}
