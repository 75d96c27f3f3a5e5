//! The bench regression gates: missing fields fail by name, planted
//! regressions fail while near misses pass, and every row of every
//! bench's table resolves against the committed `BENCH.json`, so a
//! renamed field fails `cargo test` instead of passing CI unnoticed.

use bips_bench::gate::{self, Kind, Row};
use bips_bench::loadgen::{Mix, Workload};
use desim::report::Json;

fn json(text: &str) -> Json {
    Json::parse(text).expect("test document parses")
}

fn row(bench: &'static str, section: &str, field: &str, kind: Kind) -> Row {
    Row {
        bench,
        section: section.to_string(),
        field: field.to_string(),
        kind,
        advisory: false,
    }
}

fn committed_baselines() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH.json");
    let text = std::fs::read_to_string(path).expect("BENCH.json is committed");
    Json::parse(&text).expect("BENCH.json parses")
}

/// Section names of a `loadgen` workload at every mix (`smoke`,
/// `smoke_50_50`, `smoke_99_1`, and the same for `full`).
fn mixed_sections() -> Vec<(&'static str, Mix)> {
    let mut out = Vec::new();
    for base in [Workload::full, Workload::smoke] {
        for mix in Mix::ALL {
            out.push((base().with_mix(mix).name, mix));
        }
    }
    out
}

/// Every table, built for every section the benches write by default
/// and at every mix.
fn all_rows() -> Vec<Row> {
    let mut rows = Vec::new();
    for section in ["full", "smoke"] {
        rows.extend(gate::perf_baseline(section));
        rows.extend(gate::net_throughput(section, &[1, 4, 8]));
    }
    for (section, mix) in mixed_sections() {
        // A 1 s untraced phase adds the same-run tracing-overhead row;
        // its field is committed where server_throughput recorded its
        // own sections, at the default mix.
        let untraced_secs = if mix == Mix::default() { 1.0 } else { 0.0 };
        rows.extend(gate::server_throughput(section, mix, untraced_secs));
        rows.extend(gate::mix_throughput(section));
    }
    for (section, check_memory) in [
        ("cells_10k", false),
        ("cells_100k", true),
        ("smoke_10k", false),
        ("smoke_100k", true),
    ] {
        rows.extend(gate::path_churn(section, check_memory));
    }
    rows
}

#[test]
fn missing_fields_fail_and_name_the_path() {
    // `sharded` has no p999_us but a later `shards[0]` does: the row
    // must fail rather than read the shard's number.
    let baseline = json(
        r#"{"server_throughput": {"smoke": {
            "sharded": {"queries_per_sec": 100.0},
            "shards": [{"shard": 0, "p999_us": 2.847}]}}}"#,
    );
    let run = json(r#"{"smoke": {"sharded": {"queries_per_sec": 100.0, "p999_us": 1.0}}}"#);
    let tail = row(
        "server_throughput",
        "smoke",
        "sharded.p999_us",
        Kind::Ceiling {
            tol: 0.2,
            slack: 5.0,
        },
    );
    let verdict = gate::check(&baseline, &run, std::slice::from_ref(&tail));
    assert_eq!(
        verdict.failures,
        ["baseline lacks server_throughput.smoke.sharded.p999_us"]
    );

    // Missing from the run: committed, same-run and advisory rows alike.
    let qps = row(
        "server_throughput",
        "smoke",
        "traced.queries_per_sec",
        Kind::Floor { tol: 0.2 },
    );
    let ratio = row(
        "server_throughput",
        "smoke",
        "speedup.tracing_overhead",
        Kind::AtLeast(0.7),
    );
    let advisory = Row {
        advisory: true,
        ..qps.clone()
    };
    let verdict = gate::check(&baseline, &run, &[qps, ratio, advisory]);
    assert_eq!(
        verdict.failures,
        [
            "run report lacks smoke.traced.queries_per_sec",
            "run report lacks smoke.speedup.tracing_overhead",
            "run report lacks smoke.traced.queries_per_sec",
        ]
    );
    assert!(verdict.warnings.is_empty());

    // A section that is there but not a number fails as well.
    let run = json(r#"{"smoke_100k": {"vm_hwm_mb": null}}"#);
    let vm = row("path_churn", "smoke_100k", "vm_hwm_mb", Kind::Below(2048.0));
    let verdict = gate::check(&json("{}"), &run, &[vm]);
    assert_eq!(
        verdict.failures,
        ["run report smoke_100k.vm_hwm_mb is not a number: null"]
    );
}

/// The run's `s.x` against a committed `b.s.x` of `base` under `kind`:
/// true when the row passes.
fn passes(kind: Kind, base: f64, got: f64) -> bool {
    let baseline = json(&format!(r#"{{"b": {{"s": {{"x": {base}}}}}}}"#));
    let run = json(&format!(r#"{{"s": {{"x": {got}}}}}"#));
    let verdict = gate::check(&baseline, &run, &[row("b", "s", "x", kind)]);
    verdict.failures.is_empty()
}

#[test]
fn planted_regressions_fail_and_near_misses_pass() {
    let floor = Kind::Floor { tol: 0.2 };
    assert!(!passes(floor, 1000.0, 790.0), "21% under a floor");
    assert!(passes(floor, 1000.0, 810.0), "19% under a floor");

    let tail = Kind::Ceiling {
        tol: 0.2,
        slack: 5.0,
    };
    assert!(
        !passes(tail, 100.0, 121.0 + 5.0),
        "21% over a ceiling + slack"
    );
    assert!(
        passes(tail, 100.0, 119.0 + 5.0),
        "19% over a ceiling + slack"
    );
    let events = Kind::Ceiling {
        tol: 0.2,
        slack: 0.0,
    };
    assert!(!passes(events, 1000.0, 1210.0));
    assert!(passes(events, 1000.0, 1190.0));

    assert!(!passes(Kind::Exact, 5000.0, 5001.0), "count off by one");
    assert!(!passes(Kind::Exact, 5000.0, 4999.0), "count off by one");
    assert!(passes(Kind::Exact, 5000.0, 5000.0));

    // Same-run bounds ignore the committed value.
    assert!(!passes(Kind::AtLeast(20.0), 1e6, 19.9));
    assert!(passes(Kind::AtLeast(20.0), 0.0, 20.0));
    assert!(!passes(Kind::Below(2048.0), 0.0, 2048.0));
    assert!(passes(Kind::Below(2048.0), 1e9, 2047.9));
}

#[test]
fn advisory_rows_warn_and_never_fail() {
    let baseline = committed_baselines();
    let run = json(
        r#"{"smoke": {"sharded": {"queries_per_sec": 1.0},
                      "burst_model_seqlock": {"p999_us": 0.1}}}"#,
    );
    let verdict = gate::check(&baseline, &run, &gate::mix_throughput("smoke"));
    assert!(verdict.failures.is_empty(), "{:?}", verdict.failures);
    assert_eq!(verdict.warnings.len(), 1);
    assert!(
        verdict.warnings[0].starts_with("smoke.sharded.queries_per_sec = 1 fails >= 5943595.4648"),
        "{}",
        verdict.warnings[0]
    );
}

#[test]
fn every_row_resolves_against_committed_bench_json() {
    let baseline = committed_baselines();
    for r in all_rows() {
        let path = r.baseline_path();
        assert!(
            matches!(
                gate::resolve(&baseline, &path),
                Some(Json::UInt(_) | Json::Int(_) | Json::Num(_))
            ),
            "BENCH.json has no number at {path}"
        );
    }
}

#[test]
fn committed_runs_pass_their_own_tables() {
    // Each committed entry is the report its bench wrote, so judged as
    // a run against itself every row resolves on both sides and every
    // same-run bound held when the numbers were recorded.
    // (`server_throughput`'s tail rows read `mix_throughput`, and its
    // own committed `sharded` blocks predate `p999_us`.)
    let baseline = committed_baselines();
    let entry = |bench| baseline.get(bench).expect("bench entry").clone();
    let rows: Vec<Row> = all_rows()
        .into_iter()
        .filter(|r| r.bench != "server_throughput")
        .collect();
    for bench in [
        "perf_baseline",
        "net_throughput",
        "mix_throughput",
        "path_churn",
    ] {
        let own: Vec<Row> = rows.iter().filter(|r| r.bench == bench).cloned().collect();
        assert!(!own.is_empty(), "{bench} has rows");
        let verdict = gate::check(&baseline, &entry(bench), &own);
        assert!(
            verdict.failures.is_empty(),
            "{bench}: {:?}",
            verdict.failures
        );
    }
}

/// One line per row: `<run path> <- <committed path> <kind>`.
fn describe(rows: &[Row]) -> Vec<String> {
    rows.iter()
        .map(|r| {
            let advisory = if r.advisory { " advisory" } else { "" };
            format!(
                "{} <- {} {:?}{advisory}",
                r.run_path(),
                r.baseline_path(),
                r.kind
            )
        })
        .collect()
}

#[test]
fn ci_gates_are_exactly_the_listed_rows() {
    // The `--smoke --check BENCH.json` commands CI runs, in order.
    let mut rows = gate::perf_baseline("smoke");
    // The smoke untraced phase is well under 0.2 s: no overhead row.
    rows.extend(gate::server_throughput("smoke", Mix::Q80U20, 0.05));
    rows.extend(gate::server_throughput("smoke_50_50", Mix::Q50U50, 0.05));
    for section in ["smoke", "smoke_50_50", "smoke_99_1"] {
        rows.extend(gate::mix_throughput(section));
    }
    rows.extend(gate::path_churn("smoke_10k", false));
    rows.extend(gate::path_churn("smoke_100k", true));
    rows.extend(gate::net_throughput("smoke", &[1, 4, 8]));
    // The two-process network smoke: `--connect ... --conns 4`.
    rows.extend(gate::net_throughput("smoke", &[4]));

    let floor = "Floor { tol: 0.2 }";
    let ceiling = "Ceiling { tol: 0.2, slack: 0.0 }";
    let tail = "Ceiling { tol: 0.2, slack: 5.0 }";
    let expected = [
        format!("smoke.skip_ahead.events <- perf_baseline.smoke.skip_ahead.events {ceiling}"),
        format!("smoke.skip_ahead.virtual_secs_per_wall_sec <- perf_baseline.smoke.skip_ahead.virtual_secs_per_wall_sec {floor}"),
        format!("smoke.sharded.queries_per_sec <- server_throughput.smoke.sharded.queries_per_sec {floor}"),
        format!("smoke.traced.queries_per_sec <- server_throughput.smoke.traced.queries_per_sec {floor}"),
        format!("smoke.sharded.p999_us <- mix_throughput.smoke.sharded.p999_us {tail}"),
        format!("smoke_50_50.sharded.queries_per_sec <- mix_throughput.smoke_50_50.sharded.queries_per_sec {floor}"),
        format!("smoke_50_50.sharded.p999_us <- mix_throughput.smoke_50_50.sharded.p999_us {tail}"),
        format!("smoke.sharded.queries_per_sec <- mix_throughput.smoke.sharded.queries_per_sec {floor} advisory"),
        format!("smoke.burst_model_seqlock.p999_us <- mix_throughput.smoke.burst_model_seqlock.p999_us {tail}"),
        format!("smoke_50_50.sharded.queries_per_sec <- mix_throughput.smoke_50_50.sharded.queries_per_sec {floor} advisory"),
        format!("smoke_50_50.burst_model_seqlock.p999_us <- mix_throughput.smoke_50_50.burst_model_seqlock.p999_us {tail}"),
        format!("smoke_99_1.sharded.queries_per_sec <- mix_throughput.smoke_99_1.sharded.queries_per_sec {floor} advisory"),
        format!("smoke_99_1.burst_model_seqlock.p999_us <- mix_throughput.smoke_99_1.burst_model_seqlock.p999_us {tail}"),
        "smoke_10k.repair_speedup <- path_churn.smoke_10k.repair_speedup AtLeast(20.0)".to_string(),
        "smoke_10k.queries.churn_over_quiet <- path_churn.smoke_10k.queries.churn_over_quiet AtLeast(0.8)".to_string(),
        "smoke_10k.repair.mutations <- path_churn.smoke_10k.repair.mutations Exact".to_string(),
        format!("smoke_10k.queries.churn_qps <- path_churn.smoke_10k.queries.churn_qps {floor}"),
        "smoke_100k.repair_speedup <- path_churn.smoke_100k.repair_speedup AtLeast(20.0)".to_string(),
        "smoke_100k.queries.churn_over_quiet <- path_churn.smoke_100k.queries.churn_over_quiet AtLeast(0.8)".to_string(),
        "smoke_100k.vm_hwm_mb <- path_churn.smoke_100k.vm_hwm_mb Below(2048.0)".to_string(),
        "smoke_100k.repair.mutations <- path_churn.smoke_100k.repair.mutations Exact".to_string(),
        format!("smoke_100k.queries.churn_qps <- path_churn.smoke_100k.queries.churn_qps {floor}"),
        format!("smoke.socket_c1.p99_us <- net_throughput.smoke.socket_c1.p99_us {ceiling}"),
        format!("smoke.socket_c4.p99_us <- net_throughput.smoke.socket_c4.p99_us {ceiling}"),
        format!("smoke.socket_c8.p99_us <- net_throughput.smoke.socket_c8.p99_us {ceiling}"),
        format!("smoke.socket_c4.p99_us <- net_throughput.smoke.socket_c4.p99_us {ceiling}"),
    ];
    assert_eq!(describe(&rows), expected);

    // A long enough untraced phase adds the same-run overhead bound.
    let long = gate::server_throughput("full", Mix::Q80U20, 0.2);
    assert_eq!(
        describe(&long).last().map(String::as_str),
        Some("full.speedup.tracing_overhead <- server_throughput.full.speedup.tracing_overhead AtLeast(0.7)")
    );
}
