//! The bench regression gates: missing fields fail by name, planted
//! regressions fail while near misses pass, and CI's commands judge
//! exactly the listed same-run rows.

use bips_bench::gate::{self, Kind, Row};
use bips_bench::loadgen::{Mix, Workload};
use desim::report::Json;

fn json(text: &str) -> Json {
    Json::parse(text).expect("test document parses")
}

fn row(section: &str, field: &str, kind: Kind) -> Row {
    Row {
        section: section.to_string(),
        field: field.to_string(),
        kind,
    }
}

#[test]
fn missing_fields_fail_and_name_the_path() {
    // `sharded` has no p999_us but a later `shards[0]` does: the row
    // must fail rather than read the shard's number.
    let run = json(
        r#"{"smoke": {"sharded": {"queries_per_sec": 100.0},
                      "shards": [{"shard": 0, "p999_us": 2.847}]}}"#,
    );
    let tail = row("smoke", "sharded.p999_us", Kind::Below(10.0));
    let ratio = row("smoke", "speedup.tracing_overhead", Kind::AtLeast(0.7));
    assert_eq!(
        gate::check(&run, &[tail, ratio]),
        [
            "run report lacks smoke.sharded.p999_us",
            "run report lacks smoke.speedup.tracing_overhead",
        ]
    );

    // A field that is there but not a number fails as well.
    let run = json(r#"{"smoke_100k": {"vm_hwm_mb": null}}"#);
    let vm = row("smoke_100k", "vm_hwm_mb", Kind::Below(2048.0));
    assert_eq!(
        gate::check(&run, &[vm]),
        ["run report smoke_100k.vm_hwm_mb is not a number: null"]
    );
}

/// The run's `s.x = got` under `kind`: true when the row passes.
fn passes(kind: Kind, got: f64) -> bool {
    let run = json(&format!(r#"{{"s": {{"x": {got}}}}}"#));
    gate::check(&run, &[row("s", "x", kind)]).is_empty()
}

#[test]
fn planted_regressions_fail_and_near_misses_pass() {
    assert!(!passes(Kind::AtLeast(20.0), 19.9));
    assert!(passes(Kind::AtLeast(20.0), 20.0));
    assert!(!passes(Kind::Below(2048.0), 2048.0));
    assert!(passes(Kind::Below(2048.0), 2047.9));
    let run = json(r#"{"s": {"x": 0.5}}"#);
    assert_eq!(
        gate::check(&run, &[row("s", "x", Kind::AtLeast(0.8))]),
        ["s.x = 0.5 fails >= 0.8"]
    );
}

/// One line per row: `<run path> <kind>`.
fn describe(rows: &[Row]) -> Vec<String> {
    rows.iter()
        .map(|r| format!("{} {:?}", r.path(), r.kind))
        .collect()
}

#[test]
fn ci_gates_are_exactly_the_listed_rows() {
    // The `--smoke` commands CI runs, in order; `perf_baseline` gates
    // nothing.
    let mut rows = gate::server_throughput(&Workload::smoke());
    rows.extend(gate::server_throughput(
        &Workload::smoke().with_mix(Mix::Q50U50),
    ));
    rows.extend(gate::path_churn("smoke_10k", false));
    rows.extend(gate::path_churn("smoke_100k", true));
    rows.extend(gate::net_throughput("smoke", &[1, 4, 8]));
    // The two-process network smoke: `--connect ... --conns 4`.
    rows.extend(gate::net_throughput("smoke", &[4]));

    let expected = [
        "smoke.speedup.queries_per_sec AtLeast(2.0)",
        "smoke.speedup.p999_write_burst AtLeast(20.0)",
        "smoke_50_50.speedup.queries_per_sec AtLeast(2.0)",
        "smoke_50_50.speedup.p999_write_burst AtLeast(20.0)",
        "smoke_10k.repair_speedup AtLeast(20.0)",
        "smoke_10k.queries.churn_over_quiet AtLeast(0.8)",
        "smoke_100k.repair_speedup AtLeast(20.0)",
        "smoke_100k.queries.churn_over_quiet AtLeast(0.8)",
        "smoke_100k.vm_hwm_mb Below(2048.0)",
        "smoke.socket_c1.p50_over_inproc Below(1000.0)",
        "smoke.socket_c4.p50_over_inproc Below(1000.0)",
        "smoke.socket_c8.p50_over_inproc Below(1000.0)",
        "smoke.socket_c4.p50_over_inproc Below(1000.0)",
    ];
    assert_eq!(describe(&rows), expected);

    // Full runs replay at least 1M queries, which adds the overhead
    // row; a 99:1 burst is too small to judge, at either size.
    let mut rows = Vec::new();
    for mix in Mix::ALL {
        rows.extend(gate::server_throughput(&Workload::full().with_mix(mix)));
    }
    rows.extend(gate::server_throughput(
        &Workload::smoke().with_mix(Mix::Q99U1),
    ));
    let expected = [
        "full.speedup.queries_per_sec AtLeast(2.0)",
        "full.speedup.p999_write_burst AtLeast(20.0)",
        "full.speedup.tracing_overhead AtLeast(0.7)",
        "full_50_50.speedup.queries_per_sec AtLeast(2.0)",
        "full_50_50.speedup.p999_write_burst AtLeast(20.0)",
        "full_50_50.speedup.tracing_overhead AtLeast(0.7)",
        "full_99_1.speedup.queries_per_sec AtLeast(2.0)",
        "full_99_1.speedup.tracing_overhead AtLeast(0.7)",
        "smoke_99_1.speedup.queries_per_sec AtLeast(2.0)",
    ];
    assert_eq!(describe(&rows), expected);
}
