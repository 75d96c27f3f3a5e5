//! Golden-fixture tests: each file under `tests/fixtures/` trips
//! exactly its own rule (and the clean/suppressed fixtures trip
//! nothing). Fixtures are linted under synthetic workspace paths so
//! the path-scoped rules activate; the files themselves are never
//! compiled.

use bips_lint::{check_source, Finding};

fn fixture(name: &str) -> String {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

/// Lints a fixture as if it lived at `as_path` and asserts every
/// finding is `rule`, returning the findings.
fn expect_only(name: &str, as_path: &str, rule: &str, at_least: usize) -> Vec<Finding> {
    let findings = check_source(as_path, &fixture(name));
    assert!(
        findings.len() >= at_least,
        "{name}: expected ≥{at_least} findings, got {findings:#?}"
    );
    for f in &findings {
        assert_eq!(f.rule, rule, "{name}: unexpected rule in {f}");
        assert_eq!(f.path, as_path);
        assert!(f.line > 0, "{name}: finding without a line: {f}");
        assert!(
            !f.snippet.is_empty(),
            "{name}: finding without a snippet: {f}"
        );
    }
    findings
}

#[test]
fn wall_clock_fixture() {
    let f = expect_only(
        "wall_clock.rs",
        "crates/desim/src/engine.rs",
        "wall-clock",
        2,
    );
    // The cfg(test) module's Instant::now must not be flagged.
    assert!(
        f.iter().all(|f| f.line < 13),
        "test-region finding leaked: {f:#?}"
    );
}

#[test]
fn wall_clock_fixture_is_clean_on_sanctioned_paths() {
    for path in [
        "crates/desim/src/probe.rs",
        "crates/bench/src/telemetry.rs",
        "src/bin/bips-sim.rs",
    ] {
        let findings = check_source(path, &fixture("wall_clock.rs"));
        assert!(
            findings.is_empty(),
            "{path} should allow wall-clock: {findings:#?}"
        );
    }
}

#[test]
fn hash_iter_fixture() {
    let f = expect_only("hash_iter.rs", "crates/core/src/system.rs", "hash-iter", 2);
    // One method-iteration finding, one for-loop finding.
    assert!(f.iter().any(|f| f.message.contains(".iter()")), "{f:#?}");
    assert!(f.iter().any(|f| f.message.contains("for-loop")), "{f:#?}");
}

#[test]
fn hash_iter_only_applies_to_simulation_crates() {
    // The same source outside the scoped crates (e.g. the bench
    // harness) is fine: report assembly order doesn't replay events.
    let findings = check_source("crates/bench/src/report.rs", &fixture("hash_iter.rs"));
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn entropy_fixture() {
    expect_only("entropy.rs", "crates/mobility/src/walker.rs", "entropy", 1);
}

#[test]
fn nan_cmp_fixture() {
    let f = expect_only("nan_cmp.rs", "crates/desim/src/stats.rs", "nan-cmp", 2);
    assert!(f.iter().any(|f| f.message.contains("sort")), "{f:#?}");
    assert!(
        f.iter().any(|f| f.message.contains("unwrap/expect")),
        "{f:#?}"
    );
}

#[test]
fn serve_panic_fixture() {
    // The legacy file-scoped coverage, now expressed as scan-only
    // roots of serve-panic-reach: every fn in a serve-path file has
    // its own body scanned.
    let f = expect_only(
        "serve_panic.rs",
        "crates/core/src/service.rs",
        "serve-panic-reach",
        4,
    );
    // unwrap, expect, panic!, and the unchecked index — but nothing
    // from `total_version` (the sanctioned spellings) or the tests.
    assert!(
        f.iter().all(|f| f.line < 14),
        "sanctioned code flagged: {f:#?}"
    );
}

#[test]
fn serve_panic_only_applies_to_the_serving_path() {
    // No scan-only file scope at this path and no fn named like a
    // serve entry point: nothing to root the rule at.
    let findings = check_source("crates/core/src/graph/mod.rs", &fixture("serve_panic.rs"));
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn serve_panic_covers_the_graph_path_walk() {
    let f = expect_only(
        "serve_panic_walk.rs",
        "crates/core/src/graph/walk.rs",
        "serve-panic-reach",
        3,
    );
    // The unchecked index, unreachable!, and unwrap — but nothing from
    // the `.get()`-based walk or the test module.
    assert!(
        f.iter().all(|f| f.line < 15),
        "sanctioned code flagged: {f:#?}"
    );
    // The same file outside the walk path is not in scope.
    let clean = check_source(
        "crates/core/src/graph/dynamic.rs",
        &fixture("serve_panic_walk.rs"),
    );
    assert!(clean.is_empty(), "{clean:#?}");
}

#[test]
fn serve_lock_reach_fixture() {
    let f = expect_only(
        "serve_reader_lock.rs",
        "crates/core/src/service.rs",
        "serve-lock-reach",
        2,
    );
    assert_eq!(f.len(), 2, "{f:#?}");
    // The helper call inside the root itself …
    assert!(
        f.iter()
            .any(|f| f.message.contains("`read_lock`") && f.message.contains("where_is")),
        "{f:#?}"
    );
    // … and the direct acquisition one call level down from
    // `serve_payload`, reported with the full call path. The
    // writer-only `apply_pending` (write_lock, lock_mutex), the helper
    // bodies (leaf acquisitions, never traversed) and the test module
    // must all stay unflagged.
    assert!(
        f.iter().any(|f| f.message.contains("`.read()`")
            && f.message
                .contains("Engine::serve_payload → Engine::snapshot_slot")),
        "{f:#?}"
    );
}

#[test]
fn serve_lock_reach_roots_are_name_based_not_path_based() {
    // The legacy rule was confined to service.rs; the reachability
    // rule roots at *any* fn named where_is*/serve_payload, so the
    // same fixture now trips at any live path — that widening is the
    // point of the rule.
    let findings = check_source(
        "crates/core/src/graph/mod.rs",
        &fixture("serve_reader_lock.rs"),
    );
    assert_eq!(findings.len(), 2, "{findings:#?}");
    assert!(
        findings.iter().all(|f| f.rule == "serve-lock-reach"),
        "{findings:#?}"
    );
}

#[test]
fn panic_two_calls_below_a_serve_root_is_caught_with_the_call_path() {
    // crates/lan/src/rpc.rs is NOT in any scan-only file scope: every
    // finding here comes from transitive reachability alone.
    let f = expect_only(
        "panic_two_deep.rs",
        "crates/lan/src/rpc.rs",
        "serve-panic-reach",
        1,
    );
    assert_eq!(f.len(), 1, "only the reachable sink: {f:#?}");
    assert!(
        f[0].message.contains("serve_payload → helper_a → helper_b"),
        "full call path missing: {f:#?}"
    );
    // The identical sink in `offline_rebuild` (no root reaches it)
    // stays unflagged — that is what `len() == 1` proves.
}

#[test]
fn alloc_reach_fixture() {
    let f = expect_only(
        "alloc_reach.rs",
        "crates/lan/src/rpc.rs",
        "serve-alloc-reach",
        1,
    );
    assert_eq!(f.len(), 1, "{f:#?}");
    assert!(
        f[0].message.contains("`format!`") && f[0].message.contains("where_is → lookup_name"),
        "{f:#?}"
    );
    // The suppressed `.to_string()` sink and the writer-side `vec!`
    // in `rebuild_names` (unreachable from any root) are both absent.
}

#[test]
fn seqlock_ordering_fixture() {
    let f = expect_only(
        "seqlock_ordering.rs",
        "crates/desim/src/hot.rs",
        "seqlock-ordering",
        5,
    );
    assert_eq!(f.len(), 5, "{f:#?}");
    // R1: Relaxed entry load.
    assert!(
        f.iter()
            .any(|f| f.message.contains("racy_snapshot") && f.message.contains("Acquire")),
        "{f:#?}"
    );
    // R2: missing fence before the Relaxed re-check.
    assert!(
        f.iter()
            .any(|f| f.message.contains("unfenced_snapshot") && f.message.contains("fence")),
        "{f:#?}"
    );
    // W1 + W2 on the torn writer.
    assert_eq!(
        f.iter()
            .filter(|f| f.message.contains("torn_publish"))
            .count(),
        2,
        "{f:#?}"
    );
    // W3: the single bare store.
    assert!(
        f.iter()
            .any(|f| f.message.contains("bump") && f.message.contains("single unpaired")),
        "{f:#?}"
    );
    // The sanctioned `snapshot`/`publish` shapes, the RMW-only
    // allocator, and the suppressed diagnostic peek are all clean.
}

#[test]
fn unsafe_safety_fixture() {
    let f = expect_only(
        "unsafe_safety.rs",
        "crates/lan/src/transport.rs",
        "unsafe-safety",
        1,
    );
    assert_eq!(f.len(), 1, "only the unjustified block: {f:#?}");
    assert_eq!(f[0].line, 5);
}

#[test]
fn metric_name_fixture() {
    let f = expect_only(
        "metric_name.rs",
        "crates/baseband/src/medium.rs",
        "metric-name",
        4,
    );
    assert_eq!(f.len(), 4, "{f:#?}");
}

#[test]
fn suppressed_fixture_is_clean() {
    let findings = check_source("crates/desim/src/engine.rs", &fixture("suppressed.rs"));
    assert!(
        findings.is_empty(),
        "valid suppressions must absorb findings: {findings:#?}"
    );
}

#[test]
fn bad_suppression_fixture() {
    let f = check_source("crates/desim/src/engine.rs", &fixture("bad_suppression.rs"));
    assert_eq!(f.len(), 3, "{f:#?}");
    assert!(f.iter().all(|f| f.rule == "bad-suppression"), "{f:#?}");
    assert!(
        f.iter()
            .any(|f| f.message.contains("unknown rule `no-such-rule`")),
        "{f:#?}"
    );
    assert!(
        f.iter().any(|f| f.message.contains("needs a reason")),
        "{f:#?}"
    );
    assert!(f.iter().any(|f| f.message.contains("unused")), "{f:#?}");
}

#[test]
fn clean_fixture_is_clean() {
    let findings = check_source("crates/core/src/system.rs", &fixture("clean.rs"));
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn metric_doc_drift_both_directions() {
    let doc = "## Metric catalog\n\n| name | kind |\n|---|---|\n\
               | `core.census.members` | gauge |\n\
               | `core.census.ghost` | counter |\n";
    // Registered + documented: clean. Registered-only and
    // documented-only: one finding each, pointing at the right side.
    let regs = vec![
        (
            "core.census.members".to_string(),
            "crates/core/src/system.rs".to_string(),
            20,
        ),
        (
            "core.census.rogue".to_string(),
            "crates/core/src/system.rs".to_string(),
            21,
        ),
    ];
    let f = bips_lint::metric_doc_drift(doc, &regs);
    assert_eq!(f.len(), 2, "{f:#?}");
    assert!(f.iter().all(|f| f.rule == "metric-doc"));
    assert!(
        f.iter()
            .any(|f| f.path == "crates/core/src/system.rs" && f.message.contains("rogue")),
        "{f:#?}"
    );
    assert!(
        f.iter()
            .any(|f| f.path == "docs/OBSERVABILITY.md" && f.message.contains("ghost")),
        "{f:#?}"
    );
}

#[test]
fn trace_kinds_are_collected_as_snake_case() {
    let source = "/// Registry.\n\
                  #[repr(u8)]\n\
                  pub enum TraceKind {\n\
                      /// A frame was decoded (`code` = Direction).\n\
                      FrameDecode = 0,\n\
                      QueryStart = 1,\n\
                      Anomaly = 6,\n\
                  }\n\
                  impl TraceKind { pub const ALL: [TraceKind; 1] = [TraceKind::Anomaly]; }\n";
    let kinds = bips_lint::collect_trace_kinds(source);
    let names: Vec<&str> = kinds.iter().map(|(n, _)| n.as_str()).collect();
    // Only variants inside the enum body count — not the doc-comment
    // words, not the `ALL` table in the impl block.
    assert_eq!(names, vec!["frame_decode", "query_start", "anomaly"]);
    assert_eq!(kinds[0].1, 5, "line of the first variant");
}

#[test]
fn trace_doc_drift_both_directions() {
    let doc = "## Trace event catalog\n\n| event | meaning |\n|---|---|\n\
               | `query_start` | a query entered its shard |\n\
               | `phantom_kind` | documented but never emitted |\n\
               \n## Metric catalog\n\n| name | kind |\n|---|---|\n";
    let kinds = vec![
        ("query_start".to_string(), 55),
        ("rogue_kind".to_string(), 60),
    ];
    let f = bips_lint::trace_doc_drift(doc, &kinds);
    assert_eq!(f.len(), 2, "{f:#?}");
    assert!(f.iter().all(|f| f.rule == "trace-doc"));
    assert!(
        f.iter().any(|f| f.path == bips_lint::TRACE_KIND_FILE
            && f.line == 60
            && f.message.contains("rogue_kind")),
        "{f:#?}"
    );
    assert!(
        f.iter()
            .any(|f| f.path == "docs/OBSERVABILITY.md" && f.message.contains("phantom_kind")),
        "{f:#?}"
    );
    // Clean when registry and catalog agree.
    let clean = bips_lint::trace_doc_drift(
        doc,
        &[
            ("query_start".to_string(), 55),
            ("phantom_kind".to_string(), 56),
        ],
    );
    assert!(clean.is_empty(), "{clean:#?}");
}
