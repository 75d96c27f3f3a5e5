//! Cross-commit golden pin for the serving replays: absolute answer
//! checksum, ack checksum and `found` count of every in-process
//! deterministic `loadgen` replay mode on the tiny workload, at the
//! default mix and at 50:50.
//!
//! The differential suites (`tracing_nonperturbing`,
//! `churn_differential`, `sharded_differential`, `socket_e2e`) compare
//! replay modes with each other, so a drift that moves every mode alike
//! — in trace generation, the checksum fold, or a shared service path —
//! passes all of them. These values were recorded before the replay
//! loops were merged; a change that alters answers on purpose re-records
//! them and says why.

use std::sync::Arc;

use bips_bench::loadgen::{self, Mix, ModeResult, Workload};
use bips_core::graph::PathEngineKind;
use bips_core::service::ReadPath;
use desim::tracing::Tracer;

/// `(checksum, ack_checksum, found)` of one run.
type Pin = (u64, u64, u64);

fn pin(r: &ModeResult) -> Pin {
    (r.checksum, r.ack_checksum, r.found)
}

/// Every mode's pin on `w`, labelled, in a fixed order.
fn all_pins(w: &Workload) -> Vec<(&'static str, Pin)> {
    let trace = loadgen::generate_trace(w);
    let traced = {
        let tracer = Arc::new(Tracer::new(w.shards, 1024));
        loadgen::run_sharded_traced(w, &trace, 4, &tracer).0
    };
    let churn = |kind| loadgen::run_sharded_churn(w, &trace, 4, kind, 3, 2).0;
    vec![
        ("baseline", pin(&loadgen::run_baseline(w, &trace))),
        ("sharded jobs=1", pin(&loadgen::run_sharded(w, &trace, 1).0)),
        ("sharded jobs=4", pin(&loadgen::run_sharded(w, &trace, 4).0)),
        (
            "sharded locked",
            pin(&loadgen::run_sharded_with(w, &trace, 4, ReadPath::Locked).0),
        ),
        ("sharded traced", pin(&traced)),
        ("churn rebuild", pin(&churn(PathEngineKind::Rebuild))),
        ("churn dense", pin(&churn(PathEngineKind::DynamicDense))),
        ("churn sparse", pin(&churn(PathEngineKind::DynamicSparse))),
    ]
}

/// Asserts `got` against the recorded pins, naming the first mode
/// that moved.
fn assert_pins(w: &Workload, want: &[(&str, Pin)]) {
    let got = all_pins(w);
    for ((name, got), (want_name, want)) in got.iter().zip(want) {
        assert_eq!(name, want_name);
        assert_eq!(got, want, "{} / {name}: serving pin moved", w.name);
    }
    assert_eq!(got.len(), want.len());
}

/// The eight modes' pins from the three checksums a workload has:
/// the quiet answers, the churned answers, and the flush acks (the
/// baseline mode has no batched flushes, so its ack checksum stays at
/// [`loadgen::CHECKSUM_INIT`]).
fn pins(quiet: (u64, u64), churned: (u64, u64), acks: u64) -> [(&'static str, Pin); 8] {
    let q = (quiet.0, acks, quiet.1);
    let c = (churned.0, acks, churned.1);
    [
        ("baseline", (quiet.0, loadgen::CHECKSUM_INIT, quiet.1)),
        ("sharded jobs=1", q),
        ("sharded jobs=4", q),
        ("sharded locked", q),
        ("sharded traced", q),
        ("churn rebuild", c),
        ("churn dense", c),
        ("churn sparse", c),
    ]
}

#[test]
fn tiny_default_mix_matches_the_recorded_answers() {
    assert_pins(
        &Workload::tiny(),
        &pins(
            (10_666_611_285_131_718_694, 1600),
            (6_738_703_444_227_203_900, 1106),
            6_183_374_220_038_245_975,
        ),
    );
}

#[test]
fn tiny_50_50_matches_the_recorded_answers() {
    assert_pins(
        &Workload::tiny().with_mix(Mix::Q50U50),
        &pins(
            (11_978_503_808_353_259_866, 8000),
            (7_621_800_471_239_527_451, 5673),
            11_021_061_763_311_532_663,
        ),
    );
}
