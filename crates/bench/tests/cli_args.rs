//! The gated bench binaries refuse arguments they do not know.
//!
//! A mistyped flag used to be dropped silently, so a mistyped `--smoke`
//! started the full-size run. Each binary must instead exit 2 before
//! doing any work and name the argument it did not consume.

use std::process::Command;

const GATED: [&str; 4] = [
    env!("CARGO_BIN_EXE_perf_baseline"),
    env!("CARGO_BIN_EXE_server_throughput"),
    env!("CARGO_BIN_EXE_net_throughput"),
    env!("CARGO_BIN_EXE_path_churn"),
];

/// Runs each gated binary with `args` and asserts it exits 2 naming
/// `stray`.
fn assert_rejected(args: &[&str], stray: &str) {
    for exe in GATED {
        let out = Command::new(exe)
            .args(args)
            .output()
            .expect("bench binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{exe}: {stderr}");
        assert!(
            stderr.contains(stray),
            "{exe} did not name {stray}: {stderr}"
        );
    }
}

#[test]
fn a_mistyped_flag_fails_every_gated_bench_by_name() {
    assert_rejected(&["--smoke", "--chek", "baselines.json"], "--chek");
}

/// The gates judge the run's own ratios on every run and read no
/// baseline file, so a script still passing one fails instead of
/// seeming to gate against it.
#[test]
fn a_baseline_file_is_refused_by_every_gated_bench() {
    assert_rejected(&["--smoke", "--check", "baselines.json"], "--check");
}

/// The paper-artifact binaries and how many positional arguments each
/// takes after its flags.
const POSITIONAL: [(&str, usize); 5] = [
    (env!("CARGO_BIN_EXE_table1"), 2),
    (env!("CARGO_BIN_EXE_figure2"), 3),
    (env!("CARGO_BIN_EXE_duty_cycle"), 2),
    (env!("CARGO_BIN_EXE_ablations"), 2),
    (env!("CARGO_BIN_EXE_tracking_e2e"), 3),
];

/// Runs `exe` with `args` and asserts it exits 2 naming `stray`, having
/// printed nothing: it stopped before doing any work.
fn assert_refused(exe: &str, args: &[&str], stray: &str) {
    let out = Command::new(exe)
        .args(args)
        .output()
        .expect("bench binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{exe} {args:?}: {stderr}");
    assert!(
        stderr.contains(stray),
        "{exe} {args:?} did not name {stray}: {stderr}"
    );
    assert!(out.stdout.is_empty(), "{exe} {args:?} ran before refusing");
}

/// A flag the binary does not know, a count that is not a number and a
/// positional argument past the last one each stop the paper-artifact
/// binaries with the argument named, where they used to panic or drop
/// it. The leading arguments of the surplus case do not parse either, so
/// a binary that failed to count them would name one of those instead.
#[test]
fn the_paper_artifact_binaries_refuse_bad_positionals_by_name() {
    for (exe, takes) in POSITIONAL {
        assert_refused(exe, &["--bogus"], "--bogus");
        assert_refused(exe, &["1", "--bogus"], "--bogus");
        assert_refused(exe, &["many"], "many");
        let mut surplus = vec!["x"; takes];
        surplus.push("surplus");
        assert_refused(exe, &surplus, "surplus");
    }
}
