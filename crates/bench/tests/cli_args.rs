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
