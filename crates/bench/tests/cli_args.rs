//! The gated bench binaries refuse arguments they do not know.
//!
//! A mistyped `--check` used to be dropped silently, so the run passed
//! with every gate off; a mistyped `--smoke` started the full-size run.
//! Each binary must instead exit 2 before doing any work and name the
//! argument it did not consume.

use std::process::Command;

#[test]
fn a_mistyped_flag_fails_every_gated_bench_by_name() {
    for exe in [
        env!("CARGO_BIN_EXE_perf_baseline"),
        env!("CARGO_BIN_EXE_server_throughput"),
        env!("CARGO_BIN_EXE_mix_throughput"),
        env!("CARGO_BIN_EXE_net_throughput"),
        env!("CARGO_BIN_EXE_path_churn"),
    ] {
        let out = Command::new(exe)
            .args(["--smoke", "--chek", "BENCH.json"])
            .output()
            .expect("bench binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{exe}: {stderr}");
        assert!(
            stderr.contains("--chek"),
            "{exe} did not name --chek: {stderr}"
        );
    }
}
