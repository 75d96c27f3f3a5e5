//! `bips-sim --building` takes exactly the presets a `.bips` file's
//! `building` directive accepts. A spec outside them used to be clamped
//! silently (`office:0` ran one floor, `corridor:1` two rooms); it must
//! instead exit 2 before running anything. A scenario file runs to the
//! end and exits 0. `--jobs` is not a flag: the simulation runs one
//! engine on one thread, so it too exits 2.

use std::process::Command;

#[test]
fn bad_building_specs_exit_2() {
    for spec in ["office:0", "corridor:1", "corridor:x", "campus"] {
        let out = Command::new(env!("CARGO_BIN_EXE_bips-sim"))
            .args(["--building", spec, "--duration", "1"])
            .output()
            .expect("bips-sim runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "--building {spec}: {stderr}");
        assert!(
            stderr.contains(spec),
            "--building {spec} not named: {stderr}"
        );
    }
}

#[test]
fn jobs_flag_exits_2() {
    let out = Command::new(env!("CARGO_BIN_EXE_bips-sim"))
        .args(["--jobs", "2", "--duration", "1"])
        .output()
        .expect("bips-sim runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "--jobs 2: {stderr}");
    assert!(stderr.contains("--jobs"), "--jobs not named: {stderr}");
}

#[test]
fn department_scenario_runs_to_completion() {
    let file = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/department.bips");
    let out = Command::new(env!("CARGO_BIN_EXE_bips-sim"))
        .args(["--file", file])
        .output()
        .expect("bips-sim runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("— telemetry —"), "{stdout}");
}
