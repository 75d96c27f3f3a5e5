//! The self-test the CI gate rides on: the live workspace lints clean.
//! A finding is fixed, or accepted in place with a reasoned
//! `lint:allow(rule): reason`.

use std::path::Path;

#[test]
fn workspace_lints_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root");
    let findings = bips_lint::check_workspace(root).expect("workspace walk");
    assert!(
        findings.is_empty(),
        "bips-lint found {} problem(s) in the live workspace:\n{}",
        findings.len(),
        findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}
