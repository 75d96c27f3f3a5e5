//! CLI for `bips-lint`. Usage:
//!
//! ```console
//! $ cargo run -p bips-lint -- --check
//! $ cargo run -p bips-lint -- --check --format json
//! $ cargo run -p bips-lint -- --check --format sarif
//! $ cargo run -p bips-lint -- --check --sarif-out report.sarif
//! $ cargo run -p bips-lint -- --list-rules
//! $ cargo run -p bips-lint -- --explain serve-panic-reach
//! ```
//!
//! `--check` lints the workspace and exits 1 on any finding — the CI
//! `lint` job gate.
//! `--sarif-out FILE` writes a SARIF 2.1.0 report alongside the
//! primary format in the same scan (CI uploads it as an artifact).

use std::path::PathBuf;
use std::process::ExitCode;

use bips_lint::{check_workspace, rules, Finding};

#[derive(Clone, Copy, PartialEq)]
enum Format {
    Text,
    Json,
    Sarif,
}

struct Args {
    root: PathBuf,
    format: Format,
    sarif_out: Option<PathBuf>,
    list_rules: bool,
    explain: Option<String>,
}

const USAGE: &str = "usage: bips-lint --check [--root DIR] \
                     [--format text|json|sarif] [--sarif-out FILE] \
                     | --list-rules | --explain RULE";

fn parse_args() -> Result<Args, String> {
    let mut out = Args {
        root: PathBuf::from("."),
        format: Format::Text,
        sarif_out: None,
        list_rules: false,
        explain: None,
    };
    let mut saw_check = false;
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--check" => saw_check = true,
            "--list-rules" => out.list_rules = true,
            "--explain" => {
                out.explain = Some(argv.next().ok_or("--explain needs a rule id")?);
            }
            "--root" => {
                out.root = PathBuf::from(argv.next().ok_or("--root needs a directory")?);
            }
            "--format" => match argv.next().as_deref() {
                Some("text") => out.format = Format::Text,
                Some("json") => out.format = Format::Json,
                Some("sarif") => out.format = Format::Sarif,
                _ => return Err("--format needs `text`, `json`, or `sarif`".to_string()),
            },
            "--sarif-out" => {
                out.sarif_out = Some(PathBuf::from(
                    argv.next().ok_or("--sarif-out needs a file")?,
                ));
            }
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    if !saw_check && !out.list_rules && out.explain.is_none() {
        return Err(USAGE.to_string());
    }
    Ok(out)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };

    if args.list_rules {
        for r in rules::RULES {
            println!("{:18} {}", r.id, r.summary);
        }
        return ExitCode::SUCCESS;
    }

    if let Some(rule) = &args.explain {
        let Some(r) = rules::RULES.iter().find(|r| r.id == *rule) else {
            eprintln!("bips-lint: unknown rule `{rule}` (see --list-rules)");
            return ExitCode::from(2);
        };
        println!("{}\n  {}\n", r.id, r.summary);
        println!("rationale:\n  {}\n", reflow(r.rationale));
        if r.roots.is_empty() {
            println!("roots:\n  (lexical per-file rule — no call-graph roots)");
        } else {
            println!("roots:\n  {}", reflow(r.roots));
        }
        return ExitCode::SUCCESS;
    }

    let findings = match check_workspace(&args.root) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("bips-lint: workspace walk failed: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(path) = &args.sarif_out {
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            let _ = std::fs::create_dir_all(dir);
        }
        if let Err(e) = std::fs::write(path, to_sarif(&findings)) {
            eprintln!("bips-lint: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }

    match args.format {
        Format::Json => println!("{}", to_json(&findings)),
        Format::Sarif => println!("{}", to_sarif(&findings)),
        Format::Text => {
            for f in &findings {
                println!("{f}");
            }
            if findings.is_empty() {
                println!("bips-lint: clean ({} rules)", rules::RULES.len());
            } else {
                println!("bips-lint: {} finding(s)", findings.len());
            }
        }
    }

    if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Collapses the multi-line continuation whitespace of the rule-table
/// string literals for terminal output.
fn reflow(s: &str) -> String {
    s.split_whitespace().collect::<Vec<_>>().join(" ")
}

fn to_json(findings: &[Finding]) -> String {
    let mut out = String::from("[");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n  {{\"rule\": {}, \"path\": {}, \"line\": {}, \"message\": {}, \"snippet\": {}}}",
            json_str(f.rule),
            json_str(&f.path),
            f.line,
            json_str(&f.message),
            json_str(&f.snippet)
        ));
    }
    out.push_str(if findings.is_empty() { "]" } else { "\n]" });
    out
}

/// SARIF 2.1.0, hand-rolled with the same escaping discipline as
/// [`to_json`]: one run, one rule descriptor per catalog entry, one
/// result per finding.
fn to_sarif(findings: &[Finding]) -> String {
    let mut out = String::from(
        "{\n  \"version\": \"2.1.0\",\n  \
         \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n  \
         \"runs\": [{\n    \"tool\": {\"driver\": {\n      \"name\": \"bips-lint\",\n      \
         \"informationUri\": \"docs/LINTS.md\",\n      \"rules\": [",
    );
    for (i, r) in rules::RULES.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n        {{\"id\": {}, \"shortDescription\": {{\"text\": {}}}}}",
            json_str(r.id),
            json_str(r.summary)
        ));
    }
    out.push_str("\n      ]\n    }},\n    \"results\": [");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n      {{\"ruleId\": {}, \"level\": \"error\", \
             \"message\": {{\"text\": {}}}, \"locations\": [{{\
             \"physicalLocation\": {{\
             \"artifactLocation\": {{\"uri\": {}}}, \
             \"region\": {{\"startLine\": {}, \"snippet\": {{\"text\": {}}}}}}}}}]}}",
            json_str(f.rule),
            json_str(&f.message),
            json_str(&f.path),
            f.line,
            json_str(&f.snippet)
        ));
    }
    out.push_str(if findings.is_empty() {
        "]\n  }]\n}"
    } else {
        "\n    ]\n  }]\n}"
    });
    out
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
