//! `bips-lint` — workspace determinism & safety analyzer.
//!
//! The simulator's headline guarantee is *bitwise determinism*: the
//! same seed produces the same report on any machine at any worker
//! count (`docs/OBSERVABILITY.md`). That property is one stray
//! `Instant::now()` or one `HashMap` iteration away from silently
//! breaking, and no unit test catches the breakage at the moment it is
//! introduced — only a flaky differential run much later. This crate
//! is the compile-time-adjacent guard: a dependency-free static
//! analyzer over the workspace source tree, run as
//! `cargo run -p bips-lint -- --check` (and as the CI `lint` job).
//!
//! See `docs/LINTS.md` for the rule catalog and the suppression
//! workflow. The scanner is token-level ([`lexer`]) — no
//! `syn`, no registry access, same hermeticity bar as the rest of the
//! workspace.

pub mod callgraph;
pub mod lexer;
pub mod parser;
pub mod reach;
pub mod rules;

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use lexer::{is_ident, is_punct, Lexed, Tok, TokKind};

/// One lint finding, machine-readable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule id (`wall-clock`, `hash-iter`, …; see [`rules::RULES`]).
    pub rule: &'static str,
    /// Workspace-relative path, forward slashes.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// What is wrong and what to do instead.
    pub message: String,
    /// The offending source line, trimmed.
    pub snippet: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}\n    {}",
            self.path, self.line, self.rule, self.message, self.snippet
        )
    }
}

/// Everything the per-file rules need, computed once per file.
pub struct FileCtx<'a> {
    /// Workspace-relative path, forward slashes.
    pub path: &'a str,
    pub source: &'a str,
    pub lexed: Lexed,
    /// Source lines (0-indexed storage for 1-based lines).
    pub lines: Vec<&'a str>,
    /// Half-open line ranges covered by `#[cfg(test)]` items.
    pub test_regions: Vec<(u32, u32)>,
    /// `true` when the whole file is test/bench collateral
    /// (`tests/`, `benches/` directories).
    pub is_test_file: bool,
}

impl FileCtx<'_> {
    /// The trimmed source line (1-based), capped for report output.
    pub fn snippet(&self, line: u32) -> String {
        let raw = self
            .lines
            .get(line.saturating_sub(1) as usize)
            .copied()
            .unwrap_or("")
            .trim();
        let mut s: String = raw.chars().take(120).collect();
        if s.len() < raw.len() {
            s.push('…');
        }
        s
    }

    /// Is this line inside a `#[cfg(test)]` item (or a test file)?
    pub fn in_test(&self, line: u32) -> bool {
        self.is_test_file
            || self
                .test_regions
                .iter()
                .any(|&(lo, hi)| line >= lo && line < hi)
    }
}

/// An inline suppression: `// lint:allow(<rule>): <reason>`.
#[derive(Debug)]
struct Suppression {
    rule: String,
    line: u32,
    reason_ok: bool,
    known_rule: bool,
    used: bool,
}

/// Builds a file's analysis context. `rel_path` decides rule scoping
/// (see `docs/LINTS.md`); it need not exist on disk, which is what the
/// golden-fixture tests rely on.
pub fn make_ctx<'a>(rel_path: &'a str, source: &'a str) -> FileCtx<'a> {
    let lexed = lexer::lex(source);
    let test_regions = test_regions(&lexed.toks);
    FileCtx {
        path: rel_path,
        source,
        lexed,
        lines: source.lines().collect(),
        test_regions,
        is_test_file: is_test_path(rel_path),
    }
}

/// Lints a set of sources as one analysis universe: per-file rules on
/// each file, the interprocedural reachability rules ([`reach`]) over
/// the call graph of the whole set, then each file's inline
/// suppressions applied to the findings that landed in it. Cross-file
/// doc-drift rules (`metric-doc`, `trace-doc`) are not run here — see
/// [`check_workspace`].
pub fn check_sources(files: &[(String, String)]) -> Vec<Finding> {
    let ctxs: Vec<FileCtx<'_>> = files.iter().map(|(p, s)| make_ctx(p, s)).collect();
    let mut findings = Vec::new();
    for ctx in &ctxs {
        findings.extend(rules::run_all(ctx));
    }
    let parsed: Vec<parser::ParsedFile> = ctxs.iter().map(|c| parser::parse(&c.lexed)).collect();
    let units: Vec<callgraph::Unit<'_>> = ctxs
        .iter()
        .zip(&parsed)
        .map(|(ctx, parsed)| callgraph::Unit { ctx, parsed })
        .collect();
    findings.extend(reach::run(&units));
    for ctx in &ctxs {
        apply_suppressions(ctx, &mut findings);
    }
    findings
        .sort_by(|a, b| (a.path.clone(), a.line, a.rule).cmp(&(b.path.clone(), b.line, b.rule)));
    findings
}

/// Lints one file's source in a single-file universe (the reach rules
/// see only this file's call graph — exactly what fixtures want).
pub fn check_source(rel_path: &str, source: &str) -> Vec<Finding> {
    check_sources(&[(rel_path.to_string(), source.to_string())])
}

/// Parses suppressions from comments, drops suppressed findings, and
/// appends `bad-suppression` findings for malformed/unknown/unused
/// ones.
fn apply_suppressions(ctx: &FileCtx<'_>, findings: &mut Vec<Finding>) {
    let mut sups: Vec<Suppression> = Vec::new();
    for (&line, text) in &ctx.lexed.comments {
        // A suppression is a dedicated comment: `// lint:allow(r): why`.
        // Prose that merely *mentions* the syntax (like this file's own
        // docs) must not parse as one, so require it at the start of
        // the comment text (after the `//`/`//!`/`///` marker).
        let body = text.trim_start_matches(['/', '!']).trim_start();
        let mut rest = body;
        while let Some(stripped) = rest.strip_prefix("lint:allow(") {
            let after = stripped;
            let Some(close) = after.find(')') else {
                sups.push(Suppression {
                    rule: String::new(),
                    line,
                    reason_ok: false,
                    known_rule: false,
                    used: false,
                });
                break;
            };
            let rule = after[..close].trim().to_string();
            let tail = &after[close + 1..];
            // Reason: a `:` followed by non-empty text.
            let reason_ok = tail.strip_prefix(':').is_some_and(|r| !r.trim().is_empty());
            let known_rule = rules::RULES.iter().any(|r| r.id == rule);
            sups.push(Suppression {
                rule,
                line,
                reason_ok,
                known_rule,
                used: false,
            });
            rest = tail;
        }
    }

    // A suppression covers its own line (trailing comment) and the
    // next line (comment above the statement) — for findings that
    // landed in this file (reach rules place findings across files).
    findings.retain(|f| {
        if f.path != ctx.path {
            return true;
        }
        for s in &mut sups {
            if s.known_rule
                && s.reason_ok
                && s.rule == f.rule
                && (s.line == f.line || s.line + 1 == f.line)
            {
                s.used = true;
                return false;
            }
        }
        true
    });

    for s in &sups {
        let (problem, fine) = if s.rule.is_empty() {
            ("unterminated `lint:allow(` comment".to_string(), false)
        } else if !s.known_rule {
            (format!("unknown rule `{}` in lint:allow", s.rule), false)
        } else if !s.reason_ok {
            (
                format!(
                    "lint:allow({}) needs a reason: `// lint:allow({}): why`",
                    s.rule, s.rule
                ),
                false,
            )
        } else if !s.used {
            (
                format!(
                    "unused lint:allow({}) — the code no longer trips the rule",
                    s.rule
                ),
                false,
            )
        } else {
            (String::new(), true)
        };
        if !fine {
            findings.push(Finding {
                rule: "bad-suppression",
                path: ctx.path.to_string(),
                line: s.line,
                message: problem,
                snippet: ctx.snippet(s.line),
            });
        }
    }
}

/// Line ranges (half-open, 1-based) of items annotated
/// `#[cfg(test)]` (or any `cfg(...)` mentioning `test`, e.g.
/// `#[cfg(all(test, unix))]`).
fn test_regions(toks: &[Tok]) -> Vec<(u32, u32)> {
    let mut regions = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        // `#` `[` cfg `(` … test … `)` `]`
        if is_punct(&toks[i], '#')
            && toks.get(i + 1).is_some_and(|t| is_punct(t, '['))
            && toks.get(i + 2).is_some_and(|t| is_ident(t, "cfg"))
            && toks.get(i + 3).is_some_and(|t| is_punct(t, '('))
        {
            // Scan the attribute's argument for the `test` ident.
            let mut j = i + 4;
            let mut depth = 1;
            let mut mentions_test = false;
            let mut mentions_not = false;
            while j < toks.len() && depth > 0 {
                if is_punct(&toks[j], '(') {
                    depth += 1;
                } else if is_punct(&toks[j], ')') {
                    depth -= 1;
                } else if is_ident(&toks[j], "test") {
                    mentions_test = true;
                } else if is_ident(&toks[j], "not") {
                    // `cfg(not(test))` is live code: be conservative and
                    // treat any negated cfg as non-test (stricter side).
                    mentions_not = true;
                }
                j += 1;
            }
            let mentions_test = mentions_test && !mentions_not;
            // Closing `]` of the attribute.
            while j < toks.len() && !is_punct(&toks[j], ']') {
                j += 1;
            }
            j += 1;
            if mentions_test {
                if let Some(span) = item_span(toks, j) {
                    regions.push((toks[i].line, span));
                }
            }
            i = j;
            continue;
        }
        i += 1;
    }
    regions
}

/// End line (exclusive) of the item starting at token `start`:
/// skips further attributes, then runs to the matching `}` of the
/// item's first brace block, or to a terminating `;`.
fn item_span(toks: &[Tok], mut start: usize) -> Option<u32> {
    // Skip stacked attributes (`#[test] #[should_panic] fn …`).
    while start < toks.len() && is_punct(&toks[start], '#') {
        start += 1; // '#'
        if start < toks.len() && is_punct(&toks[start], '[') {
            let mut depth = 0;
            while start < toks.len() {
                if is_punct(&toks[start], '[') {
                    depth += 1;
                } else if is_punct(&toks[start], ']') {
                    depth -= 1;
                    if depth == 0 {
                        start += 1;
                        break;
                    }
                }
                start += 1;
            }
        }
    }
    let mut i = start;
    while i < toks.len() {
        if is_punct(&toks[i], ';') {
            return Some(toks[i].line + 1);
        }
        if is_punct(&toks[i], '{') {
            let mut depth = 0;
            while i < toks.len() {
                if is_punct(&toks[i], '{') {
                    depth += 1;
                } else if is_punct(&toks[i], '}') {
                    depth -= 1;
                    if depth == 0 {
                        return Some(toks[i].line + 1);
                    }
                }
                i += 1;
            }
            return Some(u32::MAX); // unterminated: treat rest as test
        }
        i += 1;
    }
    None
}

// ---------------------------------------------------------------------
// Path scoping
// ---------------------------------------------------------------------

/// Test/bench collateral: integration tests, benches, examples.
pub fn is_test_path(rel: &str) -> bool {
    rel.contains("/tests/") || rel.contains("/benches/") || rel.contains("/examples/")
}

/// Files the walker skips entirely.
fn is_excluded(rel: &str) -> bool {
    rel.starts_with("target/")
        || rel.starts_with("vendor/")
        || rel.starts_with(".git")
        || rel.contains("/fixtures/")
}

/// Paths where wall-clock reads are legitimate: the engine's opt-in
/// host-time probe, the bench harness, and operator-facing binaries.
pub fn wall_clock_allowed(rel: &str) -> bool {
    rel == "crates/desim/src/probe.rs"
        || rel.starts_with("crates/bench/")
        || rel.starts_with("src/bin/")
}

/// Simulation-path crates where hash-order iteration is forbidden.
pub fn hash_iter_scope(rel: &str) -> bool {
    [
        "crates/desim/src/",
        "crates/baseband/src/",
        "crates/mobility/src/",
        "crates/core/src/",
    ]
    .iter()
    .any(|p| rel.starts_with(p))
}

/// The serving path: panic-freedom is load-bearing here (a poisoned
/// lock would otherwise cascade across every query thread). The graph
/// path walk is included because every `WhereIs` answer runs it.
pub fn serve_panic_scope(rel: &str) -> bool {
    rel == "crates/core/src/service.rs"
        || rel == "crates/core/src/server.rs"
        || rel == "crates/core/src/graph/walk.rs"
}

/// Where metric registrations are checked for name discipline.
pub fn metric_scope(rel: &str) -> bool {
    !rel.starts_with("crates/lint/") && (rel.starts_with("crates/") || rel.starts_with("src/"))
}

// ---------------------------------------------------------------------
// Workspace walk + cross-file rules
// ---------------------------------------------------------------------

/// Lints the whole workspace rooted at `root`: per-file rules on every
/// `.rs` file plus the `metric-doc` drift check against
/// `docs/OBSERVABILITY.md`.
pub fn check_workspace(root: &Path) -> io::Result<Vec<Finding>> {
    let sources = workspace_sources(root)?;
    let mut findings = check_sources(&sources);
    let mut registrations: Vec<(String, String, u32)> = Vec::new(); // (name, path, line)
    let mut trace_kinds: Vec<(String, u32)> = Vec::new();
    for (rel, source) in &sources {
        if metric_scope(rel) {
            registrations.extend(
                collect_metric_registrations(rel, source)
                    .into_iter()
                    .map(|(name, line)| (name, rel.clone(), line)),
            );
        }
        if rel == TRACE_KIND_FILE {
            trace_kinds = collect_trace_kinds(source);
        }
    }

    let doc_path = root.join("docs/OBSERVABILITY.md");
    if let Ok(doc) = fs::read_to_string(&doc_path) {
        findings.extend(metric_doc_drift(&doc, &registrations));
        findings.extend(trace_doc_drift(&doc, &trace_kinds));
    }

    findings
        .sort_by(|a, b| (a.path.clone(), a.line, a.rule).cmp(&(b.path.clone(), b.line, b.rule)));
    Ok(findings)
}

/// Every analyzable `.rs` source under `root` — the same walk and
/// ordering [`check_workspace`] uses — as (workspace-relative path,
/// contents) pairs. Public so the self-parse test can cover exactly
/// the file set the analyzer sees.
pub fn workspace_sources(root: &Path) -> io::Result<Vec<(String, String)>> {
    let mut files = Vec::new();
    walk(root, root, &mut files)?;
    files.sort();
    let mut out = Vec::with_capacity(files.len());
    for path in &files {
        out.push((rel_path(root, path), fs::read_to_string(path)?));
    }
    Ok(out)
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let rel = rel_path(root, &path);
        if is_excluded(&rel) {
            continue;
        }
        if entry.file_type()?.is_dir() {
            walk(root, &path, out)?;
        } else if rel.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Metric names registered in `source` (outside test regions), with
/// `format!` placeholders normalized to `*`. Shared by the
/// `metric-name` rule and the workspace-level `metric-doc` check.
pub fn collect_metric_registrations(rel_path: &str, source: &str) -> Vec<(String, u32)> {
    let lexed = lexer::lex(source);
    let regions = test_regions(&lexed.toks);
    let in_test = |line: u32| {
        is_test_path(rel_path) || regions.iter().any(|&(lo, hi)| line >= lo && line < hi)
    };
    let toks = &lexed.toks;
    let mut out = Vec::new();
    let mut i = 0;
    while i + 2 < toks.len() {
        if is_punct(&toks[i], '.')
            && toks[i + 1].kind == TokKind::Ident
            && rules::METRIC_METHODS.contains(&toks[i + 1].text.as_str())
            && is_punct(&toks[i + 2], '(')
            && !in_test(toks[i + 1].line)
        {
            // First argument: an optional `&`, then either a string
            // literal or `format!("…", …)`. Anything else is dynamic
            // and out of reach for a static check.
            let mut j = i + 3;
            if j < toks.len() && is_punct(&toks[j], '&') {
                j += 1;
            }
            if j < toks.len() && toks[j].kind == TokKind::Str {
                out.push((toks[j].text.clone(), toks[j].line));
            } else if j + 3 < toks.len()
                && is_ident(&toks[j], "format")
                && is_punct(&toks[j + 1], '!')
                && is_punct(&toks[j + 2], '(')
                && toks[j + 3].kind == TokKind::Str
            {
                out.push((normalize_wildcards(&toks[j + 3].text), toks[j + 3].line));
            }
            i = j;
            continue;
        }
        i += 1;
    }
    out
}

/// `shard{i}` / `shard<i>` → `shard*`.
pub fn normalize_wildcards(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    let mut depth = 0;
    for c in name.chars() {
        match c {
            '{' | '<' => {
                if depth == 0 {
                    out.push('*');
                }
                depth += 1;
            }
            '}' | '>' => depth = (depth as i32 - 1).max(0) as usize,
            _ if depth == 0 => out.push(c),
            _ => {}
        }
    }
    out
}

/// Names documented in the `## Metric catalog` section: table rows
/// only, first cell only, with the `` `x.y.z` / `.suffix` ``
/// shorthand expanded. Returns (normalized name, doc line).
pub fn doc_metric_names(doc: &str) -> Vec<(String, u32)> {
    let mut out = Vec::new();
    let mut in_catalog = false;
    let mut prev_full: Option<String> = None;
    for (idx, raw) in doc.lines().enumerate() {
        let line = raw.trim();
        if let Some(h) = line.strip_prefix("## ") {
            in_catalog = h.trim() == "Metric catalog";
            continue;
        }
        if !in_catalog || !line.starts_with('|') {
            continue;
        }
        // First cell: between the first two unescaped '|'.
        let Some(cell) = line.trim_start_matches('|').split('|').next() else {
            continue;
        };
        for span in backtick_spans(cell) {
            let name = if let Some(suffix) = span.strip_prefix('.') {
                // `baseband.page.started` / `.completed` shorthand:
                // replace the previous name's last segment.
                let Some(prev) = &prev_full else { continue };
                let Some(stem) = prev.rsplit_once('.').map(|(s, _)| s) else {
                    continue;
                };
                format!("{stem}.{suffix}")
            } else if span.contains('.') {
                prev_full = Some(normalize_wildcards(&span));
                normalize_wildcards(&span)
            } else {
                continue;
            };
            out.push((normalize_wildcards(&name), idx as u32 + 1));
        }
    }
    out
}

fn backtick_spans(s: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut rest = s;
    while let Some(open) = rest.find('`') {
        let after = &rest[open + 1..];
        let Some(close) = after.find('`') else { break };
        out.push(after[..close].to_string());
        rest = &after[close + 1..];
    }
    out
}

/// Both-direction drift between the doc catalog and live
/// registrations.
pub fn metric_doc_drift(doc: &str, registrations: &[(String, String, u32)]) -> Vec<Finding> {
    let doc_names = doc_metric_names(doc);
    let mut findings = Vec::new();

    // Registration with no catalog entry.
    for (name, path, line) in registrations {
        let norm = normalize_wildcards(name);
        if !doc_names.iter().any(|(d, _)| *d == norm) {
            findings.push(Finding {
                rule: "metric-doc",
                path: path.clone(),
                line: *line,
                message: format!(
                    "metric `{norm}` is registered here but missing from \
                     docs/OBSERVABILITY.md's catalog"
                ),
                snippet: format!("`{norm}`"),
            });
        }
    }

    // Catalog entry with no registration.
    let reg_names: Vec<String> = registrations
        .iter()
        .map(|(n, _, _)| normalize_wildcards(n))
        .collect();
    for (name, line) in &doc_names {
        if !reg_names.iter().any(|r| r == name) {
            findings.push(Finding {
                rule: "metric-doc",
                path: "docs/OBSERVABILITY.md".to_string(),
                line: *line,
                message: format!("documented metric `{name}` is not registered anywhere"),
                snippet: format!("`{name}`"),
            });
        }
    }
    findings
}

/// Where the workspace's trace-event registry lives: the `TraceKind`
/// enum. The `trace-doc` rule cross-checks its variants against the
/// doc catalog.
pub const TRACE_KIND_FILE: &str = "crates/desim/src/tracing.rs";

/// `QueryStart` → `query_start`: the stable snake_case names
/// `TraceKind::name()` uses in JSONL artifacts and the doc catalog.
pub fn trace_kind_snake(variant: &str) -> String {
    let mut out = String::with_capacity(variant.len() + 4);
    for c in variant.chars() {
        if c.is_ascii_uppercase() {
            if !out.is_empty() {
                out.push('_');
            }
            out.push(c.to_ascii_lowercase());
        } else {
            out.push(c);
        }
    }
    out
}

/// Variants of the `TraceKind` enum in `source`, as snake_case names
/// with the declaration line. Token-level: an uppercase identifier at
/// brace depth 1 inside `enum TraceKind { … }` is a variant.
pub fn collect_trace_kinds(source: &str) -> Vec<(String, u32)> {
    let lexed = lexer::lex(source);
    let toks = &lexed.toks;
    let mut out = Vec::new();
    let mut i = 0;
    while i + 1 < toks.len() {
        if !(is_ident(&toks[i], "enum") && is_ident(&toks[i + 1], "TraceKind")) {
            i += 1;
            continue;
        }
        let mut j = i + 2;
        while j < toks.len() && !is_punct(&toks[j], '{') {
            j += 1;
        }
        let mut depth = 0u32;
        while let Some(t) = toks.get(j) {
            if is_punct(t, '{') {
                depth += 1;
            } else if is_punct(t, '}') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else if depth == 1
                && t.kind == TokKind::Ident
                && t.text
                    .chars()
                    .next()
                    .is_some_and(|c| c.is_ascii_uppercase())
            {
                out.push((trace_kind_snake(&t.text), t.line));
            }
            j += 1;
        }
        break;
    }
    out
}

/// Names documented in the `## Trace event catalog` section: table
/// rows only, first cell only, backticked snake_case idents.
pub fn doc_trace_kinds(doc: &str) -> Vec<(String, u32)> {
    let mut out = Vec::new();
    let mut in_catalog = false;
    for (idx, raw) in doc.lines().enumerate() {
        let line = raw.trim();
        if let Some(h) = line.strip_prefix("## ") {
            in_catalog = h.trim() == "Trace event catalog";
            continue;
        }
        if !in_catalog || !line.starts_with('|') {
            continue;
        }
        let Some(cell) = line.trim_start_matches('|').split('|').next() else {
            continue;
        };
        for span in backtick_spans(cell) {
            if !span.is_empty()
                && span
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
            {
                out.push((span, idx as u32 + 1));
            }
        }
    }
    out
}

/// Both-direction drift between the `TraceKind` registry and the doc
/// catalog: every variant needs a catalog row, every row a variant.
pub fn trace_doc_drift(doc: &str, kinds: &[(String, u32)]) -> Vec<Finding> {
    let doc_names = doc_trace_kinds(doc);
    let mut findings = Vec::new();

    for (name, line) in kinds {
        if !doc_names.iter().any(|(d, _)| d == name) {
            findings.push(Finding {
                rule: "trace-doc",
                path: TRACE_KIND_FILE.to_string(),
                line: *line,
                message: format!(
                    "trace event kind `{name}` is registered here but missing from \
                     docs/OBSERVABILITY.md's trace event catalog"
                ),
                snippet: format!("`{name}`"),
            });
        }
    }

    for (name, line) in &doc_names {
        if !kinds.iter().any(|(k, _)| k == name) {
            findings.push(Finding {
                rule: "trace-doc",
                path: "docs/OBSERVABILITY.md".to_string(),
                line: *line,
                message: format!("documented trace event kind `{name}` has no `TraceKind` variant"),
                snippet: format!("`{name}`"),
            });
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_regions_cover_cfg_test_modules() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn after() {}\n";
        let lexed = lexer::lex(src);
        let regions = test_regions(&lexed.toks);
        assert_eq!(regions, vec![(2, 6)]);
    }

    #[test]
    fn test_regions_handle_cfg_all_and_stacked_attrs() {
        let src = "#[cfg(all(test, unix))]\n#[allow(dead_code)]\nfn t() {\n}\nfn live() {}\n";
        let regions = test_regions(&lexer::lex(src).toks);
        assert_eq!(regions, vec![(1, 5)]);
        let src2 = "#[cfg(feature = \"test\")]\nfn not_test_cfg() {}\n";
        assert!(test_regions(&lexer::lex(src2).toks).is_empty());
    }

    #[test]
    fn wildcard_normalization() {
        assert_eq!(
            normalize_wildcards("core.service.shard{i}.queries"),
            "core.service.shard*.queries"
        );
        assert_eq!(
            normalize_wildcards("engine.events.<type>"),
            "engine.events.*"
        );
        assert_eq!(normalize_wildcards("plain.name"), "plain.name");
    }

    #[test]
    fn doc_parser_expands_suffix_shorthand() {
        let doc = "## Metric catalog\n\n| name | kind |\n|---|---|\n\
                   | `baseband.page.started` / `.completed` | counter |\n\
                   | `engine.events.<type>` | counter |\n\
                   ## Run reports\n\n| `config.jobs` | not a metric |\n";
        let names: Vec<String> = doc_metric_names(doc).into_iter().map(|(n, _)| n).collect();
        assert_eq!(
            names,
            vec![
                "baseband.page.started",
                "baseband.page.completed",
                "engine.events.*"
            ]
        );
    }
}
