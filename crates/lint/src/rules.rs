//! The rule set. Each rule walks the token stream of one file; scoping
//! (which paths, whether test regions count) lives with the rule.
//! `docs/LINTS.md` is the user-facing catalog — keep the two in sync.

use crate::lexer::{is_ident, is_punct, Tok, TokKind};
use crate::{FileCtx, Finding};

/// One rule's catalog entry: id and one-line summary (`--list-rules`,
/// and the validity check for `lint:allow(<rule>)`), plus the longer
/// rationale and root declaration that `--explain <rule>` prints — a
/// single table so docs and code can't drift.
pub struct RuleInfo {
    pub id: &'static str,
    pub summary: &'static str,
    pub rationale: &'static str,
    /// Call-graph roots for interprocedural rules; empty for lexical
    /// per-file rules.
    pub roots: &'static str,
}

pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "wall-clock",
        summary: "no Instant::now/SystemTime outside desim::probe and bench/operator binaries",
        rationale: "Simulated runs replay from a seed; any host-time observation makes two \
                    replications diverge. Virtual time comes from the engine clock \
                    (desim::SimTime); host time is quarantined in desim::probe and the \
                    bench/operator binaries.",
        roots: "",
    },
    RuleInfo {
        id: "hash-iter",
        summary: "no HashMap/HashSet iteration in simulation crates (hash order is per-process random)",
        rationale: "std's hasher is seeded per process, so HashMap/HashSet iteration order \
                    differs across runs. Lookups are fine; iteration must go through \
                    BTreeMap/BTreeSet or an explicit sort.",
        roots: "",
    },
    RuleInfo {
        id: "entropy",
        summary: "no thread_rng/from_entropy/OsRng — all randomness flows from the run seed",
        rationale: "Every random draw must derive from the run seed (desim::SeedDeriver) or \
                    replications stop being reproducible.",
        roots: "",
    },
    RuleInfo {
        id: "nan-cmp",
        summary: "no partial_cmp().unwrap() or sort_by(partial_cmp) on floats — use total_cmp",
        rationale: "partial_cmp is None on NaN, and NaN reaches a comparator exactly when an \
                    upstream invariant broke — the worst time to panic (or, since Rust 1.81, \
                    to hand sort an inconsistent order). f64::total_cmp is total and free.",
        roots: "",
    },
    RuleInfo {
        id: "serve-panic-reach",
        summary: "no unwrap/expect/panic!/indexing/unchecked div reachable from a serve entry point",
        rationale: "One panic poisons shard locks and cascades into every later query, so the \
                    serve path must be total across the whole call chain, not just within a \
                    file list. Sinks: .unwrap()/.expect(), panic!/unreachable!/todo!/\
                    unimplemented!, slice indexing without .get(), and / or % with a \
                    non-literal non-constant divisor. Externals are opaque-safe (an \
                    unresolved call is not a finding). Subsumes the legacy file-scoped \
                    serve-panic rule via scan-only file roots.",
        roots: "transitive: serve_payload, where_is*, BipsServer::handle; scan-only (body \
                scanned, calls not followed): every fn in crates/core/src/service.rs, \
                crates/core/src/server.rs, crates/core/src/graph/walk.rs",
    },
    RuleInfo {
        id: "serve-lock-reach",
        summary: "no RwLock/Mutex acquisition reachable from the where_is*/serve_payload read path",
        rationale: "The seqlock read path is wait-free by contract: a reader blocking behind \
                    a flush is a tail-latency cliff. Lock helpers \
                    (read_lock/write_lock/lock_mutex) and direct .read()/.write()/.lock() \
                    acquisitions are opaque-unsafe leaf sinks — flagged where they appear, \
                    bodies never traversed. Writer-side arms reached via serve_payload \
                    suppress at the sink with a documented reason. Generalizes the legacy \
                    single-file serve-reader-lock rule to the whole workspace.",
        roots: "transitive: serve_payload, where_is*",
    },
    RuleInfo {
        id: "serve-alloc-reach",
        summary: "no Box::new/vec!/format!/to_string/collect/String::from reachable from the query path",
        rationale: "The WhereIs query path is pinned zero-alloc at runtime (query_alloc \
                    counter); this is its static twin, catching an allocation before a \
                    runtime test happens to hit it. Allocating names are opaque-unsafe \
                    sinks; everything else external is opaque-safe.",
        roots: "transitive: where_is*",
    },
    RuleInfo {
        id: "seqlock-ordering",
        summary: "seqlock seq words: Acquire read-validate, fenced re-check, seq+1/fence/payload/seq+2 publish",
        rationale: "DESIGN.md §7 fixes the seqlock shape: readers enter with a seq.load(\
                    Acquire) and may only re-check with Relaxed behind an atomic::fence(\
                    Acquire); writers bracket payload stores between an odd store (fenced \
                    with Release if the store itself is Relaxed) and a final \
                    seq.store(Release). Any fn touching a `seq` atomic is checked; \
                    RMW-only fns (sequence allocators) are out of scope.",
        roots: "every non-test fn with a `seq.load/seq.store` atomic access (no call-graph \
                traversal — the shape check is per-fn)",
    },
    RuleInfo {
        id: "unsafe-safety",
        summary: "every `unsafe` needs a `// SAFETY:` comment on or just above it",
        rationale: "An unsafe block is a proof obligation; the comment states the invariant \
                    that discharges it, where the next editor will see it.",
        roots: "",
    },
    RuleInfo {
        id: "metric-name",
        summary: "metric names follow `crate.section.name` (2–4 lowercase dotted segments)",
        rationale: "Keeps the catalog in docs/OBSERVABILITY.md greppable and the per-crate \
                    prefixes unambiguous.",
        roots: "",
    },
    RuleInfo {
        id: "metric-doc",
        summary: "metric registrations and docs/OBSERVABILITY.md's catalog must agree",
        rationale: "The observability doc is the operator contract; a metric that exists in \
                    code but not the doc (or vice versa) is a silent drift.",
        roots: "",
    },
    RuleInfo {
        id: "trace-doc",
        summary: "TraceKind variants and docs/OBSERVABILITY.md's trace event catalog must agree",
        rationale: "Same drift guard as metric-doc, for the trace event taxonomy.",
        roots: "",
    },
    RuleInfo {
        id: "bad-suppression",
        summary: "lint:allow must name a real rule, give a reason, and suppress something",
        rationale: "A suppression that names no real rule, carries no reason, or suppresses \
                    nothing is debt pretending to be documentation.",
        roots: "",
    },
];

/// Methods on `desim::metrics::MetricSet` that register a metric name.
pub const METRIC_METHODS: &[&str] = &[
    "inc",
    "add",
    "set_counter",
    "gauge",
    "observe",
    "observe_stats",
];

/// Runs all per-file rules (suppressions are applied by the caller).
pub fn run_all(ctx: &FileCtx<'_>) -> Vec<Finding> {
    let mut out = Vec::new();
    wall_clock(ctx, &mut out);
    hash_iter(ctx, &mut out);
    entropy(ctx, &mut out);
    nan_cmp(ctx, &mut out);
    unsafe_safety(ctx, &mut out);
    metric_name(ctx, &mut out);
    out
}

fn finding(ctx: &FileCtx<'_>, rule: &'static str, line: u32, message: String) -> Finding {
    Finding {
        rule,
        path: ctx.path.to_string(),
        line,
        message,
        snippet: ctx.snippet(line),
    }
}

// ---------------------------------------------------------------------
// Determinism
// ---------------------------------------------------------------------

/// `Instant::now()` / `SystemTime` outside the sanctioned host-time
/// islands. Test code may time itself; simulation code may not.
fn wall_clock(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    if crate::wall_clock_allowed(ctx.path) || ctx.is_test_file {
        return;
    }
    let toks = &ctx.lexed.toks;
    for (i, t) in toks.iter().enumerate() {
        if ctx.in_test(t.line) {
            continue;
        }
        if is_ident(t, "Instant")
            && toks.get(i + 1).is_some_and(|t| is_punct(t, ':'))
            && toks.get(i + 2).is_some_and(|t| is_punct(t, ':'))
            && toks.get(i + 3).is_some_and(|t| is_ident(t, "now"))
        {
            out.push(finding(
                ctx,
                "wall-clock",
                t.line,
                "Instant::now() on a simulation path — virtual time comes from the \
                 engine clock (desim::SimTime); host time only via desim::probe"
                    .to_string(),
            ));
        }
        if is_ident(t, "SystemTime") || is_ident(t, "UNIX_EPOCH") {
            out.push(finding(
                ctx,
                "wall-clock",
                t.line,
                format!(
                    "{} on a simulation path — runs must not observe host time",
                    t.text
                ),
            ));
        }
    }
}

/// Iteration methods whose order leaks the hasher state.
const ORDER_LEAKING: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "into_keys",
    "into_values",
    "drain",
    "retain",
    "retain_mut",
];

/// HashMap/HashSet iteration in the simulation crates. Two passes:
/// find identifiers bound to hash collections (type annotations and
/// `= HashMap::new()`-style initializers), then flag order-dependent
/// uses of those identifiers. Lookups (`get`, `insert`, `contains_key`)
/// stay legal — only iteration order is the hazard.
fn hash_iter(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    if !crate::hash_iter_scope(ctx.path) || ctx.is_test_file {
        return;
    }
    let toks = &ctx.lexed.toks;

    // Pass 1: names bound to HashMap/HashSet.
    let mut bound: Vec<String> = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if !(is_ident(t, "HashMap") || is_ident(t, "HashSet")) || ctx.in_test(t.line) {
            continue;
        }
        // Walk back over a `std::collections::`-style path.
        let mut k = i;
        while k >= 3
            && is_punct(&toks[k - 1], ':')
            && is_punct(&toks[k - 2], ':')
            && toks[k - 3].kind == TokKind::Ident
        {
            k -= 3;
        }
        // `name: path::HashMap<…>` or `name = path::HashMap::new()`.
        if k >= 2
            && (is_punct(&toks[k - 1], ':') || is_punct(&toks[k - 1], '='))
            && toks[k - 2].kind == TokKind::Ident
        {
            let name = toks[k - 2].text.clone();
            if !bound.contains(&name) {
                bound.push(name);
            }
        }
    }
    if bound.is_empty() {
        return;
    }

    // Pass 2: order-dependent uses.
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || !bound.contains(&t.text) || ctx.in_test(t.line) {
            continue;
        }
        // map.iter() / map.drain(..) / …
        if toks.get(i + 1).is_some_and(|n| is_punct(n, '.'))
            && toks.get(i + 2).is_some_and(|m| {
                m.kind == TokKind::Ident && ORDER_LEAKING.contains(&m.text.as_str())
            })
            && toks.get(i + 3).is_some_and(|p| is_punct(p, '('))
        {
            out.push(finding(
                ctx,
                "hash-iter",
                t.line,
                format!(
                    "iterating hash-ordered `{}` via `.{}()` — order depends on the \
                     per-process hasher seed; use BTreeMap/BTreeSet or sort first",
                    t.text,
                    toks[i + 2].text
                ),
            ));
            continue;
        }
        // `for x in map {` / `for (k, v) in &map {` — the identifier is
        // the last token before the loop-body `{`.
        if toks.get(i + 1).is_some_and(|n| is_punct(n, '{')) && in_for_header(toks, i) {
            out.push(finding(
                ctx,
                "hash-iter",
                t.line,
                format!(
                    "for-loop over hash-ordered `{}` — order depends on the per-process \
                     hasher seed; use BTreeMap/BTreeSet or sort first",
                    t.text
                ),
            ));
        }
    }
}

/// Does a `for … in` header (same statement, no intervening `{` or
/// `;`) precede token `i`?
fn in_for_header(toks: &[Tok], i: usize) -> bool {
    let mut saw_in = false;
    for j in (0..i).rev() {
        let t = &toks[j];
        if is_punct(t, '{') || is_punct(t, ';') || is_punct(t, '}') {
            return false;
        }
        if is_ident(t, "in") {
            saw_in = true;
        }
        if is_ident(t, "for") {
            return saw_in;
        }
    }
    false
}

/// Ambient randomness: every random draw must derive from the run
/// seed (`SeedDeriver`), or replications stop being reproducible.
fn entropy(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    for t in &ctx.lexed.toks {
        if ["thread_rng", "from_entropy", "OsRng", "getrandom"]
            .iter()
            .any(|b| is_ident(t, b))
        {
            out.push(finding(
                ctx,
                "entropy",
                t.line,
                format!(
                    "`{}` draws ambient entropy — all randomness must flow from the \
                     run seed (desim::SeedDeriver)",
                    t.text
                ),
            ));
        }
    }
}

// ---------------------------------------------------------------------
// NaN safety
// ---------------------------------------------------------------------

/// `partial_cmp(..).unwrap()/.expect(..)` and comparator closures
/// built on `partial_cmp`: both panic (or misbehave) on NaN, and NaN
/// reaches them exactly when an upstream invariant broke — the worst
/// time to panic. `f64::total_cmp` is total and free.
fn nan_cmp(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    let toks = &ctx.lexed.toks;
    for (i, t) in toks.iter().enumerate() {
        if is_ident(t, "partial_cmp") {
            // Skip trait-impl definitions (`fn partial_cmp(...)`).
            if i > 0 && is_ident(&toks[i - 1], "fn") {
                continue;
            }
            if let Some(close) = matching_paren(toks, i + 1) {
                if toks.get(close + 1).is_some_and(|d| is_punct(d, '.'))
                    && toks
                        .get(close + 2)
                        .is_some_and(|m| is_ident(m, "unwrap") || is_ident(m, "expect"))
                {
                    out.push(finding(
                        ctx,
                        "nan-cmp",
                        t.line,
                        "partial_cmp().unwrap/expect panics on NaN — use f64::total_cmp"
                            .to_string(),
                    ));
                }
            }
        }
        // sort_by(|a, b| a.partial_cmp(b) …) and friends.
        if [
            "sort_by",
            "sort_unstable_by",
            "min_by",
            "max_by",
            "binary_search_by",
        ]
        .iter()
        .any(|m| is_ident(t, m))
            && toks.get(i + 1).is_some_and(|p| is_punct(p, '('))
        {
            if let Some(close) = matching_paren(toks, i + 1) {
                if toks[i + 2..close]
                    .iter()
                    .any(|x| is_ident(x, "partial_cmp"))
                {
                    out.push(finding(
                        ctx,
                        "nan-cmp",
                        t.line,
                        format!(
                            "`{}` with a partial_cmp comparator — NaN makes the order \
                             inconsistent (UB for sort since Rust 1.81); use total_cmp",
                            t.text
                        ),
                    ));
                }
            }
        }
    }
}

/// Index of the `)` matching the `(` at `open` (which must be a `(`).
fn matching_paren(toks: &[Tok], open: usize) -> Option<usize> {
    if !toks.get(open).is_some_and(|t| is_punct(t, '(')) {
        return None;
    }
    let mut depth = 0usize;
    for (j, t) in toks.iter().enumerate().skip(open) {
        if is_punct(t, '(') {
            depth += 1;
        } else if is_punct(t, ')') {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

// ---------------------------------------------------------------------
// Unsafe hygiene
// ---------------------------------------------------------------------

/// Every `unsafe` keyword needs a `// SAFETY:` comment on its line or
/// within the three lines above (rustdoc `# Safety` sections on the
/// preceding doc comment also count).
fn unsafe_safety(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    let mut flagged_lines = Vec::new();
    for t in &ctx.lexed.toks {
        if !is_ident(t, "unsafe") || flagged_lines.contains(&t.line) {
            continue;
        }
        let lo = t.line.saturating_sub(3);
        let justified = (lo..=t.line).any(|l| {
            ctx.lexed
                .comments
                .get(&l)
                .is_some_and(|c| c.contains("SAFETY:") || c.contains("# Safety"))
        });
        if !justified {
            flagged_lines.push(t.line);
            out.push(finding(
                ctx,
                "unsafe-safety",
                t.line,
                "`unsafe` without a `// SAFETY:` comment — state the invariant that \
                 makes this sound"
                    .to_string(),
            ));
        }
    }
}

// ---------------------------------------------------------------------
// Metric naming
// ---------------------------------------------------------------------

/// Registered metric names must follow `crate.section.name`: 2–4
/// dot-separated segments of `[a-z0-9_]` (with `format!` placeholders
/// as `*`). Keeps the catalog in `docs/OBSERVABILITY.md` greppable and
/// the per-crate prefixes unambiguous.
fn metric_name(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    if !crate::metric_scope(ctx.path) || ctx.is_test_file {
        return;
    }
    for (name, line) in crate::collect_metric_registrations(ctx.path, ctx.source) {
        if ctx.in_test(line) {
            continue;
        }
        let norm = crate::normalize_wildcards(&name);
        if !well_formed_metric(&norm) {
            out.push(finding(
                ctx,
                "metric-name",
                line,
                format!(
                    "metric name `{name}` does not follow `crate.section.name` \
                     (2–4 lowercase dotted segments)"
                ),
            ));
        }
    }
}

fn well_formed_metric(norm: &str) -> bool {
    let segs: Vec<&str> = norm.split('.').collect();
    if !(2..=4).contains(&segs.len()) {
        return false;
    }
    let seg_ok = |s: &str| {
        !s.is_empty()
            && s.chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_' || c == '*')
    };
    segs.iter().all(|s| seg_ok(s))
        && segs[0]
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_lowercase())
}
