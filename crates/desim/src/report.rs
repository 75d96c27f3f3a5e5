//! Structured run reports: a dependency-free JSON/JSONL exporter.
//!
//! Experiment binaries dump a machine-readable [`RunReport`] next to their
//! human-readable output so CI can archive results and downstream tooling
//! can diff runs. The build environment is fully offline, so the JSON
//! encoder is hand-rolled here rather than pulled from a crate: [`Json`]
//! is a tiny document model with correct string escaping, `null` for
//! non-finite floats, and both compact (JSONL) and pretty rendering.
//!
//! The report schema (`bips-run-report/v1`) is documented in
//! `docs/OBSERVABILITY.md`:
//!
//! ```json
//! {
//!   "schema": "bips-run-report/v1",
//!   "experiment": "table1",
//!   "seed": 7,
//!   "config": { ... },
//!   "artifacts": { ... },
//!   "metrics": { "name": {"kind": "counter", "value": 3}, ... }
//! }
//! ```
//!
//! # Example
//!
//! ```
//! use desim::metrics::MetricSet;
//! use desim::report::RunReport;
//!
//! let mut m = MetricSet::new();
//! m.inc("baseband.inquiry.ids_transmitted");
//! let mut r = RunReport::new("demo", 42);
//! r.config("slaves", 3u64);
//! r.artifact("mean_discovery_s", 2.5);
//! r.metrics(&m);
//! let line = r.to_json().render_compact();
//! assert!(line.starts_with("{\"schema\":\"bips-run-report/v1\""));
//! ```

use std::fmt;
use std::fmt::Write as _;
use std::io;
use std::path::Path;

use crate::metrics::{Metric, MetricSet};
use crate::stats::OnlineStats;

/// The schema identifier stamped into every report.
pub const SCHEMA: &str = "bips-run-report/v1";

/// A JSON document: the minimal model needed to emit reports.
///
/// Object keys keep their insertion order, so reports render with stable,
/// human-chosen field ordering.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer.
    UInt(u64),
    /// A signed integer.
    Int(i64),
    /// A float; NaN and infinities render as `null` (JSON has no words
    /// for them).
    Num(f64),
    /// A string (escaped on render).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::UInt(v)
    }
}
impl From<u32> for Json {
    fn from(v: u32) -> Json {
        Json::UInt(v as u64)
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::UInt(v as u64)
    }
}
impl From<i64> for Json {
    fn from(v: i64) -> Json {
        Json::Int(v)
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Num(v)
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}
impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}
impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Json {
        Json::Arr(v.into_iter().map(Into::into).collect())
    }
}

impl Json {
    /// An empty object.
    pub fn object() -> Json {
        Json::Obj(Vec::new())
    }

    /// Appends `key: value` to an object (replacing an existing key).
    ///
    /// # Panics
    ///
    /// Panics if `self` is not an object.
    pub fn set(&mut self, key: &str, value: impl Into<Json>) -> &mut Json {
        match self {
            Json::Obj(fields) => {
                let value = value.into();
                if let Some(slot) = fields.iter_mut().find(|(k, _)| k == key) {
                    slot.1 = value;
                } else {
                    fields.push((key.to_string(), value));
                }
            }
            other => panic!("Json::set on non-object {other:?}"),
        }
        self
    }

    /// Looks a key up in an object (`None` for other variants).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Renders without any whitespace — one report per line (JSONL).
    pub fn render_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Renders indented, two spaces per level.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::UInt(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Int(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Num(v) => {
                if v.is_finite() {
                    // `{}` prints the shortest digits that round-trip.
                    let _ = write!(out, "{v}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push(']');
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push('}');
            }
        }
    }
}

/// Error from [`Json::parse`]: where in the input, and what was wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonParseError {
    /// Byte offset of the error in the input.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "json parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for JsonParseError {}

/// Maximum container nesting [`Json::parse`] accepts; deeper documents
/// error out instead of risking parser stack exhaustion.
const MAX_PARSE_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err<T>(&self, message: impl Into<String>) -> Result<T, JsonParseError> {
        Err(JsonParseError {
            offset: self.pos,
            message: message.into(),
        })
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect_byte(&mut self, b: u8) -> Result<(), JsonParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(format!("expected `{}`", b as char))
        }
    }

    fn eat_literal(&mut self, lit: &str) -> bool {
        let rest = self.bytes.get(self.pos..).unwrap_or(&[]);
        if rest.starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonParseError> {
        if depth > MAX_PARSE_DEPTH {
            return self.err("nesting too deep");
        }
        self.skip_ws();
        match self.peek() {
            None => self.err("unexpected end of input"),
            Some(b'n') if self.eat_literal("null") => Ok(Json::Null),
            Some(b't') if self.eat_literal("true") => Ok(Json::Bool(true)),
            Some(b'f') if self.eat_literal("false") => Ok(Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return self.err("expected `,` or `]`"),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut fields = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect_byte(b':')?;
                    let value = self.value(depth + 1)?;
                    fields.push((key, value));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Json::Obj(fields));
                        }
                        _ => return self.err("expected `,` or `}`"),
                    }
                }
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => self.err(format!("unexpected byte `{}`", c as char)),
        }
    }

    fn string(&mut self) -> Result<String, JsonParseError> {
        self.expect_byte(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return self.err("unterminated string"),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: expect the low half.
                                if !self.eat_literal("\\u") {
                                    return self.err("unpaired surrogate");
                                }
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return self.err("invalid low surrogate");
                                }
                                let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(code)
                            } else {
                                char::from_u32(hi)
                            };
                            match c {
                                Some(c) => out.push(c),
                                None => return self.err("invalid unicode escape"),
                            }
                            // hex4 leaves pos past the digits; skip the
                            // `self.pos += 1` below.
                            continue;
                        }
                        _ => return self.err("invalid escape"),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so
                    // boundaries are valid).
                    let rest = self.bytes.get(self.pos..).unwrap_or(&[]);
                    let s = std::str::from_utf8(rest)
                        .ok()
                        .and_then(|s| s.chars().next());
                    match s {
                        Some(c) => {
                            out.push(c);
                            self.pos += c.len_utf8();
                        }
                        None => return self.err("invalid utf-8"),
                    }
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonParseError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let d = match self.peek() {
                Some(c @ b'0'..=b'9') => u32::from(c - b'0'),
                Some(c @ b'a'..=b'f') => u32::from(c - b'a') + 10,
                Some(c @ b'A'..=b'F') => u32::from(c - b'A') + 10,
                _ => return self.err("expected 4 hex digits"),
            };
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut float = false;
        if self.peek() == Some(b'.') {
            float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap_or("");
        if !float {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Json::UInt(v));
            }
            if let Ok(v) = text.parse::<i64>() {
                return Ok(Json::Int(v));
            }
        }
        match text.parse::<f64>() {
            Ok(v) => Ok(Json::Num(v)),
            Err(_) => self.err("invalid number"),
        }
    }
}

impl Json {
    /// Parses a JSON document — the inverse of
    /// [`render_compact`](Json::render_compact) /
    /// [`render_pretty`](Json::render_pretty), used by operator tooling
    /// (`bips-top`) to read reports back. Integers without fraction or
    /// exponent parse as [`Json::UInt`] / [`Json::Int`]; everything
    /// else numeric parses as [`Json::Num`]. Trailing non-whitespace is
    /// an error.
    pub fn parse(input: &str) -> Result<Json, JsonParseError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return p.err("trailing characters");
        }
        Ok(v)
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * depth {
            out.push(' ');
        }
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn stats_json(s: &OnlineStats) -> Json {
    let mut o = Json::object();
    o.set("n", s.len());
    o.set("mean", s.mean());
    o.set("stddev", s.stddev());
    o.set("ci95", s.ci95_halfwidth());
    o.set("min", s.min().map_or(Json::Null, Json::Num));
    o.set("max", s.max().map_or(Json::Null, Json::Num));
    o
}

/// Converts an HDR histogram into its report form: resolution, the
/// documented relative-error bound, and the tail quantiles.
pub fn hdr_json(h: &crate::hdr::HdrHistogram) -> Json {
    let mut o = Json::object();
    o.set("sub_bucket_bits", u64::from(h.sub_bucket_bits()));
    o.set("rel_error_bound", h.relative_error_bound());
    o.set("count", h.count());
    o.set("min", h.min());
    o.set("max", h.max());
    o.set("p50", h.quantile(0.50));
    o.set("p90", h.quantile(0.90));
    o.set("p99", h.quantile(0.99));
    o.set("p999", h.quantile(0.999));
    o.set("p9999", h.quantile(0.9999));
    o
}

/// Converts a metric registry into its JSON form: an object keyed by
/// metric name, each value tagged with its `kind`.
pub fn metrics_to_json(metrics: &MetricSet) -> Json {
    let mut root = Json::object();
    for (name, metric) in metrics.iter() {
        let mut o = Json::object();
        match metric {
            Metric::Counter(v) => {
                o.set("kind", "counter");
                o.set("value", *v);
            }
            Metric::Gauge(v) => {
                o.set("kind", "gauge");
                o.set("value", *v);
            }
            Metric::Stats(s) => {
                o.set("kind", "stats");
                o.set("value", stats_json(s));
            }
        }
        root.set(name, o);
    }
    root
}

/// A structured description of one experiment run. See the
/// [module docs](self) for the serialized shape.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    experiment: String,
    seed: u64,
    config: Json,
    artifacts: Json,
    metrics: Json,
    extra: Vec<(String, Json)>,
}

impl RunReport {
    /// A report for `experiment` run under master seed `seed`.
    pub fn new(experiment: &str, seed: u64) -> RunReport {
        RunReport {
            experiment: experiment.to_string(),
            seed,
            config: Json::object(),
            artifacts: Json::object(),
            metrics: Json::object(),
            extra: Vec::new(),
        }
    }

    /// Records one run-configuration field (replication counts, durations,
    /// population sizes, …).
    pub fn config(&mut self, key: &str, value: impl Into<Json>) -> &mut Self {
        self.config.set(key, value);
        self
    }

    /// Records one paper-artifact number (a Table 1 cell, a Figure 2
    /// series, an end-to-end latency).
    pub fn artifact(&mut self, key: &str, value: impl Into<Json>) -> &mut Self {
        self.artifacts.set(key, value);
        self
    }

    /// Attaches the run's metric snapshot.
    pub fn metrics(&mut self, metrics: &MetricSet) -> &mut Self {
        self.metrics = metrics_to_json(metrics);
        self
    }

    /// Attaches an additional top-level section (e.g. `system_metrics`).
    pub fn section(&mut self, key: &str, value: Json) -> &mut Self {
        self.extra.push((key.to_string(), value));
        self
    }

    /// The complete JSON document.
    pub fn to_json(&self) -> Json {
        let mut root = Json::object();
        root.set("schema", SCHEMA);
        root.set("experiment", self.experiment.as_str());
        root.set("seed", self.seed);
        root.set("config", self.config.clone());
        root.set("artifacts", self.artifacts.clone());
        root.set("metrics", self.metrics.clone());
        for (k, v) in &self.extra {
            root.set(k, v.clone());
        }
        root
    }

    /// Writes the report pretty-printed to `path` (overwrites).
    pub fn write_json(&self, path: impl AsRef<Path>) -> io::Result<()> {
        std::fs::write(path, self.to_json().render_pretty())
    }

    /// Appends the report as one compact line to `path` (creates the file
    /// if needed) — the JSONL accumulation format.
    pub fn append_jsonl(&self, path: impl AsRef<Path>) -> io::Result<()> {
        use io::Write as _;
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        writeln!(f, "{}", self.to_json().render_compact())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_rendering_is_single_line_json() {
        let mut o = Json::object();
        o.set("a", 1u64);
        o.set("b", Json::Arr(vec![Json::Bool(true), Json::Null]));
        assert_eq!(o.render_compact(), r#"{"a":1,"b":[true,null]}"#);
    }

    #[test]
    fn strings_escape_correctly() {
        let j = Json::from("quote \" slash \\ tab \t newline \n bell \u{7}");
        assert_eq!(
            j.render_compact(),
            "\"quote \\\" slash \\\\ tab \\t newline \\n bell \\u0007\""
        );
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(Json::Num(f64::NAN).render_compact(), "null");
        assert_eq!(Json::Num(f64::INFINITY).render_compact(), "null");
        assert_eq!(Json::Num(2.5).render_compact(), "2.5");
    }

    #[test]
    fn set_replaces_existing_keys() {
        let mut o = Json::object();
        o.set("k", 1u64);
        o.set("k", 2u64);
        assert_eq!(o.render_compact(), r#"{"k":2}"#);
    }

    #[test]
    fn pretty_rendering_indents() {
        let mut o = Json::object();
        o.set("x", 1u64);
        assert_eq!(o.render_pretty(), "{\n  \"x\": 1\n}\n");
    }

    #[test]
    fn report_shape_is_stable() {
        let mut m = MetricSet::new();
        m.inc("a.count");
        m.gauge("a.rate", 2.0);
        m.observe("a.lat", 1.0);

        let mut r = RunReport::new("unit", 9);
        r.config("users", 3u64);
        r.artifact("mean", 1.5);
        r.metrics(&m);
        let j = r.to_json();
        assert_eq!(j.get("schema"), Some(&Json::from(SCHEMA)));
        assert_eq!(j.get("experiment"), Some(&Json::from("unit")));
        assert_eq!(j.get("seed"), Some(&Json::UInt(9)));
        let metrics = j.get("metrics").unwrap();
        let counter = metrics.get("a.count").unwrap();
        assert_eq!(counter.get("kind"), Some(&Json::from("counter")));
        assert_eq!(counter.get("value"), Some(&Json::UInt(1)));
    }

    #[test]
    fn parse_round_trips_compact_rendering() {
        let mut o = Json::object();
        o.set("name", "bips");
        o.set("count", 3u64);
        o.set("delta", -4i64);
        o.set("rate", 2.5);
        o.set("ok", true);
        o.set("missing", Json::Null);
        o.set(
            "items",
            Json::Arr(vec![Json::UInt(1), Json::Str("x".into())]),
        );
        let text = o.render_compact();
        assert_eq!(Json::parse(&text), Ok(o.clone()));
        // Pretty rendering parses back to the same document.
        assert_eq!(Json::parse(&o.render_pretty()), Ok(o));
    }

    #[test]
    fn parse_handles_escapes_and_unicode() {
        let j = Json::parse(r#""tab\t quote\" A 😀""#).unwrap();
        assert_eq!(j, Json::Str("tab\t quote\" A 😀".to_string()));
    }

    #[test]
    fn parse_number_forms() {
        assert_eq!(
            Json::parse("18446744073709551615"),
            Ok(Json::UInt(u64::MAX))
        );
        assert_eq!(Json::parse("-7"), Ok(Json::Int(-7)));
        assert_eq!(Json::parse("2.5e3"), Ok(Json::Num(2500.0)));
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in ["", "{", "[1,", "{\"a\":}", "tru", "1 2", "\"unterminated"] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
        let deep = "[".repeat(500) + &"]".repeat(500);
        assert!(Json::parse(&deep).is_err(), "accepted unbounded nesting");
    }

    #[test]
    fn hdr_json_reports_quantiles_and_bound() {
        let mut h = crate::hdr::HdrHistogram::new(7);
        for v in 1..=1000u64 {
            h.record(v * 1000);
        }
        let j = hdr_json(&h);
        assert_eq!(j.get("sub_bucket_bits"), Some(&Json::UInt(7)));
        assert_eq!(j.get("count"), Some(&Json::UInt(1000)));
        let Some(&Json::Num(bound)) = j.get("rel_error_bound") else {
            panic!("missing rel_error_bound");
        };
        assert!((bound - 0.015625).abs() < 1e-12);
        let Some(&Json::UInt(p99)) = j.get("p99") else {
            panic!("missing p99");
        };
        assert!(p99 >= 990_000 && p99 as f64 <= 990_000.0 * (1.0 + bound));
    }

    #[test]
    fn jsonl_appends_one_line_per_report() {
        let dir = std::env::temp_dir().join("desim-report-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("run-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let r = RunReport::new("jsonl", 1);
        r.append_jsonl(&path).unwrap();
        r.append_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 2);
        for line in text.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'));
        }
        let _ = std::fs::remove_file(&path);
    }
}
