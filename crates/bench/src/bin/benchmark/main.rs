//! `benchmark` — the repository benchmark. One command runs one
//! workload, checks its outputs, and prints every metric by name with
//! its unit and sample count:
//!
//! ```text
//! benchmark [run] --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! benchmark compare A.json... -- B.json...
//! ```
//!
//! The last line of a run's standard output is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics` — the end-to-end
//! metrics untraced, the per-layer metrics with `--trace 1`. The run
//! also writes a report with the host, the fingerprint and every metric
//! to `$CARGO_TARGET_DIR/benchmark/` (default `target/benchmark/`), and
//! a traced run writes its span buffer beside it. The exit code is 0
//! only when every output checked out. `compare` reads two sets of
//! reports and says, per workload and end-to-end metric, whether the
//! second set's median is within the bound `BENCHMARK.json` declares.
//!
//! See `README.md` in this directory for the workloads, the layer map
//! and how to read a traced run.

// This binary measures host time; wall-clock reads are its job.
#![allow(clippy::disallowed_methods)]

mod alloc;
mod catalog;
mod churn;
mod compare;
mod inputs;
mod measure;
mod serve;
mod spans;
mod tracking;

use std::path::PathBuf;

use desim::Json;

use measure::{Budget, Metrics};
use spans::Spans;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Input seed when `--seed` is not given.
const DEFAULT_SEED: u64 = 2003;

/// Measured seconds when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 10.0;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = ["serve_inproc", "serve_socket", "path_churn", "tracking"];

/// What one workload run produced.
pub struct Outcome {
    /// Every metric the run recorded.
    pub metrics: Metrics,
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Checked operations that failed or answered wrongly.
    pub failed: u64,
    /// Deterministic results: equal for every run with the same seed.
    fingerprint: Json,
    /// The span buffer of a traced run.
    pub spans: Option<Spans>,
    /// Whether this was a traced run.
    pub trace: bool,
}

impl Outcome {
    /// An empty outcome.
    pub fn new(trace: bool) -> Outcome {
        Outcome {
            metrics: Metrics::default(),
            attempted: 0,
            failed: 0,
            fingerprint: Json::object(),
            spans: None,
            trace,
        }
    }

    /// Records one fingerprint field.
    pub fn fingerprint(&mut self, key: &str, value: impl Into<Json>) {
        self.fingerprint.set(key, value);
    }

    /// A string fingerprint field, for tests.
    #[cfg(test)]
    pub fn fingerprint_str(&self, key: &str) -> String {
        match self.fingerprint.get(key) {
            Some(Json::Str(s)) => s.clone(),
            other => panic!("fingerprint {key}: {other:?}"),
        }
    }

    /// Whether every output checked out and every end-to-end metric was
    /// measured.
    pub fn correct(&self) -> bool {
        self.failed == 0
            && self.attempted > 0
            && catalog::END_TO_END.iter().all(|s| {
                self.metrics
                    .get(s.name)
                    .is_some_and(|v| v.value.is_finite() && v.value > 0.0)
            })
    }

    /// The metrics object of the result line: every end-to-end metric,
    /// or with tracing every per-layer metric (0 for a layer the
    /// workload does not run).
    pub fn result_metrics(&self) -> Json {
        let specs: Vec<&catalog::Spec> = if self.trace {
            catalog::per_layer().collect()
        } else {
            catalog::END_TO_END.iter().collect()
        };
        let mut out = Json::object();
        for s in specs {
            let mut v = Json::object();
            v.set("value", self.metrics.get(s.name).map_or(0.0, |v| v.value));
            v.set("unit", s.unit);
            out.set(s.name, v);
        }
        out
    }
}

/// Runs workload `name` at full size.
fn run_workload(name: &str, seed: u64, budget: Budget, trace: bool) -> Option<Outcome> {
    Some(match name {
        "serve_inproc" => serve::serve_inproc(&serve::Config::full(seed), budget, trace),
        "serve_socket" => serve::serve_socket(&serve::Config::full(seed), budget, trace),
        "path_churn" => churn::path_churn(&churn::Config::full(seed), budget, trace),
        "tracking" => tracking::tracking(&tracking::Config::full(seed), trace),
        _ => return None,
    })
}

struct RunArgs {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut run = RunArgs {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("missing value for {flag}"));
        match flag.as_str() {
            "--workload" => run.workload = value()?.clone(),
            "--seed" => run.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                run.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(run.seconds > 0.0 && run.seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                run.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&run.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(run)
}

/// Where reports and traces go: `$CARGO_TARGET_DIR/benchmark`, or
/// `target/benchmark` under the working directory.
fn out_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("target"), PathBuf::from)
        .join("benchmark")
}

/// `nproc` and the CPU model, recorded with every result.
fn host() -> Json {
    let mut h = Json::object();
    h.set(
        "nproc",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    h.set("cpu_model", cpu);
    h
}

fn report(run: &RunArgs, out: &Outcome, host: Json) -> Json {
    let mut metrics = Json::object();
    for (name, v) in out.metrics.iter() {
        let mut o = Json::object();
        o.set("value", v.value);
        o.set("unit", catalog::find(name).map_or("", |s| s.unit));
        o.set("samples", v.samples);
        metrics.set(name, o);
    }
    let mut r = Json::object();
    r.set("schema", "bips-benchmark/v1");
    r.set("workload", run.workload.as_str());
    r.set("seed", run.seed);
    r.set("seconds", run.seconds);
    r.set("trace", run.trace);
    r.set("host", host);
    r.set("correct", out.correct());
    r.set("attempted", out.attempted);
    r.set("failed", out.failed);
    r.set("fingerprint", out.fingerprint.clone());
    r.set("metrics", metrics);
    r
}

fn print_metrics(out: &Outcome) {
    let rows = catalog::END_TO_END
        .iter()
        .chain(catalog::per_layer())
        .filter_map(|s| out.metrics.get(s.name).map(|v| (s, v)));
    for (s, v) in rows {
        let gate = s
            .bound
            .map_or(String::new(), |b| format!(", gated at {:.0}%", 100.0 * b));
        println!(
            "  {:<44} {:>16.4} {:<10} (n={}, {} is better{gate})",
            s.name,
            v.value,
            s.unit,
            v.samples,
            s.better.name()
        );
    }
}

fn print_self_times(spans: &Spans) {
    let table = spans.self_times();
    let total: u64 = table.iter().map(|e| e.3).sum();
    println!("self time by span ({} spans):", spans.len());
    for (name, count, span_ns, self_ns) in table {
        println!(
            "  {name:<24} n={count:<8} total {:>10.3} ms  self {:>10.3} ms  {:>5.1}%",
            span_ns as f64 / 1e6,
            self_ns as f64 / 1e6,
            100.0 * self_ns as f64 / total.max(1) as f64
        );
    }
}

fn write(path: &std::path::Path, doc: &Json) {
    let result =
        std::fs::create_dir_all(out_dir()).and_then(|()| std::fs::write(path, doc.render_pretty()));
    match result {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("cannot write {}: {e}", path.display()),
    }
}

fn run(args: &[String]) -> i32 {
    let run = match parse_run(args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("benchmark: {e}");
            eprintln!(
                "usage: benchmark [run] --workload NAME [--seed N] [--seconds S] [--trace 0|1]"
            );
            eprintln!("       benchmark compare A.json... -- B.json...");
            return 2;
        }
    };
    let budget = Budget::seconds(run.seconds);
    let Some(mut out) = run_workload(&run.workload, run.seed, budget, run.trace) else {
        return 2;
    };
    out.metrics.put("peak_rss_mb", measure::peak_rss_mb(), 1);

    let h = host();
    println!(
        "benchmark {} seed={} seconds={} trace={} host: nproc={} cpu={}",
        run.workload,
        run.seed,
        run.seconds,
        u8::from(run.trace),
        h.get("nproc").map_or(String::new(), Json::render_compact),
        h.get("cpu_model")
            .map_or(String::new(), Json::render_compact),
    );
    print_metrics(&out);
    println!("fingerprint: {}", out.fingerprint.render_compact());
    let stem = format!(
        "{}-seed{}-trace{}",
        run.workload,
        run.seed,
        u8::from(run.trace)
    );
    write(
        &out_dir().join(format!("{stem}.json")),
        &report(&run, &out, h),
    );
    if let Some(spans) = &out.spans {
        print_self_times(spans);
        write(
            &out_dir().join(format!("{stem}.spans.json")),
            &spans.to_json(),
        );
    }

    let correct = out.correct();
    let mut line = Json::object();
    line.set("correct", correct);
    line.set("attempted", out.attempted);
    line.set("failed", out.failed);
    line.set("metrics", out.result_metrics());
    println!("{}", line.render_compact());
    if correct {
        0
    } else {
        1
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("compare") => compare::main(&args[1..]),
        Some("run") => run(&args[1..]),
        _ => run(&args),
    };
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// Every workload at its test size, for 60 ticks (its whole virtual
    /// run for tracking).
    fn tiny(name: &str, trace: bool) -> Outcome {
        let seed = 11;
        let mut out = match name {
            "serve_inproc" => {
                serve::serve_inproc(&serve::Config::tiny(seed), Budget::units(60), trace)
            }
            "serve_socket" => {
                serve::serve_socket(&serve::Config::tiny(seed), Budget::units(60), trace)
            }
            "path_churn" => churn::path_churn(&churn::Config::tiny(seed), Budget::units(60), trace),
            "tracking" => tracking::tracking(&tracking::Config::tiny(seed), trace),
            _ => unreachable!("{name}"),
        };
        out.metrics.put("peak_rss_mb", measure::peak_rss_mb(), 1);
        out
    }

    /// The counters a run must reproduce exactly.
    fn deterministic(out: &Outcome) -> (String, u64, u64, Vec<(&'static str, f64)>) {
        let counts = out
            .metrics
            .iter()
            .filter(|(name, _)| catalog::find(name).is_some_and(|s| s.unit == "count"))
            .map(|(name, v)| (name, v.value))
            .collect();
        (
            out.fingerprint.render_compact(),
            out.attempted,
            out.failed,
            counts,
        )
    }

    #[test]
    fn every_workload_repeats_exactly_and_checks_out() {
        for name in WORKLOADS {
            let a = tiny(name, false);
            let b = tiny(name, false);
            assert_eq!(a.failed, 0, "{name} failed checks");
            assert!(a.attempted > 0, "{name} checked nothing");
            assert_eq!(
                deterministic(&a),
                deterministic(&b),
                "{name} is not deterministic"
            );
        }
    }

    #[test]
    fn socket_answers_match_the_in_process_run() {
        let inproc = tiny("serve_inproc", false);
        let socket = tiny("serve_socket", true);
        assert_eq!(socket.failed, 0);
        for key in ["ticks", "checksum", "ack_checksum"] {
            assert_eq!(
                inproc.fingerprint.get(key),
                socket.fingerprint.get(key),
                "{key}"
            );
        }
    }

    fn benchmark_json() -> Json {
        let mut dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        loop {
            let candidate = dir.join("BENCHMARK.json");
            if candidate.is_file() {
                let text = std::fs::read_to_string(candidate).expect("readable BENCHMARK.json");
                return Json::parse(&text).expect("BENCHMARK.json parses");
            }
            assert!(
                dir.pop(),
                "no BENCHMARK.json above {}",
                env!("CARGO_MANIFEST_DIR")
            );
        }
    }

    fn declared(doc: &Json, list: &str) -> BTreeSet<(String, String, String, Option<String>)> {
        let Some(Json::Arr(items)) = doc.get(list) else {
            panic!("BENCHMARK.json has no {list} list");
        };
        items
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).map(Json::render_compact);
                (
                    field("name").expect("name"),
                    field("unit").expect("unit"),
                    field("better").expect("better"),
                    field("bound"),
                )
            })
            .collect()
    }

    fn cataloged<'a>(
        specs: impl Iterator<Item = &'a catalog::Spec>,
    ) -> BTreeSet<(String, String, String, Option<String>)> {
        specs
            .map(|s| {
                (
                    Json::from(s.name).render_compact(),
                    Json::from(s.unit).render_compact(),
                    Json::from(s.better.name()).render_compact(),
                    s.bound.map(|b| Json::Num(b).render_compact()),
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_what_the_binary_emits() {
        let doc = benchmark_json();
        assert_eq!(
            declared(&doc, "end_to_end"),
            cataloged(catalog::END_TO_END.iter())
        );
        assert_eq!(declared(&doc, "per_layer"), cataloged(catalog::per_layer()));
        let Some(Json::Arr(workloads)) = doc.get("workloads") else {
            panic!("no workloads");
        };
        let names: Vec<String> = workloads
            .iter()
            .filter_map(|w| w.get("name"))
            .map(Json::render_compact)
            .collect();
        let ours: Vec<String> = WORKLOADS
            .iter()
            .map(|w| Json::from(*w).render_compact())
            .collect();
        assert_eq!(names, ours);

        // Every workload measures every end-to-end metric; every
        // per-layer metric is measured by some workload.
        let mut layers_seen = BTreeSet::new();
        for name in WORKLOADS {
            let plain = tiny(name, false);
            assert!(plain.correct(), "{name}: {:?}", plain.metrics);
            let traced = tiny(name, true);
            assert_eq!(traced.failed, 0, "{name} traced");
            for (metric, _) in traced.metrics.iter() {
                layers_seen.insert(metric);
            }
            for (m, out) in [("end_to_end", &plain), ("per_layer", &traced)] {
                let Json::Obj(fields) = out.result_metrics() else {
                    panic!("metrics object");
                };
                let emitted: BTreeSet<String> = fields
                    .iter()
                    .map(|(k, _)| Json::from(k.as_str()).render_compact())
                    .collect();
                let listed: BTreeSet<String> = declared(&doc, m).into_iter().map(|d| d.0).collect();
                assert_eq!(emitted, listed, "{name} {m}");
            }
        }
        for s in catalog::per_layer() {
            assert!(
                layers_seen.contains(s.name),
                "no workload measures {}",
                s.name
            );
        }
    }
}
