//! `benchmark compare A.json... -- B.json...`: for each workload and
//! end-to-end metric, the median and quartiles of each set of untraced
//! run reports, and whether B's median is within the bound
//! `BENCHMARK.json` declares, widened for `setup_s` to
//! [`SETUP_FLOOR_S`] where that is the larger. Runs of one seed must
//! also agree on their fingerprints exactly. Exits 1 on any regression
//! or mismatch.

use std::collections::BTreeMap;

use desim::Json;

use crate::catalog::SETUP_FLOOR_S;
use crate::measure::median;

/// One end-to-end metric as `BENCHMARK.json` declares it.
struct Bound {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

/// One run report.
struct Report {
    workload: String,
    seed: u64,
    fingerprint: String,
    metrics: Json,
}

fn load(path: &str) -> Result<Report, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let text_of = |k: &str| match doc.get(k) {
        Some(Json::Str(s)) => Ok(s.clone()),
        _ => Err(format!("{path}: no {k}")),
    };
    if doc.get("trace") == Some(&Json::Bool(true)) {
        return Err(format!("{path}: a traced run; compare untraced runs"));
    }
    let seed = match doc.get("seed") {
        Some(Json::UInt(s)) => *s,
        _ => return Err(format!("{path}: no seed")),
    };
    Ok(Report {
        workload: text_of("workload")?,
        seed,
        fingerprint: doc
            .get("fingerprint")
            .map(Json::render_compact)
            .unwrap_or_default(),
        metrics: doc.get("metrics").cloned().unwrap_or(Json::Null),
    })
}

/// The end-to-end bounds from the nearest `BENCHMARK.json` at or above
/// the working directory.
fn bounds() -> Result<Vec<Bound>, String> {
    let mut dir = std::env::current_dir().map_err(|e| e.to_string())?;
    let text = loop {
        if let Ok(text) = std::fs::read_to_string(dir.join("BENCHMARK.json")) {
            break text;
        }
        if !dir.pop() {
            return Err("no BENCHMARK.json at or above the working directory".into());
        }
    };
    let doc = Json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let Some(Json::Arr(items)) = doc.get("end_to_end") else {
        return Err("BENCHMARK.json: no end_to_end list".into());
    };
    items
        .iter()
        .map(|m| match (m.get("name"), m.get("better"), m.get("bound")) {
            (Some(Json::Str(name)), Some(Json::Str(better)), Some(Json::Num(bound))) => Ok(Bound {
                name: name.clone(),
                lower_is_better: better == "lower",
                bound: *bound,
            }),
            _ => Err(format!(
                "BENCHMARK.json: malformed metric {}",
                m.render_compact()
            )),
        })
        .collect()
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the default "exclusive" method); a single value is its own
/// quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return (x, x);
    }
    let q = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m - j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

fn values(runs: &[&Report], metric: &str) -> Vec<f64> {
    runs.iter()
        .filter_map(
            |r| match r.metrics.get(metric).and_then(|m| m.get("value")) {
                Some(Json::Num(v)) => Some(*v),
                Some(Json::UInt(v)) => Some(*v as f64),
                _ => None,
            },
        )
        .collect()
}

/// Entry point; returns the exit code.
pub fn main(args: &[String]) -> i32 {
    let Some(split) = args.iter().position(|a| a == "--") else {
        eprintln!("usage: benchmark compare A.json... -- B.json...");
        return 2;
    };
    let load_all = |paths: &[String]| paths.iter().map(|p| load(p)).collect::<Result<Vec<_>, _>>();
    let (a, b, bounds) = match (
        load_all(&args[..split]),
        load_all(&args[split + 1..]),
        bounds(),
    ) {
        (Ok(a), Ok(b), Ok(bounds)) => (a, b, bounds),
        (Err(e), ..) | (_, Err(e), _) | (.., Err(e)) => {
            eprintln!("benchmark compare: {e}");
            return 2;
        }
    };
    let mut workloads: Vec<&str> = a.iter().chain(&b).map(|r| r.workload.as_str()).collect();
    workloads.sort_unstable();
    workloads.dedup();

    let mut bad = 0;
    println!(
        "{:<13} {:<15} {:>13} {:>27} {:>13} {:>27} {:>8} {:>6}  verdict",
        "workload", "metric", "A median", "A [q1, q3]", "B median", "B [q1, q3]", "B vs A", "bound"
    );
    for w in &workloads {
        let runs_a: Vec<&Report> = a.iter().filter(|r| r.workload == *w).collect();
        let runs_b: Vec<&Report> = b.iter().filter(|r| r.workload == *w).collect();
        for m in &bounds {
            let (va, vb) = (values(&runs_a, &m.name), values(&runs_b, &m.name));
            if va.is_empty() || vb.is_empty() {
                println!("{w:<13} {:<15} missing in one set", m.name);
                bad += 1;
                continue;
            }
            let (ma, mb) = (median(&mut va.clone()), median(&mut vb.clone()));
            let (qa, qb) = (quartiles(&va), quartiles(&vb));
            // Positive `worse` means B is worse than A.
            let change = (mb - ma) / ma;
            let worse = if m.lower_is_better { change } else { -change };
            let spread = ((qa.1 - qa.0) / ma).max((qb.1 - qb.0) / mb);
            let bound = if m.name == "setup_s" {
                m.bound.max(SETUP_FLOOR_S / ma)
            } else {
                m.bound
            };
            let verdict = if worse > bound {
                bad += 1;
                "REGRESSED"
            } else if spread > bound {
                "unresolved (spread wider than bound)"
            } else {
                "within bound"
            };
            println!(
                "{w:<13} {:<15} {ma:>13.6} [{:>12.6}, {:>12.6}] {mb:>13.6} [{:>12.6}, {:>12.6}] {:>+7.2}% {:>5.1}%  {verdict}",
                m.name,
                qa.0,
                qa.1,
                qb.0,
                qb.1,
                100.0 * change,
                100.0 * bound
            );
        }
    }

    // Deterministic outputs: every run of one workload and seed, from
    // either set, must carry the same fingerprint.
    let mut prints: BTreeMap<(&str, u64), Vec<&str>> = BTreeMap::new();
    for r in a.iter().chain(&b) {
        prints
            .entry((&r.workload, r.seed))
            .or_default()
            .push(&r.fingerprint);
    }
    for ((w, seed), fps) in &prints {
        let same = fps.iter().all(|f| f == &fps[0]);
        println!(
            "fingerprint {w} seed {seed}: {} runs {}",
            fps.len(),
            if same { "identical" } else { "DIFFER" }
        );
        bad += usize::from(!same);
    }
    i32::from(bad > 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]), (1.5, 4.5));
    }
}
