//! Experiment T1 — the §4.1 discovery-time table.
//!
//! Setup (as in the paper): a master permanently in the inquiry state; a
//! single slave alternating inquiry-scan and page-scan windows of
//! 11.25 ms; 500 trials with random clock/scan phases; trials classified
//! by whether master and slave started on the same frequency train.
//!
//! Paper's measurements:
//!
//! | starting train | cases | T_average |
//! |----------------|-------|-----------|
//! | Same           | 236   | 1.6028 s  |
//! | Different      | 264   | 4.1320 s  |
//! | Mixed          | 500   | 2.865 s   |

use bt_baseband::params::ScanPattern;
use bt_baseband::{BdAddr, DiscoveryScenario, MasterConfig, SlaveConfig};
use desim::stats::OnlineStats;
use desim::SimDuration;

/// Configuration of the Table 1 reproduction.
#[derive(Debug, Clone, Copy)]
pub struct Table1Config {
    /// Number of inquiry trials (paper: 500).
    pub trials: u64,
    /// Per-trial horizon; undiscovered trials are reported separately.
    pub horizon: SimDuration,
    /// Master seed for the replication set.
    pub seed: u64,
    /// Replication workers (`0` = `BIPS_JOBS` / machine width). Results
    /// are bit-identical for every value (`desim::par`).
    pub jobs: usize,
}

impl Default for Table1Config {
    fn default() -> Self {
        Table1Config {
            trials: 500,
            horizon: SimDuration::from_secs(60),
            seed: 2003,
            jobs: 0,
        }
    }
}

/// One row of the reproduced table.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Row label (`Same` / `Different` / `Mixed`).
    pub class: &'static str,
    /// Trial count in the class.
    pub cases: u64,
    /// Mean discovery time, seconds.
    pub mean_secs: f64,
    /// 95 % confidence half-width.
    pub ci95: f64,
    /// Median, seconds.
    pub median_secs: f64,
}

/// The reproduced table.
#[derive(Debug, Clone)]
pub struct Table1Result {
    /// Same / Different / Mixed rows.
    pub rows: Vec<Table1Row>,
    /// Trials not discovered within the horizon (expected 0).
    pub undiscovered: u64,
}

/// The scenario underlying the table (exposed for the Criterion bench).
pub fn scenario(horizon: SimDuration) -> DiscoveryScenario {
    DiscoveryScenario::new(
        MasterConfig::default(),
        vec![SlaveConfig::new(BdAddr::new(0x10_0000)).scan(ScanPattern::alternating())],
        horizon,
    )
}

/// Runs the experiment.
pub fn run(cfg: &Table1Config) -> Table1Result {
    run_with_metrics(cfg).0
}

/// Runs the experiment, also accumulating the medium's counters across
/// every trial (for the JSON run report; see `docs/OBSERVABILITY.md`).
pub fn run_with_metrics(cfg: &Table1Config) -> (Table1Result, desim::MetricSet) {
    let mut metrics = desim::MetricSet::new();
    let sc = scenario(cfg.horizon);
    let outs = sc.run_replications_with_metrics_jobs(cfg.seed, cfg.trials, &mut metrics, cfg.jobs);

    let mut same = OnlineStats::new();
    let mut diff = OnlineStats::new();
    let mut all = OnlineStats::new();
    let mut same_v = Vec::new();
    let mut diff_v = Vec::new();
    let mut all_v = Vec::new();
    let mut undiscovered = 0;
    for o in &outs {
        match o.times[0] {
            Some(t) => {
                let secs = t.as_secs_f64();
                all.push(secs);
                all_v.push(secs);
                if o.same_train(0) {
                    same.push(secs);
                    same_v.push(secs);
                } else {
                    diff.push(secs);
                    diff_v.push(secs);
                }
            }
            None => undiscovered += 1,
        }
    }

    fn median(v: &mut [f64]) -> f64 {
        if v.is_empty() {
            return f64::NAN;
        }
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    }

    let rows = vec![
        Table1Row {
            class: "Same",
            cases: same.len(),
            mean_secs: same.mean(),
            ci95: same.ci95_halfwidth(),
            median_secs: median(&mut same_v),
        },
        Table1Row {
            class: "Different",
            cases: diff.len(),
            mean_secs: diff.mean(),
            ci95: diff.ci95_halfwidth(),
            median_secs: median(&mut diff_v),
        },
        Table1Row {
            class: "Mixed",
            cases: all.len(),
            mean_secs: all.mean(),
            ci95: all.ci95_halfwidth(),
            median_secs: median(&mut all_v),
        },
    ];
    (Table1Result { rows, undiscovered }, metrics)
}

impl Table1Result {
    /// Renders the table next to the paper's numbers.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "Table 1 — average device-discovery time by starting train"
        );
        let _ = writeln!(
            out,
            "{:<10} {:>6} {:>12} {:>9} {:>10}   {:>12}",
            "Train", "Cases", "T_avg (s)", "±95% (s)", "median (s)", "paper (s)"
        );
        let paper = [1.6028, 4.1320, 2.865];
        for (row, p) in self.rows.iter().zip(paper) {
            let _ = writeln!(
                out,
                "{:<10} {:>6} {:>12.4} {:>9.4} {:>10.4}   {:>12.4}",
                row.class, row.cases, row.mean_secs, row.ci95, row.median_secs, p
            );
        }
        if self.undiscovered > 0 {
            let _ = writeln!(out, "undiscovered within horizon: {}", self.undiscovered);
        }
        out
    }

    /// Builds the structured run report (without metrics — the binary
    /// attaches those).
    pub fn to_report(&self, cfg: &Table1Config) -> desim::RunReport {
        let mut report = desim::RunReport::new("table1", cfg.seed);
        report
            .config("trials", cfg.trials)
            .config("horizon_s", cfg.horizon.as_secs_f64())
            .config("jobs", desim::par::resolve_jobs(cfg.jobs) as u64);
        let paper = [1.6028, 4.1320, 2.865];
        for (row, paper_s) in self.rows.iter().zip(paper) {
            let key = row.class.to_ascii_lowercase();
            report
                .artifact(&format!("{key}.cases"), row.cases)
                .artifact(&format!("{key}.mean_secs"), row.mean_secs)
                .artifact(&format!("{key}.ci95_secs"), row.ci95)
                .artifact(&format!("{key}.median_secs"), row.median_secs)
                .artifact(&format!("{key}.paper_secs"), paper_s);
        }
        report.artifact("undiscovered", self.undiscovered);
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_run_reproduces_the_ordering() {
        let r = run(&Table1Config {
            trials: 80,
            horizon: SimDuration::from_secs(45),
            seed: 9,
            ..Table1Config::default()
        });
        assert_eq!(r.undiscovered, 0);
        let same = &r.rows[0];
        let diff = &r.rows[1];
        let mixed = &r.rows[2];
        assert_eq!(same.cases + diff.cases, mixed.cases);
        // The load-bearing shape: different-train costs roughly one extra
        // 2.56 s train repetition.
        let delta = diff.mean_secs - same.mean_secs;
        assert!(
            (1.5..4.5).contains(&delta),
            "train-switch penalty off: {delta}"
        );
        assert!(mixed.mean_secs > same.mean_secs && mixed.mean_secs < diff.mean_secs);
    }

    #[test]
    fn near_even_class_split() {
        let r = run(&Table1Config {
            trials: 200,
            horizon: SimDuration::from_secs(45),
            seed: 10,
            ..Table1Config::default()
        });
        let same = r.rows[0].cases as f64;
        let frac = same / 200.0;
        assert!((0.35..0.65).contains(&frac), "split {frac}");
    }

    /// The T1 artifact is bit-identical whether replications run
    /// serially or on eight workers (and with the skip-ahead scheduler,
    /// which is on by default, in the loop).
    #[test]
    fn parallel_jobs_are_bit_identical() {
        let cfg = |jobs| Table1Config {
            trials: 40,
            horizon: SimDuration::from_secs(45),
            seed: 2003,
            jobs,
        };
        let serial = run(&cfg(1));
        let wide = run(&cfg(8));
        assert_eq!(serial.render(), wide.render());
    }

    #[test]
    fn render_contains_rows() {
        let r = run(&Table1Config {
            trials: 10,
            horizon: SimDuration::from_secs(45),
            seed: 1,
            ..Table1Config::default()
        });
        let s = r.render();
        assert!(s.contains("Same"));
        assert!(s.contains("Different"));
        assert!(s.contains("Mixed"));
    }
}
