//! Experiment F2 — the Figure 2 discovery-probability curves.
//!
//! Setup (paper §4.2): one master alternating 1 s of inquiry (train A
//! only) with 4 s of connection management; N ∈ {2,4,6,8,10,15,20}
//! slaves continuously in inquiry scan, starting on train A frequencies;
//! FHS response collisions enabled (the paper's BlueHoc extension);
//! discovered slaves proceed to enrollment and stop answering. The curve
//! is `P(discovered ≤ t)` for t ∈ [0, 14] s.
//!
//! Paper's headline readings: with ≤10 slaves ≈90 % are discovered in
//! the first 1 s phase and 100 % by the second cycle; 15–20 slaves are
//! all discovered within two cycles.

use bt_baseband::hop::Train;
use bt_baseband::params::{
    DutyCycle, MediumConfig, ScanFreqModel, ScanPattern, StartFreq, StartTrain, TrainPolicy,
};
use bt_baseband::world::BasebandWorld;
use bt_baseband::{BdAddr, DiscoveryScenario, MasterConfig, SlaveConfig};
use desim::stats::EmpiricalCdf;
use desim::{Engine, SimDuration};

/// Configuration of the Figure 2 reproduction.
#[derive(Debug, Clone)]
pub struct Figure2Config {
    /// The slave-count series (paper: 2, 4, 6, 8, 10, 15, 20).
    pub slave_counts: Vec<usize>,
    /// Replications per slave count.
    pub replications: u64,
    /// Measurement horizon (paper plots to 14 s).
    pub horizon: SimDuration,
    /// Inquiry phase length (paper: 1 s).
    pub inquiry: SimDuration,
    /// Full cycle (paper: 5 s).
    pub period: SimDuration,
    /// Grid points on the time axis.
    pub grid_points: usize,
    /// Whether FHS collisions destroy responses (paper: yes; disable for
    /// the vanilla-BlueHoc ablation).
    pub collisions: bool,
    /// Master seed. Per-curve seeds are `SeedDeriver` streams keyed by
    /// the slave count, so no two curves share or correlate replication
    /// streams.
    pub seed: u64,
    /// Replication workers (`0` = `BIPS_JOBS` / machine width). Results
    /// are bit-identical for every value (`desim::par`).
    pub jobs: usize,
}

impl Default for Figure2Config {
    fn default() -> Self {
        Figure2Config {
            slave_counts: vec![2, 4, 6, 8, 10, 15, 20],
            replications: 300,
            horizon: SimDuration::from_secs(14),
            inquiry: SimDuration::from_secs(1),
            period: SimDuration::from_secs(5),
            grid_points: 29, // every 0.5 s over [0, 14]
            collisions: true,
            // Bumped 1966 → 1967 when per-curve seeds moved from the
            // correlated `seed ^ (n << 32)` scheme onto `SeedDeriver`
            // streams (reference outputs re-baselined; CHANGELOG 0.3.0).
            seed: 1967,
            jobs: 0,
        }
    }
}

/// One curve of the figure.
#[derive(Debug, Clone)]
pub struct Figure2Curve {
    /// Number of slaves.
    pub slaves: usize,
    /// `(t seconds, P(discovered ≤ t))` points.
    pub points: Vec<(f64, f64)>,
}

impl Figure2Curve {
    /// The probability at the grid point closest to `t` seconds.
    pub fn probability_at(&self, t: f64) -> f64 {
        self.points
            .iter()
            .min_by(|a, b| (a.0 - t).abs().total_cmp(&(b.0 - t).abs()))
            .map(|&(_, p)| p)
            .unwrap_or(0.0)
    }
}

/// The reproduced figure.
#[derive(Debug, Clone)]
pub struct Figure2Result {
    /// One curve per slave count.
    pub curves: Vec<Figure2Curve>,
}

/// The master, slaves and medium of the scenario for `n` slaves.
fn parts(n: usize, cfg: &Figure2Config) -> (MasterConfig, Vec<SlaveConfig>, MediumConfig) {
    let master = MasterConfig::default()
        .duty(DutyCycle::periodic(cfg.inquiry, cfg.period))
        .trains(TrainPolicy::Single)
        .start_train(StartTrain::Fixed(Train::A));
    let slaves: Vec<SlaveConfig> = (0..n)
        .map(|i| {
            SlaveConfig::new(BdAddr::new(0x10_0000 + i as u64))
                .scan(ScanPattern::continuous_inquiry())
                .start_freq(StartFreq::InTrain(Train::A))
                .halt_when_discovered(true)
        })
        .collect();
    let medium = MediumConfig {
        fhs_collisions: cfg.collisions,
        // BlueHoc models every slave on the shared GIAC-derived scan
        // sequence; collisions among simultaneous responders are the
        // dominant loss (DESIGN.md §5).
        scan_freq_model: ScanFreqModel::SharedSequence,
        ..MediumConfig::default()
    };
    (master, slaves, medium)
}

/// The scenario for one slave count (exposed for the Criterion bench and
/// the ablation suite).
pub fn scenario(n: usize, cfg: &Figure2Config) -> DiscoveryScenario {
    let (master, slaves, medium) = parts(n, cfg);
    DiscoveryScenario::new(master, slaves, cfg.horizon).medium(medium)
}

/// A `perf_baseline` workload: the default figure's scenario at a few
/// slave counts, run once per inquiry scheduler mode. Tier-1 pins the
/// smoke shape's dispatched events and allocations.
#[derive(Debug)]
pub struct PerfWorkload {
    /// Report section name.
    pub name: &'static str,
    /// The slave counts run.
    pub slave_counts: Vec<usize>,
    /// Replications per slave count.
    pub replications: u64,
    /// Virtual run length of each replication.
    pub horizon: SimDuration,
    /// Master seed, derived per curve as in [`run_with_metrics`].
    pub seed: u64,
}

impl PerfWorkload {
    /// The figure's slave counts at 50 replications.
    pub fn full() -> PerfWorkload {
        PerfWorkload {
            name: "full",
            slave_counts: vec![2, 4, 6, 8, 10, 15, 20],
            replications: 50,
            horizon: SimDuration::from_secs(14),
            seed: 1967,
        }
    }

    /// A seconds-scale subset for CI.
    pub fn smoke() -> PerfWorkload {
        PerfWorkload {
            name: "smoke",
            slave_counts: vec![2, 6, 10],
            replications: 25,
            ..PerfWorkload::full()
        }
    }

    /// One engine per replication, each built when the iterator
    /// reaches it, with the scheduler mode set by `skip_ahead`; run each
    /// to [`horizon`](Self::horizon).
    pub fn engines(&self, skip_ahead: bool) -> impl Iterator<Item = Engine<BasebandWorld>> + '_ {
        let cfg = Figure2Config::default();
        let curve_seeds = desim::SeedDeriver::new(self.seed);
        self.slave_counts.iter().flat_map(move |&n| {
            let (master, slaves, medium) = parts(n, &cfg);
            let rep_seeds = desim::SeedDeriver::new(curve_seeds.derive(n as u64));
            (0..self.replications).map(move |i| {
                let mut builder = BasebandWorld::builder()
                    .medium(MediumConfig {
                        skip_ahead,
                        ..medium
                    })
                    .master(master);
                for &s in &slaves {
                    builder = builder.slave(s);
                }
                builder.build().into_engine(rep_seeds.derive(i))
            })
        })
    }
}

/// Runs the full figure.
pub fn run(cfg: &Figure2Config) -> Figure2Result {
    run_with_metrics(cfg).0
}

/// Runs the full figure, also accumulating the medium's counters across
/// every replication of every curve (for the JSON run report).
pub fn run_with_metrics(cfg: &Figure2Config) -> (Figure2Result, desim::MetricSet) {
    let mut metrics = desim::MetricSet::new();
    let horizon = cfg.horizon.as_secs_f64();
    // One independent seed stream per curve, keyed by the slave count.
    // The previous `cfg.seed ^ (n as u64) << 32` scheme bypassed
    // `SeedDeriver`: XORing structured values correlates the replication
    // streams across curves (all curve seeds agreed in their low 32
    // bits), which SeedDeriver's SplitMix64 mixing avoids.
    let curve_seeds = desim::SeedDeriver::new(cfg.seed);
    let curves = cfg
        .slave_counts
        .iter()
        .map(|&n| {
            let sc = scenario(n, cfg);
            let outs = sc.run_replications_with_metrics_jobs(
                curve_seeds.derive(n as u64),
                cfg.replications,
                &mut metrics,
                cfg.jobs,
            );
            let mut cdf = EmpiricalCdf::new();
            for o in &outs {
                for t in &o.times {
                    match t {
                        Some(d) => cdf.push(d.as_secs_f64()),
                        None => cdf.push_censored(),
                    }
                }
            }
            Figure2Curve {
                slaves: n,
                points: cdf.series(0.0, horizon, cfg.grid_points),
            }
        })
        .collect();
    (Figure2Result { curves }, metrics)
}

impl Figure2Result {
    /// Renders the curves as CSV (one column per slave count), matching
    /// the figure's axes.
    pub fn render_csv(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = write!(out, "time_s");
        for c in &self.curves {
            let _ = write!(out, ",{}_slaves", c.slaves);
        }
        let _ = writeln!(out);
        if let Some(first) = self.curves.first() {
            for (i, &(t, _)) in first.points.iter().enumerate() {
                let _ = write!(out, "{t:.2}");
                for c in &self.curves {
                    let _ = write!(out, ",{:.4}", c.points[i].1);
                }
                let _ = writeln!(out);
            }
        }
        out
    }

    /// Renders the paper's headline readings next to ours.
    pub fn render_summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "Figure 2 — discovery probability (1 s inquiry / 5 s cycle, train A)"
        );
        let _ = writeln!(
            out,
            "{:>7} {:>12} {:>12} {:>12}",
            "slaves", "P(t≤1s)", "P(t≤6s)", "P(t≤14s)"
        );
        for c in &self.curves {
            let _ = writeln!(
                out,
                "{:>7} {:>12} {:>12} {:>12}",
                c.slaves,
                crate::pct(c.probability_at(1.0)),
                crate::pct(c.probability_at(6.0)),
                crate::pct(c.probability_at(14.0)),
            );
        }
        let _ = writeln!(
            out,
            "paper: ≤10 slaves ≈90% within the 1 s phase, 100% by cycle 2;"
        );
        let _ = writeln!(out, "       15–20 slaves all discovered within 2 cycles.");
        out
    }

    /// Builds the structured run report (without metrics — the binary
    /// attaches those). The full curve series rides along as a section,
    /// so the JSON artifact can regenerate the plot.
    pub fn to_report(&self, cfg: &Figure2Config) -> desim::RunReport {
        let mut report = desim::RunReport::new("figure2", cfg.seed);
        report
            .config("replications", cfg.replications)
            .config("horizon_s", cfg.horizon.as_secs_f64())
            .config("inquiry_s", cfg.inquiry.as_secs_f64())
            .config("period_s", cfg.period.as_secs_f64())
            .config("collisions", cfg.collisions)
            .config("jobs", desim::par::resolve_jobs(cfg.jobs) as u64);
        for c in &self.curves {
            let n = c.slaves;
            report
                .artifact(&format!("p_1s.{n}_slaves"), c.probability_at(1.0))
                .artifact(&format!("p_6s.{n}_slaves"), c.probability_at(6.0))
                .artifact(&format!("p_14s.{n}_slaves"), c.probability_at(14.0));
        }
        let mut series = desim::Json::object();
        for c in &self.curves {
            let mut points = Vec::with_capacity(c.points.len());
            for &(t, p) in &c.points {
                points.push(desim::Json::from(vec![t, p]));
            }
            series.set(&format!("{}_slaves", c.slaves), points);
        }
        report.section("series", series);
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> Figure2Config {
        Figure2Config {
            slave_counts: vec![2, 10, 20],
            replications: 40,
            ..Figure2Config::default()
        }
    }

    #[test]
    fn curves_are_monotone_cdfs() {
        let r = run(&small_cfg());
        for c in &r.curves {
            for w in c.points.windows(2) {
                assert!(w[1].1 >= w[0].1, "non-monotone at {:?}", w);
            }
            assert!(c.points.iter().all(|&(_, p)| (0.0..=1.0).contains(&p)));
        }
    }

    #[test]
    fn shape_matches_paper_readings() {
        let r = run(&small_cfg());
        let by_n = |n: usize| r.curves.iter().find(|c| c.slaves == n).unwrap();
        // Most small-N slaves land in the first phase.
        assert!(by_n(2).probability_at(1.0) > 0.9);
        assert!(by_n(10).probability_at(1.0) > 0.8);
        // 20 slaves lose more to collisions in phase 1 than 10 slaves...
        assert!(by_n(20).probability_at(1.0) <= by_n(10).probability_at(1.0) + 0.02);
        // ...but catch up by the second cycle.
        assert!(by_n(20).probability_at(6.0) > 0.9);
        // The curve is flat during the service phase (1 s → 5 s).
        let c20 = by_n(20);
        let p1 = c20.probability_at(1.5);
        let p4 = c20.probability_at(4.5);
        assert!((p4 - p1).abs() < 0.02, "curve moved during service phase");
    }

    #[test]
    fn disabling_collisions_lifts_the_first_phase() {
        let with = run(&small_cfg());
        let without = run(&Figure2Config {
            collisions: false,
            ..small_cfg()
        });
        let w = with
            .curves
            .iter()
            .find(|c| c.slaves == 20)
            .unwrap()
            .probability_at(1.0);
        let wo = without
            .curves
            .iter()
            .find(|c| c.slaves == 20)
            .unwrap()
            .probability_at(1.0);
        assert!(
            wo > w + 0.02,
            "collision-free should discover more in phase 1: {wo} vs {w}"
        );
    }

    /// The F2 artifact (CSV and SVG alike — both render from the same
    /// curves) is bit-identical whether replications run serially or on
    /// eight workers.
    #[test]
    fn parallel_jobs_are_bit_identical() {
        let cfg = |jobs| Figure2Config {
            jobs,
            ..small_cfg()
        };
        let serial = run(&cfg(1));
        let wide = run(&cfg(8));
        assert_eq!(serial.render_csv(), wide.render_csv());
        assert_eq!(serial.render_svg(), wide.render_svg());
    }

    #[test]
    fn csv_has_header_and_rows() {
        let r = run(&Figure2Config {
            slave_counts: vec![2],
            replications: 5,
            grid_points: 5,
            ..Figure2Config::default()
        });
        let csv = r.render_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "time_s,2_slaves");
        assert_eq!(lines.len(), 6);
    }
}

impl Figure2Result {
    /// Renders the curves as a standalone SVG plot (discovery probability
    /// vs. time), visually comparable with the paper's Figure 2.
    pub fn render_svg(&self) -> String {
        use std::fmt::Write as _;
        const W: f64 = 640.0;
        const H: f64 = 420.0;
        const ML: f64 = 60.0; // margins
        const MR: f64 = 130.0;
        const MT: f64 = 30.0;
        const MB: f64 = 50.0;
        let pw = W - ML - MR;
        let ph = H - MT - MB;
        let t_max = self
            .curves
            .first()
            .and_then(|c| c.points.last())
            .map(|&(t, _)| t)
            .unwrap_or(14.0);
        let x = |t: f64| ML + t / t_max * pw;
        let y = |p: f64| MT + (1.0 - p) * ph;
        let colors = [
            "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b", "#e377c2",
        ];
        let mut s = String::new();
        let _ = writeln!(
            s,
            r#"<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" viewBox="0 0 {W} {H}">"#
        );
        let _ = writeln!(s, r#"<rect width="{W}" height="{H}" fill="white"/>"#);
        let _ = writeln!(
            s,
            r#"<text x="{}" y="18" font-family="sans-serif" font-size="13" text-anchor="middle">Discovery probability vs time (1 s inquiry / 5 s cycle)</text>"#,
            ML + pw / 2.0
        );
        // Axes and grid.
        for i in 0..=5 {
            let p = i as f64 / 5.0;
            let yy = y(p);
            let _ = writeln!(
                s,
                r##"<line x1="{ML}" y1="{yy:.1}" x2="{:.1}" y2="{yy:.1}" stroke="#ddd"/>"##,
                ML + pw
            );
            let _ = writeln!(
                s,
                r#"<text x="{:.1}" y="{:.1}" font-family="sans-serif" font-size="11" text-anchor="end">{p:.1}</text>"#,
                ML - 6.0,
                yy + 4.0
            );
        }
        let mut t_tick = 0.0;
        while t_tick <= t_max + 1e-9 {
            let xx = x(t_tick);
            let _ = writeln!(
                s,
                r##"<line x1="{xx:.1}" y1="{MT}" x2="{xx:.1}" y2="{:.1}" stroke="#eee"/>"##,
                MT + ph
            );
            let _ = writeln!(
                s,
                r#"<text x="{xx:.1}" y="{:.1}" font-family="sans-serif" font-size="11" text-anchor="middle">{t_tick:.0}</text>"#,
                MT + ph + 16.0
            );
            t_tick += 2.0;
        }
        let _ = writeln!(
            s,
            r#"<text x="{:.1}" y="{:.1}" font-family="sans-serif" font-size="12" text-anchor="middle">time (seconds)</text>"#,
            ML + pw / 2.0,
            H - 12.0
        );
        // Curves.
        for (i, c) in self.curves.iter().enumerate() {
            let color = colors[i % colors.len()];
            let mut d = String::new();
            for (j, &(t, p)) in c.points.iter().enumerate() {
                let cmd = if j == 0 { 'M' } else { 'L' };
                let _ = write!(d, "{cmd}{:.1},{:.1} ", x(t), y(p));
            }
            let _ = writeln!(
                s,
                r#"<path d="{d}" fill="none" stroke="{color}" stroke-width="1.8"/>"#
            );
            let ly = MT + 14.0 + 18.0 * i as f64;
            let _ = writeln!(
                s,
                r#"<line x1="{:.1}" y1="{ly:.1}" x2="{:.1}" y2="{ly:.1}" stroke="{color}" stroke-width="1.8"/>"#,
                ML + pw + 10.0,
                ML + pw + 34.0
            );
            let _ = writeln!(
                s,
                r#"<text x="{:.1}" y="{:.1}" font-family="sans-serif" font-size="11">{} slaves</text>"#,
                ML + pw + 40.0,
                ly + 4.0,
                c.slaves
            );
        }
        let _ = writeln!(s, "</svg>");
        s
    }
}

#[cfg(test)]
mod svg_tests {
    use super::*;

    #[test]
    fn svg_contains_all_curves_and_is_well_formed() {
        let r = run(&Figure2Config {
            slave_counts: vec![2, 10],
            replications: 10,
            grid_points: 8,
            ..Figure2Config::default()
        });
        let svg = r.render_svg();
        assert!(svg.starts_with("<svg"));
        assert!(svg.trim_end().ends_with("</svg>"));
        assert!(svg.contains("2 slaves"));
        assert!(svg.contains("10 slaves"));
        assert_eq!(svg.matches("<path").count(), 2);
    }
}
