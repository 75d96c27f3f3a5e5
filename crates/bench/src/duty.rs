//! Experiment S5 — the §4.2/§5 sizing arguments.
//!
//! Two computations close the paper:
//!
//! * **S5-a**: with 20 slaves and random train alignment, a single
//!   inquiry slot of **3.84 s** (one full 2.56 s train + 1.28 s of the
//!   other) discovers **≈95 %** of the slaves. We sweep the inquiry-slot
//!   length and report the discovered fraction, reproducing the curve
//!   the paper reasons along (2.56 s → ~50 % + …, 3.84 s → ~95 %).
//! * **S5-b**: a walker crossing a 20 m cell at the paper's speeds dwells
//!   ≈15.4 s, so with a 3.84 s inquiry slot per 15.4 s cycle the
//!   tracking load is ≈24 %.

use bips_mobility::dwell;
use bt_baseband::params::{
    DutyCycle, MediumConfig, ScanFreqModel, ScanPattern, StartFreq, TrainPolicy,
};
use bt_baseband::{BdAddr, DiscoveryScenario, MasterConfig, SlaveConfig};
use desim::{SimDuration, SimRng};

/// Configuration of the inquiry-slot sweep (S5-a).
#[derive(Debug, Clone)]
pub struct DutySweepConfig {
    /// Inquiry-slot lengths to evaluate, seconds.
    pub inquiry_slots_s: Vec<f64>,
    /// Number of slaves in coverage (paper: 20).
    pub slaves: usize,
    /// Replications per slot length.
    pub replications: u64,
    /// Master seed.
    pub seed: u64,
    /// Replication workers (`0` = `BIPS_JOBS` / machine width). Results
    /// are bit-identical for every value (`desim::par`).
    pub jobs: usize,
}

impl Default for DutySweepConfig {
    fn default() -> Self {
        DutySweepConfig {
            inquiry_slots_s: vec![1.0, 1.28, 2.0, 2.56, 3.0, 3.84, 5.12, 7.68],
            slaves: 20,
            replications: 200,
            seed: 384,
            jobs: 0,
        }
    }
}

/// One sweep point.
#[derive(Debug, Clone, Copy)]
pub struct DutyPoint {
    /// Inquiry slot length, seconds.
    pub inquiry_s: f64,
    /// Mean fraction of slaves discovered within the slot.
    pub discovered: f64,
}

/// The sweep result.
#[derive(Debug, Clone)]
pub struct DutySweepResult {
    /// One point per slot length.
    pub points: Vec<DutyPoint>,
}

/// The single-slot discovery scenario: one uninterrupted inquiry phase of
/// the given length, slaves with random train alignment (spec scanning on
/// the shared sequence), measured at the end of the slot.
pub fn scenario(inquiry_s: f64, slaves: usize) -> DiscoveryScenario {
    let horizon = SimDuration::from_secs_f64(inquiry_s);
    // One phase only: period = horizon so the slot fills the run.
    let master = MasterConfig::default()
        .duty(DutyCycle::always_inquiry())
        .trains(TrainPolicy::spec());
    let slave_cfgs: Vec<SlaveConfig> = (0..slaves)
        .map(|i| {
            SlaveConfig::new(BdAddr::new(0x10_0000 + i as u64))
                .scan(ScanPattern::continuous_inquiry())
                .start_freq(StartFreq::Random)
                .halt_when_discovered(true)
        })
        .collect();
    let medium = MediumConfig {
        scan_freq_model: ScanFreqModel::SharedSequence,
        ..MediumConfig::default()
    };
    DiscoveryScenario::new(master, slave_cfgs, horizon).medium(medium)
}

/// Runs the S5-a sweep.
pub fn run_sweep(cfg: &DutySweepConfig) -> DutySweepResult {
    let points = cfg
        .inquiry_slots_s
        .iter()
        .map(|&inquiry_s| {
            let sc = scenario(inquiry_s, cfg.slaves);
            // Common random numbers across sweep points: the same trial
            // population is observed at every slot length, so the sweep
            // is monotone by construction and point-to-point differences
            // reflect the slot length, not the seed draw.
            let outs = sc.run_replications_jobs(cfg.seed, cfg.replications, cfg.jobs);
            let frac: f64 = outs
                .iter()
                .map(|o| o.fraction_discovered_by(SimDuration::from_secs_f64(inquiry_s)))
                .sum::<f64>()
                / outs.len() as f64;
            DutyPoint {
                inquiry_s,
                discovered: frac,
            }
        })
        .collect();
    DutySweepResult { points }
}

impl DutySweepResult {
    /// The discovered fraction at the sweep point closest to `s` seconds.
    pub fn at(&self, s: f64) -> f64 {
        self.points
            .iter()
            .min_by(|a, b| (a.inquiry_s - s).abs().total_cmp(&(b.inquiry_s - s).abs()))
            .map(|p| p.discovered)
            .unwrap_or(0.0)
    }

    /// Renders the sweep table.
    pub fn render(&self, slaves: usize) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "S5-a — slaves discovered within a single inquiry slot ({slaves} slaves, random trains)"
        );
        let _ = writeln!(out, "{:>12} {:>12}", "slot (s)", "discovered");
        for p in &self.points {
            let marker = if (p.inquiry_s - 3.84).abs() < 1e-9 {
                "  ← paper: ≈95%"
            } else {
                ""
            };
            let _ = writeln!(
                out,
                "{:>12.2} {:>12}{}",
                p.inquiry_s,
                crate::pct(p.discovered),
                marker
            );
        }
        out
    }
}

/// The S5-b dwell-time and load computation.
#[derive(Debug, Clone, Copy)]
pub struct DwellResult {
    /// The paper's diameter/mean-speed estimate (≈15.38 s).
    pub paper_estimate_s: f64,
    /// Monte-Carlo mean over random chords and speeds.
    pub monte_carlo_s: f64,
    /// Tracking load with a 3.84 s inquiry slot per paper cycle.
    pub tracking_load: f64,
}

/// Runs the S5-b computation.
pub fn run_dwell(seed: u64) -> DwellResult {
    let paper = dwell::paper_estimate_secs();
    let mut rng = SimRng::seed_from(seed);
    let mc = dwell::monte_carlo_dwell_secs(
        10.0,
        dwell::SPEED_RANGE_M_S,
        dwell::DEFAULT_WALKING_FLOOR_M_S,
        50_000,
        &mut rng,
    );
    DwellResult {
        paper_estimate_s: paper,
        monte_carlo_s: mc,
        tracking_load: dwell::tracking_load(3.84, paper),
    }
}

impl DwellResult {
    /// Renders the dwell/load summary.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "S5-b — cell dwell time and tracking load");
        let _ = writeln!(
            out,
            "  paper estimate (20 m / 1.3 m/s):    {:6.2} s   (paper: 15.4 s)",
            self.paper_estimate_s
        );
        let _ = writeln!(
            out,
            "  Monte-Carlo (chords × speeds):      {:6.2} s",
            self.monte_carlo_s
        );
        let _ = writeln!(
            out,
            "  tracking load (3.84 s / cycle):     {:6.1}%   (paper: ≈24%)",
            self.tracking_load * 100.0
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_is_monotone_and_hits_95_at_3_84() {
        let r = run_sweep(&DutySweepConfig {
            inquiry_slots_s: vec![1.28, 2.56, 3.84, 5.12],
            slaves: 20,
            replications: 60,
            seed: 1,
            jobs: 0,
        });
        for w in r.points.windows(2) {
            assert!(
                w[1].discovered >= w[0].discovered - 0.03,
                "sweep not monotone: {:?}",
                w
            );
        }
        let at_384 = r.at(3.84);
        assert!(
            (0.85..=1.0).contains(&at_384),
            "3.84 s slot discovered {at_384}, paper says ≈95%"
        );
        // One train (2.56 s) covers only the same-train half well.
        let at_256 = r.at(2.56);
        assert!(at_256 < at_384, "{at_256} !< {at_384}");
    }

    #[test]
    fn dwell_numbers_match_paper() {
        let d = run_dwell(7);
        assert!((d.paper_estimate_s - 15.38).abs() < 0.01);
        assert!((0.2..0.3).contains(&d.tracking_load));
        // Chord-aware Monte Carlo is below the diameter estimate but the
        // same order of magnitude.
        assert!(d.monte_carlo_s > 5.0 && d.monte_carlo_s < 40.0);
    }

    #[test]
    fn render_mentions_paper_anchors() {
        let r = run_sweep(&DutySweepConfig {
            inquiry_slots_s: vec![3.84],
            slaves: 5,
            replications: 5,
            seed: 2,
            jobs: 0,
        });
        assert!(r.render(5).contains("95%"));
        assert!(run_dwell(1).render().contains("15.4 s"));
    }
}

/// The §5 trade-off the paper leaves implicit: a longer inquiry slot per
/// operational cycle detects room changes faster (and misses fewer short
/// visits) but burns more of the master's cycle. This experiment runs the
/// *full system* at several inquiry slots inside the paper's 15.4 s
/// cycle and reports detection latency vs. tracking load.
#[derive(Debug, Clone)]
pub struct TradeoffConfig {
    /// Inquiry slot lengths to evaluate, seconds (within the 15.4 s cycle).
    pub inquiry_slots_s: Vec<f64>,
    /// Walking users.
    pub users: usize,
    /// Virtual run length per point.
    pub duration_s: u64,
    /// Master seed.
    pub seed: u64,
    /// Sweep-point workers (`0` = `BIPS_JOBS` / machine width). Points
    /// are independent engines, so order and results are unaffected.
    pub jobs: usize,
}

impl Default for TradeoffConfig {
    fn default() -> Self {
        TradeoffConfig {
            inquiry_slots_s: vec![1.28, 2.56, 3.84, 7.68],
            users: 4,
            duration_s: 900,
            seed: 1540,
            jobs: 0,
        }
    }
}

/// One trade-off point.
#[derive(Debug, Clone, Copy)]
pub struct TradeoffPoint {
    /// Inquiry slot, seconds.
    pub inquiry_s: f64,
    /// Tracking load (inquiry fraction of the cycle).
    pub load: f64,
    /// Mean enter-cell → DB-presence latency, seconds.
    pub detection_latency_s: f64,
    /// Latency sample count.
    pub samples: u64,
    /// Cell visits that ended before the server noticed.
    pub missed: u64,
}

/// Runs the trade-off sweep on the full system.
pub fn run_tradeoff(cfg: &TradeoffConfig) -> Vec<TradeoffPoint> {
    use bips_core::system::{BipsSystem, SystemConfig, UserSpec};
    use bips_mobility::walker::WalkMode;
    use desim::SimTime;

    let jobs = desim::par::resolve_jobs(cfg.jobs);
    desim::par::run_indexed(cfg.inquiry_slots_s.len() as u64, jobs, |idx| {
        let inquiry_s = cfg.inquiry_slots_s[idx as usize];
        {
            let cycle = 15.4;
            let sys_cfg = SystemConfig {
                duty: DutyCycle::periodic(
                    SimDuration::from_secs_f64(inquiry_s),
                    SimDuration::from_secs_f64(cycle),
                ),
                ..SystemConfig::default()
            };
            let mut builder = BipsSystem::builder(sys_cfg);
            for i in 0..cfg.users {
                builder = builder.user(UserSpec::new(format!("u{i}"), i % 9).mode(
                    WalkMode::RandomWalk {
                        pause: (SimDuration::from_secs(10), SimDuration::from_secs(40)),
                    },
                ));
            }
            let mut engine = builder.into_engine(cfg.seed);
            engine.run_until(SimTime::ZERO + SimDuration::from_secs(cfg.duration_s));
            let sys = engine.world();
            let lat = sys.detection_latency();
            TradeoffPoint {
                inquiry_s,
                load: inquiry_s / cycle,
                detection_latency_s: lat.mean(),
                samples: lat.len(),
                missed: sys.stats().missed_detections,
            }
        }
    })
}

/// Renders the trade-off table.
pub fn render_tradeoff(points: &[TradeoffPoint]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "S5-c — detection latency vs tracking load (full system, 15.4 s cycle)"
    );
    let _ = writeln!(
        out,
        "{:>10} {:>8} {:>16} {:>9} {:>8}",
        "slot (s)", "load", "latency (s)", "samples", "missed"
    );
    for p in points {
        let marker = if (p.inquiry_s - 3.84).abs() < 1e-9 {
            "  ← paper's operating point"
        } else {
            ""
        };
        let _ = writeln!(
            out,
            "{:>10.2} {:>8} {:>16.2} {:>9} {:>8}{}",
            p.inquiry_s,
            crate::pct(p.load),
            p.detection_latency_s,
            p.samples,
            p.missed,
            marker
        );
    }
    out
}

#[cfg(test)]
mod tradeoff_tests {
    use super::*;

    #[test]
    fn longer_inquiry_detects_faster_or_equal() {
        let pts = run_tradeoff(&TradeoffConfig {
            inquiry_slots_s: vec![1.28, 7.68],
            users: 3,
            duration_s: 500,
            seed: 3,
            jobs: 0,
        });
        assert_eq!(pts.len(), 2);
        assert!(
            pts[0].samples > 0 && pts[1].samples > 0,
            "no detections sampled"
        );
        // 7.68 s of inquiry per cycle must not be slower to detect than
        // 1.28 s (allow small noise).
        assert!(
            pts[1].detection_latency_s <= pts[0].detection_latency_s + 2.0,
            "latency did not improve: {:?}",
            pts
        );
        assert!(pts[0].load < pts[1].load);
    }
}
