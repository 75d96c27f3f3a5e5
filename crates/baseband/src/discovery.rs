//! Turn-key discovery experiments (the paper's §4 measurements).
//!
//! A [`DiscoveryScenario`] is a one-master, N-slave inquiry experiment:
//! run it for a horizon and collect per-slave discovery times plus the
//! train alignment needed to classify trials the way Table 1 does
//! (same/different starting train). The Table 1 and Figure 2 benches are
//! thin loops over this type.

use desim::{SimDuration, SimTime};

use crate::hop::Train;
use crate::medium::{MasterId, SlaveId};
use crate::params::{MasterConfig, MediumConfig, SlaveConfig};
use crate::world::BasebandWorld;

/// A single-piconet discovery experiment.
///
/// # Example
///
/// Reproduce one Table 1 trial (master always inquiring, slave
/// alternating inquiry/page scan):
///
/// ```
/// use bt_baseband::{BdAddr, DiscoveryScenario, MasterConfig, SlaveConfig};
/// use bt_baseband::params::ScanPattern;
/// use desim::SimDuration;
///
/// let scenario = DiscoveryScenario::new(
///     MasterConfig::default(),
///     vec![SlaveConfig::new(BdAddr::new(2)).scan(ScanPattern::alternating())],
///     SimDuration::from_secs(30),
/// );
/// let outcome = scenario.run(1234);
/// let t = outcome.times[0].expect("discovered within 30 s");
/// assert!(t.as_secs_f64() < 30.0);
/// ```
#[derive(Debug, Clone)]
pub struct DiscoveryScenario {
    master: MasterConfig,
    slaves: Vec<SlaveConfig>,
    horizon: SimDuration,
    medium: MediumConfig,
}

impl DiscoveryScenario {
    /// A scenario running `master` against `slaves` for `horizon`.
    ///
    /// # Panics
    ///
    /// Panics if `slaves` is empty or `horizon` is zero.
    pub fn new(master: MasterConfig, slaves: Vec<SlaveConfig>, horizon: SimDuration) -> Self {
        assert!(!slaves.is_empty(), "scenario needs slaves");
        assert!(!horizon.is_zero(), "zero horizon");
        DiscoveryScenario {
            master,
            slaves,
            horizon,
            medium: MediumConfig::default(),
        }
    }

    /// Overrides the medium configuration (e.g. to disable collisions for
    /// the BlueHoc-vanilla ablation).
    pub fn medium(mut self, medium: MediumConfig) -> Self {
        self.medium = medium;
        self
    }

    /// Number of slaves in the scenario.
    pub fn num_slaves(&self) -> usize {
        self.slaves.len()
    }

    /// The measurement horizon.
    pub fn horizon(&self) -> SimDuration {
        self.horizon
    }

    /// Runs one trial with the given seed; all per-trial randomness
    /// (clock phases, scan phases, start trains, backoffs) derives from
    /// it.
    pub fn run(&self, seed: u64) -> DiscoveryOutcome {
        self.run_trial(seed, None)
    }

    /// Like [`run`](DiscoveryScenario::run), but additionally exports the
    /// medium's counters into `metrics` after the trial (merged with
    /// whatever is already there, so calling this across replications
    /// accumulates totals). The instrumentation reads state only after
    /// the run — outcomes are bit-identical to the plain variant.
    pub fn run_with_metrics(&self, seed: u64, metrics: &mut desim::MetricSet) -> DiscoveryOutcome {
        self.run_trial(seed, Some(metrics))
    }

    /// Runs `n` independent replications on `jobs` workers (`0` = the
    /// ambient count, [`desim::par::default_jobs`]: `BIPS_JOBS` or the
    /// machine width), accumulating medium counters from every trial
    /// into `metrics`. Per-replication seeds come from
    /// [`desim::SeedDeriver`] keyed by replication index and per-trial
    /// metric sets are merged in replication-index order, so outcomes
    /// **and** accumulated telemetry are bit-identical to the serial
    /// (`jobs = 1`) run.
    pub fn run_replications_with_metrics_jobs(
        &self,
        master_seed: u64,
        n: u64,
        metrics: &mut desim::MetricSet,
        jobs: usize,
    ) -> Vec<DiscoveryOutcome> {
        let deriver = desim::SeedDeriver::new(master_seed);
        let jobs = desim::par::resolve_jobs(jobs);
        desim::par::replicate_with_metrics(n, jobs, metrics, |i| {
            let mut trial = desim::MetricSet::new();
            let outcome = self.run_with_metrics(deriver.derive(i), &mut trial);
            (outcome, trial)
        })
    }

    fn run_trial(&self, seed: u64, metrics: Option<&mut desim::MetricSet>) -> DiscoveryOutcome {
        let mut builder = BasebandWorld::builder()
            .medium(self.medium)
            .master(self.master);
        for &s in &self.slaves {
            builder = builder.slave(s);
        }
        let mut engine = builder.build().into_engine(seed);
        engine.run_until(SimTime::ZERO + self.horizon);

        let bb = engine.world().baseband();
        if let Some(metrics) = metrics {
            let mut trial = desim::MetricSet::new();
            bb.export_metrics(&mut trial);
            metrics.merge(&trial);
        }
        let m = MasterId::new(0);
        let mut times: Vec<Option<SimDuration>> = vec![None; self.slaves.len()];
        for d in bb.discoveries() {
            if d.master == m {
                let slot = &mut times[d.slave.index()];
                if slot.is_none() {
                    *slot = Some(d.at.elapsed());
                }
            }
        }
        let slave_start_trains = (0..self.slaves.len())
            .map(|i| bb.slave_scan_freq(SlaveId::new(i), SimTime::ZERO).train())
            .collect();
        DiscoveryOutcome {
            seed,
            times,
            master_start_train: bb.master_start_train(m),
            slave_start_trains,
            fhs_collided: bb.stats().fhs_collided,
        }
    }

    /// Runs `n` independent replications with seeds derived from
    /// `master_seed`, on the ambient worker count (see
    /// [`run_replications_with_metrics_jobs`](Self::run_replications_with_metrics_jobs)).
    pub fn run_replications(&self, master_seed: u64, n: u64) -> Vec<DiscoveryOutcome> {
        self.run_replications_jobs(master_seed, n, 0)
    }

    /// Like [`run_replications`](Self::run_replications) with an explicit
    /// worker count (`0` = ambient). The result is index-ordered and
    /// identical for every worker count.
    pub fn run_replications_jobs(
        &self,
        master_seed: u64,
        n: u64,
        jobs: usize,
    ) -> Vec<DiscoveryOutcome> {
        let deriver = desim::SeedDeriver::new(master_seed);
        let jobs = desim::par::resolve_jobs(jobs);
        desim::par::run_indexed(n, jobs, |i| self.run(deriver.derive(i)))
    }
}

/// The result of one [`DiscoveryScenario`] trial.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiscoveryOutcome {
    /// The trial seed.
    pub seed: u64,
    /// Per-slave first-discovery time (since the master entered inquiry),
    /// `None` if not discovered within the horizon.
    pub times: Vec<Option<SimDuration>>,
    /// The train the master started inquiring on.
    pub master_start_train: Train,
    /// Each slave's starting scan-frequency train.
    pub slave_start_trains: Vec<Train>,
    /// FHS responses destroyed by collisions during the trial.
    pub fhs_collided: u64,
}

impl DiscoveryOutcome {
    /// Whether slave `i` started on the master's starting train — the
    /// Table 1 classification.
    pub fn same_train(&self, i: usize) -> bool {
        self.slave_start_trains[i] == self.master_start_train
    }

    /// Number of slaves discovered within `deadline` of the start.
    pub fn discovered_by(&self, deadline: SimDuration) -> usize {
        self.times
            .iter()
            .filter(|t| matches!(t, Some(d) if *d <= deadline))
            .count()
    }

    /// Fraction of slaves discovered within `deadline`.
    pub fn fraction_discovered_by(&self, deadline: SimDuration) -> f64 {
        self.discovered_by(deadline) as f64 / self.times.len() as f64
    }

    /// True if every slave was discovered within the horizon.
    pub fn all_discovered(&self) -> bool {
        self.times.iter().all(Option::is_some)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::BdAddr;
    use crate::params::{DutyCycle, ScanPattern, StartFreq, StartTrain, TrainPolicy};

    fn table1_scenario() -> DiscoveryScenario {
        DiscoveryScenario::new(
            MasterConfig::default(),
            vec![SlaveConfig::new(BdAddr::new(2)).scan(ScanPattern::alternating())],
            SimDuration::from_secs(30),
        )
    }

    #[test]
    fn table1_trial_discovers_single_slave() {
        let out = table1_scenario().run(42);
        assert!(out.times[0].is_some(), "not discovered in 30 s");
        assert!(out.all_discovered());
    }

    #[test]
    fn same_train_is_faster_than_different_train_on_average() {
        let outs = table1_scenario().run_replications(7, 60);
        let mut same = desim::stats::OnlineStats::new();
        let mut diff = desim::stats::OnlineStats::new();
        for o in &outs {
            let Some(t) = o.times[0] else { continue };
            if o.same_train(0) {
                same.push(t.as_secs_f64());
            } else {
                diff.push(t.as_secs_f64());
            }
        }
        assert!(same.len() >= 10 && diff.len() >= 10, "classes unbalanced");
        assert!(
            same.mean() + 1.0 < diff.mean(),
            "same {:.2}s vs diff {:.2}s",
            same.mean(),
            diff.mean()
        );
    }

    #[test]
    fn replications_are_deterministic_and_distinct() {
        let s = table1_scenario();
        let a = s.run_replications(1, 5);
        let b = s.run_replications(1, 5);
        assert_eq!(a, b);
        assert_ne!(a[0], a[1]);
    }

    #[test]
    fn figure2_style_scenario_counts_fractions() {
        let master = MasterConfig::default()
            .duty(DutyCycle::periodic(
                SimDuration::from_secs(1),
                SimDuration::from_secs(5),
            ))
            .trains(TrainPolicy::Single)
            .start_train(StartTrain::Fixed(Train::A));
        let slaves: Vec<SlaveConfig> = (0..10)
            .map(|i| {
                SlaveConfig::new(BdAddr::new(0x100 + i))
                    .scan(ScanPattern::continuous_inquiry())
                    .start_freq(StartFreq::InTrain(Train::A))
            })
            .collect();
        let scenario = DiscoveryScenario::new(master, slaves, SimDuration::from_secs(14));
        let out = scenario.run(3);
        let one_sec = out.fraction_discovered_by(SimDuration::from_secs(1));
        let full = out.fraction_discovered_by(SimDuration::from_secs(14));
        assert!(one_sec > 0.5, "first-second discovery too low: {one_sec}");
        assert!(full >= one_sec);
    }

    /// The deterministic-parallelism contract: outcomes and accumulated
    /// telemetry are bit-identical for every worker count.
    #[test]
    fn parallel_replications_match_serial_bit_for_bit() {
        let s = table1_scenario();
        let mut serial_metrics = desim::MetricSet::new();
        let serial = s.run_replications_with_metrics_jobs(3, 10, &mut serial_metrics, 1);
        for jobs in [2, 8] {
            let mut metrics = desim::MetricSet::new();
            let outs = s.run_replications_with_metrics_jobs(3, 10, &mut metrics, jobs);
            assert_eq!(outs, serial, "outcomes diverged at jobs={jobs}");
            assert_eq!(metrics, serial_metrics, "telemetry diverged at jobs={jobs}");
            assert_eq!(s.run_replications_jobs(3, 10, jobs), serial);
        }
    }

    #[test]
    fn metrics_variant_matches_plain_run_and_accumulates() {
        let s = table1_scenario();
        let mut metrics = desim::MetricSet::new();
        let a = s.run_with_metrics(11, &mut metrics);
        assert_eq!(a, s.run(11), "instrumentation changed the outcome");
        let after_one = metrics
            .counter_value("baseband.inquiry.ids_transmitted")
            .unwrap();
        assert!(after_one > 0);
        let _ = s.run_with_metrics(12, &mut metrics);
        assert!(
            metrics
                .counter_value("baseband.inquiry.ids_transmitted")
                .unwrap()
                > after_one,
            "second trial should accumulate"
        );
    }

    #[test]
    #[should_panic(expected = "needs slaves")]
    fn empty_scenario_rejected() {
        let _ = DiscoveryScenario::new(MasterConfig::default(), vec![], SimDuration::from_secs(1));
    }
}
