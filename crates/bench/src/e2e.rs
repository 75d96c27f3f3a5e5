//! Experiment E2E — the full tracking pipeline (§2).
//!
//! The paper's architecture claims two efficiency properties that the
//! evaluation section does not measure directly but the design leans on:
//!
//! 1. **update-on-change** presence reporting keeps the LAN/server load
//!    far below naive per-sweep re-announcement;
//! 2. the **offline all-pairs** path table keeps location queries cheap
//!    at run time.
//!
//! This experiment runs the complete deployment — building, radios,
//! walkers, LAN, server — and reports tracking accuracy, presence-update
//! counts vs. the naive alternative, login convergence, and end-to-end
//! query latency.

use bips_core::protocol::LocateOutcome;
use bips_core::system::{BipsSystem, SysEvent, SystemConfig, UserSpec};
use bips_mobility::walker::WalkMode;
use desim::stats::OnlineStats;
use desim::{SimDuration, SimTime};

/// Configuration of the end-to-end run.
#[derive(Debug, Clone)]
pub struct E2eConfig {
    /// Number of mobile users walking the department.
    pub users: usize,
    /// Virtual run length.
    pub duration: SimDuration,
    /// Sampling period for tracking accuracy.
    pub accuracy_sample: SimDuration,
    /// Master seed.
    pub seed: u64,
    /// Fold mobility crossing counters into path weights each sweep
    /// round, so the pipeline exercises real topology churn.
    pub congestion: bool,
}

impl Default for E2eConfig {
    fn default() -> Self {
        E2eConfig {
            users: 6,
            duration: SimDuration::from_secs(1200),
            accuracy_sample: SimDuration::from_secs(30),
            seed: 42,
            congestion: true,
        }
    }
}

/// The end-to-end report.
#[derive(Debug, Clone)]
pub struct E2eResult {
    /// Users that completed login.
    pub logged_in: usize,
    /// Total users.
    pub users: usize,
    /// Mean tracking accuracy over the sampled timeline.
    pub accuracy: OnlineStats,
    /// Update-on-change messages actually sent.
    pub updates_sent: u64,
    /// What naive per-sweep reporting would have sent.
    pub naive_updates: u64,
    /// End-to-end query latencies, seconds.
    pub query_latency: OnlineStats,
    /// Queries that found their target.
    pub queries_found: u64,
    /// Queries issued.
    pub queries_issued: u64,
}

/// Runs the experiment.
pub fn run(cfg: &E2eConfig) -> E2eResult {
    run_with_metrics(cfg).0
}

/// Runs the experiment, also exporting the deployment's full metric
/// snapshot (every substrate) at the end of the run.
pub fn run_with_metrics(cfg: &E2eConfig) -> (E2eResult, desim::MetricSet) {
    let sys_cfg = SystemConfig {
        congestion_weights: cfg.congestion,
        ..SystemConfig::default()
    };
    let mut builder = BipsSystem::builder(sys_cfg);
    for i in 0..cfg.users {
        builder = builder.user(UserSpec::new(format!("user{i}"), i % 9).mode(
            WalkMode::RandomWalk {
                pause: (SimDuration::from_secs(10), SimDuration::from_secs(60)),
            },
        ));
    }
    let mut engine = builder.into_engine(cfg.seed);

    // Warm-up: give everyone time to be discovered and logged in.
    let warmup = SimTime::ZERO + SimDuration::from_secs(120);
    engine.run_until(warmup);

    // Issue a query between a fixed pair every 90 s.
    if cfg.users >= 2 {
        let mut t = warmup + SimDuration::from_secs(10);
        let end = SimTime::ZERO + cfg.duration;
        let mut flip = false;
        while t < end {
            let (a, b) = if flip { (1, 0) } else { (0, 1) };
            engine.schedule(t, SysEvent::locate(format!("user{a}"), format!("user{b}")));
            flip = !flip;
            t += SimDuration::from_secs(90);
        }
    }

    // Sample accuracy along the run.
    let mut accuracy = OnlineStats::new();
    let mut t = warmup;
    let end = SimTime::ZERO + cfg.duration;
    while t < end {
        t += cfg.accuracy_sample;
        engine.run_until(t.min(end));
        accuracy.push(engine.world().tracking_accuracy());
    }

    let sys = engine.world();
    let stats = sys.stats();
    let mut query_latency = OnlineStats::new();
    let mut queries_found = 0;
    for q in sys.queries() {
        if let (Some(ans), Some(outcome)) = (q.answered_at, q.outcome.as_ref()) {
            query_latency.push((ans - q.issued_at).as_secs_f64());
            if matches!(outcome, LocateOutcome::Found { .. }) {
                queries_found += 1;
            }
        }
    }
    let logged_in = (0..cfg.users)
        .filter(|i| sys.is_logged_in(&format!("user{i}")))
        .count();

    let mut metrics = desim::MetricSet::new();
    sys.export_metrics(&mut metrics, end);

    (
        E2eResult {
            logged_in,
            users: cfg.users,
            accuracy,
            updates_sent: stats.presence_updates_sent,
            naive_updates: stats.naive_announcements,
            query_latency,
            queries_found,
            queries_issued: stats.queries_issued,
        },
        metrics,
    )
}

impl E2eResult {
    /// Renders the report.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "E2E — full BIPS tracking pipeline");
        let _ = writeln!(
            out,
            "  users logged in:         {}/{}",
            self.logged_in, self.users
        );
        let _ = writeln!(
            out,
            "  tracking accuracy:       {} (mean over samples)",
            crate::pct(self.accuracy.mean())
        );
        let _ = writeln!(
            out,
            "  presence updates sent:   {:>8}  (update-on-change)",
            self.updates_sent
        );
        let _ = writeln!(
            out,
            "  naive would have sent:   {:>8}  ({}x more)",
            self.naive_updates,
            if self.updates_sent > 0 {
                self.naive_updates / self.updates_sent.max(1)
            } else {
                0
            }
        );
        let _ = writeln!(
            out,
            "  queries found target:    {}/{}",
            self.queries_found, self.queries_issued
        );
        if !self.query_latency.is_empty() {
            let _ = writeln!(
                out,
                "  query latency:           {:.2} s mean (n={})",
                self.query_latency.mean(),
                self.query_latency.len()
            );
        }
        out
    }

    /// Builds the structured run report (without metrics — the binary
    /// attaches those).
    pub fn to_report(&self, cfg: &E2eConfig) -> desim::RunReport {
        let mut report = desim::RunReport::new("tracking_e2e", cfg.seed);
        report
            .config("users", cfg.users)
            .config("duration_s", cfg.duration.as_secs_f64())
            .config("congestion", u64::from(cfg.congestion));
        report
            .artifact("logged_in", self.logged_in)
            .artifact("tracking_accuracy_mean", self.accuracy.mean())
            .artifact("presence_updates_sent", self.updates_sent)
            .artifact("naive_updates", self.naive_updates)
            .artifact("queries_found", self.queries_found)
            .artifact("queries_issued", self.queries_issued)
            .artifact("query_latency_mean_s", self.query_latency.mean());
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> E2eConfig {
        E2eConfig {
            users: 3,
            duration: SimDuration::from_secs(500),
            accuracy_sample: SimDuration::from_secs(25),
            seed: 5,
            ..E2eConfig::default()
        }
    }

    #[test]
    fn pipeline_converges_saves_messages_and_answers_queries() {
        let r = run(&small());
        assert_eq!(r.logged_in, r.users, "not everyone logged in");
        assert!(
            r.accuracy.mean() > 0.6,
            "tracking accuracy too low: {}",
            r.accuracy.mean()
        );
        assert!(r.updates_sent > 0);
        // Mobile users churn cells, so the saving is smaller than for
        // stationary ones (cf. the 5x system-level test) but must remain
        // a clear win.
        assert!(
            r.naive_updates as f64 > 1.5 * r.updates_sent as f64,
            "update-on-change saved little: {} vs {}",
            r.updates_sent,
            r.naive_updates
        );
        assert!(r.queries_issued > 0);
        assert!(
            r.query_latency.len() + 1 >= r.queries_issued,
            "most queries should complete: answered {} of {}",
            r.query_latency.len(),
            r.queries_issued
        );
    }

    #[test]
    fn report_renders() {
        let r = run(&E2eConfig {
            users: 2,
            duration: SimDuration::from_secs(300),
            accuracy_sample: SimDuration::from_secs(50),
            seed: 6,
            ..E2eConfig::default()
        });
        let s = r.render();
        assert!(s.contains("tracking accuracy"));
        assert!(s.contains("presence updates"));
    }
}
