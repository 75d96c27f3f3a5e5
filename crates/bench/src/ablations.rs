//! Ablations over the design choices DESIGN.md calls out.
//!
//! Each ablation re-runs a paper experiment with one mechanism altered,
//! quantifying how much that mechanism matters:
//!
//! * **collision handling** (the paper's BlueHoc extension) on/off;
//! * **response backoff bound** (spec 1023 slots) swept down to 0;
//! * **scan-frequency model** (shared BlueHoc sequence vs per-device);
//! * **slave scan interval** (the 1.28 s default vs sparser scanning).

use bt_baseband::hop::Train;
use bt_baseband::params::{DutyCycle, StartTrain};
use bt_baseband::params::{MediumConfig, ScanFreqModel, ScanPattern, StartFreq, TrainPolicy};
use bt_baseband::{BdAddr, DiscoveryScenario, MasterConfig, SlaveConfig};
use desim::{SeedDeriver, SimDuration};

/// Shared shape for an ablation outcome: a label and the fraction of
/// slaves discovered within the first inquiry phase and the horizon.
#[derive(Debug, Clone)]
pub struct AblationPoint {
    /// Variant label.
    pub label: String,
    /// Mean fraction discovered within the first 1 s inquiry phase.
    pub in_first_phase: f64,
    /// Mean fraction discovered within 14 s.
    pub in_horizon: f64,
}

fn fig2_like_scenario(
    slaves: usize,
    collisions: bool,
    scan_model: ScanFreqModel,
    backoff: u64,
    scan: ScanPattern,
) -> DiscoveryScenario {
    fig2_like_scenario_with_errors(slaves, collisions, scan_model, backoff, scan, 1.0)
}

fn fig2_like_scenario_with_errors(
    slaves: usize,
    collisions: bool,
    scan_model: ScanFreqModel,
    backoff: u64,
    scan: ScanPattern,
    packet_success: f64,
) -> DiscoveryScenario {
    let master = MasterConfig::default()
        .duty(DutyCycle::periodic(
            SimDuration::from_secs(1),
            SimDuration::from_secs(5),
        ))
        .trains(TrainPolicy::Single)
        .start_train(StartTrain::Fixed(Train::A));
    let slave_cfgs: Vec<SlaveConfig> = (0..slaves)
        .map(|i| {
            SlaveConfig::new(BdAddr::new(0x10_0000 + i as u64))
                .scan(scan)
                .start_freq(StartFreq::InTrain(Train::A))
                .backoff_max_slots(backoff)
                .halt_when_discovered(true)
        })
        .collect();
    let medium = MediumConfig {
        fhs_collisions: collisions,
        scan_freq_model: scan_model,
        packet_success,
        ..MediumConfig::default()
    };
    DiscoveryScenario::new(master, slave_cfgs, SimDuration::from_secs(14)).medium(medium)
}

fn measure(
    sc: &DiscoveryScenario,
    seed: u64,
    reps: u64,
    jobs: usize,
    label: impl Into<String>,
) -> AblationPoint {
    let outs = sc.run_replications_jobs(seed, reps, jobs);
    let first: f64 = outs
        .iter()
        .map(|o| o.fraction_discovered_by(SimDuration::from_secs(1)))
        .sum::<f64>()
        / outs.len() as f64;
    let horizon: f64 = outs
        .iter()
        .map(|o| o.fraction_discovered_by(SimDuration::from_secs(14)))
        .sum::<f64>()
        / outs.len() as f64;
    AblationPoint {
        label: label.into(),
        in_first_phase: first,
        in_horizon: horizon,
    }
}

/// Ablation A1: FHS collision handling on/off (20 slaves).
pub fn collision_handling(reps: u64, seed: u64, jobs: usize) -> Vec<AblationPoint> {
    let base = ScanPattern::continuous_inquiry();
    vec![
        measure(
            &fig2_like_scenario(20, true, ScanFreqModel::SharedSequence, 1023, base),
            seed,
            reps,
            jobs,
            "collisions modeled (paper)",
        ),
        measure(
            &fig2_like_scenario(20, false, ScanFreqModel::SharedSequence, 1023, base),
            seed,
            reps,
            jobs,
            "collisions ignored (vanilla BlueHoc)",
        ),
    ]
}

/// Ablation A2: response-backoff bound sweep (20 slaves, collisions on).
pub fn backoff_bound(reps: u64, seed: u64, jobs: usize) -> Vec<AblationPoint> {
    let base = ScanPattern::continuous_inquiry();
    // One SeedDeriver stream per arm, keyed by the bound. The previous
    // `seed ^ b` collided with the master seed at `b = 0`, making the
    // zero-backoff arm share every replication stream with any other
    // experiment run off the bare seed.
    let arms = SeedDeriver::new(seed);
    [0u64, 127, 255, 511, 1023, 2047]
        .iter()
        .map(|&b| {
            measure(
                &fig2_like_scenario(20, true, ScanFreqModel::SharedSequence, b, base),
                arms.derive(b),
                reps,
                jobs,
                format!("backoff ≤ {b} slots"),
            )
        })
        .collect()
}

/// Ablation A3: scan-frequency model (10 slaves).
pub fn scan_freq_model(reps: u64, seed: u64, jobs: usize) -> Vec<AblationPoint> {
    let base = ScanPattern::continuous_inquiry();
    vec![
        measure(
            &fig2_like_scenario(10, true, ScanFreqModel::SharedSequence, 1023, base),
            seed,
            reps,
            jobs,
            "shared sequence (BlueHoc)",
        ),
        measure(
            &fig2_like_scenario(10, true, ScanFreqModel::PerDevice, 1023, base),
            seed,
            reps,
            jobs,
            "per-device phases (spec clocks)",
        ),
    ]
}

/// Ablation A4: slave scan duty (10 slaves): continuous vs spec windows.
pub fn scan_duty(reps: u64, seed: u64, jobs: usize) -> Vec<AblationPoint> {
    vec![
        measure(
            &fig2_like_scenario(
                10,
                true,
                ScanFreqModel::SharedSequence,
                1023,
                ScanPattern::continuous_inquiry(),
            ),
            seed,
            reps,
            jobs,
            "continuous inquiry scan (Fig. 2)",
        ),
        measure(
            &fig2_like_scenario(
                10,
                true,
                ScanFreqModel::SharedSequence,
                1023,
                ScanPattern::spec_inquiry(),
            ),
            seed,
            reps,
            jobs,
            "spec 11.25 ms / 1.28 s windows",
        ),
        measure(
            &fig2_like_scenario(
                10,
                true,
                ScanFreqModel::SharedSequence,
                1023,
                ScanPattern::alternating(),
            ),
            seed,
            reps,
            jobs,
            "alternating inquiry/page scan (Tab. 1)",
        ),
    ]
}

/// Ablation A5: channel errors (10 slaves). The paper assumes an
/// error-free environment; this quantifies how much a lossy cell edge
/// slows discovery.
pub fn channel_errors(reps: u64, seed: u64, jobs: usize) -> Vec<AblationPoint> {
    let base = ScanPattern::continuous_inquiry();
    // One SeedDeriver stream per arm, keyed by the arm index. The
    // previous `seed ^ p.to_bits()` XORed raw float bit patterns into
    // the seed — correlated streams across arms (and a collision with
    // the master seed whenever `p.to_bits()` XORs to zero structure).
    let arms = SeedDeriver::new(seed);
    [1.0f64, 0.9, 0.7, 0.5]
        .iter()
        .enumerate()
        .map(|(i, &p)| {
            measure(
                &fig2_like_scenario_with_errors(
                    10,
                    true,
                    ScanFreqModel::SharedSequence,
                    1023,
                    base,
                    p,
                ),
                arms.derive(i as u64),
                reps,
                jobs,
                format!("packet success {:.0}%", p * 100.0),
            )
        })
        .collect()
}

/// Renders a set of ablation points.
pub fn render(title: &str, points: &[AblationPoint]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let _ = writeln!(out, "  {:<42} {:>10} {:>10}", "variant", "≤1s", "≤14s");
    for p in points {
        let _ = writeln!(
            out,
            "  {:<42} {:>10} {:>10}",
            p.label,
            crate::pct(p.in_first_phase),
            crate::pct(p.in_horizon)
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collisions_hurt_first_phase() {
        let pts = collision_handling(30, 1, 0);
        assert!(pts[1].in_first_phase > pts[0].in_first_phase + 0.01);
    }

    #[test]
    fn tiny_backoff_collapses_under_shared_scanning() {
        let pts = backoff_bound(20, 2, 0);
        let zero = &pts[0];
        let spec = pts.iter().find(|p| p.label.contains("1023")).unwrap();
        assert!(
            zero.in_horizon < spec.in_horizon,
            "no backoff should be strictly worse: {} vs {}",
            zero.in_horizon,
            spec.in_horizon
        );
    }

    #[test]
    fn per_device_phases_have_fewer_collisions() {
        let pts = scan_freq_model(30, 3, 0);
        let shared = &pts[0];
        let per_dev = &pts[1];
        assert!(per_dev.in_first_phase >= shared.in_first_phase - 0.02);
    }

    #[test]
    fn sparser_scanning_discovers_slower() {
        let pts = scan_duty(20, 4, 0);
        let continuous = &pts[0];
        let spec = &pts[1];
        assert!(
            spec.in_first_phase < continuous.in_first_phase,
            "windowed scan cannot beat continuous: {} vs {}",
            spec.in_first_phase,
            continuous.in_first_phase
        );
    }

    #[test]
    fn channel_errors_slow_discovery() {
        let pts = channel_errors(25, 5, 0);
        let clean = &pts[0];
        let lossy = pts.last().unwrap();
        assert!(
            lossy.in_first_phase < clean.in_first_phase,
            "50% packet loss must hurt: {} vs {}",
            lossy.in_first_phase,
            clean.in_first_phase
        );
    }

    #[test]
    fn render_lists_variants() {
        let s = render("A1", &collision_handling(5, 5, 0));
        assert!(s.contains("vanilla BlueHoc"));
    }
}
