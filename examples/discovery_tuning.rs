//! Tune the master's inquiry duty cycle — the paper's §4/§5 question:
//! how much of the operational cycle must go to device discovery?
//!
//! Sweeps the inquiry-slot length against 20 slaves (random trains) and
//! prints the §5 dwell-time arithmetic that picks the 15.4 s cycle.
//!
//! Run with: `cargo run --example discovery_tuning --release`

use bips::baseband::params::{
    DutyCycle, MediumConfig, ScanFreqModel, ScanPattern, StartFreq, TrainPolicy,
};
use bips::baseband::{BdAddr, DiscoveryScenario, MasterConfig, SlaveConfig};
use bips::mobility::dwell;
use bips::sim::{SimDuration, SimRng};

fn discovered_fraction(inquiry_s: f64, slaves: usize, reps: u64, seed: u64) -> f64 {
    let master = MasterConfig::default()
        .duty(DutyCycle::always_inquiry())
        .trains(TrainPolicy::spec());
    let slave_cfgs: Vec<SlaveConfig> = (0..slaves)
        .map(|i| {
            SlaveConfig::new(BdAddr::new(0x100 + i as u64))
                .scan(ScanPattern::continuous_inquiry())
                .start_freq(StartFreq::Random)
                .halt_when_discovered(true)
        })
        .collect();
    let medium = MediumConfig {
        scan_freq_model: ScanFreqModel::SharedSequence,
        ..MediumConfig::default()
    };
    let sc = DiscoveryScenario::new(master, slave_cfgs, SimDuration::from_secs_f64(inquiry_s))
        .medium(medium);
    let outs = sc.run_replications(seed, reps);
    outs.iter()
        .map(|o| o.fraction_discovered_by(SimDuration::from_secs_f64(inquiry_s)))
        .sum::<f64>()
        / reps as f64
}

fn main() {
    println!("inquiry slot sweep (20 slaves, random train alignment, 100 reps):");
    for slot in [1.28, 2.56, 3.84, 5.12] {
        let f = discovered_fraction(slot, 20, 100, 99);
        let note = if (slot - 3.84).abs() < 1e-9 {
            "  ← the paper's choice (≈95%)"
        } else {
            ""
        };
        println!("  {slot:>5.2} s → {:5.1}% discovered{note}", f * 100.0);
    }

    println!("\ncell dwell time (how long a walker stays in one 10 m cell):");
    println!(
        "  paper estimate 20 m / 1.3 m/s = {:.1} s",
        dwell::paper_estimate_secs()
    );
    let mut rng = SimRng::seed_from(5);
    let mc = dwell::monte_carlo_dwell_secs(
        10.0,
        dwell::SPEED_RANGE_M_S,
        dwell::DEFAULT_WALKING_FLOOR_M_S,
        20_000,
        &mut rng,
    );
    println!("  chord-aware Monte Carlo        = {mc:.1} s");
    println!(
        "\n⇒ operational cycle 15.4 s with a 3.84 s inquiry slot: tracking load {:.0}%",
        dwell::tracking_load(3.84, dwell::paper_estimate_secs()) * 100.0
    );
}
