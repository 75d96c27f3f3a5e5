//! The cost of scale as an exact count: simulating the paper's pipeline
//! costs the same number of events per walker in a building eight times
//! as large.
//!
//! Every master starts its duty cycle at t = 0, so inquiry chains tie
//! across the whole building. Events per walker stay flat only while
//! nothing the medium does per instant grows with the number of masters
//! it shares the instant with. The count is deterministic, so the bound
//! holds on any host.

use bips::core::system::{BipsSystem, SystemConfig, UserSpec};
use bips::mobility::Building;
use bips::sim::SimTime;

/// Events per walker: five walkers per room of a `floors`-floor office
/// (six rooms per floor), seed 2003, run to 300 virtual seconds.
fn events_per_walker(floors: usize) -> f64 {
    let rooms = 6 * floors;
    let walkers = 5 * rooms;
    let mut builder = BipsSystem::builder(SystemConfig {
        building: Building::multi_floor_office(floors),
        ..SystemConfig::default()
    });
    for i in 0..walkers {
        builder = builder.user(UserSpec::new(format!("user{i}"), i % rooms));
    }
    let mut engine = builder.into_engine(2003);
    engine.run_until(SimTime::from_secs(300));
    engine.steps() as f64 / walkers as f64
}

#[test]
fn events_per_walker_stay_flat_from_office_5_to_office_40() {
    let small = events_per_walker(5);
    let large = events_per_walker(40);
    let growth = large / small - 1.0;
    assert!(
        growth.abs() <= 0.05,
        "events per walker: {small:.1} at office:5, {large:.1} at office:40 ({:+.1}%)",
        100.0 * growth
    );
}
