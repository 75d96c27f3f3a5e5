//! Cell dwell-time arithmetic (paper §5).
//!
//! The paper sizes the master's operational cycle from how long a walking
//! user stays inside one coverage cell: *"Considering that a mobile user
//! normally walks with a speed in the range [0, 1.5] meters per second
//! and that the diameter of the coverage area is about 20 m, we can
//! estimate that the average walking user will spend 15.4 s in the
//! piconet (20 m : 1.3 m/s)."* This module reproduces that estimate and
//! provides sharper (chord-aware, Monte-Carlo) variants the paper's
//! back-of-envelope skips.

use crate::geometry::{segment_circle_crossings, Point};
use desim::SimRng;

/// The paper's walking-speed range, m/s.
pub const SPEED_RANGE_M_S: (f64, f64) = (0.0, 1.5);

/// The effective mean speed the paper divides by (it excludes standing
/// users: 20 m / 15.4 s ≈ 1.3 m/s).
pub const PAPER_MEAN_SPEED_M_S: f64 = 1.3;

/// The paper's cell diameter (2 × 10 m radius).
pub const CELL_DIAMETER_M: f64 = 20.0;

/// Slowest speed that still counts as "walking" in dwell estimates
/// (standing users never cross a cell; the paper's 1.3 m/s average
/// implicitly excludes them).
pub const DEFAULT_WALKING_FLOOR_M_S: f64 = 0.3;

/// Time to cross `distance` meters at `speed` m/s.
///
/// # Panics
///
/// Panics if `speed` is not strictly positive or `distance` is negative.
pub fn crossing_time(distance: f64, speed: f64) -> f64 {
    assert!(speed > 0.0, "speed must be positive");
    assert!(distance >= 0.0, "negative distance");
    distance / speed
}

/// The paper's §5 estimate: a 20 m diameter at 1.3 m/s — ≈15.4 s.
pub fn paper_estimate_secs() -> f64 {
    crossing_time(CELL_DIAMETER_M, PAPER_MEAN_SPEED_M_S)
}

/// Mean chord length of a circle of radius `r` for chords induced by a
/// "random parallel-beam" crossing (entry offset uniform across the
/// diameter): `(π/4)·2r ≈ 0.785 · diameter`. The paper's diameter
/// assumption is therefore ~27 % optimistic for off-center crossings.
pub fn mean_chord_length(radius: f64) -> f64 {
    std::f64::consts::FRAC_PI_4 * 2.0 * radius
}

/// Monte-Carlo dwell time: walkers cross a cell of radius `radius` along
/// straight lines with uniformly random lateral offset and speed uniform
/// in `speed_range` (speeds below `min_speed` are redrawn — a standing
/// user never crosses). Returns the sample mean in seconds.
///
/// # Panics
///
/// Panics if `trials` is zero or the speed range is invalid.
pub fn monte_carlo_dwell_secs(
    radius: f64,
    speed_range: (f64, f64),
    min_speed: f64,
    trials: u32,
    rng: &mut SimRng,
) -> f64 {
    assert!(trials > 0, "zero trials");
    assert!(
        speed_range.0 <= speed_range.1 && speed_range.1 > 0.0,
        "bad speed range"
    );
    let mut total = 0.0;
    for _ in 0..trials {
        // Lateral offset strictly inside the circle so every walker
        // actually crosses.
        let offset = rng.uniform(-radius * 0.999, radius * 0.999);
        let start = Point::new(-2.0 * radius, offset);
        let end = Point::new(2.0 * radius, offset);
        let (t_in, t_out) = segment_circle_crossings(start, end, Point::new(0.0, 0.0), radius)
            .expect("crossing guaranteed by offset bound");
        let chord = (t_out - t_in) * start.distance(end);
        let mut speed = rng.uniform(speed_range.0, speed_range.1);
        while speed < min_speed {
            speed = rng.uniform(speed_range.0, speed_range.1);
        }
        total += chord / speed;
    }
    total / trials as f64
}

/// Tracking load: the fraction of the operational cycle spent in inquiry
/// (paper: 3.84 s / 15.4 s ≈ 24 %).
pub fn tracking_load(inquiry_secs: f64, cycle_secs: f64) -> f64 {
    assert!(cycle_secs > 0.0, "zero cycle");
    inquiry_secs / cycle_secs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_numbers_reproduce() {
        let t = paper_estimate_secs();
        assert!((t - 15.3846).abs() < 1e-3, "got {t}");
        let load = tracking_load(3.84, t);
        assert!((load - 0.2496).abs() < 1e-3, "≈24 % load, got {load}");
    }

    #[test]
    fn chord_mean_is_pi_over_4_of_diameter() {
        assert!((mean_chord_length(10.0) - 15.7079).abs() < 1e-3);
    }

    #[test]
    fn monte_carlo_matches_analytic_shape() {
        let mut rng = SimRng::seed_from(42);
        // Fixed speed 1.3: dwell should approach mean chord / 1.3 ≈ 12.08 s.
        let mc = monte_carlo_dwell_secs(10.0, (1.3, 1.3), 0.0, 40_000, &mut rng);
        let expect = mean_chord_length(10.0) / 1.3;
        assert!((mc - expect).abs() < 0.15, "mc {mc} vs analytic {expect}");
    }

    #[test]
    fn slow_walkers_dwell_longer() {
        let mut rng = SimRng::seed_from(43);
        let fast = monte_carlo_dwell_secs(10.0, (1.4, 1.5), 0.1, 5_000, &mut rng);
        let slow = monte_carlo_dwell_secs(10.0, (0.4, 0.5), 0.1, 5_000, &mut rng);
        assert!(slow > 2.0 * fast, "slow {slow} fast {fast}");
    }

    #[test]
    fn min_speed_excludes_standers() {
        let mut rng = SimRng::seed_from(44);
        // Without the floor, near-zero speeds blow the mean up.
        let floored = monte_carlo_dwell_secs(10.0, SPEED_RANGE_M_S, 0.5, 20_000, &mut rng);
        assert!(floored < 40.0, "floored mean {floored}");
    }

    #[test]
    #[should_panic(expected = "speed must be positive")]
    fn zero_speed_panics() {
        let _ = crossing_time(20.0, 0.0);
    }
}
