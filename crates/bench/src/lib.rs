//! # bips-bench — the experiment harness
//!
//! One module per paper artifact. Each experiment is a plain function
//! from a config + seed to a result struct with a `render()` that prints
//! the same rows/series the paper reports; the `bin/` targets call these
//! and the Criterion benches time their building blocks.
//!
//! | paper artifact | module | binary |
//! |----------------|--------|--------|
//! | §4.1 Table 1 (discovery time by starting train) | [`table1`] | `table1` |
//! | Figure 2 (discovery probability vs time, 2–20 slaves) | [`figure2`] | `figure2` |
//! | §4.2/§5 (3.84 s → ≈95 %, 15.4 s dwell, 24 % load) | [`duty`] | `duty_cycle` |
//! | §2 (update-on-change tracking, offline paths) | [`e2e`] | `tracking_e2e` |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablations;
pub mod duty;
pub mod e2e;
pub mod figure2;
pub mod gate;
pub mod loadgen;
pub mod serve;
pub mod table1;
pub mod telemetry;
pub mod toprender;

/// Formats a probability in the paper's percent style.
pub fn pct(p: f64) -> String {
    format!("{:5.1}%", p * 100.0)
}
