//! # desim — deterministic discrete-event simulation engine
//!
//! This crate is the simulation substrate of the BIPS reproduction. It plays
//! the role that the VINT `ns-2` simulator (extended with IBM's BlueHoc)
//! played in the original paper: a virtual clock, an event calendar, and
//! reproducible randomness on top of which the Bluetooth baseband, the LAN
//! and the mobility models are built.
//!
//! The engine is deliberately small and fully deterministic:
//!
//! * **Virtual time** is measured in integer microseconds ([`SimTime`],
//!   [`SimDuration`]) — fine enough to express the 312.5 µs Bluetooth
//!   half-slot as an even number of ticks without floating-point drift.
//! * **Events** are user-defined values handled by a [`World`]; ties in time
//!   are broken by the rank a model gives its events, then by insertion
//!   order, so a run is a pure function of `(world, seed, initial events)`.
//! * **Randomness** flows from a single master seed through
//!   [`rng::SeedDeriver`], so replications and parallel parameter sweeps
//!   are reproducible and independent.
//! * **Statistics** ([`stats`]) provide the estimators used by every
//!   experiment in the paper: sample means with confidence intervals and
//!   empirical CDFs (Figure 2 is an empirical discovery-time CDF).
//! * **Parallel replication** ([`par`]) fans independent replications out
//!   over scoped worker threads with per-index seeds and an ordered
//!   reduction, so `--jobs N` scales throughput to the hardware while
//!   staying bit-identical to the serial run.
//! * **Telemetry** is layered on top, never inside, the engine: a
//!   [`metrics`] registry of hierarchically-named counters, gauges and
//!   distributions; a passive [`Observer`] hook (with the ready-made
//!   [`probe::EngineProbe`]) that provably cannot perturb a run; and a
//!   dependency-free JSON/JSONL [`report`] exporter for structured run
//!   reports. See `docs/OBSERVABILITY.md`.
//! * **Request tracing** ([`tracing`]) adds zero-allocation, lock-free
//!   per-shard trace rings with span ids, a panic/latency-anomaly
//!   flight recorder, and log-linear HDR latency histograms ([`hdr`])
//!   with bounded relative error for tail percentiles.
//!
//! # Example
//!
//! ```
//! use desim::{Engine, World, Context, SimTime, SimDuration};
//!
//! /// A world that counts ticks until it has seen five of them.
//! struct TickWorld { ticks: u32 }
//! #[derive(Debug)]
//! struct Tick;
//!
//! impl World for TickWorld {
//!     type Event = Tick;
//!     fn handle(&mut self, ctx: &mut Context<Tick>, _ev: Tick) {
//!         self.ticks += 1;
//!         if self.ticks < 5 {
//!             ctx.schedule_in(SimDuration::from_millis(10), Tick);
//!         }
//!     }
//! }
//!
//! let mut engine = Engine::new(TickWorld { ticks: 0 }, 42);
//! engine.schedule(SimTime::ZERO, Tick);
//! engine.run();
//! assert_eq!(engine.world().ticks, 5);
//! assert_eq!(engine.now(), SimTime::from_millis(40));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compose;
pub mod engine;
pub mod hdr;
pub mod metrics;
pub mod par;
pub mod probe;
pub mod report;
pub mod rng;
pub mod stats;
pub mod time;
pub mod tracing;

pub use engine::{Context, Engine, EventId, Observer, World, DEFAULT_RANK};
pub use hdr::{HdrHistogram, HdrMergeError};
pub use metrics::{Metric, MetricSet};
pub use report::{Json, RunReport};
pub use rng::{SeedDeriver, SimRng};
pub use time::{SimDuration, SimTime};
pub use tracing::{FlightRecorder, SpanId, TraceKind, Tracer};
