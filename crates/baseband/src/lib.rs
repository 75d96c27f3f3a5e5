//! # bt-baseband — a slot-accurate Bluetooth 1.1 baseband simulator
//!
//! This crate stands in for the Bluetooth hardware (TI PCI–PCMCIA adapter +
//! 3COM cards under BlueZ) and for the ns-2/BlueHoc simulator used by the
//! BIPS paper (*Experimenting an Indoor Bluetooth-based Positioning
//! Service*, ICDCSW'03). It models the parts of the baseband that determine
//! device-discovery behaviour, at their real timescales:
//!
//! * the 312.5 µs native clock and 625 µs slots ([`clock`]);
//! * the **inquiry** procedure: 32 inquiry frequencies split into two
//!   16-hop trains, two ID packets per even slot, trains repeated
//!   `N_inquiry = 256` times (2.56 s) before switching ([`inquiry`]);
//! * the **inquiry scan** procedure: scan windows of 11.25 ms every
//!   1.28 s, the CLKN-driven scan-frequency hop, and the random response
//!   backoff of up to 1023 slots ([`scan`]);
//! * **FHS response collisions** between slaves answering the same ID
//!   packet — the mechanism the paper added to BlueHoc ([`medium`]);
//! * **paging** and **connection** establishment, plus a minimal data link
//!   used by the BIPS login exchange ([`page`], [`link`]);
//! * the master **duty cycle** that alternates inquiry and connection
//!   management, the knob the paper's evaluation turns ([`schedule`]).
//!
//! The model plugs into the [`desim`] engine either standalone (via
//! [`world::BasebandWorld`]) or embedded in a larger simulation (via
//! [`Baseband::handle`](medium::Baseband::handle) and
//! [`desim::compose::SubScheduler`]).
//!
//! ## Quick start: measure one discovery
//!
//! ```
//! use bt_baseband::{world::BasebandWorld, BdAddr, MasterConfig, SlaveConfig};
//! use bt_baseband::params::{DutyCycle, ScanPattern};
//! use desim::SimTime;
//!
//! let world = BasebandWorld::builder()
//!     .master(MasterConfig::default().duty(DutyCycle::always_inquiry()))
//!     .slave(SlaveConfig::new(BdAddr::new(0x1001)).scan(ScanPattern::continuous_inquiry()))
//!     .build();
//! let mut engine = world.into_engine(42);
//! engine.run_until(SimTime::from_secs(11));
//! let found: Vec<_> = engine.world().baseband().discoveries().to_vec();
//! assert_eq!(found.len(), 1);
//! assert!(found[0].at < SimTime::from_secs(11));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod addr;
pub mod clock;
pub mod discovery;
pub mod hop;
pub mod inquiry;
pub mod link;
pub mod medium;
pub mod packet;
pub mod page;
pub mod params;
pub mod scan;
pub mod schedule;
pub mod world;

pub use addr::BdAddr;
pub use discovery::{DiscoveryOutcome, DiscoveryScenario};
pub use medium::{Baseband, BbEvent, BbNotification, Discovery, MasterId, SlaveId};
pub use params::{MasterConfig, MediumConfig, SlaveConfig};
