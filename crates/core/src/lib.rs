//! # bips-core — the Bluetooth Indoor Positioning Service
//!
//! The paper's contribution: a building-scale positioning service that
//! tracks mobile users through Bluetooth cells and answers *"what is the
//! shortest path to user X?"* queries. This crate assembles the
//! substrates ([`bt_baseband`], [`bips_lan`], [`bips_mobility`]) into the
//! complete system:
//!
//! * [`registry`] — user registration, salted password records, access
//!   rights, and the login that binds a `userid` to a `BD_ADDR` (§2);
//! * [`locationdb`] — the central location database with
//!   *update-on-change* semantics and presence history;
//! * [`graph`] — the weighted workstation graph, Dijkstra, and the
//!   offline all-pairs precomputation that makes online path queries
//!   O(path length) (§2);
//! * [`protocol`] / [`wire`] — the binary messages workstations exchange
//!   with the central server over the LAN;
//! * [`workstation`] — the per-cell tracking logic: sighting → presence,
//!   absence timeouts, diff-based updates;
//! * [`server`] — the central server tying registry, database and graph
//!   together;
//! * [`service`] — the sharded, lock-striped serving engine: interned
//!   ids, batched ingestion, zero-allocation path queries;
//! * [`system`] — the full-system simulation: radios, LAN, walkers,
//!   workstations and server in one deterministic world.
//!
//! ## Quick taste
//!
//! ```
//! use bips_core::graph::WsGraph;
//!
//! // The §2 query core: precomputed shortest paths over the
//! // workstation graph.
//! let mut g = WsGraph::new(3);
//! g.add_edge(0, 1, 7.0);
//! g.add_edge(1, 2, 5.0);
//! g.add_edge(0, 2, 20.0);
//! let apsp = g.precompute_all_pairs();
//! let (path, dist) = apsp.path(0, 2).expect("connected");
//! assert_eq!(path, vec![0, 1, 2]);
//! assert_eq!(dist, 12.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod graph;
pub mod handheld;
pub mod locationdb;
mod probe;
pub mod protocol;
pub mod registry;
pub mod server;
pub mod service;
pub mod system;
pub mod wire;
pub mod workstation;

pub use locationdb::LocationDb;
pub use registry::{AccessRights, Registry, UserId};
pub use server::BipsServer;
pub use service::{SessionError, ShardedService, WhereIs};
pub use system::{BipsSystem, SysEvent, SystemBuilder, SystemConfig, UserSpec};
