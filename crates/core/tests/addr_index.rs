//! Differential property for the sharded engine's address index: random
//! sequences of login, logout, re-login and presence notices run against
//! a `BTreeMap` model of the `BD_ADDR` → user bindings, on one address
//! shard and on sixteen.
//!
//! Addresses come from a few runs of eight consecutive addresses. The
//! index keeps an aligned run in eight consecutive slots of one table,
//! so runs collide, clusters wrap past a table's end, and a logout
//! deletes from the middle of a cluster. With one shard the table is
//! presized for every user and never grows; with sixteen each table
//! starts at one run's worth of slots and doubles as runs land on it.
//!
//! After every operation each address in play gets a presence notice
//! and then an absence, each batch flushed: a bound address must move
//! its own user's current cell, an unbound one must be ignored, and
//! `core.service.ignored` must equal the model's count.
//! `sharded_differential` cannot cover this: its addresses are fixed at
//! `1000 + uid` and never reused.

use std::collections::BTreeMap;

use bips_core::graph::WsGraph;
use bips_core::registry::{AccessRights, Registry};
use bips_core::service::{SessionError, ShardedService};
use bt_baseband::BdAddr;
use desim::metrics::MetricSet;
use proptest::prelude::*;

/// Registered users; ops also name one unknown id. Three users to every
/// four addresses, so a table on sixteen shards, presized for two
/// users, fills unless it doubles.
const USERS: u64 = 24;
/// Runs of eight addresses in play per case.
const RUNS: usize = 4;

fn service(nshards: usize) -> ShardedService {
    let mut reg = Registry::new();
    for i in 0..USERS {
        reg.register(&format!("user{i}"), "pw", AccessRights::open())
            .unwrap();
    }
    let mut g = WsGraph::new(2);
    g.add_edge(0, 1, 10.0);
    ShardedService::new(&reg, g.precompute_all_pairs(), nshards)
}

/// The addresses in play: `RUNS` runs of eight, each starting at a
/// 45-bit multiple of eight, or off that alignment when the draw is odd
/// so that a run straddles two aligned ones.
fn universe(starts: &[u64]) -> Vec<u64> {
    let mut addrs: Vec<u64> = starts
        .iter()
        .flat_map(|&s| {
            let start = ((s >> 19) << 3) | if s & 1 == 1 { (s >> 1) & 7 } else { 0 };
            start..start + 8
        })
        .collect();
    addrs.sort_unstable();
    addrs.dedup();
    addrs
}

/// What `login` must answer, checked in the engine's order; binds on
/// success.
fn model_login(model: &mut BTreeMap<u64, u64>, uid: u64, addr: u64) -> Result<(), SessionError> {
    if uid >= USERS {
        Err(SessionError::NoSuchUser)
    } else if model.contains_key(&addr) {
        Err(SessionError::AddressInUse)
    } else if model.values().any(|&u| u == uid) {
        Err(SessionError::AlreadyLoggedIn)
    } else {
        model.insert(addr, uid);
        Ok(())
    }
}

/// What `logout` must answer; unbinds on success.
fn model_logout(model: &mut BTreeMap<u64, u64>, uid: u64) -> Result<(), SessionError> {
    let bound = model.iter().find(|&(_, &u)| u == uid).map(|(&a, _)| a);
    match bound {
        Some(addr) => {
            model.remove(&addr);
            Ok(())
        }
        None => Err(SessionError::NotLoggedIn),
    }
}

/// Sends every address in `addrs` a presence notice (address `i` at
/// cell `i`) and then an absence, flushing each batch, and checks the
/// acks, every user's current cell and the ignored count against the
/// model.
fn check_bindings(
    svc: &ShardedService,
    model: &BTreeMap<u64, u64>,
    addrs: &[u64],
    ts: &mut u64,
    ignored: &mut u64,
) -> Result<(), TestCaseError> {
    let bound: Vec<bool> = addrs.iter().map(|a| model.contains_key(a)).collect();
    for present in [true, false] {
        for (cell, &a) in (0u32..).zip(addrs) {
            *ts += 1;
            svc.ingest(BdAddr::new(a), cell, present, *ts);
        }
        let acks = svc.flush(1);
        prop_assert_eq!(&acks, &bound, "acks (present = {})", present);
        *ignored += bound.iter().filter(|&&b| !b).count() as u64;
        for uid in 0..USERS {
            let expected = match model.iter().find(|&(_, &u)| u == uid) {
                Some((a, _)) if present => addrs.iter().position(|x| x == a).map(|i| i as u32),
                _ => None,
            };
            prop_assert_eq!(
                svc.current_cell(uid),
                expected,
                "user {} (present = {})",
                uid,
                present
            );
        }
    }
    let mut metrics = MetricSet::new();
    svc.export_metrics(&mut metrics);
    prop_assert_eq!(
        metrics.counter_value("core.service.ignored"),
        Some(*ignored)
    );
    Ok(())
}

/// Replays `ops` on an engine with `nshards` shards, checking every
/// answer and, after every op, every binding.
fn replay(starts: &[u64], ops: &[(u8, u64, u64)], nshards: usize) -> Result<(), TestCaseError> {
    let svc = service(nshards);
    let addrs = universe(starts);
    let mut model = BTreeMap::new();
    let (mut ts, mut ignored) = (0u64, 0u64);
    for &(kind, a, b) in ops {
        let addr = addrs[(b % addrs.len() as u64) as usize];
        match kind {
            // Login, sometimes as the unknown user.
            0..=2 => {
                let uid = a % (USERS + 1);
                prop_assert_eq!(
                    svc.login(uid, "pw", BdAddr::new(addr)),
                    model_login(&mut model, uid, addr),
                    "login({}, {:#x})",
                    uid,
                    addr
                );
            }
            // Logout.
            3 => {
                let uid = a % USERS;
                prop_assert_eq!(
                    svc.logout(uid),
                    model_logout(&mut model, uid),
                    "logout({})",
                    uid
                );
            }
            // Re-login: log out, then in again, most often elsewhere.
            4 => {
                let uid = a % USERS;
                prop_assert_eq!(
                    svc.logout(uid),
                    model_logout(&mut model, uid),
                    "re-login: logout({})",
                    uid
                );
                prop_assert_eq!(
                    svc.login(uid, "pw", BdAddr::new(addr)),
                    model_login(&mut model, uid, addr),
                    "re-login: login({}, {:#x})",
                    uid,
                    addr
                );
            }
            // One notice for one address, bound or not.
            _ => check_bindings(&svc, &model, &[addr], &mut ts, &mut ignored)?,
        }
        check_bindings(&svc, &model, &addrs, &mut ts, &mut ignored)?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The address index agrees with the model after every operation,
    /// with one address shard and with sixteen.
    #[test]
    fn address_index_matches_model(
        starts in proptest::collection::vec(any::<u64>(), RUNS..RUNS + 1),
        ops in proptest::collection::vec((0u8..6, any::<u64>(), any::<u64>()), 1..64),
    ) {
        for nshards in [1, 16] {
            replay(&starts, &ops, nshards)?;
        }
    }
}
