//! Differential suite: the sharded serving engine
//! ([`bips_core::service::ShardedService`]) must agree, answer for
//! answer and bit for bit, with the single-threaded seed server
//! ([`bips_core::BipsServer`]) under randomized interleavings of
//! session changes, presence traffic, batch flushes and queries — for
//! every worker count.
//!
//! Harness rules that keep the two models comparable:
//!
//! * Every user has a fixed, never-reused device address (`1000 + uid`),
//!   so address→user resolution is time-invariant.
//! * Presence is generated only for logged-in users (the engine tracks
//!   enrolled devices only; the seed database would happily track
//!   strangers).
//! * Presence buffers on both sides and applies at flush points; a
//!   flush is forced before any login/logout (so session changes never
//!   straddle a pending batch) and before every query.
//! * Timestamps strictly increase per op, so the seed's
//!   `max_by_key`-over-`HashMap` latest-claim fallback has a unique
//!   maximum and is deterministic.

use bips_core::graph::WsGraph;
use bips_core::protocol::{LocateOutcome, LoginFailure, Request, Response};
use bips_core::registry::{AccessRights, Registry, Visibility};
use bips_core::service::{ReadPath, SessionError, ShardedService, WhereIs};
use bips_core::BipsServer;
use bt_baseband::BdAddr;
use desim::SimTime;
use proptest::prelude::*;

/// Registered users. Ops may reference ids beyond this (unknown users).
const USERS: u64 = 12;
/// Graph cells. Presence ops may claim cells beyond this (out of
/// coverage but still tracked by the database).
const CELLS: usize = 8;

fn addr(uid: u64) -> BdAddr {
    BdAddr::new(1000 + uid)
}

fn registry() -> Registry {
    let mut reg = Registry::new();
    for i in 0..USERS {
        let rights = match i {
            0 => AccessRights::invisible(),
            1 => AccessRights {
                may_query: true,
                visibility: Visibility::Nobody,
            },
            2 => AccessRights {
                may_query: false,
                visibility: Visibility::Everyone,
            },
            _ => AccessRights::open(),
        };
        reg.register(&format!("user{i}"), &format!("pw{i}"), rights)
            .unwrap();
    }
    // User 3 is visible only to users 4 and 5.
    let mut reg2 = Registry::new();
    for i in 0..USERS {
        let rights = match i {
            0 => AccessRights::invisible(),
            2 => AccessRights {
                may_query: false,
                visibility: Visibility::Everyone,
            },
            3 => AccessRights {
                may_query: true,
                visibility: Visibility::Only(vec![
                    reg.id_of("user4").unwrap(),
                    reg.id_of("user5").unwrap(),
                ]),
            },
            _ => AccessRights::open(),
        };
        reg2.register(&format!("user{i}"), &format!("pw{i}"), rights)
            .unwrap();
    }
    reg2
}

fn graph() -> WsGraph {
    let mut g = WsGraph::new(CELLS);
    for i in 0..CELLS - 1 {
        g.add_edge(i, i + 1, 10.0);
    }
    // Cell 7 is deliberately disconnected from the line 0..=6.
    g
}

/// Maps a seed login response onto the engine's error space (the wire
/// protocol collapses both session conflicts into one failure).
fn seed_login_class(resp: &Response) -> u8 {
    match resp {
        Response::LoginResult { result: Ok(()) } => 0,
        Response::LoginResult {
            result: Err(LoginFailure::NoSuchUser),
        } => 1,
        Response::LoginResult {
            result: Err(LoginFailure::BadPassword),
        } => 2,
        Response::LoginResult {
            result: Err(LoginFailure::SessionConflict),
        } => 3,
        other => panic!("unexpected login response {other:?}"),
    }
}

fn engine_login_class(res: Result<(), SessionError>) -> u8 {
    match res {
        Ok(()) => 0,
        Err(SessionError::NoSuchUser) => 1,
        Err(SessionError::BadPassword) => 2,
        Err(SessionError::AddressInUse) | Err(SessionError::AlreadyLoggedIn) => 3,
        Err(SessionError::NotLoggedIn) => panic!("login cannot report NotLoggedIn"),
    }
}

/// Replays one op trace against both models with the given flush
/// parallelism and slot-read protocol, asserting equivalence at every
/// observable point.
fn replay(ops: &[(u8, u64, u64, u64)], jobs: usize, path: ReadPath) -> Result<(), TestCaseError> {
    let reg = registry();
    let g = graph();
    let engine = ShardedService::new_with_read_path(&reg, g.precompute_all_pairs(), 4, path);
    let mut seed = BipsServer::new(reg, &g);

    // Presence buffered for the seed side, applied at flush points in
    // ingest order: (addr, cell, present, ts).
    let mut seed_pending: Vec<(BdAddr, u32, bool, u64)> = Vec::new();
    let mut ts: u64 = 0;
    let mut path = Vec::new();

    macro_rules! flush_both {
        () => {{
            let engine_acks = engine.flush(jobs);
            let mut seed_acks = Vec::with_capacity(seed_pending.len());
            for (a, cell, present, at) in seed_pending.drain(..) {
                let r = seed.handle(
                    Request::Presence {
                        cell,
                        addr: a,
                        present,
                    },
                    SimTime::from_micros(at),
                );
                match r {
                    Some(Response::PresenceAck { changed }) => seed_acks.push(changed),
                    other => panic!("unexpected presence response {other:?}"),
                }
            }
            prop_assert_eq!(&engine_acks, &seed_acks, "flush acks diverged");
        }};
    }

    for &(kind, a, b, c) in ops {
        ts += 1;
        match kind {
            // Login (sometimes unknown user, sometimes wrong password).
            0 => {
                flush_both!();
                let uid = a % (USERS + 2);
                let pw = if b % 4 == 0 {
                    "wrong".to_string()
                } else {
                    format!("pw{uid}")
                };
                let seed_resp = seed.handle(
                    Request::Login {
                        addr: addr(uid),
                        user: format!("user{uid}"),
                        password: pw.clone(),
                    },
                    SimTime::from_micros(ts),
                );
                prop_assert_eq!(
                    engine_login_class(engine.login(uid, &pw, addr(uid))),
                    seed_login_class(seed_resp.as_ref().expect("login answered")),
                    "login({}) diverged",
                    uid
                );
            }
            // Logout.
            1 => {
                flush_both!();
                let uid = a % USERS;
                let seed_resp = seed.handle(
                    Request::Logout { addr: addr(uid) },
                    SimTime::from_micros(ts),
                );
                let seed_ok = matches!(seed_resp, Some(Response::LogoutResult { ok: true }));
                prop_assert_eq!(
                    engine.logout(uid).is_ok(),
                    seed_ok,
                    "logout({}) diverged",
                    uid
                );
            }
            // Presence / absence, only for logged-in users (cells may
            // exceed the graph: tracked but out of coverage).
            2 | 3 => {
                let uid = a % USERS;
                if engine.is_logged_in(uid) {
                    let cell = (b % (CELLS as u64 + 2)) as u32;
                    let present = kind == 2;
                    engine.ingest(addr(uid), cell, present, ts);
                    seed_pending.push((addr(uid), cell, present, ts));
                }
            }
            // Explicit flush.
            4 => flush_both!(),
            // Query (flushes first: queries observe tick boundaries).
            _ => {
                flush_both!();
                let querier = a % USERS;
                let target = b % (USERS + 3);
                let from_cell = (c % (CELLS as u64 + 2)) as usize;
                let seed_resp = seed.handle(
                    Request::Locate {
                        from: addr(querier),
                        target: format!("user{target}"),
                        from_cell: from_cell as u32,
                    },
                    SimTime::from_micros(ts),
                );
                let Some(Response::LocateResult(seed_out)) = seed_resp else {
                    panic!("unexpected locate response");
                };
                let engine_out = engine.where_is(querier, target, from_cell, &mut path);
                match (&seed_out, &engine_out) {
                    (
                        LocateOutcome::Found {
                            cell,
                            path: seed_path,
                            distance,
                        },
                        WhereIs::Found {
                            cell: e_cell,
                            distance: e_distance,
                        },
                    ) => {
                        prop_assert_eq!(cell, e_cell);
                        // Both answers read the same APSP table; the
                        // distances must be bit-identical.
                        prop_assert_eq!(distance.to_bits(), e_distance.to_bits());
                        let e_path: Vec<u32> = path.iter().map(|&n| n as u32).collect();
                        prop_assert_eq!(seed_path, &e_path);
                    }
                    (LocateOutcome::NotLoggedIn, WhereIs::NotLoggedIn)
                    | (LocateOutcome::OutOfCoverage, WhereIs::OutOfCoverage)
                    | (LocateOutcome::NoSuchUser, WhereIs::NoSuchUser)
                    | (LocateOutcome::Denied, WhereIs::Denied)
                    | (LocateOutcome::QuerierNotLoggedIn, WhereIs::QuerierNotLoggedIn) => {}
                    (LocateOutcome::BadQuery(s), WhereIs::BadQuery(e)) => {
                        prop_assert_eq!(s, e);
                    }
                    (s, e) => {
                        return Err(TestCaseError::fail(format!(
                            "query({querier},{target},{from_cell}) diverged: seed {s:?} vs engine {e:?}"
                        )));
                    }
                }
            }
        }
    }

    // Final state: flush everything and compare each user's session and
    // presence between the two models.
    flush_both!();
    for uid in 0..USERS {
        let id = seed.registry().id_of(&format!("user{uid}")).unwrap();
        let seed_logged_in = seed.registry().addr_of_user(id).is_some();
        prop_assert_eq!(
            engine.is_logged_in(uid),
            seed_logged_in,
            "session({}) diverged",
            uid
        );
        let seed_cell = seed.db().current_cell(addr(uid));
        prop_assert_eq!(
            engine.current_cell(uid),
            seed_cell.map(|c| c as u32),
            "current_cell({}) diverged",
            uid
        );
        let seed_cells: Vec<u32> = seed
            .db()
            .cells_of(addr(uid))
            .into_iter()
            .map(|c| c as u32)
            .collect();
        prop_assert_eq!(
            engine.cells_of(uid),
            seed_cells,
            "cells_of({}) diverged",
            uid
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The sharded engine and the seed server agree on every ack, every
    /// query answer (including path bytes and distance bits) and the
    /// final database state, for 1, 4 and 8 flush workers — on both the
    /// seqlock and the legacy locked read path. Since both paths are
    /// checked against the same seed replay, this simultaneously proves
    /// them bit-identical to each other.
    #[test]
    fn sharded_engine_matches_seed_server(
        ops in proptest::collection::vec(
            (0u8..6, any::<u64>(), any::<u64>(), any::<u64>()),
            1..120,
        )
    ) {
        for read_path in [ReadPath::Seqlock, ReadPath::Locked] {
            for jobs in [1usize, 4, 8] {
                replay(&ops, jobs, read_path)?;
            }
        }
    }
}
