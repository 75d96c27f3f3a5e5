//! The BIPS central server.
//!
//! Owns the [`Registry`], the [`LocationDb`] and the shortest-path
//! engine, and turns protocol [`Request`]s into
//! [`Response`]s. The handler is a pure function of server state —
//! no scheduler, no I/O — so it is unit-testable in isolation and the
//! full-system simulation only has to move bytes.

use bt_baseband::BdAddr;
use desim::SimTime;

use crate::graph::{NodeId, PathEngine, PathEngineKind, PathWalkError, WsGraph};
use crate::locationdb::LocationDb;
use crate::protocol::{
    HistoryOutcome, HistoryStep, LocateOutcome, LoginFailure, ProtocolError, Request, Response,
};
use crate::registry::{Registry, RegistryError};

/// The central server: registry + location database + path engine.
#[derive(Debug, Clone)]
pub struct BipsServer {
    registry: Registry,
    db: LocationDb,
    engine: PathEngine,
    /// Incarnation counter: bumped on every [`restart`](BipsServer::restart)
    /// so clients can detect that in-RAM state (sessions, presence) was
    /// lost and must be re-established.
    epoch: u32,
    /// Reused path buffer: locate answers borrow the engine's tables
    /// instead of allocating a fresh `Vec` per query.
    path_scratch: Vec<NodeId>,
}

impl BipsServer {
    /// A server over the given registry and workstation graph, with the
    /// dynamic path engine.
    pub fn new(registry: Registry, graph: &WsGraph) -> BipsServer {
        BipsServer {
            registry,
            db: LocationDb::new(),
            engine: PathEngine::new(PathEngineKind::Dynamic, graph.clone()),
            epoch: 0,
            path_scratch: Vec::new(),
        }
    }

    /// The current incarnation.
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// Simulates a crash + restart: registrations and the (offline)
    /// path table survive on disk; the location database and all login
    /// sessions are RAM and are lost. The epoch bump lets workstations
    /// detect the amnesia and re-announce / re-authenticate.
    pub fn restart(&mut self) {
        self.db = LocationDb::new();
        self.registry.logout_all();
        self.epoch += 1;
    }

    /// The user registry (e.g. to register users before the run).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Mutable registry access.
    pub fn registry_mut(&mut self) -> &mut Registry {
        &mut self.registry
    }

    /// The location database.
    pub fn db(&self) -> &LocationDb {
        &self.db
    }

    /// The path engine.
    pub fn path_engine(&self) -> &PathEngine {
        &self.engine
    }

    /// Mutable path-engine access (topology drivers, tests).
    pub fn path_engine_mut(&mut self) -> &mut PathEngine {
        &mut self.engine
    }

    /// Where a user currently is, by name (for tests and examples).
    pub fn locate_by_name(&self, name: &str) -> Option<usize> {
        let id = self.registry.id_of(name)?;
        let addr = self.registry.addr_of_user(id)?;
        self.db.current_cell(addr)
    }

    /// Handles one LAN request arriving at server time `now`. The
    /// socket-only requests — `WhereIs`, `IngestBatch`, `Flush`,
    /// `Shutdown` and the two topology mutations — get `None`:
    /// [`ShardedService::serve_payload`](crate::service::ShardedService::serve_payload)
    /// answers those.
    pub fn handle(&mut self, req: Request, now: SimTime) -> Option<Response> {
        let resp = match req {
            Request::Presence {
                cell,
                addr,
                present,
            } => {
                let changed = self.db.apply(addr, cell as usize, present, now);
                Response::PresenceAck { changed }
            }
            Request::Heartbeat { .. } => Response::HeartbeatAck,
            Request::PresenceBatch { cell, items } => {
                let mut changed = 0;
                for (addr, present) in items {
                    if self.db.apply(addr, cell as usize, present, now) {
                        changed += 1;
                    }
                }
                Response::PresenceBatchAck { changed }
            }
            Request::Login {
                addr,
                user,
                password,
            } => {
                let result = match self.registry.login(&user, &password, addr) {
                    Ok(_) => Ok(()),
                    Err(RegistryError::NoSuchUser) => Err(LoginFailure::NoSuchUser),
                    Err(RegistryError::BadPassword) => Err(LoginFailure::BadPassword),
                    Err(_) => Err(LoginFailure::SessionConflict),
                };
                Response::LoginResult { result }
            }
            Request::Logout { addr } => {
                let ok = match self.registry.user_of_addr(addr) {
                    Some(id) => {
                        let r = self.registry.logout(id).is_ok();
                        self.db.forget(addr);
                        r
                    }
                    None => false,
                };
                Response::LogoutResult { ok }
            }
            Request::Locate {
                from,
                target,
                from_cell,
            } => Response::LocateResult(self.locate(from, &target, from_cell as usize)),
            Request::History {
                from,
                target,
                from_us,
                to_us,
            } => Response::HistoryResult(self.history(from, &target, from_us, to_us)),
            Request::WhereIs { .. }
            | Request::IngestBatch { .. }
            | Request::Flush
            | Request::Shutdown
            | Request::SetEdgeWeight { .. }
            | Request::SetNodeUp { .. } => return None,
        };
        Some(resp)
    }

    /// The spatio-temporal generalization: the target's presence
    /// transitions within a time window, under the same visibility policy
    /// as a live locate.
    fn history(&self, from: BdAddr, target: &str, from_us: u64, to_us: u64) -> HistoryOutcome {
        let Some(querier) = self.registry.user_of_addr(from) else {
            return HistoryOutcome::QuerierNotLoggedIn;
        };
        let Some(target_id) = self.registry.id_of(target) else {
            return HistoryOutcome::NoSuchUser;
        };
        if !self.registry.may_locate(querier, target_id) {
            return HistoryOutcome::Denied;
        }
        // A target that is not logged in has no bound address; its trace
        // inside the window may still exist if it was logged in then, but
        // the registry only keeps live bindings — served as empty.
        let Some(target_addr) = self.registry.addr_of_user(target_id) else {
            return HistoryOutcome::Trace(Vec::new());
        };
        let steps = self
            .db
            .history_of(
                target_addr,
                SimTime::from_micros(from_us),
                SimTime::from_micros(to_us),
            )
            .into_iter()
            .map(|e| HistoryStep {
                cell: e.cell as u32,
                present: e.present,
                at_us: e.at.as_micros(),
            })
            .collect();
        HistoryOutcome::Trace(steps)
    }

    /// The shortest path between two cells under the current topology,
    /// borrowed from the server's scratch buffer — no per-call
    /// allocation once the buffer (and, for the sparse engine, the
    /// source tree) is warm. `Ok(None)` means the cells are
    /// disconnected.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::CellOutOfRange`] if either endpoint is not a
    /// node of the workstation graph. (The seed implementation silently
    /// served such requests as `OutOfCoverage`; a cell the building does
    /// not have is a malformed request, not an observation about the
    /// target.) [`ProtocolError::PathCorrupt`] if the engine's tables
    /// fail integrity checks mid-walk — reported instead of panicking
    /// on the serving path.
    pub fn shortest_path(
        &mut self,
        from_cell: usize,
        to_cell: usize,
    ) -> Result<Option<(&[NodeId], f64)>, ProtocolError> {
        let n = self.engine.num_nodes();
        for cell in [from_cell, to_cell] {
            if cell >= n {
                return Err(ProtocolError::CellOutOfRange {
                    cell: cell as u32,
                    num_cells: n as u32,
                });
            }
        }
        match self
            .engine
            .query(from_cell, to_cell, &mut self.path_scratch)
        {
            Ok(Some(d)) => Ok(Some((&self.path_scratch, d))),
            Ok(None) => Ok(None),
            Err(PathWalkError::NodeOutOfRange { node, num_nodes }) => {
                Err(ProtocolError::CellOutOfRange {
                    cell: node,
                    num_cells: num_nodes,
                })
            }
            Err(PathWalkError::BrokenPrevChain { from, to }) => {
                Err(ProtocolError::PathCorrupt { from, to })
            }
        }
    }

    /// The paper's query, with its §2 precondition checks: *"BIPS
    /// verifies that the target mobile user is logged in and that the
    /// querying user has the right to formulate this question."*
    fn locate(&mut self, from: BdAddr, target: &str, from_cell: usize) -> LocateOutcome {
        let Some(querier) = self.registry.user_of_addr(from) else {
            return LocateOutcome::QuerierNotLoggedIn;
        };
        let Some(target_id) = self.registry.id_of(target) else {
            return LocateOutcome::NoSuchUser;
        };
        if !self.registry.may_locate(querier, target_id) {
            return LocateOutcome::Denied;
        }
        let Some(target_addr) = self.registry.addr_of_user(target_id) else {
            return LocateOutcome::NotLoggedIn;
        };
        let Some(cell) = self.db.current_cell(target_addr) else {
            return LocateOutcome::OutOfCoverage;
        };
        if cell >= self.engine.num_nodes() {
            // The *target* sits in a cell beyond the navigable graph (a
            // workstation the map does not know): served as out of
            // coverage, exactly like the seed.
            return LocateOutcome::OutOfCoverage;
        }
        match self.shortest_path(from_cell, cell) {
            Err(e) => LocateOutcome::BadQuery(e),
            Ok(Some((path, distance))) => LocateOutcome::Found {
                cell: cell as u32,
                path: path.iter().map(|&n| n as u32).collect(),
                distance,
            },
            Ok(None) => LocateOutcome::OutOfCoverage,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::AccessRights;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    /// Line graph 0 – 1 – 2 with 10 m edges.
    fn server() -> BipsServer {
        let mut g = WsGraph::new(3);
        g.add_edge(0, 1, 10.0);
        g.add_edge(1, 2, 10.0);
        let mut reg = Registry::new();
        reg.register("alice", "pa", AccessRights::open()).unwrap();
        reg.register("bob", "pb", AccessRights::open()).unwrap();
        reg.register("ghost", "pg", AccessRights::invisible())
            .unwrap();
        BipsServer::new(reg, &g)
    }

    const A: BdAddr = BdAddr::new(0xA);
    const B: BdAddr = BdAddr::new(0xB);

    /// [`BipsServer::handle`] for a request the LAN server answers.
    pub(super) fn ask(s: &mut BipsServer, req: Request, now: SimTime) -> Response {
        s.handle(req, now).expect("a LAN request")
    }

    fn login(s: &mut BipsServer, user: &str, pw: &str, addr: BdAddr) -> Response {
        ask(
            s,
            Request::Login {
                addr,
                user: user.into(),
                password: pw.into(),
            },
            t(0),
        )
    }

    #[test]
    fn full_query_flow() {
        let mut s = server();
        assert_eq!(
            login(&mut s, "alice", "pa", A),
            Response::LoginResult { result: Ok(()) }
        );
        assert_eq!(
            login(&mut s, "bob", "pb", B),
            Response::LoginResult { result: Ok(()) }
        );
        // bob is seen in cell 2; alice queries from cell 0.
        ask(
            &mut s,
            Request::Presence {
                cell: 2,
                addr: B,
                present: true,
            },
            t(1),
        );
        let resp = ask(
            &mut s,
            Request::Locate {
                from: A,
                target: "bob".into(),
                from_cell: 0,
            },
            t(2),
        );
        assert_eq!(
            resp,
            Response::LocateResult(LocateOutcome::Found {
                cell: 2,
                path: vec![0, 1, 2],
                distance: 20.0,
            })
        );
        assert_eq!(s.locate_by_name("bob"), Some(2));
    }

    #[test]
    fn precondition_checks_in_order() {
        let mut s = server();
        // Querier not logged in.
        let r = ask(
            &mut s,
            Request::Locate {
                from: A,
                target: "bob".into(),
                from_cell: 0,
            },
            t(0),
        );
        assert_eq!(r, Response::LocateResult(LocateOutcome::QuerierNotLoggedIn));
        login(&mut s, "alice", "pa", A);
        // Unknown target.
        let r = ask(
            &mut s,
            Request::Locate {
                from: A,
                target: "nobody".into(),
                from_cell: 0,
            },
            t(0),
        );
        assert_eq!(r, Response::LocateResult(LocateOutcome::NoSuchUser));
        // Invisible target → denied.
        let r = ask(
            &mut s,
            Request::Locate {
                from: A,
                target: "ghost".into(),
                from_cell: 0,
            },
            t(0),
        );
        assert_eq!(r, Response::LocateResult(LocateOutcome::Denied));
        // Known, visible, but not logged in.
        let r = ask(
            &mut s,
            Request::Locate {
                from: A,
                target: "bob".into(),
                from_cell: 0,
            },
            t(0),
        );
        assert_eq!(r, Response::LocateResult(LocateOutcome::NotLoggedIn));
        // Logged in but never seen by any cell.
        login(&mut s, "bob", "pb", B);
        let r = ask(
            &mut s,
            Request::Locate {
                from: A,
                target: "bob".into(),
                from_cell: 0,
            },
            t(0),
        );
        assert_eq!(r, Response::LocateResult(LocateOutcome::OutOfCoverage));
    }

    #[test]
    fn login_failures_map_to_protocol() {
        let mut s = server();
        assert_eq!(
            login(&mut s, "zz", "x", A),
            Response::LoginResult {
                result: Err(LoginFailure::NoSuchUser)
            }
        );
        assert_eq!(
            login(&mut s, "alice", "wrong", A),
            Response::LoginResult {
                result: Err(LoginFailure::BadPassword)
            }
        );
        login(&mut s, "alice", "pa", A);
        assert_eq!(
            login(&mut s, "bob", "pb", A),
            Response::LoginResult {
                result: Err(LoginFailure::SessionConflict)
            }
        );
    }

    #[test]
    fn logout_clears_session_and_location() {
        let mut s = server();
        login(&mut s, "alice", "pa", A);
        ask(
            &mut s,
            Request::Presence {
                cell: 1,
                addr: A,
                present: true,
            },
            t(1),
        );
        assert_eq!(s.locate_by_name("alice"), Some(1));
        let r = ask(&mut s, Request::Logout { addr: A }, t(2));
        assert_eq!(r, Response::LogoutResult { ok: true });
        assert_eq!(s.locate_by_name("alice"), None);
        let r = ask(&mut s, Request::Logout { addr: A }, t(3));
        assert_eq!(r, Response::LogoutResult { ok: false });
    }

    #[test]
    fn presence_ack_reports_change() {
        let mut s = server();
        let r1 = ask(
            &mut s,
            Request::Presence {
                cell: 0,
                addr: A,
                present: true,
            },
            t(0),
        );
        let r2 = ask(
            &mut s,
            Request::Presence {
                cell: 0,
                addr: A,
                present: true,
            },
            t(1),
        );
        assert_eq!(r1, Response::PresenceAck { changed: true });
        assert_eq!(r2, Response::PresenceAck { changed: false });
    }

    #[test]
    fn out_of_range_from_cell_is_a_typed_error() {
        let mut s = server();
        login(&mut s, "alice", "pa", A);
        login(&mut s, "bob", "pb", B);
        ask(
            &mut s,
            Request::Presence {
                cell: 2,
                addr: B,
                present: true,
            },
            t(1),
        );
        // The graph has 3 nodes; a query "from cell 7" is malformed and
        // must be reported as such, not silently clamped to coverage.
        let r = ask(
            &mut s,
            Request::Locate {
                from: A,
                target: "bob".into(),
                from_cell: 7,
            },
            t(2),
        );
        assert_eq!(
            r,
            Response::LocateResult(LocateOutcome::BadQuery(ProtocolError::CellOutOfRange {
                cell: 7,
                num_cells: 3,
            }))
        );
        // A *target* beyond the graph is still out of coverage (it is an
        // observation about the target, not about the request).
        ask(
            &mut s,
            Request::Presence {
                cell: 9,
                addr: B,
                present: true,
            },
            t(3),
        );
        let r = ask(
            &mut s,
            Request::Locate {
                from: A,
                target: "bob".into(),
                from_cell: 0,
            },
            t(4),
        );
        assert_eq!(r, Response::LocateResult(LocateOutcome::OutOfCoverage));
    }

    #[test]
    fn shortest_path_is_bounds_checked_and_allocation_free() {
        let mut s = server();
        assert_eq!(
            s.shortest_path(0, 7),
            Err(ProtocolError::CellOutOfRange {
                cell: 7,
                num_cells: 3,
            })
        );
        assert_eq!(
            s.shortest_path(4, 0),
            Err(ProtocolError::CellOutOfRange {
                cell: 4,
                num_cells: 3,
            })
        );
        let (path, d) = s.shortest_path(0, 2).unwrap().unwrap();
        assert_eq!(path, &[0, 1, 2]);
        assert_eq!(d, 20.0);
        // The scratch buffer is reused between calls.
        let (path, d) = s.shortest_path(2, 2).unwrap().unwrap();
        assert_eq!(path, &[2]);
        assert_eq!(d, 0.0);
    }

    #[test]
    fn topology_mutations_reroute_locates() {
        let mut s = server();
        login(&mut s, "alice", "pa", A);
        login(&mut s, "bob", "pb", B);
        ask(
            &mut s,
            Request::Presence {
                cell: 2,
                addr: B,
                present: true,
            },
            t(1),
        );
        // A new 0–2 shortcut beats the 0–1–2 corridor.
        assert_eq!(s.path_engine_mut().set_edge_weight(0, 2, 5.0), Ok(true));
        let r = ask(
            &mut s,
            Request::Locate {
                from: A,
                target: "bob".into(),
                from_cell: 0,
            },
            t(3),
        );
        assert_eq!(
            r,
            Response::LocateResult(LocateOutcome::Found {
                cell: 2,
                path: vec![0, 2],
                distance: 5.0,
            })
        );
        // Taking cell 1's workstation down leaves the shortcut.
        assert_eq!(s.path_engine_mut().set_node_up(1, false), Ok(true));
        assert_eq!(
            s.shortest_path(0, 2).unwrap().map(|(p, d)| (p.to_vec(), d)),
            Some((vec![0, 2], 5.0))
        );
    }

    #[test]
    fn same_cell_query_is_trivial_path() {
        let mut s = server();
        login(&mut s, "alice", "pa", A);
        login(&mut s, "bob", "pb", B);
        ask(
            &mut s,
            Request::Presence {
                cell: 1,
                addr: B,
                present: true,
            },
            t(0),
        );
        let r = ask(
            &mut s,
            Request::Locate {
                from: A,
                target: "bob".into(),
                from_cell: 1,
            },
            t(1),
        );
        assert_eq!(
            r,
            Response::LocateResult(LocateOutcome::Found {
                cell: 1,
                path: vec![1],
                distance: 0.0,
            })
        );
    }
}

#[cfg(test)]
mod history_tests {
    use super::tests::ask;
    use super::*;
    use crate::protocol::{HistoryOutcome, HistoryStep};
    use crate::registry::AccessRights;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn server() -> BipsServer {
        let mut g = WsGraph::new(3);
        g.add_edge(0, 1, 10.0);
        g.add_edge(1, 2, 10.0);
        let mut reg = Registry::new();
        reg.register("alice", "pa", AccessRights::open()).unwrap();
        reg.register("bob", "pb", AccessRights::open()).unwrap();
        reg.register("ghost", "pg", AccessRights::invisible())
            .unwrap();
        BipsServer::new(reg, &g)
    }

    const A: BdAddr = BdAddr::new(0xA);
    const B: BdAddr = BdAddr::new(0xB);

    fn presence(s: &mut BipsServer, addr: BdAddr, cell: u32, present: bool, at: u64) {
        ask(
            s,
            Request::Presence {
                cell,
                addr,
                present,
            },
            t(at),
        );
    }

    #[test]
    fn history_traces_movement_within_window() {
        let mut s = server();
        ask(
            &mut s,
            Request::Login {
                addr: A,
                user: "alice".into(),
                password: "pa".into(),
            },
            t(0),
        );
        ask(
            &mut s,
            Request::Login {
                addr: B,
                user: "bob".into(),
                password: "pb".into(),
            },
            t(0),
        );
        presence(&mut s, B, 0, true, 10);
        presence(&mut s, B, 0, false, 30);
        presence(&mut s, B, 1, true, 31);
        presence(&mut s, B, 2, true, 60);
        let resp = ask(
            &mut s,
            Request::History {
                from: A,
                target: "bob".into(),
                from_us: t(20).as_micros(),
                to_us: t(40).as_micros(),
            },
            t(100),
        );
        let Response::HistoryResult(HistoryOutcome::Trace(steps)) = resp else {
            panic!("{resp:?}");
        };
        assert_eq!(
            steps,
            vec![
                HistoryStep {
                    cell: 0,
                    present: false,
                    at_us: t(30).as_micros()
                },
                HistoryStep {
                    cell: 1,
                    present: true,
                    at_us: t(31).as_micros()
                },
            ]
        );
    }

    #[test]
    fn history_respects_visibility_and_sessions() {
        let mut s = server();
        // Querier not logged in.
        let r = ask(
            &mut s,
            Request::History {
                from: A,
                target: "bob".into(),
                from_us: 0,
                to_us: 1,
            },
            t(0),
        );
        assert_eq!(
            r,
            Response::HistoryResult(HistoryOutcome::QuerierNotLoggedIn)
        );
        ask(
            &mut s,
            Request::Login {
                addr: A,
                user: "alice".into(),
                password: "pa".into(),
            },
            t(0),
        );
        // Invisible target.
        let r = ask(
            &mut s,
            Request::History {
                from: A,
                target: "ghost".into(),
                from_us: 0,
                to_us: 1,
            },
            t(0),
        );
        assert_eq!(r, Response::HistoryResult(HistoryOutcome::Denied));
        // Unknown target.
        let r = ask(
            &mut s,
            Request::History {
                from: A,
                target: "nope".into(),
                from_us: 0,
                to_us: 1,
            },
            t(0),
        );
        assert_eq!(r, Response::HistoryResult(HistoryOutcome::NoSuchUser));
        // Known but logged out: empty trace.
        let r = ask(
            &mut s,
            Request::History {
                from: A,
                target: "bob".into(),
                from_us: 0,
                to_us: u64::MAX,
            },
            t(0),
        );
        assert_eq!(r, Response::HistoryResult(HistoryOutcome::Trace(vec![])));
    }
}
