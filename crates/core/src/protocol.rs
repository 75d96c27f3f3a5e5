//! The BIPS workstation ↔ server protocol.
//!
//! Three interactions cross the LAN (paper §2):
//!
//! 1. **Presence updates** — a workstation announces a new presence or a
//!    new absence in its cell (update-on-change);
//! 2. **Login** — a workstation relays a handheld's credentials so the
//!    server can bind `userid ↔ BD_ADDR`;
//! 3. **Location queries** — *"select the target actual piconet of the
//!    mobile device BD_ADDR1 where BD_ADDR1 is associated with userid1
//!    and userid1 is associated with the given user name"*, answered
//!    with the target cell and the precomputed shortest path.
//!
//! All requests are encoded with [`wire`](crate::wire) and carried as
//! RPC payloads over the reliable transport.

use bt_baseband::BdAddr;

use crate::wire::{DecodeError, Reader, Writer};

/// A request sent by a workstation to the central server.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Update-on-change presence report for this workstation's cell.
    Presence {
        /// Reporting cell (graph node index).
        cell: u32,
        /// The observed device.
        addr: BdAddr,
        /// New presence (`true`) or new absence (`false`).
        present: bool,
    },
    /// Relayed login attempt from a handheld in this cell.
    Login {
        /// The device logging in.
        addr: BdAddr,
        /// Claimed user name.
        user: String,
        /// Password.
        password: String,
    },
    /// Relayed logout.
    Logout {
        /// The device logging out.
        addr: BdAddr,
    },
    /// Location query issued by the user on device `from`.
    Locate {
        /// Querying device (identifies the querying user).
        from: BdAddr,
        /// Target user name.
        target: String,
        /// Cell of the querying device, for path computation.
        from_cell: u32,
    },
    /// A whole sweep's presence changes in one message (batching
    /// amortizes LAN/RPC overhead when several devices change at once).
    PresenceBatch {
        /// Reporting cell.
        cell: u32,
        /// `(device, present)` changes observed this sweep.
        items: Vec<(BdAddr, bool)>,
    },
    /// Idle-sweep keepalive: lets the server detect dead workstations and
    /// lets workstations observe the server's incarnation even when no
    /// presence changed (restart detection has bounded delay).
    Heartbeat {
        /// Reporting cell.
        cell: u32,
    },
    /// A gateway-coalesced batch of presence changes spanning several
    /// cells: the fan-in layer buffers every workstation's
    /// update-on-change notices for one tick and forwards them to the
    /// server in a single message, amortizing one RPC over the whole
    /// tick.
    NotifyBatch {
        /// Presence changes in arrival order.
        items: Vec<Notice>,
    },
    /// Uid-based location query on the socket serving path: the client
    /// already holds dense user ids (it logged the users in), so the
    /// query skips the name lookup and maps 1:1 onto
    /// [`ShardedService::where_is`](crate::service::ShardedService::where_is).
    /// Answered with [`Response::LocateResult`].
    WhereIs {
        /// Querying user id.
        querier: u64,
        /// Target user id.
        target: u64,
        /// Cell of the querier, for path computation.
        from_cell: u32,
    },
    /// A batch of presence notices for the sharded engine's ingest
    /// queue. Notice `i` is stamped `base_us + i`, so one message
    /// carries a strictly increasing slice of the sender's clock and
    /// ingest order over the socket reproduces in-process order.
    /// Answered with [`Response::IngestAck`]; nothing is visible to
    /// queries until a [`Request::Flush`].
    IngestBatch {
        /// Timestamp of the first notice, microseconds.
        base_us: u64,
        /// Presence notices in ingest order.
        items: Vec<Notice>,
    },
    /// Applies everything ingested since the previous flush. Answered
    /// with [`Response::FlushAck`] carrying the per-notice acks in
    /// global ingest order.
    Flush,
    /// Graceful-shutdown request: the server answers
    /// [`Response::ShutdownAck`], finishes in-flight work and stops
    /// accepting new connections.
    Shutdown,
    /// Topology mutation: set (or insert) the congestion weight of the
    /// corridor between cells `a` and `b`. Lets a churn driver exercise
    /// the dynamic path engine over the socket path; answered with
    /// [`Response::TopologyAck`].
    SetEdgeWeight {
        /// One corridor endpoint (graph node index).
        a: u32,
        /// The other endpoint.
        b: u32,
        /// New positive, finite walking weight in meters.
        weight: f64,
    },
    /// Topology mutation: take the workstation of cell `node` down
    /// (`up == false`, severing its corridors) or bring it back up
    /// (restoring them). Answered with [`Response::TopologyAck`].
    SetNodeUp {
        /// The cell whose workstation flaps.
        node: u32,
        /// `true` to restore, `false` to sever.
        up: bool,
    },
    /// Spatio-temporal history query: where was `target` between two
    /// instants? (The paper's current-piconet query is the degenerate
    /// `[now, now]` case; this is the generalization its "spatio-temporal
    /// query" phrasing suggests.)
    History {
        /// Querying device.
        from: BdAddr,
        /// Target user name.
        target: String,
        /// Window start, microseconds of simulation time.
        from_us: u64,
        /// Window end, microseconds of simulation time.
        to_us: u64,
    },
}

/// The server's answer.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Presence recorded (acknowledgment for the reliable-update
    /// accounting).
    PresenceAck {
        /// Whether the update changed server state.
        changed: bool,
    },
    /// Login verdict.
    LoginResult {
        /// `Ok` or the failure reason.
        result: Result<(), LoginFailure>,
    },
    /// Logout verdict.
    LogoutResult {
        /// Whether a session existed.
        ok: bool,
    },
    /// Query verdict.
    LocateResult(LocateOutcome),
    /// History verdict.
    HistoryResult(HistoryOutcome),
    /// Batch acknowledgment: how many items changed server state.
    PresenceBatchAck {
        /// Number of items that were not redundant.
        changed: u32,
    },
    /// Heartbeat acknowledgment.
    HeartbeatAck,
    /// Gateway-batch acknowledgment: how many items changed server
    /// state.
    NotifyBatchAck {
        /// Number of items that were not redundant.
        changed: u32,
    },
    /// [`Request::IngestBatch`] acknowledgment: the batch is queued.
    IngestAck {
        /// Number of notices queued (the whole batch; unbound addresses
        /// still occupy ack positions and ack `false` at flush).
        queued: u32,
    },
    /// [`Request::Flush`] acknowledgment: one "changed state" bit per
    /// notice flushed, in global ingest order — bit-identical to what
    /// [`ShardedService::flush`](crate::service::ShardedService::flush)
    /// returns in process. Encoded bit-packed (8 acks per byte).
    FlushAck {
        /// Per-notice acks, index = ingest order since the last flush.
        acks: Vec<bool>,
    },
    /// [`Request::Shutdown`] acknowledgment, sent before the server
    /// drains and exits.
    ShutdownAck,
    /// [`Request::SetEdgeWeight`] / [`Request::SetNodeUp`]
    /// acknowledgment: whether the mutation changed topology state, and
    /// the path engine's mutation epoch afterwards (a no-op leaves the
    /// epoch unchanged, so clients can correlate answers with topology
    /// versions).
    TopologyAck {
        /// `true` iff the mutation changed state.
        applied: bool,
        /// The engine's mutation epoch after the request.
        epoch: u64,
    },
}

/// One update-on-change presence notice inside a gateway batch
/// ([`Request::NotifyBatch`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Notice {
    /// The cell reporting the change (graph node index).
    pub cell: u32,
    /// The observed device.
    pub addr: BdAddr,
    /// New presence (`true`) or new absence (`false`).
    pub present: bool,
}

/// A malformed-but-decodable request: the wire format was valid, yet a
/// field refers to something that does not exist. Reported explicitly
/// instead of being silently served as a degenerate answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtocolError {
    /// A cell index beyond the workstation graph.
    CellOutOfRange {
        /// The offending cell index.
        cell: u32,
        /// Number of cells the graph actually has.
        num_cells: u32,
    },
    /// The shortest-path table failed integrity checks while walking
    /// the path `from → to`: the prev chain stopped early, cycled, or
    /// walked out of range. The server dumps its flight recorder and
    /// reports the query as bad instead of panicking mid-serve.
    PathCorrupt {
        /// The walk's source cell.
        from: u32,
        /// The walk's destination cell.
        to: u32,
    },
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::CellOutOfRange { cell, num_cells } => {
                write!(f, "cell {cell} out of range (graph has {num_cells} cells)")
            }
            ProtocolError::PathCorrupt { from, to } => {
                write!(f, "path table corrupt walking {from} -> {to}")
            }
        }
    }
}

impl std::error::Error for ProtocolError {}

/// Why a login was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoginFailure {
    /// Unknown user name.
    NoSuchUser,
    /// Wrong password.
    BadPassword,
    /// Device already bound or user logged in elsewhere.
    SessionConflict,
}

/// The outcome of a location query.
#[derive(Debug, Clone, PartialEq)]
pub enum LocateOutcome {
    /// Target found: its current cell and the shortest path from the
    /// querier's cell (inclusive on both ends), with walking distance in
    /// meters.
    Found {
        /// Target's current cell.
        cell: u32,
        /// Cells along the shortest path, querier first.
        path: Vec<u32>,
        /// Total walking distance, meters.
        distance: f64,
    },
    /// Target user exists but is not logged in.
    NotLoggedIn,
    /// Target is logged in but currently in no cell (out of coverage).
    OutOfCoverage,
    /// No user with that name.
    NoSuchUser,
    /// The querier lacks the right to locate the target.
    Denied,
    /// The querying device is not logged in.
    QuerierNotLoggedIn,
    /// The request was well-formed on the wire but referred to something
    /// that does not exist (e.g. a `from_cell` beyond the graph).
    BadQuery(ProtocolError),
}

/// One step of a movement history.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistoryStep {
    /// The cell reporting the transition.
    pub cell: u32,
    /// Presence (`true`) or absence (`false`).
    pub present: bool,
    /// Server time of the transition, microseconds.
    pub at_us: u64,
}

/// The outcome of a history query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HistoryOutcome {
    /// The target's presence transitions inside the window, oldest first.
    Trace(Vec<HistoryStep>),
    /// The querier lacks the right to trace the target (same policy as
    /// locating them).
    Denied,
    /// No user with that name.
    NoSuchUser,
    /// The querying device is not logged in.
    QuerierNotLoggedIn,
}

const TAG_PRESENCE: u8 = 1;
const TAG_LOGIN: u8 = 2;
const TAG_LOGOUT: u8 = 3;
const TAG_LOCATE: u8 = 4;
const TAG_HISTORY: u8 = 5;
const TAG_PRESENCE_BATCH: u8 = 6;
const TAG_HEARTBEAT: u8 = 7;
const TAG_NOTIFY_BATCH: u8 = 8;
pub(crate) const TAG_WHERE_IS: u8 = 9;
const TAG_INGEST_BATCH: u8 = 10;
const TAG_FLUSH: u8 = 11;
const TAG_SHUTDOWN: u8 = 12;
pub(crate) const TAG_SET_EDGE_WEIGHT: u8 = 13;
pub(crate) const TAG_SET_NODE_UP: u8 = 14;

const TAG_PRESENCE_ACK: u8 = 101;
const TAG_LOGIN_RESULT: u8 = 102;
const TAG_LOGOUT_RESULT: u8 = 103;
pub(crate) const TAG_LOCATE_RESULT: u8 = 104;
const TAG_HISTORY_RESULT: u8 = 105;
const TAG_PRESENCE_BATCH_ACK: u8 = 106;
const TAG_HEARTBEAT_ACK: u8 = 107;
const TAG_NOTIFY_BATCH_ACK: u8 = 108;
const TAG_INGEST_ACK: u8 = 109;
const TAG_FLUSH_ACK: u8 = 110;
const TAG_SHUTDOWN_ACK: u8 = 111;
const TAG_TOPOLOGY_ACK: u8 = 112;

/// Upper bound on acks in one [`Response::FlushAck`] (bit-packed, the
/// packed bytes must fit a wire field): `MAX_FIELD_LEN * 8`.
pub const MAX_FLUSH_ACKS: usize = crate::wire::MAX_FIELD_LEN * 8;

const HISTORY_OK: u8 = 0;
const HISTORY_DENIED: u8 = 1;
const HISTORY_NO_USER: u8 = 2;
const HISTORY_NOT_LOGGED_IN: u8 = 3;

pub(crate) const OUTCOME_FOUND: u8 = 0;
pub(crate) const OUTCOME_NOT_LOGGED_IN: u8 = 1;
pub(crate) const OUTCOME_OUT_OF_COVERAGE: u8 = 2;
pub(crate) const OUTCOME_NO_SUCH_USER: u8 = 3;
pub(crate) const OUTCOME_DENIED: u8 = 4;
pub(crate) const OUTCOME_QUERIER_NOT_LOGGED_IN: u8 = 5;
pub(crate) const OUTCOME_BAD_QUERY: u8 = 6;

pub(crate) const PROTO_ERR_CELL_OUT_OF_RANGE: u8 = 0;
pub(crate) const PROTO_ERR_PATH_CORRUPT: u8 = 1;

/// Encoded size of one [`Notice`]: cell u32 + addr u64 + present u8.
const NOTICE_WIRE_LEN: usize = 13;

const LOGIN_OK: u8 = 0;
const LOGIN_NO_USER: u8 = 1;
const LOGIN_BAD_PASSWORD: u8 = 2;
const LOGIN_CONFLICT: u8 = 3;

impl Request {
    /// Encodes the request.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        match self {
            Request::Presence {
                cell,
                addr,
                present,
            } => {
                w.u8(TAG_PRESENCE).u32(*cell).u64(addr.raw()).bool(*present);
            }
            Request::Login {
                addr,
                user,
                password,
            } => {
                w.u8(TAG_LOGIN)
                    .u64(addr.raw())
                    .string(user)
                    .string(password);
            }
            Request::Logout { addr } => {
                w.u8(TAG_LOGOUT).u64(addr.raw());
            }
            Request::Locate {
                from,
                target,
                from_cell,
            } => {
                w.u8(TAG_LOCATE)
                    .u64(from.raw())
                    .string(target)
                    .u32(*from_cell);
            }
            Request::PresenceBatch { cell, items } => {
                w.u8(TAG_PRESENCE_BATCH).u32(*cell).u32(items.len() as u32);
                for (a, p) in items {
                    w.u64(a.raw()).bool(*p);
                }
            }
            Request::Heartbeat { cell } => {
                w.u8(TAG_HEARTBEAT).u32(*cell);
            }
            Request::NotifyBatch { items } => {
                w.u8(TAG_NOTIFY_BATCH).u32(items.len() as u32);
                for n in items {
                    w.u32(n.cell).u64(n.addr.raw()).bool(n.present);
                }
            }
            Request::History {
                from,
                target,
                from_us,
                to_us,
            } => {
                w.u8(TAG_HISTORY)
                    .u64(from.raw())
                    .string(target)
                    .u64(*from_us)
                    .u64(*to_us);
            }
            Request::WhereIs {
                querier,
                target,
                from_cell,
            } => {
                w.u8(TAG_WHERE_IS)
                    .u64(*querier)
                    .u64(*target)
                    .u32(*from_cell);
            }
            Request::IngestBatch { base_us, items } => {
                w.u8(TAG_INGEST_BATCH).u64(*base_us).u32(items.len() as u32);
                for n in items {
                    w.u32(n.cell).u64(n.addr.raw()).bool(n.present);
                }
            }
            Request::Flush => {
                w.u8(TAG_FLUSH);
            }
            Request::Shutdown => {
                w.u8(TAG_SHUTDOWN);
            }
            Request::SetEdgeWeight { a, b, weight } => {
                w.u8(TAG_SET_EDGE_WEIGHT).u32(*a).u32(*b).f64(*weight);
            }
            Request::SetNodeUp { node, up } => {
                w.u8(TAG_SET_NODE_UP).u32(*node).bool(*up);
            }
        }
        w.into_bytes()
    }

    /// Decodes a request.
    ///
    /// # Errors
    ///
    /// Any [`DecodeError`] on malformed input.
    pub fn decode(buf: &[u8]) -> Result<Request, DecodeError> {
        let mut r = Reader::new(buf);
        let tag = r.u8()?;
        let req = match tag {
            TAG_PRESENCE => Request::Presence {
                cell: r.u32()?,
                addr: addr(r.u64()?)?,
                present: r.bool()?,
            },
            TAG_LOGIN => Request::Login {
                addr: addr(r.u64()?)?,
                user: r.string()?,
                password: r.string()?,
            },
            TAG_LOGOUT => Request::Logout {
                addr: addr(r.u64()?)?,
            },
            TAG_LOCATE => Request::Locate {
                from: addr(r.u64()?)?,
                target: r.string()?,
                from_cell: r.u32()?,
            },
            TAG_PRESENCE_BATCH => {
                let cell = r.u32()?;
                let n = r.u32()? as usize;
                if n > crate::wire::MAX_FIELD_LEN / 9 {
                    return Err(DecodeError::FieldTooLong);
                }
                let mut items = Vec::with_capacity(n);
                for _ in 0..n {
                    items.push((addr(r.u64()?)?, r.bool()?));
                }
                Request::PresenceBatch { cell, items }
            }
            TAG_HEARTBEAT => Request::Heartbeat { cell: r.u32()? },
            TAG_NOTIFY_BATCH => {
                let n = r.u32()? as usize;
                if n > crate::wire::MAX_FIELD_LEN / NOTICE_WIRE_LEN {
                    return Err(DecodeError::FieldTooLong);
                }
                let mut items = Vec::with_capacity(n);
                for _ in 0..n {
                    items.push(Notice {
                        cell: r.u32()?,
                        addr: addr(r.u64()?)?,
                        present: r.bool()?,
                    });
                }
                Request::NotifyBatch { items }
            }
            TAG_HISTORY => Request::History {
                from: addr(r.u64()?)?,
                target: r.string()?,
                from_us: r.u64()?,
                to_us: r.u64()?,
            },
            TAG_WHERE_IS => Request::WhereIs {
                querier: r.u64()?,
                target: r.u64()?,
                from_cell: r.u32()?,
            },
            TAG_INGEST_BATCH => {
                let base_us = r.u64()?;
                let n = r.u32()? as usize;
                if n > crate::wire::MAX_FIELD_LEN / NOTICE_WIRE_LEN {
                    return Err(DecodeError::FieldTooLong);
                }
                let mut items = Vec::with_capacity(n);
                for _ in 0..n {
                    items.push(Notice {
                        cell: r.u32()?,
                        addr: addr(r.u64()?)?,
                        present: r.bool()?,
                    });
                }
                Request::IngestBatch { base_us, items }
            }
            TAG_FLUSH => Request::Flush,
            TAG_SHUTDOWN => Request::Shutdown,
            TAG_SET_EDGE_WEIGHT => Request::SetEdgeWeight {
                a: r.u32()?,
                b: r.u32()?,
                weight: r.f64()?,
            },
            TAG_SET_NODE_UP => Request::SetNodeUp {
                node: r.u32()?,
                up: r.bool()?,
            },
            t => return Err(DecodeError::BadTag(t)),
        };
        r.finish()?;
        Ok(req)
    }
}

fn addr(raw: u64) -> Result<BdAddr, DecodeError> {
    BdAddr::try_from(raw).map_err(|_| DecodeError::BadTag(0xFF))
}

/// The location answer's wire form, shared by the LAN
/// [`Response::LocateResult`] and the handheld link's
/// [`HandheldMsg::QueryDown`](crate::handheld::HandheldMsg::QueryDown):
/// an outcome code, then for `Found` the cell, distance and path, and for
/// `BadQuery` an error code and its two fields.
impl LocateOutcome {
    pub(crate) fn encode_into(&self, w: &mut Writer) {
        match self {
            LocateOutcome::Found {
                cell,
                path,
                distance,
            } => {
                w.u8(OUTCOME_FOUND)
                    .u32(*cell)
                    .f64(*distance)
                    .u32(path.len() as u32);
                for c in path {
                    w.u32(*c);
                }
            }
            LocateOutcome::NotLoggedIn => {
                w.u8(OUTCOME_NOT_LOGGED_IN);
            }
            LocateOutcome::OutOfCoverage => {
                w.u8(OUTCOME_OUT_OF_COVERAGE);
            }
            LocateOutcome::NoSuchUser => {
                w.u8(OUTCOME_NO_SUCH_USER);
            }
            LocateOutcome::Denied => {
                w.u8(OUTCOME_DENIED);
            }
            LocateOutcome::QuerierNotLoggedIn => {
                w.u8(OUTCOME_QUERIER_NOT_LOGGED_IN);
            }
            LocateOutcome::BadQuery(ProtocolError::CellOutOfRange { cell, num_cells }) => {
                w.u8(OUTCOME_BAD_QUERY)
                    .u8(PROTO_ERR_CELL_OUT_OF_RANGE)
                    .u32(*cell)
                    .u32(*num_cells);
            }
            LocateOutcome::BadQuery(ProtocolError::PathCorrupt { from, to }) => {
                w.u8(OUTCOME_BAD_QUERY)
                    .u8(PROTO_ERR_PATH_CORRUPT)
                    .u32(*from)
                    .u32(*to);
            }
        }
    }

    pub(crate) fn decode_from(r: &mut Reader<'_>) -> Result<LocateOutcome, DecodeError> {
        Ok(match r.u8()? {
            OUTCOME_FOUND => {
                let cell = r.u32()?;
                let distance = r.f64()?;
                let n = r.u32()? as usize;
                if n > crate::wire::MAX_FIELD_LEN / 4 {
                    return Err(DecodeError::FieldTooLong);
                }
                let mut path = Vec::with_capacity(n);
                for _ in 0..n {
                    path.push(r.u32()?);
                }
                LocateOutcome::Found {
                    cell,
                    path,
                    distance,
                }
            }
            OUTCOME_NOT_LOGGED_IN => LocateOutcome::NotLoggedIn,
            OUTCOME_OUT_OF_COVERAGE => LocateOutcome::OutOfCoverage,
            OUTCOME_NO_SUCH_USER => LocateOutcome::NoSuchUser,
            OUTCOME_DENIED => LocateOutcome::Denied,
            OUTCOME_QUERIER_NOT_LOGGED_IN => LocateOutcome::QuerierNotLoggedIn,
            OUTCOME_BAD_QUERY => match r.u8()? {
                PROTO_ERR_CELL_OUT_OF_RANGE => {
                    LocateOutcome::BadQuery(ProtocolError::CellOutOfRange {
                        cell: r.u32()?,
                        num_cells: r.u32()?,
                    })
                }
                PROTO_ERR_PATH_CORRUPT => LocateOutcome::BadQuery(ProtocolError::PathCorrupt {
                    from: r.u32()?,
                    to: r.u32()?,
                }),
                t => return Err(DecodeError::BadTag(t)),
            },
            t => return Err(DecodeError::BadTag(t)),
        })
    }
}

/// The history answer's wire form, shared by the LAN
/// [`Response::HistoryResult`] and the handheld link's
/// [`HandheldMsg::HistoryDown`](crate::handheld::HandheldMsg::HistoryDown):
/// an outcome code, then for `Trace` the step count and each step's cell,
/// presence and time.
impl HistoryOutcome {
    pub(crate) fn encode_into(&self, w: &mut Writer) {
        match self {
            HistoryOutcome::Trace(steps) => {
                w.u8(HISTORY_OK).u32(steps.len() as u32);
                for st in steps {
                    w.u32(st.cell).bool(st.present).u64(st.at_us);
                }
            }
            HistoryOutcome::Denied => {
                w.u8(HISTORY_DENIED);
            }
            HistoryOutcome::NoSuchUser => {
                w.u8(HISTORY_NO_USER);
            }
            HistoryOutcome::QuerierNotLoggedIn => {
                w.u8(HISTORY_NOT_LOGGED_IN);
            }
        }
    }

    pub(crate) fn decode_from(r: &mut Reader<'_>) -> Result<HistoryOutcome, DecodeError> {
        Ok(match r.u8()? {
            HISTORY_OK => {
                let n = r.u32()? as usize;
                if n > crate::wire::MAX_FIELD_LEN / 13 {
                    return Err(DecodeError::FieldTooLong);
                }
                let mut steps = Vec::with_capacity(n);
                for _ in 0..n {
                    steps.push(HistoryStep {
                        cell: r.u32()?,
                        present: r.bool()?,
                        at_us: r.u64()?,
                    });
                }
                HistoryOutcome::Trace(steps)
            }
            HISTORY_DENIED => HistoryOutcome::Denied,
            HISTORY_NO_USER => HistoryOutcome::NoSuchUser,
            HISTORY_NOT_LOGGED_IN => HistoryOutcome::QuerierNotLoggedIn,
            t => return Err(DecodeError::BadTag(t)),
        })
    }
}

impl Response {
    /// Encodes the response.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        match self {
            Response::PresenceAck { changed } => {
                w.u8(TAG_PRESENCE_ACK).bool(*changed);
            }
            Response::LoginResult { result } => {
                w.u8(TAG_LOGIN_RESULT).u8(match result {
                    Ok(()) => LOGIN_OK,
                    Err(LoginFailure::NoSuchUser) => LOGIN_NO_USER,
                    Err(LoginFailure::BadPassword) => LOGIN_BAD_PASSWORD,
                    Err(LoginFailure::SessionConflict) => LOGIN_CONFLICT,
                });
            }
            Response::LogoutResult { ok } => {
                w.u8(TAG_LOGOUT_RESULT).bool(*ok);
            }
            Response::LocateResult(out) => {
                w.u8(TAG_LOCATE_RESULT);
                out.encode_into(&mut w);
            }
            Response::PresenceBatchAck { changed } => {
                w.u8(TAG_PRESENCE_BATCH_ACK).u32(*changed);
            }
            Response::HeartbeatAck => {
                w.u8(TAG_HEARTBEAT_ACK);
            }
            Response::NotifyBatchAck { changed } => {
                w.u8(TAG_NOTIFY_BATCH_ACK).u32(*changed);
            }
            Response::IngestAck { queued } => {
                w.u8(TAG_INGEST_ACK).u32(*queued);
            }
            Response::FlushAck { acks } => {
                debug_assert!(acks.len() <= MAX_FLUSH_ACKS, "flush ack batch too large");
                w.u8(TAG_FLUSH_ACK).u32(acks.len() as u32);
                // Bit-packed, LSB first, zero padding in the last byte:
                // the canonical form the decoder enforces.
                for chunk in acks.chunks(8) {
                    let mut byte = 0u8;
                    for (i, &a) in chunk.iter().enumerate() {
                        byte |= u8::from(a) << i;
                    }
                    w.u8(byte);
                }
            }
            Response::ShutdownAck => {
                w.u8(TAG_SHUTDOWN_ACK);
            }
            Response::TopologyAck { applied, epoch } => {
                w.u8(TAG_TOPOLOGY_ACK).bool(*applied).u64(*epoch);
            }
            Response::HistoryResult(out) => {
                w.u8(TAG_HISTORY_RESULT);
                out.encode_into(&mut w);
            }
        }
        w.into_bytes()
    }

    /// Decodes a response.
    ///
    /// # Errors
    ///
    /// Any [`DecodeError`] on malformed input.
    pub fn decode(buf: &[u8]) -> Result<Response, DecodeError> {
        let mut r = Reader::new(buf);
        let tag = r.u8()?;
        let resp = match tag {
            TAG_PRESENCE_ACK => Response::PresenceAck { changed: r.bool()? },
            TAG_LOGIN_RESULT => {
                let code = r.u8()?;
                Response::LoginResult {
                    result: match code {
                        LOGIN_OK => Ok(()),
                        LOGIN_NO_USER => Err(LoginFailure::NoSuchUser),
                        LOGIN_BAD_PASSWORD => Err(LoginFailure::BadPassword),
                        LOGIN_CONFLICT => Err(LoginFailure::SessionConflict),
                        t => return Err(DecodeError::BadTag(t)),
                    },
                }
            }
            TAG_LOGOUT_RESULT => Response::LogoutResult { ok: r.bool()? },
            TAG_LOCATE_RESULT => Response::LocateResult(LocateOutcome::decode_from(&mut r)?),
            TAG_PRESENCE_BATCH_ACK => Response::PresenceBatchAck { changed: r.u32()? },
            TAG_HEARTBEAT_ACK => Response::HeartbeatAck,
            TAG_NOTIFY_BATCH_ACK => Response::NotifyBatchAck { changed: r.u32()? },
            TAG_INGEST_ACK => Response::IngestAck { queued: r.u32()? },
            TAG_FLUSH_ACK => {
                let n = r.u32()? as usize;
                if n > MAX_FLUSH_ACKS {
                    return Err(DecodeError::FieldTooLong);
                }
                let mut acks = Vec::with_capacity(n);
                for _ in 0..n.div_ceil(8) {
                    let byte = r.u8()?;
                    let taken = (n - acks.len()).min(8);
                    for i in 0..taken {
                        acks.push(byte & (1 << i) != 0);
                    }
                    // Padding bits must be zero — one canonical encoding
                    // per ack vector.
                    if taken < 8 && byte >> taken != 0 {
                        return Err(DecodeError::BadTag(byte));
                    }
                }
                Response::FlushAck { acks }
            }
            TAG_SHUTDOWN_ACK => Response::ShutdownAck,
            TAG_TOPOLOGY_ACK => Response::TopologyAck {
                applied: r.bool()?,
                epoch: r.u64()?,
            },
            TAG_HISTORY_RESULT => Response::HistoryResult(HistoryOutcome::decode_from(&mut r)?),
            t => return Err(DecodeError::BadTag(t)),
        };
        r.finish()?;
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_req(req: Request) {
        let buf = req.encode();
        assert_eq!(Request::decode(&buf), Ok(req));
    }

    fn round_trip_resp(resp: Response) {
        let buf = resp.encode();
        assert_eq!(Response::decode(&buf), Ok(resp));
    }

    #[test]
    fn requests_round_trip() {
        round_trip_req(Request::Presence {
            cell: 3,
            addr: BdAddr::new(0xAB_CDEF),
            present: true,
        });
        round_trip_req(Request::Login {
            addr: BdAddr::new(1),
            user: "alice".into(),
            password: "päss✓".into(),
        });
        round_trip_req(Request::Logout {
            addr: BdAddr::new(2),
        });
        round_trip_req(Request::Locate {
            from: BdAddr::new(3),
            target: "bob".into(),
            from_cell: 8,
        });
        round_trip_req(Request::History {
            from: BdAddr::new(3),
            target: "bob".into(),
            from_us: 1_000_000,
            to_us: 90_000_000,
        });
        round_trip_req(Request::PresenceBatch {
            cell: 4,
            items: vec![(BdAddr::new(1), true), (BdAddr::new(2), false)],
        });
        round_trip_resp(Response::PresenceBatchAck { changed: 2 });
        round_trip_req(Request::Heartbeat { cell: 3 });
        round_trip_resp(Response::HeartbeatAck);
        round_trip_req(Request::NotifyBatch {
            items: vec![
                Notice {
                    cell: 1,
                    addr: BdAddr::new(7),
                    present: true,
                },
                Notice {
                    cell: 5,
                    addr: BdAddr::new(8),
                    present: false,
                },
            ],
        });
        round_trip_req(Request::NotifyBatch { items: vec![] });
        round_trip_resp(Response::NotifyBatchAck { changed: 1 });
    }

    #[test]
    fn serving_path_messages_round_trip() {
        round_trip_req(Request::WhereIs {
            querier: 17,
            target: 123_456,
            from_cell: 9,
        });
        round_trip_req(Request::IngestBatch {
            base_us: 1_000_001,
            items: vec![
                Notice {
                    cell: 1,
                    addr: BdAddr::new(7),
                    present: true,
                },
                Notice {
                    cell: 2,
                    addr: BdAddr::new(8),
                    present: false,
                },
            ],
        });
        round_trip_req(Request::IngestBatch {
            base_us: 0,
            items: vec![],
        });
        round_trip_req(Request::Flush);
        round_trip_req(Request::Shutdown);
        round_trip_resp(Response::IngestAck { queued: 2 });
        round_trip_resp(Response::ShutdownAck);
        round_trip_req(Request::SetEdgeWeight {
            a: 3,
            b: 9,
            weight: 12.5,
        });
        round_trip_req(Request::SetNodeUp {
            node: 17,
            up: false,
        });
        round_trip_resp(Response::TopologyAck {
            applied: true,
            epoch: 41,
        });
        // Flush acks across the bit-packing boundaries: empty, partial
        // byte, exactly one byte, byte + remainder.
        for n in [0usize, 3, 8, 11, 64, 65] {
            let acks: Vec<bool> = (0..n).map(|i| i % 3 == 0).collect();
            round_trip_resp(Response::FlushAck { acks });
        }
    }

    #[test]
    fn flush_ack_rejects_nonzero_padding() {
        // 3 acks all set is one byte 0b0000_0111; force a padding bit.
        let mut buf = Response::FlushAck {
            acks: vec![true, true, true],
        }
        .encode();
        let last = buf.len() - 1;
        buf[last] |= 0b1000_0000;
        assert!(Response::decode(&buf).is_err(), "padding bit accepted");
    }

    #[test]
    fn history_responses_round_trip() {
        round_trip_resp(Response::HistoryResult(HistoryOutcome::Trace(vec![
            HistoryStep {
                cell: 1,
                present: true,
                at_us: 5,
            },
            HistoryStep {
                cell: 1,
                present: false,
                at_us: 9,
            },
        ])));
        for out in [
            HistoryOutcome::Denied,
            HistoryOutcome::NoSuchUser,
            HistoryOutcome::QuerierNotLoggedIn,
        ] {
            round_trip_resp(Response::HistoryResult(out));
        }
    }

    #[test]
    fn responses_round_trip() {
        round_trip_resp(Response::PresenceAck { changed: false });
        round_trip_resp(Response::LoginResult { result: Ok(()) });
        round_trip_resp(Response::LoginResult {
            result: Err(LoginFailure::BadPassword),
        });
        round_trip_resp(Response::LogoutResult { ok: true });
        round_trip_resp(Response::LocateResult(LocateOutcome::Found {
            cell: 4,
            path: vec![1, 2, 4],
            distance: 36.5,
        }));
        for out in [
            LocateOutcome::NotLoggedIn,
            LocateOutcome::OutOfCoverage,
            LocateOutcome::NoSuchUser,
            LocateOutcome::Denied,
            LocateOutcome::QuerierNotLoggedIn,
            LocateOutcome::BadQuery(ProtocolError::CellOutOfRange {
                cell: 99,
                num_cells: 9,
            }),
            LocateOutcome::BadQuery(ProtocolError::PathCorrupt { from: 2, to: 7 }),
        ] {
            round_trip_resp(Response::LocateResult(out));
        }
    }

    #[test]
    fn unknown_tags_rejected() {
        assert_eq!(Request::decode(&[0x7F]), Err(DecodeError::BadTag(0x7F)));
        assert_eq!(Response::decode(&[0x00]), Err(DecodeError::BadTag(0x00)));
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut buf = Request::Logout {
            addr: BdAddr::new(1),
        }
        .encode();
        buf.push(0);
        assert_eq!(Request::decode(&buf), Err(DecodeError::TrailingBytes));
    }

    #[test]
    fn truncated_messages_rejected() {
        let buf = Request::Login {
            addr: BdAddr::new(1),
            user: "alice".into(),
            password: "pw".into(),
        }
        .encode();
        for cut in 0..buf.len() {
            assert!(Request::decode(&buf[..cut]).is_err(), "cut {cut}");
        }
    }
}

#[cfg(test)]
mod golden_bytes {
    use super::*;

    /// The on-wire encodings are a protocol: changing them breaks mixed
    /// deployments. These tests pin the exact bytes.
    #[test]
    fn request_encodings_are_stable() {
        assert_eq!(
            Request::Presence {
                cell: 1,
                addr: BdAddr::new(0x0203),
                present: true,
            }
            .encode(),
            vec![1, 1, 0, 0, 0, 3, 2, 0, 0, 0, 0, 0, 0, 1]
        );
        assert_eq!(
            Request::Logout {
                addr: BdAddr::new(0xFF),
            }
            .encode(),
            vec![3, 255, 0, 0, 0, 0, 0, 0, 0]
        );
        assert_eq!(
            Request::Login {
                addr: BdAddr::new(1),
                user: "a".into(),
                password: "b".into(),
            }
            .encode(),
            vec![2, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, b'a', 1, 0, 0, 0, b'b']
        );
        assert_eq!(
            Request::Heartbeat { cell: 0x0102 }.encode(),
            vec![7, 2, 1, 0, 0]
        );
        assert_eq!(
            Request::NotifyBatch {
                items: vec![Notice {
                    cell: 2,
                    addr: BdAddr::new(3),
                    present: true,
                }],
            }
            .encode(),
            vec![8, 1, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 1]
        );
        // Serving-path requests (PR 7): tags 9–12.
        assert_eq!(
            Request::WhereIs {
                querier: 1,
                target: 2,
                from_cell: 3,
            }
            .encode(),
            vec![9, 1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0]
        );
        assert_eq!(
            Request::IngestBatch {
                base_us: 5,
                items: vec![Notice {
                    cell: 2,
                    addr: BdAddr::new(3),
                    present: true,
                }],
            }
            .encode(),
            vec![10, 5, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 1]
        );
        assert_eq!(Request::Flush.encode(), vec![11]);
        assert_eq!(Request::Shutdown.encode(), vec![12]);
        // Topology mutations (PR 9): tags 13–14.
        let sew = Request::SetEdgeWeight {
            a: 1,
            b: 2,
            weight: 3.0,
        }
        .encode();
        assert_eq!(sew[0..9], [13, 1, 0, 0, 0, 2, 0, 0, 0]);
        assert_eq!(sew[9..], 3.0f64.to_bits().to_le_bytes());
        assert_eq!(
            Request::SetNodeUp { node: 5, up: true }.encode(),
            vec![14, 5, 0, 0, 0, 1]
        );
    }

    #[test]
    fn response_encodings_are_stable() {
        assert_eq!(
            Response::PresenceAck { changed: false }.encode(),
            vec![101, 0]
        );
        assert_eq!(Response::HeartbeatAck.encode(), vec![107]);
        assert_eq!(
            Response::LoginResult { result: Ok(()) }.encode(),
            vec![102, 0]
        );
        assert_eq!(
            Response::LocateResult(LocateOutcome::Denied).encode(),
            vec![104, 4]
        );
        // Found: tag, code, cell u32, distance f64, len u32, path u32s.
        let found = Response::LocateResult(LocateOutcome::Found {
            cell: 2,
            path: vec![0, 2],
            distance: 1.0,
        })
        .encode();
        assert_eq!(found[0..2], [104, 0]);
        assert_eq!(found[2..6], [2, 0, 0, 0]);
        assert_eq!(found[6..14], 1.0f64.to_bits().to_le_bytes());
        assert_eq!(found[14..18], [2, 0, 0, 0]);
        assert_eq!(found[18..], [0, 0, 0, 0, 2, 0, 0, 0]);
        assert_eq!(
            Response::NotifyBatchAck { changed: 3 }.encode(),
            vec![108, 3, 0, 0, 0]
        );
        // BadQuery: tag, outcome code, error code, cell u32, num_cells u32.
        assert_eq!(
            Response::LocateResult(LocateOutcome::BadQuery(ProtocolError::CellOutOfRange {
                cell: 300,
                num_cells: 9,
            }))
            .encode(),
            vec![104, 6, 0, 44, 1, 0, 0, 9, 0, 0, 0]
        );
        // Serving-path responses (PR 7): tags 109–111; flush acks are
        // bit-packed LSB-first with zero padding.
        assert_eq!(
            Response::IngestAck { queued: 7 }.encode(),
            vec![109, 7, 0, 0, 0]
        );
        assert_eq!(
            Response::FlushAck {
                acks: vec![true, false, true, true, false, false, false, false, true],
            }
            .encode(),
            vec![110, 9, 0, 0, 0, 0b0000_1101, 0b0000_0001]
        );
        assert_eq!(
            Response::FlushAck { acks: vec![] }.encode(),
            vec![110, 0, 0, 0, 0]
        );
        assert_eq!(Response::ShutdownAck.encode(), vec![111]);
        // Topology ack (PR 9): tag 112, applied bool, epoch u64.
        assert_eq!(
            Response::TopologyAck {
                applied: true,
                epoch: 7,
            }
            .encode(),
            vec![112, 1, 7, 0, 0, 0, 0, 0, 0, 0]
        );
        // PathCorrupt BadQuery: tag, outcome code, error code, from, to.
        assert_eq!(
            Response::LocateResult(LocateOutcome::BadQuery(ProtocolError::PathCorrupt {
                from: 3,
                to: 260,
            }))
            .encode(),
            vec![104, 6, 1, 3, 0, 0, 0, 4, 1, 0, 0]
        );
    }
}
