//! The sharded, concurrent serving engine for the location service.
//!
//! The seed server ([`BipsServer`](crate::server::BipsServer)) is a
//! single-threaded handler over string-keyed hash maps: every WhereIs
//! query resolves two user names, chases three `HashMap`s spread over
//! hundreds of megabytes at building scale, and allocates a fresh path
//! vector. That is faithful to the paper's prototype but tops out far
//! below "every employee queries on every room change".
//!
//! This module is the serving-path redesign:
//!
//! * **Interned identities.** User ids are dense `u64`s (the registry
//!   already allocates them densely) and `BD_ADDR`s are interned once at
//!   login into flat open-addressed tables, sharded by address hash, so
//!   ingest resolves a notice's address in one short probe. The
//!   steady-state query path never touches a string.
//! * **Sharded state.** Users are partitioned over `nshards`
//!   (power-of-two) shards by `uid & (nshards - 1)`. Each shard holds a
//!   16-byte *hot slot* per user (bound address, current cell) made of
//!   plain atomics, plus an immutable `SlotMeta` (packed access
//!   flags, credentials, allow-list) fixed at construction.
//! * **Seqlock reads.** Every hot slot carries a sequence word (even =
//!   stable, odd = write in progress). The default
//!   [`ReadPath::Seqlock`] query path snapshots `(addr, cell)` with an
//!   Acquire-load / copy / re-check retry loop and **never acquires a
//!   lock**: a flush storming a shard cannot block a reader, it can
//!   only cost it a retry (counted in `core.service.read_retries`).
//!   The pre-seqlock behaviour survives as [`ReadPath::Locked`] —
//!   readers share the writer `RwLock`'s read side — selectable per
//!   engine so differential tests and benches can prove the two paths
//!   bit-identical and measure the tail-latency gap.
//! * **Batched ingestion.** Presence notices buffer into per-shard
//!   pending queues ([`ShardedService::ingest`]) and are applied by
//!   [`ShardedService::flush`] with one writer-lock acquisition per
//!   shard — update-on-change traffic amortizes to a fraction of a lock
//!   op per notice. Writers serialize among themselves on the
//!   per-shard writer lock; each changed slot is published with
//!   odd/even seq fencing so a reader observes either the old or the
//!   new `(addr, cell)` pair, never a torn mix.
//! * **Zero-allocation queries.** [`ShardedService::where_is`] writes
//!   the answer path into a caller-owned buffer via
//!   [`Apsp::try_path_into`] (or, on a live topology, the
//!   [`PathEngine`]'s table or cached tree, walked the same way); once
//!   the buffer is warm the query performs no heap allocation at all.
//!
//! Determinism is preserved: per-shard pending queues apply in ingest
//! order regardless of how many worker threads [`flush`] uses, and acks
//! are reassembled by sequence number, so results are bit-identical for
//! any `jobs` count — the property the differential suite checks against
//! the seed server, on both read paths.
//!
//! # SAFETY (memory ordering)
//!
//! The seqlock uses no `unsafe` (the crate forbids it): slot fields are
//! plain atomics, so a racing read is never UB — the seq word only has
//! to rule out *mixed* snapshots. Writer, under the shard writer lock:
//! `seq += 1` (Relaxed) → `fence(Release)` → data stores (Relaxed) →
//! `seq += 1` (Release). Reader: `seq` (Acquire) → data loads (Relaxed)
//! → `fence(Acquire)` → re-check `seq` (Relaxed). If the re-check sees
//! the same even value, the data loads happened entirely between two
//! stable states of the same epoch: the Release fence orders the odd
//! store before the data stores, the Release store orders the data
//! stores before the new even value, and the Acquire pair on the read
//! side makes both edges visible. See DESIGN.md §7 for the full
//! argument and the wait-freedom caveat.
//!
//! [`flush`]: ShardedService::flush

use std::sync::atomic::{fence, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::sync::{Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

use bt_baseband::BdAddr;
use desim::metrics::MetricSet;
use desim::par;
use desim::tracing::{SpanId, TraceKind, Tracer};

use crate::graph::{Apsp, NodeId, PathEngine, PathWalkError, WarmQuery};
use crate::protocol::{
    ProtocolError, Request, Response, OUTCOME_BAD_QUERY, OUTCOME_DENIED, OUTCOME_FOUND,
    OUTCOME_NOT_LOGGED_IN, OUTCOME_NO_SUCH_USER, OUTCOME_OUT_OF_COVERAGE,
    OUTCOME_QUERIER_NOT_LOGGED_IN, PROTO_ERR_CELL_OUT_OF_RANGE, PROTO_ERR_PATH_CORRUPT,
    TAG_LOCATE_RESULT,
};
use crate::registry::{Registry, Visibility};
use crate::wire::DecodeError;

/// Sentinel: no device bound to this user.
const NO_ADDR: u64 = u64::MAX;
/// Sentinel: the user is in no cell.
const NO_CELL: u32 = u32::MAX;

/// Flag bit: the user may issue location queries.
const FLAG_MAY_QUERY: u32 = 1;
/// Visibility kind shift (bits 1–2).
const VIS_SHIFT: u32 = 1;
/// Visibility kind: anyone may locate this user.
const VIS_EVERYONE: u32 = 0;
/// Visibility kind: nobody may locate this user.
const VIS_NOBODY: u32 = 1;
/// Visibility kind: only the allow-list may locate this user.
const VIS_ONLY: u32 = 2;

/// Takes a shard read lock, recovering from poisoning. The serving path
/// is panic-free by construction (the `serve-panic` lint rule), so a
/// poisoned lock can only come from a panic injected outside this module
/// (e.g. an allocator abort in another thread); shard state updates
/// whole-batch under the write lock, so the recovered state is the last
/// consistent one.
fn read_lock<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(PoisonError::into_inner)
}

/// Write-lock counterpart of [`read_lock`]: same poisoning argument.
fn write_lock<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(PoisonError::into_inner)
}

/// Mutex counterpart of [`read_lock`]: same poisoning argument.
fn lock_mutex<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Which slot-read protocol [`ShardedService::where_is`] (and every
/// other reader) uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReadPath {
    /// Lock-free seqlock snapshots (the default): readers never
    /// acquire a lock, a concurrent publish costs them a retry.
    #[default]
    Seqlock,
    /// The pre-seqlock scheme, kept compiled and selectable: readers
    /// share the writer `RwLock`'s read side, so a flush holding the
    /// write side blocks them. Exists so differential tests can prove
    /// the seqlock path bit-identical and benches can measure the
    /// tail-latency gap.
    Locked,
}

/// The 16-byte per-user record every query touches, seqlock-published.
/// Kept minimal so a building's worth of users stays cache-resident:
/// 1M users ≈ 16 MB, versus ~250 MB of string-keyed maps in the seed
/// server. All fields are atomics (the crate forbids `unsafe`); the
/// `seq` word is what makes the `(addr, cell)` pair readable as a unit.
#[derive(Debug)]
struct HotSlot {
    /// Bound `BD_ADDR` ([`NO_ADDR`] when not logged in).
    addr: AtomicU64,
    /// Seqlock sequence word: even = stable, odd = publish in progress.
    seq: AtomicU32,
    /// Current cell ([`NO_CELL`] when absent everywhere).
    cell: AtomicU32,
}

impl HotSlot {
    fn new() -> HotSlot {
        HotSlot {
            addr: AtomicU64::new(NO_ADDR),
            seq: AtomicU32::new(0),
            cell: AtomicU32::new(NO_CELL),
        }
    }

    /// Publishes a new `(addr, cell)` pair under the seqlock protocol.
    /// Must be called with the shard's writer lock held (writers
    /// serialize among themselves; the seq word only protects readers).
    fn publish(&self, addr: u64, cell: u32) {
        let s = self.seq.load(Ordering::Relaxed);
        self.seq.store(s.wrapping_add(1), Ordering::Relaxed);
        fence(Ordering::Release);
        self.addr.store(addr, Ordering::Relaxed);
        self.cell.store(cell, Ordering::Relaxed);
        self.seq.store(s.wrapping_add(2), Ordering::Release);
    }

    /// Lock-free consistent snapshot of `(addr, cell)`; bumps `retries`
    /// once per raced attempt. Loops only while a publish is in flight
    /// on this very slot — a handful of stores — so a reader is never
    /// blocked, merely delayed by the writer's progress.
    fn snapshot(&self, retries: &AtomicU64) -> (u64, u32) {
        loop {
            let s1 = self.seq.load(Ordering::Acquire);
            if s1 & 1 == 0 {
                let addr = self.addr.load(Ordering::Relaxed);
                let cell = self.cell.load(Ordering::Relaxed);
                fence(Ordering::Acquire);
                if self.seq.load(Ordering::Relaxed) == s1 {
                    return (addr, cell);
                }
            }
            retries.fetch_add(1, Ordering::Relaxed);
            std::hint::spin_loop();
        }
    }
}

/// Immutable per-user metadata, fixed when the engine snapshots the
/// registry: packed access flags, credentials (verified at login only)
/// and the visibility allow-list. Readable with no synchronization at
/// all — it never changes after construction.
#[derive(Debug, Clone, Default)]
struct SlotMeta {
    /// [`FLAG_MAY_QUERY`] plus the visibility kind in bits 1–2.
    flags: u32,
    salt: u64,
    digest: u64,
    /// Sorted allow-list for [`VIS_ONLY`] users.
    only: Box<[u32]>,
}

/// Mutable writer-side state of one shard: the overlapping-coverage
/// claim sets backing the current-cell computation, plus
/// update-on-change accounting. Only writers (login/logout/flush) and
/// the [`ReadPath::Locked`] legacy read path touch the lock guarding
/// this — the seqlock read path never does.
#[derive(Debug, Default)]
struct WriterState {
    /// Cells currently claiming each slot's user, in claim order:
    /// `(cell, since_us)`.
    claims: Vec<Vec<(u32, u64)>>,
    /// Update-on-change accounting, mirrored from
    /// [`DbStats`](crate::locationdb::DbStats).
    applied: u64,
    redundant: u64,
}

/// One shard: lock-free hot slots + immutable metadata + the
/// writer-only state behind its lock, plus per-shard counters.
#[derive(Debug)]
struct Shard {
    hot: Box<[HotSlot]>,
    meta: Box<[SlotMeta]>,
    /// Write side: writer mutual exclusion (login/logout/flush). Read
    /// side: the legacy [`ReadPath::Locked`] slot read. The seqlock
    /// read path never touches this lock in any mode.
    writer: RwLock<WriterState>,
    /// Queries routed to this shard.
    queries: AtomicU64,
    /// Seqlock read attempts that raced a publish and retried.
    read_retries: AtomicU64,
    /// Seqlock publishes (login/logout/flush slot updates).
    slot_publishes: AtomicU64,
}

/// A presence notice waiting in a shard's pending queue.
#[derive(Debug, Clone, Copy)]
struct PendingNotice {
    /// Global ingest sequence number (ack reassembly key).
    seq: u64,
    /// Slot index within the shard.
    slot: u32,
    cell: u32,
    present: bool,
    since_us: u64,
}

/// An empty [`AddrTable`] slot. No `BD_ADDR` reaches 48 bits, so no
/// binding can be mistaken for it.
const EMPTY: (u64, u32) = (NO_ADDR, 0);

/// The smallest [`AddrTable`]: one run of eight addresses.
const MIN_TABLE_SLOTS: usize = 8;

/// The splitmix64 finalizer: a bijection on `u64` in which every output
/// bit depends on every input bit.
#[inline]
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// An address's hash: the run index `addr >> 3` mixed, and the offset
/// within the run kept as the low three bits. The eight addresses of an
/// aligned run therefore share an address shard (bits 35 and up) and
/// have consecutive home slots in its table (the low bits).
#[inline]
fn addr_hash(addr: u64) -> u64 {
    (splitmix64(addr >> 3) << 3) | (addr & 7)
}

/// Index of the address shard for hash `h`, among `nshards` (a power of
/// two). Disjoint from the bits any table below 2^35 slots reads.
#[inline]
fn addr_shard(h: u64, nshards: usize) -> usize {
    (h >> 35) as usize & nshards.wrapping_sub(1)
}

/// One address shard's `BD_ADDR` → uid bindings: an open-addressed
/// table with linear probing.
///
/// - The length is a power of two, presized at construction to twice
///   the shard's share of the registry's users, so a full set of logins
///   normally allocates nothing. A binding that would fill more than
///   half the table doubles it first, so the load stays at or below 1/2.
/// - [`remove`](AddrTable::remove) shifts the rest of the cluster back
///   into the hole, so no tombstones build up.
/// - Every probe loop is bounded by the table length.
#[derive(Debug)]
struct AddrTable {
    /// `(addr, uid)` per slot; [`EMPTY`] where none is bound.
    slots: Box<[(u64, u32)]>,
    /// Bound addresses: at most half of `slots.len()`.
    len: usize,
}

impl AddrTable {
    /// An empty table sized for one of `nshards` shards' share of
    /// `users` bindings.
    fn presized(users: u64, nshards: usize) -> AddrTable {
        let share = users.div_ceil(nshards as u64) as usize;
        AddrTable::with_slots(share.saturating_mul(2).max(MIN_TABLE_SLOTS))
    }

    fn with_slots(slots: usize) -> AddrTable {
        AddrTable {
            slots: vec![EMPTY; slots.next_power_of_two()].into_boxed_slice(),
            len: 0,
        }
    }

    /// Walks `addr`'s probe sequence from its home slot (`h` is its
    /// [`addr_hash`]): `Ok` with the slot that binds `addr`, `Err` with
    /// the first empty slot, or `None` if neither turns up in one lap
    /// of the table.
    #[inline]
    fn probe(&self, addr: u64, h: u64) -> Option<Result<usize, usize>> {
        let mask = self.slots.len().wrapping_sub(1);
        let mut i = h as usize & mask;
        for _ in 0..self.slots.len() {
            let &(a, _) = self.slots.get(i)?;
            if a == addr {
                return Some(Ok(i));
            }
            if a == NO_ADDR {
                return Some(Err(i));
            }
            i = (i + 1) & mask;
        }
        None
    }

    /// The uid bound to `addr`, if any.
    #[inline]
    fn get(&self, addr: u64, h: u64) -> Option<u32> {
        let i = self.probe(addr, h)?.ok()?;
        self.slots.get(i).map(|&(_, uid)| uid)
    }

    /// Binds `addr` to `uid` in `vacant`, the empty slot where its
    /// [`probe`](AddrTable::probe) ended. If the binding would fill more
    /// than half the table, the table doubles first and `addr` probes
    /// again.
    fn insert(&mut self, vacant: usize, addr: u64, h: u64, uid: u32) {
        let mut at = vacant;
        if (self.len + 1) * 2 > self.slots.len() {
            self.grow();
            let Some(Err(i)) = self.probe(addr, h) else {
                return;
            };
            at = i;
        }
        if let Some(slot) = self.slots.get_mut(at) {
            *slot = (addr, uid);
            self.len += 1;
        }
    }

    /// Doubles the table and re-inserts every binding.
    fn grow(&mut self) {
        let doubled = AddrTable::with_slots(self.slots.len() * 2);
        let old = std::mem::replace(self, doubled);
        for &(addr, uid) in old.slots.iter().filter(|&&(a, _)| a != NO_ADDR) {
            if let Some(Err(i)) = self.probe(addr, addr_hash(addr)) {
                if let Some(slot) = self.slots.get_mut(i) {
                    *slot = (addr, uid);
                }
            }
        }
        self.len = old.len;
    }

    /// Unbinds `addr`. Each later member of its cluster whose probe
    /// sequence passes the hole moves back into it, and the last hole
    /// is emptied (backward-shift deletion).
    fn remove(&mut self, addr: u64, h: u64) {
        let Some(Ok(mut hole)) = self.probe(addr, h) else {
            return;
        };
        let mask = self.slots.len().wrapping_sub(1);
        let mut j = hole;
        for _ in 0..self.slots.len() {
            j = (j + 1) & mask;
            let Some(&(a, uid)) = self.slots.get(j) else {
                break;
            };
            if a == NO_ADDR {
                break;
            }
            // The binding at `j` may fill the hole only if the hole lies
            // on its probe sequence, between its home slot and `j`.
            let home = addr_hash(a) as usize & mask;
            if j.wrapping_sub(home) & mask >= j.wrapping_sub(hole) & mask {
                if let Some(slot) = self.slots.get_mut(hole) {
                    *slot = (a, uid);
                }
                hole = j;
            }
        }
        if let Some(slot) = self.slots.get_mut(hole) {
            *slot = EMPTY;
        }
        self.len -= 1;
    }
}

/// Session-management errors, mirroring
/// [`RegistryError`](crate::registry::RegistryError) for the operations
/// the engine serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionError {
    /// Unknown user id.
    NoSuchUser,
    /// Wrong password.
    BadPassword,
    /// The device address is already bound to a logged-in user.
    AddressInUse,
    /// The user is already logged in from another device.
    AlreadyLoggedIn,
    /// The user is not logged in.
    NotLoggedIn,
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let msg = match self {
            SessionError::NoSuchUser => "no such user",
            SessionError::BadPassword => "wrong password",
            SessionError::AddressInUse => "device address already bound",
            SessionError::AlreadyLoggedIn => "user already logged in",
            SessionError::NotLoggedIn => "user not logged in",
        };
        f.write_str(msg)
    }
}

impl std::error::Error for SessionError {}

/// The outcome of a [`ShardedService::where_is`] query. The path itself
/// is written into the caller's buffer; this carries the scalars.
///
/// Variants mirror [`LocateOutcome`](crate::protocol::LocateOutcome)
/// minus the owned path, and the precondition checks run in the same
/// order as the seed server's.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WhereIs {
    /// Target found; the shortest path is in the caller's buffer.
    Found {
        /// Target's current cell.
        cell: u32,
        /// Walking distance along the path, meters.
        distance: f64,
    },
    /// Target exists but is not logged in.
    NotLoggedIn,
    /// Target is logged in but in no (navigable) cell.
    OutOfCoverage,
    /// Unknown target user id.
    NoSuchUser,
    /// The querier may not locate the target.
    Denied,
    /// The querying user is not logged in.
    QuerierNotLoggedIn,
    /// Malformed request (e.g. `from_cell` beyond the graph).
    BadQuery(ProtocolError),
}

impl WhereIs {
    /// `(code, arg)` for a [`TraceKind::QueryEnd`] event: a stable
    /// outcome discriminant plus the found cell (or `u64::MAX`).
    fn trace_code(&self) -> (u32, u64) {
        match self {
            WhereIs::Found { cell, .. } => (0, u64::from(*cell)),
            WhereIs::NotLoggedIn => (1, u64::MAX),
            WhereIs::OutOfCoverage => (2, u64::MAX),
            WhereIs::NoSuchUser => (3, u64::MAX),
            WhereIs::Denied => (4, u64::MAX),
            WhereIs::QuerierNotLoggedIn => (5, u64::MAX),
            WhereIs::BadQuery(_) => (6, u64::MAX),
        }
    }
}

/// Outcome of [`ShardedService::serve_payload`]: what the server loop
/// should do with the bytes (if any) appended to its output buffer.
#[derive(Debug, Clone, PartialEq)]
pub enum Served {
    /// A response was appended to the caller's output buffer.
    Reply,
    /// A [`Response::ShutdownAck`] was appended; after writing it the
    /// connection should be closed and the listener told to drain.
    Shutdown,
    /// The payload did not decode as a [`Request`]. Nothing was
    /// appended; framing with the peer is unrecoverable, so the
    /// connection should be dropped.
    Malformed(DecodeError),
    /// A well-formed request outside the socket serving subset (a
    /// LAN-simulation message such as `Login` or `PresenceBatch`).
    /// Nothing was appended; the connection should be dropped.
    Unsupported,
}

/// How the engine answers shortest-path questions.
///
/// The seed behaviour — a frozen all-pairs table computed offline —
/// stays the default and keeps the query path entirely lock-free. The
/// dynamic variant wraps a [`PathEngine`] in an `RwLock`: warm-tree
/// queries share the read side (the engine's internal bookkeeping is
/// atomic, so a read guard suffices), topology mutations and cold-tree
/// warmups take the write side. That is a deliberate, bounded exception
/// to the lock-free reading rule, marked at each site for the
/// `serve-lock-reach` lint.
#[derive(Debug)]
enum EnginePaths {
    /// The offline table (paper §2): no topology mutations, no locks.
    Frozen(Apsp),
    /// A live [`PathEngine`] accepting topology mutations over the
    /// wire ([`Request::SetEdgeWeight`] / [`Request::SetNodeUp`]).
    /// Boxed: the engine (tables + cache) dwarfs the frozen variant.
    Dynamic(Box<RwLock<PathEngine>>),
}

/// Anomaly code recorded (and carried in a
/// [`TraceKind::Anomaly`] event) when a path walk hits a corrupt
/// table: distinguishes it from a latency anomaly (0).
pub const ANOMALY_PATH_CORRUPT: u32 = 2;

/// The sharded serving engine. See the [module docs](self) for the
/// design; construction snapshots a [`Registry`], after which the
/// engine is self-contained and [`Sync`] — share it behind an `&` and
/// query from as many threads as you like.
///
/// # Example
///
/// ```
/// use bips_core::registry::{AccessRights, Registry};
/// use bips_core::service::{ShardedService, WhereIs};
/// use bips_core::graph::WsGraph;
/// use bt_baseband::BdAddr;
///
/// let mut reg = Registry::new();
/// let alice = reg.register("alice", "pa", AccessRights::open()).unwrap();
/// let bob = reg.register("bob", "pb", AccessRights::open()).unwrap();
/// let mut g = WsGraph::new(3);
/// g.add_edge(0, 1, 10.0);
/// g.add_edge(1, 2, 10.0);
///
/// let svc = ShardedService::new(&reg, g.precompute_all_pairs(), 4);
/// svc.login(alice.value(), "pa", BdAddr::new(0xA)).unwrap();
/// svc.login(bob.value(), "pb", BdAddr::new(0xB)).unwrap();
/// svc.ingest(BdAddr::new(0xB), 2, true, 1_000_000);
/// svc.flush(1);
///
/// let mut path = Vec::new();
/// let out = svc.where_is(alice.value(), bob.value(), 0, &mut path);
/// assert_eq!(out, WhereIs::Found { cell: 2, distance: 20.0 });
/// assert_eq!(path, vec![0, 1, 2]);
/// ```
#[derive(Debug)]
pub struct ShardedService {
    shards: Box<[Shard]>,
    /// Pending presence notices, per shard, in ingest order.
    pending: Box<[Mutex<Vec<PendingNotice>>]>,
    /// Ingested notices whose address was not bound to any user: their
    /// `(seq)` still occupies an ack position (always `false`).
    dropped: Mutex<Vec<u64>>,
    /// Interned `BD_ADDR` → uid bindings: one flat [`AddrTable`] per
    /// address shard, behind a writer-side mutex.
    /// - The hash ([`addr_hash`]) mixes the run index `addr >> 3` with
    ///   splitmix64 and keeps `addr & 7`, so an aligned run of eight
    ///   addresses sits in eight consecutive slots of one shard. Logins
    ///   and first notices that stream in address order then share
    ///   cache lines, where a fully mixed hash would miss on each one.
    /// - Each table starts at twice the shard's share of the registry's
    ///   users, keeps its load at or below 1/2 by doubling, and deletes
    ///   by backward shift, with no tombstones.
    /// - Only [`login`](ShardedService::login) writes a table, and no
    ///   socket request reaches `login`. A peer's `IngestBatch` can
    ///   probe a table with any address it likes, each probe bounded by
    ///   the table length, but cannot shape the clusters it probes.
    addr_shards: Box<[Mutex<AddrTable>]>,
    /// Notices ignored because their address was unbound.
    ignored: AtomicU64,
    next_seq: AtomicU64,
    num_users: u64,
    shard_bits: u32,
    read_path: ReadPath,
    paths: EnginePaths,
    /// Node count of the graph at construction, cached so the query
    /// path's bounds checks never touch the engine lock.
    num_cells: usize,
    /// Optional request tracer; `None` (the default) keeps the hot
    /// path at a single untaken branch.
    tracer: Option<Arc<Tracer>>,
}

impl ShardedService {
    /// Builds the engine from a registry snapshot and the offline path
    /// table, on the default [`ReadPath::Seqlock`] read path. `nshards`
    /// is rounded up to a power of two.
    ///
    /// Users keep the registry's dense ids; user `uid` lives in shard
    /// `uid & (nshards - 1)` at slot `uid >> log2(nshards)`. Live
    /// sessions are *not* copied — the engine starts with everyone
    /// logged out, like a freshly restarted server.
    ///
    /// # Panics
    ///
    /// Panics if `nshards` is zero or the registry holds more than
    /// `u32::MAX - 1` users (slot indices are 32-bit).
    pub fn new(registry: &Registry, apsp: Apsp, nshards: usize) -> ShardedService {
        Self::new_with_read_path(registry, apsp, nshards, ReadPath::Seqlock)
    }

    /// [`new`](ShardedService::new) with an explicit slot-read
    /// protocol. [`ReadPath::Locked`] exists for differential tests and
    /// locked-vs-seqlock benches; production callers want the default.
    pub fn new_with_read_path(
        registry: &Registry,
        apsp: Apsp,
        nshards: usize,
        read_path: ReadPath,
    ) -> ShardedService {
        let num_cells = apsp.num_nodes();
        Self::new_inner(
            registry,
            EnginePaths::Frozen(apsp),
            num_cells,
            nshards,
            read_path,
        )
    }

    /// Builds the engine over a live [`PathEngine`] instead of a frozen
    /// table: topology mutations ([`Request::SetEdgeWeight`] /
    /// [`Request::SetNodeUp`]) apply over the socket path and queries
    /// answer under the mutated topology. Warm-tree queries take the
    /// engine lock's read side (never the write side), so this mode
    /// trades the frozen table's strict lock-freedom for live topology.
    pub fn new_dynamic(
        registry: &Registry,
        engine: PathEngine,
        nshards: usize,
        read_path: ReadPath,
    ) -> ShardedService {
        let num_cells = engine.num_nodes();
        Self::new_inner(
            registry,
            EnginePaths::Dynamic(Box::new(RwLock::new(engine))),
            num_cells,
            nshards,
            read_path,
        )
    }

    fn new_inner(
        registry: &Registry,
        paths: EnginePaths,
        num_cells: usize,
        nshards: usize,
        read_path: ReadPath,
    ) -> ShardedService {
        assert!(nshards > 0, "need at least one shard");
        let nshards = nshards.next_power_of_two();
        let shard_bits = nshards.trailing_zeros();
        let n = registry.num_users() as u64;
        assert!(n < u64::from(u32::MAX), "slot indices are 32-bit");

        // Shard `s` holds uids `s, s + nshards, s + 2*nshards, …` at
        // slots `0, 1, 2, …` (uid = slot * nshards + s), so filling each
        // shard in uid order needs no indexed writes at all.
        let mut shards: Vec<Shard> = Vec::with_capacity(nshards);
        for s in 0..nshards as u64 {
            let mut hot = Vec::new();
            let mut meta = Vec::new();
            let mut claims = Vec::new();
            let mut uid = s;
            while uid < n {
                // Ids are dense (0..num_users), so the lookup cannot
                // miss; an inert, unmatchable slot keeps the engine
                // total without a panic path if that invariant breaks.
                let m = match registry.record_parts(uid) {
                    Some((rights, salt, digest)) => {
                        let (kind, only): (u32, Box<[u32]>) = match &rights.visibility {
                            Visibility::Everyone => (VIS_EVERYONE, Box::new([])),
                            Visibility::Nobody => (VIS_NOBODY, Box::new([])),
                            Visibility::Only(list) => {
                                let mut l: Vec<u32> =
                                    list.iter().map(|u| u.value() as u32).collect();
                                l.sort_unstable();
                                (VIS_ONLY, l.into_boxed_slice())
                            }
                        };
                        SlotMeta {
                            flags: (kind << VIS_SHIFT) | u32::from(rights.may_query),
                            salt,
                            digest,
                            only,
                        }
                    }
                    None => SlotMeta {
                        flags: VIS_NOBODY << VIS_SHIFT,
                        salt: 0,
                        digest: u64::MAX,
                        only: Box::new([]),
                    },
                };
                hot.push(HotSlot::new());
                meta.push(m);
                claims.push(Vec::new());
                uid += nshards as u64;
            }
            shards.push(Shard {
                hot: hot.into_boxed_slice(),
                meta: meta.into_boxed_slice(),
                writer: RwLock::new(WriterState {
                    claims,
                    applied: 0,
                    redundant: 0,
                }),
                queries: AtomicU64::new(0),
                read_retries: AtomicU64::new(0),
                slot_publishes: AtomicU64::new(0),
            });
        }

        ShardedService {
            shards: shards.into_boxed_slice(),
            pending: (0..nshards).map(|_| Mutex::new(Vec::new())).collect(),
            dropped: Mutex::new(Vec::new()),
            addr_shards: (0..nshards)
                .map(|_| Mutex::new(AddrTable::presized(n, nshards)))
                .collect(),
            ignored: AtomicU64::new(0),
            next_seq: AtomicU64::new(0),
            num_users: n,
            shard_bits,
            read_path,
            paths,
            num_cells,
            tracer: None,
        }
    }

    /// Attaches a request tracer. Events for shard `s` are recorded on
    /// ring `s`, so the tracer should be built with at least
    /// [`num_shards`](ShardedService::num_shards) rings (events against
    /// missing rings are counted as dropped, never panic). Takes `&mut
    /// self`: attach before the engine is shared across threads.
    ///
    /// Tracing is observational only — it writes lock-free,
    /// allocation-free ring events and reads nothing back, so answers
    /// and acks are bit-identical with and without a tracer (the
    /// differential test in the bench crate pins this down).
    pub fn attach_tracer(&mut self, tracer: Arc<Tracer>) {
        self.tracer = Some(tracer);
    }

    /// The attached tracer, if any.
    pub fn tracer(&self) -> Option<&Arc<Tracer>> {
        self.tracer.as_ref()
    }

    /// Number of shards (a power of two).
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Number of users the engine was built with.
    pub fn num_users(&self) -> u64 {
        self.num_users
    }

    /// Which slot-read protocol this engine serves queries with.
    pub fn read_path(&self) -> ReadPath {
        self.read_path
    }

    /// Number of cells (graph nodes) the engine was built over.
    pub fn num_cells(&self) -> usize {
        self.num_cells
    }

    /// The dynamic path engine, when the service was built with
    /// [`new_dynamic`](ShardedService::new_dynamic) — `None` on the
    /// frozen-table default. Drivers mutate topology through the lock's
    /// write side; doing so while queries run is safe (they share the
    /// read side).
    pub fn path_engine(&self) -> Option<&RwLock<PathEngine>> {
        match &self.paths {
            EnginePaths::Frozen(_) => None,
            EnginePaths::Dynamic(lock) => Some(lock),
        }
    }

    /// Total seqlock read retries across all shards (reads that raced
    /// a slot publish and looped). Zero on an uncontended engine.
    pub fn read_retries(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.read_retries.load(Ordering::Relaxed))
            .sum()
    }

    /// Total seqlock slot publishes across all shards (login, logout
    /// and every flushed cell change bump this).
    pub fn slot_publishes(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.slot_publishes.load(Ordering::Relaxed))
            .sum()
    }

    #[inline]
    fn shard_of(&self, uid: u64) -> (usize, usize) {
        (
            (uid & (self.shards.len() as u64 - 1)) as usize,
            (uid >> self.shard_bits) as usize,
        )
    }

    /// The address table for hash `h`.
    #[inline]
    fn addr_table(&self, h: u64) -> Option<&Mutex<AddrTable>> {
        self.addr_shards.get(addr_shard(h, self.addr_shards.len()))
    }

    /// Reads one slot's `(addr, cell)` pair via the engine's configured
    /// read path. `None` only for an out-of-range slot index.
    #[inline]
    fn read_slot(&self, shard: &Shard, slot: usize) -> Option<(u64, u32)> {
        let hot = shard.hot.get(slot)?;
        Some(match self.read_path {
            ReadPath::Seqlock => hot.snapshot(&shard.read_retries),
            ReadPath::Locked => Self::read_slot_locked(shard, hot),
        })
    }

    /// The legacy locked slot read: shares the writer `RwLock`'s read
    /// side, so a flush holding the write side blocks this. Kept
    /// compiled and selectable (see [`ReadPath::Locked`]) as the
    /// differential/bench reference the seqlock path is proven against.
    #[inline]
    fn read_slot_locked(shard: &Shard, hot: &HotSlot) -> (u64, u32) {
        // The selectable lock-based reference the seqlock path is
        // differentially proven against.
        // lint:allow(serve-lock-reach): the ReadPath::Locked legacy read path
        let _guard = read_lock(&shard.writer);
        (
            hot.addr.load(Ordering::Relaxed),
            hot.cell.load(Ordering::Relaxed),
        )
    }

    /// Raw read-path probe of user `uid`'s `(addr, cell)` pair, for the
    /// torn-read stress suite. `None` for an unknown uid.
    #[doc(hidden)]
    pub fn slot_probe(&self, uid: u64) -> Option<(u64, u32)> {
        if uid >= self.num_users {
            return None;
        }
        let (shard, slot) = self.shard_of(uid);
        self.read_slot(self.shards.get(shard)?, slot)
    }

    /// Directly publishes a `(addr, cell)` pair into user `uid`'s hot
    /// slot under the writer lock, bypassing session/presence logic —
    /// the torn-read stress suite's writer primitive. Returns whether
    /// the uid resolved to a slot.
    #[doc(hidden)]
    pub fn debug_publish_slot(&self, uid: u64, addr: u64, cell: u32) -> bool {
        if uid >= self.num_users {
            return false;
        }
        let (shard, slot) = self.shard_of(uid);
        let Some(sh) = self.shards.get(shard) else {
            return false;
        };
        let Some(hot) = sh.hot.get(slot) else {
            return false;
        };
        let _w = write_lock(&sh.writer);
        hot.publish(addr, cell);
        sh.slot_publishes.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Logs user `uid` in from device `addr`, verifying the password
    /// against the snapshotted credentials.
    ///
    /// Lock order: user-shard writer lock then address-shard mutex —
    /// every session operation follows this hierarchy, and the query
    /// and ingest paths never hold both, so the engine cannot deadlock.
    ///
    /// # Errors
    ///
    /// The same failures, checked in the same order, as
    /// [`Registry::login`].
    pub fn login(&self, uid: u64, password: &str, addr: BdAddr) -> Result<(), SessionError> {
        if uid >= self.num_users {
            return Err(SessionError::NoSuchUser);
        }
        let (shard, slot) = self.shard_of(uid);
        let Some(sh) = self.shards.get(shard) else {
            return Err(SessionError::NoSuchUser);
        };
        let _w = write_lock(&sh.writer);
        let Some(meta) = sh.meta.get(slot) else {
            return Err(SessionError::NoSuchUser);
        };
        if crate::registry::digest(meta.salt, password) != meta.digest {
            return Err(SessionError::BadPassword);
        }
        let h = addr_hash(addr.raw());
        let Some(addr_lock) = self.addr_table(h) else {
            return Err(SessionError::AddressInUse);
        };
        let mut addrs = lock_mutex(addr_lock);
        let Some(Err(vacant)) = addrs.probe(addr.raw(), h) else {
            return Err(SessionError::AddressInUse);
        };
        let Some(hot) = sh.hot.get(slot) else {
            return Err(SessionError::NoSuchUser);
        };
        // Stable under the writer lock: all hot-slot publishes for this
        // shard happen with that lock held.
        if hot.addr.load(Ordering::Relaxed) != NO_ADDR {
            return Err(SessionError::AlreadyLoggedIn);
        }
        addrs.insert(vacant, addr.raw(), h, uid as u32);
        hot.publish(addr.raw(), hot.cell.load(Ordering::Relaxed));
        sh.slot_publishes.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Ends `uid`'s session and forgets its presence (the seed server's
    /// logout housekeeping: `LocationDb::forget`).
    ///
    /// # Errors
    ///
    /// [`SessionError::NotLoggedIn`] if no session exists (or the uid is
    /// unknown).
    pub fn logout(&self, uid: u64) -> Result<(), SessionError> {
        if uid >= self.num_users {
            return Err(SessionError::NotLoggedIn);
        }
        let (shard, slot) = self.shard_of(uid);
        let Some(sh) = self.shards.get(shard) else {
            return Err(SessionError::NotLoggedIn);
        };
        let mut w = write_lock(&sh.writer);
        let Some(hot) = sh.hot.get(slot) else {
            return Err(SessionError::NotLoggedIn);
        };
        let addr = hot.addr.load(Ordering::Relaxed);
        if addr == NO_ADDR {
            return Err(SessionError::NotLoggedIn);
        }
        hot.publish(NO_ADDR, NO_CELL);
        sh.slot_publishes.fetch_add(1, Ordering::Relaxed);
        let h = addr_hash(addr);
        if let Some(addr_lock) = self.addr_table(h) {
            lock_mutex(addr_lock).remove(addr, h);
        }
        if let Some(claims) = w.claims.get_mut(slot) {
            claims.clear();
        }
        Ok(())
    }

    /// Buffers one update-on-change presence notice. Nothing is visible
    /// to queries until [`flush`](ShardedService::flush).
    ///
    /// Returns the notice's ack position: index `seq` of the vector the
    /// next `flush` returns. Notices for addresses not bound to any
    /// logged-in user are counted as ignored and ack `false`.
    pub fn ingest(&self, addr: BdAddr, cell: u32, present: bool, since_us: u64) -> u64 {
        self.ingest_traced(addr, cell, present, since_us, SpanId::NONE)
    }

    /// [`ingest`](ShardedService::ingest) carrying the request's span
    /// id (e.g. from an `IngestBatch` RPC frame): when a tracer is
    /// attached, a [`TraceKind::Ingest`] event is recorded on the
    /// target shard's ring for every notice that reaches a pending
    /// queue.
    pub fn ingest_traced(
        &self,
        addr: BdAddr,
        cell: u32,
        present: bool,
        since_us: u64,
        span: SpanId,
    ) -> u64 {
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        let h = addr_hash(addr.raw());
        let uid = self
            .addr_table(h)
            // lint:allow(serve-lock-reach): writer-side — ingest resolves the device binding under the address mutex; the query read path never calls ingest
            .and_then(|lock| lock_mutex(lock).get(addr.raw(), h));
        let queued = match uid {
            Some(uid) => {
                let (shard, slot) = self.shard_of(u64::from(uid));
                match self.pending.get(shard) {
                    Some(queue) => {
                        // lint:allow(serve-lock-reach): writer-side — the pending queue mutex is an ingest/flush handoff, untouched by slot reads
                        lock_mutex(queue).push(PendingNotice {
                            seq,
                            slot: slot as u32,
                            cell,
                            present,
                            since_us,
                        });
                        if let Some(t) = &self.tracer {
                            t.record(shard, TraceKind::Ingest, span, shard as u16, cell, seq);
                        }
                        true
                    }
                    None => false,
                }
            }
            None => false,
        };
        if !queued {
            self.ignored.fetch_add(1, Ordering::Relaxed);
            // lint:allow(serve-lock-reach): writer-side — dropped-seq bookkeeping for ack reassembly, only reached from the ingest path
            lock_mutex(&self.dropped).push(seq);
        }
        seq
    }

    /// Applies every pending notice, using up to `jobs` worker threads
    /// (one per shard at most; `jobs <= 1` runs inline).
    ///
    /// Each shard takes its writer lock **once**, applies its queue in
    /// ingest order, and releases. Every cell change is published
    /// per-slot with odd/even seq fencing, so a seqlock reader observes
    /// each slot either before or after its update — and the result is
    /// bit-identical for every `jobs` value. Returns the per-notice
    /// "changed state" acks indexed by the sequence numbers
    /// [`ingest`](ShardedService::ingest) returned (offset by the count
    /// consumed in earlier flushes).
    pub fn flush(&self, jobs: usize) -> Vec<bool> {
        let nshards = self.shards.len();
        let per_shard: Vec<Vec<(u64, bool)>> =
            par::run_indexed(nshards as u64, jobs.clamp(1, nshards), |s| {
                self.flush_shard(s as usize)
            });
        let mut acks: Vec<(u64, bool)> = per_shard.into_iter().flatten().collect();
        // lint:allow(serve-lock-reach): writer-side — drains the dropped-seq ledger while reassembling acks; slot reads never touch it
        acks.extend(lock_mutex(&self.dropped).drain(..).map(|seq| (seq, false)));
        acks.sort_unstable_by_key(|&(seq, _)| seq);
        acks.into_iter().map(|(_, changed)| changed).collect()
    }

    /// Applies one shard's queue under a single writer-lock acquisition.
    fn flush_shard(&self, shard: usize) -> Vec<(u64, bool)> {
        let (Some(queue_lock), Some(sh)) = (self.pending.get(shard), self.shards.get(shard)) else {
            return Vec::new();
        };
        // lint:allow(serve-lock-reach): writer-side — takes the pending queue for this flush; the queue mutex is never reader-visible
        let mut queue = std::mem::take(&mut *lock_mutex(queue_lock));
        if queue.is_empty() {
            return Vec::new();
        }
        let mut acks = Vec::with_capacity(queue.len());
        {
            // lint:allow(serve-lock-reach): writer-side — flush serializes against other writers on the writer lock; seqlock readers never take it
            let mut w = write_lock(&sh.writer);
            for n in &queue {
                let changed = Self::apply_notice(sh, &mut w, n);
                if changed {
                    w.applied += 1;
                } else {
                    w.redundant += 1;
                }
                acks.push((n.seq, changed));
            }
        }
        // Hand the drained buffer back so steady-state ingest reuses its
        // capacity instead of reallocating every tick.
        queue.clear();
        // lint:allow(serve-lock-reach): writer-side — returns the drained buffer to the ingest path (capacity reuse), same queue mutex as above
        let mut pending = lock_mutex(queue_lock);
        if pending.is_empty() {
            *pending = queue;
        }
        if let Some(t) = &self.tracer {
            t.record(
                shard,
                TraceKind::Flush,
                SpanId::NONE,
                shard as u16,
                shard as u32,
                acks.len() as u64,
            );
        }
        acks
    }

    /// One notice against one slot, mirroring `LocationDb::apply`:
    /// a new presence claim becomes the current cell unconditionally; an
    /// absence falls back to the most recent remaining claim. A changed
    /// cell is published through the slot's seqlock.
    fn apply_notice(sh: &Shard, w: &mut WriterState, n: &PendingNotice) -> bool {
        let slot = n.slot as usize;
        let Some(claims) = w.claims.get_mut(slot) else {
            return false;
        };
        let new_cell = if n.present {
            if claims.iter().any(|&(c, _)| c == n.cell) {
                return false;
            }
            claims.push((n.cell, n.since_us));
            n.cell
        } else {
            let Some(pos) = claims.iter().position(|&(c, _)| c == n.cell) else {
                return false;
            };
            claims.swap_remove(pos);
            claims
                .iter()
                .max_by_key(|&&(_, since)| since)
                .map_or(NO_CELL, |&(c, _)| c)
        };
        if let Some(hot) = sh.hot.get(slot) {
            hot.publish(hot.addr.load(Ordering::Relaxed), new_cell);
            sh.slot_publishes.fetch_add(1, Ordering::Relaxed);
        }
        true
    }

    /// Answers "where is user `target`?" for querier `querier` standing
    /// in `from_cell`, writing the shortest path into `path_out`.
    ///
    /// Precondition checks run in the seed server's order: querier
    /// session, target existence, visibility policy, target session,
    /// target coverage, then request well-formedness. On the default
    /// seqlock read path the call acquires **no lock at all** — two
    /// slot snapshots and two immutable metadata reads — and performs
    /// **no heap allocation** once `path_out` has warmed to the longest
    /// path in the building (the property the allocation-counting test
    /// in the bench crate pins down). The `serve-lock-reach` lint rule
    /// keeps this path lock-free at the source level.
    pub fn where_is(
        &self,
        querier: u64,
        target: u64,
        from_cell: usize,
        path_out: &mut Vec<NodeId>,
    ) -> WhereIs {
        self.where_is_traced(querier, target, from_cell, path_out, SpanId::NONE)
    }

    /// [`where_is`](ShardedService::where_is) carrying the request's
    /// span id: when a tracer is attached, [`TraceKind::QueryStart`] /
    /// [`TraceKind::QueryEnd`] events bracket the query on the
    /// querier's shard ring. Recording is lock-free and
    /// allocation-free, so the zero-allocs-per-query pin holds with
    /// tracing enabled.
    pub fn where_is_traced(
        &self,
        querier: u64,
        target: u64,
        from_cell: usize,
        path_out: &mut Vec<NodeId>,
        span: SpanId,
    ) -> WhereIs {
        let Some(t) = &self.tracer else {
            return self.where_is_inner(querier, target, from_cell, path_out);
        };
        let ring = if querier < self.num_users {
            self.shard_of(querier).0
        } else {
            0
        };
        t.record(
            ring,
            TraceKind::QueryStart,
            span,
            ring as u16,
            from_cell as u32,
            target,
        );
        let out = self.where_is_inner(querier, target, from_cell, path_out);
        let (code, arg) = out.trace_code();
        t.record(ring, TraceKind::QueryEnd, span, ring as u16, code, arg);
        out
    }

    fn where_is_inner(
        &self,
        querier: u64,
        target: u64,
        from_cell: usize,
        path_out: &mut Vec<NodeId>,
    ) -> WhereIs {
        let (q_shard, q_slot) = if querier < self.num_users {
            self.shard_of(querier)
        } else {
            (0, usize::MAX)
        };
        if let Some(sh) = self.shards.get(q_shard) {
            sh.queries.fetch_add(1, Ordering::Relaxed);
        }
        let q_flags = {
            if q_slot == usize::MAX {
                return WhereIs::QuerierNotLoggedIn;
            }
            let Some(sh) = self.shards.get(q_shard) else {
                return WhereIs::QuerierNotLoggedIn;
            };
            let Some(meta) = sh.meta.get(q_slot) else {
                return WhereIs::QuerierNotLoggedIn;
            };
            let Some((q_addr, _)) = self.read_slot(sh, q_slot) else {
                return WhereIs::QuerierNotLoggedIn;
            };
            if q_addr == NO_ADDR {
                return WhereIs::QuerierNotLoggedIn;
            }
            meta.flags
        };
        if target >= self.num_users {
            return WhereIs::NoSuchUser;
        }
        let (t_shard, t_slot) = self.shard_of(target);
        let (t_addr, t_cell) = {
            let Some(sh) = self.shards.get(t_shard) else {
                return WhereIs::NoSuchUser;
            };
            let Some(meta) = sh.meta.get(t_slot) else {
                return WhereIs::NoSuchUser;
            };
            let visible = match meta.flags >> VIS_SHIFT {
                VIS_EVERYONE => true,
                VIS_NOBODY => false,
                _ => meta.only.binary_search(&(querier as u32)).is_ok(),
            };
            if q_flags & FLAG_MAY_QUERY == 0 || !visible {
                return WhereIs::Denied;
            }
            let Some(pair) = self.read_slot(sh, t_slot) else {
                return WhereIs::NoSuchUser;
            };
            pair
        };
        if t_addr == NO_ADDR {
            return WhereIs::NotLoggedIn;
        }
        if t_cell == NO_CELL {
            return WhereIs::OutOfCoverage;
        }
        let n = self.num_cells;
        if t_cell as usize >= n {
            // Target in a cell beyond the navigable graph: out of
            // coverage, exactly like the seed.
            return WhereIs::OutOfCoverage;
        }
        if from_cell >= n {
            return WhereIs::BadQuery(ProtocolError::CellOutOfRange {
                cell: from_cell as u32,
                num_cells: n as u32,
            });
        }
        match self.walk_path(from_cell, t_cell as usize, path_out) {
            Ok(Some(distance)) => WhereIs::Found {
                cell: t_cell,
                distance,
            },
            Ok(None) => WhereIs::OutOfCoverage,
            Err(_) => {
                // A corrupt table is a serving-side defect, never the
                // client's fault: record an anomaly event for the
                // flight recorder and answer with a typed error
                // instead of panicking the serving thread.
                if let Some(t) = &self.tracer {
                    t.record(
                        q_shard,
                        TraceKind::Anomaly,
                        SpanId::NONE,
                        q_shard as u16,
                        ANOMALY_PATH_CORRUPT,
                        t_cell as u64,
                    );
                }
                WhereIs::BadQuery(ProtocolError::PathCorrupt {
                    from: from_cell as u32,
                    to: t_cell,
                })
            }
        }
    }

    /// One shortest-path walk through whichever engine the service was
    /// built with. The frozen table reads with no synchronization; the
    /// dynamic engine answers warm queries under the read lock and only
    /// escalates to the write lock to warm a cold source tree.
    fn walk_path(
        &self,
        from_cell: usize,
        to_cell: usize,
        path_out: &mut Vec<NodeId>,
    ) -> Result<Option<f64>, PathWalkError> {
        match &self.paths {
            EnginePaths::Frozen(apsp) => apsp.try_path_into(from_cell, to_cell, path_out),
            EnginePaths::Dynamic(lock) => {
                {
                    // lint:allow(serve-lock-reach): dynamic-engine mode — warm-tree reads share the engine RwLock's read side; the frozen default never takes it
                    let eng = read_lock(lock);
                    if let WarmQuery::Ready(d) = eng.query_warm(from_cell, to_cell, path_out)? {
                        return Ok(d);
                    }
                }
                // Cold source tree: warm it under the write lock, then
                // answer. Hit at most once per (source, epoch).
                // lint:allow(serve-lock-reach): dynamic-engine mode — cold-tree warmup is a bounded write-side escalation
                let mut eng = write_lock(lock);
                eng.warm(from_cell);
                match eng.query_warm(from_cell, to_cell, path_out)? {
                    WarmQuery::Ready(d) => Ok(d),
                    // warm() just installed this source at the current
                    // epoch; a second Cold means the engine cannot hold
                    // the tree — serve it as corruption, not a panic.
                    WarmQuery::Cold => Err(PathWalkError::BrokenPrevChain {
                        from: from_cell as u32,
                        to: to_cell as u32,
                    }),
                }
            }
        }
    }

    /// The user's current cell (most recent presence), if any.
    pub fn current_cell(&self, uid: u64) -> Option<u32> {
        if uid >= self.num_users {
            return None;
        }
        let (shard, slot) = self.shard_of(uid);
        let (_, cell) = self.read_slot(self.shards.get(shard)?, slot)?;
        (cell != NO_CELL).then_some(cell)
    }

    /// All cells currently claiming the user, sorted (overlapping
    /// coverage), for state comparison in tests. Reads the writer-side
    /// claim set, so it takes the writer lock's read side regardless of
    /// the configured read path.
    pub fn cells_of(&self, uid: u64) -> Vec<u32> {
        if uid >= self.num_users {
            return Vec::new();
        }
        let (shard, slot) = self.shard_of(uid);
        let Some(sh) = self.shards.get(shard) else {
            return Vec::new();
        };
        let w = read_lock(&sh.writer);
        let mut v: Vec<u32> = w
            .claims
            .get(slot)
            .map(|c| c.iter().map(|&(cell, _)| cell).collect())
            .unwrap_or_default();
        v.sort_unstable();
        v
    }

    /// Whether the user is logged in.
    pub fn is_logged_in(&self, uid: u64) -> bool {
        if uid >= self.num_users {
            return false;
        }
        let (shard, slot) = self.shard_of(uid);
        self.shards
            .get(shard)
            .and_then(|sh| self.read_slot(sh, slot))
            .is_some_and(|(addr, _)| addr != NO_ADDR)
    }

    /// Exports per-shard counters (`core.service.shard{i}.queries` /
    /// `.applied` / `.redundant` / `.read_retries`) plus engine-wide
    /// aggregates (including `core.service.slot_publishes`) into a
    /// [`MetricSet`], for run reports.
    pub fn export_metrics(&self, metrics: &mut MetricSet) {
        let mut q_total = 0;
        let mut a_total = 0;
        let mut r_total = 0;
        let mut retry_total = 0;
        for (i, sh) in self.shards.iter().enumerate() {
            let (applied, redundant) = {
                let w = read_lock(&sh.writer);
                (w.applied, w.redundant)
            };
            let q = sh.queries.load(Ordering::Relaxed);
            let retries = sh.read_retries.load(Ordering::Relaxed);
            metrics.set_counter(&format!("core.service.shard{i}.queries"), q);
            metrics.set_counter(&format!("core.service.shard{i}.applied"), applied);
            metrics.set_counter(&format!("core.service.shard{i}.redundant"), redundant);
            metrics.set_counter(&format!("core.service.shard{i}.read_retries"), retries);
            q_total += q;
            a_total += applied;
            r_total += redundant;
            retry_total += retries;
        }
        metrics.set_counter("core.service.queries", q_total);
        metrics.set_counter("core.service.applied", a_total);
        metrics.set_counter("core.service.redundant", r_total);
        metrics.set_counter("core.service.read_retries", retry_total);
        metrics.set_counter("core.service.slot_publishes", self.slot_publishes());
        metrics.set_counter("core.service.ignored", self.ignored.load(Ordering::Relaxed));
        if let EnginePaths::Dynamic(lock) = &self.paths {
            read_lock(lock).export_metrics(metrics);
        }
    }

    /// Serves one decoded-from-the-socket request payload, appending
    /// the encoded response to `out`.
    ///
    /// This is the entry point `bips-serve` calls for every frame a
    /// connection delivers. It handles exactly the serving-path subset
    /// of the protocol:
    ///
    /// * [`Request::WhereIs`] → [`Response::LocateResult`] bytes,
    ///   encoded straight from the zero-allocation
    ///   [`where_is`](ShardedService::where_is) answer (`path_scratch`
    ///   is the reusable path buffer) without building an intermediate
    ///   [`LocateOutcome`](crate::protocol::LocateOutcome) — the
    ///   steady-state query path allocates only when `out` grows.
    /// * [`Request::IngestBatch`] → [`Response::IngestAck`]; notice
    ///   `i` is stamped `base_us + i` so a batch preserves the
    ///   client's observation order.
    /// * [`Request::Flush`] → [`Response::FlushAck`] with the acks of
    ///   [`flush(flush_jobs)`](ShardedService::flush), in global
    ///   sequence order.
    /// * [`Request::Shutdown`] → [`Response::ShutdownAck`] and
    ///   [`Served::Shutdown`].
    ///
    /// Anything else is [`Served::Malformed`] / [`Served::Unsupported`]
    /// and appends nothing. The method never panics on peer-controlled
    /// input.
    pub fn serve_payload(
        &self,
        payload: &[u8],
        flush_jobs: usize,
        path_scratch: &mut Vec<NodeId>,
        out: &mut Vec<u8>,
    ) -> Served {
        let req = match Request::decode(payload) {
            Ok(req) => req,
            Err(e) => return Served::Malformed(e),
        };
        match req {
            Request::WhereIs {
                querier,
                target,
                from_cell,
            } => {
                let result = self.where_is(querier, target, from_cell as usize, path_scratch);
                encode_where_is_into(out, &result, path_scratch);
                Served::Reply
            }
            Request::IngestBatch { base_us, items } => {
                let queued = items.len() as u32;
                for (i, n) in items.iter().enumerate() {
                    self.ingest(n.addr, n.cell, n.present, base_us.saturating_add(i as u64));
                }
                out.extend_from_slice(&Response::IngestAck { queued }.encode());
                Served::Reply
            }
            Request::Flush => {
                let acks = self.flush(flush_jobs);
                out.extend_from_slice(&Response::FlushAck { acks }.encode());
                Served::Reply
            }
            Request::Shutdown => {
                out.extend_from_slice(&Response::ShutdownAck.encode());
                Served::Shutdown
            }
            // Topology mutations apply only when the service was built
            // with a dynamic engine; the frozen table is immutable by
            // design and rejects them like any LAN-simulation message.
            Request::SetEdgeWeight { a, b, weight } => match &self.paths {
                EnginePaths::Frozen(_) => Served::Unsupported,
                EnginePaths::Dynamic(lock) => {
                    // lint:allow(serve-lock-reach): dynamic-engine mode — topology mutations are writes and serialize on the engine lock
                    let mut eng = write_lock(lock);
                    let applied = eng
                        .set_edge_weight(a as usize, b as usize, weight)
                        .unwrap_or(false);
                    let epoch = eng.epoch();
                    drop(eng);
                    out.extend_from_slice(&Response::TopologyAck { applied, epoch }.encode());
                    Served::Reply
                }
            },
            Request::SetNodeUp { node, up } => match &self.paths {
                EnginePaths::Frozen(_) => Served::Unsupported,
                EnginePaths::Dynamic(lock) => {
                    // lint:allow(serve-lock-reach): dynamic-engine mode — topology mutations are writes and serialize on the engine lock
                    let mut eng = write_lock(lock);
                    let applied = eng.set_node_up(node as usize, up).unwrap_or(false);
                    let epoch = eng.epoch();
                    drop(eng);
                    out.extend_from_slice(&Response::TopologyAck { applied, epoch }.encode());
                    Served::Reply
                }
            },
            _ => Served::Unsupported,
        }
    }
}

/// Appends the [`Response::LocateResult`] wire encoding of a
/// [`WhereIs`] answer (path supplied separately, from the caller's
/// scratch buffer) directly to `out`.
///
/// Byte-identical to encoding via
/// [`Response::encode`](crate::protocol::Response::encode) — pinned by
/// the `serve_payload_where_is_encoding_matches_response_encode` test —
/// but with no intermediate `LocateOutcome` (and so no path clone) on
/// the per-query path.
fn encode_where_is_into(out: &mut Vec<u8>, result: &WhereIs, path: &[NodeId]) {
    out.push(TAG_LOCATE_RESULT);
    match result {
        WhereIs::Found { cell, distance } => {
            out.push(OUTCOME_FOUND);
            out.extend_from_slice(&cell.to_le_bytes());
            out.extend_from_slice(&distance.to_bits().to_le_bytes());
            out.extend_from_slice(&(path.len() as u32).to_le_bytes());
            for &n in path {
                out.extend_from_slice(&(n as u32).to_le_bytes());
            }
        }
        WhereIs::NotLoggedIn => out.push(OUTCOME_NOT_LOGGED_IN),
        WhereIs::OutOfCoverage => out.push(OUTCOME_OUT_OF_COVERAGE),
        WhereIs::NoSuchUser => out.push(OUTCOME_NO_SUCH_USER),
        WhereIs::Denied => out.push(OUTCOME_DENIED),
        WhereIs::QuerierNotLoggedIn => out.push(OUTCOME_QUERIER_NOT_LOGGED_IN),
        WhereIs::BadQuery(ProtocolError::CellOutOfRange { cell, num_cells }) => {
            out.push(OUTCOME_BAD_QUERY);
            out.push(PROTO_ERR_CELL_OUT_OF_RANGE);
            out.extend_from_slice(&cell.to_le_bytes());
            out.extend_from_slice(&num_cells.to_le_bytes());
        }
        WhereIs::BadQuery(ProtocolError::PathCorrupt { from, to }) => {
            out.push(OUTCOME_BAD_QUERY);
            out.push(PROTO_ERR_PATH_CORRUPT);
            out.extend_from_slice(&from.to_le_bytes());
            out.extend_from_slice(&to.to_le_bytes());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::WsGraph;
    use crate::registry::AccessRights;

    fn line_graph(n: usize) -> Apsp {
        let mut g = WsGraph::new(n);
        for i in 0..n - 1 {
            g.add_edge(i, i + 1, 10.0);
        }
        g.precompute_all_pairs()
    }

    fn service(users: usize, shards: usize) -> ShardedService {
        service_with(users, shards, ReadPath::Seqlock)
    }

    fn service_with(users: usize, shards: usize, path: ReadPath) -> ShardedService {
        let mut reg = Registry::new();
        for i in 0..users {
            reg.register(&format!("user{i}"), "pw", AccessRights::open())
                .unwrap();
        }
        ShardedService::new_with_read_path(&reg, line_graph(8), shards, path)
    }

    fn addr(uid: u64) -> BdAddr {
        BdAddr::new(1000 + uid)
    }

    #[test]
    fn login_checks_in_registry_order() {
        for path in [ReadPath::Seqlock, ReadPath::Locked] {
            let svc = service_with(3, 2, path);
            assert_eq!(svc.login(9, "pw", addr(9)), Err(SessionError::NoSuchUser));
            assert_eq!(svc.login(0, "no", addr(0)), Err(SessionError::BadPassword));
            svc.login(0, "pw", addr(0)).unwrap();
            assert_eq!(svc.login(1, "pw", addr(0)), Err(SessionError::AddressInUse));
            assert_eq!(
                svc.login(0, "pw", addr(7)),
                Err(SessionError::AlreadyLoggedIn)
            );
            assert!(svc.is_logged_in(0));
            svc.logout(0).unwrap();
            assert_eq!(svc.logout(0), Err(SessionError::NotLoggedIn));
        }
    }

    #[test]
    fn batched_presence_matches_update_on_change_semantics() {
        let svc = service(2, 4);
        svc.login(0, "pw", addr(0)).unwrap();
        // Overlap: cells 2 then 3 claim the user; newest wins.
        svc.ingest(addr(0), 2, true, 10);
        svc.ingest(addr(0), 3, true, 20);
        // Redundant re-announce of 2.
        svc.ingest(addr(0), 2, true, 30);
        assert_eq!(svc.current_cell(0), None, "invisible before flush");
        assert_eq!(svc.flush(2), vec![true, true, false]);
        assert_eq!(svc.current_cell(0), Some(3));
        assert_eq!(svc.cells_of(0), vec![2, 3]);
        // Leaving the newest cell falls back to the older claim.
        svc.ingest(addr(0), 3, false, 40);
        assert_eq!(svc.flush(1), vec![true]);
        assert_eq!(svc.current_cell(0), Some(2));
        // Unknown address: ignored, acked false.
        svc.ingest(BdAddr::new(0xDEAD), 1, true, 50);
        assert_eq!(svc.flush(1), vec![false]);
        let mut m = MetricSet::new();
        svc.export_metrics(&mut m);
        assert_eq!(m.counter_value("core.service.ignored"), Some(1));
        assert_eq!(m.counter_value("core.service.applied"), Some(3));
        assert_eq!(m.counter_value("core.service.redundant"), Some(1));
        // Uncontended single-thread use never retries a read, and every
        // applied change published exactly one slot (plus the login).
        assert_eq!(m.counter_value("core.service.read_retries"), Some(0));
        assert_eq!(m.counter_value("core.service.slot_publishes"), Some(4));
    }

    #[test]
    fn where_is_precondition_order_matches_seed() {
        for path in [ReadPath::Seqlock, ReadPath::Locked] {
            let mut reg = Registry::new();
            let a = reg.register("alice", "pa", AccessRights::open()).unwrap();
            let b = reg.register("bob", "pb", AccessRights::open()).unwrap();
            let g = reg
                .register("ghost", "pg", AccessRights::invisible())
                .unwrap();
            let svc = ShardedService::new_with_read_path(&reg, line_graph(3), 2, path);
            let (a, b, g) = (a.value(), b.value(), g.value());
            let mut path_buf = Vec::new();

            assert_eq!(
                svc.where_is(a, b, 0, &mut path_buf),
                WhereIs::QuerierNotLoggedIn
            );
            svc.login(a, "pa", addr(a)).unwrap();
            assert_eq!(svc.where_is(a, 99, 0, &mut path_buf), WhereIs::NoSuchUser);
            assert_eq!(svc.where_is(a, g, 0, &mut path_buf), WhereIs::Denied);
            assert_eq!(svc.where_is(a, b, 0, &mut path_buf), WhereIs::NotLoggedIn);
            svc.login(b, "pb", addr(b)).unwrap();
            assert_eq!(svc.where_is(a, b, 0, &mut path_buf), WhereIs::OutOfCoverage);
            svc.ingest(addr(b), 2, true, 1);
            svc.flush(1);
            // Malformed from_cell is a typed error, like the seed's fix.
            assert_eq!(
                svc.where_is(a, b, 7, &mut path_buf),
                WhereIs::BadQuery(ProtocolError::CellOutOfRange {
                    cell: 7,
                    num_cells: 3
                })
            );
            assert_eq!(
                svc.where_is(a, b, 0, &mut path_buf),
                WhereIs::Found {
                    cell: 2,
                    distance: 20.0
                }
            );
            assert_eq!(path_buf, vec![0, 1, 2]);
            // A target beyond the graph is out of coverage, not an error.
            svc.ingest(addr(b), 9, true, 2);
            svc.flush(1);
            assert_eq!(svc.where_is(a, b, 0, &mut path_buf), WhereIs::OutOfCoverage);
        }
    }

    /// The seqlock read path takes no lock: a query whose querier and
    /// target share a shard is answered while a writer holds that
    /// shard's lock. The locked path is the control that shows the test
    /// can see a blocked reader.
    #[test]
    fn a_held_writer_lock_stalls_only_locked_reads() {
        use std::sync::mpsc;
        use std::time::Duration;
        for read_path in [ReadPath::Seqlock, ReadPath::Locked] {
            // Users 1 and 3 both live in shard 1 of 2.
            let svc = service_with(4, 2, read_path);
            let (querier, target) = (1, 3);
            svc.login(querier, "pw", addr(querier)).unwrap();
            svc.login(target, "pw", addr(target)).unwrap();
            svc.ingest(addr(target), 5, true, 1);
            svc.flush(1);
            let mut free_path = Vec::new();
            let free = svc.where_is(querier, target, 0, &mut free_path);
            assert!(matches!(free, WhereIs::Found { cell: 5, .. }));

            let svc = &svc;
            std::thread::scope(|s| {
                let guard = write_lock(&svc.shards[1].writer);
                let (tx, rx) = mpsc::channel();
                s.spawn(move || {
                    let mut path = Vec::new();
                    let out = svc.where_is(querier, target, 0, &mut path);
                    // The receiver is gone only if the test already failed.
                    let _ = tx.send((out, path));
                });
                let answer = match read_path {
                    ReadPath::Seqlock => rx
                        .recv_timeout(Duration::from_secs(10))
                        .expect("a seqlock read waited on the writer lock"),
                    ReadPath::Locked => {
                        assert!(
                            rx.recv_timeout(Duration::from_millis(50)).is_err(),
                            "a locked read answered through a held writer lock"
                        );
                        drop(guard);
                        rx.recv_timeout(Duration::from_secs(10))
                            .expect("the locked read never resumed")
                    }
                };
                assert_eq!(answer, (free, free_path.clone()), "{read_path:?}");
            });
        }
    }

    #[test]
    fn only_list_visibility_uses_slot_meta() {
        let mut reg = Registry::new();
        let a = reg.register("alice", "pw", AccessRights::open()).unwrap();
        let _b = reg.register("bob", "pw", AccessRights::open()).unwrap();
        let f = reg
            .register(
                "friend",
                "pw",
                AccessRights {
                    may_query: true,
                    visibility: Visibility::Only(vec![a]),
                },
            )
            .unwrap();
        let svc = ShardedService::new(&reg, line_graph(3), 4);
        let mut path = Vec::new();
        for uid in [a.value(), 1, f.value()] {
            svc.login(uid, "pw", addr(uid)).unwrap();
        }
        svc.ingest(addr(f.value()), 1, true, 1);
        svc.flush(1);
        assert!(matches!(
            svc.where_is(a.value(), f.value(), 0, &mut path),
            WhereIs::Found { .. }
        ));
        assert_eq!(svc.where_is(1, f.value(), 0, &mut path), WhereIs::Denied);
    }

    #[test]
    fn flush_acks_are_job_count_invariant() {
        let run = |jobs: usize, path: ReadPath| -> (Vec<bool>, Vec<Option<u32>>) {
            let svc = service_with(16, 4, path);
            for uid in 0..16 {
                svc.login(uid, "pw", addr(uid)).unwrap();
            }
            let mut acks = Vec::new();
            let mut ts = 0;
            for round in 0..5u64 {
                for uid in 0..16u64 {
                    ts += 1;
                    let cell = ((uid + round) % 8) as u32;
                    svc.ingest(addr(uid), cell, round % 3 != 2, ts);
                }
                acks.extend(svc.flush(jobs));
            }
            let cells = (0..16).map(|u| svc.current_cell(u)).collect();
            (acks, cells)
        };
        let base = run(1, ReadPath::Seqlock);
        assert_eq!(run(4, ReadPath::Seqlock), base);
        assert_eq!(run(8, ReadPath::Seqlock), base);
        // The read path is orthogonal to flush determinism.
        assert_eq!(run(1, ReadPath::Locked), base);
        assert_eq!(run(4, ReadPath::Locked), base);
    }

    #[test]
    fn logout_forgets_presence() {
        let svc = service(2, 2);
        svc.login(0, "pw", addr(0)).unwrap();
        svc.ingest(addr(0), 1, true, 1);
        svc.flush(1);
        assert_eq!(svc.current_cell(0), Some(1));
        svc.logout(0).unwrap();
        assert_eq!(svc.current_cell(0), None);
        assert!(svc.cells_of(0).is_empty());
        // The address unbinds: same device can serve another user.
        svc.login(1, "pw", addr(0)).unwrap();
    }

    /// The torn-read primitives: a probe snapshot always returns a pair
    /// that was published as a unit, and the publish protocol leaves
    /// the seq word even (stable) when the writer is done.
    #[test]
    fn slot_probe_round_trips_published_pairs() {
        let svc = service(4, 2);
        assert_eq!(svc.slot_probe(0), Some((NO_ADDR, NO_CELL)));
        assert!(svc.debug_publish_slot(0, 0xAAAA, 7));
        assert_eq!(svc.slot_probe(0), Some((0xAAAA, 7)));
        assert!(!svc.debug_publish_slot(99, 1, 1));
        assert_eq!(svc.slot_probe(99), None);
        assert!(svc.slot_publishes() >= 1);
        assert_eq!(svc.read_retries(), 0);
    }

    /// Pin: the zero-intermediate `serve_payload` WhereIs encoding is
    /// byte-identical to routing the same answer through
    /// [`Response::LocateResult`] + [`Response::encode`], for every
    /// outcome variant.
    #[test]
    fn serve_payload_where_is_encoding_matches_response_encode() {
        use crate::protocol::LocateOutcome;
        let mut reg = Registry::new();
        let a = reg.register("alice", "pa", AccessRights::open()).unwrap();
        let b = reg.register("bob", "pb", AccessRights::open()).unwrap();
        let c = reg.register("carol", "pc", AccessRights::open()).unwrap();
        let d = reg.register("dave", "pd", AccessRights::open()).unwrap();
        let g = reg
            .register("ghost", "pg", AccessRights::invisible())
            .unwrap();
        let svc = ShardedService::new(&reg, line_graph(8), 2);
        let (a, b, c, d, g) = (a.value(), b.value(), c.value(), d.value(), g.value());
        svc.login(a, "pa", addr(a)).unwrap();
        svc.login(b, "pb", addr(b)).unwrap();
        svc.login(d, "pd", addr(d)).unwrap();
        svc.login(g, "pg", addr(g)).unwrap();
        svc.ingest(addr(b), 5, true, 1);
        svc.flush(1);

        // One case per WhereIs variant: Found, BadQuery, NoSuchUser,
        // Denied, NotLoggedIn (carol), OutOfCoverage (dave, no cell),
        // QuerierNotLoggedIn (carol queries).
        let cases = [
            (a, b, 0u32),
            (a, b, 99),
            (a, 77, 0),
            (a, g, 0),
            (a, c, 0),
            (a, d, 0),
            (c, b, 0),
        ];
        let mut path = Vec::new();
        let mut check = Vec::new();
        let mut out = Vec::new();
        for (querier, target, from_cell) in cases {
            let payload = Request::WhereIs {
                querier,
                target,
                from_cell,
            }
            .encode();
            out.clear();
            assert_eq!(
                svc.serve_payload(&payload, 1, &mut path, &mut out),
                Served::Reply
            );
            let outcome = match svc.where_is(querier, target, from_cell as usize, &mut check) {
                WhereIs::Found { cell, distance } => LocateOutcome::Found {
                    cell,
                    path: check.iter().map(|&n| n as u32).collect(),
                    distance,
                },
                WhereIs::NotLoggedIn => LocateOutcome::NotLoggedIn,
                WhereIs::OutOfCoverage => LocateOutcome::OutOfCoverage,
                WhereIs::NoSuchUser => LocateOutcome::NoSuchUser,
                WhereIs::Denied => LocateOutcome::Denied,
                WhereIs::QuerierNotLoggedIn => LocateOutcome::QuerierNotLoggedIn,
                WhereIs::BadQuery(e) => LocateOutcome::BadQuery(e),
            };
            assert_eq!(
                out,
                Response::LocateResult(outcome).encode(),
                "divergence for ({querier}, {target}, {from_cell})"
            );
        }
    }

    fn dynamic_service(users: usize, shards: usize, cells: usize) -> ShardedService {
        use crate::graph::{PathEngineKind, WsGraph};
        let mut reg = Registry::new();
        for i in 0..users {
            reg.register(&format!("user{i}"), "pw", AccessRights::open())
                .unwrap();
        }
        let mut g = WsGraph::new(cells);
        for i in 0..cells - 1 {
            g.add_edge(i, i + 1, 10.0);
        }
        ShardedService::new_dynamic(
            &reg,
            PathEngine::new(PathEngineKind::Dynamic, g),
            shards,
            ReadPath::Seqlock,
        )
    }

    /// Topology mutations over the socket path reroute subsequent
    /// queries, and the frozen-table default rejects them.
    #[test]
    fn serve_payload_topology_mutations() {
        let svc = dynamic_service(2, 2, 8);
        svc.login(0, "pw", addr(0)).unwrap();
        svc.login(1, "pw", addr(1)).unwrap();
        svc.ingest(addr(1), 7, true, 1);
        svc.flush(1);
        let mut path = Vec::new();
        let mut out = Vec::new();

        assert_eq!(
            svc.where_is(0, 1, 0, &mut path),
            WhereIs::Found {
                cell: 7,
                distance: 70.0
            }
        );
        // A 0–7 shortcut over the wire.
        let req = Request::SetEdgeWeight {
            a: 0,
            b: 7,
            weight: 5.0,
        }
        .encode();
        assert_eq!(
            svc.serve_payload(&req, 1, &mut path, &mut out),
            Served::Reply
        );
        assert_eq!(
            out,
            Response::TopologyAck {
                applied: true,
                epoch: 1
            }
            .encode()
        );
        assert_eq!(
            svc.where_is(0, 1, 0, &mut path),
            WhereIs::Found {
                cell: 7,
                distance: 5.0
            }
        );
        assert_eq!(path, vec![0, 7]);

        // Taking down cell 7's workstation makes the target unreachable.
        out.clear();
        let req = Request::SetNodeUp { node: 7, up: false }.encode();
        assert_eq!(
            svc.serve_payload(&req, 1, &mut path, &mut out),
            Served::Reply
        );
        assert_eq!(
            out,
            Response::TopologyAck {
                applied: true,
                epoch: 2
            }
            .encode()
        );
        assert_eq!(svc.where_is(0, 1, 0, &mut path), WhereIs::OutOfCoverage);

        // …and bringing it back restores the shortcut bit-identically.
        out.clear();
        let req = Request::SetNodeUp { node: 7, up: true }.encode();
        assert_eq!(
            svc.serve_payload(&req, 1, &mut path, &mut out),
            Served::Reply
        );
        assert_eq!(
            svc.where_is(0, 1, 0, &mut path),
            WhereIs::Found {
                cell: 7,
                distance: 5.0
            }
        );

        // Invalid mutation: no-op ack, epoch untouched.
        out.clear();
        let req = Request::SetEdgeWeight {
            a: 0,
            b: 99,
            weight: 1.0,
        }
        .encode();
        assert_eq!(
            svc.serve_payload(&req, 1, &mut path, &mut out),
            Served::Reply
        );
        assert_eq!(
            out,
            Response::TopologyAck {
                applied: false,
                epoch: 3
            }
            .encode()
        );

        // The frozen-table default rejects topology mutations.
        let frozen = service(2, 2);
        out.clear();
        let req = Request::SetNodeUp { node: 1, up: false }.encode();
        assert_eq!(
            frozen.serve_payload(&req, 1, &mut path, &mut out),
            Served::Unsupported
        );
        assert!(out.is_empty());
        assert!(frozen.path_engine().is_none());
        assert!(svc.path_engine().is_some());
    }

    /// The dynamic engine exports its `core.graph.*` counters through
    /// the service's metric export.
    #[test]
    fn dynamic_engine_metrics_are_exported() {
        let svc = dynamic_service(2, 2, 8);
        svc.login(0, "pw", addr(0)).unwrap();
        svc.login(1, "pw", addr(1)).unwrap();
        svc.ingest(addr(1), 3, true, 1);
        svc.flush(1);
        let mut path = Vec::new();
        assert!(matches!(
            svc.where_is(0, 1, 2, &mut path),
            WhereIs::Found { .. }
        ));
        let mut m = MetricSet::new();
        svc.export_metrics(&mut m);
        for name in [
            "core.graph.tree_repairs",
            "core.graph.vertices_touched",
            "core.graph.epoch_invalidations",
            "core.graph.cache_misses",
            "core.graph.cache_hits",
        ] {
            assert!(m.counter_value(name).is_some(), "missing {name}");
        }
        // The frozen default exports no graph counters.
        let frozen = service(2, 2);
        let mut m = MetricSet::new();
        frozen.export_metrics(&mut m);
        assert_eq!(m.counter_value("core.graph.tree_repairs"), None);
    }

    /// A corrupt path table surfaces as a typed `BadQuery`, records an
    /// anomaly trace event, and never panics the serving thread.
    #[test]
    fn corrupt_tables_serve_typed_errors_and_trace_anomalies() {
        use desim::tracing::Tracer;
        let mut reg = Registry::new();
        let a = reg.register("alice", "pa", AccessRights::open()).unwrap();
        let b = reg.register("bob", "pb", AccessRights::open()).unwrap();
        let mut g = crate::graph::WsGraph::new(4);
        for i in 0..3 {
            g.add_edge(i, i + 1, 10.0);
        }
        let mut apsp = g.precompute_all_pairs();
        apsp.debug_break_prev(0, 3);
        let mut svc = ShardedService::new(&reg, apsp, 2);
        let tracer = Arc::new(Tracer::new(svc.num_shards(), 64));
        svc.attach_tracer(Arc::clone(&tracer));
        let (a, b) = (a.value(), b.value());
        svc.login(a, "pa", addr(a)).unwrap();
        svc.login(b, "pb", addr(b)).unwrap();
        svc.ingest(addr(b), 3, true, 1);
        svc.flush(1);
        let mut path = Vec::new();
        assert_eq!(
            svc.where_is(a, b, 0, &mut path),
            WhereIs::BadQuery(ProtocolError::PathCorrupt { from: 0, to: 3 })
        );
        let anomalies: Vec<_> = tracer
            .last_events(64)
            .into_iter()
            .filter(|e| e.kind == TraceKind::Anomaly)
            .collect();
        assert_eq!(anomalies.len(), 1);
        assert_eq!(anomalies[0].code, ANOMALY_PATH_CORRUPT);
        // The wire encoding round-trips through the protocol layer.
        let mut out = Vec::new();
        let req = Request::WhereIs {
            querier: a,
            target: b,
            from_cell: 0,
        }
        .encode();
        assert_eq!(
            svc.serve_payload(&req, 1, &mut path, &mut out),
            Served::Reply
        );
        assert_eq!(
            out,
            Response::LocateResult(crate::protocol::LocateOutcome::BadQuery(
                ProtocolError::PathCorrupt { from: 0, to: 3 }
            ))
            .encode()
        );
    }

    /// `serve_payload` drives the full socket serving cycle — batch
    /// ingest, flush acks in global sequence order, graceful shutdown —
    /// and rejects garbage and LAN-simulation requests without
    /// panicking or replying.
    #[test]
    fn serve_payload_covers_the_serving_cycle() {
        use crate::protocol::Notice;
        let svc = service(2, 2);
        svc.login(0, "pw", addr(0)).unwrap();
        let mut path = Vec::new();
        let mut out = Vec::new();

        let batch = Request::IngestBatch {
            base_us: 100,
            items: vec![
                Notice {
                    cell: 2,
                    addr: addr(0),
                    present: true,
                },
                Notice {
                    cell: 3,
                    addr: addr(0),
                    present: true,
                },
                Notice {
                    cell: 2,
                    addr: addr(0),
                    present: true,
                },
            ],
        }
        .encode();
        assert_eq!(
            svc.serve_payload(&batch, 1, &mut path, &mut out),
            Served::Reply
        );
        assert_eq!(out, Response::IngestAck { queued: 3 }.encode());

        out.clear();
        assert_eq!(
            svc.serve_payload(&Request::Flush.encode(), 2, &mut path, &mut out),
            Served::Reply
        );
        // Same acks `flush` itself would have produced: applied,
        // applied, redundant re-announce.
        assert_eq!(
            out,
            Response::FlushAck {
                acks: vec![true, true, false]
            }
            .encode()
        );
        assert_eq!(svc.current_cell(0), Some(3));

        out.clear();
        assert_eq!(
            svc.serve_payload(&[0xFF, 0x01], 1, &mut path, &mut out),
            Served::Malformed(DecodeError::BadTag(0xFF))
        );
        assert_eq!(
            svc.serve_payload(
                &Request::Logout { addr: addr(0) }.encode(),
                1,
                &mut path,
                &mut out
            ),
            Served::Unsupported
        );
        assert!(out.is_empty(), "rejections must not reply");

        assert_eq!(
            svc.serve_payload(&Request::Shutdown.encode(), 1, &mut path, &mut out),
            Served::Shutdown
        );
        assert_eq!(out, Response::ShutdownAck.encode());
    }

    /// The address index `login` builds for `addrs`, user `i` bound to
    /// `addrs[i]`, over `nshards` tables presized for that many users.
    fn addr_index(addrs: &[u64], nshards: usize) -> Vec<AddrTable> {
        let mut tables: Vec<AddrTable> = (0..nshards)
            .map(|_| AddrTable::presized(addrs.len() as u64, nshards))
            .collect();
        for (uid, &a) in addrs.iter().enumerate() {
            let h = addr_hash(a);
            let table = &mut tables[addr_shard(h, nshards)];
            let Some(Err(vacant)) = table.probe(a, h) else {
                panic!("{a:#x} bound twice");
            };
            table.insert(vacant, a, h, uid as u32);
        }
        tables
    }

    /// Slots visited by one lookup of each of `addrs`, summed: from the
    /// home slot to the slot that binds the address or to the empty
    /// slot that ends its probe.
    fn total_probes(tables: &[AddrTable], addrs: &[u64]) -> u64 {
        let mut total = 0;
        for &a in addrs {
            let h = addr_hash(a);
            let table = &tables[addr_shard(h, tables.len())];
            let (Ok(end) | Err(end)) = table.probe(a, h).expect("a table with an empty slot");
            total += ((end.wrapping_sub(h as usize) & (table.slots.len() - 1)) + 1) as u64;
        }
        total
    }

    /// Exact probe counts, the same on every host: a hash change that
    /// clusters addresses, or a probe or insertion change that walks
    /// further, moves them.
    #[test]
    fn addr_index_probe_counts_are_pinned() {
        const N: u64 = 50_000;
        // The benchmark's layout: user `uid` at `0x1_0000 + uid`, and the
        // next N addresses unbound.
        let bound: Vec<u64> = (0..N).map(|uid| 0x1_0000 + uid).collect();
        let unbound: Vec<u64> = (N..2 * N).map(|uid| 0x1_0000 + uid).collect();
        let tables = addr_index(&bound, 16);
        assert!(
            tables.iter().all(|t| t.slots.len() == 8192),
            "a shard outgrew its presized table"
        );
        assert_eq!(
            (
                total_probes(&tables, &bound),
                total_probes(&tables, &unbound)
            ),
            (176_080, 310_076),
            "benchmark layout: probes for the bound and the unbound addresses"
        );

        // Uniform 48-bit addresses drawn by splitmix64.
        let drawn: Vec<u64> = (0..2 * N)
            .map(|i| splitmix64(i) & ((1 << 48) - 1))
            .collect();
        let mut distinct = drawn.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), drawn.len(), "draws collide");
        let (bound, unbound) = drawn.split_at(N as usize);
        let tables = addr_index(bound, 16);
        assert_eq!(
            (total_probes(&tables, bound), total_probes(&tables, unbound)),
            (65_197, 89_764),
            "drawn addresses: probes for the bound and the unbound addresses"
        );
    }

    /// The benchmark's 1M logins into 16 shards: the fullest shard
    /// stays within half its presized table, so set-up never doubles a
    /// table.
    #[test]
    fn benchmark_logins_fit_the_presized_tables() {
        const USERS: u64 = 1_000_000;
        let mut share = [0u64; 16];
        for uid in 0..USERS {
            share[addr_shard(addr_hash(0x1_0000 + uid), 16)] += 1;
        }
        let slots = AddrTable::presized(USERS, 16).slots.len();
        assert_eq!(slots, 131_072);
        assert_eq!(share.iter().max(), Some(&64_200));
    }
}
