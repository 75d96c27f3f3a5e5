//! The radio medium: devices, events, hearings, collisions, links.
//!
//! [`Baseband`] owns every modeled radio (masters = BIPS workstations,
//! slaves = handhelds) and advances them event by event. It is written
//! against [`SubScheduler`] so it runs standalone (see
//! [`world::BasebandWorld`](crate::world::BasebandWorld)) or embedded in a
//! larger simulation such as the full BIPS system.
//!
//! The interesting physics all happens here:
//!
//! * a master in the inquiry phase transmits two ID packets per even slot
//!   along its current train ([`inquiry`](crate::inquiry));
//! * a slave hears an ID iff it is in radio range, its scan machine is
//!   listening for inquiry at that instant, and its scan frequency equals
//!   the transmitted frequency;
//! * FHS responses scheduled for the same master at the same instant
//!   **collide** and are all lost (the mechanism the paper added to
//!   BlueHoc) — unless collisions are disabled for ablation;
//! * discovered devices can be paged during the master's service phase
//!   and then exchange data until range loss trips the supervision
//!   timeout.

use std::collections::{BTreeMap, VecDeque};

use desim::compose::SubScheduler;
use desim::{EventId, SimDuration, SimRng, SimTime, DEFAULT_RANK};

use crate::addr::BdAddr;
use crate::clock::{NativeClock, CLKN_12_PERIOD, SLOT_PAIR, TICK};
use crate::hop::{InquiryFreq, Train, NUM_INQUIRY_FREQS};
use crate::inquiry::InquiryState;
use crate::link::Link;
use crate::page::{completion_time, PageAttempt};
use crate::params::{
    MasterConfig, MediumConfig, PageModel, ScanFreqModel, SlaveConfig, StartTrain,
};
use crate::scan::{ScanAction, ScanKind, ScanMachine, ScanPhase, WindowSchedule};
use crate::schedule::{Phase, PhasePlan};

/// The train selected by a clock at an instant: bit 14 of CLKN flips
/// every 2.56 s, the train-repetition period.
fn train_from_clock(clock: &NativeClock, at: SimTime) -> Train {
    if (clock.clkn(at) >> 14) & 1 == 0 {
        Train::A
    } else {
        Train::B
    }
}

/// Maximum simultaneously active slaves in one piconet (spec: a 3-bit
/// active member address, 7 slaves plus the master).
pub const MAX_ACTIVE_SLAVES: usize = 7;

/// Identifies a master (a BIPS workstation radio) within one [`Baseband`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MasterId(usize);

impl MasterId {
    /// Creates an id from a raw index (as returned by
    /// [`Baseband::add_master`]).
    pub fn new(index: usize) -> MasterId {
        MasterId(index)
    }

    /// The raw index.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Identifies a slave (a handheld radio) within one [`Baseband`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SlaveId(usize);

impl SlaveId {
    /// Creates an id from a raw index (as returned by
    /// [`Baseband::add_slave`]).
    pub fn new(index: usize) -> SlaveId {
        SlaveId(index)
    }

    /// The raw index.
    pub fn index(self) -> usize {
        self.0
    }
}

/// A baseband event. Opaque: embedders wrap it in their own event enum and
/// hand it back to [`Baseband::handle`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BbEvent(Ev);

#[derive(Debug, Clone, PartialEq, Eq)]
enum Ev {
    /// Bootstrap: start all configured devices.
    Start,
    /// Master even-slot inquiry transmission.
    InqTx { master: usize, epoch: u32 },
    /// Master duty-cycle boundary.
    PhaseBoundary { master: usize, epoch: u32 },
    /// Slave regular scan-window open (index = which window).
    WindowOpen {
        slave: usize,
        epoch: u32,
        index: u64,
    },
    /// Slave scan-window close.
    WindowClose { slave: usize, epoch: u32 },
    /// Slave response backoff finished.
    BackoffEnd { slave: usize, epoch: u32 },
    /// All FHS responses aimed at `master` for the instant keyed `key`.
    FhsRx { master: usize, key: u64 },
    /// An in-flight page attempt reaches a decision instant (analytic
    /// model).
    PageResolve {
        master: usize,
        slave: usize,
        attempt: u32,
    },
    /// Slot-accurate paging: the master's next page-ID transmission.
    PageTx { master: usize, attempt: u32 },
    /// A data message finishes its transfer.
    DataDelivered {
        master: usize,
        slave: usize,
        payload: Vec<u8>,
    },
    /// Link supervision check after a range loss.
    SupervisionCheck { master: usize, slave: usize },
    /// Scripted command (public API action delivered as an event).
    Cmd(Command),
}

impl Ev {
    /// Where the event runs among the events of its instant. The eager
    /// chain and skip-ahead both follow this one table, so they dispatch
    /// every instant identically: a slave's scan timers first, in the
    /// order `apply_timers` applies them, then each master's inquiry
    /// transmission in master order, then everything else — and every
    /// event of an embedding world — in the order it was scheduled.
    fn rank(&self) -> u32 {
        match *self {
            Ev::WindowClose { .. } => 0,
            Ev::WindowOpen { .. } => 1,
            Ev::BackoffEnd { .. } => 2,
            Ev::InqTx { master, .. } => inq_tx_rank(master),
            _ => DEFAULT_RANK,
        }
    }
}

/// The rank of master `m`'s `InqTx` (see [`Ev::rank`]).
fn inq_tx_rank(m: usize) -> u32 {
    let rank = 3 + m as u64;
    assert!(
        rank < u64::from(DEFAULT_RANK),
        "master {m} has no calendar rank"
    );
    rank as u32
}

/// Schedules `ev` at `at` with its rank. Every medium event is scheduled
/// here, so none can miss its place in the table.
fn schedule<S: SubScheduler<BbEvent>>(s: &mut S, at: SimTime, ev: Ev) -> EventId {
    s.schedule_ranked(at, ev.rank(), BbEvent(ev))
}

/// Schedules master `m`'s next slot-accurate page ID of attempt `seq`.
fn schedule_page_tx<S: SubScheduler<BbEvent>>(s: &mut S, m: usize, seq: u32, at: SimTime) {
    schedule(
        s,
        at,
        Ev::PageTx {
            master: m,
            attempt: seq,
        },
    );
}

/// A scripted action, schedulable like any other event — lets tests,
/// examples and experiment harnesses drive the medium's public API at
/// chosen instants without writing a custom [`World`](desim::World).
#[derive(Debug, Clone, PartialEq, Eq)]
enum Command {
    SetInRange(MasterId, SlaveId, bool),
    RequestPage(MasterId, SlaveId),
    SendData(MasterId, SlaveId, Vec<u8>),
    Disconnect(MasterId, SlaveId),
    SetSlaveActive(SlaveId, bool),
}

impl BbEvent {
    /// The bootstrap event: schedule it once at the simulation start to
    /// launch every configured device (standalone worlds do this for you).
    pub fn start() -> BbEvent {
        BbEvent(Ev::Start)
    }

    /// Scripted [`Baseband::set_in_range`].
    pub fn set_in_range(master: MasterId, slave: SlaveId, in_range: bool) -> BbEvent {
        BbEvent(Ev::Cmd(Command::SetInRange(master, slave, in_range)))
    }

    /// Scripted [`Baseband::request_page`].
    pub fn request_page(master: MasterId, slave: SlaveId) -> BbEvent {
        BbEvent(Ev::Cmd(Command::RequestPage(master, slave)))
    }

    /// Scripted [`Baseband::send_data`]; a missing link is silently
    /// dropped (scripts cannot observe errors).
    pub fn send_data(master: MasterId, slave: SlaveId, payload: Vec<u8>) -> BbEvent {
        BbEvent(Ev::Cmd(Command::SendData(master, slave, payload)))
    }

    /// Scripted [`Baseband::disconnect`].
    pub fn disconnect(master: MasterId, slave: SlaveId) -> BbEvent {
        BbEvent(Ev::Cmd(Command::Disconnect(master, slave)))
    }

    /// Scripted [`Baseband::set_slave_active`].
    pub fn set_slave_active(slave: SlaveId, active: bool) -> BbEvent {
        BbEvent(Ev::Cmd(Command::SetSlaveActive(slave, active)))
    }

    /// A short name for the event's kind, for a per-kind event census:
    /// `inq_tx`, `phase_boundary`, `window_open`, `window_close`,
    /// `backoff_end`, `fhs_rx`, `page_resolve`, `page_tx`,
    /// `data_delivered`, `supervision_check` or `cmd` (a scripted command
    /// or the bootstrap).
    pub fn kind(&self) -> &'static str {
        &self.census_label()["bb.".len()..]
    }

    /// [`kind`](BbEvent::kind) under the `bb.` prefix, the class an
    /// engine probe counts the event in (`engine.events.bb.<kind>`).
    pub fn census_label(&self) -> &'static str {
        match self.0 {
            Ev::InqTx { .. } => "bb.inq_tx",
            Ev::PhaseBoundary { .. } => "bb.phase_boundary",
            Ev::WindowOpen { .. } => "bb.window_open",
            Ev::WindowClose { .. } => "bb.window_close",
            Ev::BackoffEnd { .. } => "bb.backoff_end",
            Ev::FhsRx { .. } => "bb.fhs_rx",
            Ev::PageResolve { .. } => "bb.page_resolve",
            Ev::PageTx { .. } => "bb.page_tx",
            Ev::DataDelivered { .. } => "bb.data_delivered",
            Ev::SupervisionCheck { .. } => "bb.supervision_check",
            Ev::Start | Ev::Cmd(_) => "bb.cmd",
        }
    }
}

/// One successful FHS reception (a device discovery).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Discovery {
    /// The discovering master.
    pub master: MasterId,
    /// The discovered slave.
    pub slave: SlaveId,
    /// When the master received the FHS.
    pub at: SimTime,
}

/// Things the baseband tells its embedder (drained via
/// [`Baseband::drain_notifications`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BbNotification {
    /// First FHS reception for this (master, slave) pair since the last
    /// reset.
    Discovered(Discovery),
    /// Every successful FHS reception (repeat sightings included) — the
    /// signal a BIPS workstation uses to refresh a device's presence.
    FhsSeen {
        /// The receiving master.
        master: MasterId,
        /// The sighted slave.
        slave: SlaveId,
        /// When.
        at: SimTime,
    },
    /// Two or more FHS responses collided at a master.
    FhsCollision {
        /// The master whose receive window was hit.
        master: MasterId,
        /// The slaves whose responses were destroyed.
        slaves: Vec<SlaveId>,
        /// When.
        at: SimTime,
    },
    /// A page attempt succeeded; the link is up.
    LinkEstablished {
        /// The piconet master.
        master: MasterId,
        /// The now-connected slave.
        slave: SlaveId,
        /// When.
        at: SimTime,
    },
    /// A page attempt timed out.
    PageFailed {
        /// The paging master.
        master: MasterId,
        /// The unreachable slave.
        slave: SlaveId,
        /// When the master gave up.
        at: SimTime,
    },
    /// A link was torn down (supervision timeout or explicit disconnect).
    LinkLost {
        /// The piconet master.
        master: MasterId,
        /// The disconnected slave.
        slave: SlaveId,
        /// When.
        at: SimTime,
    },
    /// A data message was delivered over a link.
    DataDelivered {
        /// Sending/receiving master.
        master: MasterId,
        /// The slave endpoint.
        slave: SlaveId,
        /// The message bytes (crossed the link in DM1 packets).
        payload: Vec<u8>,
        /// When.
        at: SimTime,
    },
}

/// Medium-wide counters, exposed for tests and experiment reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BbStats {
    /// ID packets transmitted by masters.
    pub ids_transmitted: u64,
    /// ID packets heard by slaves.
    pub ids_heard: u64,
    /// Backoffs begun by slaves.
    pub backoffs: u64,
    /// FHS responses transmitted by slaves.
    pub fhs_transmitted: u64,
    /// FHS responses successfully received.
    pub fhs_received: u64,
    /// FHS responses destroyed by collisions.
    pub fhs_collided: u64,
    /// FHS responses lost because the master had left the inquiry phase.
    pub fhs_missed_phase: u64,
    /// Page attempts begun.
    pub pages_started: u64,
    /// Pages completing in a connection.
    pub pages_completed: u64,
    /// Pages abandoned at timeout.
    pub pages_failed: u64,
    /// Links lost (supervision or explicit).
    pub links_lost: u64,
    /// Data messages delivered.
    pub data_delivered: u64,
}

/// Error returned by [`Baseband::send_data`] when no link exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NoLinkError {
    /// The master endpoint of the missing link.
    pub master: MasterId,
    /// The slave endpoint of the missing link.
    pub slave: SlaveId,
}

impl std::fmt::Display for NoLinkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "no link between master {} and slave {}",
            self.master.index(),
            self.slave.index()
        )
    }
}

impl std::error::Error for NoLinkError {}

struct MasterDev {
    clock: NativeClock,
    plan: PhasePlan,
    inq: InquiryState,
    start_policy: StartTrain,
    start_train: Train,
    epoch: u32,
    paging: Option<(PageAttempt, u32)>,
    page_attempt_seq: u32,
    page_queue: VecDeque<SlaveId>,
    /// Skip-ahead bookkeeping; `Some` exactly while the master is inside
    /// an inquiry phase with the skip-ahead scheduler enabled.
    skip: Option<SkipChain>,
}

/// Lazy accounting for a master's inquiry chain under skip-ahead.
///
/// Slot pairs on the inquiry grid before `from` are fully accounted
/// (`ids_transmitted`, train position); pairs from `from` onwards are
/// pending. They are settled in closed form — proven deaf, so no RNG
/// draws or state changes are lost — when the next audible pair fires,
/// when an audibility-increasing transition re-aims the chain, when the
/// phase ends, or when the engine quiesces at a `run_until` boundary.
struct SkipChain {
    /// First unaccounted slot pair on the master's even-slot grid.
    from: SimTime,
    /// Pending `InqTx` and the pair it fires at, the predicted next
    /// audible pair; `None` while no in-range scanning slave can hear this
    /// phase at all (the chain is dormant until a wake-up transition).
    event: Option<(EventId, SimTime)>,
}

struct SlaveDev {
    addr: BdAddr,
    windows: WindowSchedule,
    machine: ScanMachine,
    freq_rot: u8,
    epoch: u32,
    active: bool,
    halt_when_discovered: bool,
    connected_to: Option<MasterId>,
    /// Whether a live scan-window chain is armed. The skip-ahead
    /// predictor must treat a slave whose chain died (halted after
    /// discovery, connected, deactivated) as deaf forever — its
    /// [`WindowSchedule`] keeps ticking on paper, but no event will ever
    /// reopen a window until a control transition re-arms the chain.
    scanning: bool,
    /// Start of the window that pending `WindowOpen` will open. A
    /// sleeping machine is deaf before this even if the schedule shows
    /// an earlier window on paper (re-armed chains skip partial windows).
    next_window_start: SimTime,
    /// Index of the window opening at `next_window_start`.
    next_index: u64,
    /// Whether the pending open is a closed-form timer (skip-ahead)
    /// rather than a scheduled `WindowOpen` event.
    window_virtual: bool,
    /// Closed-form close of the last opened window (`MAX` if none).
    close_at: SimTime,
}

impl SlaveDev {
    /// The inquiry-sequence position this slave listens on at `now`:
    /// its clock phase walks it one position per 1.28 s.
    fn scan_freq(&self, now: SimTime) -> InquiryFreq {
        let steps = now.elapsed().div_duration(crate::clock::CLKN_12_PERIOD);
        InquiryFreq::new(((self.freq_rot as u64 + steps) % NUM_INQUIRY_FREQS as u64) as u8)
    }

    /// Opens window `k` in closed form, as the eager `WindowOpen` handler
    /// does, arming its close and the next open. Returns `true` if the
    /// open breaks the predictor's extrapolation: a page window
    /// interrupting a primed slave's open-ended listen.
    fn open_window(&mut self, k: u64) -> bool {
        let at = self.windows.window_start(k);
        let close = at + self.windows.pattern().window();
        let kind = self.windows.window_kind(k);
        let breaks = kind == ScanKind::Page && self.machine.is_primed();
        self.machine.open_window(at, kind, close);
        self.close_at = close;
        self.next_index = k + 1;
        self.next_window_start = self.windows.window_start(k + 1);
        self.window_virtual = true;
        breaks
    }

    /// The earliest scan transition pending — a closed-form timer or the
    /// chain's scheduled first window — or `MAX`.
    fn next_due(&self) -> SimTime {
        let open = if self.scanning {
            self.next_window_start
        } else {
            SimTime::MAX
        };
        let backoff = match self.machine.phase() {
            ScanPhase::Backoff { until } => until,
            _ => SimTime::MAX,
        };
        self.close_at.min(open).min(backoff)
    }
}

/// A set of `(row, column)` index pairs, one bit per pair packed into
/// `u64` words per row. Hot loops test and iterate it with shifts and
/// `trailing_zeros`, without hashing or tree walks, and iterating a
/// row's words visits its columns in ascending order — the order the
/// determinism of the RNG draws and wake-ups relies on.
#[derive(Default)]
struct PairBits {
    /// `rows[r]` is row `r`'s column bitset, grown on demand.
    rows: Vec<Vec<u64>>,
}

impl PairBits {
    /// Adds the pair; returns `true` if it was absent.
    fn insert(&mut self, r: usize, c: usize) -> bool {
        if self.rows.len() <= r {
            self.rows.resize_with(r + 1, Vec::new);
        }
        let row = &mut self.rows[r];
        let w = c / 64;
        if row.len() <= w {
            row.resize(w + 1, 0);
        }
        let bit = 1u64 << (c % 64);
        let absent = row[w] & bit == 0;
        row[w] |= bit;
        absent
    }

    fn remove(&mut self, r: usize, c: usize) {
        if let Some(word) = self.rows.get_mut(r).and_then(|row| row.get_mut(c / 64)) {
            *word &= !(1u64 << (c % 64));
        }
    }

    /// Number of words in row `r`.
    #[inline]
    fn row_words(&self, r: usize) -> usize {
        self.rows.get(r).map_or(0, Vec::len)
    }

    /// Word `w` of row `r` (0 when out of bounds).
    #[inline]
    fn word(&self, r: usize, w: usize) -> u64 {
        self.rows
            .get(r)
            .and_then(|row| row.get(w))
            .copied()
            .unwrap_or(0)
    }

    fn clear(&mut self) {
        self.rows.clear();
    }
}

/// One slave in a master's coverage, with the master's cached
/// skip-ahead prediction for it.
#[derive(Clone, Copy)]
struct Covered {
    slave: u32,
    /// The slave's prediction generation this entry was solved under;
    /// 0 marks a dropped prediction.
    gen: u32,
    /// The predicted pair: every pair on the master's grid before it is
    /// deaf for this slave (see `slave_next_audible`).
    pair: SimTime,
    /// The chain may reuse `pair` while its first unaccounted pair is at
    /// or before this instant; a solve from any such pair gives the same
    /// answer.
    valid_until: SimTime,
}

/// Radio coverage, kept twice: by master, as an ascending list of
/// covered slaves carrying the master's cached predictions, for the
/// inquiry loops that walk one master's slaves; and transposed, as a
/// pair bitset by slave, for the wake-ups that walk the masters covering
/// one slave. Both orders are ascending — the order of a scan over all
/// devices, which the RNG draws and wake-ups rely on.
#[derive(Default)]
struct RangeMatrix {
    /// `by_master[m]` lists the slaves in master `m`'s coverage.
    by_master: Vec<Vec<Covered>>,
    /// Row `sl` holds the masters covering slave `sl`.
    by_slave: PairBits,
}

impl RangeMatrix {
    /// Puts `sl` in `m`'s coverage with no prediction cached.
    fn insert(&mut self, m: usize, sl: usize) {
        if self.by_master.len() <= m {
            self.by_master.resize_with(m + 1, Vec::new);
        }
        let row = &mut self.by_master[m];
        let entry = Covered {
            slave: sl as u32,
            gen: 0,
            pair: SimTime::ZERO,
            valid_until: SimTime::ZERO,
        };
        match row.binary_search_by_key(&(sl as u32), |c| c.slave) {
            Ok(i) => row[i] = entry,
            Err(i) => row.insert(i, entry),
        }
        self.by_slave.insert(sl, m);
    }

    fn remove(&mut self, m: usize, sl: usize) {
        if let Some(row) = self.by_master.get_mut(m) {
            if let Ok(i) = row.binary_search_by_key(&(sl as u32), |c| c.slave) {
                row.remove(i);
            }
        }
        self.by_slave.remove(sl, m);
    }

    fn contains(&self, m: usize, sl: usize) -> bool {
        self.by_master
            .get(m)
            .is_some_and(|row| row.binary_search_by_key(&(sl as u32), |c| c.slave).is_ok())
    }

    /// Number of slaves in master `m`'s coverage.
    #[inline]
    fn covered(&self, m: usize) -> usize {
        self.by_master.get(m).map_or(0, Vec::len)
    }

    /// The `i`-th slave (ascending) in master `m`'s coverage.
    #[inline]
    fn entry(&self, m: usize, i: usize) -> Covered {
        self.by_master[m][i]
    }
}

/// In-flight FHS response buckets, keyed by `(master, response offset)`.
///
/// A sorted scratch `Vec` with recycled responder buffers: at most a
/// handful of buckets are live at once (responses resolve within a slot),
/// so binary search over a dense array beats a `HashMap` — and reusing
/// drained responder `Vec`s removes the per-response allocation entirely.
#[derive(Default)]
struct FhsBuckets {
    live: Vec<((usize, u64), Vec<usize>)>,
    spare: Vec<Vec<usize>>,
}

impl FhsBuckets {
    /// Appends `responder` to the bucket for `key`, creating it (from a
    /// recycled buffer when available) if absent. Returns `true` if this
    /// call created the bucket — i.e. the responder is the first.
    fn push(&mut self, key: (usize, u64), responder: usize) -> bool {
        match self.live.binary_search_by(|(k, _)| k.cmp(&key)) {
            Ok(i) => {
                self.live[i].1.push(responder);
                false
            }
            Err(i) => {
                let mut buf = self.spare.pop().unwrap_or_default();
                buf.push(responder);
                self.live.insert(i, (key, buf));
                true
            }
        }
    }

    /// Removes and returns the bucket for `key`, if any. Return the buffer
    /// via [`recycle`](FhsBuckets::recycle) once drained.
    fn take(&mut self, key: (usize, u64)) -> Option<Vec<usize>> {
        match self.live.binary_search_by(|(k, _)| k.cmp(&key)) {
            Ok(i) => Some(self.live.remove(i).1),
            Err(_) => None,
        }
    }

    /// Returns a drained responder buffer to the reuse pool.
    fn recycle(&mut self, mut buf: Vec<usize>) {
        buf.clear();
        self.spare.push(buf);
    }
}

/// The Bluetooth radio medium: all masters, slaves, links and in-flight
/// responses.
///
/// See the [crate docs](crate) for a runnable example.
pub struct Baseband {
    cfg: MediumConfig,
    masters: Vec<MasterDev>,
    slaves: Vec<SlaveDev>,
    in_range: RangeMatrix,
    fhs_buckets: FhsBuckets,
    discoveries: Vec<Discovery>,
    /// (master, slave) pairs with a first discovery since the last reset.
    discovered_pairs: PairBits,
    /// Ordered map: [`Baseband::active_slaves`] iterates the keys, so
    /// the order must not depend on a hasher (determinism invariant).
    links: BTreeMap<(usize, usize), Link>,
    notifications: Vec<BbNotification>,
    stats: BbStats,
    started: bool,
    /// Scan rotation shared by all slaves under
    /// [`ScanFreqModel::SharedSequence`], resolved at first slave add.
    shared_rot: Option<u8>,
    /// `due[sl]` is the earliest closed-form scan timer slave `sl` has
    /// pending, or `MAX`. Kept apart from [`SlaveDev`] so a settle that
    /// finds nothing due never loads the slave.
    due: Vec<SimTime>,
    /// `pred_gen[sl]` is slave `sl`'s prediction generation: bumping it
    /// drops every master's cached prediction for the slave. Never 0.
    pred_gen: Vec<u32>,
}

impl std::fmt::Debug for Baseband {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Baseband")
            .field("masters", &self.masters.len())
            .field("slaves", &self.slaves.len())
            .field("links", &self.links.len())
            .field("discoveries", &self.discoveries.len())
            .finish_non_exhaustive()
    }
}

impl Baseband {
    /// An empty medium with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.packet_success` is outside `(0, 1]`.
    pub fn new(cfg: MediumConfig) -> Baseband {
        assert!(
            cfg.packet_success > 0.0 && cfg.packet_success <= 1.0,
            "packet_success {} outside (0, 1]",
            cfg.packet_success
        );
        Baseband {
            cfg,
            masters: Vec::new(),
            slaves: Vec::new(),
            in_range: RangeMatrix::default(),
            fhs_buckets: FhsBuckets::default(),
            discoveries: Vec::new(),
            discovered_pairs: PairBits::default(),
            links: BTreeMap::new(),
            notifications: Vec::new(),
            stats: BbStats::default(),
            started: false,
            shared_rot: None,
            due: Vec::new(),
            pred_gen: Vec::new(),
        }
    }

    /// Adds a master, resolving its random clock phase and start train
    /// from `rng`. Must be called before [`start`](Baseband::start).
    ///
    /// # Panics
    ///
    /// Panics if the medium has already started.
    pub fn add_master(&mut self, cfg: MasterConfig, rng: &mut SimRng) -> MasterId {
        assert!(!self.started, "cannot add devices after start");
        let clock = NativeClock::random(rng);
        // The starting train is a function of the free-running clock
        // (uniform phase → 50/50), matching how real hardware lands on a
        // train; Fixed policies pin it instead.
        let start_train = match cfg.start_train_policy() {
            StartTrain::Random => train_from_clock(&clock, SimTime::ZERO),
            StartTrain::Fixed(t) => t,
        };
        let id = self.masters.len();
        self.masters.push(MasterDev {
            clock,
            plan: PhasePlan::new(cfg.duty_cycle(), SimTime::ZERO),
            inq: InquiryState::new(start_train, cfg.train_policy()),
            start_policy: cfg.start_train_policy(),
            start_train,
            epoch: 0,
            paging: None,
            page_attempt_seq: 0,
            page_queue: VecDeque::new(),
            skip: None,
        });
        MasterId(id)
    }

    /// Adds a slave, resolving its random clock phase, scan-window phase
    /// and starting scan frequency from `rng`.
    ///
    /// # Panics
    ///
    /// Panics if the medium has already started.
    pub fn add_slave(&mut self, cfg: SlaveConfig, rng: &mut SimRng) -> SlaveId {
        assert!(!self.started, "cannot add devices after start");
        let start = match self.cfg.scan_freq_model {
            ScanFreqModel::PerDevice => cfg.start_freq_policy().resolve(rng),
            ScanFreqModel::SharedSequence => {
                let rot = *self
                    .shared_rot
                    .get_or_insert_with(|| cfg.start_freq_policy().resolve(rng).index());
                InquiryFreq::new(rot)
            }
        };
        let windows = WindowSchedule::random(cfg.scan_pattern(), rng);
        // A slave's clock phase is not modelled, but its draw stays so
        // every later draw, and so every seeded run, is unchanged.
        let _ = NativeClock::random(rng);
        let id = self.slaves.len();
        self.slaves.push(SlaveDev {
            addr: cfg.addr,
            windows,
            machine: ScanMachine::new(cfg.scan_pattern(), cfg.backoff_bound()),
            freq_rot: start.index(),
            epoch: 0,
            active: true,
            halt_when_discovered: cfg.halts_when_discovered(),
            connected_to: None,
            scanning: false,
            next_window_start: SimTime::MAX,
            next_index: 0,
            window_virtual: false,
            close_at: SimTime::MAX,
        });
        self.due.push(SimTime::MAX);
        self.pred_gen.push(1);
        SlaveId(id)
    }

    /// Number of masters.
    pub fn num_masters(&self) -> usize {
        self.masters.len()
    }

    /// Number of slaves.
    pub fn num_slaves(&self) -> usize {
        self.slaves.len()
    }

    /// A slave's device address.
    ///
    /// # Panics
    ///
    /// Panics if `s` is not a valid id for this medium.
    pub fn slave_addr(&self, s: SlaveId) -> BdAddr {
        self.slaves[s.0].addr
    }

    /// The train a master started (or restarts) its inquiry on.
    pub fn master_start_train(&self, m: MasterId) -> Train {
        self.masters[m.0].start_train
    }

    /// The inquiry-sequence position slave `s` listens on at `now`.
    pub fn slave_scan_freq(&self, s: SlaveId, now: SimTime) -> InquiryFreq {
        self.slaves[s.0].scan_freq(now)
    }

    /// Whether the slave currently holds a connection, and to whom.
    pub fn slave_connection(&self, s: SlaveId) -> Option<MasterId> {
        self.slaves[s.0].connected_to
    }

    /// The slaves connected to master `m`, in ascending slave-id order.
    ///
    /// Allocation-free: callers that need a materialized list collect into
    /// their own (reusable) buffer.
    pub fn connected_slaves(&self, m: MasterId) -> impl Iterator<Item = SlaveId> + '_ {
        self.slaves
            .iter()
            .enumerate()
            .filter(move |(_, dev)| dev.connected_to == Some(m))
            .map(|(sl, _)| SlaveId(sl))
    }

    /// Marks `slave` in or out of `master`'s radio coverage. Out-of-range
    /// connected slaves start the supervision clock.
    pub fn set_in_range<S: SubScheduler<BbEvent>>(
        &mut self,
        s: &mut S,
        master: MasterId,
        slave: SlaveId,
        in_range: bool,
    ) {
        let key = (master.0, slave.0);
        if in_range {
            self.in_range.insert(master.0, slave.0);
            if let Some(link) = self.links.get_mut(&key) {
                link.mark_in_range();
            }
            // A new audible slave may precede the chain's current aim.
            self.wake_master(s, master.0, DEFAULT_RANK);
        } else {
            self.in_range.remove(master.0, slave.0);
            if let Some(link) = self.links.get_mut(&key) {
                link.mark_out_of_range(s.now());
                let at = s.now() + self.cfg.supervision_timeout;
                schedule(
                    s,
                    at,
                    Ev::SupervisionCheck {
                        master: master.0,
                        slave: slave.0,
                    },
                );
            }
        }
    }

    /// Switches a slave's radio on or off. Deactivating drops any link
    /// immediately and stops scanning; activating resumes scanning.
    pub fn set_slave_active<S: SubScheduler<BbEvent>>(
        &mut self,
        s: &mut S,
        slave: SlaveId,
        active: bool,
    ) {
        if self.slaves[slave.0].active == active {
            return;
        }
        if active {
            self.slaves[slave.0].active = true;
            if self.started {
                self.restart_slave_scanning(s, slave.0);
            }
        } else {
            if let Some(m) = self.slaves[slave.0].connected_to {
                self.tear_down_link(s.now(), m.0, slave.0);
            }
            self.slaves[slave.0].active = false;
            self.stop_scanning(slave.0);
        }
    }

    /// Queues a page of `slave` by `master`; the page runs during the
    /// master's service phase. No-op if the pair is already linked or the
    /// page is already queued/in flight.
    ///
    /// Note: a master configured with
    /// [`DutyCycle::always_inquiry`](crate::params::DutyCycle::always_inquiry)
    /// has no service phase and therefore never executes queued pages —
    /// give tracking masters a periodic duty cycle.
    pub fn request_page<S: SubScheduler<BbEvent>>(
        &mut self,
        s: &mut S,
        master: MasterId,
        slave: SlaveId,
    ) {
        if self.links.contains_key(&(master.0, slave.0)) {
            return;
        }
        let dev = &mut self.masters[master.0];
        if let Some((attempt, _)) = dev.paging {
            if attempt.slave == slave {
                return;
            }
        }
        if dev.page_queue.contains(&slave) {
            return;
        }
        dev.page_queue.push_back(slave);
        self.maybe_start_page(s, master.0);
    }

    /// Sends `payload` between `master` and `slave` (the slot timing is
    /// symmetric, so one call covers both directions). The bytes cross
    /// the link in DM1 packets — one slot pair per 17 bytes — and are
    /// handed back in the [`BbNotification::DataDelivered`] notification.
    ///
    /// # Errors
    ///
    /// Returns [`NoLinkError`] if the pair is not connected.
    pub fn send_data<S: SubScheduler<BbEvent>>(
        &mut self,
        s: &mut S,
        master: MasterId,
        slave: SlaveId,
        payload: Vec<u8>,
    ) -> Result<(), NoLinkError> {
        if !self.links.contains_key(&(master.0, slave.0)) {
            return Err(NoLinkError { master, slave });
        }
        let at = s.now() + Link::transfer_time(payload.len());
        schedule(
            s,
            at,
            Ev::DataDelivered {
                master: master.0,
                slave: slave.0,
                payload,
            },
        );
        Ok(())
    }

    /// Explicitly tears down a link (e.g. BIPS logout). No-op if absent.
    pub fn disconnect<S: SubScheduler<BbEvent>>(
        &mut self,
        s: &mut S,
        master: MasterId,
        slave: SlaveId,
    ) {
        if self.links.contains_key(&(master.0, slave.0)) {
            self.tear_down_link(s.now(), master.0, slave.0);
            self.restart_slave_scanning(s, slave.0);
            // A freed piconet slot may unblock queued pages.
            self.maybe_start_page(s, master.0);
        }
    }

    /// All first-time discoveries since the last
    /// [`reset_discoveries`](Baseband::reset_discoveries).
    pub fn discoveries(&self) -> &[Discovery] {
        &self.discoveries
    }

    /// Clears the discovery record (e.g. between measurement trials).
    pub fn reset_discoveries(&mut self) {
        self.discoveries.clear();
        self.discovered_pairs.clear();
    }

    /// Medium counters.
    pub fn stats(&self) -> BbStats {
        self.stats
    }

    /// Settles every master's skip-ahead inquiry chain up to `now`,
    /// accounting the provably deaf slot pairs the scheduler jumped over.
    /// Embedding worlds forward [`World::quiesce`](desim::World::quiesce)
    /// here so counters observed at a `run_until` boundary are
    /// bit-identical to the naive slot-ticking chain. No-op when
    /// skip-ahead is disabled.
    pub fn settle(&mut self, now: SimTime) {
        if !self.cfg.skip_ahead {
            return;
        }
        for m in 0..self.masters.len() {
            self.settle_master(m, now, false);
        }
    }

    /// Exports the medium's counters into `metrics` under the
    /// `baseband.*` prefix (see `docs/OBSERVABILITY.md` for the catalog).
    pub fn export_metrics(&self, metrics: &mut desim::MetricSet) {
        let s = &self.stats;
        metrics.set_counter("baseband.inquiry.ids_transmitted", s.ids_transmitted);
        metrics.set_counter("baseband.inquiry.ids_heard", s.ids_heard);
        metrics.set_counter("baseband.inquiry.backoffs", s.backoffs);
        metrics.set_counter("baseband.inquiry.fhs_transmitted", s.fhs_transmitted);
        metrics.set_counter("baseband.inquiry.fhs_received", s.fhs_received);
        metrics.set_counter("baseband.inquiry.fhs_collisions", s.fhs_collided);
        metrics.set_counter("baseband.inquiry.fhs_missed_phase", s.fhs_missed_phase);
        metrics.set_counter(
            "baseband.inquiry.discoveries",
            self.discoveries.len() as u64,
        );
        metrics.set_counter("baseband.page.started", s.pages_started);
        metrics.set_counter("baseband.page.completed", s.pages_completed);
        metrics.set_counter("baseband.page.failed", s.pages_failed);
        metrics.set_counter("baseband.link.lost", s.links_lost);
        metrics.gauge("baseband.link.active", self.links.len() as f64);
        metrics.set_counter("baseband.data.delivered", s.data_delivered);
    }

    /// Drains accumulated notifications, oldest first.
    pub fn drain_notifications(&mut self) -> Vec<BbNotification> {
        std::mem::take(&mut self.notifications)
    }

    /// Launches every configured device: masters begin their duty cycles,
    /// slaves their scan schedules. Usually invoked by handling
    /// [`BbEvent::start`]; embedders may call it directly from their own
    /// bootstrap.
    pub fn start<S: SubScheduler<BbEvent>>(&mut self, s: &mut S) {
        if self.started {
            return;
        }
        self.started = true;
        for sl in 0..self.slaves.len() {
            if self.slaves[sl].active {
                self.arm_scan_chain(s, sl);
            }
        }
        for m in 0..self.masters.len() {
            self.enter_phase(s, m);
        }
    }

    /// Processes one baseband event. Embedders call this with events they
    /// unwrapped from their own event enum.
    pub fn handle<S: SubScheduler<BbEvent>>(&mut self, s: &mut S, event: BbEvent) {
        match event.0 {
            Ev::Start => self.start(s),
            Ev::InqTx { master, epoch } => self.on_inq_tx(s, master, epoch),
            Ev::PhaseBoundary { master, epoch } => {
                if self.masters[master].epoch == epoch {
                    self.enter_phase(s, master);
                }
            }
            Ev::WindowOpen {
                slave,
                epoch,
                index,
            } => self.on_window_open(s, slave, epoch, index),
            Ev::WindowClose { slave, epoch } => {
                let dev = &mut self.slaves[slave];
                if dev.epoch == epoch {
                    dev.machine.close_window(s.now());
                }
            }
            Ev::BackoffEnd { slave, epoch } => self.on_backoff_end(s, slave, epoch),
            Ev::FhsRx { master, key } => self.on_fhs_rx(s, master, key),
            Ev::PageResolve {
                master,
                slave,
                attempt,
            } => self.on_page_resolve(s, master, slave, attempt),
            Ev::PageTx { master, attempt } => self.on_page_tx(s, master, attempt),
            Ev::DataDelivered {
                master,
                slave,
                payload,
            } => {
                // Deliver only if the link survived the transfer.
                if self.links.contains_key(&(master, slave)) {
                    self.stats.data_delivered += 1;
                    self.notifications.push(BbNotification::DataDelivered {
                        master: MasterId(master),
                        slave: SlaveId(slave),
                        payload,
                        at: s.now(),
                    });
                }
            }
            Ev::SupervisionCheck { master, slave } => {
                let expired = self
                    .links
                    .get(&(master, slave))
                    .map(|l| l.supervision_expired(s.now(), self.cfg.supervision_timeout))
                    .unwrap_or(false);
                if expired {
                    self.tear_down_link(s.now(), master, slave);
                    self.restart_slave_scanning(s, slave);
                    self.maybe_start_page(s, master);
                }
            }
            Ev::Cmd(cmd) => match cmd {
                Command::SetInRange(m, sl, r) => self.set_in_range(s, m, sl, r),
                Command::RequestPage(m, sl) => self.request_page(s, m, sl),
                Command::SendData(m, sl, payload) => {
                    let _ = self.send_data(s, m, sl, payload);
                }
                Command::Disconnect(m, sl) => self.disconnect(s, m, sl),
                Command::SetSlaveActive(sl, a) => self.set_slave_active(s, sl, a),
            },
        }
    }

    // ----- master machinery -------------------------------------------

    /// (Re-)enters the phase in force now and arms the next boundary.
    fn enter_phase<S: SubScheduler<BbEvent>>(&mut self, s: &mut S, m: usize) {
        let now = s.now();
        // Close out the ending inquiry phase: account every pair up to
        // the boundary and drop the chain (pairs at or after `now`
        // belong to the next phase and are never transmitted).
        self.settle_master(m, now, false);
        if let Some((ev, _)) = self.masters[m].skip.take().and_then(|c| c.event) {
            s.cancel(ev);
        }
        self.masters[m].epoch += 1;
        // The train walker restarts and the phase bound moves: every
        // cached prediction of this master is void.
        if let Some(row) = self.in_range.by_master.get_mut(m) {
            for c in row {
                c.gen = 0;
            }
        }
        let phase = self.masters[m].plan.phase_at(now);
        match phase {
            Phase::Inquiry => {
                // Each inquiry phase picks its train from the free-running
                // clock (spec: the inquiry hop phase is CLKN-driven), so
                // successive short phases do not keep re-covering the same
                // half of the inquiry frequencies. A Fixed policy (used by
                // the Figure 2 setup) pins the train instead.
                let train = match self.masters[m].start_policy {
                    StartTrain::Fixed(t) => t,
                    StartTrain::Random => train_from_clock(&self.masters[m].clock, now),
                };
                self.masters[m].start_train = train;
                self.masters[m].inq.restart(train);
                let first_tx = self.masters[m].clock.next_even_slot(now);
                // Under skip-ahead too the first pair is scheduled
                // whatever the predictor would say, as the eager chain
                // does: until it runs, it is what tells a wake-up in this
                // handler that a pair at `now` has not been sent (see
                // `wake_master`). The solver takes over once it fires.
                let id = self.schedule_inq_tx(s, m, first_tx);
                if self.cfg.skip_ahead {
                    self.masters[m].skip = Some(SkipChain {
                        from: first_tx,
                        event: Some((id, first_tx)),
                    });
                }
            }
            Phase::Service => {
                self.maybe_start_page(s, m);
            }
        }
        if let Some((at, _next)) = self.masters[m].plan.next_boundary(now) {
            let epoch = self.masters[m].epoch;
            schedule(s, at, Ev::PhaseBoundary { master: m, epoch });
        }
    }

    /// Schedules master `m`'s `InqTx` for the pair at `at` in its current
    /// epoch.
    fn schedule_inq_tx<S: SubScheduler<BbEvent>>(
        &mut self,
        s: &mut S,
        m: usize,
        at: SimTime,
    ) -> EventId {
        let epoch = self.masters[m].epoch;
        schedule(s, at, Ev::InqTx { master: m, epoch })
    }

    fn on_inq_tx<S: SubScheduler<BbEvent>>(&mut self, s: &mut S, m: usize, epoch: u32) {
        if self.masters[m].epoch != epoch {
            return;
        }
        let now = s.now();
        if self.masters[m].plan.phase_at(now) != Phase::Inquiry {
            return; // phase boundary will restart the chain
        }
        if self.cfg.skip_ahead {
            // This is the chain's own event; its id is spent. Account the
            // provably deaf pairs the chain jumped over.
            if let Some(chain) = self.masters[m].skip.as_mut() {
                chain.event = None;
            }
            self.settle_master(m, now, false);
        }
        let plan = self.masters[m].inq.plan();
        self.stats.ids_transmitted += 2;
        self.transmit_id(s, m, plan.first, now);
        self.transmit_id(s, m, plan.second, now + TICK);
        self.masters[m].inq.advance();
        if self.cfg.skip_ahead {
            if let Some(chain) = self.masters[m].skip.as_mut() {
                chain.from = now + SLOT_PAIR;
            }
            self.rearm_inquiry(s, m);
        } else {
            self.schedule_inq_tx(s, m, now + SLOT_PAIR);
        }
    }

    /// Accounts, in closed form, every pending slot pair of master `m`'s
    /// inquiry chain before `now`, and the pair at `now` too when
    /// `through_now`. Pairs settled this way were proven deaf by the
    /// predictor (or precede a phase boundary), so the eager chain would
    /// have transmitted into silence: only `ids_transmitted` and the train
    /// walker advance, with no RNG draws.
    fn settle_master(&mut self, m: usize, now: SimTime, through_now: bool) {
        let dev = &mut self.masters[m];
        let Some(chain) = dev.skip.as_mut() else {
            return;
        };
        if now < chain.from {
            return;
        }
        let span = now - chain.from;
        let mut n = span.div_duration(SLOT_PAIR);
        if through_now || !(span % SLOT_PAIR).is_zero() {
            n += 1;
        }
        chain.from += SLOT_PAIR * n;
        dev.inq.advance_by(n);
        self.stats.ids_transmitted += 2 * n;
    }

    /// Re-aims master `m`'s inquiry chain: predicts the earliest pending
    /// slot pair any in-range, active, unconnected, scanning slave could
    /// hear and schedules the next `InqTx` there — or leaves the chain
    /// dormant when no such pair exists before the phase boundary.
    /// Only predictions that were dropped, or that a solve from `from`
    /// could change, are solved again.
    ///
    /// Requires `skip` to be `Some` with `from` settled past `now`.
    fn rearm_inquiry<S: SubScheduler<BbEvent>>(&mut self, s: &mut S, m: usize) {
        let Some(chain) = self.masters[m].skip.as_ref() else {
            return;
        };
        let from = chain.from;
        let aim = chain.event.map(|(_, at)| at);
        let now = s.now();
        let bound = self.masters[m]
            .plan
            .next_boundary(now)
            .map_or(SimTime::MAX, |(t, _)| t);
        // Each slave's answer is solved against the phase bound, not the
        // running minimum, so the cached value belongs to that slave
        // alone; the minimum is the same either way.
        let mut target = bound;
        for i in 0..self.in_range.covered(m) {
            let c = self.in_range.entry(m, i);
            let sl = c.slave as usize;
            // Settling first lets a break in the extrapolation drop the
            // prediction before it is reused.
            self.settle_slave(sl, now);
            if c.gen == self.pred_gen[sl] && from <= c.valid_until {
                target = target.min(c.pair);
                continue;
            }
            let dev = &self.slaves[sl];
            if !dev.active || dev.connected_to.is_some() || !dev.scanning {
                continue;
            }
            let (pair, valid_until) = self.slave_next_audible(m, sl, from, bound);
            self.in_range.by_master[m][i] = Covered {
                slave: c.slave,
                gen: self.pred_gen[sl],
                pair,
                valid_until,
            };
            target = target.min(pair);
        }
        // An unchanged aim keeps its event. So does one at `now`, even if
        // its pair turned deaf: until it runs, it is what tells a wake-up
        // that the pair has not been sent, and running it costs one false
        // alarm (the handler re-runs the exact audibility gates).
        if aim == Some(target) || aim == Some(now) {
            return;
        }
        let chain = self.masters[m].skip.as_mut().expect("chain present");
        if let Some((ev, _)) = chain.event.take() {
            s.cancel(ev);
        }
        if target < bound {
            let id = self.schedule_inq_tx(s, m, target);
            self.masters[m].skip.as_mut().expect("chain present").event = Some((id, target));
        }
    }

    /// Re-aims every in-range master other than `tx_master` after slave
    /// `sl` entered a response backoff during `tx_master`'s `InqTx`. The
    /// backoff *ends* in open-ended inquiry listening, which can make the
    /// slave receptive to another master earlier than that master's
    /// schedule-derived prediction — the transmitting master itself
    /// re-aims at the end of its own `on_inq_tx`.
    fn wake_other_masters<S: SubScheduler<BbEvent>>(
        &mut self,
        s: &mut S,
        tx_master: usize,
        sl: usize,
    ) {
        if !self.cfg.skip_ahead {
            return;
        }
        // The transposed coverage row lists the masters covering `sl` in
        // ascending index order — the order of a scan over all masters.
        let handler_rank = inq_tx_rank(tx_master);
        for w in 0..self.in_range.by_slave.row_words(sl) {
            let mut bits = self.in_range.by_slave.word(sl, w);
            while bits != 0 {
                let m = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                if m != tx_master {
                    self.wake_master(s, m, handler_rank);
                }
            }
        }
    }

    /// An audibility-increasing transition happened in the handler of an
    /// event of rank `handler_rank`: settle master `m`'s chain past every pair
    /// the eager chain has sent by now, and re-aim it. The eager `InqTx`
    /// for a pair at `now` has run exactly when it ranks before the
    /// running event and is not still pending, as the phase's first pair
    /// is in the handler that entered the phase; it sent the pair unless
    /// the phase ends at `now` (its `PhaseBoundary` may not have run yet).
    /// No-op for masters outside an inquiry phase (or with skip-ahead
    /// disabled).
    fn wake_master<S: SubScheduler<BbEvent>>(&mut self, s: &mut S, m: usize, handler_rank: u32) {
        let Some(chain) = self.masters[m].skip.as_ref() else {
            return;
        };
        let now = s.now();
        let pending_now = chain.event.is_some_and(|(_, at)| at == now);
        let sent_now = inq_tx_rank(m) < handler_rank
            && !pending_now
            && self.masters[m].plan.phase_at(now) == Phase::Inquiry;
        self.settle_master(m, now, sent_now);
        self.rearm_inquiry(s, m);
    }

    /// The earliest slot pair on master `m`'s grid (`from + j·SLOT_PAIR`,
    /// strictly before `bound`) at which slave `sl` could hear one of the
    /// pair's two ID half-slots; `bound` (or later) if none exists.
    ///
    /// Conservative, never late: every pair strictly before the returned
    /// instant is provably deaf for this slave, but the returned pair is
    /// allowed to be a false alarm (straddling a scan-frequency block
    /// boundary, or a window that closed again) — the fired event re-runs
    /// the exact audibility gates, so a false alarm only costs one event.
    ///
    /// Also returns the last chain position the answer holds for: a solve
    /// from any later pair up to it returns the same pair, as long as the
    /// slave's scan state only follows its timetable. Jumps over deaf
    /// spans land on the same pair from anywhere inside the span, so the
    /// answer holds up to the first pair where the slave turns receptive;
    /// a primed slave then listens without gaps (the page windows that
    /// interrupt it drop the prediction), so its answer holds up to the
    /// answer itself.
    ///
    /// Requires `m`'s train walker to be settled to the pair at `from`.
    fn slave_next_audible(
        &self,
        m: usize,
        sl: usize,
        from: SimTime,
        bound: SimTime,
    ) -> (SimTime, SimTime) {
        /// Bounds the work per query; on exhaustion the current pair is
        /// returned as a conservative wake-up.
        const SOLVER_CAP: usize = 64;
        let dev = &self.slaves[sl];
        let mut receptive = None;
        let holds = |answer: SimTime, receptive: Option<SimTime>| match receptive {
            Some(t) if !dev.machine.is_primed() => (answer, t),
            _ => (answer, answer),
        };
        let mut t = from;
        for _ in 0..SOLVER_CAP {
            if t >= bound {
                return holds(bound, receptive);
            }
            // Deaf spans with a known end (sleep between windows, backoff)
            // are jumped in one step: resume at the first pair whose
            // second half-slot reaches the receptive instant.
            let r = dev
                .machine
                .next_receptive_after(t, &dev.windows, dev.next_window_start);
            if r == SimTime::MAX {
                return holds(bound, receptive);
            }
            if r > t + TICK {
                let gap = (r - TICK) - t;
                let mut j = gap.div_duration(SLOT_PAIR);
                if !(gap % SLOT_PAIR).is_zero() {
                    j += 1;
                }
                t += SLOT_PAIR * j;
                continue;
            }
            receptive.get_or_insert(t);
            // The scan frequency is constant within the current absolute
            // 1.28 s block; ask the train walker for the first pair that
            // covers it.
            let block_end =
                SimTime::ZERO + CLKN_12_PERIOD * (t.elapsed().div_duration(CLKN_12_PERIOD) + 1);
            let phi = dev.scan_freq(t);
            let j0 = (t - from).div_duration(SLOT_PAIR);
            let mut walker = self.masters[m].inq;
            walker.advance_by(j0);
            let candidate = walker
                .pairs_until_freq(phi)
                .map(|d| t + SLOT_PAIR * d)
                .filter(|&tc| {
                    // The audible half-slot must still be inside the
                    // block: second half-slot when the frequency sits at
                    // an odd train offset.
                    let tick = if phi.index() % 2 == 1 {
                        TICK
                    } else {
                        SimDuration::ZERO
                    };
                    tc + tick < block_end
                });
            // First pair whose pair-span touches the next block; its two
            // half-slots see different scan frequencies, so it is woken
            // conservatively rather than solved.
            let straddle = {
                let gap = (block_end - TICK).saturating_since(t);
                let mut j = gap.div_duration(SLOT_PAIR);
                if !(gap % SLOT_PAIR).is_zero() {
                    j += 1;
                }
                t + SLOT_PAIR * j
            };
            match candidate {
                Some(tc) if tc <= straddle => return holds(tc.min(bound), receptive),
                _ if straddle < block_end => return holds(straddle.min(bound), receptive),
                _ => t = straddle, // lands in the next block; re-solve
            }
        }
        // Out of budget: the answer is only good for this exact query.
        (t.min(bound), from)
    }

    /// Delivers one ID packet to every slave that can hear it.
    fn transmit_id<S: SubScheduler<BbEvent>>(
        &mut self,
        s: &mut S,
        m: usize,
        freq: InquiryFreq,
        at: SimTime,
    ) {
        let now = s.now();
        // Walk this master's coverage ascending (same probe order — and
        // therefore RNG draw order — as a linear scan over all slaves),
        // passing over the slaves a live prediction proves deaf at this
        // pair without loading them.
        for i in 0..self.in_range.covered(m) {
            let c = self.in_range.entry(m, i);
            let sl = c.slave as usize;
            self.settle_slave(sl, now);
            if c.gen == self.pred_gen[sl] && c.pair > now {
                continue;
            }
            let dev = &self.slaves[sl];
            if !dev.active || dev.connected_to.is_some() {
                continue;
            }
            if !dev.machine.hears_inquiry(at) || dev.scan_freq(at) != freq {
                continue;
            }
            // Channel errors: the paper assumes an error-free environment;
            // packet_success < 1 models a lossy cell edge.
            if self.cfg.packet_success < 1.0 && !s.rng().chance(self.cfg.packet_success) {
                continue;
            }
            self.stats.ids_heard += 1;
            let action = {
                let dev = &mut self.slaves[sl];
                dev.machine.hear_id(at, s.rng())
            };
            self.drop_predictions(sl);
            let epoch = self.slaves[sl].epoch;
            let until = match action {
                ScanAction::StartBackoff(until) => {
                    self.stats.backoffs += 1;
                    until
                }
                ScanAction::Respond {
                    at: tx,
                    backoff_until,
                } => {
                    self.stats.fhs_transmitted += 1;
                    let key = tx.elapsed().div_duration(SimDuration::from_units_0125us(1));
                    if self.fhs_buckets.push((m, key), sl) {
                        schedule(s, tx, Ev::FhsRx { master: m, key });
                    }
                    backoff_until
                }
                ScanAction::None => continue,
            };
            self.arm_backoff(s, sl, until, epoch);
            self.wake_other_masters(s, m, sl);
        }
    }

    /// Times slave `sl`'s response backoff ending at `until`: a
    /// `BackoffEnd` event, or a closed-form timer under skip-ahead.
    fn arm_backoff<S: SubScheduler<BbEvent>>(
        &mut self,
        s: &mut S,
        sl: usize,
        until: SimTime,
        epoch: u32,
    ) {
        if self.cfg.skip_ahead {
            self.due[sl] = self.due[sl].min(until);
        } else {
            schedule(s, until, Ev::BackoffEnd { slave: sl, epoch });
        }
    }

    fn on_fhs_rx<S: SubScheduler<BbEvent>>(&mut self, s: &mut S, m: usize, key: u64) {
        let Some(mut responders) = self.fhs_buckets.take((m, key)) else {
            return;
        };
        let now = s.now();
        if self.masters[m].plan.phase_at(now) != Phase::Inquiry {
            self.stats.fhs_missed_phase += responders.len() as u64;
            self.fhs_buckets.recycle(responders);
            return;
        }
        // Channel errors corrupt individual FHS packets; the survivors
        // then contend for the receive window.
        if self.cfg.packet_success < 1.0 {
            let p = self.cfg.packet_success;
            responders.retain(|_| s.rng().chance(p));
        }
        if self.cfg.fhs_collisions && responders.len() > 1 {
            self.stats.fhs_collided += responders.len() as u64;
            self.notifications.push(BbNotification::FhsCollision {
                master: MasterId(m),
                slaves: responders.iter().map(|&sl| SlaveId(sl)).collect(),
                at: now,
            });
            self.fhs_buckets.recycle(responders);
            return;
        }
        for &sl in &responders {
            self.stats.fhs_received += 1;
            self.notifications.push(BbNotification::FhsSeen {
                master: MasterId(m),
                slave: SlaveId(sl),
                at: now,
            });
            if self.discovered_pairs.insert(m, sl) {
                let d = Discovery {
                    master: MasterId(m),
                    slave: SlaveId(sl),
                    at: now,
                };
                self.discoveries.push(d);
                self.notifications.push(BbNotification::Discovered(d));
            }
            if self.slaves[sl].halt_when_discovered {
                // The handheld proceeds to page scan / enrollment and
                // stops answering inquiries.
                self.stop_scanning(sl);
            }
        }
        self.fhs_buckets.recycle(responders);
    }

    fn maybe_start_page<S: SubScheduler<BbEvent>>(&mut self, s: &mut S, m: usize) {
        let now = s.now();
        if self.masters[m].paging.is_some() {
            return;
        }
        if self.masters[m].plan.phase_at(now) != Phase::Service {
            return;
        }
        // Piconet capacity: at most 7 active slaves. Further pages wait
        // in the queue until a link is released.
        if self.active_slaves(m) >= MAX_ACTIVE_SLAVES {
            return;
        }
        let Some(target) = self.masters[m].page_queue.pop_front() else {
            return;
        };
        self.stats.pages_started += 1;
        self.masters[m].page_attempt_seq += 1;
        let seq = self.masters[m].page_attempt_seq;
        let attempt = PageAttempt::new(MasterId(m), target, now, self.cfg.page_timeout);
        self.masters[m].paging = Some((attempt, seq));
        match self.cfg.page_model {
            PageModel::Analytic => self.schedule_page_resolve(s, m, target.0, seq, now),
            PageModel::SlotAccurate => {
                // Transmit page IDs from the next even slot; also arm the
                // timeout via a resolve at the deadline.
                let first = self.masters[m].clock.next_even_slot(now);
                schedule_page_tx(s, m, seq, first);
                schedule(
                    s,
                    attempt.deadline,
                    Ev::PageResolve {
                        master: m,
                        slave: target.0,
                        attempt: seq,
                    },
                );
            }
        }
    }

    /// Slot-accurate paging: one even-slot page-ID transmission aimed at
    /// the paged slave's current page frequency (known from the FHS
    /// clock). If the slave is actually listening in a page-scan window,
    /// the handshake completes a few slots later.
    fn on_page_tx<S: SubScheduler<BbEvent>>(&mut self, s: &mut S, m: usize, seq: u32) {
        let now = s.now();
        let Some((attempt, cur_seq)) = self.masters[m].paging else {
            return;
        };
        if cur_seq != seq {
            return;
        }
        if attempt.expired(now) {
            return; // the deadline resolve will clean up
        }
        if self.masters[m].plan.phase_at(now) != Phase::Service {
            // Paging pauses during inquiry; retry at the next service
            // phase.
            if let Some((t, _)) = self.masters[m].plan.next_boundary(now) {
                schedule_page_tx(s, m, seq, t.min(attempt.deadline));
            }
            return;
        }
        let sl = attempt.slave.index();
        let reachable = self.in_range.contains(m, sl)
            && self.slaves[sl].active
            && self.slaves[sl].connected_to.is_none();
        if reachable {
            self.settle_slave(sl, now);
        }
        if reachable && self.slaves[sl].machine.hears_page(now) {
            // Channel errors apply to the page exchange as a whole.
            if self.cfg.packet_success >= 1.0 || s.rng().chance(self.cfg.packet_success) {
                // ID → slave ID response → FHS → ack → POLL: complete in
                // a handshake, checked again at the completion instant by
                // the resolve path.
                self.masters[m].paging = Some((attempt, seq));
                schedule(
                    s,
                    (now + crate::page::PAGE_HANDSHAKE).min(attempt.deadline),
                    Ev::PageResolve {
                        master: m,
                        slave: sl,
                        attempt: seq,
                    },
                );
                return; // stop transmitting; resolve finishes the job
            }
        }
        // Keep paging every even slot.
        schedule_page_tx(s, m, seq, (now + SLOT_PAIR).min(attempt.deadline));
    }

    fn schedule_page_resolve<S: SubScheduler<BbEvent>>(
        &mut self,
        s: &mut S,
        m: usize,
        sl: usize,
        seq: u32,
        from: SimTime,
    ) {
        let (attempt, _) = self.masters[m].paging.expect("paging in progress");
        let done = completion_time(from, &self.slaves[sl].windows);
        let at = if done == SimTime::MAX {
            attempt.deadline
        } else {
            done.min(attempt.deadline)
        };
        // The resolve instant may coincide with `from`; events at the
        // current instant run after the current handler, which is fine.
        let at = at.max(s.now());
        schedule(
            s,
            at,
            Ev::PageResolve {
                master: m,
                slave: sl,
                attempt: seq,
            },
        );
    }

    fn on_page_resolve<S: SubScheduler<BbEvent>>(
        &mut self,
        s: &mut S,
        m: usize,
        sl: usize,
        seq: u32,
    ) {
        let now = s.now();
        let Some((attempt, cur_seq)) = self.masters[m].paging else {
            return;
        };
        if cur_seq != seq || attempt.slave.0 != sl {
            return;
        }
        let dev = &self.slaves[sl];
        let reachable = self.in_range.contains(m, sl)
            && dev.active
            && dev.connected_to.is_none()
            && self.masters[m].plan.phase_at(now) == Phase::Service;
        // Expiry wins over reachability: a resolve that only fires at the
        // deadline (e.g. a slave with no page-scan windows) must fail, not
        // connect.
        if attempt.expired(now) {
            self.masters[m].paging = None;
            self.stats.pages_failed += 1;
            self.notifications.push(BbNotification::PageFailed {
                master: MasterId(m),
                slave: SlaveId(sl),
                at: now,
            });
            self.maybe_start_page(s, m);
        } else if reachable {
            self.masters[m].paging = None;
            self.stats.pages_completed += 1;
            self.links
                .insert((m, sl), Link::new(MasterId(m), SlaveId(sl), now));
            self.slaves[sl].connected_to = Some(MasterId(m));
            self.stop_scanning(sl);
            self.notifications.push(BbNotification::LinkEstablished {
                master: MasterId(m),
                slave: SlaveId(sl),
                at: now,
            });
            self.maybe_start_page(s, m);
        } else {
            match self.cfg.page_model {
                PageModel::Analytic => {
                    // Retry at the next opportunity: either the next
                    // page-scan window or the next service phase,
                    // whichever is later.
                    let next_service = match self.masters[m].plan.phase_at(now) {
                        Phase::Service => now,
                        Phase::Inquiry => self.masters[m]
                            .plan
                            .next_boundary(now)
                            .map(|(t, _)| t)
                            .unwrap_or(attempt.deadline),
                    };
                    let from = next_service.max(now + SLOT_PAIR);
                    self.schedule_page_resolve(s, m, sl, seq, from);
                }
                PageModel::SlotAccurate => {
                    // The transmit chain keeps trying on its own; nothing
                    // to re-arm here unless it has gone quiet (handshake
                    // failed the reachability re-check).
                    schedule_page_tx(s, m, seq, (now + SLOT_PAIR).min(attempt.deadline));
                }
            }
        }
    }

    // ----- slave machinery --------------------------------------------

    /// Brings slave `sl`'s scan state to what the eager timer events would
    /// have left at this point of the run. Must precede every read of
    /// the scan state under skip-ahead; tests the compact `due` array
    /// first, so a slave with nothing due is never loaded.
    #[inline]
    fn settle_slave(&mut self, sl: usize, now: SimTime) {
        if self.due[sl] <= now {
            self.apply_timers(sl, now);
        }
    }

    /// Applies, in closed form, slave `sl`'s window opens and closes and
    /// backoff end at or before `now`: the scan timers rank first in
    /// their instant, so their eager events have run before any handler
    /// that settles a slave.
    fn apply_timers(&mut self, sl: usize, now: SimTime) {
        let dev = &mut self.slaves[sl];
        let mut breaks = false;
        loop {
            let open = if dev.window_virtual {
                dev.next_window_start
            } else {
                SimTime::MAX
            };
            let backoff = match dev.machine.phase() {
                ScanPhase::Backoff { until } => until,
                _ => SimTime::MAX,
            };
            let t = dev.close_at.min(open).min(backoff);
            if t > now {
                break;
            }
            if dev.close_at == t {
                dev.machine.close_window(t);
                dev.close_at = SimTime::MAX;
            } else if open == t {
                // With no close pending and no backoff ending before
                // `now`, later windows simply overwrite this one: jump to
                // the last that opened before `now`.
                let mut k = dev.next_index;
                if backoff >= now {
                    k = k.max(dev.windows.first_window_at_or_after(now) - 1);
                }
                breaks |= dev.open_window(k);
            } else {
                dev.machine.end_backoff(t, SimTime::MAX);
            }
        }
        self.due[sl] = dev.next_due();
        if breaks {
            self.drop_predictions(sl);
        }
    }

    /// Invalidates every master's cached prediction for slave `sl`: its
    /// scan state changed in a way the predictor does not extrapolate.
    fn drop_predictions(&mut self, sl: usize) {
        let gen = &mut self.pred_gen[sl];
        *gen = gen.wrapping_add(1).max(1);
    }

    /// (Re)starts slave `sl`'s scan chain: resolves its first window at
    /// or after now, records it for the skip-ahead predictor and schedules
    /// its `WindowOpen`. Under skip-ahead that is the chain's only
    /// scheduled window; the ones after it are closed-form timers.
    fn arm_scan_chain<S: SubScheduler<BbEvent>>(&mut self, s: &mut S, sl: usize) {
        let dev = &mut self.slaves[sl];
        let index = dev.windows.first_window_at_or_after(s.now());
        let at = dev.windows.window_start(index);
        dev.scanning = true;
        dev.next_index = index;
        dev.next_window_start = at;
        if self.cfg.skip_ahead {
            self.due[sl] = at;
        }
        let epoch = dev.epoch;
        schedule(
            s,
            at,
            Ev::WindowOpen {
                slave: sl,
                epoch,
                index,
            },
        );
        self.drop_predictions(sl);
    }

    fn on_window_open<S: SubScheduler<BbEvent>>(
        &mut self,
        s: &mut S,
        sl: usize,
        epoch: u32,
        index: u64,
    ) {
        let now = s.now();
        let dev = &self.slaves[sl];
        if dev.epoch != epoch || !dev.active || dev.connected_to.is_some() {
            return;
        }
        let dev = &mut self.slaves[sl];
        if self.cfg.skip_ahead {
            // The chain's first window: from here on its windows open and
            // close in closed form (`apply_timers`). A re-armed chain is
            // unprimed: its first window keeps the predictor's
            // extrapolation.
            dev.open_window(index);
            self.due[sl] = dev.next_due();
            return;
        }
        let kind = dev.windows.window_kind(index);
        let close = now + dev.windows.pattern().window();
        dev.machine.open_window(now, kind, close);
        let next_at = dev.windows.window_start(index + 1);
        dev.next_window_start = next_at;
        schedule(s, close, Ev::WindowClose { slave: sl, epoch });
        schedule(
            s,
            next_at,
            Ev::WindowOpen {
                slave: sl,
                epoch,
                index: index + 1,
            },
        );
    }

    fn on_backoff_end<S: SubScheduler<BbEvent>>(&mut self, s: &mut S, sl: usize, epoch: u32) {
        let now = s.now();
        let dev = &mut self.slaves[sl];
        if dev.epoch != epoch || !dev.active || dev.connected_to.is_some() {
            return;
        }
        // Post-backoff listen: the slave awaits the next inquiry message
        // (spec: it returns to the inquiry scan substate). The listen is
        // open-ended; the next *regular* window boundary re-asserts the
        // scheduled kind, so a periodic scanner reverts to its timetable
        // at most one interval later.
        dev.machine.end_backoff(now, SimTime::MAX);
    }

    /// Kills slave `sl`'s scan chain: pending scan events go stale (epoch)
    /// and closed-form timers are dropped.
    fn stop_scanning(&mut self, sl: usize) {
        let dev = &mut self.slaves[sl];
        dev.epoch += 1;
        dev.machine.stop();
        dev.scanning = false;
        dev.window_virtual = false;
        dev.close_at = SimTime::MAX;
        self.due[sl] = SimTime::MAX;
        self.drop_predictions(sl);
    }

    fn restart_slave_scanning<S: SubScheduler<BbEvent>>(&mut self, s: &mut S, sl: usize) {
        self.slaves[sl].connected_to = None;
        self.stop_scanning(sl);
        if self.slaves[sl].active && self.started {
            self.arm_scan_chain(s, sl);
            for m in 0..self.masters.len() {
                self.wake_master(s, m, DEFAULT_RANK);
            }
        }
    }

    /// Number of active (connected) slaves in master `m`'s piconet.
    fn active_slaves(&self, m: usize) -> usize {
        self.links.keys().filter(|&&(mi, _)| mi == m).count()
    }

    fn tear_down_link(&mut self, now: SimTime, m: usize, sl: usize) {
        if self.links.remove(&(m, sl)).is_some() {
            self.stats.links_lost += 1;
            self.slaves[sl].connected_to = None;
            self.notifications.push(BbNotification::LinkLost {
                master: MasterId(m),
                slave: SlaveId(sl),
                at: now,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{DutyCycle, ScanPattern, TrainPolicy};
    use desim::{Context, Engine, World};

    struct TestWorld {
        bb: Baseband,
    }

    impl World for TestWorld {
        type Event = BbEvent;
        fn handle(&mut self, ctx: &mut Context<BbEvent>, ev: BbEvent) {
            self.bb.handle(ctx, ev);
        }
        fn quiesce(&mut self, ctx: &mut Context<BbEvent>) {
            self.bb.settle(ctx.now());
        }
    }

    /// One master / `n` slaves; range is applied separately.
    fn setup(
        seed: u64,
        mcfg: MasterConfig,
        slave_cfgs: Vec<SlaveConfig>,
        medium: MediumConfig,
    ) -> Engine<TestWorld> {
        let mut bb = Baseband::new(medium);
        let mut rng = desim::SeedDeriver::new(seed).rng(0);
        bb.add_master(mcfg, &mut rng);
        for c in slave_cfgs {
            bb.add_slave(c, &mut rng);
        }
        let mut engine = Engine::new(TestWorld { bb }, seed);
        engine.schedule(SimTime::ZERO, BbEvent::start());
        engine
    }

    fn all_in_range(engine: &mut Engine<TestWorld>) {
        // Nothing is linked before the run, so mutating the range set
        // directly (same module) is equivalent to the command events.
        let n_m = engine.world().bb.num_masters();
        let n_s = engine.world().bb.num_slaves();
        for m in 0..n_m {
            for s in 0..n_s {
                engine.world_mut().bb.in_range.insert(m, s);
            }
        }
    }

    fn continuous_slave(i: u64) -> SlaveConfig {
        SlaveConfig::new(BdAddr::new(0x1000 + i)).scan(ScanPattern::continuous_inquiry())
    }

    #[test]
    fn single_slave_is_discovered_quickly_when_always_inquiring() {
        let mcfg = MasterConfig::default()
            .duty(DutyCycle::always_inquiry())
            .trains(TrainPolicy::spec());
        let mut e = setup(11, mcfg, vec![continuous_slave(1)], MediumConfig::default());
        all_in_range(&mut e);
        e.run_until(SimTime::from_secs(11));
        let d = e.world().bb.discoveries();
        assert_eq!(d.len(), 1, "one slave, one discovery");
        // Continuous scan + always-inquiry: both trains are covered within
        // 2×2.56 s, so discovery lands well within 6 s.
        assert!(d[0].at < SimTime::from_secs(6), "discovery at {}", d[0].at);
    }

    #[test]
    fn discovery_requires_range() {
        let mcfg = MasterConfig::default();
        let mut e = setup(12, mcfg, vec![continuous_slave(1)], MediumConfig::default());
        // never put in range
        e.run_until(SimTime::from_secs(12));
        assert!(e.world().bb.discoveries().is_empty());
        assert_eq!(e.world().bb.stats().ids_heard, 0);
    }

    #[test]
    fn many_slaves_all_discovered_under_continuous_inquiry() {
        let mcfg = MasterConfig::default();
        let slaves: Vec<SlaveConfig> = (0..10).map(continuous_slave).collect();
        let mut e = setup(13, mcfg, slaves, MediumConfig::default());
        all_in_range(&mut e);
        e.run_until(SimTime::from_secs(30));
        assert_eq!(e.world().bb.discoveries().len(), 10);
        let st = e.world().bb.stats();
        assert!(st.fhs_transmitted >= 10);
        assert!(st.ids_transmitted > 1000);
    }

    #[test]
    fn collisions_are_counted_and_destroy_responses() {
        // Many slaves forced onto the SAME scan frequency and zero
        // backoff bound: every response collides forever.
        let mcfg = MasterConfig::default()
            .trains(TrainPolicy::Single)
            .start_train(crate::params::StartTrain::Fixed(Train::A));
        let slaves: Vec<SlaveConfig> = (0..4)
            .map(|i| {
                SlaveConfig::new(BdAddr::new(0x2000 + i))
                    .scan(ScanPattern::continuous_inquiry())
                    .start_freq(crate::params::StartFreq::Fixed(InquiryFreq::new(0)))
                    .backoff_max_slots(0)
            })
            .collect();
        let mut e = setup(14, mcfg, slaves, MediumConfig::default());
        all_in_range(&mut e);
        e.run_until(SimTime::from_secs(5));
        let st = e.world().bb.stats();
        assert_eq!(e.world().bb.discoveries().len(), 0, "all collide");
        assert!(st.fhs_collided > 0);
        assert_eq!(st.fhs_received, 0);
    }

    #[test]
    fn disabling_collisions_restores_bluehoc_optimism() {
        let mcfg = MasterConfig::default()
            .trains(TrainPolicy::Single)
            .start_train(crate::params::StartTrain::Fixed(Train::A));
        let slaves: Vec<SlaveConfig> = (0..4)
            .map(|i| {
                SlaveConfig::new(BdAddr::new(0x2000 + i))
                    .scan(ScanPattern::continuous_inquiry())
                    .start_freq(crate::params::StartFreq::Fixed(InquiryFreq::new(0)))
                    .backoff_max_slots(0)
            })
            .collect();
        let medium = MediumConfig {
            fhs_collisions: false,
            ..MediumConfig::default()
        };
        let mut e = setup(14, mcfg, slaves, medium);
        all_in_range(&mut e);
        e.run_until(SimTime::from_secs(5));
        assert_eq!(e.world().bb.discoveries().len(), 4);
    }

    #[test]
    fn duty_cycle_blocks_discovery_outside_inquiry_phase() {
        // 1 s inquiry / 100 s period: a slave whose first scan window
        // opens after t=1 s cannot be discovered in the first cycle
        // because the master stops transmitting IDs.
        let mcfg = MasterConfig::default().duty(DutyCycle::periodic(
            SimDuration::from_secs(1),
            SimDuration::from_secs(100),
        ));
        let slaves: Vec<SlaveConfig> = (0..8).map(continuous_slave).collect();
        let mut e = setup(15, mcfg, slaves, MediumConfig::default());
        all_in_range(&mut e);
        e.run_until(SimTime::from_secs(99));
        for d in e.world().bb.discoveries() {
            assert!(
                d.at <= SimTime::from_millis(1700),
                "discovery after phase end: {}",
                d.at
            );
        }
        let ids_at_1s = e.world().bb.stats().ids_transmitted;
        // 1 s of inquiry = 800 slot pairs = 1600 IDs (±1 pair).
        assert!((1590..=1602).contains(&ids_at_1s), "{ids_at_1s}");
    }

    #[test]
    fn page_establishes_link_and_data_flows() {
        // 50 % inquiry duty finds the alternating slave quickly and still
        // leaves service phases for the page to run in.
        let mcfg = MasterConfig::default().duty(DutyCycle::periodic(
            SimDuration::from_secs(2),
            SimDuration::from_secs(4),
        ));
        let slave = SlaveConfig::new(BdAddr::new(0x99)).scan(ScanPattern::alternating());
        let mut e = setup(16, mcfg, vec![slave], MediumConfig::default());
        all_in_range(&mut e);
        let (m, s) = (MasterId::new(0), SlaveId::new(0));
        // Let discovery happen, then script a page and a data exchange.
        e.run_until(SimTime::from_secs(20));
        assert_eq!(e.world().bb.discoveries().len(), 1);
        e.schedule(SimTime::from_secs(20), BbEvent::request_page(m, s));
        e.run_until(SimTime::from_secs(40));
        let notes = e.world_mut().bb.drain_notifications();
        assert!(
            notes
                .iter()
                .any(|n| matches!(n, BbNotification::LinkEstablished { .. })),
            "no link established: {notes:?}"
        );
        assert_eq!(e.world().bb.slave_connection(s), Some(m));
        assert_eq!(
            e.world().bb.connected_slaves(m).collect::<Vec<_>>(),
            vec![s]
        );
        e.schedule(
            SimTime::from_secs(40),
            BbEvent::send_data(m, s, vec![9u8; 64]),
        );
        e.run_until(SimTime::from_secs(41));
        let notes = e.world_mut().bb.drain_notifications();
        assert!(notes.iter().any(
            |n| matches!(n, BbNotification::DataDelivered { payload, .. } if payload.len() == 64)
        ));
        assert_eq!(e.world().bb.stats().data_delivered, 1);
    }

    #[test]
    fn out_of_range_trips_supervision_and_slave_rescans() {
        let mcfg = MasterConfig::default().duty(DutyCycle::periodic(
            SimDuration::from_secs(2),
            SimDuration::from_secs(4),
        ));
        let slave = SlaveConfig::new(BdAddr::new(0x99)).scan(ScanPattern::alternating());
        let mut e = setup(17, mcfg, vec![slave], MediumConfig::default());
        all_in_range(&mut e);
        let (m, s) = (MasterId::new(0), SlaveId::new(0));
        e.schedule(SimTime::from_secs(15), BbEvent::request_page(m, s));
        e.run_until(SimTime::from_secs(30));
        assert_eq!(e.world().bb.slave_connection(s), Some(m));
        // Walk away.
        e.schedule(SimTime::from_secs(30), BbEvent::set_in_range(m, s, false));
        e.run_until(SimTime::from_secs(40));
        let notes = e.world_mut().bb.drain_notifications();
        assert!(
            notes
                .iter()
                .any(|n| matches!(n, BbNotification::LinkLost { .. })),
            "{notes:?}"
        );
        assert_eq!(e.world().bb.slave_connection(s), None);
        // Walk back: the slave is scanning again and can be rediscovered.
        e.schedule(SimTime::from_secs(40), BbEvent::set_in_range(m, s, true));
        e.world_mut().bb.reset_discoveries();
        e.run_until(SimTime::from_secs(70));
        assert_eq!(
            e.world().bb.discoveries().len(),
            1,
            "rediscovered after return"
        );
    }

    #[test]
    fn deactivated_slave_is_invisible() {
        let mcfg = MasterConfig::default();
        let mut e = setup(19, mcfg, vec![continuous_slave(1)], MediumConfig::default());
        all_in_range(&mut e);
        e.schedule(
            SimTime::ZERO,
            BbEvent::set_slave_active(SlaveId::new(0), false),
        );
        e.run_until(SimTime::from_secs(12));
        assert!(e.world().bb.discoveries().is_empty());
        // Reactivate: discovered on the continuing inquiry.
        e.schedule(
            SimTime::from_secs(12),
            BbEvent::set_slave_active(SlaveId::new(0), true),
        );
        e.run_until(SimTime::from_secs(25));
        assert_eq!(e.world().bb.discoveries().len(), 1);
    }

    #[test]
    fn deterministic_same_seed_same_discoveries() {
        let run = |seed| {
            let mcfg = MasterConfig::default();
            let slaves: Vec<SlaveConfig> = (0..5).map(continuous_slave).collect();
            let mut e = setup(seed, mcfg, slaves, MediumConfig::default());
            all_in_range(&mut e);
            e.run_until(SimTime::from_secs(15));
            e.world()
                .bb
                .discoveries()
                .iter()
                .map(|d| (d.slave.index(), d.at))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(77), run(77));
        assert_ne!(run(77), run(78));
    }

    #[test]
    fn reset_discoveries_allows_rediscovery() {
        let mcfg = MasterConfig::default();
        let mut e = setup(18, mcfg, vec![continuous_slave(1)], MediumConfig::default());
        all_in_range(&mut e);
        e.run_until(SimTime::from_secs(8));
        let first = e.world().bb.discoveries().len();
        assert_eq!(first, 1);
        e.world_mut().bb.reset_discoveries();
        assert!(e.world().bb.discoveries().is_empty());
        e.run_until(SimTime::from_secs(20));
        assert_eq!(
            e.world().bb.discoveries().len(),
            1,
            "slave keeps responding, so it is rediscovered after reset"
        );
    }

    /// A world whose bootstrap handler starts the medium and puts every
    /// slave in every master's range, the way an embedder may call
    /// [`Baseband::start`] from its own bootstrap.
    struct BootWorld {
        bb: Baseband,
    }

    impl World for BootWorld {
        type Event = BbEvent;
        fn handle(&mut self, ctx: &mut Context<BbEvent>, ev: BbEvent) {
            if ev != BbEvent::start() {
                self.bb.handle(ctx, ev);
                return;
            }
            self.bb.start(ctx);
            for m in 0..self.bb.num_masters() {
                for sl in 0..self.bb.num_slaves() {
                    self.bb
                        .set_in_range(ctx, MasterId::new(m), SlaveId::new(sl), true);
                }
            }
        }
        fn quiesce(&mut self, ctx: &mut Context<BbEvent>) {
            self.bb.settle(ctx.now());
        }
    }

    /// Range set in the handler that enters the masters' first phases
    /// comes before their first pairs, which the eager chain has
    /// scheduled but not yet sent: skip-ahead must leave them for the
    /// chain, whichever way each wake-up re-aims it.
    #[test]
    fn range_set_while_starting_matches_the_eager_chain() {
        let run = |seed: u64, skip_ahead: bool| {
            let mut bb = Baseband::new(MediumConfig {
                scan_freq_model: ScanFreqModel::PerDevice,
                skip_ahead,
                ..MediumConfig::default()
            });
            let mut rng = desim::SeedDeriver::new(seed).rng(0);
            for _ in 0..4 {
                bb.add_master(MasterConfig::default(), &mut rng);
            }
            for i in 0..6 {
                bb.add_slave(continuous_slave(i), &mut rng);
            }
            let mut e = Engine::new(BootWorld { bb }, seed);
            e.schedule(SimTime::ZERO, BbEvent::start());
            e.run_until(SimTime::from_secs(2));
            let rng_tail = e.context_mut().rng().next_u64();
            let bb = &e.world().bb;
            (bb.discoveries().to_vec(), bb.stats(), rng_tail)
        };
        for seed in 0..40 {
            assert_eq!(run(seed, true), run(seed, false), "seed {seed}");
        }
    }

    #[test]
    fn census_labels_prefix_each_kind() {
        let tx = BbEvent(Ev::InqTx {
            master: 0,
            epoch: 0,
        });
        assert_eq!(tx.kind(), "inq_tx");
        assert_eq!(tx.census_label(), "bb.inq_tx");
        let cmd = BbEvent::set_in_range(MasterId::new(0), SlaveId::new(0), true);
        assert_eq!(cmd.census_label(), "bb.cmd");
        assert_eq!(BbEvent::start().kind(), "cmd");
    }

    #[test]
    fn no_link_error_reports_pair() {
        let err = NoLinkError {
            master: MasterId::new(2),
            slave: SlaveId::new(7),
        };
        assert_eq!(err.to_string(), "no link between master 2 and slave 7");
    }
}

#[cfg(test)]
mod capacity_tests {
    use super::*;
    use crate::params::{DutyCycle, ScanPattern};
    use desim::{Context, Engine, SimDuration, World};

    struct TestWorld {
        bb: Baseband,
    }

    impl World for TestWorld {
        type Event = BbEvent;
        fn handle(&mut self, ctx: &mut Context<BbEvent>, ev: BbEvent) {
            self.bb.handle(ctx, ev);
        }
        fn quiesce(&mut self, ctx: &mut Context<BbEvent>) {
            self.bb.settle(ctx.now());
        }
    }

    /// One service-only master, N page-scanning slaves, everything in
    /// range, with pages requested for all of them at t = 1 s.
    fn engine_with_pages(n: usize) -> Engine<TestWorld> {
        let mut bb = Baseband::new(MediumConfig::default());
        let mut rng = desim::SeedDeriver::new(55).rng(0);
        // Duty with a long service phase so pages run immediately after a
        // short inquiry burst.
        let m = bb.add_master(
            MasterConfig::default().duty(DutyCycle::periodic(
                SimDuration::from_millis(100),
                SimDuration::from_secs(100),
            )),
            &mut rng,
        );
        let slaves: Vec<SlaveId> = (0..n)
            .map(|i| {
                bb.add_slave(
                    SlaveConfig::new(BdAddr::new(0x100 + i as u64))
                        .scan(ScanPattern::alternating()),
                    &mut rng,
                )
            })
            .collect();
        let mut e = Engine::new(TestWorld { bb }, 55);
        e.schedule(SimTime::ZERO, BbEvent::start());
        for &s in &slaves {
            e.schedule(SimTime::ZERO, BbEvent::set_in_range(m, s, true));
            e.schedule(SimTime::from_secs(1), BbEvent::request_page(m, s));
        }
        e
    }

    #[test]
    fn piconet_never_exceeds_seven_active_slaves() {
        let mut e = engine_with_pages(10);
        let m = MasterId::new(0);
        for step in 1..=60 {
            e.run_until(SimTime::from_secs(step));
            let active = e.world().bb.connected_slaves(m).count();
            assert!(active <= MAX_ACTIVE_SLAVES, "t={step}s: {active} active");
        }
        // Exactly seven connect; the other three wait in the queue.
        assert_eq!(e.world().bb.connected_slaves(m).count(), MAX_ACTIVE_SLAVES);
    }

    #[test]
    fn freeing_a_slot_admits_the_next_queued_page() {
        let mut e = engine_with_pages(10);
        let m = MasterId::new(0);
        e.run_until(SimTime::from_secs(60));
        let connected: Vec<SlaveId> = e.world().bb.connected_slaves(m).collect();
        assert_eq!(connected.len(), MAX_ACTIVE_SLAVES);
        // Disconnect two: the queue must refill the slots.
        e.schedule(SimTime::from_secs(60), BbEvent::disconnect(m, connected[0]));
        e.schedule(SimTime::from_secs(60), BbEvent::disconnect(m, connected[1]));
        e.run_until(SimTime::from_secs(120));
        let after: Vec<SlaveId> = e.world().bb.connected_slaves(m).collect();
        assert_eq!(after.len(), MAX_ACTIVE_SLAVES, "slots not refilled");
        assert!(!after.contains(&connected[0]) || !after.contains(&connected[1]));
    }

    #[test]
    fn seven_or_fewer_connect_without_queueing_delay() {
        let mut e = engine_with_pages(7);
        e.run_until(SimTime::from_secs(60));
        assert_eq!(
            e.world().bb.connected_slaves(MasterId::new(0)).count(),
            7,
            "all seven fit"
        );
    }
}

#[cfg(test)]
mod page_model_tests {
    use super::*;
    use crate::params::{DutyCycle, PageModel, ScanPattern};
    use desim::{Context, Engine, SimDuration, World};

    struct TestWorld {
        bb: Baseband,
    }

    impl World for TestWorld {
        type Event = BbEvent;
        fn handle(&mut self, ctx: &mut Context<BbEvent>, ev: BbEvent) {
            self.bb.handle(ctx, ev);
        }
        fn quiesce(&mut self, ctx: &mut Context<BbEvent>) {
            self.bb.settle(ctx.now());
        }
    }

    fn paging_engine(model: PageModel, packet_success: f64, seed: u64) -> Engine<TestWorld> {
        let mut bb = Baseband::new(MediumConfig {
            page_model: model,
            packet_success,
            ..MediumConfig::default()
        });
        let mut rng = desim::SeedDeriver::new(seed).rng(0);
        let m = bb.add_master(
            MasterConfig::default().duty(DutyCycle::periodic(
                SimDuration::from_millis(100),
                SimDuration::from_secs(60),
            )),
            &mut rng,
        );
        let sl = bb.add_slave(
            SlaveConfig::new(BdAddr::new(0x99)).scan(ScanPattern::alternating()),
            &mut rng,
        );
        let mut e = Engine::new(TestWorld { bb }, seed);
        e.schedule(SimTime::ZERO, BbEvent::start());
        e.schedule(SimTime::ZERO, BbEvent::set_in_range(m, sl, true));
        e.schedule(SimTime::from_secs(1), BbEvent::request_page(m, sl));
        e
    }

    fn link_time(e: &mut Engine<TestWorld>) -> Option<SimTime> {
        e.run_until(SimTime::from_secs(30));
        e.world_mut()
            .bb
            .drain_notifications()
            .into_iter()
            .find_map(|n| match n {
                BbNotification::LinkEstablished { at, .. } => Some(at),
                _ => None,
            })
    }

    #[test]
    fn slot_accurate_page_connects_within_scan_cycles() {
        let mut e = paging_engine(PageModel::SlotAccurate, 1.0, 31);
        let at = link_time(&mut e).expect("no link established");
        // The slave's page-scan windows come every 2.56 s; the page must
        // land within a few of them.
        assert!(
            at < SimTime::from_secs(9),
            "slot-accurate page too slow: {at}"
        );
    }

    #[test]
    fn slot_accurate_and_analytic_latencies_are_comparable() {
        let lat = |model| {
            let mut sum = 0.0;
            let n = 12;
            for seed in 0..n {
                let mut e = paging_engine(model, 1.0, 100 + seed);
                let at = link_time(&mut e).expect("link");
                sum += (at - SimTime::from_secs(1)).as_secs_f64();
            }
            sum / n as f64
        };
        let analytic = lat(PageModel::Analytic);
        let slot = lat(PageModel::SlotAccurate);
        // Both are dominated by the wait for a page-scan window; they
        // must agree within a factor of ~2.5.
        assert!(
            slot < analytic * 2.5 + 1.0 && analytic < slot * 2.5 + 1.0,
            "analytic {analytic:.2}s vs slot-accurate {slot:.2}s"
        );
    }

    #[test]
    fn channel_errors_slow_slot_accurate_paging() {
        let mean_lat = |p: f64| {
            let mut sum = 0.0;
            let n = 10;
            let mut ok = 0;
            for seed in 0..n {
                let mut e = paging_engine(PageModel::SlotAccurate, p, 200 + seed);
                if let Some(at) = link_time(&mut e) {
                    sum += (at - SimTime::from_secs(1)).as_secs_f64();
                    ok += 1;
                }
            }
            (sum / ok.max(1) as f64, ok)
        };
        let (clean, ok_clean) = mean_lat(1.0);
        let (lossy, ok_lossy) = mean_lat(0.3);
        assert_eq!(ok_clean, 10);
        assert!(ok_lossy >= 5, "most lossy pages still complete: {ok_lossy}");
        assert!(
            lossy >= clean,
            "errors cannot speed paging up: {clean:.2}s vs {lossy:.2}s"
        );
    }

    #[test]
    fn page_timeout_fires_when_slave_never_page_scans() {
        // A continuous-inquiry slave has no page windows: the attempt
        // must end in PageFailed at the deadline under both models.
        for model in [PageModel::Analytic, PageModel::SlotAccurate] {
            let mut bb = Baseband::new(MediumConfig {
                page_model: model,
                ..MediumConfig::default()
            });
            let mut rng = desim::SeedDeriver::new(7).rng(0);
            let m = bb.add_master(
                MasterConfig::default().duty(DutyCycle::periodic(
                    SimDuration::from_millis(100),
                    SimDuration::from_secs(60),
                )),
                &mut rng,
            );
            let sl = bb.add_slave(
                SlaveConfig::new(BdAddr::new(2)).scan(ScanPattern::continuous_inquiry()),
                &mut rng,
            );
            let mut e = Engine::new(TestWorld { bb }, 7);
            e.schedule(SimTime::ZERO, BbEvent::start());
            e.schedule(SimTime::ZERO, BbEvent::set_in_range(m, sl, true));
            e.schedule(SimTime::from_secs(1), BbEvent::request_page(m, sl));
            e.run_until(SimTime::from_secs(30));
            let notes = e.world_mut().bb.drain_notifications();
            assert!(
                notes
                    .iter()
                    .any(|n| matches!(n, BbNotification::PageFailed { .. })),
                "{model:?}: no PageFailed in {notes:?}"
            );
            assert_eq!(e.world().bb.slave_connection(sl), None);
        }
    }
}

#[cfg(test)]
mod range_flap_tests {
    use super::*;
    use crate::params::{DutyCycle, ScanPattern};
    use desim::{Context, Engine, SimDuration, World};

    struct TestWorld {
        bb: Baseband,
    }

    impl World for TestWorld {
        type Event = BbEvent;
        fn handle(&mut self, ctx: &mut Context<BbEvent>, ev: BbEvent) {
            self.bb.handle(ctx, ev);
        }
        fn quiesce(&mut self, ctx: &mut Context<BbEvent>) {
            self.bb.settle(ctx.now());
        }
    }

    fn linked_pair(seed: u64) -> Engine<TestWorld> {
        let mut bb = Baseband::new(MediumConfig::default());
        let mut rng = desim::SeedDeriver::new(seed).rng(0);
        let m = bb.add_master(
            MasterConfig::default().duty(DutyCycle::periodic(
                SimDuration::from_millis(100),
                SimDuration::from_secs(60),
            )),
            &mut rng,
        );
        let sl = bb.add_slave(
            SlaveConfig::new(BdAddr::new(2)).scan(ScanPattern::alternating()),
            &mut rng,
        );
        let mut e = Engine::new(TestWorld { bb }, seed);
        e.schedule(SimTime::ZERO, BbEvent::start());
        e.schedule(SimTime::ZERO, BbEvent::set_in_range(m, sl, true));
        e.schedule(SimTime::from_secs(1), BbEvent::request_page(m, sl));
        e.run_until(SimTime::from_secs(15));
        assert_eq!(e.world().bb.slave_connection(sl), Some(m), "setup: no link");
        e
    }

    #[test]
    fn brief_range_loss_does_not_drop_the_link() {
        let mut e = linked_pair(41);
        let (m, s) = (MasterId::new(0), SlaveId::new(0));
        // Out for 1 s — less than the 2 s supervision timeout — then back.
        e.schedule(SimTime::from_secs(15), BbEvent::set_in_range(m, s, false));
        e.schedule(SimTime::from_secs(16), BbEvent::set_in_range(m, s, true));
        e.run_until(SimTime::from_secs(25));
        assert_eq!(
            e.world().bb.slave_connection(s),
            Some(m),
            "link must survive a sub-timeout fade"
        );
        let notes = e.world_mut().bb.drain_notifications();
        assert!(
            !notes
                .iter()
                .any(|n| matches!(n, BbNotification::LinkLost { .. })),
            "{notes:?}"
        );
    }

    #[test]
    fn repeated_flaps_each_shorter_than_timeout_never_drop() {
        let mut e = linked_pair(42);
        let (m, s) = (MasterId::new(0), SlaveId::new(0));
        for k in 0..6u64 {
            let t0 = SimTime::from_secs(15 + 3 * k);
            e.schedule(t0, BbEvent::set_in_range(m, s, false));
            e.schedule(
                t0 + SimDuration::from_millis(1500),
                BbEvent::set_in_range(m, s, true),
            );
        }
        e.run_until(SimTime::from_secs(40));
        assert_eq!(e.world().bb.slave_connection(s), Some(m));
        assert_eq!(e.world().bb.stats().links_lost, 0);
    }
}
