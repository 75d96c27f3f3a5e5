//! Shared serving-path load generator.
//!
//! The deterministic WhereIs workload driver behind the
//! `server_throughput` binary and the tracing differential tests. A
//! [`Workload`] describes a building's worth of users moving between
//! cells while a pool of queriers asks where everyone is; a [`Trace`]
//! is the pre-generated, mode-independent schedule of moves and
//! queries derived from the seed. Six deterministic replay modes exist:
//!
//! * [`run_baseline`] — the seed [`BipsServer`] (string-keyed, fresh
//!   allocations per answer);
//! * [`run_sharded`] — the sharded engine with tracing off, and
//!   [`run_sharded_with`] selecting its slot-read protocol
//!   ([`ReadPath`]) for locked-vs-seqlock comparisons;
//! * [`run_sharded_traced`] — the same engine with a
//!   [`Tracer`] attached and a fresh span per query;
//! * [`run_sharded_churn`] — the same engine over a dynamic path engine,
//!   with seeded topology mutations before each tick;
//! * [`run_socket`] — the same engine behind `bips-serve`, driven over
//!   a real socket by a closed-loop multi-connection client.
//!
//! Beside them, [`run_burst_model`] composes measured flush and query
//! times into a deterministic model of the tail each read path shows
//! while a write burst is flushed.
//! [`Workload::with_mix`] re-tunes any workload to a [`Mix`] preset
//! (80:20, 50:50, 99:1 query:update).
//!
//! Every answer is folded into an FNV-1a checksum and every flush ack
//! into a second one, so "tracing is non-perturbing" is a one-line
//! assertion: the sharded and traced runs must produce bit-identical
//! `checksum` and `ack_checksum` for any `--jobs` value.

// Bench library: wall-clock reads feed perf reports (queries/sec,
// latency histograms), never simulation results.
#![allow(clippy::disallowed_methods)]

use std::io::{self, Read, Write};
use std::sync::Arc;
use std::time::Instant;

use bips_core::graph::{PathEngine, PathEngineKind, WsGraph};
use bips_core::protocol::{LocateOutcome, Notice, Request, Response};
use bips_core::registry::{AccessRights, Registry};
use bips_core::service::{ReadPath, ShardedService, WhereIs};
use bips_core::BipsServer;
use bips_lan::network::HostId;
use bips_lan::rpc::{RpcCodec, RpcFrame};
use bips_lan::stream::{encode_stream_frame, StreamReframer};
use bt_baseband::BdAddr;
use desim::hdr::HdrHistogram;
use desim::metrics::MetricSet;
use desim::report::{hdr_json, Json};
use desim::tracing::{SpanId, Tracer};
use desim::{SeedDeriver, SimTime};

use crate::serve::{Bind, Conn};

/// FNV-1a 64 offset basis: the initial value of every checksum fold.
pub const CHECKSUM_INIT: u64 = 0xcbf2_9ce4_8422_2325;

const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// Query:update ratio of a workload's per-tick blocks.
///
/// Each preset fixes the block sizes directly (rather than deriving
/// them from a float ratio), so a mix is exactly reproducible and its
/// trace is a pure function of `(seed, mix)`:
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Mix {
    /// 256 queries : 64 moves per tick — the paper's read-mostly mix
    /// and the `full`/`smoke` default.
    #[default]
    Q80U20,
    /// 160 : 160 — the write-burst mix where a locked read path queues
    /// behind every flush.
    Q50U50,
    /// 297 : 3 — read-saturated, writers nearly idle.
    Q99U1,
}

impl Mix {
    /// Every preset, in declaration order.
    pub const ALL: [Mix; 3] = [Mix::Q80U20, Mix::Q50U50, Mix::Q99U1];

    /// Queries per tick.
    pub fn queries_per_tick(self) -> usize {
        match self {
            Mix::Q80U20 => 256,
            Mix::Q50U50 => 160,
            Mix::Q99U1 => 297,
        }
    }

    /// Moves per tick (each move ingests two notices).
    pub fn updates_per_tick(self) -> usize {
        match self {
            Mix::Q80U20 => 64,
            Mix::Q50U50 => 160,
            Mix::Q99U1 => 3,
        }
    }

    /// Stable `queries:updates` spelling for CLI flags and reports.
    pub fn name(self) -> &'static str {
        match self {
            Mix::Q80U20 => "80:20",
            Mix::Q50U50 => "50:50",
            Mix::Q99U1 => "99:1",
        }
    }

    /// Parses a CLI spelling (`80:20`, `50:50`, `99:1`).
    pub fn parse(s: &str) -> Option<Mix> {
        match s {
            "80:20" => Some(Mix::Q80U20),
            "50:50" => Some(Mix::Q50U50),
            "99:1" => Some(Mix::Q99U1),
            _ => None,
        }
    }
}

/// One load-bench workload: a population on a square-grid building.
pub struct Workload {
    /// Section name in reports (`full`, `smoke`, `tiny`).
    pub name: &'static str,
    /// Registered user population.
    pub users: u64,
    /// Grid side; the building has `side * side` cells.
    pub side: usize,
    /// Moves applied per tick (each move = present(new) + absent(old)).
    pub updates_per_tick: usize,
    /// Queries served per tick (the default [`Mix::Q80U20`] serves 4x
    /// the updates; [`Workload::with_mix`] re-tunes both counts).
    pub queries_per_tick: usize,
    /// Number of ticks replayed.
    pub ticks: usize,
    /// Queriers are drawn from the first `pool` users — the handful of
    /// receptionists and dispatchers who actually run queries all day.
    pub pool: u64,
    /// Shard count for the sharded engine (power of two).
    pub shards: usize,
    /// Root seed; everything else derives from it.
    pub seed: u64,
}

impl Workload {
    /// The paper-scale workload: 1M users, 2M ops.
    pub fn full() -> Workload {
        Workload {
            name: "full",
            users: 1_000_000,
            side: 16,
            updates_per_tick: 64,
            queries_per_tick: 256,
            ticks: 6250, // 1.6M queries + 400k moves = 2M ops, 80:20
            pool: 4096,
            shards: 16,
            seed: 2003,
        }
    }

    /// The CI-speed workload: 100k users, 200k ops.
    pub fn smoke() -> Workload {
        Workload {
            name: "smoke",
            users: 100_000,
            side: 8,
            updates_per_tick: 64,
            queries_per_tick: 256,
            ticks: 625, // 160k queries + 40k moves = 200k ops
            pool: 1024,
            shards: 8,
            seed: 2003,
        }
    }

    /// A seconds-scale workload for differential tests.
    pub fn tiny() -> Workload {
        Workload {
            name: "tiny",
            users: 2_048,
            side: 4,
            updates_per_tick: 8,
            queries_per_tick: 32,
            ticks: 50,
            pool: 64,
            shards: 4,
            seed: 2003,
        }
    }

    /// The same workload re-tuned to `mix`: the per-tick block sizes
    /// come from the preset and, for non-default mixes, the section
    /// name gains a mix suffix (`full` → `full_50_50`) so report
    /// sections never collide across mixes. The default mix keeps the
    /// bare name. `tiny`'s blocks grow to the standard preset sizes;
    /// its per-run cost stays seconds-scale.
    pub fn with_mix(mut self, mix: Mix) -> Workload {
        self.updates_per_tick = mix.updates_per_tick();
        self.queries_per_tick = mix.queries_per_tick();
        self.name = match (self.name, mix) {
            (name, Mix::Q80U20) => name,
            ("full", Mix::Q50U50) => "full_50_50",
            ("full", Mix::Q99U1) => "full_99_1",
            ("smoke", Mix::Q50U50) => "smoke_50_50",
            ("smoke", Mix::Q99U1) => "smoke_99_1",
            ("tiny", Mix::Q50U50) => "tiny_50_50",
            ("tiny", Mix::Q99U1) => "tiny_99_1",
            // Already-suffixed or custom names stay as they are; the
            // block sizes above still apply.
            (name, _) => name,
        };
        self
    }

    /// Number of cells in the building.
    pub fn cells(&self) -> usize {
        self.side * self.side
    }

    /// Total queries replayed.
    pub fn queries(&self) -> u64 {
        (self.ticks * self.queries_per_tick) as u64
    }
}

/// A pre-generated, mode-independent trace: per tick, a block of moves
/// and a block of queries.
pub struct Trace {
    /// `(uid, old_cell, new_cell)` per move, tick-major.
    pub moves: Vec<(u64, u32, u32)>,
    /// `(querier_uid, target_uid, from_cell)` per query, tick-major.
    pub queries: Vec<(u64, u64, u32)>,
    /// Initial cell per user.
    pub initial: Vec<u32>,
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives the move/query schedule from the workload seed.
pub fn generate_trace(w: &Workload) -> Trace {
    let seeds = SeedDeriver::new(w.seed);
    let cells = w.cells() as u64;
    let initial: Vec<u32> = (0..w.users).map(|u| (u % cells) as u32).collect();
    let mut current = initial.clone();

    let mut mv_state = seeds.derive(1);
    let mut moves = Vec::with_capacity(w.ticks * w.updates_per_tick);
    let mut q_state = seeds.derive(2);
    let mut queries = Vec::with_capacity(w.ticks * w.queries_per_tick);
    for _tick in 0..w.ticks {
        for _ in 0..w.updates_per_tick {
            let r = splitmix(&mut mv_state);
            let uid = r % w.users;
            let old = current[uid as usize];
            // Step to a different cell (never a redundant re-announce).
            let new = (u64::from(old) + 1 + (r >> 32) % (cells - 1)) % cells;
            current[uid as usize] = new as u32;
            moves.push((uid, old, new as u32));
        }
        for _ in 0..w.queries_per_tick {
            let r = splitmix(&mut q_state);
            let querier = r % w.pool;
            let target = (r >> 20) % w.users;
            let from_cell = (r >> 52) % cells;
            queries.push((querier, target, from_cell as u32));
        }
    }
    Trace {
        moves,
        queries,
        initial,
    }
}

/// The Bluetooth address registered for user `uid`.
fn addr(uid: u64) -> BdAddr {
    BdAddr::new(0x1_0000 + uid)
}

/// Folds one answer into the cross-mode checksum (FNV-1a 64).
fn fold(sum: &mut u64, kind: u64, cell: u64, dist_bits: u64, path: &[u32]) {
    let mut h = *sum;
    for word in [kind, cell, dist_bits, path.len() as u64] {
        h = (h ^ word).wrapping_mul(FNV_PRIME);
    }
    for &c in path {
        h = (h ^ u64::from(c)).wrapping_mul(FNV_PRIME);
    }
    *sum = h;
}

/// Folds one flush's acks into the ack checksum (FNV-1a 64).
fn fold_acks(sum: &mut u64, acks: &[bool]) {
    let mut h = *sum;
    h = (h ^ acks.len() as u64).wrapping_mul(FNV_PRIME);
    for &a in acks {
        h = (h ^ u64::from(a)).wrapping_mul(FNV_PRIME);
    }
    *sum = h;
}

/// Result of one mode over one workload.
pub struct ModeResult {
    /// Wall seconds spent inside query blocks only.
    pub query_secs: f64,
    /// Wall seconds for the whole replay (updates included).
    pub total_secs: f64,
    /// Per-query latencies, nanoseconds, in trace order.
    pub latencies_ns: Vec<u64>,
    /// FNV-1a fold of every answer (kind, cell, distance, path).
    pub checksum: u64,
    /// FNV-1a fold of every flush's acks. [`CHECKSUM_INIT`] for the
    /// baseline mode, which has no batched flushes.
    pub ack_checksum: u64,
    /// Queries answered `Found`.
    pub found: u64,
}

impl ModeResult {
    /// Queries per wall second, counting query blocks only.
    pub fn queries_per_sec(&self) -> f64 {
        self.latencies_ns.len() as f64 / self.query_secs
    }

    /// Exact percentile (microseconds) from the sorted latency vector.
    pub fn percentile_us(&self, p: f64) -> f64 {
        let mut sorted = self.latencies_ns.clone();
        sorted.sort_unstable();
        let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
        sorted.get(idx).copied().unwrap_or(0) as f64 / 1000.0
    }

    /// All latencies folded into a log-linear HDR histogram at the
    /// default resolution (relative error < 1.5625%).
    pub fn latency_hdr(&self) -> HdrHistogram {
        let mut h = HdrHistogram::with_default_resolution();
        for &ns in &self.latencies_ns {
            h.record(ns);
        }
        h
    }

    /// The report block every serving bench writes per mode:
    /// throughput, latency quantiles and HDR, phase times, the found
    /// count and both checksums.
    pub fn to_json(&self) -> Json {
        let hdr = self.latency_hdr();
        let mut j = Json::object();
        j.set("queries_per_sec", self.queries_per_sec())
            .set("p50_us", self.percentile_us(0.50))
            .set("p99_us", self.percentile_us(0.99))
            .set("p999_us", hdr.quantile(0.999) as f64 / 1000.0)
            .set("p9999_us", hdr.quantile(0.9999) as f64 / 1000.0)
            .set("latency_hdr_ns", hdr_json(&hdr))
            .set("query_secs", self.query_secs)
            .set("total_secs", self.total_secs)
            .set("found", self.found)
            .set("checksum", format!("{:016x}", self.checksum))
            .set("ack_checksum", format!("{:016x}", self.ack_checksum));
        j
    }

    /// Prints the mode's report row under `label`.
    pub fn print_row(&self, label: &str) {
        println!(
            "  {label}: {:>10.0} q/s  p50 {:>7.2} us  p99 {:>7.2} us  p999 {:>8.2} us  ({:.2} s queries, {:.2} s total)",
            self.queries_per_sec(),
            self.percentile_us(0.50),
            self.percentile_us(0.99),
            self.latency_hdr().quantile(0.999) as f64 / 1000.0,
            self.query_secs,
            self.total_secs,
        );
    }
}

/// Per-shard latency HDR histograms: query latencies attributed to the
/// querier's shard (`querier & (shards - 1)`), exactly as
/// `ShardedService` routes them. Computed post-hoc from the trace so
/// the replay itself stays untouched.
pub fn shard_latency_hdrs(w: &Workload, trace: &Trace, r: &ModeResult) -> Vec<HdrHistogram> {
    let mask = (w.shards as u64).saturating_sub(1);
    let mut hdrs: Vec<HdrHistogram> = (0..w.shards)
        .map(|_| HdrHistogram::with_default_resolution())
        .collect();
    for (&(querier, _, _), &ns) in trace.queries.iter().zip(&r.latencies_ns) {
        let shard = (querier & mask) as usize;
        if let Some(h) = hdrs.get_mut(shard) {
            h.record(ns);
        }
    }
    hdrs
}

/// The square-grid workspace graph.
fn grid(side: usize) -> WsGraph {
    let mut g = WsGraph::new(side * side);
    for r in 0..side {
        for c in 0..side {
            let at = r * side + c;
            if c + 1 < side {
                g.add_edge(at, at + 1, 10.0);
            }
            if r + 1 < side {
                g.add_edge(at, at + side, 10.0);
            }
        }
    }
    g
}

/// A registry with `users` open-rights accounts (`user0`, `user1`, …).
fn registry(users: u64) -> Registry {
    let mut reg = Registry::new();
    for i in 0..users {
        reg.register(&format!("user{i}"), "pw", AccessRights::open())
            .unwrap();
    }
    reg
}

/// Replays the trace against the seed server.
pub fn run_baseline(w: &Workload, trace: &Trace) -> ModeResult {
    let g = grid(w.side);
    let mut server = BipsServer::new(registry(w.users), &g);
    let names: Vec<String> = (0..w.users).map(|i| format!("user{i}")).collect();
    let mut ts: u64 = 0;
    for uid in 0..w.users {
        server
            .registry_mut()
            .login(&names[uid as usize], "pw", addr(uid))
            .expect("setup login");
    }
    for uid in 0..w.users {
        ts += 1;
        server.handle(
            Request::Presence {
                cell: trace.initial[uid as usize],
                addr: addr(uid),
                present: true,
            },
            SimTime::from_micros(ts),
        );
    }

    let mut latencies_ns = Vec::with_capacity(trace.queries.len());
    let mut checksum = CHECKSUM_INIT;
    let mut found = 0u64;
    let mut query_secs = 0.0;
    let start = Instant::now();
    for tick in 0..w.ticks {
        for &(uid, old, new) in
            &trace.moves[tick * w.updates_per_tick..(tick + 1) * w.updates_per_tick]
        {
            ts += 1;
            server.handle(
                Request::Presence {
                    cell: new,
                    addr: addr(uid),
                    present: true,
                },
                SimTime::from_micros(ts),
            );
            ts += 1;
            server.handle(
                Request::Presence {
                    cell: old,
                    addr: addr(uid),
                    present: false,
                },
                SimTime::from_micros(ts),
            );
        }
        let block = Instant::now();
        let mut prev = block;
        for &(querier, target, from_cell) in
            &trace.queries[tick * w.queries_per_tick..(tick + 1) * w.queries_per_tick]
        {
            let resp = server.handle(
                Request::Locate {
                    from: addr(querier),
                    target: names[target as usize].clone(),
                    from_cell,
                },
                SimTime::from_micros(ts),
            );
            let now = Instant::now();
            latencies_ns.push((now - prev).as_nanos() as u64);
            prev = now;
            let Some(Response::LocateResult(out)) = resp else {
                panic!("unexpected response");
            };
            fold_locate(&mut checksum, &mut found, &out);
        }
        query_secs += block.elapsed().as_secs_f64();
    }
    ModeResult {
        query_secs,
        total_secs: start.elapsed().as_secs_f64(),
        latencies_ns,
        checksum,
        ack_checksum: CHECKSUM_INIT,
        found,
    }
}

/// Stable discriminant for non-Found [`LocateOutcome`]s.
fn other_code(out: &LocateOutcome) -> u64 {
    match out {
        LocateOutcome::Found { .. } => 0,
        LocateOutcome::NotLoggedIn => 1,
        LocateOutcome::OutOfCoverage => 2,
        LocateOutcome::NoSuchUser => 3,
        LocateOutcome::Denied => 4,
        LocateOutcome::QuerierNotLoggedIn => 5,
        LocateOutcome::BadQuery(_) => 6,
    }
}

/// Replays the trace against the sharded engine, tracing off, on the
/// default (seqlock) read path.
pub fn run_sharded(w: &Workload, trace: &Trace, jobs: usize) -> (ModeResult, MetricSet) {
    run_sharded_with(w, trace, jobs, ReadPath::Seqlock)
}

/// [`run_sharded`] with an explicit slot-read protocol — the
/// locked-vs-seqlock comparison entry point. Checksums must be
/// bit-identical across read paths for any `jobs`.
pub fn run_sharded_with(
    w: &Workload,
    trace: &Trace,
    jobs: usize,
    read_path: ReadPath,
) -> (ModeResult, MetricSet) {
    run_sharded_impl(w, trace, jobs, new_service(w, read_path), None, None)
}

/// [`run_sharded`] over a dynamic path engine with topology churn
/// folded in at tick boundaries: each tick applies `muts_per_tick`
/// seeded mutations (mostly grid-edge reweights, occasionally a node
/// down/up toggle) before its ingest. Every mutation's applied
/// flag and resulting epoch fold into the answer checksum, so
/// divergence in mutation handling — not just in answers — is caught.
/// Identical `(workload, trace, kind-independent seed)` inputs must
/// checksum identically for every engine `kind` and every `jobs`.
pub fn run_sharded_churn(
    w: &Workload,
    trace: &Trace,
    jobs: usize,
    kind: PathEngineKind,
    churn_seed: u64,
    muts_per_tick: usize,
) -> (ModeResult, MetricSet) {
    let svc = ShardedService::new_dynamic(
        &registry(w.users),
        PathEngine::new(kind, grid(w.side)),
        w.shards,
        ReadPath::Seqlock,
    );
    let churn = (desim::SimRng::seed_from(churn_seed), muts_per_tick);
    run_sharded_impl(w, trace, jobs, svc, None, Some(churn))
}

/// Replays the trace against the sharded engine with `tracer`
/// attached: every query gets a fresh span, every ingest and flush is
/// recorded on its shard's ring.
pub fn run_sharded_traced(
    w: &Workload,
    trace: &Trace,
    jobs: usize,
    tracer: &Arc<Tracer>,
) -> (ModeResult, MetricSet) {
    let svc = new_service(w, ReadPath::Seqlock);
    run_sharded_impl(w, trace, jobs, svc, Some(tracer), None)
}

/// The one sharded replay loop, over `svc` with nobody logged in. Each
/// tick applies `churn`'s topology mutations (its RNG and mutations per
/// tick) if any, ingests the tick's moves, flushes, then serves its
/// queries.
fn run_sharded_impl(
    w: &Workload,
    trace: &Trace,
    jobs: usize,
    mut svc: ShardedService,
    tracer: Option<&Arc<Tracer>>,
    mut churn: Option<(desim::SimRng, usize)>,
) -> (ModeResult, MetricSet) {
    if let Some(tracer) = tracer {
        svc.attach_tracer(Arc::clone(tracer));
    }
    let mut ack_checksum = CHECKSUM_INIT;
    fold_acks(&mut ack_checksum, &populate(&svc, w, trace, jobs));
    let mut ts = w.users;

    let mut latencies_ns = Vec::with_capacity(trace.queries.len());
    let mut checksum = CHECKSUM_INIT;
    let mut found = 0u64;
    let mut query_secs = 0.0;
    let mut path = Vec::new();
    let mut path32 = Vec::new();
    let start = Instant::now();
    for tick in 0..w.ticks {
        if let Some((rng, muts_per_tick)) = &mut churn {
            mutate_topology(&svc, w.side, rng, *muts_per_tick, &mut checksum);
        }
        ingest_tick(&svc, w, trace, tick, &mut ts);
        fold_acks(&mut ack_checksum, &svc.flush(jobs));
        let block = Instant::now();
        let mut prev = block;
        for &(querier, target, from_cell) in
            &trace.queries[tick * w.queries_per_tick..(tick + 1) * w.queries_per_tick]
        {
            let span = tracer.map_or(SpanId::NONE, |t| t.next_span());
            let out = svc.where_is_traced(querier, target, from_cell as usize, &mut path, span);
            let now = Instant::now();
            latencies_ns.push((now - prev).as_nanos() as u64);
            prev = now;
            fold_where(&mut checksum, &mut found, &out, &path, &mut path32);
        }
        query_secs += block.elapsed().as_secs_f64();
    }
    let mut metrics = MetricSet::new();
    svc.export_metrics(&mut metrics);
    if let Some(tracer) = tracer {
        tracer.export_metrics(&mut metrics);
    }
    (
        ModeResult {
            query_secs,
            total_secs: start.elapsed().as_secs_f64(),
            latencies_ns,
            checksum,
            ack_checksum,
            found,
        },
        metrics,
    )
}

/// Applies `muts` seeded mutations to `svc`'s dynamic path engine on a
/// `side`×`side` grid: mostly grid-edge reweights, one in eight a node
/// down/up toggle. Each mutation's applied flag and resulting epoch fold
/// into `checksum`.
fn mutate_topology(
    svc: &ShardedService,
    side: usize,
    rng: &mut desim::SimRng,
    muts: usize,
    checksum: &mut u64,
) {
    let n = side * side;
    let mut eng = svc
        .path_engine()
        .expect("churn runs on a dynamic service")
        .write()
        .unwrap_or_else(|e| e.into_inner());
    for _ in 0..muts {
        if rng.below(8) == 0 {
            let x = rng.below(n as u64) as usize;
            let up = rng.below(2) == 0;
            let applied = eng.set_node_up(x, up).unwrap_or(false);
            fold(
                checksum,
                96 + u64::from(applied),
                x as u64,
                eng.epoch(),
                &[],
            );
        } else {
            let a = rng.below(n as u64) as usize;
            let (r, c) = (a / side, a % side);
            let mut nbrs = Vec::with_capacity(4);
            if c + 1 < side {
                nbrs.push(a + 1);
            }
            if r + 1 < side {
                nbrs.push(a + side);
            }
            if c > 0 {
                nbrs.push(a - 1);
            }
            if r > 0 {
                nbrs.push(a - side);
            }
            let b = nbrs[rng.below(nbrs.len() as u64) as usize];
            let wgt = rng.uniform(0.5, 50.0);
            let applied = eng.set_edge_weight(a, b, wgt).unwrap_or(false);
            fold(
                checksum,
                98 + u64::from(applied),
                a as u64,
                eng.epoch(),
                &[],
            );
        }
    }
}

/// A [`ShardedService`] for the workload with every user logged in —
/// the server-side state `bips-serve` starts from. Presence is NOT
/// pre-applied: the socket client ingests the initial cells itself, so
/// its ack checksum covers the same flushes as [`run_sharded`]'s.
pub fn build_service(w: &Workload) -> ShardedService {
    let svc = new_service(w, ReadPath::Seqlock);
    login_all(&svc, w);
    svc
}

/// The workload's [`ShardedService`] over the frozen grid table, with
/// nobody logged in.
fn new_service(w: &Workload, read_path: ReadPath) -> ShardedService {
    let apsp = grid(w.side).precompute_all_pairs();
    ShardedService::new_with_read_path(&registry(w.users), apsp, w.shards, read_path)
}

fn login_all(svc: &ShardedService, w: &Workload) {
    for uid in 0..w.users {
        svc.login(uid, "pw", addr(uid)).expect("setup login");
    }
}

/// Logs every user in, then ingests each user's initial cell (since
/// stamps `1..=users`) and flushes once; returns the flush's acks.
/// Later stamps continue from `w.users`.
fn populate(svc: &ShardedService, w: &Workload, trace: &Trace, jobs: usize) -> Vec<bool> {
    login_all(svc, w);
    for uid in 0..w.users {
        svc.ingest(addr(uid), trace.initial[uid as usize], true, uid + 1);
    }
    svc.flush(jobs)
}

/// Ingests tick `tick`'s moves, each as present-in-new then
/// absent-from-old, stamped on from `*ts + 1`.
fn ingest_tick(svc: &ShardedService, w: &Workload, trace: &Trace, tick: usize, ts: &mut u64) {
    let upt = w.updates_per_tick;
    for &(uid, old, new) in &trace.moves[tick * upt..(tick + 1) * upt] {
        *ts += 1;
        svc.ingest(addr(uid), new, true, *ts);
        *ts += 1;
        svc.ingest(addr(uid), old, false, *ts);
    }
}

/// Folds one [`WhereIs`] answer into `checksum`, counting `Found`s;
/// `path` is the answer's path, `path32` scratch for its `u32` form.
fn fold_where(
    checksum: &mut u64,
    found: &mut u64,
    out: &WhereIs,
    path: &[usize],
    path32: &mut Vec<u32>,
) {
    match out {
        WhereIs::Found { cell, distance } => {
            *found += 1;
            path32.clear();
            path32.extend(path.iter().map(|&n| n as u32));
            fold(checksum, 0, u64::from(*cell), distance.to_bits(), path32);
        }
        other => fold(checksum, 1 + where_code(other), 0, 0, &[]),
    }
}

/// Folds one [`LocateOutcome`] into `checksum`, counting `Found`s.
fn fold_locate(checksum: &mut u64, found: &mut u64, out: &LocateOutcome) {
    match out {
        LocateOutcome::Found {
            cell,
            path,
            distance,
        } => {
            *found += 1;
            fold(checksum, 0, u64::from(*cell), distance.to_bits(), path);
        }
        other => fold(checksum, 1 + other_code(other), 0, 0, &[]),
    }
}

// ---------------------------------------------------------------------
// Write-burst tail model
// ---------------------------------------------------------------------

/// Result of [`run_burst_model`]: the open-loop write-burst tail,
/// composed deterministically from measured components.
pub struct BurstModelResult {
    /// Modeled per-arrival latencies over one burst cycle.
    pub hdr: HdrHistogram,
    /// Measured wall seconds to ingest one `burst_ticks` block.
    pub ingest_secs: f64,
    /// Measured wall seconds for the burst's `flush(1)` — the span in
    /// which each shard's writer lock is held once, back to back.
    pub flush_secs: f64,
    /// Mean per-shard lock hold: `flush_secs / shards`, nanoseconds.
    pub hold_ns: u64,
    /// Fraction of the burst cycle spent flushing.
    pub duty: f64,
}

/// Ticks of moves a write burst accumulates before one flush applies
/// them: `WRITE_BURST_TICKS * 2 * updates_per_tick` notices, the wave
/// of re-announced users an inquiry sweep delivers at once (8,192 at
/// 80:20, 20,480 at 50:50, 384 at 99:1).
pub const WRITE_BURST_TICKS: usize = 64;

/// Deterministic open-loop model of the tail a read path shows under
/// write bursts.
///
/// Thread-against-thread tail measurements are scheduler-bound: on a
/// small host (CI runners, single-core boxes) OS preemption stalls are
/// milliseconds — an order of magnitude past the lock holds being
/// measured — and land on both read paths at random, so a measured
/// contended p999 does not reproduce run to run. This harness instead
/// *measures* the two quantities the tail is actually made of and
/// composes them deterministically:
///
/// 1. **The burst timeline.** The real writer ingests `burst_ticks`
///    ticks of moves and applies them with one `flush(1)`; ingest and
///    flush wall times are measured over several bursts (first burst
///    discarded as warm-up, remainder averaged). `flush(1)` holds each
///    shard's writer lock once, back to back, so the flush span divides
///    into `shards` equal hold windows — the queue is uid-partitioned
///    and near-uniform.
/// 2. **The service distribution.** Per-query latencies measured by the
///    caller (a barriered replay on the same read path), passed in as
///    `service_hdr`.
///
/// The model then replays one burst cycle with `arrivals` evenly
/// spaced open-loop arrivals. Arrival `i` targets shard `i % shards`
/// and draws its service time by sweeping the measured distribution's
/// quantiles (stride a prime so shard and quantile don't correlate),
/// clamped at p999 so the model's own tail is attributable to the lock
/// protocol under test and not to rare scheduler blips captured in the
/// measured service distribution.
/// An arrival that lands inside the hold window of *its own* shard
/// waits out the remaining hold on [`ReadPath::Locked`] before being
/// served; on [`ReadPath::Seqlock`] it is served immediately (the read
/// path takes no lock, which `bips-core`'s
/// `a_held_writer_lock_stalls_only_locked_reads` test checks; the rare
/// same-slot retry shows in the `core.service.shard<i>.read_retries`
/// counters). Queueing *behind* delayed arrivals is not modeled, so the
/// locked tail is a lower bound.
///
/// Everything entering the histogram is either measured wall time or
/// arithmetic on it; given the same measured inputs the model is
/// bit-deterministic, and the measured inputs themselves (ingest and
/// flush spans of millions of operations) are stable where per-query
/// percentiles are not.
pub fn run_burst_model(
    w: &Workload,
    trace: &Trace,
    burst_ticks: usize,
    arrivals: usize,
    read_path: ReadPath,
    service_hdr: &HdrHistogram,
) -> BurstModelResult {
    assert!(burst_ticks >= 1, "need at least one tick per burst");
    assert!(arrivals >= 1, "need at least one modeled arrival");
    assert!(
        !service_hdr.is_empty(),
        "need a measured service distribution"
    );
    let svc = new_service(w, read_path);
    populate(&svc, w, trace, 1);
    let mut ts = w.users;

    // Burst 0 warms allocator and caches; bursts 1.. are measured.
    const BURSTS: usize = 4;
    let mut ingest_secs = 0.0;
    let mut flush_secs = 0.0;
    let mut tick = 0usize;
    for burst in 0..BURSTS {
        let t0 = Instant::now();
        for _ in 0..burst_ticks {
            ingest_tick(&svc, w, trace, tick, &mut ts);
            tick = (tick + 1) % w.ticks;
        }
        let ingested = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        svc.flush(1);
        let flushed = t1.elapsed().as_secs_f64();
        if burst > 0 {
            ingest_secs += ingested / (BURSTS - 1) as f64;
            flush_secs += flushed / (BURSTS - 1) as f64;
        }
    }

    let shards = w.shards.max(1);
    let cycle_ns = (ingest_secs + flush_secs) * 1e9;
    let flush_ns = flush_secs * 1e9;
    let hold_ns = flush_ns / shards as f64;
    let mut hdr = HdrHistogram::with_default_resolution();
    // Prime stride decorrelates the quantile sweep from `i % shards`.
    const QUANTILE_STEPS: usize = 997;
    for i in 0..arrivals {
        let offset_ns = cycle_ns * (i as f64 + 0.5) / arrivals as f64;
        let q = (((i % QUANTILE_STEPS) as f64 + 0.5) / QUANTILE_STEPS as f64).min(0.999);
        let mut lat = service_hdr.quantile(q);
        // The flush phase occupies the cycle's tail; within it, shard
        // locks are held consecutively: shard j owns
        // [ingest + j*hold, ingest + (j+1)*hold).
        let into_flush = offset_ns - ingest_secs * 1e9;
        if read_path == ReadPath::Locked && into_flush >= 0.0 {
            let holding = (into_flush / hold_ns).min((shards - 1) as f64) as usize;
            if holding == i % shards {
                let remaining = (holding + 1) as f64 * hold_ns - into_flush;
                lat += remaining.max(0.0) as u64;
            }
        }
        hdr.record(lat);
    }
    BurstModelResult {
        hdr,
        ingest_secs,
        flush_secs,
        hold_ns: hold_ns as u64,
        duty: flush_ns / cycle_ns.max(f64::MIN_POSITIVE),
    }
}

// ---------------------------------------------------------------------
// Socket client mode
// ---------------------------------------------------------------------

/// One client connection: an RPC codec over a length-delimited byte
/// stream, driven strictly request-by-request (closed loop).
struct ClientConn {
    stream: Conn,
    codec: RpcCodec,
    reframer: StreamReframer,
    rbuf: Vec<u8>,
}

fn proto_err(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

impl ClientConn {
    fn dial(bind: &Bind) -> io::Result<ClientConn> {
        Ok(ClientConn {
            stream: Conn::dial(bind)?,
            codec: RpcCodec::new(),
            reframer: StreamReframer::new(),
            rbuf: vec![0u8; 64 * 1024],
        })
    }

    /// Sends one request payload and blocks for its response — the
    /// closed-loop primitive. Checks the correlation id round-trips.
    fn call(&mut self, payload: &[u8]) -> io::Result<Response> {
        let (corr, framed) = self.codec.encode_request(payload);
        let mut msg = Vec::with_capacity(framed.len() + 4);
        encode_stream_frame(&mut msg, &framed);
        self.stream.write_all(&msg)?;
        loop {
            let got = self
                .reframer
                .next_frame()
                .map_err(|e| proto_err(&e.to_string()))?;
            if let Some(frame) = got {
                let Some(RpcFrame::Response {
                    corr: rc, payload, ..
                }) = RpcCodec::decode_ref_bytes(HostId::new(0), frame)
                else {
                    return Err(proto_err("stream frame is not an rpc response"));
                };
                if rc.value() != corr.value() {
                    return Err(proto_err("correlation id mismatch"));
                }
                return Response::decode(payload)
                    .map_err(|e| proto_err(&format!("bad response payload: {e}")));
            }
            let n = self.stream.read(&mut self.rbuf)?;
            if n == 0 {
                return Err(proto_err("server closed mid-request"));
            }
            self.reframer.extend(&self.rbuf[..n]);
        }
    }
}

/// Batch size for streaming the initial 1-presence-per-user state in.
const INGEST_CHUNK: usize = 8192;

/// Replays the trace against a `bips-serve` instance over a real
/// socket: the networked analogue of [`run_sharded`].
///
/// One *control* connection carries all ingest batches and flushes in
/// trace order (so the global presence sequence — and therefore every
/// flush's ack vector — is identical to the in-process run), while
/// `conns` *query* connections serve the tick's queries closed-loop:
/// query `i` of a tick rides connection `i % conns`, each connection
/// has exactly one request in flight, and a scoped join between ticks
/// is the barrier that keeps queries reading the tick's flushed state.
/// Answers are re-folded in global trace order afterwards, so
/// `checksum`/`ack_checksum` must be bit-identical to [`run_sharded`]
/// for any `conns` — that is the proof the networked path serves the
/// same answers.
///
/// Unlike the in-process modes, `latencies_ns` holds true end-to-end
/// RTTs (encode → socket → serve → socket → decode) per request.
///
/// When `send_shutdown` is set, a [`Request::Shutdown`] goes out on
/// the control connection after the replay and the server's ack is
/// awaited — the graceful-drain path.
pub fn run_socket(
    w: &Workload,
    trace: &Trace,
    bind: &Bind,
    conns: usize,
    send_shutdown: bool,
) -> io::Result<ModeResult> {
    assert!(conns >= 1, "need at least one query connection");
    let mut control = ClientConn::dial(bind)?;
    let mut query_conns = Vec::with_capacity(conns);
    for _ in 0..conns {
        query_conns.push(ClientConn::dial(bind)?);
    }

    let mut ts: u64 = 0;
    let mut ack_checksum = CHECKSUM_INIT;

    // Initial presence, batched over the control connection. The
    // since_us stamps replay run_sharded's setup sequence (1..=users).
    let mut uid = 0u64;
    while uid < w.users {
        let end = (uid + INGEST_CHUNK as u64).min(w.users);
        let items: Vec<Notice> = (uid..end)
            .map(|u| Notice {
                cell: trace.initial[u as usize],
                addr: addr(u),
                present: true,
            })
            .collect();
        let sent = items.len() as u32;
        let resp = control.call(
            &Request::IngestBatch {
                base_us: ts + 1,
                items,
            }
            .encode(),
        )?;
        let Response::IngestAck { queued } = resp else {
            return Err(proto_err("expected IngestAck"));
        };
        if queued != sent {
            return Err(proto_err("server queued a different batch size"));
        }
        ts += u64::from(sent);
        uid = end;
    }
    let Response::FlushAck { acks } = control.call(&Request::Flush.encode())? else {
        return Err(proto_err("expected FlushAck"));
    };
    fold_acks(&mut ack_checksum, &acks);

    let qpt = w.queries_per_tick;
    let mut latencies_ns = vec![0u64; trace.queries.len()];
    let mut checksum = CHECKSUM_INIT;
    let mut found = 0u64;
    let mut query_secs = 0.0;
    let mut outcomes: Vec<Option<LocateOutcome>> = (0..qpt).map(|_| None).collect();
    let start = Instant::now();
    for tick in 0..w.ticks {
        // Moves: one batch, then a flush, on the control connection.
        let mvs = &trace.moves[tick * w.updates_per_tick..(tick + 1) * w.updates_per_tick];
        let mut items = Vec::with_capacity(mvs.len() * 2);
        for &(uid, old, new) in mvs {
            items.push(Notice {
                cell: new,
                addr: addr(uid),
                present: true,
            });
            items.push(Notice {
                cell: old,
                addr: addr(uid),
                present: false,
            });
        }
        let base_us = ts + 1;
        ts += items.len() as u64;
        let Response::IngestAck { .. } =
            control.call(&Request::IngestBatch { base_us, items }.encode())?
        else {
            return Err(proto_err("expected IngestAck"));
        };
        let Response::FlushAck { acks } = control.call(&Request::Flush.encode())? else {
            return Err(proto_err("expected FlushAck"));
        };
        fold_acks(&mut ack_checksum, &acks);

        // Queries: closed-loop, round-robin over the query conns. The
        // scope join is the tick barrier.
        let queries = &trace.queries[tick * qpt..(tick + 1) * qpt];
        let block = Instant::now();
        let worker_results: Vec<io::Result<Vec<(usize, u64, LocateOutcome)>>> =
            std::thread::scope(|s| {
                let handles: Vec<_> = query_conns
                    .iter_mut()
                    .enumerate()
                    .map(|(k, conn)| {
                        s.spawn(move || {
                            let mut res = Vec::with_capacity(queries.len() / conns + 1);
                            let mut i = k;
                            while i < queries.len() {
                                let (querier, target, from_cell) = queries[i];
                                let payload = Request::WhereIs {
                                    querier,
                                    target,
                                    from_cell,
                                }
                                .encode();
                                let t0 = Instant::now();
                                let resp = conn.call(&payload)?;
                                let lat = t0.elapsed().as_nanos() as u64;
                                let Response::LocateResult(out) = resp else {
                                    return Err(proto_err("expected LocateResult"));
                                };
                                res.push((i, lat, out));
                                i += conns;
                            }
                            Ok(res)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| {
                        h.join()
                            .unwrap_or_else(|_| Err(proto_err("query worker panicked")))
                    })
                    .collect()
            });
        query_secs += block.elapsed().as_secs_f64();
        for r in worker_results {
            for (i, lat, out) in r? {
                latencies_ns[tick * qpt + i] = lat;
                outcomes[i] = Some(out);
            }
        }
        // Re-fold in global trace order — connection interleaving must
        // not be visible in the checksum.
        for slot in outcomes.iter_mut() {
            let Some(out) = slot.take() else {
                return Err(proto_err("missing query result"));
            };
            fold_locate(&mut checksum, &mut found, &out);
        }
    }
    let total_secs = start.elapsed().as_secs_f64();
    drop(query_conns);
    if send_shutdown {
        let Response::ShutdownAck = control.call(&Request::Shutdown.encode())? else {
            return Err(proto_err("expected ShutdownAck"));
        };
    }
    Ok(ModeResult {
        query_secs,
        total_secs,
        latencies_ns,
        checksum,
        ack_checksum,
        found,
    })
}

/// Stable discriminant for non-Found [`WhereIs`] outcomes.
fn where_code(out: &WhereIs) -> u64 {
    match out {
        WhereIs::Found { .. } => 0,
        WhereIs::NotLoggedIn => 1,
        WhereIs::OutOfCoverage => 2,
        WhereIs::NoSuchUser => 3,
        WhereIs::Denied => 4,
        WhereIs::QuerierNotLoggedIn => 5,
        WhereIs::BadQuery(_) => 6,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_is_deterministic() {
        let w = Workload::tiny();
        let a = generate_trace(&w);
        let b = generate_trace(&w);
        assert_eq!(a.moves, b.moves);
        assert_eq!(a.queries, b.queries);
        assert_eq!(a.initial, b.initial);
        assert_eq!(a.queries.len() as u64, w.queries());
    }

    #[test]
    fn fold_acks_depends_on_order_and_length() {
        let mut a = CHECKSUM_INIT;
        let mut b = CHECKSUM_INIT;
        fold_acks(&mut a, &[true, false]);
        fold_acks(&mut b, &[false, true]);
        assert_ne!(a, b);
        let mut c = CHECKSUM_INIT;
        fold_acks(&mut c, &[true]);
        fold_acks(&mut c, &[false]);
        assert_ne!(a, c, "batch boundaries are part of the fold");
    }

    #[test]
    fn mix_presets_shape_the_workload() {
        for mix in Mix::ALL {
            let w = Workload::smoke().with_mix(mix);
            assert_eq!(w.queries_per_tick, mix.queries_per_tick());
            assert_eq!(w.updates_per_tick, mix.updates_per_tick());
            let trace = generate_trace(&w);
            assert_eq!(trace.queries.len(), w.ticks * mix.queries_per_tick());
            assert_eq!(trace.moves.len(), w.ticks * mix.updates_per_tick());
            assert_eq!(Mix::parse(mix.name()), Some(mix), "{}", mix.name());
        }
        // The default mix keeps bare names; others suffix them.
        assert_eq!(Workload::smoke().with_mix(Mix::Q80U20).name, "smoke");
        assert_eq!(Workload::full().with_mix(Mix::Q50U50).name, "full_50_50");
        assert_eq!(Workload::smoke().with_mix(Mix::Q99U1).name, "smoke_99_1");
        assert_eq!(Workload::tiny().with_mix(Mix::Q50U50).name, "tiny_50_50");
        assert_eq!(Mix::parse("70:30"), None);
    }

    #[test]
    fn read_paths_are_bit_identical_across_mixes() {
        for mix in Mix::ALL {
            let w = Workload::tiny().with_mix(mix);
            let trace = generate_trace(&w);
            let (seq, _) = run_sharded_with(&w, &trace, 1, ReadPath::Seqlock);
            let (locked, _) = run_sharded_with(&w, &trace, 4, ReadPath::Locked);
            assert_eq!(seq.checksum, locked.checksum, "{} answers diverged", w.name);
            assert_eq!(
                seq.ack_checksum, locked.ack_checksum,
                "{} acks diverged",
                w.name
            );
            assert_eq!(seq.found, locked.found);
        }
    }

    #[test]
    fn burst_model_separates_the_read_paths() {
        let w = Workload::tiny().with_mix(Mix::Q50U50);
        let trace = generate_trace(&w);
        let (seq_ref, _) = run_sharded_with(&w, &trace, 1, ReadPath::Seqlock);
        let seq = run_burst_model(
            &w,
            &trace,
            4,
            100_000,
            ReadPath::Seqlock,
            &seq_ref.latency_hdr(),
        );
        let (lck_ref, _) = run_sharded_with(&w, &trace, 1, ReadPath::Locked);
        let lck = run_burst_model(
            &w,
            &trace,
            4,
            100_000,
            ReadPath::Locked,
            &lck_ref.latency_hdr(),
        );
        for m in [&seq, &lck] {
            assert_eq!(m.hdr.count(), 100_000);
            assert!(m.duty > 0.0 && m.duty < 1.0, "duty {}", m.duty);
            assert!(m.hold_ns > 0);
            assert!(m.ingest_secs > 0.0 && m.flush_secs > 0.0);
        }
        // Structural: a seqlock arrival is never delayed beyond its own
        // service distribution; a locked arrival can queue a full hold.
        assert!(seq.hdr.max() <= seq_ref.latency_hdr().quantile(1.0));
        assert!(
            lck.hdr.quantile(0.9999) >= seq.hdr.quantile(0.9999),
            "locked burst tail {} < seqlock {}",
            lck.hdr.quantile(0.9999),
            seq.hdr.quantile(0.9999)
        );
    }

    #[test]
    fn shard_hdrs_merge_to_overall() {
        let w = Workload::tiny();
        let trace = generate_trace(&w);
        let (r, _) = run_sharded(&w, &trace, 1);
        let shards = shard_latency_hdrs(&w, &trace, &r);
        assert_eq!(shards.len(), w.shards);
        let mut merged = HdrHistogram::with_default_resolution();
        for h in &shards {
            merged.merge(h).expect("same resolution");
        }
        assert_eq!(merged.count(), r.latencies_ns.len() as u64);
        assert_eq!(merged, r.latency_hdr());
    }
}
