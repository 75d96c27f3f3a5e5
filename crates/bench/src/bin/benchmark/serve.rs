//! The serving workloads. `serve_inproc` drives [`ShardedService`]
//! directly; `serve_socket` sends the same seeded ticks over one
//! loopback TCP connection to an in-process [`Server`]. Both check every
//! answer against the ground truth of the grid and fold answers and
//! flush acks into the checksums the fingerprint reports.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bips_bench::serve::{Bind, ServeStats, Server};
use bips_core::graph::{PathEngine, PathEngineKind};
use bips_core::protocol::{LocateOutcome, Notice, Request, Response};
use bips_core::service::{ReadPath, ShardedService, WhereIs};
use bips_lan::network::HostId;
use bips_lan::rpc::{RpcCodec, RpcFrame};
use bips_lan::stream::{begin_stream_frame, encode_stream_frame, end_stream_frame, StreamReframer};
use desim::MetricSet;

use crate::alloc;
use crate::inputs::{self, Schedule, Shape, CHECKSUM_INIT};
use crate::measure::{nanos, repeat_setup, Budget, Latency, Metrics, Overhead, Windows};
use crate::spans::{Spans, ROOT};
use crate::Outcome;

/// Ticks whose answers and acks the fingerprint checksums cover: short
/// enough that every run of both serving workloads gets there, so runs
/// with the same seed must agree on them exactly.
pub const FINGERPRINT_TICKS: usize = 500;

/// Batch size for streaming the initial presence in over the socket.
const INGEST_CHUNK: usize = 8192;

/// The serving workloads' size.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Population, building and per-tick mix.
    pub shape: Shape,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Input seed.
    pub seed: u64,
}

impl Config {
    /// 1M users on a 16×16 grid, 16 shards, 256 queries and 64 moves
    /// per tick, 6250 ticks per pass; three set-ups of over a second.
    pub fn full(seed: u64) -> Config {
        Config {
            shape: Shape {
                users: 1_000_000,
                side: 16,
                moves_per_tick: 64,
                queries_per_tick: 256,
                ticks: 6250,
                pool: 4096,
                shards: 16,
            },
            setups: 3,
            seed,
        }
    }

    /// A seconds-scale size for the tests.
    #[cfg(test)]
    pub fn tiny(seed: u64) -> Config {
        Config {
            shape: Shape {
                users: 2048,
                side: 4,
                moves_per_tick: 8,
                queries_per_tick: 32,
                ticks: 50,
                pool: 64,
                shards: 4,
            },
            setups: 2,
            seed,
        }
    }
}

/// Wall time of each set-up stage, seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupStages {
    registry: f64,
    apsp: f64,
    login: f64,
    initial_ingest: f64,
    /// Initial acks that were not all `true`.
    pub bad_acks: u64,
}

impl SetupStages {
    /// Reports the stages as `setup.*` metrics.
    pub fn report(&self, m: &mut Metrics) {
        m.put("setup.registry_s", self.registry, 1);
        m.put("setup.apsp_s", self.apsp, 1);
        m.put("setup.login_s", self.login, 1);
        m.put("setup.initial_ingest_s", self.initial_ingest, 1);
    }
}

/// Builds the engine — over the frozen all-pairs table, or over a live
/// `PathEngineKind::Dynamic` engine when `dynamic` — and logs every
/// user in.
pub fn build_service(shape: &Shape, dynamic: bool) -> (ShardedService, SetupStages) {
    let t0 = Instant::now();
    let reg = inputs::registry(shape.users);
    let t1 = Instant::now();
    let g = inputs::grid(shape.side);
    let (svc, t2) = if dynamic {
        let engine = PathEngine::new(PathEngineKind::Dynamic, g);
        let t2 = Instant::now();
        (
            ShardedService::new_dynamic(&reg, engine, shape.shards, ReadPath::Seqlock),
            t2,
        )
    } else {
        let apsp = g.precompute_all_pairs();
        let t2 = Instant::now();
        (
            ShardedService::new_with_read_path(&reg, apsp, shape.shards, ReadPath::Seqlock),
            t2,
        )
    };
    drop(reg);
    for uid in 0..shape.users {
        svc.login(uid, "pw", inputs::addr(uid))
            .expect("fresh registry users log in");
    }
    let t3 = Instant::now();
    let stages = SetupStages {
        registry: (t1 - t0).as_secs_f64(),
        apsp: (t2 - t1).as_secs_f64(),
        login: (t3 - t2).as_secs_f64(),
        ..SetupStages::default()
    };
    (svc, stages)
}

/// Ingests and flushes every user's initial presence in process.
pub fn ingest_initial(svc: &ShardedService, sched: &Schedule, stages: &mut SetupStages) {
    let t0 = Instant::now();
    for (uid, &cell) in (0u64..).zip(&sched.initial) {
        svc.ingest(inputs::addr(uid), cell, true, uid + 1);
    }
    let acks = svc.flush(1);
    stages.initial_ingest = t0.elapsed().as_secs_f64();
    if acks.len() != sched.initial.len() || !acks.iter().all(|&a| a) {
        stages.bad_acks = sched.initial.len() as u64;
    }
}

/// Counts answers, checks them against the ground truth and folds them.
struct Tally {
    side: usize,
    truth: Vec<u32>,
    checksum: u64,
    ack_checksum: u64,
    /// Checksums frozen after [`FINGERPRINT_TICKS`] ticks.
    prefix: Option<(u64, u64)>,
    attempted: u64,
    failed: u64,
    found: u64,
    path_nodes: u64,
    ticks: usize,
}

impl Tally {
    /// A tally whose ack checksum already covers the initial flush (one
    /// `true` per user, which set-up checked).
    fn new(shape: &Shape, sched: &Schedule) -> Tally {
        let mut ack_checksum = CHECKSUM_INIT;
        inputs::fold_acks(&mut ack_checksum, &vec![true; sched.initial.len()]);
        Tally {
            side: shape.side,
            truth: sched.initial.clone(),
            checksum: CHECKSUM_INIT,
            ack_checksum,
            prefix: None,
            attempted: 0,
            failed: 0,
            found: 0,
            path_nodes: 0,
            ticks: 0,
        }
    }

    /// Checks one flush: every notice of a move changes state.
    fn acks(&mut self, acks: &[bool], expected: usize) {
        self.attempted += expected as u64;
        if acks.len() != expected || !acks.iter().all(|&a| a) {
            self.failed += expected as u64;
        }
        inputs::fold_acks(&mut self.ack_checksum, acks);
    }

    /// Checks one answer: every user is logged in and present, so each
    /// query must find its target on a shortest grid walk. `Err` carries
    /// the checksum kind of any other outcome.
    fn answer(
        &mut self,
        target: u64,
        from: u32,
        found: Result<(u32, f64, &[impl inputs::Node]), u64>,
    ) {
        self.attempted += 1;
        match found {
            Ok((cell, distance, path)) => {
                let truth = self.truth[target as usize];
                if !inputs::grid_answer_ok(self.side, truth, from, cell, distance, path) {
                    self.failed += 1;
                }
                self.found += 1;
                self.path_nodes += path.len() as u64;
                inputs::fold(
                    &mut self.checksum,
                    0,
                    u64::from(cell),
                    distance.to_bits(),
                    path,
                );
            }
            Err(kind) => {
                self.failed += 1;
                inputs::fold(&mut self.checksum, kind, 0, 0, &[] as &[u32]);
            }
        }
    }

    fn end_tick(&mut self) {
        self.ticks += 1;
        if self.ticks == FINGERPRINT_TICKS {
            self.prefix = Some((self.checksum, self.ack_checksum));
        }
    }

    fn finish(self, outcome: &mut Outcome) {
        let (checksum, acks) = self.prefix.unwrap_or((self.checksum, self.ack_checksum));
        outcome.attempted += self.attempted;
        outcome.failed += self.failed;
        outcome.fingerprint("ticks", self.ticks.min(FINGERPRINT_TICKS) as u64);
        outcome.fingerprint("checksum", format!("{checksum:016x}"));
        outcome.fingerprint("ack_checksum", format!("{acks:016x}"));
        outcome.metrics.put(
            "graph.path_len_mean",
            self.path_nodes as f64 / self.found.max(1) as f64,
            self.found,
        );
    }
}

/// Checksum kind of an in-process answer other than `Found`, as
/// `loadgen` folds it.
pub fn where_kind(out: &WhereIs) -> u64 {
    1 + match out {
        WhereIs::Found { .. } => 0,
        WhereIs::NotLoggedIn => 1,
        WhereIs::OutOfCoverage => 2,
        WhereIs::NoSuchUser => 3,
        WhereIs::Denied => 4,
        WhereIs::QuerierNotLoggedIn => 5,
        WhereIs::BadQuery(_) => 6,
    }
}

/// [`where_kind`] for an answer decoded off the wire.
fn locate_kind(out: &LocateOutcome) -> u64 {
    1 + match out {
        LocateOutcome::Found { .. } => 0,
        LocateOutcome::NotLoggedIn => 1,
        LocateOutcome::OutOfCoverage => 2,
        LocateOutcome::NoSuchUser => 3,
        LocateOutcome::Denied => 4,
        LocateOutcome::QuerierNotLoggedIn => 5,
        LocateOutcome::BadQuery(_) => 6,
    }
}

/// Copies the service's counters into the per-layer metrics.
pub fn service_counters(svc: &ShardedService, m: &mut Metrics) {
    let mut set = MetricSet::new();
    svc.export_metrics(&mut set);
    for (ours, theirs) in [
        ("service.read_retries", "core.service.read_retries"),
        ("service.slot_publishes", "core.service.slot_publishes"),
        ("service.applied", "core.service.applied"),
        ("service.redundant", "core.service.redundant"),
        ("service.ignored", "core.service.ignored"),
    ] {
        m.put(ours, set.counter_value(theirs).unwrap_or(0) as f64, 1);
    }
}

/// `serve_inproc`: the ticks call `ingest`/`flush(1)`/`where_is`
/// directly on the engine; no socket is involved.
pub fn serve_inproc(cfg: &Config, budget: Budget, trace: bool) -> Outcome {
    let shape = cfg.shape;
    let sched = inputs::schedule(&shape, cfg.seed);
    let (svc, stages, setup_s) = repeat_setup(
        cfg.setups,
        || {
            let (svc, mut stages) = build_service(&shape, false);
            ingest_initial(&svc, &sched, &mut stages);
            (svc, stages)
        },
        drop,
    );
    let mut out = Outcome::new(trace);
    out.metrics.put("setup_s", setup_s.value, setup_s.samples);
    stages.report(&mut out.metrics);
    out.failed += stages.bad_acks;

    let mut tally = Tally::new(&shape, &sched);
    let mut latency = Latency::default();
    let mut qps = Windows::new(50 * shape.queries_per_tick as u64);
    let mut updates = Windows::new(50 * 2 * shape.moves_per_tick as u64);
    let mut ingest_ns = Latency::default();
    let mut where_ns = Latency::default();
    let (mut flush_ns, mut flushed) = (0u64, 0u64);
    let (mut allocs_q, mut queries_q, mut allocs_n) = (0u64, 0u64, 0u64);
    let mut overhead = Overhead::default();
    let mut spans = Spans::new(trace);
    let mut ts = shape.users;
    let mut path = Vec::new();
    let start = Instant::now();
    let mut k = 0;
    while !budget.spent(k, start) {
        let traced = trace && k % 2 == 1;
        let (moves, queries) = sched.tick(&shape, k);
        let tick_span = if traced {
            spans.open("tick", ROOT, k as u64, Instant::now())
        } else {
            ROOT
        };

        let w0 = Instant::now();
        let mut notices = 0usize;
        for (uid, from, to) in moves {
            for (cell, present) in [(to, true), (from, false)] {
                ts += 1;
                if traced {
                    let t0 = Instant::now();
                    let (_, n) = alloc::count(|| svc.ingest(inputs::addr(uid), cell, present, ts));
                    let t1 = Instant::now();
                    ingest_ns.span(t0, t1);
                    spans.push("service.ingest", tick_span, uid, t0, t1);
                    allocs_n += n;
                } else {
                    svc.ingest(inputs::addr(uid), cell, present, ts);
                }
                notices += 1;
            }
            tally.truth[uid as usize] = to;
        }
        let f0 = Instant::now();
        let (acks, n) = alloc::count(|| svc.flush(1));
        let w1 = Instant::now();
        if traced {
            flush_ns += nanos(w1 - f0);
            flushed += notices as u64;
            allocs_n += n;
            spans.push("service.flush", tick_span, k as u64, f0, w1);
        } else {
            updates.put(notices as u64, (w1 - w0).as_secs_f64());
        }
        tally.acks(&acks, notices);

        let block = Instant::now();
        let mut busy = 0u64;
        for (i, &(querier, target, from)) in queries.iter().enumerate() {
            let t0 = Instant::now();
            let (answer, n) = if traced {
                alloc::count(|| svc.where_is(querier, target, from as usize, &mut path))
            } else {
                (svc.where_is(querier, target, from as usize, &mut path), 0)
            };
            let t1 = Instant::now();
            if traced {
                where_ns.span(t0, t1);
                spans.push(
                    "service.where_is",
                    tick_span,
                    (k * queries.len() + i) as u64,
                    t0,
                    t1,
                );
                allocs_q += n;
                queries_q += 1;
            } else {
                latency.span(t0, t1);
                busy += nanos(t1 - t0);
            }
            let found = match answer {
                WhereIs::Found { cell, distance } => Ok((cell, distance, path.as_slice())),
                other => Err(where_kind(&other)),
            };
            tally.answer(target, from, found);
        }
        let block_end = Instant::now();
        overhead.put(
            traced,
            queries.len() as u64,
            (block_end - block).as_secs_f64(),
        );
        if traced {
            spans.close(tick_span, block_end);
        } else {
            qps.put(queries.len() as u64, busy as f64 * 1e-9);
        }
        tally.end_tick();
        k += 1;
    }

    let m = &mut out.metrics;
    let (rate, windows) = qps.median();
    m.put("throughput", rate, windows);
    let (p50, p99) = latency.p50_p99();
    m.put("latency_p50_us", p50 / 1e3, latency.count());
    m.put("latency_p99_us", p99 / 1e3, latency.count());
    let (rate, windows) = updates.median();
    m.put("update_rate", rate, windows);
    let (p50, p99) = where_ns.p50_p99();
    m.put("service.where_is_p50_ns", p50, where_ns.count());
    m.put("service.where_is_p99_ns", p99, where_ns.count());
    m.put(
        "service.ingest_p50_ns",
        ingest_ns.quantile(0.5),
        ingest_ns.count(),
    );
    m.put(
        "service.flush_ns_per_notice",
        flush_ns as f64 / flushed.max(1) as f64,
        flushed,
    );
    m.put(
        "alloc.per_query",
        allocs_q as f64 / queries_q.max(1) as f64,
        queries_q,
    );
    m.put(
        "alloc.per_notice",
        allocs_n as f64 / flushed.max(1) as f64,
        flushed,
    );
    m.put("trace.spans", spans.len() as f64, spans.len() as u64);
    overhead.report(m);
    service_counters(&svc, m);
    tally.finish(&mut out);
    if trace {
        out.spans = Some(spans);
    }
    out
}

/// When each stage of one client call finished.
#[derive(Debug, Clone, Copy)]
struct Stamps {
    start: Instant,
    encoded: Instant,
    written: Instant,
    received: Instant,
    decoded: Instant,
}

/// The closed-loop client: one request in flight, reused buffers.
struct Client {
    stream: TcpStream,
    codec: RpcCodec,
    reframer: StreamReframer,
    rbuf: Vec<u8>,
    frame: Vec<u8>,
    reads: u64,
}

fn proto_err(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

impl Client {
    fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        // Closed-loop RTTs: never let Nagle hold a request back.
        stream.set_nodelay(true)?;
        // A stuck server fails the run instead of hanging it.
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Client {
            stream,
            codec: RpcCodec::new(),
            reframer: StreamReframer::new(),
            rbuf: vec![0u8; 64 * 1024],
            frame: Vec::with_capacity(4096),
            reads: 0,
        })
    }

    /// Sends `req` and blocks for its response. With `capture`, the
    /// request's stream bytes and the response frame are appended to
    /// it for the in-process replay.
    fn call(
        &mut self,
        req: &Request,
        mut capture: Option<&mut Vec<(Vec<u8>, Vec<u8>)>>,
    ) -> io::Result<(Response, Stamps)> {
        let start = Instant::now();
        let (corr, framed) = self.codec.encode_request(&req.encode());
        self.frame.clear();
        encode_stream_frame(&mut self.frame, &framed);
        let encoded = Instant::now();
        self.stream.write_all(&self.frame)?;
        let written = Instant::now();
        loop {
            if let Some(frame) = self
                .reframer
                .next_frame()
                .map_err(|e| proto_err(e.to_string()))?
            {
                let received = Instant::now();
                if let Some(c) = capture.take() {
                    c.push((self.frame.clone(), frame.to_vec()));
                }
                let Some(RpcFrame::Response {
                    corr: rc, payload, ..
                }) = RpcCodec::decode_ref_bytes(HostId::new(0), frame)
                else {
                    return Err(proto_err("stream frame is not an rpc response"));
                };
                if rc != corr {
                    return Err(proto_err("correlation id mismatch"));
                }
                let resp = Response::decode(payload)
                    .map_err(|e| proto_err(format!("bad response: {e}")))?;
                let decoded = Instant::now();
                return Ok((
                    resp,
                    Stamps {
                        start,
                        encoded,
                        written,
                        received,
                        decoded,
                    },
                ));
            }
            let n = self.stream.read(&mut self.rbuf)?;
            if n == 0 {
                return Err(proto_err("server closed mid-request"));
            }
            self.reads += 1;
            self.reframer.extend(&self.rbuf[..n]);
        }
    }
}

/// A running server, the client connected to it and the engine behind
/// both.
struct Rig {
    svc: Arc<ShardedService>,
    client: Client,
    server: JoinHandle<ServeStats>,
}

impl Rig {
    /// Builds the engine, starts the server on an ephemeral loopback
    /// port and streams the initial presence in over the socket.
    fn start(shape: &Shape, sched: &Schedule) -> io::Result<(Rig, SetupStages)> {
        let (svc, mut stages) = build_service(shape, false);
        let svc = Arc::new(svc);
        let t0 = Instant::now();
        let server = Server::bind(&Bind::Tcp("127.0.0.1:0".into()), Arc::clone(&svc), 1)?;
        let addr = server
            .tcp_addr()
            .ok_or_else(|| proto_err("server has no TCP address"))?;
        let server = std::thread::Builder::new()
            .name("benchmark-server".into())
            .spawn(move || server.serve())?;
        let mut client = Client::connect(addr)?;
        let mut uid = 0u64;
        while uid < shape.users {
            let end = (uid + INGEST_CHUNK as u64).min(shape.users);
            let items: Vec<Notice> = (uid..end)
                .map(|u| Notice {
                    cell: sched.initial[u as usize],
                    addr: inputs::addr(u),
                    present: true,
                })
                .collect();
            let sent = items.len() as u32;
            let (resp, _) = client.call(
                &Request::IngestBatch {
                    base_us: uid + 1,
                    items,
                },
                None,
            )?;
            if resp != (Response::IngestAck { queued: sent }) {
                return Err(proto_err("initial ingest not acknowledged"));
            }
            uid = end;
        }
        let (resp, _) = client.call(&Request::Flush, None)?;
        match resp {
            Response::FlushAck { acks }
                if acks.len() as u64 == shape.users && acks.iter().all(|&a| a) => {}
            _ => stages.bad_acks = shape.users,
        }
        stages.initial_ingest = t0.elapsed().as_secs_f64();
        let rig = Rig {
            svc,
            client,
            server,
        };
        Ok((rig, stages))
    }

    /// Shuts the server down and waits for it. A server that did not
    /// acknowledge is left to the process exit rather than joined.
    fn stop(mut self) -> io::Result<ServeStats> {
        let (resp, _) = self.client.call(&Request::Shutdown, None)?;
        if resp != Response::ShutdownAck {
            return Err(proto_err("shutdown not acknowledged"));
        }
        drop(self.client);
        self.server
            .join()
            .map_err(|_| proto_err("server thread panicked"))
    }
}

/// Server-side stage timings from the in-process replay.
#[derive(Default)]
struct ServerStages {
    reframe: Latency,
    rpc_decode: Latency,
    serve_payload: Latency,
    frame: Latency,
    allocs: u64,
    replayed: u64,
    bytes_in: u64,
    bytes_out: u64,
}

/// Replays one tick's captured `WhereIs` frames through the server's
/// own public calls — `StreamReframer` → `RpcCodec::decode_ref_bytes` →
/// `serve_payload` → `begin/end_stream_frame` — against the same engine
/// state the socket run just read, and checks each response is
/// byte-identical to the one that crossed the socket. Returns the
/// number of mismatches.
fn replay(
    svc: &ShardedService,
    captured: &[(Vec<u8>, Vec<u8>)],
    st: &mut ServerStages,
    spans: &mut Spans,
    first_req: u64,
) -> u64 {
    let mut reframer = StreamReframer::new();
    let mut out = Vec::with_capacity(4096);
    let mut scratch = Vec::new();
    let mut mismatches = 0;
    for (i, (request, response)) in captured.iter().enumerate() {
        let req = first_req + i as u64;
        let (stamps, allocs) = alloc::count(|| {
            let t0 = Instant::now();
            reframer.extend(request);
            let frame = reframer.next_frame().ok().flatten()?;
            let t1 = Instant::now();
            let Some(RpcFrame::Request { corr, payload, .. }) =
                RpcCodec::decode_ref_bytes(HostId::new(1), frame)
            else {
                return None;
            };
            let t2 = Instant::now();
            out.clear();
            let at = begin_stream_frame(&mut out);
            RpcCodec::append_response_header(&mut out, corr);
            let t3 = Instant::now();
            svc.serve_payload(payload, 1, &mut scratch, &mut out);
            let t4 = Instant::now();
            end_stream_frame(&mut out, at);
            let t5 = Instant::now();
            Some([t0, t1, t2, t3, t4, t5])
        });
        let Some([t0, t1, t2, t3, t4, t5]) = stamps else {
            mismatches += 1;
            continue;
        };
        if out.get(4..) != Some(response.as_slice()) {
            mismatches += 1;
        }
        st.reframe.span(t0, t1);
        st.rpc_decode.span(t1, t2);
        st.serve_payload.span(t3, t4);
        st.frame.record(nanos(t3 - t2) + nanos(t5 - t4));
        st.allocs += allocs;
        st.replayed += 1;
        st.bytes_in += request.len() as u64;
        st.bytes_out += out.len() as u64;
        let root = spans.open("server.replay", ROOT, req, t0);
        spans.push("server.reframe", root, req, t0, t1);
        spans.push("server.rpc_decode", root, req, t1, t2);
        spans.push("server.serve_payload", root, req, t3, t4);
        spans.close(root, t5);
    }
    mismatches
}

/// `serve_socket`: the same ticks and set-up as `serve_inproc`, sent
/// over one loopback TCP connection, closed loop, depth 1.
pub fn serve_socket(cfg: &Config, budget: Budget, trace: bool) -> Outcome {
    let shape = cfg.shape;
    let sched = inputs::schedule(&shape, cfg.seed);
    let mut out = Outcome::new(trace);
    let mut teardown_failures = 0u64;
    let (started, (), setup_s) = repeat_setup(
        cfg.setups,
        || (Rig::start(&shape, &sched), ()),
        |started| {
            if let Ok((rig, _)) = started {
                if rig.stop().is_err() {
                    teardown_failures += 1;
                }
            }
        },
    );
    let (mut rig, stages) = match started {
        Ok(r) => r,
        Err(e) => {
            eprintln!("serve_socket: set-up failed: {e}");
            out.attempted = 1;
            out.failed = 1;
            return out;
        }
    };
    out.metrics.put("setup_s", setup_s.value, setup_s.samples);
    stages.report(&mut out.metrics);
    out.failed += stages.bad_acks + teardown_failures;

    let mut tally = Tally::new(&shape, &sched);
    let mut latency = Latency::default();
    let mut qps = Windows::new(10 * shape.queries_per_tick as u64);
    let mut updates = Windows::new(10 * 2 * shape.moves_per_tick as u64);
    let (mut ingest_rtt, mut flush_rtt) = (Latency::default(), Latency::default());
    let [mut encode, mut write, mut read_wait, mut decode, mut rtt]: [Latency; 5] =
        Default::default();
    let mut server = ServerStages::default();
    let mut overhead = Overhead::default();
    let mut spans = Spans::new(trace);
    let mut captured = Vec::new();
    let (mut replies, mut reads) = (0u64, 0u64);
    let mut ts = shape.users;
    let start = Instant::now();
    let mut k = 0;
    let result: io::Result<()> = (|| {
        while !budget.spent(k, start) {
            let traced = trace && k % 2 == 1;
            let (moves, queries) = sched.tick(&shape, k);
            let mut items = Vec::with_capacity(2 * shape.moves_per_tick);
            for (uid, from, to) in moves {
                for (cell, present) in [(to, true), (from, false)] {
                    items.push(Notice {
                        cell,
                        addr: inputs::addr(uid),
                        present,
                    });
                }
                tally.truth[uid as usize] = to;
            }
            let notices = items.len();
            let batch = Request::IngestBatch {
                base_us: ts + 1,
                items,
            };
            ts += notices as u64;
            let (resp, a) = rig.client.call(&batch, None)?;
            if resp
                != (Response::IngestAck {
                    queued: notices as u32,
                })
            {
                return Err(proto_err("ingest batch not acknowledged"));
            }
            let (resp, b) = rig.client.call(&Request::Flush, None)?;
            let Response::FlushAck { acks } = resp else {
                return Err(proto_err("expected FlushAck"));
            };
            tally.acks(&acks, notices);
            ingest_rtt.span(a.start, a.decoded);
            flush_rtt.span(b.start, b.decoded);
            if !traced {
                updates.put(notices as u64, (b.decoded - a.start).as_secs_f64());
            }

            let block = Instant::now();
            let mut busy = 0u64;
            let reads_before = rig.client.reads;
            for (i, &(querier, target, from_cell)) in queries.iter().enumerate() {
                let req = (k * queries.len() + i) as u64;
                let (resp, s) = rig.client.call(
                    &Request::WhereIs {
                        querier,
                        target,
                        from_cell,
                    },
                    traced.then_some(&mut captured),
                )?;
                let Response::LocateResult(answer) = resp else {
                    return Err(proto_err("expected LocateResult"));
                };
                if traced {
                    encode.span(s.start, s.encoded);
                    write.span(s.encoded, s.written);
                    read_wait.span(s.written, s.received);
                    decode.span(s.received, s.decoded);
                    rtt.span(s.start, s.decoded);
                    let root = spans.open("client.rtt", ROOT, req, s.start);
                    spans.push("client.encode", root, req, s.start, s.encoded);
                    spans.push("client.write", root, req, s.encoded, s.written);
                    spans.push("client.read_wait", root, req, s.written, s.received);
                    spans.push("client.decode", root, req, s.received, s.decoded);
                    spans.close(root, s.decoded);
                } else {
                    latency.span(s.start, s.decoded);
                    busy += nanos(s.decoded - s.start);
                }
                let found = match &answer {
                    LocateOutcome::Found {
                        cell,
                        path,
                        distance,
                    } => Ok((*cell, *distance, path.as_slice())),
                    other => Err(locate_kind(other)),
                };
                tally.answer(target, from_cell, found);
            }
            let block_end = Instant::now();
            overhead.put(
                traced,
                queries.len() as u64,
                (block_end - block).as_secs_f64(),
            );
            if traced {
                replies += queries.len() as u64;
                reads += rig.client.reads - reads_before;
                let first = (k * queries.len()) as u64;
                tally.failed += replay(&rig.svc, &captured, &mut server, &mut spans, first);
                captured.clear();
            } else {
                qps.put(queries.len() as u64, busy as f64 * 1e-9);
            }
            tally.end_tick();
            k += 1;
        }
        Ok(())
    })();
    if let Err(e) = result {
        eprintln!("serve_socket: {e}");
        tally.attempted += 1;
        tally.failed += 1;
    }

    let m = &mut out.metrics;
    let (rate, windows) = qps.median();
    m.put("throughput", rate, windows);
    let (p50, p99) = latency.p50_p99();
    m.put("latency_p50_us", p50 / 1e3, latency.count());
    m.put("latency_p99_us", p99 / 1e3, latency.count());
    let (rate, windows) = updates.median();
    m.put("update_rate", rate, windows);
    m.put(
        "client.ingest_rtt_p50_us",
        ingest_rtt.quantile(0.5) / 1e3,
        ingest_rtt.count(),
    );
    m.put(
        "client.flush_rtt_p50_us",
        flush_rtt.quantile(0.5) / 1e3,
        flush_rtt.count(),
    );
    let mut stage = |name, l: &Latency| {
        let p50 = l.quantile(0.5);
        m.put(name, p50, l.count());
        p50
    };
    let client_side = stage("client.encode_p50_ns", &encode)
        + stage("client.write_p50_ns", &write)
        + stage("client.decode_p50_ns", &decode);
    stage("client.read_wait_p50_ns", &read_wait);
    let server_side = stage("server.reframe_p50_ns", &server.reframe)
        + stage("server.rpc_decode_p50_ns", &server.rpc_decode)
        + stage("server.serve_payload_p50_ns", &server.serve_payload)
        + stage("server.frame_p50_ns", &server.frame);
    let rtt_p50 = stage("socket.rtt_p50_ns", &rtt);
    // Kernel, loopback and wake-ups: the part of the RTT no stage
    // covers.
    m.put(
        "socket.residual_ns",
        rtt_p50 - client_side - server_side,
        rtt.count(),
    );
    m.put(
        "client.reads_per_reply",
        reads as f64 / replies.max(1) as f64,
        replies,
    );
    let per = |x: u64| x as f64 / server.replayed.max(1) as f64;
    m.put(
        "serve.bytes_in_per_query",
        per(server.bytes_in),
        server.replayed,
    );
    m.put(
        "serve.bytes_out_per_query",
        per(server.bytes_out),
        server.replayed,
    );
    m.put("alloc.per_query", per(server.allocs), server.replayed);
    m.put("trace.spans", spans.len() as f64, spans.len() as u64);
    overhead.report(m);
    service_counters(&rig.svc, m);
    match rig.stop() {
        Ok(stats) => tally.failed += stats.dropped.load(Ordering::Relaxed),
        Err(e) => {
            eprintln!("serve_socket: shutdown: {e}");
            tally.failed += 1;
        }
    }
    tally.finish(&mut out);
    if trace {
        out.spans = Some(spans);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bips_bench::loadgen;

    #[test]
    fn inproc_checksums_match_loadgen_run_sharded() {
        let w = loadgen::Workload::tiny();
        let cfg = Config::tiny(w.seed);
        assert_eq!(
            (
                cfg.shape.users,
                cfg.shape.side,
                cfg.shape.ticks,
                cfg.shape.pool,
                cfg.shape.shards
            ),
            (w.users, w.side, w.ticks, w.pool, w.shards)
        );
        assert_eq!(
            (cfg.shape.moves_per_tick, cfg.shape.queries_per_tick),
            (w.updates_per_tick, w.queries_per_tick)
        );
        let ours = serve_inproc(&cfg, Budget::units(w.ticks), false);
        let trace = loadgen::generate_trace(&w);
        let (theirs, _) = loadgen::run_sharded(&w, &trace, 1);
        assert_eq!(ours.failed, 0);
        assert_eq!(
            ours.fingerprint_str("checksum"),
            format!("{:016x}", theirs.checksum)
        );
        assert_eq!(
            ours.fingerprint_str("ack_checksum"),
            format!("{:016x}", theirs.ack_checksum)
        );
    }
}
