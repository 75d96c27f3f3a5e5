//! Zero-allocation causal request tracing.
//!
//! The serving engine answers queries from many threads at once; when a
//! request misbehaves we want to know *what that request did* — which
//! shard served it, what it answered — without paying for the insight
//! on the hot path. This module provides:
//!
//! * [`TraceKind`] — the central registry of trace event kinds. Every
//!   kind recorded anywhere in the workspace must be a variant here and
//!   must be documented in the trace-event catalog of
//!   `docs/OBSERVABILITY.md` (the `trace-doc` lint checks both
//!   directions).
//! * [`TraceRing`] — a preallocated lock-free ring of fixed-size
//!   events. Recording is two atomic `fetch_add`s plus four plain
//!   atomic stores: no allocation, no locks, no branches on capacity.
//! * [`Tracer`] — a set of per-shard rings plus the global sequence
//!   counter that gives events a total causal order across rings, and
//!   the span-id allocator that ties events of one request together.
//! * [`FlightRecorder`] — drains the last-N events to a JSONL artifact
//!   on panic (via [`FlightRecorder::guard`]) or when a latency
//!   anomaly trips a configured threshold.
//!
//! Events are *observational only*: nothing in the serving path reads
//! them back, so tracing cannot perturb answers. The differential
//! tests in `crates/bench` prove serving results and bench checksums
//! are bit-identical with tracing on and off.
//!
//! Timestamps are deliberately absent from the event payload: wall
//! clocks are banned outside the sanctioned islands (see
//! `docs/LINTS.md`), and virtual time is not available on every hot
//! path. The global sequence number is the ordering primitive; callers
//! that do have a meaningful time (virtual microseconds, bench-side
//! nanoseconds) put it in the `arg` word.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::report::Json;

/// The kind of a trace event.
///
/// This enum is the workspace-wide registry: the `trace-doc` lint
/// cross-checks its variants against the `## Trace event catalog`
/// table in `docs/OBSERVABILITY.md` in both directions, so adding a
/// variant without a catalog row (or vice versa) fails CI.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum TraceKind {
    /// A `where_is` query entered its shard (`code` = querier's cell,
    /// `arg` = target user id).
    QueryStart = 0,
    /// A `where_is` query produced an outcome (`code` = outcome
    /// discriminant, `arg` = found cell or `u64::MAX`).
    QueryEnd = 1,
    /// A presence notice was accepted into a shard's pending queue
    /// (`code` = cell, `arg` = ingest sequence number).
    Ingest = 2,
    /// A shard applied its pending notices (`code` = shard, `arg` =
    /// number of notices applied).
    Flush = 3,
    /// An anomaly tripped a flight-recorder threshold (`code` = 0 for
    /// a latency anomaly with `arg` = nanoseconds).
    Anomaly = 4,
}

impl TraceKind {
    /// All kinds, in discriminant order. Used by decoders and by the
    /// flight recorder's JSONL rendering.
    pub const ALL: [TraceKind; 5] = [
        TraceKind::QueryStart,
        TraceKind::QueryEnd,
        TraceKind::Ingest,
        TraceKind::Flush,
        TraceKind::Anomaly,
    ];

    /// Stable snake_case name, used in JSONL artifacts and docs.
    pub fn name(self) -> &'static str {
        match self {
            TraceKind::QueryStart => "query_start",
            TraceKind::QueryEnd => "query_end",
            TraceKind::Ingest => "ingest",
            TraceKind::Flush => "flush",
            TraceKind::Anomaly => "anomaly",
        }
    }

    /// Decode a discriminant; `None` for out-of-range values (which
    /// can only appear if a ring slot was torn mid-write).
    pub fn from_u8(v: u8) -> Option<TraceKind> {
        TraceKind::ALL.get(v as usize).copied()
    }
}

/// Identifier tying together all trace events of one request.
///
/// Span 0 is reserved as "untraced" ([`SpanId::NONE`]); allocators
/// start at 1. A span is born in process at [`Tracer::next_span`] and
/// handed to `core::service::ShardedService::where_is_traced`; it never
/// goes on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SpanId(pub u64);

impl SpanId {
    /// The untraced span: events carry it when no request context
    /// exists (e.g. background flushes).
    pub const NONE: SpanId = SpanId(0);

    /// Whether this is the reserved untraced span.
    pub fn is_none(self) -> bool {
        self.0 == 0
    }
}

/// One decoded trace event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Global sequence number: total order across all rings.
    pub seq: u64,
    /// Request span, [`SpanId::NONE`] for unattributed events.
    pub span: SpanId,
    /// Event kind.
    pub kind: TraceKind,
    /// Shard (or ring) the event was recorded on.
    pub shard: u16,
    /// Kind-specific small payload (outcome discriminant, cell, …).
    pub code: u32,
    /// Kind-specific wide payload (target uid, latency nanos, …).
    pub arg: u64,
}

impl TraceEvent {
    /// Render as a compact JSON object (one flight-recorder JSONL line).
    pub fn to_json(&self) -> Json {
        let mut j = Json::object();
        j.set("seq", Json::UInt(self.seq));
        j.set("span", Json::UInt(self.span.0));
        j.set("kind", Json::Str(self.kind.name().to_string()));
        j.set("shard", Json::UInt(u64::from(self.shard)));
        j.set("code", Json::UInt(u64::from(self.code)));
        j.set("arg", Json::UInt(self.arg));
        j
    }
}

/// Number of `u64` words per ring slot.
const WORDS: usize = 4;

/// An `AtomicU64` alone on its own cache line (128 bytes covers the
/// adjacent-line prefetcher on x86). The tracer's global counters and
/// each ring's head are hammered from every worker thread; letting two
/// of them share a line would turn every `fetch_add` into a false-
/// sharing invalidation of its neighbour — measurably so at millions
/// of queries per second.
#[repr(align(128))]
struct PaddedU64(AtomicU64);

impl PaddedU64 {
    fn new(v: u64) -> PaddedU64 {
        PaddedU64(AtomicU64::new(v))
    }
}

/// A preallocated, lock-free ring of fixed-size trace events.
///
/// Each slot is four `AtomicU64` words: a tag (global sequence + 1,
/// `0` = never written), the span, a packed `kind | shard | code`
/// word, and the wide `arg`. Writers claim a slot with one
/// `fetch_add` on the head and store the tag last with `Release`;
/// readers load the tag first with `Acquire`. The ring overwrites
/// oldest-first once full — the flight recorder only ever wants the
/// most recent window.
///
/// Draining while writers are active is safe (no UB, no locks) but a
/// slot being overwritten concurrently may surface with mixed words;
/// drains are therefore intended for quiescent or post-mortem use and
/// never feed deterministic outputs.
pub struct TraceRing {
    words: Box<[AtomicU64]>,
    head: PaddedU64,
    mask: u64,
}

impl std::fmt::Debug for TraceRing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceRing")
            .field("capacity", &self.capacity())
            .field("recorded", &self.recorded())
            .finish()
    }
}

impl TraceRing {
    /// Create a ring holding `capacity` events (rounded up to a power
    /// of two, minimum 2).
    pub fn new(capacity: usize) -> TraceRing {
        let cap = capacity.max(2).next_power_of_two();
        let words = (0..cap * WORDS).map(|_| AtomicU64::new(0)).collect();
        TraceRing {
            words,
            head: PaddedU64::new(0),
            mask: (cap as u64) - 1,
        }
    }

    /// Capacity in events.
    pub fn capacity(&self) -> usize {
        (self.mask as usize) + 1
    }

    /// Total events ever recorded on this ring.
    pub fn recorded(&self) -> u64 {
        self.head.0.load(Ordering::Relaxed)
    }

    /// Events currently resident (≤ capacity).
    pub fn len(&self) -> usize {
        self.recorded().min(self.mask + 1) as usize
    }

    /// Whether nothing has ever been recorded.
    pub fn is_empty(&self) -> bool {
        self.recorded() == 0
    }

    /// Occupancy in `[0, 1]`: resident events over capacity.
    pub fn occupancy(&self) -> f64 {
        self.len() as f64 / self.capacity() as f64
    }

    fn slot(&self, idx: u64) -> usize {
        ((idx & self.mask) as usize) * WORDS
    }

    /// Record one event. Lock-free and allocation-free.
    pub fn record(&self, seq: u64, span: SpanId, kind: TraceKind, shard: u16, code: u32, arg: u64) {
        let idx = self.head.0.fetch_add(1, Ordering::Relaxed);
        let base = self.slot(idx);
        let packed = u64::from(kind as u8) | (u64::from(shard) << 8) | (u64::from(code) << 32);
        // Payload first, tag last: a reader that acquires the tag sees
        // the matching payload (modulo wraparound races, documented
        // above).
        if let (Some(w1), Some(w2), Some(w3), Some(w0)) = (
            self.words.get(base + 1),
            self.words.get(base + 2),
            self.words.get(base + 3),
            self.words.get(base),
        ) {
            w1.store(span.0, Ordering::Relaxed);
            w2.store(packed, Ordering::Relaxed);
            w3.store(arg, Ordering::Relaxed);
            w0.store(seq + 1, Ordering::Release);
        }
    }

    /// Read back every resident event (unordered; callers sort by
    /// `seq`). Slots never written or torn mid-write are skipped.
    pub fn drain_into(&self, out: &mut Vec<TraceEvent>) {
        let cap = self.capacity();
        for i in 0..cap {
            let base = i * WORDS;
            let (Some(w0), Some(w1), Some(w2), Some(w3)) = (
                self.words.get(base),
                self.words.get(base + 1),
                self.words.get(base + 2),
                self.words.get(base + 3),
            ) else {
                continue;
            };
            let tag = w0.load(Ordering::Acquire);
            if tag == 0 {
                continue;
            }
            let span = SpanId(w1.load(Ordering::Relaxed));
            let packed = w2.load(Ordering::Relaxed);
            let arg = w3.load(Ordering::Relaxed);
            let Some(kind) = TraceKind::from_u8((packed & 0xFF) as u8) else {
                continue;
            };
            out.push(TraceEvent {
                seq: tag - 1,
                span,
                kind,
                shard: ((packed >> 8) & 0xFFFF) as u16,
                code: (packed >> 32) as u32,
                arg,
            });
        }
    }
}

/// Per-shard trace rings plus the global sequence and span allocators.
///
/// A `Tracer` is shared (`Arc`) between the serving engine, the RPC
/// endpoints, and the flight recorder. Ring `i` conventionally belongs
/// to service shard `i`; events recorded against an out-of-range ring
/// index are counted in [`Tracer::dropped`] rather than panicking.
pub struct Tracer {
    rings: Box<[TraceRing]>,
    seq: PaddedU64,
    next_span: PaddedU64,
    dropped: PaddedU64,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("rings", &self.rings.len())
            .field("recorded", &self.recorded())
            .field("dropped", &self.dropped())
            .finish()
    }
}

impl Tracer {
    /// Create `nrings` rings of `capacity` events each.
    pub fn new(nrings: usize, capacity: usize) -> Tracer {
        let rings = (0..nrings.max(1))
            .map(|_| TraceRing::new(capacity))
            .collect();
        Tracer {
            rings,
            seq: PaddedU64::new(0),
            next_span: PaddedU64::new(1),
            dropped: PaddedU64::new(0),
        }
    }

    /// Borrow ring `i` for inspection, if it exists.
    pub fn ring(&self, i: usize) -> Option<&TraceRing> {
        self.rings.get(i)
    }

    /// Allocate a fresh span id (never [`SpanId::NONE`]).
    pub fn next_span(&self) -> SpanId {
        SpanId(self.next_span.0.fetch_add(1, Ordering::Relaxed))
    }

    /// Total events recorded across all rings.
    pub fn recorded(&self) -> u64 {
        self.rings.iter().map(TraceRing::recorded).sum()
    }

    /// Events dropped because the ring index was out of range.
    pub fn dropped(&self) -> u64 {
        self.dropped.0.load(Ordering::Relaxed)
    }

    /// Record one event on ring `ring`. Lock-free, allocation-free.
    pub fn record(
        &self,
        ring: usize,
        kind: TraceKind,
        span: SpanId,
        shard: u16,
        code: u32,
        arg: u64,
    ) {
        match self.rings.get(ring) {
            Some(r) => {
                let seq = self.seq.0.fetch_add(1, Ordering::Relaxed);
                r.record(seq, span, kind, shard, code, arg);
            }
            None => {
                self.dropped.0.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// The most recent `n` events across all rings, in global sequence
    /// order. Intended for quiescent / post-mortem use.
    pub fn last_events(&self, n: usize) -> Vec<TraceEvent> {
        let mut all = Vec::new();
        for r in self.rings.iter() {
            r.drain_into(&mut all);
        }
        all.sort_unstable_by_key(|e| e.seq);
        if all.len() > n {
            all.drain(..all.len() - n);
        }
        all
    }

    /// Export ring telemetry into a metric set: total recorded and
    /// dropped counts plus per-ring recorded / occupancy.
    pub fn export_metrics(&self, metrics: &mut crate::metrics::MetricSet) {
        metrics.set_counter("desim.trace.recorded", self.recorded());
        metrics.set_counter("desim.trace.dropped", self.dropped());
        for (i, r) in self.rings.iter().enumerate() {
            metrics.set_counter(&format!("desim.trace.ring{i}.recorded"), r.recorded());
            metrics.gauge(&format!("desim.trace.ring{i}.occupancy"), r.occupancy());
        }
    }
}

/// Drains the last-N trace events to a JSONL artifact on panic or on a
/// latency anomaly.
///
/// Dumps land under the configured directory as
/// `flight-<reason>-<n>.jsonl`: a header line (`schema`, `reason`,
/// `events`) followed by one event object per line, in global sequence
/// order. CI uploads these artifacts when a test or bench job fails.
pub struct FlightRecorder {
    tracer: Arc<Tracer>,
    dir: PathBuf,
    last_n: usize,
    latency_threshold_ns: Option<u64>,
    dumps: AtomicU64,
}

impl FlightRecorder {
    /// Recorder draining the last `last_n` events of `tracer` into
    /// `dir` when triggered.
    pub fn new(tracer: Arc<Tracer>, dir: &Path, last_n: usize) -> FlightRecorder {
        FlightRecorder {
            tracer,
            dir: dir.to_path_buf(),
            last_n: last_n.max(1),
            latency_threshold_ns: None,
            dumps: AtomicU64::new(0),
        }
    }

    /// Arm the latency-anomaly trigger: [`FlightRecorder::observe_latency_ns`]
    /// dumps when a sample exceeds `threshold_ns`.
    pub fn with_latency_threshold_ns(mut self, threshold_ns: u64) -> FlightRecorder {
        self.latency_threshold_ns = Some(threshold_ns);
        self
    }

    /// Number of dumps written so far.
    pub fn dumps(&self) -> u64 {
        self.dumps.load(Ordering::Relaxed)
    }

    /// Feed one latency sample; if the anomaly threshold is armed and
    /// exceeded, records a [`TraceKind::Anomaly`] event and dumps.
    /// Returns the artifact path when a dump was written.
    pub fn observe_latency_ns(&self, span: SpanId, ring: usize, nanos: u64) -> Option<PathBuf> {
        let threshold = self.latency_threshold_ns?;
        if nanos <= threshold {
            return None;
        }
        self.tracer
            .record(ring, TraceKind::Anomaly, span, ring as u16, 0, nanos);
        self.dump("latency-anomaly").ok()
    }

    /// Drain the last-N events into a fresh JSONL artifact now.
    pub fn dump(&self, reason: &str) -> std::io::Result<PathBuf> {
        let n = self.dumps.fetch_add(1, Ordering::Relaxed);
        std::fs::create_dir_all(&self.dir)?;
        // Keep reasons filesystem-safe without pulling in a sanitizer.
        let safe: String = reason
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() || c == '-' {
                    c
                } else {
                    '_'
                }
            })
            .collect();
        let path = self.dir.join(format!("flight-{safe}-{n}.jsonl"));
        let events = self.tracer.last_events(self.last_n);
        let mut out = String::new();
        let mut header = Json::object();
        header.set("schema", Json::Str("bips-flight-recorder/v1".to_string()));
        header.set("reason", Json::Str(reason.to_string()));
        header.set("events", Json::UInt(events.len() as u64));
        header.set("last_n", Json::UInt(self.last_n as u64));
        out.push_str(&header.render_compact());
        out.push('\n');
        for e in &events {
            out.push_str(&e.to_json().render_compact());
            out.push('\n');
        }
        std::fs::write(&path, out)?;
        Ok(path)
    }

    /// A guard that dumps (`reason = <label>-panic`) if the current
    /// thread is panicking when the guard drops. Scope it around a
    /// serve loop to get a post-mortem artifact for free:
    ///
    /// ```ignore
    /// let _guard = recorder.guard("serve");
    /// serve_requests();
    /// ```
    pub fn guard<'a>(&'a self, label: &str) -> FlightGuard<'a> {
        FlightGuard {
            recorder: self,
            label: label.to_string(),
        }
    }
}

/// Panic-dump guard returned by [`FlightRecorder::guard`].
pub struct FlightGuard<'a> {
    recorder: &'a FlightRecorder,
    label: String,
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            // Best effort: a failed dump must not turn a panic into an
            // abort.
            let reason = format!("{}-panic", self.label);
            let _ = self.recorder.dump(&reason);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_records_and_drains_in_order() {
        let t = Tracer::new(2, 8);
        for i in 0..5u64 {
            t.record(
                (i % 2) as usize,
                TraceKind::QueryStart,
                SpanId(100 + i),
                (i % 2) as u16,
                7,
                i,
            );
        }
        let evs = t.last_events(16);
        assert_eq!(evs.len(), 5);
        let seqs: Vec<u64> = evs.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3, 4]);
        assert_eq!(evs[3].span, SpanId(103));
        assert_eq!(evs[3].kind, TraceKind::QueryStart);
        assert_eq!(evs[3].code, 7);
        assert_eq!(evs[3].arg, 3);
    }

    #[test]
    fn ring_wraps_and_keeps_most_recent() {
        let t = Tracer::new(1, 4);
        for i in 0..10u64 {
            t.record(0, TraceKind::Ingest, SpanId::NONE, 0, 0, i);
        }
        let ring = t.ring(0).expect("ring 0");
        assert_eq!(ring.capacity(), 4);
        assert_eq!(ring.recorded(), 10);
        assert!((ring.occupancy() - 1.0).abs() < 1e-12);
        let evs = t.last_events(16);
        let args: Vec<u64> = evs.iter().map(|e| e.arg).collect();
        assert_eq!(args, vec![6, 7, 8, 9]);
    }

    #[test]
    fn last_events_truncates_to_n() {
        let t = Tracer::new(4, 8);
        for i in 0..20u64 {
            t.record((i % 4) as usize, TraceKind::Flush, SpanId::NONE, 0, 0, i);
        }
        let evs = t.last_events(3);
        let args: Vec<u64> = evs.iter().map(|e| e.arg).collect();
        assert_eq!(args, vec![17, 18, 19]);
    }

    #[test]
    fn out_of_range_ring_counts_dropped() {
        let t = Tracer::new(1, 4);
        t.record(5, TraceKind::Flush, SpanId::NONE, 0, 0, 0);
        assert_eq!(t.dropped(), 1);
        assert_eq!(t.recorded(), 0);
    }

    #[test]
    fn spans_are_unique_and_nonzero() {
        let t = Tracer::new(1, 4);
        let a = t.next_span();
        let b = t.next_span();
        assert!(!a.is_none());
        assert_ne!(a, b);
    }

    #[test]
    fn kind_names_round_trip() {
        for k in TraceKind::ALL {
            assert_eq!(TraceKind::from_u8(k as u8), Some(k));
            assert!(!k.name().is_empty());
        }
        assert_eq!(TraceKind::from_u8(200), None);
    }

    #[test]
    fn flight_recorder_dumps_jsonl() {
        let dir = std::env::temp_dir().join("bips-trace-test-dump");
        let _ = std::fs::remove_dir_all(&dir);
        let tracer = Arc::new(Tracer::new(2, 8));
        tracer.record(0, TraceKind::QueryStart, SpanId(42), 0, 1, 2);
        tracer.record(1, TraceKind::QueryEnd, SpanId(42), 1, 0, 3);
        let rec = FlightRecorder::new(Arc::clone(&tracer), &dir, 8);
        let path = rec.dump("unit").expect("dump");
        let text = std::fs::read_to_string(&path).expect("read dump");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("bips-flight-recorder/v1"));
        assert!(lines[1].contains("\"span\":42"));
        assert!(lines[2].contains("query_end"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn latency_anomaly_trigger_dumps() {
        let dir = std::env::temp_dir().join("bips-trace-test-anomaly");
        let _ = std::fs::remove_dir_all(&dir);
        let tracer = Arc::new(Tracer::new(1, 8));
        let rec =
            FlightRecorder::new(Arc::clone(&tracer), &dir, 8).with_latency_threshold_ns(1_000);
        assert!(rec.observe_latency_ns(SpanId(7), 0, 500).is_none());
        let path = rec.observe_latency_ns(SpanId(7), 0, 5_000).expect("dump");
        let text = std::fs::read_to_string(&path).expect("read dump");
        assert!(text.contains("anomaly"));
        assert!(text.contains("\"arg\":5000"));
        assert_eq!(rec.dumps(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
