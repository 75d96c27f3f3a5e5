//! Post-mortem proof: a panicking serve path leaves a flight-recorder
//! JSONL artifact containing the last-N trace events — including the
//! offending request's span.
//!
//! Dumps land in `target/flight-recorder/`, the directory CI uploads
//! as an artifact when a test or bench job fails.

use std::panic::{self, AssertUnwindSafe};
use std::path::Path;
use std::sync::Arc;

use bips_core::graph::WsGraph;
use bips_core::registry::{AccessRights, Registry};
use bips_core::service::ShardedService;
use bt_baseband::BdAddr;
use desim::report::Json;
use desim::tracing::{FlightRecorder, Tracer};

/// The workspace-level artifact directory CI collects on failure.
const FLIGHT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/flight-recorder");

fn build_service(tracer: Arc<Tracer>) -> ShardedService {
    const USERS: u64 = 64;
    const CELLS: usize = 16;
    let mut reg = Registry::new();
    for i in 0..USERS {
        reg.register(&format!("user{i}"), "pw", AccessRights::open())
            .unwrap();
    }
    let mut g = WsGraph::new(CELLS);
    for i in 0..CELLS - 1 {
        g.add_edge(i, i + 1, 10.0);
    }
    let mut svc = ShardedService::new(&reg, g.precompute_all_pairs(), 4);
    svc.attach_tracer(tracer);
    for uid in 0..USERS {
        svc.login(uid, "pw", BdAddr::new(1000 + uid)).unwrap();
    }
    for uid in 0..USERS {
        svc.ingest(
            BdAddr::new(1000 + uid),
            (uid % CELLS as u64) as u32,
            true,
            uid + 1,
        );
    }
    svc.flush(1);
    svc
}

#[test]
fn panicking_serve_path_dumps_last_events_with_offending_span() {
    let tracer = Arc::new(Tracer::new(4, 256));
    let svc = build_service(Arc::clone(&tracer));
    let recorder = FlightRecorder::new(Arc::clone(&tracer), Path::new(FLIGHT_DIR), 64);

    // Healthy background traffic first, so the dump has history to show.
    let mut path = Vec::new();
    for q in 0..50u64 {
        let span = tracer.next_span();
        let _ = svc.where_is_traced(q % 64, (q * 7) % 64, (q % 16) as usize, &mut path, span);
    }

    // The offending request: traced, then the serve loop dies on it.
    let offending = tracer.next_span();
    let caught = panic::catch_unwind(AssertUnwindSafe(|| {
        let _guard = recorder.guard("serve-test");
        let mut path = Vec::new();
        let _ = svc.where_is_traced(2, 3, 0, &mut path, offending);
        panic!("injected serve-path fault");
    }));
    assert!(caught.is_err(), "the injected fault must propagate");
    assert_eq!(
        recorder.dumps(),
        1,
        "the guard must have dumped exactly once"
    );

    // The artifact name is deterministic: flight-<reason>-<n>.jsonl.
    let dump = Path::new(FLIGHT_DIR).join("flight-serve-test-panic-0.jsonl");
    let text = std::fs::read_to_string(&dump)
        .unwrap_or_else(|e| panic!("missing dump {}: {e}", dump.display()));
    let mut lines = text.lines();

    // Header line: schema, reason, event count.
    let header = Json::parse(lines.next().expect("header line")).expect("header parses");
    assert_eq!(
        header.get("schema"),
        Some(&Json::Str("bips-flight-recorder/v1".to_string()))
    );
    assert_eq!(
        header.get("reason"),
        Some(&Json::Str("serve-test-panic".to_string()))
    );

    // Every event line parses; the offending span shows up with both
    // its query_start and query_end events, recorded on the querier's
    // shard ring (querier 2 of 4 shards: ring 2).
    let mut events = 0u64;
    let mut offending_events = Vec::new();
    for line in lines {
        let ev = Json::parse(line).expect("event line parses");
        events += 1;
        if ev.get("span") == Some(&Json::UInt(offending.0)) {
            if let (Some(Json::Str(kind)), Some(Json::UInt(shard))) =
                (ev.get("kind"), ev.get("shard"))
            {
                offending_events.push((kind.clone(), *shard));
            }
        }
    }
    assert_eq!(header.get("events"), Some(&Json::UInt(events)));
    assert!(
        events > 0 && events <= 64,
        "last-N window respected: {events}"
    );
    assert_eq!(
        offending_events,
        vec![("query_start".to_string(), 2), ("query_end".to_string(), 2)],
        "the offending request's span must be in the dump"
    );
}

/// A corrupt path table must not panic the serve path: the query comes
/// back as a typed `BadQuery(PathCorrupt)`, the service records an
/// `anomaly` trace event, and dumping on that trigger leaves a JSONL
/// artifact with the corruption's code and target cell.
#[test]
fn path_corruption_serves_typed_error_and_dumps() {
    use bips_core::protocol::ProtocolError;
    use bips_core::service::{WhereIs, ANOMALY_PATH_CORRUPT};

    const USERS: u64 = 64;
    const CELLS: usize = 16;
    let mut reg = Registry::new();
    for i in 0..USERS {
        reg.register(&format!("user{i}"), "pw", AccessRights::open())
            .unwrap();
    }
    let mut g = WsGraph::new(CELLS);
    for i in 0..CELLS - 1 {
        g.add_edge(i, i + 1, 10.0);
    }
    let mut apsp = g.precompute_all_pairs();
    apsp.debug_break_prev(0, 3);

    let tracer = Arc::new(Tracer::new(4, 256));
    let mut svc = ShardedService::new(&reg, apsp, 4);
    svc.attach_tracer(Arc::clone(&tracer));
    for uid in 0..USERS {
        svc.login(uid, "pw", BdAddr::new(1000 + uid)).unwrap();
    }
    for uid in 0..USERS {
        svc.ingest(
            BdAddr::new(1000 + uid),
            (uid % CELLS as u64) as u32,
            true,
            uid + 1,
        );
    }
    svc.flush(1);

    let recorder = FlightRecorder::new(Arc::clone(&tracer), Path::new(FLIGHT_DIR), 64);
    let mut path = Vec::new();
    let span = tracer.next_span();
    // user3 sits at cell 3; the walk 0 → 3 crosses the broken link.
    let out = svc.where_is_traced(5, 3, 0, &mut path, span);
    assert!(
        matches!(
            out,
            WhereIs::BadQuery(ProtocolError::PathCorrupt { from: 0, to: 3 })
        ),
        "expected typed corruption error, got {out:?}"
    );

    let dump = recorder.dump("path-corrupt").expect("dump writes");
    let text = std::fs::read_to_string(&dump).expect("read dump");
    let corrupt_line = text
        .lines()
        .find(|l| l.contains("\"kind\":\"anomaly\"") && l.contains("\"arg\":3"))
        .unwrap_or_else(|| panic!("no corruption anomaly in dump:\n{text}"));
    let ev = Json::parse(corrupt_line).expect("event parses");
    assert_eq!(
        ev.get("code"),
        Some(&Json::UInt(u64::from(ANOMALY_PATH_CORRUPT)))
    );
}

#[test]
fn latency_anomaly_threshold_dumps_from_serve_path() {
    let tracer = Arc::new(Tracer::new(4, 256));
    let svc = build_service(Arc::clone(&tracer));
    let recorder = FlightRecorder::new(Arc::clone(&tracer), Path::new(FLIGHT_DIR), 32)
        .with_latency_threshold_ns(1_000_000);

    let mut path = Vec::new();
    let span = tracer.next_span();
    let _ = svc.where_is_traced(5, 6, 0, &mut path, span);
    assert!(recorder.observe_latency_ns(span, 1, 500).is_none());
    let dump = recorder
        .observe_latency_ns(span, 1, 2_000_000)
        .expect("over-threshold sample dumps");
    let text = std::fs::read_to_string(&dump).expect("read dump");
    assert!(text.contains("\"kind\":\"anomaly\""));
    assert!(text.contains("\"arg\":2000000"));
}
