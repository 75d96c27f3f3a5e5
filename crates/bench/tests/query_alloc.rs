//! Pins allocation counts: zero per steady-state WhereIs query, and
//! the exact counts of a set of logins, of a notice burst, of a run of
//! path mutations and of the Figure 2 simulation runs.
//!
//! A counting global allocator wraps the system one; after warming the
//! caller-owned path buffer, a burst of `where_is` queries across the
//! whole outcome spectrum must not allocate at all. The other counts
//! are exact on every host, so any allocation added to those paths
//! fails here. This lives in an integration test (its own crate root)
//! outside `bips-core`, which forbids unsafe code.

use std::sync::Arc;

use bips_bench::figure2::PerfWorkload;
use bips_core::graph::{PathEngine, PathEngineKind, WsGraph};
use bips_core::registry::{AccessRights, Registry};
use bips_core::service::{ReadPath, ShardedService, WhereIs};
use bt_baseband::BdAddr;
use desim::tracing::Tracer;
use desim::SimTime;

/// The benchmark's counting allocator, armed per thread: only the thread
/// inside `counting::count` counts, so tests running in parallel on
/// other threads cannot inflate the count.
#[path = "../src/bin/benchmark/alloc.rs"]
mod counting;

#[global_allocator]
static GLOBAL: counting::Counting = counting::Counting;

const USERS: u64 = 512;
const CELLS: usize = 64;

/// The shared fixture's engine before any login: a line-graph building
/// on 8 shards. With `tracer`, trace rings are attached.
fn new_service(tracer: Option<Arc<Tracer>>) -> ShardedService {
    let mut reg = Registry::new();
    for i in 0..USERS {
        reg.register(&format!("user{i}"), "pw", AccessRights::open())
            .unwrap();
    }
    let mut g = WsGraph::new(CELLS);
    for i in 0..CELLS - 1 {
        g.add_edge(i, i + 1, 10.0);
    }
    let mut svc = ShardedService::new(&reg, g.precompute_all_pairs(), 8);
    if let Some(t) = tracer {
        svc.attach_tracer(t);
    }
    svc
}

/// The fixture's 511 logins. User 0 stays logged out (NotLoggedIn
/// answers).
fn log_in(svc: &ShardedService) {
    for uid in 1..USERS {
        svc.login(uid, "pw", BdAddr::new(1000 + uid)).unwrap();
    }
}

/// The shared fixture: a line-graph building with the whole outcome
/// spectrum reachable. With `tracer`, trace rings are attached and
/// every query gets a fresh span — the hot path must stay
/// allocation-free either way.
fn build_service(tracer: Option<Arc<Tracer>>) -> ShardedService {
    let svc = new_service(tracer);
    log_in(&svc);
    let mut ts = 0;
    // User 1 stays out of coverage (no presence).
    for uid in 2..USERS {
        ts += 1;
        svc.ingest(
            BdAddr::new(1000 + uid),
            (uid % CELLS as u64) as u32,
            true,
            ts,
        );
    }
    svc.flush(1);
    svc
}

/// 400 queries across the outcome spectrum; fresh spans when traced.
fn run_burst(svc: &ShardedService, path: &mut Vec<usize>, count: &mut u64) {
    let mut state = 7u64;
    for q in 0..400u64 {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        let querier = 2 + state % (USERS - 2);
        // Mix of found, not-logged-in, out-of-coverage, no-such-user
        // and malformed queries: the whole spectrum must be
        // allocation-free, worst paths included (the line graph's
        // longest path is CELLS nodes).
        let (target, from_cell) = match q % 8 {
            0 => (0, 0),               // NotLoggedIn
            1 => (1, 0),               // OutOfCoverage
            2 => (USERS + 5, 0),       // NoSuchUser
            3 => (querier, CELLS + 3), // BadQuery
            _ => ((state >> 7) % USERS, (state >> 13) as usize % CELLS),
        };
        let out = match svc.tracer() {
            Some(t) => {
                let span = t.next_span();
                svc.where_is_traced(querier, target, from_cell, path, span)
            }
            None => svc.where_is(querier, target, from_cell, path),
        };
        match out {
            WhereIs::Found { cell, distance } => {
                assert!((cell as usize) < CELLS && distance.is_finite());
                *count += 1;
            }
            WhereIs::NotLoggedIn
            | WhereIs::OutOfCoverage
            | WhereIs::NoSuchUser
            | WhereIs::BadQuery(_)
            | WhereIs::Denied
            | WhereIs::QuerierNotLoggedIn => {}
        }
    }
}

fn assert_zero_alloc_burst(svc: &ShardedService) {
    let mut path = Vec::new();
    let mut answered = 0u64;

    // Warm-up: grows the path buffer to the longest answer once.
    run_burst(svc, &mut path, &mut answered);
    assert!(answered > 0, "warm-up answered no queries");

    let ((), allocs) = counting::count(|| run_burst(svc, &mut path, &mut answered));
    assert_eq!(
        allocs, 0,
        "steady-state where_is allocated {allocs} times over 400 queries"
    );
}

#[test]
fn steady_state_queries_do_not_allocate() {
    let svc = build_service(None);
    assert_zero_alloc_burst(&svc);
}

/// The same fixture over a dynamic path engine instead of the frozen
/// table. `seed` logins/presence are identical to [`build_service`].
fn build_dynamic_service(kind: PathEngineKind) -> ShardedService {
    let mut reg = Registry::new();
    for i in 0..USERS {
        reg.register(&format!("user{i}"), "pw", AccessRights::open())
            .unwrap();
    }
    let mut g = WsGraph::new(CELLS);
    for i in 0..CELLS - 1 {
        g.add_edge(i, i + 1, 10.0);
    }
    let svc = ShardedService::new_dynamic(&reg, PathEngine::new(kind, g), 8, ReadPath::Seqlock);
    log_in(&svc);
    let mut ts = 0;
    for uid in 2..USERS {
        ts += 1;
        svc.ingest(
            BdAddr::new(1000 + uid),
            (uid % CELLS as u64) as u32,
            true,
            ts,
        );
    }
    svc.flush(1);
    svc
}

/// Dense dynamic mode answers every query from the incrementally
/// maintained flat table: the zero-alloc pin holds across the whole
/// outcome spectrum, exactly like the frozen `Apsp`.
#[test]
fn dynamic_dense_steady_state_queries_do_not_allocate() {
    let svc = build_dynamic_service(PathEngineKind::DynamicDense);
    assert_zero_alloc_burst(&svc);
}

/// Sparse mode: once a source's tree is warm, queries walk the cached
/// `prev` row under the engine's read lock — no allocation. Sources are
/// confined to fewer cells than the cache has slots so the steady-state
/// burst never takes a cold miss.
#[test]
fn dynamic_sparse_warm_tree_queries_do_not_allocate() {
    const SOURCES: usize = 16; // < DEFAULT_CACHE_SLOTS
    let svc = build_dynamic_service(PathEngineKind::DynamicSparse);
    let mut path = Vec::new();
    let mut answered = 0u64;
    let run_warm_burst = |path: &mut Vec<usize>, answered: &mut u64| {
        let mut state = 7u64;
        for _ in 0..400u64 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let querier = 2 + state % (USERS - 2);
            let target = (state >> 7) % USERS;
            let from_cell = (state >> 13) as usize % SOURCES;
            if let WhereIs::Found { cell, distance } =
                svc.where_is(querier, target, from_cell, path)
            {
                assert!((cell as usize) < CELLS && distance.is_finite());
                *answered += 1;
            }
        }
    };

    // Warm-up: populates ≤ SOURCES cache slots and grows the buffer.
    run_warm_burst(&mut path, &mut answered);
    assert!(answered > 0, "warm-up answered no queries");

    let ((), allocs) = counting::count(|| run_warm_burst(&mut path, &mut answered));
    assert_eq!(
        allocs, 0,
        "warm-tree where_is allocated {allocs} times over 400 queries"
    );
}

/// Tracing records two ring events and allocates a span per query; the
/// rings are preallocated, so the pin holds with tracing on too.
#[test]
fn steady_state_traced_queries_do_not_allocate() {
    let tracer = Arc::new(Tracer::new(8, 1024));
    let svc = build_service(Some(Arc::clone(&tracer)));
    assert_zero_alloc_burst(&svc);
    assert!(tracer.recorded() >= 800, "traced burst recorded no events");
    assert_eq!(tracer.dropped(), 0);
}

/// The fixture's 511 logins into a freshly built engine. Each of the 8
/// address tables starts at 128 slots, twice its share of the 512
/// users, and allocates only when a login would fill more than half of
/// it. Two tables take more than 64 of these addresses (104 and 112)
/// and double once each.
#[test]
fn logins_allocate_as_pinned() {
    let svc = new_service(None);
    let ((), allocs) = counting::count(|| log_in(&svc));
    assert_eq!(allocs, 2, "511 logins");
}

/// A steady-state move burst: each of the 510 present users moves one
/// cell, then one flush applies them all. Ingest allocates nothing; the
/// count is the flush's.
#[test]
fn steady_state_notice_burst_allocates_as_pinned() {
    let svc = build_service(None);
    let mut ts = USERS;
    let mut burst = |round: u64| {
        for uid in 2..USERS {
            ts += 1;
            let cell = ((uid + round) % CELLS as u64) as u32;
            svc.ingest(BdAddr::new(1000 + uid), cell, true, ts);
        }
        svc.flush(1)
    };
    // Warm-up: grows the pending queues and flush buffers once.
    let acks = burst(1);
    assert!(acks.iter().all(|&ok| ok), "warm-up burst rejected a notice");
    let (acks, allocs) = counting::count(|| burst(2));
    assert_eq!(acks.len(), 510);
    assert_eq!(allocs, 15, "510 notices and one flush");
}

/// 50 weight changes on the dense engine, each repairing every row,
/// after 50 that grew the repair scratch: 39 are decreases, each
/// allocating its repair op's two lists, and 11 increases allocate
/// nothing.
#[test]
fn dense_mutations_allocate_as_pinned() {
    let mut g = WsGraph::new(CELLS);
    for i in 0..CELLS - 1 {
        g.add_edge(i, i + 1, 10.0);
    }
    let mut engine = PathEngine::new(PathEngineKind::DynamicDense, g);
    let mut mutate = |round: usize| {
        for i in 0..50 {
            let a = (i * 7 + round) % (CELLS - 1);
            let weight = 1.0 + ((i * 13 + round) % 40) as f64;
            assert_eq!(engine.set_edge_weight(a, a + 1, weight), Ok(true));
        }
    };
    mutate(0);
    let ((), allocs) = counting::count(|| mutate(1));
    assert_eq!(allocs, 78, "50 dense weight changes");
}

/// The Figure 2 smoke shape `perf_baseline` times, in both scheduler
/// modes: events dispatched and allocations made inside `run_until`.
/// An allocation per dispatched event would add at least 2,655.
#[test]
fn figure2_smoke_runs_dispatch_and_allocate_as_pinned() {
    let w = PerfWorkload::smoke();
    let end = SimTime::ZERO + w.horizon;
    let tally = |skip_ahead: bool| {
        let (mut steps, mut allocs) = (0, 0);
        for mut engine in w.engines(skip_ahead) {
            let (_, n) = counting::count(|| engine.run_until(end));
            steps += engine.steps();
            allocs += n;
        }
        (steps, allocs)
    };
    assert_eq!(tally(true), (2_655, 2_023), "skip-ahead steps, allocations");
    assert_eq!(tally(false), (183_973, 2_320), "eager steps, allocations");
}
