//! Cross-commit golden pin for the path layer: FNV digests of the
//! offline all-pairs table and of every engine kind's answers after a
//! fixed mutation schedule.
//!
//! The differential suites (`graph_churn`, `churn_differential`,
//! `sharded_differential`) compare engine kinds with each other. Every
//! kind builds its rows with the same Dijkstra and walks them with the
//! same `prev`-row walk, so a drift there moves every kind alike and
//! passes all of them. These values were recorded before the engine
//! kinds were folded into one type; a change that alters answers on
//! purpose re-records them and says why.

use bips_core::graph::{random_connected_graph, PathEngine, PathEngineKind, WsGraph};
use desim::SimRng;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(h: &mut u64, x: u64) {
    for byte in x.to_le_bytes() {
        *h ^= u64::from(byte);
        *h = h.wrapping_mul(FNV_PRIME);
    }
}

/// Folds one answer: the distance bits (`u64::MAX` if unreachable) and
/// the path, length first.
fn fold_answer(h: &mut u64, d: Option<f64>, path: &[usize]) {
    fnv(h, d.map_or(u64::MAX, f64::to_bits));
    fnv(h, path.len() as u64);
    for &v in path {
        fnv(h, v as u64);
    }
}

/// The two pinned graphs: a shortcut-rich one and a chain-heavy one.
fn graphs() -> [WsGraph; 2] {
    [
        random_connected_graph(200, 300, 2003),
        random_connected_graph(197, 60, 5150),
    ]
}

/// Digest of `precompute_all_pairs()`: every cell's `dist` bits and
/// `prev` entry, in row-major order. `prev[a][b]` is the node before
/// `b` on the walked path (`u64::MAX` for `b == a` or unreachable `b`).
fn table_digest(g: &WsGraph) -> u64 {
    let apsp = g.precompute_all_pairs();
    let n = g.num_nodes();
    let mut h = FNV_OFFSET;
    let mut path = Vec::new();
    for a in 0..n {
        for b in 0..n {
            let d = apsp.path_into(a, b, &mut path);
            assert_eq!(d.map(f64::to_bits), apsp.distance(a, b).map(f64::to_bits));
            fnv(&mut h, d.map_or(f64::INFINITY, |d| d).to_bits());
            let prev = match path.len() {
                0 | 1 => u64::MAX,
                len => path[len - 2] as u64,
            };
            fnv(&mut h, prev);
        }
    }
    h
}

/// Applies a fixed 200-mutation schedule to an engine of `kind` over a
/// 100-node graph (small enough that the rebuild kind's 200 full
/// recomputes stay cheap in a debug build) and digests every mutation
/// outcome and then every pair's answer. Also returns the engine's
/// `core.graph.tree_repairs` and `core.graph.vertices_touched`. Every fifth mutation flaps a node: it brings
/// a down node back up or takes a node down. The rest set a weight
/// on a random pair, adding the edge if absent; weights span ~2
/// decades, so increases and decreases both occur, and a pair with a
/// down endpoint is a rejection.
fn schedule_digest(kind: PathEngineKind) -> (u64, [u64; 2]) {
    let g = random_connected_graph(100, 150, 1999);
    let n = g.num_nodes();
    let mut e = PathEngine::new(kind, g);
    let mut rng = SimRng::seed_from(1999);
    let mut down: Vec<usize> = Vec::new();
    let mut h = FNV_OFFSET;
    for step in 0..200 {
        let outcome = if step % 5 == 4 {
            if !down.is_empty() && rng.below(2) == 0 {
                let x = down.swap_remove(rng.below(down.len() as u64) as usize);
                e.set_node_up(x, true)
            } else {
                let x = rng.below(n as u64) as usize;
                let r = e.set_node_up(x, false);
                if r == Ok(true) {
                    down.push(x);
                }
                r
            }
        } else {
            let a = rng.below(n as u64) as usize;
            let b = (a + 1 + rng.below(n as u64 - 1) as usize) % n;
            e.set_edge_weight(a, b, rng.uniform(0.5, 60.0))
        };
        fnv(
            &mut h,
            match outcome {
                Ok(false) => 0,
                Ok(true) => 1,
                Err(_) => 2,
            },
        );
    }
    assert!(!down.is_empty(), "the schedule ends with some node down");
    fnv(&mut h, e.epoch());
    let mut path = Vec::new();
    for a in 0..n {
        for b in 0..n {
            let d = e.query(a, b, &mut path).expect("no corruption");
            fold_answer(&mut h, d, &path);
        }
    }
    let mut m = desim::MetricSet::new();
    e.export_metrics(&mut m);
    let counter = |name| m.counter_value(name).expect("exported");
    let repairs = ["core.graph.tree_repairs", "core.graph.vertices_touched"].map(counter);
    (h, repairs)
}

#[test]
fn offline_tables_are_pinned() {
    let got = graphs().map(|g| table_digest(&g));
    assert_eq!(
        got,
        [13517919223048632644, 13566614423369256424],
        "offline APSP table digest moved"
    );
}

/// Every kind gives the same answers; the dense kinds also repair
/// exactly as many rows and vertices as pinned, which a repair done
/// twice moves although its answers do not. The rebuild kind keeps no
/// incremental state, and no sparse tree is warm while this schedule
/// mutates, so both count zero.
#[test]
fn every_engine_kind_answers_the_pinned_schedule() {
    const WANT: u64 = 374184958074314859;
    const DENSE: [u64; 2] = [7_375, 37_564];
    for (kind, repairs) in [
        (PathEngineKind::Rebuild, [0, 0]),
        (PathEngineKind::Dynamic, DENSE),
        (PathEngineKind::DynamicDense, DENSE),
        (PathEngineKind::DynamicSparse, [0, 0]),
    ] {
        let (digest, got) = schedule_digest(kind);
        assert_eq!(
            digest,
            WANT,
            "{}: answers after the pinned schedule moved",
            kind.name()
        );
        assert_eq!(
            got,
            repairs,
            "{}: tree repairs and vertices touched moved",
            kind.name()
        );
    }
}
