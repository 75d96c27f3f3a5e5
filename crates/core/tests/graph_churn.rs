//! Per-mutation churn differential for the dynamic shortest-path
//! engines: after EVERY applied mutation — weight change, edge add,
//! node down, node up — both [`PathEngineKind::DynamicDense`] and
//! [`PathEngineKind::DynamicSparse`] must agree with the
//! rebuild-from-scratch reference on every pair's distance (bitwise),
//! every path, and on connectivity, including full disconnect →
//! unreachable (`None`) → reconnect cycles.

use bips_core::graph::{random_connected_graph, PathEngine, PathEngineKind, WsGraph};
use proptest::prelude::*;

const N: usize = 14;

/// The weights of the tie-heavy grids: few, and exact in binary, so
/// distinct paths often sum to the same bits and a repair's predecessor
/// choice among equal sums decides most answers.
const TIE_WEIGHTS: [f64; 5] = [0.5, 1.0, 2.0, 3.0, 10.0];

/// One normalized mutation decoded from the proptest tuple stream.
#[derive(Debug, Clone, Copy)]
enum Mutation {
    SetWeight(usize, usize, f64),
    NodeToggle(usize, bool),
}

fn decode(op: (u8, u64, u64, u64)) -> Mutation {
    let (kind, a, b, w) = op;
    let a = (a % N as u64) as usize;
    let b = (b % N as u64) as usize;
    match kind % 4 {
        // Weight updates dominate; 25% are node toggles.
        0 => Mutation::NodeToggle(a, w % 2 == 0),
        _ => {
            let b = if a == b { (a + 1) % N } else { b };
            // Spread over ~3 decades so increase AND decrease repairs
            // both occur against the seed weights in [0.5, 50).
            Mutation::SetWeight(a, b, 0.25 + (w % 1000) as f64 / 8.0)
        }
    }
}

/// A `side`×`side` grid whose corridors weigh a seeded pick of
/// [`TIE_WEIGHTS`] each.
fn tie_grid(side: usize, seed: u64) -> WsGraph {
    let mut rng = desim::SimRng::seed_from(seed);
    let mut pick = || TIE_WEIGHTS[rng.below(TIE_WEIGHTS.len() as u64) as usize];
    let mut g = WsGraph::new(side * side);
    for v in 0..side * side {
        if v % side + 1 < side {
            g.add_edge(v, v + 1, pick());
        }
        if v + side < side * side {
            g.add_edge(v, v + side, pick());
        }
    }
    g
}

/// Decodes one tie-grid mutation: one in eight a node flap, one in
/// eight a chord between two random cells (added if absent), the rest a
/// reweight of one of the cell's own corridors; every weight is one of
/// [`TIE_WEIGHTS`].
fn decode_tie(side: usize, op: (u8, u64, u64, u8)) -> Mutation {
    let (kind, a, b, w) = op;
    let n = side * side;
    let a = (a % n as u64) as usize;
    let weight = TIE_WEIGHTS[w as usize % TIE_WEIGHTS.len()];
    match kind % 8 {
        0 => Mutation::NodeToggle(a, b % 2 == 0),
        1 => {
            let b = (b % n as u64) as usize;
            Mutation::SetWeight(a, if a == b { (a + 1) % n } else { b }, weight)
        }
        _ => {
            let (row, col) = (a / side, a % side);
            let corridors: Vec<usize> = [
                (col + 1 < side).then(|| a + 1),
                (row + 1 < side).then(|| a + side),
                (col > 0).then(|| a - 1),
                (row > 0).then(|| a - side),
            ]
            .into_iter()
            .flatten()
            .collect();
            let b = corridors[(b % corridors.len() as u64) as usize];
            Mutation::SetWeight(a, b, weight)
        }
    }
}

/// Compares all three engines over every pair after one mutation, and
/// checks the unreachability picture against `is_connected`.
fn assert_full_agreement(
    engines: &mut [PathEngine],
    bufs: &mut [Vec<usize>],
    step: usize,
) -> Result<(), TestCaseError> {
    let n = engines.first().map_or(0, PathEngine::num_nodes);
    let mut any_unreachable = false;
    for a in 0..n {
        for b in 0..n {
            let mut reference: Option<(Option<u64>, Vec<usize>)> = None;
            for (e, buf) in engines.iter_mut().zip(bufs.iter_mut()) {
                let name = e.name();
                let d = e
                    .query(a, b, buf)
                    .map_err(|err| {
                        TestCaseError::fail(format!("step {step}: {name} corrupt: {err}"))
                    })?
                    .map(f64::to_bits);
                match &reference {
                    None => reference = Some((d, buf.clone())),
                    Some((rd, rp)) => {
                        prop_assert_eq!(
                            (&d, &*buf),
                            (rd, rp),
                            "step {}: {} diverged on {} -> {}",
                            step,
                            name,
                            a,
                            b
                        );
                    }
                }
            }
            if a != b && reference.expect("at least one engine").0.is_none() {
                any_unreachable = true;
            }
        }
    }
    // Connectivity detection must match the distance picture: some
    // pair is unreachable exactly when the live graph (down nodes
    // isolated) is disconnected.
    for e in engines.iter() {
        prop_assert_eq!(
            e.graph().is_connected(),
            !any_unreachable,
            "is_connected disagrees with reachability at step {}",
            step
        );
    }
    Ok(())
}

/// Applies `mutations` to every engine kind over `g`, checking after
/// each one that all kinds accept or reject it alike and then agree on
/// every pair.
fn replay(g: WsGraph, mutations: impl IntoIterator<Item = Mutation>) -> Result<(), TestCaseError> {
    let mut engines: Vec<PathEngine> = [
        PathEngineKind::Rebuild,
        PathEngineKind::DynamicDense,
        PathEngineKind::DynamicSparse,
    ]
    .into_iter()
    .map(|k| PathEngine::new(k, g.clone()))
    .collect();
    let mut bufs = vec![Vec::new(); engines.len()];
    for (step, mutation) in mutations.into_iter().enumerate() {
        let results: Vec<_> = engines
            .iter_mut()
            .map(|e| match mutation {
                Mutation::SetWeight(a, b, w) => e.set_edge_weight(a, b, w),
                Mutation::NodeToggle(x, up) => e.set_node_up(x, up),
            })
            .collect();
        // All engines accept or reject identically (a down endpoint is
        // a consistent rejection, a no-op a consistent `Ok(false)`).
        prop_assert!(
            results.windows(2).all(|w| w[0] == w[1]),
            "step {}: mutation outcomes diverged: {:?}",
            step,
            results
        );
        assert_full_agreement(&mut engines, &mut bufs, step)?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random mutation schedules over a random connected graph: full
    /// all-pairs bitwise agreement plus connectivity consistency after
    /// every single mutation.
    #[test]
    fn engines_agree_after_every_mutation(
        seed in any::<u64>(),
        ops in proptest::collection::vec(
            (0u8..4, any::<u64>(), any::<u64>(), any::<u64>()),
            1..24,
        )
    ) {
        let g = random_connected_graph(N, 6, seed);
        replay(g, ops.iter().map(|&op| decode(op)))?;
    }

    /// The same check on grids of 3×3 to 5×5 cells weighted from
    /// [`TIE_WEIGHTS`], with corridor reweights, chords and node flaps:
    /// equal-length routes abound, so every repair must pick among them
    /// as a rebuild does.
    #[test]
    fn engines_agree_on_tie_heavy_grids(
        side in 3usize..6,
        seed in any::<u64>(),
        ops in proptest::collection::vec(
            (any::<u8>(), any::<u64>(), any::<u64>(), any::<u8>()),
            1..12,
        )
    ) {
        replay(tie_grid(side, seed), ops.iter().map(|&op| decode_tie(side, op)))?;
    }
}

/// The scripted worst case the random schedules only sometimes hit: a
/// cut vertex goes down (graph disconnects, cross-cut queries answer
/// `None`), then comes back (everything reconnects) — with the engines
/// agreeing bitwise at every stage.
#[test]
fn disconnect_then_reconnect_round_trips() {
    use bips_core::graph::WsGraph;
    let mut g = WsGraph::new(7);
    for i in 0..6 {
        g.add_edge(i, i + 1, 5.0 + i as f64);
    }
    let mut engines: Vec<PathEngine> = [
        PathEngineKind::Rebuild,
        PathEngineKind::DynamicDense,
        PathEngineKind::DynamicSparse,
    ]
    .into_iter()
    .map(|k| PathEngine::new(k, g.clone()))
    .collect();
    let mut buf = Vec::new();

    // Cut the line at its middle node.
    for e in engines.iter_mut() {
        assert_eq!(e.set_node_up(3, false), Ok(true));
        assert!(!e.graph().is_connected());
        assert_eq!(e.query(0, 6, &mut buf).expect("no corruption"), None);
        assert_eq!(e.query(6, 0, &mut buf).expect("no corruption"), None);
        // Same side of the cut still routes.
        assert_eq!(e.query(0, 2, &mut buf).expect("no corruption"), Some(11.0));
    }

    // Reconnect: distances come back bit-identical to a fresh rebuild.
    let full = g.precompute_all_pairs();
    for e in engines.iter_mut() {
        assert_eq!(e.set_node_up(3, true), Ok(true));
        assert!(e.graph().is_connected());
        for a in 0..7 {
            for b in 0..7 {
                let d = e.query(a, b, &mut buf).expect("no corruption");
                let mut want_path = Vec::new();
                let want = full.path_into(a, b, &mut want_path);
                assert_eq!(
                    d.map(f64::to_bits),
                    want.map(f64::to_bits),
                    "{} -> {} after reconnect",
                    a,
                    b
                );
                assert_eq!(buf, want_path, "{a} -> {b} path after reconnect");
            }
        }
    }
}

/// Sparse mode under pressure: a 3-slot tree cache on a 200-node,
/// chain-heavy graph, so every round of queries evicts occupied slots
/// and long subtrees push single-tree repairs past their budget (an
/// epoch invalidation). After each of 60 mutations, every fifth a node
/// flap, the full rows of eight sampled sources must match the rebuild
/// reference bitwise.
#[test]
fn sparse_eviction_and_invalidation_match_rebuild() {
    const N: usize = 200;
    const SLOTS: usize = 3;
    let g = random_connected_graph(N, 20, 41);
    let mut sparse = PathEngine::new_sparse(g.clone(), SLOTS);
    let mut reference = PathEngine::new(PathEngineKind::Rebuild, g);
    let mut rng = desim::SimRng::seed_from(77);
    let mut down: Vec<usize> = Vec::new();
    let (mut want, mut got) = (Vec::new(), Vec::new());
    for step in 0..60 {
        let (s, r) = if step % 5 == 4 {
            if !down.is_empty() && rng.below(2) == 0 {
                let x = down.swap_remove(rng.below(down.len() as u64) as usize);
                (sparse.set_node_up(x, true), reference.set_node_up(x, true))
            } else {
                let x = rng.below(N as u64) as usize;
                let r = reference.set_node_up(x, false);
                if r == Ok(true) {
                    down.push(x);
                }
                (sparse.set_node_up(x, false), r)
            }
        } else {
            let a = rng.below(N as u64) as usize;
            let b = (a + 1 + rng.below(N as u64 - 1) as usize) % N;
            let w = rng.uniform(0.5, 60.0);
            (
                sparse.set_edge_weight(a, b, w),
                reference.set_edge_weight(a, b, w),
            )
        };
        assert_eq!(s, r, "step {step}: mutation outcomes diverged");
        for _ in 0..8 {
            let src = rng.below(N as u64) as usize;
            for dst in 0..N {
                let d = sparse.query(src, dst, &mut got).expect("no corruption");
                let w = reference.query(src, dst, &mut want).expect("no corruption");
                assert_eq!(
                    (d.map(f64::to_bits), &got),
                    (w.map(f64::to_bits), &want),
                    "step {step}: {src} -> {dst} diverged"
                );
            }
        }
    }
    let mut m = desim::MetricSet::default();
    sparse.export_metrics(&mut m);
    let counter = |name| m.counter_value(name).expect("exported");
    let [repairs, touched, invalidations, misses, hits] = [
        "core.graph.tree_repairs",
        "core.graph.vertices_touched",
        "core.graph.epoch_invalidations",
        "core.graph.cache_misses",
        "core.graph.cache_hits",
    ]
    .map(counter);
    assert!(
        misses > SLOTS as u64,
        "{misses} misses: no slot was evicted"
    );
    assert!(invalidations > 0, "no repair exceeded its budget");
    // Exact: a repair done twice, or one more eviction, moves them
    // while every answer above still matches.
    assert_eq!(
        [repairs, touched, invalidations, misses, hits],
        [127, 1_183, 7, 475, 96_000],
        "sparse repair and cache counters moved"
    );
}
