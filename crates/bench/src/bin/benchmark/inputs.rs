//! Seeded inputs for the serving workloads, their answer folds, and the
//! ground-truth checks every answer goes through.
//!
//! The schedule is generated here rather than borrowed from
//! `bips_bench::loadgen`, which is due to be rewritten; a unit test pins
//! it (and the checksum fold) to `loadgen::generate_trace` /
//! `loadgen::run_sharded` so checksums stay comparable with the
//! committed `BENCH_PR*` baselines.

use bips_core::graph::WsGraph;
use bips_core::registry::{AccessRights, Registry};
use bt_baseband::BdAddr;
use desim::SeedDeriver;

/// FNV-1a 64 offset basis: the initial value of every checksum.
pub const CHECKSUM_INIT: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// Size of one serving workload: a population on a square-grid
/// building, ticks of moves followed by queries.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Registered (and logged-in) users.
    pub users: u64,
    /// Grid side; the building has `side * side` cells.
    pub side: usize,
    /// Moves per tick; each is a presence plus an absence notice.
    pub moves_per_tick: usize,
    /// `WhereIs` queries per tick.
    pub queries_per_tick: usize,
    /// Ticks in one pass of the schedule.
    pub ticks: usize,
    /// Queriers are drawn from the first `pool` users.
    pub pool: u64,
    /// Shards of the serving engine.
    pub shards: usize,
}

impl Shape {
    /// Number of cells.
    pub fn cells(&self) -> usize {
        self.side * self.side
    }
}

/// `(uid, old_cell, new_cell)`.
pub type Move = (u64, u32, u32);

/// `(querier, target, from_cell)`.
pub type Query = (u64, u64, u32);

/// The move and query schedule of one pass, tick-major.
pub struct Schedule {
    /// Every move.
    pub moves: Vec<Move>,
    /// Every query.
    pub queries: Vec<Query>,
    /// Each user's cell before the first move.
    pub initial: Vec<u32>,
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives the schedule from the seed. Every move leaves its user's
/// current cell for a different one, so no notice is ever redundant.
pub fn schedule(shape: &Shape, seed: u64) -> Schedule {
    let seeds = SeedDeriver::new(seed);
    let cells = shape.cells() as u64;
    let initial: Vec<u32> = (0..shape.users).map(|u| (u % cells) as u32).collect();
    let mut current = initial.clone();
    let mut mv_state = seeds.derive(1);
    let mut q_state = seeds.derive(2);
    let mut moves = Vec::with_capacity(shape.ticks * shape.moves_per_tick);
    let mut queries = Vec::with_capacity(shape.ticks * shape.queries_per_tick);
    for _ in 0..shape.ticks {
        for _ in 0..shape.moves_per_tick {
            let r = splitmix(&mut mv_state);
            let uid = r % shape.users;
            let old = current[uid as usize];
            let new = (u64::from(old) + 1 + (r >> 32) % (cells - 1)) % cells;
            current[uid as usize] = new as u32;
            moves.push((uid, old, new as u32));
        }
        for _ in 0..shape.queries_per_tick {
            let r = splitmix(&mut q_state);
            queries.push((
                r % shape.pool,
                (r >> 20) % shape.users,
                ((r >> 52) % cells) as u32,
            ));
        }
    }
    Schedule {
        moves,
        queries,
        initial,
    }
}

impl Schedule {
    /// The moves and queries of measured tick `k`. Passes alternate
    /// direction: even passes replay the schedule forward, odd passes
    /// replay it backward with every move inverted, so each odd pass
    /// ends where the run started and every pass starts from a state
    /// the ground truth describes exactly. Moves are yielded in
    /// application order as `(uid, from, to)`.
    pub fn tick<'a>(
        &'a self,
        shape: &Shape,
        k: usize,
    ) -> (impl Iterator<Item = Move> + 'a, &'a [Query]) {
        let (pass, i) = (k / shape.ticks, k % shape.ticks);
        let forward = pass % 2 == 0;
        let t = if forward { i } else { shape.ticks - 1 - i };
        let mpt = shape.moves_per_tick;
        let block = &self.moves[t * mpt..(t + 1) * mpt];
        let moves = (0..mpt).map(move |j| {
            if forward {
                block[j]
            } else {
                let (uid, old, new) = block[mpt - 1 - j];
                (uid, new, old)
            }
        });
        let qpt = shape.queries_per_tick;
        (moves, &self.queries[t * qpt..(t + 1) * qpt])
    }
}

/// The Bluetooth address registered for user `uid`.
pub fn addr(uid: u64) -> BdAddr {
    BdAddr::new(0x1_0000 + uid)
}

/// A registry of `users` open-rights accounts, password `pw`.
pub fn registry(users: u64) -> Registry {
    let mut reg = Registry::new();
    for i in 0..users {
        reg.register(&format!("user{i}"), "pw", AccessRights::open())
            .expect("generated user names are unique");
    }
    reg
}

/// The square-grid building, every corridor 10 m.
pub fn grid(side: usize) -> WsGraph {
    let mut g = WsGraph::new(side * side);
    for (a, b) in grid_edges(side) {
        g.add_edge(a, b, 10.0);
    }
    g
}

/// Every corridor of the grid as `(a, b)` with `a < b`, row-major.
pub fn grid_edges(side: usize) -> impl Iterator<Item = (usize, usize)> {
    (0..side * side).flat_map(move |at| {
        let (r, c) = (at / side, at % side);
        let right = (c + 1 < side).then_some((at, at + 1));
        let down = (r + 1 < side).then_some((at, at + side));
        right.into_iter().chain(down)
    })
}

/// Whether cells `a` and `b` share a corridor of the grid.
pub fn adjacent(side: usize, a: usize, b: usize) -> bool {
    let (lo, hi) = (a.min(b), a.max(b));
    (hi == lo + 1 && hi % side != 0) || hi == lo + side
}

/// A cell id as the in-process (`usize`) and wire (`u32`) paths carry
/// it.
pub trait Node: Copy {
    /// The id widened to `u64`.
    fn id(self) -> u64;
}

impl Node for usize {
    fn id(self) -> u64 {
        self as u64
    }
}

impl Node for u32 {
    fn id(self) -> u64 {
        u64::from(self)
    }
}

/// Folds one answer into a checksum: `kind` 0 is a found answer with
/// its cell, distance bits and path; other kinds carry only the kind.
pub fn fold(sum: &mut u64, kind: u64, cell: u64, dist_bits: u64, path: &[impl Node]) {
    let mut h = *sum;
    for word in [kind, cell, dist_bits, path.len() as u64] {
        h = (h ^ word).wrapping_mul(FNV_PRIME);
    }
    for &c in path {
        h = (h ^ c.id()).wrapping_mul(FNV_PRIME);
    }
    *sum = h;
}

/// Folds one flush's acks into the ack checksum.
pub fn fold_acks(sum: &mut u64, acks: &[bool]) {
    let mut h = (*sum ^ acks.len() as u64).wrapping_mul(FNV_PRIME);
    for &a in acks {
        h = (h ^ u64::from(a)).wrapping_mul(FNV_PRIME);
    }
    *sum = h;
}

/// Checks a found answer on the uniform grid against the ground truth:
/// the target's true cell, the Manhattan distance in 10 m corridors,
/// and a path of adjacent cells from `from` to that cell of exactly
/// that many hops.
pub fn grid_answer_ok(
    side: usize,
    true_cell: u32,
    from: u32,
    cell: u32,
    distance: f64,
    path: &[impl Node],
) -> bool {
    let (s, f, t) = (side as i64, i64::from(from), i64::from(true_cell));
    let hops = (f / s - t / s).abs() + (f % s - t % s).abs();
    cell == true_cell
        && distance == 10.0 * hops as f64
        && path.len() as i64 == hops + 1
        && path.first().map(|n| n.id()) == Some(u64::from(from))
        && path.last().map(|n| n.id()) == Some(u64::from(cell))
        && path
            .windows(2)
            .all(|w| adjacent(side, w[0].id() as usize, w[1].id() as usize))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bips_bench::loadgen;

    fn tiny() -> (Shape, loadgen::Workload) {
        let w = loadgen::Workload::tiny();
        let shape = Shape {
            users: w.users,
            side: w.side,
            moves_per_tick: w.updates_per_tick,
            queries_per_tick: w.queries_per_tick,
            ticks: w.ticks,
            pool: w.pool,
            shards: w.shards,
        };
        (shape, w)
    }

    #[test]
    fn schedule_matches_loadgen() {
        let (shape, w) = tiny();
        let ours = schedule(&shape, w.seed);
        let theirs = loadgen::generate_trace(&w);
        assert_eq!(ours.moves, theirs.moves);
        assert_eq!(ours.queries, theirs.queries);
        assert_eq!(ours.initial, theirs.initial);
    }

    #[test]
    fn backward_pass_undoes_the_forward_pass() {
        let (shape, _) = tiny();
        let s = schedule(&shape, 7);
        let mut truth = s.initial.clone();
        for k in 0..2 * shape.ticks {
            let (moves, _) = s.tick(&shape, k);
            for (uid, from, to) in moves {
                assert_eq!(truth[uid as usize], from, "tick {k}");
                truth[uid as usize] = to;
            }
            if k + 1 == shape.ticks {
                assert_ne!(truth, s.initial);
            }
        }
        assert_eq!(truth, s.initial);
    }

    #[test]
    fn grid_checks_accept_shortest_walks_only() {
        let g = grid(4);
        assert_eq!(g.num_edges(), grid_edges(4).count());
        assert!(adjacent(4, 3, 7) && !adjacent(4, 3, 4));
        assert!(grid_answer_ok(4, 6, 0, 6, 30.0, &[0u32, 1, 2, 6]));
        assert!(!grid_answer_ok(4, 6, 0, 6, 30.0, &[0u32, 1, 5, 6, 2]));
        assert!(!grid_answer_ok(4, 6, 0, 6, 30.0, &[0u32, 4, 5, 7]));
        assert!(!grid_answer_ok(4, 7, 0, 6, 30.0, &[0u32, 1, 2, 6]));
    }
}
