//! Deterministic parallel replication.
//!
//! The paper's artifacts are all replication sweeps — 500 inquiry trials
//! for the §4.1 table, 300 replications per curve for Figure 2 — and each
//! replication is an independent simulation run keyed by a child seed
//! from [`SeedDeriver`](crate::SeedDeriver). This module fans those runs
//! out over `std::thread::scope` workers while keeping results
//! **bit-identical to the serial path**:
//!
//! * every replication gets the *same* per-index seed regardless of the
//!   worker count, because seeds come from `SeedDeriver::derive(index)`
//!   and never from thread identity or scheduling;
//! * each worker runs a contiguous chunk of indices and returns its
//!   results tagged with their replication index;
//! * the collector folds outcomes and merges per-trial
//!   [`MetricSet`]s **in replication-index order**. Ordered reduction is
//!   what makes the merge deterministic: counters are commutative, but
//!   gauge merge is last-writer-wins and Welford statistics merge is
//!   only *mathematically* (not bitwise) associative, so any
//!   completion-order reduction would leak the thread schedule into the
//!   result.
//!
//! The worker count comes from three places, strongest first: an
//! explicit `--jobs N` CLI flag, the `BIPS_JOBS` environment variable,
//! and finally [`std::thread::available_parallelism`]. `jobs = 1` runs
//! inline on the calling thread (no worker threads at all), so
//! `--jobs 1` is the exact serial baseline.
//!
//! # Example
//!
//! ```
//! use desim::par;
//!
//! let serial: Vec<u64> = par::run_indexed(8, 1, |i| i * i);
//! let parallel: Vec<u64> = par::run_indexed(8, 4, |i| i * i);
//! assert_eq!(serial, parallel); // index order, always
//! ```

use crate::metrics::MetricSet;

/// Name of the environment variable consulted by [`default_jobs`].
pub const JOBS_ENV: &str = "BIPS_JOBS";

/// The ambient worker count: `BIPS_JOBS` if set to a positive integer,
/// otherwise [`std::thread::available_parallelism`] (1 if unknown).
pub fn default_jobs() -> usize {
    if let Ok(v) = std::env::var(JOBS_ENV) {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
        eprintln!("ignoring invalid {JOBS_ENV}={v:?} (want a positive integer)");
    }
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Resolves a requested worker count: `0` means "ambient"
/// ([`default_jobs`]), anything else is taken as-is.
///
/// Experiment configs store `jobs: usize` with `0` as the default so
/// that plain `Config::default()` picks up `BIPS_JOBS` / the machine
/// width, while `--jobs N` pins an exact count.
pub fn resolve_jobs(requested: usize) -> usize {
    if requested == 0 {
        default_jobs()
    } else {
        requested
    }
}

/// Runs `f(0), f(1), …, f(n-1)` on up to `jobs` scoped worker threads
/// and returns the results **in index order**.
///
/// `jobs` is clamped to `[1, n]`; `jobs <= 1` (or `n <= 1`) runs inline
/// with no threads, which is the exact serial path. Workers own
/// contiguous index chunks, so the returned vector is the concatenation
/// of the chunks in ascending index order — identical to the serial
/// result for any worker count.
///
/// # Panics
///
/// Propagates a panic from `f` (the worker's panic payload is resumed on
/// the calling thread once all workers have been joined).
pub fn run_indexed<T, F>(n: u64, jobs: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(u64) -> T + Sync,
{
    let jobs = jobs.clamp(1, n.max(1) as usize);
    if jobs == 1 {
        return (0..n).map(f).collect();
    }
    let chunk = n.div_ceil(jobs as u64);
    let chunks: Vec<Result<Vec<T>, _>> = std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = (0..jobs as u64)
            .map(|w| {
                scope.spawn(move || {
                    let lo = w * chunk;
                    let hi = ((w + 1) * chunk).min(n);
                    (lo..hi).map(f).collect::<Vec<T>>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join()).collect()
    });
    let mut out = Vec::with_capacity(n as usize);
    for c in chunks {
        match c {
            Ok(items) => out.extend(items),
            Err(payload) => std::panic::resume_unwind(payload),
        }
    }
    out
}

/// Runs `n` replications on up to `jobs` workers, where each replication
/// produces an outcome plus its own per-trial [`MetricSet`], and merges
/// the per-trial sets into `metrics` **in replication-index order**.
///
/// This mirrors the serial accumulation pattern
/// (`for i in 0..n { metrics.merge(&trial_i) }`) exactly: the same
/// per-trial sets are merged in the same order with the same float
/// operation sequence, so the accumulated telemetry is bit-identical for
/// every worker count. Outcomes are returned in index order.
pub fn replicate_with_metrics<T, F>(n: u64, jobs: usize, metrics: &mut MetricSet, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(u64) -> (T, MetricSet) + Sync,
{
    let pairs = run_indexed(n, jobs, f);
    let mut outcomes = Vec::with_capacity(pairs.len());
    for (outcome, trial) in pairs {
        metrics.merge(&trial);
        outcomes.push(outcome);
    }
    outcomes
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_indexed_preserves_index_order() {
        for jobs in [1, 2, 3, 8, 64] {
            let got = run_indexed(37, jobs, |i| i * 3);
            let want: Vec<u64> = (0..37).map(|i| i * 3).collect();
            assert_eq!(got, want, "jobs={jobs}");
        }
    }

    #[test]
    fn run_indexed_handles_edge_counts() {
        assert_eq!(run_indexed(0, 4, |i| i), Vec::<u64>::new());
        assert_eq!(run_indexed(1, 4, |i| i + 10), vec![10]);
        // More workers than items must not duplicate or drop indices.
        assert_eq!(run_indexed(3, 16, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn replicate_with_metrics_is_jobs_invariant() {
        let run = |jobs: usize| {
            let mut m = MetricSet::new();
            let outs = replicate_with_metrics(25, jobs, &mut m, |i| {
                let mut trial = MetricSet::new();
                trial.inc("trials");
                trial.observe("value", (i as f64).sin());
                trial.gauge("last_index", i as f64);
                (i, trial)
            });
            (outs, m)
        };
        let (outs1, m1) = run(1);
        for jobs in [2, 4, 8] {
            let (outs, m) = run(jobs);
            assert_eq!(outs, outs1, "outcomes diverged at jobs={jobs}");
            assert_eq!(m, m1, "metrics diverged at jobs={jobs}");
        }
        assert_eq!(m1.counter_value("trials"), Some(25));
        // Gauge merge is last-writer-wins: index order makes it the last
        // replication's value, not the last *finisher*'s.
        assert_eq!(m1.gauge_value("last_index"), Some(24.0));
    }

    #[test]
    fn resolve_jobs_zero_is_ambient() {
        assert!(resolve_jobs(0) >= 1);
        assert_eq!(resolve_jobs(7), 7);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panics_propagate() {
        run_indexed(8, 4, |i| {
            if i == 5 {
                panic!("boom");
            }
            i
        });
    }
}
