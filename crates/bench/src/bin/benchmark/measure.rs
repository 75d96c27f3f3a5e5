//! Measurement plumbing shared by the workloads: the metric collector,
//! pooled latency histograms, windowed rates, the run budget and the
//! set-up repetition.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use desim::hdr::HdrHistogram;

use crate::catalog;

/// HDR resolution for every latency: values below 2048 ns are exact,
/// larger ones carry under 0.1 % relative error.
const HDR_BITS: u32 = 11;

/// One reported value and the number of samples behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Value {
    /// The value, in the catalog's unit.
    pub value: f64,
    /// Samples it summarizes (operations, windows or set-ups).
    pub samples: u64,
}

/// The metrics one run produced, keyed by catalog name.
#[derive(Debug, Default, Clone)]
pub struct Metrics {
    values: BTreeMap<&'static str, Value>,
}

impl Metrics {
    /// Records `name`, unless nothing was measured for it (`samples`
    /// is 0), as for traced-only metrics in an untraced run.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not in the catalog — a bug in the benchmark.
    pub fn put(&mut self, name: &'static str, value: f64, samples: u64) {
        assert!(catalog::find(name).is_some(), "undeclared metric {name}");
        if samples > 0 {
            self.values.insert(name, Value { value, samples });
        }
    }

    /// The recorded value of `name`, if any.
    pub fn get(&self, name: &str) -> Option<Value> {
        self.values.get(name).copied()
    }

    /// Every recorded metric in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, Value)> + '_ {
        self.values.iter().map(|(&k, &v)| (k, v))
    }
}

/// A latency distribution in nanoseconds.
#[derive(Debug, Clone)]
pub struct Latency(HdrHistogram);

impl Default for Latency {
    fn default() -> Self {
        Latency(HdrHistogram::new(HDR_BITS))
    }
}

impl Latency {
    /// Records one sample.
    pub fn record(&mut self, ns: u64) {
        self.0.record(ns);
    }

    /// Records the time from `t0` to `t1`.
    pub fn span(&mut self, t0: Instant, t1: Instant) {
        self.0.record(nanos(t1 - t0));
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.0.count()
    }

    /// The `q` quantile in nanoseconds (nearest rank); 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        self.0.quantile(q) as f64
    }

    /// The median and 99th percentile in nanoseconds.
    pub fn p50_p99(&self) -> (f64, f64) {
        (self.quantile(0.50), self.quantile(0.99))
    }
}

/// Whole nanoseconds of a duration, saturating.
pub fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Rates measured over fixed-size windows of operations, reported as
/// the median window: one preempted window on a shared host moves the
/// median by at most one rank.
#[derive(Debug, Default)]
pub struct Windows {
    rates: Vec<f64>,
    ops: u64,
    secs: f64,
    per_window: u64,
}

impl Windows {
    /// Windows closing after every `per_window` operations.
    pub fn new(per_window: u64) -> Windows {
        Windows {
            per_window: per_window.max(1),
            ..Windows::default()
        }
    }

    /// Adds `ops` operations that took `secs` seconds.
    pub fn put(&mut self, ops: u64, secs: f64) {
        self.ops += ops;
        self.secs += secs;
        if self.ops >= self.per_window {
            self.close();
        }
    }

    fn close(&mut self) {
        if self.ops > 0 && self.secs > 0.0 {
            self.rates.push(self.ops as f64 / self.secs);
        }
        self.ops = 0;
        self.secs = 0.0;
    }

    /// The median window rate (a trailing partial window counts when
    /// no full one closed) and the number of windows.
    pub fn median(mut self) -> (f64, u64) {
        if self.rates.is_empty() {
            self.close();
        }
        let n = self.rates.len() as u64;
        (median(&mut self.rates), n)
    }
}

/// Median of `v` (mean of the middle two for even lengths); 0 when
/// empty.
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Alternating traced and untraced ticks: the untraced ones feed the
/// end-to-end metrics, the traced ones the per-layer metrics, and the
/// two query-block rates give the tracing overhead.
#[derive(Default)]
pub struct Overhead {
    traced: (u64, f64),
    plain: (u64, f64),
}

impl Overhead {
    /// Adds `ops` operations of a traced or untraced unit.
    pub fn put(&mut self, traced: bool, ops: u64, secs: f64) {
        let side = if traced {
            &mut self.traced
        } else {
            &mut self.plain
        };
        side.0 += ops;
        side.1 += secs;
    }

    /// Reports `trace.overhead_pct`: how much longer an operation took
    /// in traced units than in untraced ones.
    pub fn report(&self, m: &mut Metrics) {
        let per_op = |(n, s): (u64, f64)| s / n.max(1) as f64;
        let plain = per_op(self.plain);
        let pct = if plain > 0.0 {
            (per_op(self.traced) / plain - 1.0) * 100.0
        } else {
            0.0
        };
        m.put("trace.overhead_pct", pct, self.traced.0);
    }
}

/// When a measurement loop stops: after `units` units of work or once
/// `seconds` have elapsed, whichever comes first.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Upper bound on units of work (ticks).
    pub units: usize,
    /// Wall-clock budget in seconds.
    pub seconds: f64,
}

impl Budget {
    /// A run bounded by time only.
    pub fn seconds(seconds: f64) -> Budget {
        Budget {
            units: usize::MAX,
            seconds,
        }
    }

    /// A run of exactly `units` units, however long it takes.
    #[cfg(test)]
    pub fn units(units: usize) -> Budget {
        Budget {
            units,
            seconds: f64::INFINITY,
        }
    }

    /// Whether a loop that started at `start` and has done `done` units
    /// should stop.
    pub fn spent(&self, done: usize, start: Instant) -> bool {
        done >= self.units || start.elapsed().as_secs_f64() >= self.seconds
    }
}

/// Runs `setup` `times` times (at least once), tearing down all but the
/// last result before the next set-up starts so peak memory holds one
/// instance. Returns the kept instance, the stage timings of the kept
/// set-up, and `setup_s`: the median wall time of one set-up. The count
/// is fixed per workload, not timed, so that the allocator's history,
/// and with it the peak RSS, is the same in every run.
pub fn repeat_setup<T, S>(
    times: usize,
    mut setup: impl FnMut() -> (T, S),
    mut teardown: impl FnMut(T),
) -> (T, S, Value) {
    let mut secs = Vec::with_capacity(times);
    let mut kept = None;
    for _ in 0..times.max(1) {
        if let Some((t, _)) = kept.take() {
            teardown(t);
        }
        let t0 = Instant::now();
        let built = setup();
        secs.push(t0.elapsed().as_secs_f64());
        kept = Some(built);
    }
    let (t, s) = kept.expect("at least one set-up");
    let samples = secs.len() as u64;
    (
        t,
        s,
        Value {
            value: median(&mut secs),
            samples,
        },
    )
}

/// Peak resident set size (VmHWM) in MiB, 0 where `/proc` is missing.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pooled_quantiles_see_a_tail_in_few_samples() {
        let mut l = Latency::default();
        for v in 0..1000u64 {
            // Two samples in a hundred stall: the pooled p99 sees them.
            l.record(if v % 50 == 0 { 100_000 } else { 100 + v % 7 });
        }
        assert_eq!(l.count(), 1000);
        assert_eq!(l.quantile(0.5), 103.0);
        let p99 = l.quantile(0.99);
        assert!((p99 - 100_000.0).abs() / 100_000.0 < 1e-3, "{p99}");
    }

    #[test]
    fn windows_report_the_median_window() {
        let mut w = Windows::new(10);
        for secs in [1.0, 1.0, 100.0, 2.0, 1.0] {
            w.put(10, secs);
        }
        assert_eq!(w.median(), (10.0, 5));
        let mut partial = Windows::new(1000);
        partial.put(10, 2.0);
        assert_eq!(partial.median(), (5.0, 1));
    }

    #[test]
    fn setup_repeats_and_tears_down() {
        let mut torn = Vec::new();
        let mut n = 0;
        let (kept, stage, setup_s) = repeat_setup(
            5,
            || {
                n += 1;
                (n, n * 10)
            },
            |t| torn.push(t),
        );
        assert_eq!((kept, stage), (5, 50));
        assert_eq!(torn, [1, 2, 3, 4]);
        assert_eq!(setup_s.samples, 5);
        assert!(setup_s.value >= 0.0);
    }
}
