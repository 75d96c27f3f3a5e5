//! Estimators used by the experiment harness.
//!
//! Two shapes cover every table and figure in the paper:
//!
//! * [`OnlineStats`] — streaming mean/variance (Welford), for the Table-1
//!   average discovery times and their confidence intervals;
//! * [`EmpiricalCdf`] — the discovery-probability-vs-time curves of
//!   Figure 2 are empirical CDFs of discovery times, evaluated on a grid.

use std::fmt;

/// Streaming mean / variance / extrema via Welford's algorithm.
///
/// # Example
///
/// ```
/// use desim::stats::OnlineStats;
/// let mut s = OnlineStats::new();
/// for x in [1.0, 2.0, 3.0, 4.0] {
///     s.push(x);
/// }
/// assert_eq!(s.mean(), 2.5);
/// assert_eq!(s.len(), 4);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// An empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    ///
    /// # Panics
    ///
    /// Panics if `x` is NaN.
    pub fn push(&mut self, x: f64) {
        assert!(!x.is_nan(), "NaN observation");
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn len(&self) -> u64 {
        self.n
    }

    /// True if no observations have been pushed.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Sample mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (0 with fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation (`None` if empty).
    pub fn min(&self) -> Option<f64> {
        (self.n > 0).then_some(self.min)
    }

    /// Largest observation (`None` if empty).
    pub fn max(&self) -> Option<f64> {
        (self.n > 0).then_some(self.max)
    }

    /// Half-width of the normal-approximation 95 % confidence interval for
    /// the mean (`1.96 · s/√n`; 0 with fewer than two observations).
    pub fn ci95_halfwidth(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            1.96 * self.stddev() / (self.n as f64).sqrt()
        }
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n = self.n + other.n;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.n as f64 / n as f64;
        let m2 = self.m2 + other.m2 + delta * delta * (self.n as f64 * other.n as f64) / n as f64;
        self.n = n;
        self.mean = mean;
        self.m2 = m2;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl fmt::Display for OnlineStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.4} ±{:.4} (95% CI) sd={:.4}",
            self.n,
            self.mean(),
            self.ci95_halfwidth(),
            self.stddev()
        )
    }
}

impl Extend<f64> for OnlineStats {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for x in iter {
            self.push(x);
        }
    }
}

impl FromIterator<f64> for OnlineStats {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = OnlineStats::new();
        s.extend(iter);
        s
    }
}

/// An empirical cumulative distribution function over `f64` samples.
///
/// Censored experiments (a slave never discovered within the horizon) are
/// represented by pushing the sample with
/// [`push_censored`](EmpiricalCdf::push_censored), which contributes to the denominator but
/// never to `P(X ≤ x)` — exactly how Figure 2 treats undiscovered slaves.
///
/// # Example
///
/// ```
/// use desim::stats::EmpiricalCdf;
/// let mut cdf = EmpiricalCdf::new();
/// cdf.extend([1.0, 2.0, 3.0, 4.0]);
/// assert_eq!(cdf.probability_at(2.5), 0.5);
/// assert_eq!(cdf.probability_at(100.0), 1.0);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EmpiricalCdf {
    samples: Vec<f64>,
    censored: u64,
    nans: u64,
    sorted: bool,
}

impl EmpiricalCdf {
    /// An empty CDF.
    pub fn new() -> Self {
        EmpiricalCdf {
            samples: Vec::new(),
            censored: 0,
            nans: 0,
            sorted: true,
        }
    }

    /// Adds an observed sample. NaN samples are counted separately (see
    /// [`nans`](EmpiricalCdf::nans)) and never enter the sample set or
    /// the trial population.
    pub fn push(&mut self, x: f64) {
        if x.is_nan() {
            self.nans += 1;
            return;
        }
        self.samples.push(x);
        self.sorted = false;
    }

    /// Adds a censored trial: counted in the population, never "≤ x".
    pub fn push_censored(&mut self) {
        self.censored += 1;
    }

    /// Total number of trials (observed + censored).
    pub fn len(&self) -> u64 {
        self.samples.len() as u64 + self.censored
    }

    /// True if no trials have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of censored trials.
    pub fn censored(&self) -> u64 {
        self.censored
    }

    /// NaN samples rejected at [`push`](EmpiricalCdf::push) (counted,
    /// never part of the population).
    pub fn nans(&self) -> u64 {
        self.nans
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            // total_cmp: a total order over f64 — no unwrap on NaN, and
            // push never admits NaN anyway.
            self.samples.sort_by(f64::total_cmp);
            self.sorted = true;
        }
    }

    /// `P(X ≤ x)` over all trials (0 if empty).
    pub fn probability_at(&mut self, x: f64) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        self.ensure_sorted();
        let k = self.samples.partition_point(|&s| s <= x);
        k as f64 / self.len() as f64
    }

    /// The `p`-quantile of the *observed* samples (`None` if no sample or
    /// `p` outside `[0, 1]`). Uses the nearest-rank method.
    pub fn quantile(&mut self, p: f64) -> Option<f64> {
        if self.samples.is_empty() || !(0.0..=1.0).contains(&p) {
            return None;
        }
        self.ensure_sorted();
        let n = self.samples.len();
        let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
        Some(self.samples[rank - 1])
    }

    /// Evaluates the CDF on an inclusive uniform grid of `points`
    /// values spanning `[lo, hi]`, returning `(x, P(X ≤ x))` pairs.
    ///
    /// # Panics
    ///
    /// Panics if `points < 2` or `lo > hi`.
    pub fn series(&mut self, lo: f64, hi: f64, points: usize) -> Vec<(f64, f64)> {
        assert!(points >= 2, "need at least two grid points");
        assert!(lo <= hi, "empty grid range");
        let step = (hi - lo) / (points - 1) as f64;
        (0..points)
            .map(|i| {
                let x = lo + step * i as f64;
                (x, self.probability_at(x))
            })
            .collect()
    }

    /// Mean of the observed (non-censored) samples, `None` if none.
    pub fn observed_mean(&self) -> Option<f64> {
        if self.samples.is_empty() {
            None
        } else {
            Some(self.samples.iter().sum::<f64>() / self.samples.len() as f64)
        }
    }
}

impl Extend<f64> for EmpiricalCdf {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for x in iter {
            self.push(x);
        }
    }
}

impl FromIterator<f64> for EmpiricalCdf {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut c = EmpiricalCdf::new();
        c.extend(iter);
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_naive() {
        let xs = [1.5, 2.5, 3.5, 10.0, -4.0, 0.0];
        let s: OnlineStats = xs.iter().copied().collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (xs.len() - 1) as f64;
        assert!((s.mean() - mean).abs() < 1e-12);
        assert!((s.variance() - var).abs() < 1e-12);
        assert_eq!(s.min(), Some(-4.0));
        assert_eq!(s.max(), Some(10.0));
    }

    #[test]
    fn merge_equals_concat() {
        let a: Vec<f64> = (0..57).map(|i| (i as f64).sin()).collect();
        let b: Vec<f64> = (0..91).map(|i| (i as f64).cos() * 3.0).collect();
        let mut left: OnlineStats = a.iter().copied().collect();
        let right: OnlineStats = b.iter().copied().collect();
        left.merge(&right);
        let all: OnlineStats = a.iter().chain(b.iter()).copied().collect();
        assert_eq!(left.len(), all.len());
        assert!((left.mean() - all.mean()).abs() < 1e-12);
        assert!((left.variance() - all.variance()).abs() < 1e-9);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut s: OnlineStats = [1.0, 2.0].into_iter().collect();
        let before = s;
        s.merge(&OnlineStats::new());
        assert_eq!(s, before);
        let mut e = OnlineStats::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn empty_stats_are_safe() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.ci95_halfwidth(), 0.0);
        assert_eq!(s.min(), None);
        assert!(s.is_empty());
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_observation_panics() {
        OnlineStats::new().push(f64::NAN);
    }

    #[test]
    fn cdf_step_behaviour() {
        let mut c: EmpiricalCdf = [1.0, 1.0, 2.0, 5.0].into_iter().collect();
        assert_eq!(c.probability_at(0.5), 0.0);
        assert_eq!(c.probability_at(1.0), 0.5);
        assert_eq!(c.probability_at(4.99), 0.75);
        assert_eq!(c.probability_at(5.0), 1.0);
    }

    #[test]
    fn cdf_censoring_caps_probability() {
        let mut c = EmpiricalCdf::new();
        c.push(1.0);
        c.push(2.0);
        c.push_censored();
        c.push_censored();
        assert_eq!(c.len(), 4);
        assert_eq!(c.probability_at(10.0), 0.5);
        assert_eq!(c.censored(), 2);
    }

    #[test]
    fn cdf_quantiles_nearest_rank() {
        let mut c: EmpiricalCdf = (1..=10).map(|i| i as f64).collect();
        assert_eq!(c.quantile(0.1), Some(1.0));
        assert_eq!(c.quantile(0.5), Some(5.0));
        assert_eq!(c.quantile(1.0), Some(10.0));
        assert_eq!(c.quantile(1.5), None);
        assert_eq!(EmpiricalCdf::new().quantile(0.5), None);
    }

    #[test]
    fn cdf_series_grid() {
        let mut c: EmpiricalCdf = [0.0, 1.0].into_iter().collect();
        let s = c.series(0.0, 2.0, 3);
        assert_eq!(s, vec![(0.0, 0.5), (1.0, 1.0), (2.0, 1.0)]);
    }

    #[test]
    fn cdf_interleaved_push_and_query() {
        let mut c = EmpiricalCdf::new();
        c.push(2.0);
        assert_eq!(c.probability_at(2.0), 1.0);
        c.push(1.0); // must re-sort transparently
        assert_eq!(c.probability_at(1.5), 0.5);
    }

    /// Regression: `probability_at` used to sort with
    /// `partial_cmp(..).expect("no NaN")` and `push` asserted on NaN —
    /// one bad sample (e.g. a 0/0 rate) killed a whole replication
    /// sweep. NaN is now counted separately, never in the population.
    #[test]
    fn cdf_nan_is_counted_not_fatal() {
        let mut c = EmpiricalCdf::new();
        c.push(1.0);
        c.push(f64::NAN);
        c.push(2.0);
        c.push_censored();
        assert_eq!(c.nans(), 1);
        assert_eq!(c.len(), 3, "NaN must not enter the population");
        assert_eq!(c.probability_at(1.5), 1.0 / 3.0);
        assert_eq!(c.quantile(1.0), Some(2.0));
        assert_eq!(c.observed_mean(), Some(1.5));
    }
}

/// A time-weighted average: integrates a piecewise-constant signal (queue
/// length, number of connected slaves, users in coverage) over virtual
/// time.
///
/// # Example
///
/// ```
/// use desim::stats::TimeWeighted;
/// use desim::SimTime;
///
/// let mut tw = TimeWeighted::new(SimTime::ZERO, 0.0);
/// tw.set(SimTime::from_secs(10), 4.0); // 0 for 10 s
/// tw.set(SimTime::from_secs(30), 1.0); // 4 for 20 s
/// // average over [0, 40): (0·10 + 4·20 + 1·10) / 40 = 2.25
/// assert_eq!(tw.average_until(SimTime::from_secs(40)), 2.25);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimeWeighted {
    start: crate::SimTime,
    last_change: crate::SimTime,
    current: f64,
    weighted_sum: f64,
}

impl TimeWeighted {
    /// Starts integrating `initial` at `start`.
    pub fn new(start: crate::SimTime, initial: f64) -> TimeWeighted {
        TimeWeighted {
            start,
            last_change: start,
            current: initial,
            weighted_sum: 0.0,
        }
    }

    /// Changes the signal value at `now`.
    ///
    /// # Panics
    ///
    /// Panics if `now` precedes the previous change or `value` is NaN.
    pub fn set(&mut self, now: crate::SimTime, value: f64) {
        assert!(now >= self.last_change, "time went backwards");
        assert!(!value.is_nan(), "NaN signal value");
        self.weighted_sum += self.current * (now - self.last_change).as_secs_f64();
        self.last_change = now;
        self.current = value;
    }

    /// Adds `delta` to the signal at `now` (counter-style usage).
    ///
    /// # Panics
    ///
    /// Panics if `now` precedes the previous change.
    pub fn add(&mut self, now: crate::SimTime, delta: f64) {
        let v = self.current + delta;
        self.set(now, v);
    }

    /// The current signal value.
    pub fn current(&self) -> f64 {
        self.current
    }

    /// The time of the most recent change (or the start, if unchanged).
    pub fn last_change(&self) -> crate::SimTime {
        self.last_change
    }

    /// The time-weighted average over `[start, until)`.
    ///
    /// # Panics
    ///
    /// Panics if `until` precedes the last change.
    pub fn average_until(&self, until: crate::SimTime) -> f64 {
        assert!(until >= self.last_change, "until precedes last change");
        let total = (until - self.start).as_secs_f64();
        if total == 0.0 {
            return self.current;
        }
        let sum = self.weighted_sum + self.current * (until - self.last_change).as_secs_f64();
        sum / total
    }
}

#[cfg(test)]
mod time_weighted_tests {
    use super::TimeWeighted;
    use crate::SimTime;

    #[test]
    fn constant_signal_averages_to_itself() {
        let tw = TimeWeighted::new(SimTime::ZERO, 3.5);
        assert_eq!(tw.average_until(SimTime::from_secs(100)), 3.5);
    }

    #[test]
    fn step_changes_integrate() {
        let mut tw = TimeWeighted::new(SimTime::from_secs(10), 1.0);
        tw.set(SimTime::from_secs(20), 3.0);
        // [10,20): 1, [20,30): 3 → avg over [10,30) = 2
        assert_eq!(tw.average_until(SimTime::from_secs(30)), 2.0);
        assert_eq!(tw.current(), 3.0);
    }

    #[test]
    fn counter_style_add() {
        let mut tw = TimeWeighted::new(SimTime::ZERO, 0.0);
        tw.add(SimTime::from_secs(5), 2.0);
        tw.add(SimTime::from_secs(10), -1.0);
        assert_eq!(tw.current(), 1.0);
        // (0·5 + 2·5 + 1·10)/20 = 1.0
        assert_eq!(tw.average_until(SimTime::from_secs(20)), 1.0);
    }

    #[test]
    fn zero_duration_average_is_current() {
        let tw = TimeWeighted::new(SimTime::from_secs(7), 9.0);
        assert_eq!(tw.average_until(SimTime::from_secs(7)), 9.0);
    }

    #[test]
    #[should_panic(expected = "time went backwards")]
    fn rewinding_panics() {
        let mut tw = TimeWeighted::new(SimTime::from_secs(5), 0.0);
        tw.set(SimTime::from_secs(3), 1.0);
    }
}
