//! A named-metric registry shared by every layer of the simulation.
//!
//! Substrates (baseband, LAN, mobility, the BIPS application core) and the
//! engine probe all record into a [`MetricSet`]: a flat, sorted map from
//! hierarchical dotted names (`baseband.inquiry.fhs_collisions`,
//! `lan.frames.retransmitted`, `engine.queue_depth`) to typed metric
//! values. A `MetricSet` can be snapshotted, merged across replications,
//! rendered for humans ([`fmt::Display`]) or exported as JSON (see
//! [`crate::report`]).
//!
//! Three metric kinds cover the telemetry in this repository:
//!
//! * [`Metric::Counter`] — monotone event counts;
//! * [`Metric::Gauge`] — last-written point-in-time values (rates,
//!   averages computed at export time);
//! * [`Metric::Stats`] — full streaming distributions
//!   ([`OnlineStats`]: mean, CI, extrema).
//!
//! Names are plain strings; the dot hierarchy is a convention, not a
//! structure the registry enforces. Recording into an existing name with a
//! different kind is a programming error and panics.
//!
//! # Example
//!
//! ```
//! use desim::metrics::MetricSet;
//!
//! let mut m = MetricSet::new();
//! m.inc("baseband.inquiry.ids_transmitted");
//! m.add("baseband.inquiry.ids_transmitted", 2);
//! m.observe("core.latency.enrollment_secs", 1.25);
//! m.gauge("engine.events_per_vsec", 5400.0);
//! assert_eq!(m.counter_value("baseband.inquiry.ids_transmitted"), Some(3));
//! assert_eq!(m.len(), 3);
//! ```

use std::collections::BTreeMap;
use std::fmt;

use crate::stats::OnlineStats;

/// One named metric value.
#[derive(Debug, Clone, PartialEq)]
pub enum Metric {
    /// A monotone event count.
    Counter(u64),
    /// A point-in-time value; merging keeps the right-hand side.
    Gauge(f64),
    /// A streaming distribution (mean / CI / extrema).
    Stats(OnlineStats),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Stats(_) => "stats",
        }
    }
}

impl fmt::Display for Metric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Metric::Counter(v) => write!(f, "{v}"),
            Metric::Gauge(v) => write!(f, "{v}"),
            Metric::Stats(s) => write!(f, "{s}"),
        }
    }
}

/// A registry of named metrics. See the [module docs](self).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricSet {
    metrics: BTreeMap<String, Metric>,
}

impl MetricSet {
    /// An empty registry.
    pub fn new() -> Self {
        MetricSet::default()
    }

    /// Increments the counter `name` by one, creating it at zero first if
    /// needed.
    ///
    /// # Panics
    ///
    /// Panics if `name` already holds a non-counter metric.
    pub fn inc(&mut self, name: &str) {
        self.add(name, 1);
    }

    /// Adds `delta` to the counter `name`, creating it at zero first if
    /// needed.
    ///
    /// # Panics
    ///
    /// Panics if `name` already holds a non-counter metric.
    pub fn add(&mut self, name: &str, delta: u64) {
        match self.entry(name, Metric::Counter(0)) {
            Metric::Counter(v) => *v += delta,
            other => mismatch(name, "counter", other.kind()),
        }
    }

    /// Sets the counter `name` to an absolute value (used when exporting
    /// pre-aggregated substrate counters).
    ///
    /// # Panics
    ///
    /// Panics if `name` already holds a non-counter metric.
    pub fn set_counter(&mut self, name: &str, value: u64) {
        match self.entry(name, Metric::Counter(0)) {
            Metric::Counter(v) => *v = value,
            other => mismatch(name, "counter", other.kind()),
        }
    }

    /// Sets the gauge `name` to `value` (NaN is rejected).
    ///
    /// # Panics
    ///
    /// Panics if `value` is NaN or `name` already holds a non-gauge metric.
    pub fn gauge(&mut self, name: &str, value: f64) {
        assert!(!value.is_nan(), "NaN gauge value for {name}");
        match self.entry(name, Metric::Gauge(0.0)) {
            Metric::Gauge(v) => *v = value,
            other => mismatch(name, "gauge", other.kind()),
        }
    }

    /// Pushes one observation into the distribution `name`.
    ///
    /// # Panics
    ///
    /// Panics if `x` is NaN or `name` already holds a non-stats metric.
    pub fn observe(&mut self, name: &str, x: f64) {
        match self.entry(name, Metric::Stats(OnlineStats::new())) {
            Metric::Stats(s) => s.push(x),
            other => mismatch(name, "stats", other.kind()),
        }
    }

    /// Merges a whole pre-aggregated [`OnlineStats`] into the distribution
    /// `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` already holds a non-stats metric.
    pub fn observe_stats(&mut self, name: &str, stats: &OnlineStats) {
        match self.entry(name, Metric::Stats(OnlineStats::new())) {
            Metric::Stats(s) => s.merge(stats),
            other => mismatch(name, "stats", other.kind()),
        }
    }

    fn entry(&mut self, name: &str, default: Metric) -> &mut Metric {
        if !self.metrics.contains_key(name) {
            self.metrics.insert(name.to_string(), default);
        }
        self.metrics.get_mut(name).expect("just inserted")
    }

    /// The metric registered under `name`, if any.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.get(name)
    }

    /// The value of the counter `name` (`None` if absent or not a counter).
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        match self.metrics.get(name) {
            Some(Metric::Counter(v)) => Some(*v),
            _ => None,
        }
    }

    /// The value of the gauge `name` (`None` if absent or not a gauge).
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        match self.metrics.get(name) {
            Some(Metric::Gauge(v)) => Some(*v),
            _ => None,
        }
    }

    /// The distribution under `name` (`None` if absent or not stats).
    pub fn stats(&self, name: &str) -> Option<&OnlineStats> {
        match self.metrics.get(name) {
            Some(Metric::Stats(s)) => Some(s),
            _ => None,
        }
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// True if no metric has been registered.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// Iterates metrics in sorted name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Metric)> {
        self.metrics.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Metric names in sorted order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.metrics.keys().map(String::as_str)
    }

    /// An owned point-in-time copy of the registry.
    pub fn snapshot(&self) -> MetricSet {
        self.clone()
    }

    /// Merges `other` into this registry, name by name: counters add,
    /// gauges take `other`'s value, and stats merge (parallel Welford).
    /// Names present only in `other` are copied.
    ///
    /// # Panics
    ///
    /// Panics if a shared name holds different kinds on the two sides.
    pub fn merge(&mut self, other: &MetricSet) {
        for (name, theirs) in &other.metrics {
            match self.metrics.get_mut(name) {
                None => {
                    self.metrics.insert(name.clone(), theirs.clone());
                }
                Some(mine) => match (mine, theirs) {
                    (Metric::Counter(a), Metric::Counter(b)) => *a += b,
                    (Metric::Gauge(a), Metric::Gauge(b)) => *a = *b,
                    (Metric::Stats(a), Metric::Stats(b)) => a.merge(b),
                    (mine, theirs) => mismatch(name, mine.kind(), theirs.kind()),
                },
            }
        }
    }
}

fn mismatch(name: &str, wanted: &str, found: &str) -> ! {
    panic!("metric {name:?} is a {found}, not a {wanted}")
}

impl fmt::Display for MetricSet {
    /// Renders one `name = value` line per metric, sorted by name.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let width = self.metrics.keys().map(String::len).max().unwrap_or(0);
        for (name, metric) in &self.metrics {
            writeln!(f, "{name:<width$} = {metric}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut m = MetricSet::new();
        m.inc("a.b");
        m.add("a.b", 9);
        assert_eq!(m.counter_value("a.b"), Some(10));
        m.set_counter("a.b", 3);
        assert_eq!(m.counter_value("a.b"), Some(3));
    }

    #[test]
    fn gauges_overwrite() {
        let mut m = MetricSet::new();
        m.gauge("g", 1.0);
        m.gauge("g", 2.5);
        assert_eq!(m.gauge_value("g"), Some(2.5));
    }

    #[test]
    fn stats_collect_observations() {
        let mut m = MetricSet::new();
        m.observe("lat", 1.0);
        m.observe("lat", 3.0);
        let s = m.stats("lat").unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s.mean(), 2.0);
    }

    #[test]
    #[should_panic(expected = "is a counter, not a gauge")]
    fn kind_mismatch_panics() {
        let mut m = MetricSet::new();
        m.inc("x");
        m.gauge("x", 1.0);
    }

    #[test]
    fn merge_combines_by_kind() {
        let mut a = MetricSet::new();
        a.add("c", 2);
        a.gauge("g", 1.0);
        a.observe("s", 1.0);

        let mut b = MetricSet::new();
        b.add("c", 3);
        b.gauge("g", 9.0);
        b.observe("s", 3.0);
        b.inc("only_in_b");

        a.merge(&b);
        assert_eq!(a.counter_value("c"), Some(5));
        assert_eq!(a.gauge_value("g"), Some(9.0));
        assert_eq!(a.stats("s").unwrap().mean(), 2.0);
        assert_eq!(a.counter_value("only_in_b"), Some(1));
    }

    #[test]
    fn snapshot_is_independent() {
        let mut m = MetricSet::new();
        m.inc("c");
        let snap = m.snapshot();
        m.inc("c");
        assert_eq!(snap.counter_value("c"), Some(1));
        assert_eq!(m.counter_value("c"), Some(2));
    }

    #[test]
    fn display_lists_sorted_names() {
        let mut m = MetricSet::new();
        m.inc("b.two");
        m.inc("a.one");
        let text = m.to_string();
        let a = text.find("a.one").unwrap();
        let b = text.find("b.two").unwrap();
        assert!(a < b, "names must render sorted:\n{text}");
    }
}
