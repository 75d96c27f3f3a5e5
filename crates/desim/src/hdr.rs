//! Log-linear high-dynamic-range histograms with bounded relative error.
//!
//! Serving latencies at 1M users span five orders of magnitude, and the
//! tail (p999, p9999) is exactly where fixed buckets lose resolution. [`HdrHistogram`] records unsigned integer values
//! (by convention nanoseconds) into log-linear buckets: values below
//! `2^sub_bucket_bits` are exact, and every power-of-two octave above
//! that is split into `2^(sub_bucket_bits-1)` linear sub-buckets.
//! Reported quantiles are bucket upper edges, so for any recorded value
//! `v` the reported value `r` satisfies `v <= r < v * (1 + 2^(1-b))`
//! where `b = sub_bucket_bits` — a **relative error below
//! `2^(1-sub_bucket_bits)`** (1.5625 % at the default `b = 7`),
//! independent of the value's magnitude.
//!
//! Everything is integer arithmetic: recording, quantiles, and merges
//! are deterministic, and [`HdrHistogram::merge`] is an index-ordered
//! bin-wise sum — associative and commutative, so per-shard histograms
//! merged in shard order are bit-identical at any worker count (the
//! property tests in `crates/desim/tests/hdr_properties.rs` prove both
//! claims). Merging histograms with different `sub_bucket_bits` is a
//! typed [`HdrMergeError`], never a silent mis-merge.

use std::fmt;

/// Default sub-bucket resolution: 2^7 = 128 linear buckets per octave
/// pair, relative error below 2^-6 ≈ 1.5625 %.
pub const DEFAULT_SUB_BUCKET_BITS: u32 = 7;

/// Attempted to merge histograms with different bucket layouts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HdrMergeError {
    /// `sub_bucket_bits` of the receiving histogram.
    pub ours: u32,
    /// `sub_bucket_bits` of the histogram being merged in.
    pub theirs: u32,
}

impl fmt::Display for HdrMergeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "incompatible HDR histograms: sub_bucket_bits {} vs {}",
            self.ours, self.theirs
        )
    }
}

impl std::error::Error for HdrMergeError {}

/// A mergeable log-linear histogram over `u64` values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HdrHistogram {
    sub_bucket_bits: u32,
    counts: Box<[u64]>,
    count: u64,
    min: u64,
    max: u64,
}

impl HdrHistogram {
    /// A histogram with `sub_bucket_bits` resolution (clamped to
    /// `[2, 16]`); see the module docs for the error bound this buys.
    pub fn new(sub_bucket_bits: u32) -> HdrHistogram {
        let bits = sub_bucket_bits.clamp(2, 16);
        let sub = 1usize << bits;
        let half = sub / 2;
        let octaves = 64 - bits as usize;
        HdrHistogram {
            sub_bucket_bits: bits,
            counts: vec![0u64; sub + octaves * half].into_boxed_slice(),
            count: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// A histogram at the default resolution
    /// ([`DEFAULT_SUB_BUCKET_BITS`]).
    pub fn with_default_resolution() -> HdrHistogram {
        HdrHistogram::new(DEFAULT_SUB_BUCKET_BITS)
    }

    /// The configured resolution.
    pub fn sub_bucket_bits(&self) -> u32 {
        self.sub_bucket_bits
    }

    /// Upper bound on the relative error of reported quantiles:
    /// `2^(1 - sub_bucket_bits)`.
    pub fn relative_error_bound(&self) -> f64 {
        2.0_f64.powi(1 - self.sub_bucket_bits as i32)
    }

    /// Total recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Smallest recorded value (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    fn index_of(&self, v: u64) -> usize {
        let bits = self.sub_bucket_bits;
        let sub = 1u64 << bits;
        if v < sub {
            return v as usize;
        }
        let msb = 63 - v.leading_zeros(); // >= bits
        let octave = (msb - bits + 1) as usize;
        let half = (sub / 2) as usize;
        let top = (v >> (msb - (bits - 1))) as usize; // in [half, sub)
        sub as usize + (octave - 1) * half + (top - half)
    }

    /// The largest value that maps to bucket `i` — what quantiles
    /// report for values landing in that bucket.
    fn upper_edge(&self, i: usize) -> u64 {
        let bits = self.sub_bucket_bits;
        let sub = 1usize << bits;
        if i < sub {
            return i as u64;
        }
        let half = sub / 2;
        let rel = i - sub;
        let octave = (rel / half + 1) as u32;
        let top = (half + rel % half) as u64;
        // (top + 1) << octave can overflow at the extreme top of the
        // u64 range; saturate rather than wrap.
        let upper = (u128::from(top) + 1) << octave;
        u64::try_from(upper.saturating_sub(1)).unwrap_or(u64::MAX)
    }

    /// Record one value.
    pub fn record(&mut self, v: u64) {
        self.record_n(v, 1);
    }

    /// Record `n` occurrences of `v`.
    pub fn record_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        let idx = self.index_of(v);
        if let Some(slot) = self.counts.get_mut(idx) {
            *slot = slot.saturating_add(n);
            self.count = self.count.saturating_add(n);
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
    }

    /// The value at quantile `q` in `[0, 1]` (nearest-rank, bucket
    /// upper edge, clamped into `[min, max]`). Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // Nearest-rank: the smallest value with at least ceil(q * n)
        // observations at or below it.
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cum = cum.saturating_add(c);
            if cum >= target {
                return self.upper_edge(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Index-ordered bin-wise merge; errors (leaving `self` untouched)
    /// when layouts differ.
    pub fn merge(&mut self, other: &HdrHistogram) -> Result<(), HdrMergeError> {
        if self.sub_bucket_bits != other.sub_bucket_bits {
            return Err(HdrMergeError {
                ours: self.sub_bucket_bits,
                theirs: other.sub_bucket_bits,
            });
        }
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a = a.saturating_add(*b);
        }
        self.count = self.count.saturating_add(other.count);
        if other.count > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        Ok(())
    }

    /// Iterate non-empty buckets as `(upper_edge, count)`, in value
    /// order — the stable export shape for reports.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (self.upper_edge(i), c))
    }
}

impl Default for HdrHistogram {
    fn default() -> HdrHistogram {
        HdrHistogram::with_default_resolution()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let mut h = HdrHistogram::new(7);
        for v in 0..128u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 128);
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(1.0), 127);
        // Below 2^7 every value has its own bucket.
        assert_eq!(h.index_of(0), 0);
        assert_eq!(h.index_of(127), 127);
        assert_ne!(h.index_of(64), h.index_of(65));
    }

    #[test]
    fn index_and_upper_edge_are_consistent() {
        let h = HdrHistogram::new(7);
        for &v in &[
            0u64,
            1,
            127,
            128,
            129,
            255,
            256,
            1_000,
            1_000_000,
            u64::MAX / 2,
            u64::MAX - 1,
            u64::MAX,
        ] {
            let i = h.index_of(v);
            let upper = h.upper_edge(i);
            assert!(upper >= v, "upper edge {upper} below value {v}");
            // The upper edge maps back into the same bucket.
            assert_eq!(
                h.index_of(upper),
                i,
                "edge of bucket {i} escapes it (v={v})"
            );
        }
    }

    #[test]
    fn quantile_error_is_bounded() {
        let mut h = HdrHistogram::new(7);
        let bound = h.relative_error_bound();
        let mut x = 3u64;
        let mut values = Vec::new();
        for _ in 0..10_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let v = x % 10_000_000;
            values.push(v);
            h.record(v);
        }
        values.sort_unstable();
        for &q in &[0.5, 0.9, 0.99, 0.999, 1.0] {
            let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
            let exact = values[rank - 1];
            let got = h.quantile(q);
            assert!(got >= exact, "q{q}: got {got} < exact {exact}");
            let err = (got - exact) as f64 / (exact.max(1)) as f64;
            assert!(err <= bound, "q{q}: err {err} > bound {bound}");
        }
    }

    #[test]
    fn merge_matches_single_histogram() {
        let mut a = HdrHistogram::new(7);
        let mut b = HdrHistogram::new(7);
        let mut whole = HdrHistogram::new(7);
        for v in [1u64, 50, 129, 4_000, 1_000_000] {
            a.record(v);
            whole.record(v);
        }
        for v in [2u64, 300, 12_345, 99_999_999] {
            b.record(v);
            whole.record(v);
        }
        a.merge(&b).expect("same layout");
        assert_eq!(a, whole);
    }

    #[test]
    fn merge_layout_mismatch_is_typed_error() {
        let mut a = HdrHistogram::new(7);
        a.record(10);
        let snapshot = a.clone();
        let b = HdrHistogram::new(8);
        let err = a.merge(&b).expect_err("layouts differ");
        assert_eq!(err, HdrMergeError { ours: 7, theirs: 8 });
        assert!(err.to_string().contains("7 vs 8"));
        assert_eq!(a, snapshot, "failed merge must not mutate");
    }

    #[test]
    fn empty_histogram_quantiles_are_zero() {
        let h = HdrHistogram::with_default_resolution();
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
    }

    #[test]
    fn nonzero_buckets_are_value_ordered() {
        let mut h = HdrHistogram::new(4);
        for v in [7u64, 7, 1_000, 33] {
            h.record(v);
        }
        let buckets: Vec<(u64, u64)> = h.nonzero_buckets().collect();
        assert_eq!(buckets.len(), 3);
        assert!(buckets.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(buckets[0], (7, 2));
    }
}
