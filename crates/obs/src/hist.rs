//! Log-bucketed (HDR-style) histograms.
//!
//! Values are `u64` (the simulator measures everything in integer
//! microseconds or counts). Buckets are log-linear: exact below 16, then 8
//! sub-buckets per power of two, bounding the relative recording error at
//! 12.5 % while keeping the whole table a flat 500-slot array — recording is
//! a couple of shifts, no allocation, no floating point.

use crate::merge_sorted;

/// Sub-bucket resolution: 2^3 = 8 sub-buckets per octave.
const SUB_BITS: u32 = 3;
const SUB: u64 = 1 << SUB_BITS;
/// Buckets `0..LINEAR` hold exactly one value each.
const LINEAR: u64 = SUB * 2;
/// Total bucket count needed to cover all of `u64` (the highest index is
/// produced by values with the top bit set: exponent 63).
const N_BUCKETS: usize = (63 - SUB_BITS as usize) * SUB as usize + LINEAR as usize;

/// Index of the bucket holding `v`.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v < LINEAR {
        v as usize
    } else {
        let exp = 63 - v.leading_zeros(); // >= SUB_BITS + 1
        let mantissa = (v >> (exp - SUB_BITS)) - SUB; // 0..SUB
        ((exp - SUB_BITS) as usize - 1) * SUB as usize + mantissa as usize + LINEAR as usize
    }
}

/// Smallest value mapping to bucket `idx` (the bucket's lower bound).
pub fn bucket_lower_bound(idx: usize) -> u64 {
    if (idx as u64) < LINEAR {
        idx as u64
    } else {
        let k = idx - LINEAR as usize;
        let exp = (k / SUB as usize) as u32 + SUB_BITS + 1;
        let mantissa = (k % SUB as usize) as u64;
        (SUB + mantissa) << (exp - SUB_BITS)
    }
}

/// A fixed-size log-bucketed histogram of `u64` samples.
#[derive(Debug, Clone)]
pub struct Histogram {
    counts: Box<[u64; N_BUCKETS]>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            counts: Box::new([0; N_BUCKETS]),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_index(v)] += 1;
        self.count += 1;
        self.sum = self.sum.wrapping_add(v);
        if v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
    }

    /// Freezes the histogram into a serialisable snapshot.
    pub fn snapshot(&self) -> HistSnapshot {
        let mut s = HistSnapshot {
            count: self.count,
            sum: self.sum,
            min: (self.count > 0).then_some(self.min),
            max: (self.count > 0).then_some(self.max),
            p50: None,
            p90: None,
            p99: None,
            buckets: self
                .counts
                .iter()
                .enumerate()
                .filter(|(_, &c)| c > 0)
                .map(|(i, &c)| (bucket_lower_bound(i), c))
                .collect(),
        };
        s.set_quantiles();
        s
    }
}

/// An immutable summary of a [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Number of samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: u64,
    /// Exact minimum.
    pub min: Option<u64>,
    /// Exact maximum.
    pub max: Option<u64>,
    /// Median (bucket lower bound).
    pub p50: Option<u64>,
    /// 90th percentile (bucket lower bound).
    pub p90: Option<u64>,
    /// 99th percentile (bucket lower bound).
    pub p99: Option<u64>,
    /// Non-empty `(lower_bound, count)` buckets, ascending.
    pub buckets: Vec<(u64, u64)>,
}

impl HistSnapshot {
    /// The nearest-rank `q`-quantile (`0.0..=1.0`) of the buckets: the lower
    /// bound of the bucket holding sample `max(1, ceil(q·count))`, clamped
    /// to the exact `[min, max]` range. `None` when empty.
    fn quantile(&self, q: f64) -> Option<u64> {
        let (min, max) = (self.min?, self.max?);
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for &(lb, c) in &self.buckets {
            seen += c;
            if seen >= target {
                return Some(lb.clamp(min, max));
            }
        }
        Some(max)
    }

    fn set_quantiles(&mut self) {
        self.p50 = self.quantile(0.5);
        self.p90 = self.quantile(0.9);
        self.p99 = self.quantile(0.99);
    }

    /// Folds another snapshot into this one, as if every sample behind both
    /// had been recorded into a single [`Histogram`]: bucket counts are
    /// merged by lower bound and the quantiles are recomputed from the
    /// merged buckets. Used by the sweep executor to aggregate one metric
    /// across the runs of a multi-seed sweep.
    pub fn merge(&mut self, other: &HistSnapshot) {
        if other.count == 0 {
            return;
        }
        let buckets = std::mem::take(&mut self.buckets);
        self.buckets = merge_sorted(buckets, &other.buckets, |a, b| *a += b);
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        // `None` orders below `Some`: an empty side must not win the min.
        self.min = self.min.min(other.min).or(other.min);
        self.max = self.max.max(other.max);
        self.set_quantiles();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_range_is_exact() {
        for v in 0..LINEAR {
            assert_eq!(bucket_lower_bound(bucket_index(v)), v);
        }
    }

    #[test]
    fn bucket_bounds_are_monotone_and_consistent() {
        // Every bucket's lower bound must map back to that bucket, and
        // bounds must strictly increase.
        let mut prev = None;
        for idx in 0..N_BUCKETS {
            let lb = bucket_lower_bound(idx);
            assert_eq!(bucket_index(lb), idx, "lb {lb} of bucket {idx}");
            if let Some(p) = prev {
                assert!(lb > p, "bounds not increasing at {idx}");
            }
            prev = Some(lb);
        }
    }

    #[test]
    fn edge_values_map_in_range() {
        for v in [
            0,
            1,
            15,
            16,
            17,
            1023,
            1024,
            1025,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ] {
            let idx = bucket_index(v);
            assert!(idx < N_BUCKETS, "{v} -> {idx}");
            let lb = bucket_lower_bound(idx);
            assert!(lb <= v, "{v} below its bucket bound {lb}");
            // Relative bucketing error is bounded by one sub-bucket (12.5 %).
            if v >= LINEAR {
                assert!((v - lb) as f64 / v as f64 <= 0.125 + 1e-9);
            }
        }
    }

    #[test]
    fn empty_histogram() {
        let s = Histogram::new().snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.min, None);
        assert_eq!(s.max, None);
        assert_eq!(s.quantile(0.5), None);
        assert_eq!((s.p50, s.p90, s.p99), (None, None, None));
        assert!(s.buckets.is_empty());
    }

    #[test]
    fn quantiles_of_uniform_range() {
        let mut h = Histogram::new();
        for v in 1..=1000 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        assert_eq!(s.min, Some(1));
        assert_eq!(s.max, Some(1000));
        let p50 = s.p50.unwrap();
        assert!((450..=560).contains(&p50), "p50 {p50}");
        let p99 = s.p99.unwrap();
        assert!((875..=1000).contains(&p99), "p99 {p99}");
        assert_eq!(s.quantile(0.0), Some(1));
        assert_eq!(
            s.quantile(1.0),
            Some(s.quantile(1.0).unwrap().clamp(1, 1000))
        );
    }

    #[test]
    fn single_sample_quantiles_are_exact() {
        let mut h = Histogram::new();
        h.record(777);
        let s = h.snapshot();
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(s.quantile(q), Some(777));
        }
        assert_eq!((s.p50, s.p90, s.p99), (Some(777), Some(777), Some(777)));
    }

    #[test]
    fn merge_matches_recording_everything_in_one() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut all = Histogram::new();
        for v in 0..500u64 {
            let x = v * v % 7919;
            if v % 2 == 0 {
                a.record(x);
            } else {
                b.record(x);
            }
            all.record(x);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged, all.snapshot());
    }

    #[test]
    fn snapshot_merge_with_empty_is_identity() {
        let mut h = Histogram::new();
        h.record(123);
        let mut s = h.snapshot();
        let before = s.clone();
        s.merge(&Histogram::new().snapshot());
        assert_eq!(s, before);
        let mut e = Histogram::new().snapshot();
        e.merge(&before);
        assert_eq!(e, before);
    }
}
