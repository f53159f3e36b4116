//! Statistics: latency histograms.
//!
//! The paper reports 99th-percentile latency/throughput curves (Figs. 4
//! and 6), per-vCPU work (Fig. 5), and latency medians/tails (§7.4). This
//! module provides the recording machinery: an HDR-style log-bucketed
//! histogram with bounded relative error, and its percentile summary.

use crate::time::SimTime;

/// Number of linear sub-buckets per power-of-two bucket. 32 sub-buckets
/// bound the relative quantile error at ~3%, plenty for reproducing
/// microsecond-scale tail latencies.
const SUB_BUCKETS: usize = 32;
const SUB_BITS: u32 = 5; // log2(SUB_BUCKETS)

/// A log-bucketed histogram of `u64` values (we use nanoseconds).
///
/// Values are bucketed with ~3% relative resolution across the full `u64`
/// range, like HdrHistogram. Recording is O(1); quantiles are O(buckets).
///
/// # Examples
///
/// ```
/// use wave_sim::stats::Histogram;
/// let mut h = Histogram::new();
/// for v in 1..=1000u64 {
///     h.record(v);
/// }
/// let p50 = h.quantile(0.5);
/// assert!((450..=550).contains(&p50));
/// ```
#[derive(Debug, Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
    min: u64,
    max: u64,
    sum: u128,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        // 64 powers of two, SUB_BUCKETS each.
        Histogram {
            counts: vec![0; 64 * SUB_BUCKETS],
            total: 0,
            min: u64::MAX,
            max: 0,
            sum: 0,
        }
    }

    fn index_for(value: u64) -> usize {
        if value < SUB_BUCKETS as u64 {
            return value as usize;
        }
        let msb = 63 - value.leading_zeros();
        let shift = msb - SUB_BITS;
        let sub = (value >> shift) as usize & (SUB_BUCKETS - 1);
        ((msb - SUB_BITS + 1) as usize) * SUB_BUCKETS + sub
    }

    fn value_for(index: usize) -> u64 {
        let bucket = index / SUB_BUCKETS;
        let sub = (index % SUB_BUCKETS) as u64;
        if bucket == 0 {
            return sub;
        }
        let shift = (bucket - 1) as u32;
        // Top of the sub-bucket range (conservative upper bound).
        ((SUB_BUCKETS as u64 + sub + 1) << shift) - 1
    }

    /// Records one value.
    pub fn record(&mut self, value: u64) {
        self.counts[Self::index_for(value)] += 1;
        self.total += 1;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.sum += value as u128;
    }

    /// Records a [`SimTime`] duration (in nanoseconds).
    pub fn record_time(&mut self, value: SimTime) {
        self.record(value.as_ns());
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Number of recorded values at or below `limit` (SLO attainment
    /// counting), at bucket granularity — the same ~3% relative error
    /// as [`quantile`](Self::quantile); the bucket containing `limit`
    /// counts as attained in full.
    pub fn count_at_or_below(&self, limit: SimTime) -> u64 {
        let idx = Self::index_for(limit.as_ns());
        self.counts[..=idx].iter().sum()
    }

    /// Exact minimum recorded value, or 0 if empty.
    pub fn min(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.min
        }
    }

    /// Exact maximum recorded value, or 0 if empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Exact arithmetic mean, or 0.0 if empty.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Value at quantile `q` in `[0, 1]`, with ~3% relative error.
    /// Returns 0 for an empty histogram.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        if self.total == 0 {
            return 0;
        }
        let target = ((q * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Self::value_for(i).min(self.max).max(self.min);
            }
        }
        self.max
    }

    /// p50/p90/p99/p99.9 summary.
    pub fn summary(&self) -> Summary {
        Summary {
            count: self.total,
            mean_ns: self.mean(),
            p50: SimTime::from_ns(self.quantile(0.50)),
            p90: SimTime::from_ns(self.quantile(0.90)),
            p99: SimTime::from_ns(self.quantile(0.99)),
            p999: SimTime::from_ns(self.quantile(0.999)),
            max: SimTime::from_ns(self.max()),
        }
    }

    /// Probes the standard quantile ladder ([`QUANTILE_LADDER`]) for
    /// CDF-style reporting: `(quantile, value)` pairs, ascending.
    /// Empty histograms yield an empty ladder.
    pub fn ladder(&self) -> Vec<(f64, SimTime)> {
        if self.total == 0 {
            return Vec::new();
        }
        QUANTILE_LADDER
            .iter()
            .map(|&q| (q, SimTime::from_ns(self.quantile(q))))
            .collect()
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum += other.sum;
        if other.total > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }
}

/// The standard quantile ladder used for CDF-style latency reporting
/// (the `wave-lab` report helper renders it as an ASCII CDF).
pub const QUANTILE_LADDER: [f64; 8] = [0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99, 0.999];

/// Percentile summary of a [`Histogram`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: u64,
    /// Mean in nanoseconds.
    pub mean_ns: f64,
    /// Median.
    pub p50: SimTime,
    /// 90th percentile.
    pub p90: SimTime,
    /// 99th percentile (the paper's tail-latency metric).
    pub p99: SimTime,
    /// 99.9th percentile.
    pub p999: SimTime,
    /// Maximum.
    pub max: SimTime,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_exact_small_values() {
        let mut h = Histogram::new();
        for v in 0..32u64 {
            h.record(v);
        }
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 31);
        assert_eq!(h.count(), 32);
        assert_eq!(h.quantile(0.0), 0);
    }

    #[test]
    fn histogram_quantile_relative_error() {
        let mut h = Histogram::new();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        for &(q, expect) in &[(0.5, 50_000.0), (0.9, 90_000.0), (0.99, 99_000.0)] {
            let got = h.quantile(q) as f64;
            assert!(
                (got - expect).abs() / expect < 0.04,
                "q={q} got={got} expect={expect}"
            );
        }
    }

    #[test]
    fn histogram_mean_exact() {
        let mut h = Histogram::new();
        h.record(10);
        h.record(20);
        h.record(60);
        assert!((h.mean() - 30.0).abs() < 1e-9);
    }

    #[test]
    fn histogram_merge() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(100);
        b.record(200);
        b.record(300);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.max(), 300);
        assert_eq!(a.min(), 100);
        assert!((a.mean() - 200.0).abs() < 1e-9);
    }

    #[test]
    fn empty_histogram_is_sane() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.99), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0);
    }

    #[test]
    fn summary_fields() {
        let mut h = Histogram::new();
        for _ in 0..99 {
            h.record(1_000);
        }
        h.record(100_000);
        let s = h.summary();
        assert_eq!(s.count, 100);
        assert!(s.p50.as_ns() < 1_100);
        assert!(s.p999.as_ns() > 90_000);
    }
}
