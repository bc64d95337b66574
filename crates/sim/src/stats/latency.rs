//! Latency recording with percentile queries.
//!
//! [`LatencyRecorder`] is a log-bucketed histogram (HDR-style): buckets grow
//! geometrically so that any recorded value is resolved to within ~1.6% of
//! its true magnitude while memory stays constant. That precision comfortably
//! supports the paper's 99.9th/99.99th-percentile comparisons.

use std::fmt;

use crate::time::SimDuration;

/// Number of linear sub-buckets per power-of-two bucket. 64 sub-buckets
/// bound relative quantile error to 1/64 ≈ 1.6%.
const SUB_BUCKETS: u64 = 64;
const SUB_BITS: u32 = 6;

/// Histogram of durations supporting mean, max and arbitrary quantiles.
///
/// # Examples
///
/// ```
/// use checkin_sim::{LatencyRecorder, SimDuration};
///
/// let mut rec = LatencyRecorder::new();
/// for us in 1..=1000u64 {
///     rec.record(SimDuration::from_micros(us));
/// }
/// let p99 = rec.quantile(0.99);
/// assert!(p99 >= SimDuration::from_micros(980) && p99 <= SimDuration::from_micros(1010));
/// ```
#[derive(Debug, Clone, Default)]
pub struct LatencyRecorder {
    buckets: Vec<u64>,
    count: u64,
    sum_nanos: u128,
    max: SimDuration,
    min: SimDuration,
}

fn bucket_index(nanos: u64) -> usize {
    if nanos < SUB_BUCKETS {
        return nanos as usize;
    }
    let msb = 63 - nanos.leading_zeros();
    let shift = msb - SUB_BITS;
    let base = (shift as u64 + 1) * SUB_BUCKETS;
    let offset = (nanos >> shift) - SUB_BUCKETS;
    (base + offset) as usize
}

fn bucket_upper_bound(index: usize) -> u64 {
    let index = index as u64;
    if index < SUB_BUCKETS {
        return index;
    }
    let shift = index / SUB_BUCKETS - 1;
    let offset = index % SUB_BUCKETS;
    (SUB_BUCKETS + offset + 1) << shift
}

impl LatencyRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        LatencyRecorder {
            buckets: Vec::new(),
            count: 0,
            sum_nanos: 0,
            max: SimDuration::ZERO,
            min: SimDuration::MAX,
        }
    }

    /// Adds one sample.
    pub fn record(&mut self, latency: SimDuration) {
        let idx = bucket_index(latency.as_nanos());
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, 0);
        }
        #[expect(
            clippy::indexing_slicing,
            reason = "the resize above makes idx < buckets.len(), and a sample must never be skipped"
        )]
        let bucket = &mut self.buckets[idx];
        *bucket += 1;
        self.count += 1;
        self.sum_nanos += latency.as_nanos() as u128;
        self.max = self.max.max(latency);
        self.min = self.min.min(latency);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean, or zero when empty.
    pub fn mean(&self) -> SimDuration {
        if self.count == 0 {
            return SimDuration::ZERO;
        }
        SimDuration::from_nanos((self.sum_nanos / self.count as u128) as u64)
    }

    /// Largest recorded sample, or zero when empty.
    pub fn max(&self) -> SimDuration {
        self.max
    }

    /// Smallest recorded sample, or zero when empty.
    pub fn min(&self) -> SimDuration {
        if self.count == 0 {
            SimDuration::ZERO
        } else {
            self.min
        }
    }

    /// Value at quantile `q` in `[0, 1]` (e.g. `0.999` for p99.9), resolved
    /// to the upper edge of its histogram bucket. Returns zero when empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> SimDuration {
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        if self.count == 0 {
            return SimDuration::ZERO;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (idx, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return SimDuration::from_nanos(bucket_upper_bound(idx).min(self.max.as_nanos()));
            }
        }
        self.max
    }

    /// Merges another recorder's samples into this one.
    pub fn merge(&mut self, other: &LatencyRecorder) {
        if other.buckets.len() > self.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (b, &n) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += n;
        }
        self.count += other.count;
        self.sum_nanos += other.sum_nanos;
        self.max = self.max.max(other.max);
        if other.count > 0 {
            self.min = self.min.min(other.min);
        }
    }

    /// True when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }
}

impl fmt::Display for LatencyRecorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={} p50={} p99={} p99.9={} p99.99={} max={}",
            self.count,
            self.mean(),
            self.quantile(0.5),
            self.quantile(0.99),
            self.quantile(0.999),
            self.quantile(0.9999),
            self.max()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_roundtrip_error_is_bounded() {
        for v in [1u64, 63, 64, 65, 1_000, 12_345, 1_000_000, u32::MAX as u64] {
            let ub = bucket_upper_bound(bucket_index(v));
            assert!(ub >= v, "upper bound {ub} below value {v}");
            assert!(
                (ub - v) as f64 <= v as f64 / 32.0 + 1.0,
                "bucket too coarse: {v} -> {ub}"
            );
        }
    }

    #[test]
    fn empty_recorder_is_zeroes() {
        let r = LatencyRecorder::new();
        assert!(r.is_empty());
        assert_eq!(r.mean(), SimDuration::ZERO);
        assert_eq!(r.quantile(0.999), SimDuration::ZERO);
        assert_eq!(r.min(), SimDuration::ZERO);
    }

    #[test]
    fn mean_and_extremes() {
        let mut r = LatencyRecorder::new();
        r.record(SimDuration::from_nanos(10));
        r.record(SimDuration::from_nanos(30));
        assert_eq!(r.mean(), SimDuration::from_nanos(20));
        assert_eq!(r.max(), SimDuration::from_nanos(30));
        assert_eq!(r.min(), SimDuration::from_nanos(10));
        assert_eq!(r.count(), 2);
    }

    #[test]
    fn quantiles_of_uniform_ramp() {
        let mut r = LatencyRecorder::new();
        for us in 1..=10_000u64 {
            r.record(SimDuration::from_micros(us));
        }
        for (q, expect_us) in [(0.5, 5_000.0), (0.9, 9_000.0), (0.999, 9_990.0)] {
            let got = r.quantile(q).as_micros_f64();
            let err = (got - expect_us).abs() / expect_us;
            assert!(err < 0.04, "q={q}: got {got}us, want ~{expect_us}us");
        }
    }

    #[test]
    fn quantile_one_is_max() {
        let mut r = LatencyRecorder::new();
        r.record(SimDuration::from_micros(3));
        r.record(SimDuration::from_micros(7));
        assert_eq!(r.quantile(1.0), SimDuration::from_micros(7));
    }

    #[test]
    fn merge_combines_samples() {
        let mut a = LatencyRecorder::new();
        let mut b = LatencyRecorder::new();
        a.record(SimDuration::from_micros(1));
        b.record(SimDuration::from_micros(100));
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.max(), SimDuration::from_micros(100));
        assert_eq!(a.min(), SimDuration::from_micros(1));
    }

    #[test]
    #[should_panic(expected = "quantile out of range")]
    fn quantile_rejects_out_of_range() {
        LatencyRecorder::new().quantile(1.5);
    }

    #[test]
    fn heavy_tail_percentiles_separate() {
        // 99% fast ops at 100us, 1% slow at 50ms: p99.9 must see the tail.
        let mut r = LatencyRecorder::new();
        for _ in 0..9_900 {
            r.record(SimDuration::from_micros(100));
        }
        for _ in 0..100 {
            r.record(SimDuration::from_millis(50));
        }
        assert!(r.quantile(0.5) < SimDuration::from_micros(110));
        assert!(r.quantile(0.999) > SimDuration::from_millis(45));
    }
}
