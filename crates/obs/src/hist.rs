//! Log-bucketed latency histogram with fixed memory.
//!
//! The layout follows HDR histograms: values below 32 ns get exact unit
//! buckets; above that, each power-of-two range is split into 32 sub-buckets,
//! so the relative quantization error is bounded by 1/32 ≈ 3.2%. The whole
//! `u64` nanosecond range fits in [`BUCKETS`] = 1920 slots (≈ 15 KiB), which
//! is why a histogram can sit on every packet-path thread without growing.
//!
//! Count, sum, min, and max are tracked exactly alongside the buckets, so
//! `mean()` is exact and `percentile(0.0)`/`percentile(1.0)` return the true
//! extremes; only interior percentiles are quantized.
//!
//! This module is on harmonia-lint's panic-freedom list: bucket access goes
//! through `get`/`get_mut`, never indexing.

use harmonia_types::Duration;

/// Precision bits: each power-of-two range is split into `2^5 = 32`
/// sub-buckets.
const PRECISION: u32 = 5;

/// Sub-buckets per power-of-two range.
const SUB: usize = 1 << PRECISION;

/// Total bucket count covering the full `u64` nanosecond range:
/// 32 unit buckets + 59 ranges × 32 sub-buckets.
pub const BUCKETS: usize = 60 * SUB;

/// Bucket index for a nanosecond value. Total order is preserved:
/// `a <= b` implies `index(a) <= index(b)`.
pub(crate) fn bucket_index(v: u64) -> usize {
    if v < SUB as u64 {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros();
        let range = (msb - PRECISION + 1) as usize;
        let sub = ((v >> (msb - PRECISION)) as usize) & (SUB - 1);
        range * SUB + sub
    }
}

/// Inverse of [`bucket_index`]: the `(lower_bound, width)` of bucket `b`.
/// Every value `v` with `bucket_index(v) == b` satisfies
/// `lower <= v < lower + width`.
fn bucket_bounds(b: usize) -> (u64, u64) {
    if b < SUB {
        (b as u64, 1)
    } else {
        let range = (b / SUB) as u32;
        let sub = (b % SUB) as u64;
        let msb = range + PRECISION - 1;
        let width = 1u64 << (msb - PRECISION);
        let lower = (1u64 << msb) + sub * width;
        (lower, width)
    }
}

/// A mergeable fixed-memory latency histogram (nanosecond domain).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LogHistogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram::new()
    }
}

impl LogHistogram {
    /// An empty histogram. Allocates its bucket array once, up front; the
    /// record path never allocates.
    pub fn new() -> Self {
        LogHistogram {
            buckets: vec![0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Record one duration.
    pub fn record(&mut self, d: Duration) {
        self.record_ns(d.nanos());
    }

    /// Record one raw nanosecond value.
    pub fn record_ns(&mut self, v: u64) {
        self.count += 1;
        self.sum += u128::from(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        if let Some(b) = self.buckets.get_mut(bucket_index(v)) {
            *b += 1;
        }
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact arithmetic mean.
    pub fn mean(&self) -> Duration {
        if self.count == 0 {
            return Duration::ZERO;
        }
        Duration::from_nanos((self.sum / u128::from(self.count)) as u64)
    }

    /// Exact smallest recorded sample ([`Duration::ZERO`] when empty).
    pub fn min(&self) -> Duration {
        if self.count == 0 {
            Duration::ZERO
        } else {
            Duration::from_nanos(self.min)
        }
    }

    /// Exact largest recorded sample.
    pub fn max(&self) -> Duration {
        Duration::from_nanos(self.max)
    }

    /// The `p`-th percentile (0.0 ..= 1.0). The extremes are exact; interior
    /// percentiles return the midpoint of the bucket holding that rank,
    /// clamped into `[min, max]` (≤ 3.2% relative error).
    pub fn percentile(&self, p: f64) -> Duration {
        if self.count == 0 {
            return Duration::ZERO;
        }
        if p <= 0.0 {
            return self.min();
        }
        if p >= 1.0 {
            return self.max();
        }
        // Rank of the sample we want, matching the sorted-sample convention
        // `round((n - 1) * p)` used by the exact histogram it replaced.
        let rank = ((self.count as f64 - 1.0) * p).round() as u64;
        let mut seen = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if n > 0 && seen > rank {
                let (lower, width) = bucket_bounds(b);
                let mid = lower + width / 2;
                return Duration::from_nanos(mid.clamp(self.min, self.max));
            }
        }
        self.max()
    }

    /// Rebuild a histogram from atomically captured parts (the recorder's
    /// shard drain). `buckets` shorter than [`BUCKETS`] is padded with zeros.
    pub(crate) fn from_raw(
        mut buckets: Vec<u64>,
        count: u64,
        sum: u128,
        min: u64,
        max: u64,
    ) -> Self {
        buckets.resize(BUCKETS, 0);
        LogHistogram {
            buckets,
            count,
            sum,
            min,
            max,
        }
    }

    /// Fold another histogram into this one.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// The fixed summary (count, mean, p50/p99/p999, max) used by snapshots.
    pub fn summary(&self) -> HistSummary {
        HistSummary {
            count: self.count,
            mean_ns: self.mean().nanos(),
            p50_ns: self.percentile(0.5).nanos(),
            p99_ns: self.percentile(0.99).nanos(),
            p999_ns: self.percentile(0.999).nanos(),
            max_ns: self.max().nanos(),
        }
    }
}

/// Point-in-time percentile summary of one [`LogHistogram`], as embedded in
/// [`crate::ObsSnapshot`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HistSummary {
    /// Number of samples.
    pub count: u64,
    /// Exact mean, nanoseconds.
    pub mean_ns: u64,
    /// Median, nanoseconds (quantized).
    pub p50_ns: u64,
    /// 99th percentile, nanoseconds (quantized).
    pub p99_ns: u64,
    /// 99.9th percentile, nanoseconds (quantized).
    pub p999_ns: u64,
    /// Exact maximum, nanoseconds.
    pub max_ns: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_is_monotone_and_in_range() {
        let mut vals: Vec<u64> = (0..64)
            .flat_map(|s| [0u64, 1, 3].map(|off| (1u64 << s).saturating_add(off)))
            .collect();
        vals.sort_unstable();
        let mut prev = 0usize;
        for v in vals {
            let b = bucket_index(v);
            assert!(b < BUCKETS, "v={v} b={b}");
            assert!(b >= prev, "index not monotone at v={v}");
            prev = b;
        }
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(31), 31);
        assert_eq!(bucket_index(32), 32);
        assert_eq!(bucket_index(63), 63);
        assert_eq!(bucket_index(64), 64);
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn bounds_invert_index() {
        for v in [0u64, 1, 31, 32, 33, 63, 64, 100, 1 << 20, u64::MAX / 3] {
            let b = bucket_index(v);
            let (lower, width) = bucket_bounds(b);
            assert!(lower <= v && v < lower.saturating_add(width), "v={v}");
        }
    }

    #[test]
    fn uniform_ramp_stats() {
        let mut h = LogHistogram::new();
        for us in 1..=100u64 {
            h.record(Duration::from_micros(us));
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.mean(), Duration::from_nanos(50_500));
        assert_eq!(h.max(), Duration::from_micros(100));
        assert_eq!(h.percentile(0.0), Duration::from_micros(1));
        assert_eq!(h.percentile(1.0), Duration::from_micros(100));
        let p50 = h.percentile(0.5);
        assert!(
            p50 >= Duration::from_micros(48) && p50 <= Duration::from_micros(52),
            "p50={p50:?}"
        );
    }

    #[test]
    fn relative_error_bounded() {
        let mut h = LogHistogram::new();
        let v = 123_456_789u64;
        for _ in 0..10 {
            h.record_ns(v);
        }
        let got = h.percentile(0.5).nanos() as f64;
        let err = (got - v as f64).abs() / v as f64;
        assert!(err <= 1.0 / 32.0, "err={err}");
    }

    #[test]
    fn merge_matches_combined_recording() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        let mut both = LogHistogram::new();
        for v in 0..500u64 {
            a.record_ns(v * 7);
            both.record_ns(v * 7);
        }
        for v in 0..300u64 {
            b.record_ns(v * 1311);
            both.record_ns(v * 1311);
        }
        a.merge(&b);
        assert_eq!(a, both);
    }

    #[test]
    fn empty_is_zero() {
        let h = LogHistogram::new();
        assert_eq!(h.mean(), Duration::ZERO);
        assert_eq!(h.min(), Duration::ZERO);
        assert_eq!(h.percentile(0.99), Duration::ZERO);
        assert_eq!(h.summary(), HistSummary::default());
    }
}
