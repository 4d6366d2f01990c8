//! Fixed-size log-bucketed latency histogram (HDR-style).
//!
//! Span latencies range from tens of nanoseconds (a prefiltered substep) to
//! tens of seconds (a whole sweep), so a linear histogram is hopeless and a
//! growable one would allocate on the recording path. [`LatencyHistogram`]
//! instead uses the classic HDR layout: exact buckets below
//! `LINEAR_BUCKETS` (32) ns, then `SUB_BUCKETS` (32) sub-buckets per power
//! of two, giving a bounded relative quantization error of `1/SUB_BUCKETS`
//! (~3%) across the full `u64` nanosecond range in a fixed `BUCKETS * 8`
//! bytes.
//!
//! Recording is two integer ops and an add — no allocation, no branching on
//! magnitude beyond one `leading_zeros`. Percentiles are read by walking the
//! cumulative counts and reporting the recorded extremes at the ends (so
//! `percentile(0)` is the true minimum and `percentile(100)` the true
//! maximum, not bucket bounds).

/// log2 of [`SUB_BUCKETS`].
const SUB_BITS: u32 = 5;
/// Sub-buckets per power of two; bounds relative error to 1/32 ≈ 3.1%.
const SUB_BUCKETS: u64 = 1 << SUB_BITS;
/// Values below this are counted exactly (one bucket per nanosecond).
const LINEAR_BUCKETS: u64 = SUB_BUCKETS;
/// Total bucket count covering the whole `u64` range:
/// 32 linear + 32 per octave for octaves 5..=63 (59 octaves).
const BUCKETS: usize = (LINEAR_BUCKETS + (64 - SUB_BITS as u64) * SUB_BUCKETS) as usize;

/// The histogram's relative bucket width (`1/SUB_BUCKETS` ≈ 3.1%): any two
/// samples within this relative distance can land in the same bucket, so a
/// reported percentile is only trustworthy to within this fraction.
/// Consumers comparing percentile metrics (e.g. the perf gate) should treat
/// deltas below this as quantization noise, not signal.
pub const RELATIVE_BUCKET_WIDTH: f64 = 1.0 / SUB_BUCKETS as f64;

/// A fixed-size log-bucketed histogram of `u64` nanosecond samples.
#[derive(Clone)]
pub struct LatencyHistogram {
    counts: Box<[u64; BUCKETS]>,
    count: u64,
    min: u64,
    max: u64,
}

impl std::fmt::Debug for LatencyHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LatencyHistogram")
            .field("count", &self.count)
            .field("min", &self.min)
            .field("max", &self.max)
            .finish()
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram (one heap allocation of `BUCKETS * 8` bytes).
    #[expect(
        clippy::unreachable,
        reason = "length is the compile-time BUCKETS constant, conversion cannot fail"
    )]
    pub fn new() -> Self {
        Self {
            counts: vec![0u64; BUCKETS]
                .into_boxed_slice()
                .try_into()
                .unwrap_or_else(|_| unreachable!("boxed slice has BUCKETS elements")),
            count: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// The bucket index for `v`. Exact below [`LINEAR_BUCKETS`], then
    /// `SUB_BUCKETS` buckets per power of two.
    #[inline]
    fn bucket(v: u64) -> usize {
        if v < LINEAR_BUCKETS {
            v as usize
        } else {
            let exp = 63 - v.leading_zeros(); // floor(log2 v), >= SUB_BITS
            let shift = exp - SUB_BITS;
            let sub = (v >> shift) & (SUB_BUCKETS - 1); // top SUB_BITS bits after the leading 1
            (LINEAR_BUCKETS + (exp - SUB_BITS) as u64 * SUB_BUCKETS + sub) as usize
        }
    }

    /// The inclusive upper bound of bucket `idx` (the value reported for
    /// samples that landed in it).
    #[inline]
    fn bucket_upper(idx: usize) -> u64 {
        let idx = idx as u64;
        if idx < LINEAR_BUCKETS {
            idx
        } else {
            let exp = SUB_BITS + ((idx - LINEAR_BUCKETS) / SUB_BUCKETS) as u32;
            let sub = (idx - LINEAR_BUCKETS) % SUB_BUCKETS;
            let shift = exp - SUB_BITS;
            // Lower bound is (2^SUB_BITS + sub) << shift; the bucket spans
            // 2^shift values.
            let lower = (SUB_BUCKETS + sub) << shift;
            lower + ((1u64 << shift) - 1)
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[Self::bucket(v)] += 1;
        self.count += 1;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Smallest recorded sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The value at quantile `q` in `[0, 1]`: the smallest recorded bucket
    /// upper bound such that at least `ceil(q * count)` samples are at or
    /// below it. Returns the exact recorded min/max at the extremes and 0
    /// for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // The extremes are tracked exactly; report them rather than bucket
        // bounds so min/max survive quantization.
        if q == 0.0 {
            return self.min;
        }
        if q == 1.0 {
            return self.max;
        }
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            seen += c;
            if seen >= rank {
                // Clamp to the observed extremes so q=0 / q=1 are exact and
                // a single-bucket histogram never reports past its max.
                return Self::bucket_upper(idx).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Adds every sample of `other` into `self`.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        if other.count == 0 {
            return;
        }
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_reports_zero() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.quantile(0.5), 0);
    }

    #[test]
    fn linear_region_is_exact() {
        let mut h = LatencyHistogram::new();
        for v in 0..32u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 32);
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(0.5), 15);
        assert_eq!(h.quantile(1.0), 31);
    }

    #[test]
    fn bucket_bounds_are_consistent() {
        // Every value maps to a bucket whose upper bound is >= the value and
        // within the relative error budget.
        for &v in &[
            0u64,
            1,
            31,
            32,
            33,
            63,
            64,
            100,
            1_000,
            12_345,
            1_000_000,
            987_654_321,
            u64::MAX / 2,
            u64::MAX,
        ] {
            let idx = LatencyHistogram::bucket(v);
            let upper = LatencyHistogram::bucket_upper(idx);
            assert!(upper >= v, "upper({idx}) = {upper} < v = {v}");
            // Relative error bound: bucket width / value <= 1/SUB_BUCKETS.
            let err = (upper - v) as f64 / (v.max(1)) as f64;
            assert!(err <= 1.0 / SUB_BUCKETS as f64, "v={v} err={err}");
        }
    }

    #[test]
    fn bucket_index_is_monotone_and_in_range() {
        let mut prev = 0usize;
        let mut v = 1u64;
        while v < u64::MAX / 2 {
            let idx = LatencyHistogram::bucket(v);
            assert!(idx >= prev, "bucket not monotone at {v}");
            assert!(idx < BUCKETS);
            prev = idx;
            v = v.saturating_mul(3) / 2 + 1;
        }
        assert!(LatencyHistogram::bucket(u64::MAX) < BUCKETS);
    }

    #[test]
    fn quantiles_track_known_distribution() {
        let mut h = LatencyHistogram::new();
        // 1..=1000 microseconds in ns: p50 ~ 500_000, p99 ~ 990_000.
        for v in 1..=1000u64 {
            h.record(v * 1_000);
        }
        let p50 = h.quantile(0.50) as f64;
        let p99 = h.quantile(0.99) as f64;
        assert!((p50 / 500_000.0 - 1.0).abs() < 0.05, "p50 = {p50}");
        assert!((p99 / 990_000.0 - 1.0).abs() < 0.05, "p99 = {p99}");
        assert_eq!(h.quantile(0.0), 1_000);
        assert_eq!(h.quantile(1.0), 1_000_000);
        assert_eq!(h.min(), 1_000);
        assert_eq!(h.max(), 1_000_000);
    }

    #[test]
    fn merge_equals_combined_recording() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut combined = LatencyHistogram::new();
        for v in 0..500u64 {
            a.record(v * 7 + 3);
            combined.record(v * 7 + 3);
        }
        for v in 0..300u64 {
            b.record(v * 1_001);
            combined.record(v * 1_001);
        }
        a.merge(&b);
        assert_eq!(a.count(), combined.count());
        assert_eq!(a.min(), combined.min());
        assert_eq!(a.max(), combined.max());
        for q in [0.0, 0.1, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(a.quantile(q), combined.quantile(q), "q={q}");
        }
        // Merging an empty histogram is a no-op.
        let before = a.quantile(0.5);
        a.merge(&LatencyHistogram::new());
        assert_eq!(a.quantile(0.5), before);
    }

    #[test]
    fn single_sample_pins_all_quantiles() {
        let mut h = LatencyHistogram::new();
        h.record(123_456);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 123_456);
        }
    }
}
