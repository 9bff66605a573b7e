//! Log2-bucketed latency histograms.
//!
//! 64 power-of-two buckets cover the whole `u64` nanosecond range with a
//! fixed-size, allocation-free footprint: bucket `i` holds values whose
//! bit length is `i` (i.e. `v` in `[2^(i-1), 2^i)`), so relative error is
//! bounded by 2x — plenty for the "is a round microseconds or
//! milliseconds" questions the report answers, and cheap enough to record
//! on every round.

/// Number of buckets: one per possible `u64` bit length (0..=63, with the
/// top bucket absorbing everything that would need 64 bits).
pub const BUCKETS: usize = 64;

/// A fixed-footprint log2 histogram over `u64` samples (nanoseconds by
/// convention). `Default` is the empty histogram.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: [u64; BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: [0; BUCKETS],
        }
    }
}

/// Bucket index of a sample: its bit length, clamped to the top bucket.
fn bucket_of(v: u64) -> usize {
    ((u64::BITS - v.leading_zeros()) as usize).min(BUCKETS - 1)
}

/// Inclusive upper bound of bucket `i` (`u64::MAX` for the top bucket).
pub fn bucket_bound(i: usize) -> u64 {
    if i >= BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

impl Histogram {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one sample.
    pub fn record(&mut self, v: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.buckets[bucket_of(v)] += 1;
    }

    /// Fold another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample, or 0 when empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample, or 0 when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean, or 0 when empty.
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Approximate quantile `q` in `[0, 1]`: the inclusive upper bound of
    /// the first bucket whose cumulative count reaches `q * count`.
    /// Returns 0 for an empty histogram. Accurate to within one power of
    /// two, clamped to the observed `max`.
    pub fn approx_quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let threshold = (q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64;
        let threshold = threshold.max(1);
        let mut cumulative = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            cumulative += b;
            if cumulative >= threshold {
                return bucket_bound(i).min(self.max);
            }
        }
        self.max
    }

    /// Raw bucket counts (index = bit length of the sample).
    pub fn buckets(&self) -> &[u64; BUCKETS] {
        &self.buckets
    }

    /// Index of the highest non-empty bucket, or `None` when empty — the
    /// exposition uses it to truncate the `le` ladder.
    pub fn highest_bucket(&self) -> Option<usize> {
        self.buckets.iter().rposition(|&b| b > 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
        // Every sample is <= its bucket's inclusive bound and > the
        // previous bucket's bound.
        for v in [0u64, 1, 2, 3, 7, 8, 1000, 1 << 40, u64::MAX] {
            let i = bucket_of(v);
            assert!(v <= bucket_bound(i), "{v} > bound of bucket {i}");
            if i > 0 {
                assert!(v > bucket_bound(i - 1));
            }
        }
    }

    #[test]
    fn record_tracks_count_sum_min_max() {
        let mut h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!((h.min(), h.max(), h.mean()), (0, 0, 0));
        for v in [10u64, 20, 30] {
            h.record(v);
        }
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 60);
        assert_eq!(h.min(), 10);
        assert_eq!(h.max(), 30);
        assert_eq!(h.mean(), 20);
    }

    #[test]
    fn merge_is_sum_of_parts() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut whole = Histogram::new();
        for v in [1u64, 100, 10_000] {
            a.record(v);
            whole.record(v);
        }
        for v in [5u64, 50_000] {
            b.record(v);
            whole.record(v);
        }
        a.merge(&b);
        assert_eq!(a, whole);
    }

    #[test]
    fn quantiles_bracket_the_data() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let p50 = h.approx_quantile(0.5);
        let p99 = h.approx_quantile(0.99);
        assert!((500..=1023).contains(&p50), "p50 = {p50}");
        assert!((990..=1023).contains(&p99), "p99 = {p99}");
        assert_eq!(h.approx_quantile(1.0), 1000); // clamped to max
    }
}
