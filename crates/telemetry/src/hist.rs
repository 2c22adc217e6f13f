//! The metric primitives: atomic [`Counter`]s and [`Gauge`]s for
//! lock-free hot paths, and the log2-bucketed [`Histogram`] every
//! latency/size distribution aggregates into.
//!
//! All counts **saturate** instead of wrapping: a telemetry layer must
//! never turn an overflow into a nonsense report (or a panic) on a
//! hot path.

use std::sync::atomic::{AtomicU64, Ordering};

/// A monotonically increasing atomic counter with saturating addition.
///
/// # Examples
///
/// ```
/// use zendoo_telemetry::Counter;
///
/// let hits = Counter::default();
/// hits.add(2);
/// hits.add(1);
/// assert_eq!(hits.get(), 3);
/// ```
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter starting at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta`, saturating at `u64::MAX`.
    pub fn add(&self, delta: u64) {
        // fetch_update never fails with a total closure; the CAS loop
        // is the price of saturation (plain fetch_add wraps).
        let _ = self
            .0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_add(delta))
            });
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-write-wins atomic gauge (queue depths, pool sizes).
///
/// # Examples
///
/// ```
/// use zendoo_telemetry::Gauge;
///
/// let depth = Gauge::default();
/// depth.set(7);
/// assert_eq!(depth.get(), 7);
/// ```
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// A gauge starting at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the current value.
    pub fn set(&self, value: u64) {
        self.0.store(value, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of histogram buckets: bucket 0 holds exactly the value `0`,
/// bucket `b ≥ 1` holds the values in `[2^(b-1), 2^b)` (bucket 64's
/// upper edge saturates at `u64::MAX`).
pub const BUCKETS: usize = 65;

/// A log2-bucketed histogram of `u64` samples (nanoseconds, sizes,
/// depths) with exact `count`/`sum`/`min`/`max` and bucket-resolution
/// quantile estimation.
///
/// Buckets are powers of two, so any [`Histogram::quantile`] estimate
/// is within the containing bucket — off by at most a factor of two —
/// while recording costs one increment. Histograms merge
/// commutatively ([`Histogram::merge`]), which is what lets per-shard
/// recorders fold into one aggregate in any (fixed) order. All counts
/// saturate.
///
/// # Examples
///
/// ```
/// use zendoo_telemetry::Histogram;
///
/// let mut h = Histogram::new();
/// for v in [1u64, 2, 3, 100] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 4);
/// assert_eq!(h.min(), 1);
/// assert_eq!(h.max(), 100);
/// // p50 lands in the bucket holding the true median.
/// let p50 = h.quantile(0.50);
/// assert!((2..=3).contains(&p50), "p50 estimate {p50}");
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    counts: [u64; BUCKETS],
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

/// The bucket index of `value`: 0 for 0, else `floor(log2(value)) + 1`.
fn bucket_of(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros() as usize
    }
}

/// The inclusive `[lo, hi]` value range of bucket `b`.
fn bucket_range(b: usize) -> (u64, u64) {
    if b == 0 {
        (0, 0)
    } else {
        let lo = 1u64 << (b - 1);
        let hi = if b >= 64 { u64::MAX } else { (1u64 << b) - 1 };
        (lo, hi)
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            counts: [0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one sample (saturating counts/sum).
    pub fn record(&mut self, value: u64) {
        self.counts[bucket_of(value)] = self.counts[bucket_of(value)].saturating_add(1);
        self.count = self.count.saturating_add(1);
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Folds `other` into `self`. Merging is commutative and
    /// associative (up to saturation), so recording two streams into
    /// separate histograms and merging equals recording both into one.
    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts.iter()) {
            *mine = mine.saturating_add(*theirs);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
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

    /// Estimates the `q`-quantile (`q` in `[0, 1]`): finds the bucket
    /// containing the rank-`q` sample, interpolates linearly inside it,
    /// and clamps to the observed `[min, max]`. The estimate is always
    /// within the containing bucket's `[lo, hi]` range — bucket error,
    /// at most a factor of two.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the target sample, 0-based.
        let rank = (q * (self.count.saturating_sub(1)) as f64).round() as u64;
        let mut seen = 0u64;
        for (b, &n) in self.counts.iter().enumerate() {
            if n == 0 {
                continue;
            }
            let next = seen.saturating_add(n);
            if rank < next {
                let (lo, hi) = bucket_range(b);
                // Position of the target inside this bucket.
                let within = (rank - seen) as f64 / n as f64;
                let estimate = lo + ((hi - lo) as f64 * within) as u64;
                return estimate.clamp(self.min(), self.max.max(self.min()));
            }
            seen = next;
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_log2() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_range(64).1, u64::MAX);
    }

    #[test]
    fn single_value_quantiles_are_exact() {
        let mut h = Histogram::new();
        h.record(42);
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 42);
        }
    }

    #[test]
    fn quantiles_are_monotone_and_bounded() {
        let mut h = Histogram::new();
        for v in 0..1000u64 {
            h.record(v * 7);
        }
        let p50 = h.quantile(0.50);
        let p90 = h.quantile(0.90);
        let p99 = h.quantile(0.99);
        assert!(p50 <= p90 && p90 <= p99);
        assert!(p99 <= h.max());
        assert!(h.min() <= p50);
    }

    #[test]
    fn counter_saturates() {
        let c = Counter::new();
        c.add(u64::MAX - 1);
        c.add(10);
        assert_eq!(c.get(), u64::MAX);
    }

    #[test]
    fn histogram_sum_saturates() {
        let mut h = Histogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX);
        assert_eq!(h.sum(), u64::MAX);
        assert_eq!(h.count(), 2);
    }

    #[test]
    fn merge_equals_single_stream() {
        let mut all = Histogram::new();
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for v in 0..100u64 {
            all.record(v * 13);
            if v % 2 == 0 {
                a.record(v * 13);
            } else {
                b.record(v * 13);
            }
        }
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged, all);
        // Commutative.
        let mut swapped = b;
        swapped.merge(&a);
        assert_eq!(swapped, all);
    }
}
