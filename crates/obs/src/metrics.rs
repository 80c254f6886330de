//! Always-on metric primitives: monotonic counters and fixed-bucket
//! log-scale histograms.
//!
//! Unlike spans (gated on [`enabled`](crate::enabled)), these are plain
//! relaxed atomics meant for *cold-path* sites — one increment per batch
//! fan-out, per service request. Never put them on per-tuple or
//! per-chunk-item paths; that is what gated spans and counters are for.

use std::sync::atomic::{AtomicU64, Ordering};

/// A monotonic counter (relaxed atomic).
#[derive(Debug)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A zeroed counter, usable in `static` items.
    pub const fn new() -> Counter {
        Counter { value: AtomicU64::new(0) }
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

impl Default for Counter {
    fn default() -> Counter {
        Counter::new()
    }
}

/// Number of histogram buckets: bucket `i > 0` covers values with bit length
/// `i`, i.e. `[2^(i-1), 2^i)`; bucket `0` holds zeros. 64-bit values with
/// bit length ≥ 63 land in the last bucket.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// A fixed-bucket log-scale histogram (power-of-two bucket bounds), plus
/// exact count/sum/min/max so snapshots can report a true mean and true
/// extremes (bucket bounds alone only give order-of-magnitude quantiles).
/// Lock-free, usable in `static` items.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

/// Index of the bucket covering `value`.
#[inline]
fn bucket_index(value: u64) -> usize {
    let bits = (64 - value.leading_zeros()) as usize;
    bits.min(HISTOGRAM_BUCKETS - 1)
}

/// Inclusive upper bound of bucket `index` (saturating for the last bucket).
pub fn bucket_bound(index: usize) -> u64 {
    if index == 0 {
        0
    } else if index >= 63 {
        u64::MAX
    } else {
        (1u64 << index) - 1
    }
}

impl Histogram {
    /// An empty histogram, usable in `static` items.
    pub const fn new() -> Histogram {
        Histogram {
            buckets: [const { AtomicU64::new(0) }; HISTOGRAM_BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Records one observation.
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// A point-in-time copy of the histogram.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count.load(Ordering::Relaxed);
        HistogramSnapshot {
            buckets: self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: if count == 0 { 0 } else { self.min.load(Ordering::Relaxed) },
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

/// A point-in-time copy of a [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts (see [`bucket_bound`] for bounds).
    pub buckets: Vec<u64>,
    /// Total number of observations.
    pub count: u64,
    /// Exact sum of all observed values.
    pub sum: u64,
    /// Exact smallest observed value (0 when empty).
    pub min: u64,
    /// Exact largest observed value (0 when empty).
    pub max: u64,
}

impl HistogramSnapshot {
    /// Mean of the observed values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound of the bucket containing the `q`-quantile (`0.0 ..= 1.0`)
    /// of the observations; 0 when empty. Log-scale buckets make this an
    /// order-of-magnitude estimate, which is what latency gates need.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (index, bucket) in self.buckets.iter().enumerate() {
            seen += bucket;
            if seen >= rank {
                return bucket_bound(index);
            }
        }
        bucket_bound(HISTOGRAM_BUCKETS - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_add_and_max() {
        static C: Counter = Counter::new();
        C.add(3);
        C.add(4);
        assert_eq!(C.get(), 7);
    }

    #[test]
    fn histogram_buckets_are_log_scale() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
        assert_eq!(bucket_bound(0), 0);
        assert_eq!(bucket_bound(2), 3);
        assert_eq!(bucket_bound(63), u64::MAX);
    }

    #[test]
    fn histogram_records_and_estimates() {
        let h = Histogram::new();
        for v in [0u64, 1, 2, 3, 100, 1000] {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 6);
        assert_eq!(snap.sum, 1106);
        assert!((snap.mean() - 1106.0 / 6.0).abs() < 1e-9);
        assert_eq!(snap.quantile(0.0), 0);
        assert!(snap.quantile(1.0) >= 1000);
        assert_eq!(snap.buckets.iter().sum::<u64>(), 6);
    }

    #[test]
    fn histogram_tracks_exact_min_and_max() {
        let h = Histogram::new();
        let empty = h.snapshot();
        assert_eq!((empty.min, empty.max), (0, 0));
        for v in [17u64, 5, 900, 42] {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.min, 5);
        assert_eq!(snap.max, 900);
    }
}
