//! A lock-free log2-bucket histogram.
//!
//! Threads sharing one [`Histogram`] record into it with only atomic
//! adds, and its bucket layout is the same on every platform and every
//! run, so a histogram of deterministic values (instruction counts,
//! sizes) snapshots identically across runs.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of buckets in a [`Histogram`]: bucket 0 holds exact zeros,
/// bucket `k` (1 ≤ k ≤ 64) holds values in `[2^(k-1), 2^k)`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A fixed-bucket log2 histogram of `u64` samples.
///
/// Bucket boundaries are powers of two, so recording is a
/// `leading_zeros` and one atomic add — cheap enough for per-access
/// use — and the bucket layout is identical on every platform and
/// every run (no dynamic rebucketing).
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// The bucket index a value lands in.
    #[must_use]
    pub fn bucket_of(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            64 - v.leading_zeros() as usize
        }
    }

    /// The `[low, high)` range of bucket `i` (`high` is `None` for the
    /// final, unbounded-above bucket).
    ///
    /// # Panics
    ///
    /// Panics if `i >= HISTOGRAM_BUCKETS`.
    #[must_use]
    pub fn bucket_bounds(i: usize) -> (u64, Option<u64>) {
        assert!(i < HISTOGRAM_BUCKETS, "bucket index out of range");
        match i {
            0 => (0, Some(1)),
            64 => (1 << 63, None),
            _ => (1 << (i - 1), Some(1 << i)),
        }
    }

    /// Records one sample.
    pub fn record(&self, v: u64) {
        self.buckets[Self::bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Count in bucket `i`.
    #[must_use]
    pub fn bucket(&self, i: usize) -> u64 {
        self.buckets[i].load(Ordering::Relaxed)
    }

    /// Total number of samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Sum of all samples.
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// An estimate of the `q`-quantile (`0.0 ≤ q ≤ 1.0`) of the
    /// recorded samples, or `None` if the histogram is empty.
    ///
    /// The rank is `ceil(q · count)` (clamped to `1..=count`), located
    /// by walking the log2 buckets; within a bucket holding `n`
    /// samples the estimate is the midpoint of the rank's equal-width
    /// sub-interval, so a single-sample bucket reports its midpoint
    /// and estimates are monotone in `q`. The final unbounded bucket
    /// reports its lower bound. Because bucket tallies are exact, the
    /// estimate is always within the true sample's bucket — a ≤ 2×
    /// relative error, constant memory.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return None;
        }
        #[allow(
            clippy::cast_sign_loss,
            clippy::cast_precision_loss,
            clippy::cast_possible_truncation
        )]
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, &n) in counts.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if seen + n >= rank {
                let pos = rank - seen; // 1-based position within this bucket
                let (low, high) = Self::bucket_bounds(i);
                return Some(match high {
                    // Midpoint of the pos-th of n equal sub-intervals.
                    Some(high) => low + (high - low) * (2 * pos - 1) / (2 * n),
                    None => low,
                });
            }
            seen += n;
        }
        unreachable!("rank {rank} exceeds total {total}");
    }

    /// The non-empty buckets as `(index, count)`, lowest first.
    #[must_use]
    pub fn nonzero_buckets(&self) -> Vec<(usize, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let n = b.load(Ordering::Relaxed);
                (n > 0).then_some((i, n))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_of_empty_histogram_is_none() {
        let h = Histogram::default();
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.quantile(0.0), None);
        assert_eq!(h.quantile(1.0), None);
    }

    #[test]
    fn quantile_single_bucket_interpolates_midpoints() {
        let h = Histogram::default();
        // Four samples, all in bucket 7 ([64, 128)).
        for v in [64, 80, 100, 127] {
            h.record(v);
        }
        // Sub-interval width 64/4 = 16; midpoints 72, 88, 104, 120.
        assert_eq!(h.quantile(0.25), Some(72));
        assert_eq!(h.quantile(0.5), Some(88));
        assert_eq!(h.quantile(0.75), Some(104));
        assert_eq!(h.quantile(1.0), Some(120));
        // q = 0 clamps to rank 1 (the lowest sub-interval).
        assert_eq!(h.quantile(0.0), Some(72));
        // Every estimate stays inside the bucket's bounds.
        for q in [0.0, 0.1, 0.5, 0.9, 1.0] {
            let v = h.quantile(q).unwrap();
            assert!((64..128).contains(&v), "estimate {v} escaped bucket");
        }
    }

    #[test]
    fn quantile_respects_log2_bucket_boundaries() {
        let h = Histogram::default();
        // One sample per bucket, exactly on power-of-two boundaries:
        // 1 → bucket 1, 2 → bucket 2, 4 → bucket 3, 8 → bucket 4.
        for v in [1u64, 2, 4, 8] {
            h.record(v);
        }
        // Rank k lands in the k-th bucket; single-sample buckets
        // report their midpoint.
        assert_eq!(h.quantile(0.25), Some(1)); // bucket [1,2): midpoint 1
        assert_eq!(h.quantile(0.5), Some(3)); // bucket [2,4): midpoint 3
        assert_eq!(h.quantile(0.75), Some(6)); // bucket [4,8): midpoint 6
        assert_eq!(h.quantile(1.0), Some(12)); // bucket [8,16): midpoint 12
    }

    #[test]
    fn quantile_handles_zero_and_unbounded_buckets() {
        let h = Histogram::default();
        h.record(0);
        h.record(0);
        assert_eq!(h.quantile(0.5), Some(0));
        h.record(u64::MAX);
        // Rank 3 of 3 lands in the final unbounded bucket → lower bound.
        assert_eq!(h.quantile(1.0), Some(1 << 63));
    }

    #[test]
    fn quantile_is_monotone_in_q() {
        let h = Histogram::default();
        for v in [0u64, 3, 3, 17, 900, 900, 4096, 1 << 40] {
            h.record(v);
        }
        let mut last = 0;
        for i in 0..=20 {
            let v = h.quantile(f64::from(i) / 20.0).unwrap();
            assert!(v >= last, "quantile decreased at q={}", f64::from(i) / 20.0);
            last = v;
        }
    }
}
