//! The Agrawal–Swami one-pass algorithm (`[AS95]`).
//!
//! "The algorithm partitions the range of the values into `k` intervals and
//! counts the values in each interval.  The boundaries of intervals are
//! determined on-the-fly and are continuously adjusted as data is read from
//! disk."  Its limitation — the one the paper stresses — is that it provides
//! *no upper bound on the error rate*.
//!
//! This implementation keeps `k` equal-width intervals over the observed key
//! range.  When a key falls outside the current range, the range is grown to
//! cover it and existing counts are re-binned into the new intervals by
//! proportional (uniform-within-interval) redistribution — the on-the-fly
//! boundary adjustment of the original algorithm.  Quantile estimates locate
//! the interval containing the target rank and interpolate linearly inside
//! it.

use crate::StreamingEstimator;

/// Equal-width adaptive interval (histogram) estimator.
#[derive(Debug, Clone)]
pub struct AdaptiveIntervalEstimator {
    /// Interval counts, `counts.len() == k`.
    counts: Vec<f64>,
    /// Inclusive lower edge of the histogram range.
    lo: u64,
    /// Exclusive upper edge of the histogram range (`hi > lo` once started).
    hi: u64,
    seen: u64,
    k: usize,
}

impl AdaptiveIntervalEstimator {
    /// Create an estimator with `k` intervals.
    ///
    /// # Panics
    /// Panics if `k < 2`.
    pub fn new(k: usize) -> Self {
        assert!(k >= 2, "at least two intervals are required");
        Self {
            counts: vec![0.0; k],
            lo: 0,
            hi: 0,
            seen: 0,
            k,
        }
    }

    fn width(&self) -> f64 {
        (self.hi - self.lo) as f64 / self.k as f64
    }

    fn bucket_of(&self, key: u64) -> usize {
        debug_assert!(key >= self.lo && key < self.hi);
        let idx = ((key - self.lo) as f64 / self.width()) as usize;
        idx.min(self.k - 1)
    }

    /// Grow the range to `[new_lo, new_hi)` and redistribute existing counts
    /// proportionally into the new equal-width intervals.
    fn rescale(&mut self, new_lo: u64, new_hi: u64) {
        debug_assert!(new_lo <= self.lo && new_hi >= self.hi && new_hi > new_lo);
        let old_counts = std::mem::replace(&mut self.counts, vec![0.0; self.k]);
        let old_lo = self.lo as f64;
        let old_width = self.width();
        self.lo = new_lo;
        self.hi = new_hi;
        let new_width = self.width();
        if old_width <= 0.0 {
            // Degenerate old range (single point): drop everything into the
            // bucket containing the old point.
            let total: f64 = old_counts.iter().sum();
            let idx = (((old_lo - new_lo as f64) / new_width) as usize).min(self.k - 1);
            self.counts[idx] += total;
            return;
        }
        for (i, c) in old_counts.into_iter().enumerate() {
            if c == 0.0 {
                continue;
            }
            // Old interval i spans [a, b); spread its count over the new
            // intervals it overlaps, proportionally to the overlap length.
            let a = old_lo + i as f64 * old_width;
            let b = a + old_width;
            let first = (((a - new_lo as f64) / new_width) as usize).min(self.k - 1);
            let last = (((b - new_lo as f64) / new_width).ceil() as usize).clamp(first + 1, self.k);
            for j in first..last {
                let ja = new_lo as f64 + j as f64 * new_width;
                let jb = ja + new_width;
                let overlap = (b.min(jb) - a.max(ja)).max(0.0);
                self.counts[j] += c * overlap / old_width;
            }
        }
    }
}

impl StreamingEstimator for AdaptiveIntervalEstimator {
    fn observe(&mut self, key: u64) {
        if self.seen == 0 {
            self.lo = key;
            self.hi = key + 1;
        } else if key < self.lo || key >= self.hi {
            // Grow geometrically so rescaling stays O(k log(range)).
            let mut new_lo = self.lo.min(key);
            let mut new_hi = self.hi.max(key + 1);
            let span = new_hi - new_lo;
            let current = self.hi - self.lo;
            if span < current * 2 {
                let extra = current * 2 - span;
                new_lo = new_lo.saturating_sub(extra / 2);
                new_hi = new_hi.saturating_add(extra - extra / 2);
            }
            self.rescale(new_lo, new_hi);
        }
        self.seen += 1;
        let b = self.bucket_of(key);
        self.counts[b] += 1.0;
    }

    fn estimate(&self, phi: f64) -> Option<u64> {
        if self.seen == 0 || !(0.0..=1.0).contains(&phi) {
            return None;
        }
        let target = phi * self.seen as f64;
        let mut acc = 0.0;
        for (i, &c) in self.counts.iter().enumerate() {
            if acc + c >= target || i == self.k - 1 {
                // Linear interpolation inside interval i.
                let into = if c > 0.0 {
                    ((target - acc) / c).clamp(0.0, 1.0)
                } else {
                    0.0
                };
                let a = self.lo as f64 + i as f64 * self.width();
                return Some((a + into * self.width()).round() as u64);
            }
            acc += c;
        }
        None
    }

    fn observed(&self) -> u64 {
        self.seen
    }

    fn memory_points(&self) -> usize {
        // k counters + 2 boundaries; counted in "points" like the paper does
        // when it equalises memory across algorithms.
        self.k + 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exactish_for_uniform_data() {
        let data: Vec<u64> = (0..100_000u64)
            .map(|i| i.wrapping_mul(2654435761) % 1_000_000)
            .collect();
        let mut est = AdaptiveIntervalEstimator::new(1000);
        est.observe_all(&data);
        let mut sorted = data;
        sorted.sort_unstable();
        for i in 1..10 {
            let phi = i as f64 / 10.0;
            let truth = sorted[((phi * sorted.len() as f64) as usize).min(sorted.len() - 1)] as f64;
            let got = est.estimate(phi).unwrap() as f64;
            assert!(
                (got - truth).abs() / 1_000_000.0 < 0.02,
                "phi {phi}: {got} vs {truth}"
            );
        }
    }

    #[test]
    fn adapts_when_range_grows() {
        let mut est = AdaptiveIntervalEstimator::new(100);
        // First a narrow range, then a much wider one.
        est.observe_all(&(1000..2000u64).collect::<Vec<_>>());
        est.observe_all(&(1_000_000..1_010_000u64).collect::<Vec<_>>());
        assert_eq!(est.observed(), 11_000);
        // Median of combined data is in the upper block.
        let got = est.estimate(0.5).unwrap();
        assert!(
            got >= 900_000,
            "median estimate {got} should be in the large block"
        );
        // 5th percentile is in the small block.
        let got = est.estimate(0.05).unwrap();
        assert!(
            got < 10_000,
            "5th percentile {got} should be in the small block"
        );
    }

    #[test]
    fn skewed_data_median_is_reasonable() {
        // Zipf-ish skew: many small values, few huge ones.
        let mut data = Vec::new();
        for i in 0..50_000u64 {
            data.push(i % 100);
        }
        for i in 0..1_000u64 {
            data.push(1_000_000 + i);
        }
        let mut est = AdaptiveIntervalEstimator::new(2000);
        est.observe_all(&data);
        let got = est.estimate(0.5).unwrap();
        // True median is ~50; with coarse intervals over a huge range the
        // estimate degrades but must stay well below the outlier block —
        // this documents AS95's lack of a hard bound.
        assert!(got < 600_000, "median estimate {got}");
    }

    #[test]
    fn single_value_stream() {
        let mut est = AdaptiveIntervalEstimator::new(10);
        est.observe_all(&[7; 100]);
        assert_eq!(est.estimate(0.5), Some(7));
    }

    #[test]
    fn empty_returns_none_and_invalid_phi_rejected() {
        let est = AdaptiveIntervalEstimator::new(10);
        assert_eq!(est.estimate(0.5), None);
        let mut est = AdaptiveIntervalEstimator::new(10);
        est.observe(1);
        assert_eq!(est.estimate(2.0), None);
    }

    #[test]
    fn memory_points_is_k_plus_boundaries() {
        assert_eq!(AdaptiveIntervalEstimator::new(100).memory_points(), 102);
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn k_below_two_panics() {
        AdaptiveIntervalEstimator::new(1);
    }
}
