//! The comparators of the OPAQ paper's Table 7.
//!
//! Table 7 compares OPAQ's accuracy (RER_A) against the one-pass algorithm
//! of Agrawal & Swami (`[AS95]`) and plain random sampling under an equal
//! memory budget.  To run that comparison ourselves — rather than quoting
//! numbers — this crate implements both:
//!
//! * [`ReservoirSampler`] — uniform random sampling without replacement
//!   (Vitter's Algorithm R), the `[Coc77]`-style sampling estimator.
//! * [`AdaptiveIntervalEstimator`] — the `[AS95]` one-pass algorithm:
//!   partition the key range into `k` intervals whose boundaries are adjusted
//!   on the fly, count values per interval, interpolate inside the interval
//!   that straddles the target rank.
//!
//! Both implement [`StreamingEstimator`] so the comparison harness can drive
//! them uniformly, one key at a time, in a single pass.  Exact ground truth
//! is `opaq_metrics::GroundTruth` and `opaq_core::exact_quantile`.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod adaptive_intervals;
pub mod reservoir;

pub use adaptive_intervals::AdaptiveIntervalEstimator;
pub use reservoir::ReservoirSampler;

/// A one-pass (streaming) quantile estimator over `u64` keys.
///
/// The paper's comparison (Table 7) gives every algorithm the same memory
/// budget, expressed in retained points; [`StreamingEstimator::memory_points`]
/// reports that footprint, and `opaq_bench`'s Table 7 test checks that each
/// comparator holds exactly the budget.
pub trait StreamingEstimator {
    /// Observe one key.
    fn observe(&mut self, key: u64);

    /// Observe a whole slice of keys.
    fn observe_all(&mut self, keys: &[u64]) {
        for &k in keys {
            self.observe(k);
        }
    }

    /// Estimate the φ-quantile of everything observed so far.
    ///
    /// Returns `None` when nothing has been observed (or the estimator is
    /// otherwise unable to answer).
    fn estimate(&self, phi: f64) -> Option<u64>;

    /// Number of keys observed so far.
    fn observed(&self) -> u64;

    /// Approximate memory footprint in retained points (samples,
    /// interval boundaries + counters, …).
    fn memory_points(&self) -> usize;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every estimator should produce a sane median for uniform data.
    #[test]
    fn all_estimators_bound_the_median_of_uniform_data() {
        let data: Vec<u64> = (0..100_000u64)
            .map(|i| i.wrapping_mul(2654435761) % 1_000_000)
            .collect();
        let mut sorted = data.clone();
        sorted.sort_unstable();
        let truth = sorted[sorted.len() / 2];

        let mut estimators: Vec<Box<dyn StreamingEstimator>> = vec![
            Box::new(ReservoirSampler::new(3000, 42)),
            Box::new(AdaptiveIntervalEstimator::new(1500)),
        ];
        for (i, est) in estimators.iter_mut().enumerate() {
            est.observe_all(&data);
            let got = est.estimate(0.5).expect("estimate available");
            let err = (got as f64 - truth as f64).abs() / 1_000_000.0;
            assert!(
                err < 0.05,
                "estimator {i}: median estimate {got} too far from {truth} (relative error {err})"
            );
            assert_eq!(est.observed(), data.len() as u64);
            assert!(est.memory_points() > 0);
        }
    }
}
