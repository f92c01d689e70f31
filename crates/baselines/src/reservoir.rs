//! Random sampling baseline: reservoir sampling (Vitter's Algorithm R).
//!
//! The classical sampling estimator the paper contrasts with (`[Coc77]`):
//! draw a uniform random sample of fixed size, sort it, and read quantile
//! estimates off the sorted sample.  One pass, O(sample) memory, but only
//! probabilistic accuracy — no deterministic bound, which is the axis on
//! which OPAQ wins.

use crate::StreamingEstimator;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Uniform random sample of fixed capacity over a stream.
#[derive(Debug, Clone)]
pub struct ReservoirSampler {
    capacity: usize,
    reservoir: Vec<u64>,
    seen: u64,
    rng: SmallRng,
}

impl ReservoirSampler {
    /// Create a sampler retaining at most `capacity` keys.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize, seed: u64) -> Self {
        assert!(capacity > 0, "reservoir capacity must be positive");
        Self {
            capacity,
            reservoir: Vec::with_capacity(capacity),
            seen: 0,
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// The retained sample (unsorted).
    pub fn sample(&self) -> &[u64] {
        &self.reservoir
    }
}

impl StreamingEstimator for ReservoirSampler {
    fn observe(&mut self, key: u64) {
        self.seen += 1;
        if self.reservoir.len() < self.capacity {
            self.reservoir.push(key);
        } else {
            // Algorithm R: replace a random slot with probability capacity/seen.
            let j = self.rng.gen_range(0..self.seen);
            if (j as usize) < self.capacity {
                self.reservoir[j as usize] = key;
            }
        }
    }

    fn estimate(&self, phi: f64) -> Option<u64> {
        if self.reservoir.is_empty() || !(0.0..=1.0).contains(&phi) {
            return None;
        }
        let mut sorted = self.reservoir.clone();
        sorted.sort_unstable();
        let rank = ((phi * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        Some(sorted[rank - 1])
    }

    fn observed(&self) -> u64 {
        self.seen
    }

    fn memory_points(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_everything_when_under_capacity() {
        let mut r = ReservoirSampler::new(100, 1);
        r.observe_all(&[5, 3, 8]);
        assert_eq!(r.sample().len(), 3);
        assert_eq!(r.estimate(0.5), Some(5));
        assert_eq!(r.observed(), 3);
    }

    #[test]
    fn never_exceeds_capacity() {
        let mut r = ReservoirSampler::new(50, 2);
        r.observe_all(&(0..10_000u64).collect::<Vec<_>>());
        assert_eq!(r.sample().len(), 50);
        assert_eq!(r.memory_points(), 50);
    }

    #[test]
    fn sample_is_roughly_uniform_over_the_stream() {
        // With a large stream, the mean of the sample should approximate the
        // stream mean.
        let mut r = ReservoirSampler::new(2000, 3);
        let n = 200_000u64;
        r.observe_all(&(0..n).collect::<Vec<_>>());
        let mean = r.sample().iter().map(|&x| x as f64).sum::<f64>() / r.sample().len() as f64;
        let expected = (n - 1) as f64 / 2.0;
        assert!(
            (mean - expected).abs() < expected * 0.1,
            "mean {mean} vs {expected}"
        );
    }

    #[test]
    fn median_estimate_close_for_uniform_stream() {
        let mut r = ReservoirSampler::new(5000, 4);
        let data: Vec<u64> = (0..100_000u64)
            .map(|i| i.wrapping_mul(48271) % 1_000_003)
            .collect();
        r.observe_all(&data);
        let mut sorted = data;
        sorted.sort_unstable();
        let truth = sorted[sorted.len() / 2] as f64;
        let got = r.estimate(0.5).unwrap() as f64;
        assert!((got - truth).abs() / 1_000_003.0 < 0.03);
    }

    #[test]
    fn empty_estimator_returns_none() {
        let r = ReservoirSampler::new(10, 0);
        assert_eq!(r.estimate(0.5), None);
    }

    #[test]
    fn invalid_phi_returns_none() {
        let mut r = ReservoirSampler::new(10, 0);
        r.observe(1);
        assert_eq!(r.estimate(1.5), None);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_panics() {
        ReservoirSampler::new(0, 0);
    }

    #[test]
    fn deterministic_for_a_fixed_seed() {
        let mk = || {
            let mut r = ReservoirSampler::new(100, 7);
            r.observe_all(&(0..10_000u64).collect::<Vec<_>>());
            r.estimate(0.25)
        };
        assert_eq!(mk(), mk());
    }
}
