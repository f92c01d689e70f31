//! Property-based tests for the baseline estimators: sanity invariants that
//! must hold for any input stream.

use opaq_baselines::{AdaptiveIntervalEstimator, ReservoirSampler, StreamingEstimator};
use proptest::prelude::*;

fn estimators() -> Vec<Box<dyn StreamingEstimator>> {
    vec![
        Box::new(ReservoirSampler::new(256, 1)),
        Box::new(AdaptiveIntervalEstimator::new(128)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every estimator's answer stays within the observed min/max (except the
    /// interval-interpolating ones, which may only overshoot by one cell) and
    /// the observation count is exact.
    #[test]
    fn estimates_stay_within_the_observed_range(
        data in proptest::collection::vec(0u64..1_000_000, 1..2_000),
        phi_percent in 1u64..100,
    ) {
        let phi = phi_percent as f64 / 100.0;
        let min = *data.iter().min().unwrap();
        let max = *data.iter().max().unwrap();
        let span = (max - min).max(1);
        for (i, mut est) in estimators().into_iter().enumerate() {
            est.observe_all(&data);
            prop_assert_eq!(est.observed(), data.len() as u64, "estimator {}", i);
            let got = est.estimate(phi).expect("estimate must exist after observations");
            // Allow interpolating estimators one cell of slack on both sides.
            let slack = span / 16 + 1;
            prop_assert!(
                got + slack >= min && got <= max + slack,
                "estimator {}: estimate {} outside [{}, {}]", i, got, min, max
            );
        }
    }

    /// The reservoir never holds more than its capacity, no matter how long
    /// the stream is, and it is deterministic for a fixed seed.
    #[test]
    fn reservoir_capacity_and_determinism(
        data in proptest::collection::vec(any::<u64>(), 1..3_000),
        capacity in 1usize..300,
    ) {
        let run = |seed: u64| {
            let mut r = ReservoirSampler::new(capacity, seed);
            r.observe_all(&data);
            (r.sample().len(), r.estimate(0.5))
        };
        let (len_a, est_a) = run(7);
        let (len_b, est_b) = run(7);
        prop_assert!(len_a <= capacity);
        prop_assert_eq!(len_a, data.len().min(capacity));
        prop_assert_eq!((len_a, est_a), (len_b, est_b));
    }
}
