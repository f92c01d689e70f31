//! Shared harness code for the experiment binaries.
//!
//! Every table and figure of the paper's evaluation has a dedicated binary in
//! `src/bin/` (see DESIGN.md §4 for the index).  The binaries share the
//! workload construction, error-rate computation and output formatting that
//! lives here.
//!
//! ## Scaling
//!
//! The paper's experiments use 1–10 million keys sequentially and up to
//! 32 million in the parallel runs.  Full-size runs are perfectly feasible
//! but take minutes; to keep `cargo run` and CI turnarounds short every
//! binary multiplies the paper's sizes by a scale factor, default **0.1**,
//! controllable with the `OPAQ_SCALE` environment variable (use
//! `OPAQ_SCALE=1.0` to reproduce the paper's exact sizes).  Error-rate
//! results are unaffected by the scale because both the sample size `s` and
//! the error metrics are relative quantities; EXPERIMENTS.md records runs at
//! full scale.

#![warn(missing_docs)]
#![deny(unsafe_code)]

use opaq_core::{OpaqConfig, OpaqEstimator, QuantileEstimate};
use opaq_datagen::DatasetSpec;
use opaq_metrics::{compute_error_rates, GroundTruth, QuantileBoundsView, RelativeErrorRates};
use opaq_storage::MemRunStore;

/// The scale factor applied to the paper's dataset sizes (`OPAQ_SCALE`,
/// default 0.1, clamped to `[0.001, 10.0]`).
pub fn scale() -> f64 {
    std::env::var("OPAQ_SCALE")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(0.1)
        .clamp(0.001, 10.0)
}

/// Scale a paper dataset size by [`scale`], keeping at least 10 000 keys so
/// the run/sample structure stays meaningful.
pub fn scaled(n_paper: u64) -> u64 {
    ((n_paper as f64 * scale()) as u64).max(10_000)
}

/// The number of dectiles reported in the paper's accuracy tables.
pub const DECTILES: u64 = 10;

/// The paper's run length for the sequential experiments: data sets are read
/// in runs of 100k elements (scaled together with the data).
pub fn paper_run_length(n: u64) -> u64 {
    (n / 10).max(1000)
}

/// Outcome of one OPAQ accuracy run.
#[derive(Debug, Clone)]
pub struct AccuracyRun {
    /// The error rates against ground truth.
    pub rates: RelativeErrorRates,
    /// The raw estimates (one per dectile).
    pub estimates: Vec<QuantileEstimate<u64>>,
}

/// Generate `spec`, run sequential OPAQ with run length `m` and sample size
/// `s`, and compute the three error rates over the dectiles.
pub fn run_sequential_accuracy(spec: &DatasetSpec, m: u64, s: u64) -> AccuracyRun {
    let data = spec.generate();
    let store = MemRunStore::new(data.clone(), m);
    let config = OpaqConfig::builder()
        .run_length(m)
        .sample_size(s.min(m))
        .build()
        .expect("valid experiment configuration");
    let sketch = OpaqEstimator::new(config)
        .build_sketch(&store)
        .expect("sample phase succeeds");
    let estimates = sketch
        .estimate_q_quantiles(DECTILES)
        .expect("quantile phase succeeds");
    let truth = GroundTruth::new(&data);
    let bounds: Vec<QuantileBoundsView> = estimates
        .iter()
        .map(|e| QuantileBoundsView {
            phi: e.phi,
            lower: e.lower,
            upper: e.upper,
        })
        .collect();
    let rates = compute_error_rates(&truth, &bounds);
    AccuracyRun { rates, estimates }
}

/// Compute error rates for an arbitrary set of per-dectile bounds against a
/// dataset (used for the parallel and baseline experiments).
pub fn error_rates_for_bounds(data: &[u64], bounds: &[QuantileBoundsView]) -> RelativeErrorRates {
    let truth = GroundTruth::new(data);
    compute_error_rates(&truth, bounds)
}

/// The dectile labels used by the paper's tables ("10%", …, "90%").
pub fn dectile_labels() -> Vec<String> {
    (1..DECTILES).map(|i| format!("{}0%", i)).collect()
}

/// Convert quantile estimates into the metrics crate's view type.
pub fn to_bounds_view(estimates: &[QuantileEstimate<u64>]) -> Vec<QuantileBoundsView> {
    estimates
        .iter()
        .map(|e| QuantileBoundsView {
            phi: e.phi,
            lower: e.lower,
            upper: e.upper,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use opaq_datagen::DatasetSpec;

    #[test]
    fn scale_is_clamped() {
        // Whatever the environment says, the value must be inside the clamp.
        let s = scale();
        assert!((0.001..=10.0).contains(&s));
        assert!(scaled(1_000_000) >= 10_000);
    }

    /// Hold one run to the paper's deterministic bounds: RER_A ≤ 2/s·100
    /// on every dectile and RER_L, RER_N ≤ q/s·100 with q = 10.
    fn assert_paper_bounds(run: &AccuracyRun, s: u64, label: &str) {
        assert_eq!(run.estimates.len(), 9, "{label}");
        assert_eq!(run.rates.rer_a_per_quantile.len(), 9, "{label}");
        let q = DECTILES as f64;
        let (rer_a_bound, rer_n_bound) = (200.0 / s as f64, q / s as f64 * 100.0);
        for (d, rer_a) in run.rates.rer_a_per_quantile.iter().enumerate() {
            assert!(
                *rer_a <= rer_a_bound + 1e-9,
                "{label}: dectile {d} RER_A {rer_a} > {rer_a_bound}"
            );
        }
        assert!(
            run.rates.rer_l <= rer_n_bound + 1e-9,
            "{label}: RER_L {} > {rer_n_bound}",
            run.rates.rer_l
        );
        assert!(
            run.rates.rer_n <= rer_n_bound + 1e-9,
            "{label}: RER_N {} > {rer_n_bound}",
            run.rates.rer_n
        );
    }

    /// The grid of Tables 3 and 4 (same seeds, s ∈ {250, 500, 1000},
    /// uniform and Zipf) at n = 20,000, m = 2,000, and the size axis of
    /// Tables 5 and 6 (n ∈ {20k, 50k, 100k}, m = n/10, s = 1000, the
    /// binaries' seeds), each held to [`assert_paper_bounds`].
    #[test]
    fn sequential_accuracy_run_produces_nine_dectiles() {
        for spec in [
            DatasetSpec::paper_uniform(20_000, 42),
            DatasetSpec::paper_zipf(20_000, 43),
        ] {
            for s in [250u64, 500, 1000] {
                let run = run_sequential_accuracy(&spec, 2_000, s);
                assert_paper_bounds(&run, s, &format!("{:?} s={s}", spec.distribution));
            }
        }
        for n in [20_000u64, 50_000, 100_000] {
            for spec in [
                DatasetSpec::paper_uniform(n, 42),
                DatasetSpec::paper_zipf(n, 43),
            ] {
                let run = run_sequential_accuracy(&spec, paper_run_length(n), 1_000);
                assert_paper_bounds(&run, 1_000, &format!("{:?} n={n}", spec.distribution));
            }
        }
    }

    #[test]
    fn dectile_labels_match_paper() {
        let labels = dectile_labels();
        assert_eq!(labels.len(), 9);
        assert_eq!(labels[0], "10%");
        assert_eq!(labels[8], "90%");
    }

    #[test]
    fn paper_run_length_is_a_tenth() {
        assert_eq!(paper_run_length(1_000_000), 100_000);
        assert_eq!(paper_run_length(5_000), 1000);
    }
}
