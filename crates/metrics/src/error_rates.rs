//! The paper's three relative error rates (§2.4, Figure 2).

use crate::GroundTruth;
use serde::{Deserialize, Serialize};

/// The estimated bounds for one quantile, as seen by the metrics layer.
///
/// Estimators in other crates have richer result types; the metrics crate
/// only needs the two bounding values, so experiments convert into this
/// minimal view.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QuantileBoundsView {
    /// Quantile fraction φ in `(0, 1)`.
    pub phi: f64,
    /// Estimated lower bound `e_l` (a value from the dataset's domain).
    pub lower: u64,
    /// Estimated upper bound `e_u`.
    pub upper: u64,
}

/// The three error rates for one estimator run over `q`-quantiles.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RelativeErrorRates {
    /// Per-quantile RER_A values (percent), in φ order (`1/q … (q−1)/q`).
    pub rer_a_per_quantile: Vec<f64>,
    /// RER_L (percent): maximum over quantile gaps.
    pub rer_l: f64,
    /// RER_N (percent): maximum over quantiles.
    pub rer_n: f64,
}

impl RelativeErrorRates {
    /// The maximum per-quantile RER_A (useful as a single summary number).
    pub fn rer_a_max(&self) -> f64 {
        self.rer_a_per_quantile.iter().copied().fold(0.0, f64::max)
    }
}

/// A full error report: the estimated bounds plus the derived error rates.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ErrorReport {
    /// The bounds the estimator produced.
    pub bounds: Vec<QuantileBoundsView>,
    /// The derived error rates.
    pub rates: RelativeErrorRates,
}

/// Compute all three error rates from ground truth and estimated bounds.
///
/// `bounds` must contain one entry per quantile in increasing φ order; for
/// the paper's dectile experiments that is nine entries with
/// `φ = 0.1, 0.2, …, 0.9` (i.e. `q = bounds.len() + 1`).
///
/// # Panics
/// Panics if `bounds` is empty, if any `lower > upper`, or if the φ values
/// are not strictly increasing inside `(0, 1)`.
pub fn compute_error_rates(
    truth: &GroundTruth,
    bounds: &[QuantileBoundsView],
) -> RelativeErrorRates {
    assert!(
        !bounds.is_empty(),
        "at least one quantile bound is required"
    );
    for b in bounds {
        assert!(
            b.lower <= b.upper,
            "lower bound {} exceeds upper bound {}",
            b.lower,
            b.upper
        );
        assert!(
            b.phi > 0.0 && b.phi < 1.0,
            "phi {} must be inside (0, 1)",
            b.phi
        );
    }
    for pair in bounds.windows(2) {
        assert!(
            pair[0].phi < pair[1].phi,
            "phi values must be strictly increasing"
        );
    }

    let n = truth.n() as f64;
    let q = bounds.len() as u64 + 1;

    // --- RER_A: per-quantile (Ne - Nt)/n * 100 ------------------------------
    let rer_a_per_quantile: Vec<f64> = bounds
        .iter()
        .map(|b| {
            let ne = truth.count_in_closed_range(b.lower, b.upper) as f64;
            let true_value = truth.quantile_value(b.phi);
            let nt = truth.count_eq(true_value) as f64;
            // Duplicates of the exact quantile value are "free": the interval
            // cannot help containing them, so the paper subtracts them.
            ((ne - nt).max(0.0) / n) * 100.0
        })
        .collect();

    // --- RER_L: successive-gap distortion -----------------------------------
    // N_i  = elements between true i-th and (i+1)-th quantiles,
    // NL_i = elements between estimated lower bounds of i-th and (i+1)-th,
    // NU_i = same for upper bounds.  Gaps are measured in rank space.
    let mut rer_l = 0.0f64;
    for w in bounds.windows(2) {
        let (a, b) = (&w[0], &w[1]);
        let ni = rank_gap(
            truth,
            truth.quantile_value(a.phi),
            truth.quantile_value(b.phi),
        );
        let nli = rank_gap(truth, a.lower, b.lower);
        let nui = rank_gap(truth, a.upper, b.upper);
        if ni > 0.0 {
            rer_l = rer_l.max((ni - nli).abs() / ni * 100.0);
            rer_l = rer_l.max((ni - nui).abs() / ni * 100.0);
        }
    }

    // --- RER_N: per-quantile displacement normalised by n/q -----------------
    let per_quantile_mass = n / q as f64;
    let mut rer_n = 0.0f64;
    for b in bounds {
        let true_value = truth.quantile_value(b.phi);
        let dli = rank_gap(truth, b.lower, true_value);
        let dui = rank_gap(truth, true_value, b.upper);
        rer_n = rer_n.max(dli / per_quantile_mass * 100.0);
        rer_n = rer_n.max(dui / per_quantile_mass * 100.0);
    }

    RelativeErrorRates {
        rer_a_per_quantile,
        rer_l,
        rer_n,
    }
}

/// Number of elements separating two values, measured as the difference of
/// their lower ranks (symmetric: the order of the arguments does not matter).
fn rank_gap(truth: &GroundTruth, a: u64, b: u64) -> f64 {
    let ra = truth.rank_lt(a) as f64;
    let rb = truth.rank_lt(b) as f64;
    (ra - rb).abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform_truth(n: u64) -> GroundTruth {
        GroundTruth::from_sorted((1..=n).collect())
    }

    #[test]
    fn perfect_estimates_have_zero_error() {
        let truth = uniform_truth(1000);
        let bounds: Vec<QuantileBoundsView> = (1..10)
            .map(|i| {
                let v = truth.quantile_value(i as f64 / 10.0);
                QuantileBoundsView {
                    phi: i as f64 / 10.0,
                    lower: v,
                    upper: v,
                }
            })
            .collect();
        let rates = compute_error_rates(&truth, &bounds);
        assert!(rates.rer_a_max() < 1e-9, "{rates:?}");
        assert_eq!(rates.rer_l, 0.0);
        assert_eq!(rates.rer_n, 0.0);
    }

    #[test]
    fn wide_bounds_increase_rer_a() {
        let truth = uniform_truth(1000);
        // A +-10 element window around each true dectile: Ne ~ 21, Nt = 1.
        let bounds: Vec<QuantileBoundsView> = (1..10)
            .map(|i| {
                let v = truth.quantile_value(i as f64 / 10.0);
                QuantileBoundsView {
                    phi: i as f64 / 10.0,
                    lower: v - 10,
                    upper: v + 10,
                }
            })
            .collect();
        let rates = compute_error_rates(&truth, &bounds);
        // (21 - 1)/1000 * 100 = 2.0 for every dectile.
        for &a in &rates.rer_a_per_quantile {
            assert!((a - 2.0).abs() < 1e-9, "{a}");
        }
        // Displacement of 10 elements against n/q = 100 -> 10%.
        assert!((rates.rer_n - 10.0).abs() < 1e-9, "{}", rates.rer_n);
    }

    #[test]
    fn shifted_bounds_affect_rer_l() {
        let truth = uniform_truth(1000);
        // Lower bounds shifted so that the gap between successive lower
        // bounds is 80 instead of 100 for one pair.
        let mk = |phi: f64, lower: u64, upper: u64| QuantileBoundsView { phi, lower, upper };
        let bounds = vec![
            mk(0.1, 100, 100),
            mk(0.2, 180, 200), // gap from 100 to 180 = 80 (vs true 100)
            mk(0.3, 300, 300),
        ];
        let rates = compute_error_rates(&truth, &bounds);
        assert!(rates.rer_l >= 20.0 - 1e-9, "{}", rates.rer_l);
    }

    #[test]
    fn duplicates_of_exact_quantile_are_not_charged() {
        // 100 copies of each value 1..=10; true median value is 5.
        let mut data = Vec::new();
        for v in 1..=10u64 {
            data.extend(std::iter::repeat_n(v, 100));
        }
        let truth = GroundTruth::new(&data);
        let median = truth.quantile_value(0.5);
        let bounds = vec![QuantileBoundsView {
            phi: 0.5,
            lower: median,
            upper: median,
        }];
        let rates = compute_error_rates(&truth, &bounds);
        // Ne = 100 (all copies of the median value), Nt = 100 -> RER_A = 0.
        assert!(rates.rer_a_max() < 1e-9);
    }

    #[test]
    fn summary_helpers() {
        let rates = RelativeErrorRates {
            rer_a_per_quantile: vec![0.1, 0.3, 0.2],
            rer_l: 1.0,
            rer_n: 2.0,
        };
        assert!((rates.rer_a_max() - 0.3).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one quantile")]
    fn empty_bounds_panic() {
        compute_error_rates(&uniform_truth(10), &[]);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_phis_panic() {
        let truth = uniform_truth(10);
        let b = QuantileBoundsView {
            phi: 0.5,
            lower: 5,
            upper: 5,
        };
        let a = QuantileBoundsView {
            phi: 0.2,
            lower: 2,
            upper: 2,
        };
        compute_error_rates(&truth, &[b, a]);
    }

    #[test]
    #[should_panic(expected = "exceeds upper bound")]
    fn inverted_bounds_panic() {
        let truth = uniform_truth(10);
        compute_error_rates(
            &truth,
            &[QuantileBoundsView {
                phi: 0.5,
                lower: 6,
                upper: 5,
            }],
        );
    }
}
