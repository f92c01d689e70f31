//! The quantile phase (§2.2): lower and upper bounds from the sample list.
//!
//! For the target rank `ψ = ⌈φ·n⌉` the phase picks two positions in the
//! merged sample list `L` (1-based in the paper):
//!
//! * upper bound `e_u = L[⌈ψ·s/m⌉]` — the first sample guaranteed to have at
//!   least `ψ` elements of the dataset at or below it;
//! * lower bound `e_l = L[⌊ψ·s/m − (r−1)(1 − s/m)⌋]` — the last sample whose
//!   worst-case count of elements strictly below it still leaves room for the
//!   true quantile.
//!
//! We implement the general (gap-weighted) form of those formulas so that
//! tail runs and merged sketches of unequal runs keep the guarantee
//! `e_l ≤ Q_φ ≤ e_u`; for full, equal runs the indices computed here are
//! exactly the paper's.

use crate::sketch::QuantileSketch;
use crate::{Key, OpaqError, OpaqResult};

/// The result of estimating one quantile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantileEstimate<K> {
    /// The quantile fraction φ (1.0 when the estimate was requested by rank).
    pub phi: f64,
    /// The target 1-based rank `ψ = ⌈φ·n⌉`.
    pub target_rank: u64,
    /// Deterministic lower bound: `lower ≤ Q_φ`.
    pub lower: K,
    /// Deterministic upper bound: `Q_φ ≤ upper`.
    pub upper: K,
    /// Index of the lower bound in the sample list, or `None` when the target
    /// rank is so small that only the dataset minimum can serve as a bound.
    pub lower_sample_index: Option<usize>,
    /// Index of the upper bound in the sample list.
    pub upper_sample_index: usize,
    /// Worst-case number of data elements between the true quantile and
    /// either bound (Lemma 1/2; at most `n/s` for full equal runs).
    pub max_rank_slack: u64,
}

/// Estimate the φ-quantile of the dataset summarised by `sketch`.
///
/// The boundaries are well-defined rather than out-of-range: `phi = 0.0`
/// targets rank 1 (whose lower bound is the dataset minimum, exactly the
/// smallest element) and `phi = 1.0` targets rank `n`, which resolves to the
/// dataset maximum exactly because the run maximum is always sampled.
pub fn estimate_phi<K: Key>(
    sketch: &QuantileSketch<K>,
    phi: f64,
) -> OpaqResult<QuantileEstimate<K>> {
    if !((0.0..=1.0).contains(&phi) && phi.is_finite()) {
        return Err(OpaqError::InvalidPhi(phi));
    }
    if sketch.is_empty() {
        return Err(OpaqError::EmptyDataset);
    }
    let n = sketch.total_elements();
    let psi = ((phi * n as f64).ceil() as u64).clamp(1, n);
    let mut est = estimate_rank(sketch, psi)?;
    est.phi = phi;
    Ok(est)
}

/// Estimate the quantile of 1-based rank `psi` (`1 ≤ psi ≤ n`).
///
/// `psi = n` short-circuits to the dataset maximum with zero slack: the
/// largest sample of every run-derived sketch *is* the run (and hence
/// dataset) maximum, so reporting a looser interval would discard
/// information the sketch already holds.
pub fn estimate_rank<K: Key>(
    sketch: &QuantileSketch<K>,
    psi: u64,
) -> OpaqResult<QuantileEstimate<K>> {
    if sketch.is_empty() {
        return Err(OpaqError::EmptyDataset);
    }
    let n = sketch.total_elements();
    if psi == 0 || psi > n {
        return Err(OpaqError::InvalidPhi(psi as f64 / n.max(1) as f64));
    }
    if psi == n {
        let last = sketch.len() - 1;
        return Ok(QuantileEstimate {
            phi: 1.0,
            target_rank: n,
            lower: sketch.dataset_max(),
            upper: sketch.dataset_max(),
            lower_sample_index: Some(last),
            upper_sample_index: last,
            max_rank_slack: 0,
        });
    }
    let values = sketch.values();
    let prefix = sketch.prefix();
    let r = sketch.runs();
    let g = sketch.max_gap();
    // Worst-case over-count of elements strictly below a sample, contributed
    // by the runs other than the sample's own: (r−1)(g−1).
    let cross_run_slack = r.saturating_sub(1) * g.saturating_sub(1);

    // ----- upper bound: first j with prefix[j] >= psi -----------------------
    // prefix[j] is a lower bound on the number of elements <= L[j], so the
    // true psi-th element cannot exceed L[j].
    let upper_idx = prefix.partition_point(|&covered| covered < psi);
    debug_assert!(upper_idx < values.len(), "total coverage equals n >= psi");
    let upper = values[upper_idx];

    // ----- lower bound: last i with prefix[i] + cross_run_slack <= psi ------
    // prefix[i] + cross_run_slack bounds the number of elements strictly
    // below L[i] from above, so L[i] <= the psi-th element.
    let candidates =
        prefix.partition_point(|&covered| covered.saturating_add(cross_run_slack) <= psi);
    let (lower, lower_sample_index) = if candidates == 0 {
        // No sample is guaranteed to sit at or below the target rank; fall
        // back to the dataset minimum, which trivially is a lower bound.
        (sketch.dataset_min(), None)
    } else {
        (values[candidates - 1], Some(candidates - 1))
    };

    Ok(QuantileEstimate {
        phi: psi as f64 / n as f64,
        target_rank: psi,
        lower,
        upper,
        lower_sample_index,
        upper_sample_index: upper_idx,
        max_rank_slack: sketch.max_elements_per_bound(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sample_phase::sample_run;
    use crate::sketch::QuantileSketch;

    fn sketch_of(data: Vec<u64>, m: usize, s: u64) -> QuantileSketch<u64> {
        let run_samples = data
            .chunks(m)
            .map(|chunk| {
                let mut run = chunk.to_vec();
                sample_run(&mut run, s).unwrap()
            })
            .collect();
        QuantileSketch::from_run_samples(run_samples).unwrap()
    }

    /// Brute-force check that the bounds enclose the true quantile.
    fn check_encloses_truth(data: &[u64], m: usize, s: u64, q: u64) {
        let sketch = sketch_of(data.to_vec(), m, s);
        let mut sorted = data.to_vec();
        sorted.sort_unstable();
        let n = data.len() as u64;
        for i in 1..q {
            let phi = i as f64 / q as f64;
            let psi = ((phi * n as f64).ceil() as u64).clamp(1, n);
            let truth = sorted[(psi - 1) as usize];
            let est = sketch.estimate(phi).unwrap();
            assert!(
                est.lower <= truth && truth <= est.upper,
                "phi={phi}: bounds [{}, {}] miss truth {truth} (n={n}, m={m}, s={s})",
                est.lower,
                est.upper
            );
        }
    }

    #[test]
    fn paper_formula_on_identity_data() {
        // n = 1000, m = 100, s = 10 (g = 10, r = 10).
        let data: Vec<u64> = (1..=1000).collect();
        let sketch = sketch_of(data.clone(), 100, 10);
        let est = sketch.estimate(0.5).unwrap();
        // psi = 500. upper index (1-based) = ceil(psi*s/m) = 50.
        assert_eq!(est.upper_sample_index, 49);
        // lower index = floor(psi*s/m - (r-1)(1-s/m)) = floor(50 - 9*0.9) = 41.
        assert_eq!(est.lower_sample_index, Some(40));
        assert!(est.lower <= 500 && 500 <= est.upper);
        assert_eq!(est.max_rank_slack, 10 + 9 * 9);
        assert_eq!(est.target_rank, 500);
    }

    #[test]
    fn bounds_enclose_truth_identity_and_shuffled() {
        let data: Vec<u64> = (0..5000).collect();
        check_encloses_truth(&data, 500, 50, 10);
        let shuffled: Vec<u64> = (0..5000).map(|i| (i * 2654435761u64) % 977).collect();
        check_encloses_truth(&shuffled, 500, 50, 10);
    }

    #[test]
    fn bounds_enclose_truth_with_duplicates_and_small_s() {
        let data: Vec<u64> = (0..3000).map(|i| i % 7).collect();
        check_encloses_truth(&data, 300, 4, 10);
        check_encloses_truth(&data, 300, 300, 10);
    }

    #[test]
    fn bounds_enclose_truth_uneven_tail_run() {
        let data: Vec<u64> = (0..1234).map(|i| (i * 48271) % 10_007).collect();
        check_encloses_truth(&data, 100, 10, 10);
    }

    #[test]
    fn extreme_quantiles() {
        let data: Vec<u64> = (1..=1000).collect();
        let sketch = sketch_of(data, 100, 10);
        // phi so small that no sample can be a lower bound: dataset min used.
        let est = sketch.estimate(0.001).unwrap();
        assert_eq!(est.lower, 1);
        assert!(est.lower_sample_index.is_none());
        assert!(est.upper >= 1);
        // phi = 1.0 must return the dataset maximum, exactly.
        let est = sketch.estimate(1.0).unwrap();
        assert_eq!(est.upper, 1000);
        assert_eq!(est.lower, 1000);
        assert_eq!(est.max_rank_slack, 0);
        assert_eq!(est.target_rank, 1000);
        // phi = 0.0 targets rank 1 and is bounded below by the dataset min.
        let est = sketch.estimate(0.0).unwrap();
        assert_eq!(est.phi, 0.0);
        assert_eq!(est.target_rank, 1);
        assert_eq!(est.lower, 1);
        assert!(est.upper >= 1);
    }

    #[test]
    fn rank_boundaries_are_exact_or_enclosing() {
        // Tail run (m does not divide n) plus duplicates: the boundary ranks
        // must still resolve without out-of-range indices.
        let data: Vec<u64> = (0..1037).map(|i| i % 13).collect();
        let sketch = sketch_of(data.clone(), 100, 7);
        let n = data.len() as u64;
        // estimate_rank(n) == dataset maximum, exactly.
        let est = sketch.estimate_rank(n).unwrap();
        assert_eq!(est.lower, 12);
        assert_eq!(est.upper, 12);
        assert_eq!(est.upper_sample_index, sketch.len() - 1);
        assert_eq!(est.lower_sample_index, Some(sketch.len() - 1));
        // estimate_rank(1) is bounded below by the dataset minimum.
        let est = sketch.estimate_rank(1).unwrap();
        assert_eq!(est.lower, 0);
    }

    #[test]
    fn lemma_1_and_2_rank_slack_holds_empirically() {
        // Check |rank(bound) - psi| <= max_rank_slack for many phis.
        let data: Vec<u64> = (0..10_000)
            .map(|i| (i * 1103515245 + 12345) % 65536)
            .collect();
        let mut sorted = data.clone();
        sorted.sort_unstable();
        let sketch = sketch_of(data, 1000, 100);
        let slack = sketch.max_elements_per_bound();
        for i in 1..20u64 {
            let phi = i as f64 / 20.0;
            let est = sketch.estimate(phi).unwrap();
            let psi = est.target_rank;
            let rank_of = |v: u64| sorted.partition_point(|&x| x <= v) as u64;
            let rank_lt = |v: u64| sorted.partition_point(|&x| x < v) as u64;
            // lower bound may be at most `slack` elements below the target
            assert!(psi.saturating_sub(rank_of(est.lower)) <= slack, "phi {phi}");
            // upper bound may be at most `slack` elements above the target
            assert!(rank_lt(est.upper).saturating_sub(psi) <= slack, "phi {phi}");
        }
    }

    #[test]
    fn invalid_phi_rejected() {
        let data: Vec<u64> = (0..100).collect();
        let sketch = sketch_of(data, 10, 2);
        // phi = 0.0 is a valid boundary now; negatives are not.
        assert!(sketch.estimate(0.0).is_ok());
        assert!(matches!(
            sketch.estimate(-0.1),
            Err(OpaqError::InvalidPhi(_))
        ));
        assert!(matches!(
            sketch.estimate(1.5),
            Err(OpaqError::InvalidPhi(_))
        ));
        assert!(matches!(
            sketch.estimate(f64::NAN),
            Err(OpaqError::InvalidPhi(_))
        ));
        assert!(matches!(
            sketch.estimate_rank(0),
            Err(OpaqError::InvalidPhi(_))
        ));
        assert!(matches!(
            sketch.estimate_rank(101),
            Err(OpaqError::InvalidPhi(_))
        ));
    }

    #[test]
    fn estimate_rank_directly() {
        let data: Vec<u64> = (1..=100).collect();
        let sketch = sketch_of(data, 10, 10);
        // s == m, so every element is a sample and the estimate is exact.
        let est = sketch.estimate_rank(37).unwrap();
        assert_eq!(est.lower, 37);
        assert_eq!(est.upper, 37);
    }
}
