//! Exact quantiles with one extra pass (§4).
//!
//! "The OPAQ algorithm can be extended to find the exact quantile value.
//! This will require one extra pass over the data set.  In the extra pass, we
//! keep the elements which are in the interval `[e_l, e_u]`.  We also count
//! the number of elements which are less than `e_l` to find the rank of
//! `e_l`, `R_el`.  The number of elements in the interval is at most `2n/s`
//! (Lemma 3).  We can find the exact value of the quantile by sorting those
//! elements: it is the element with rank `ψ − R_el`."

use crate::sketch::QuantileSketch;
use crate::{Key, OpaqError, OpaqResult};
use opaq_storage::RunStore;

/// Outcome of the exact second pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExactQuantile<K> {
    /// The exact φ-quantile value.
    pub value: K,
    /// The target rank ψ that was resolved.
    pub target_rank: u64,
    /// How many elements had to be buffered during the second pass
    /// (`≤ 2n/s + duplicates of the bounds`, per Lemma 3).
    pub candidates_kept: usize,
}

/// Resolve the exact φ-quantile with one extra pass over `store`, using the
/// bounds from `sketch`.
///
/// # Errors
/// Propagates storage errors and rejects invalid `phi`; returns
/// [`OpaqError::IncompatibleSketches`] if the sketch does not describe the
/// same number of elements as the store (a mismatched pairing would silently
/// produce wrong answers).
pub fn exact_quantile<K, S>(
    store: &S,
    sketch: &QuantileSketch<K>,
    phi: f64,
) -> OpaqResult<ExactQuantile<K>>
where
    K: Key,
    S: RunStore<K>,
{
    if store.len() != sketch.total_elements() {
        return Err(OpaqError::IncompatibleSketches(format!(
            "sketch summarises {} elements but the store holds {}",
            sketch.total_elements(),
            store.len()
        )));
    }
    let estimate = sketch.estimate(phi)?;
    let psi = estimate.target_rank;
    let (lower, upper) = (estimate.lower, estimate.upper);

    // Second pass: count elements below the lower bound and keep candidates,
    // recycling one run buffer for the whole scan.
    let mut below = 0u64;
    let mut candidates: Vec<K> = Vec::new();
    let mut run_buf: Vec<K> = Vec::new();
    for run_idx in 0..store.layout().runs() {
        store.read_run_into(run_idx, &mut run_buf)?;
        for &key in &run_buf {
            if key < lower {
                below += 1;
            } else if key <= upper {
                candidates.push(key);
            }
        }
    }

    // The exact quantile has rank psi - below within the candidate set.
    let rank_in_candidates = psi
        .checked_sub(below)
        .filter(|&r| r >= 1 && r as usize <= candidates.len())
        .ok_or_else(|| {
            OpaqError::IncompatibleSketches(
                "estimate bounds do not enclose the target rank; sketch and store disagree".into(),
            )
        })?;
    let idx = (rank_in_candidates - 1) as usize;
    let value = *candidates.select_nth_unstable(idx).1;
    Ok(ExactQuantile {
        value,
        target_rank: psi,
        candidates_kept: candidates.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{OpaqConfig, OpaqEstimator};
    use opaq_storage::MemRunStore;

    fn exact_truth(data: &[u64], phi: f64) -> u64 {
        let mut sorted = data.to_vec();
        sorted.sort_unstable();
        let psi = ((phi * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[psi - 1]
    }

    fn setup(data: Vec<u64>, m: u64, s: u64) -> (MemRunStore<u64>, QuantileSketch<u64>) {
        let store = MemRunStore::new(data, m);
        let config = OpaqConfig::builder()
            .run_length(m)
            .sample_size(s)
            .build()
            .unwrap();
        let sketch = OpaqEstimator::new(config).build_sketch(&store).unwrap();
        (store, sketch)
    }

    #[test]
    fn exact_median_of_shuffled_data() {
        let data: Vec<u64> = (0..10_000).map(|i| (i * 2654435761u64) % 99_991).collect();
        let truth = exact_truth(&data, 0.5);
        let (store, sketch) = setup(data, 1000, 100);
        let exact = exact_quantile(&store, &sketch, 0.5).unwrap();
        assert_eq!(exact.value, truth);
        assert_eq!(exact.target_rank, 5000);
    }

    #[test]
    fn exact_all_dectiles_with_duplicates() {
        let data: Vec<u64> = (0..5000).map(|i| i % 13).collect();
        for i in 1..10 {
            let phi = i as f64 / 10.0;
            let truth = exact_truth(&data, phi);
            let (store, sketch) = setup(data.clone(), 500, 50);
            let exact = exact_quantile(&store, &sketch, phi).unwrap();
            assert_eq!(exact.value, truth, "phi {phi}");
        }
    }

    #[test]
    fn candidate_buffer_respects_lemma_3_up_to_duplicates() {
        let data: Vec<u64> = (0..40_000).map(|i| (i * 48271) % 1_000_003).collect();
        let (store, sketch) = setup(data, 4000, 400);
        let exact = exact_quantile(&store, &sketch, 0.3).unwrap();
        // Distinct keys: the candidate count must respect the 2n/s bound
        // (plus the bound endpoints themselves).
        assert!(
            exact.candidates_kept as u64 <= sketch.max_elements_between_bounds() + 2,
            "kept {} > bound {}",
            exact.candidates_kept,
            sketch.max_elements_between_bounds()
        );
    }

    #[test]
    fn extreme_quantiles_are_exact() {
        let data: Vec<u64> = (0..777).map(|i| (i * 7919) % 5003).collect();
        let (store, sketch) = setup(data.clone(), 100, 10);
        let hi = exact_quantile(&store, &sketch, 1.0).unwrap();
        assert_eq!(hi.value, exact_truth(&data, 1.0));
        let lo = exact_quantile(&store, &sketch, 0.001).unwrap();
        assert_eq!(lo.value, exact_truth(&data, 0.001));
    }

    #[test]
    fn mismatched_store_and_sketch_rejected() {
        let (_, sketch) = setup((0..1000).collect(), 100, 10);
        let other_store = MemRunStore::new((0u64..500).collect(), 100);
        assert!(matches!(
            exact_quantile(&other_store, &sketch, 0.5),
            Err(OpaqError::IncompatibleSketches(_))
        ));
    }
}
