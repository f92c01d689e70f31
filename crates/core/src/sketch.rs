//! The [`QuantileSketch`]: the merged, sorted sample list plus the metadata
//! the quantile phase needs.
//!
//! The sketch *is* the paper's "sorted sample list of size r·s", stored as
//! two columns of equal length:
//!
//! * [`QuantileSketch::values`]: the sample values, sorted ascending (ties
//!   in the order their runs were merged);
//! * [`QuantileSketch::prefix`]: `prefix[i]` is the number of data elements
//!   that `values[..=i]` account for, so it is strictly increasing and ends
//!   at `n`.
//!
//! Sample `i` accounts for `prefix[i] − prefix[i−1]` elements of its run
//! (its *gap*: `m/s` for full runs, less in tail runs; `prefix[−1]` = 0),
//! and no field stores the gap itself.  The quantile phase indexes the
//! prefix column: `e_u = L[⌈ψ·s/m⌉]` is the first sample whose prefix
//! reaches ψ.  Sketches enter and leave as `(value, gap)` pairs, the wire's
//! form ([`QuantileSketch::assemble`], [`QuantileSketch::pairs`]).  The
//! sketch supports:
//!
//! * quantile estimation ([`QuantileSketch::estimate`], the quantile phase),
//! * rank estimation of arbitrary values (§4 of the paper),
//! * merging with another sketch (the basis of both the incremental and the
//!   parallel formulations), and fusing many with the deterministic
//!   [`merge_tree`],
//! * the memory accounting the paper's `r·s + m ≤ M` constraint refers to.

use crate::quantile_phase::{self, QuantileEstimate};
use crate::rank::RankBounds;
use crate::sample_phase::RunSample;
use crate::{Key, OpaqError, OpaqResult};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// The merged, sorted sample list produced by the sample phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuantileSketch<K> {
    values: Vec<K>,
    prefix: Vec<u64>,
    total_elements: u64,
    runs: u64,
    max_gap: u64,
    dataset_min: K,
    dataset_max: K,
}

/// Lemma 1's bound `g + (r−1)(g−1)`, or `None` when it overflows `u64`.
fn lemma1_bound(runs: u64, max_gap: u64) -> Option<u64> {
    runs.saturating_sub(1)
        .checked_mul(max_gap.saturating_sub(1))?
        .checked_add(max_gap)
}

fn incompatible(why: impl Into<String>) -> OpaqError {
    OpaqError::IncompatibleSketches(why.into())
}

impl<K: Key> QuantileSketch<K> {
    /// Merge the per-run sample lists into a sketch (the final step of the
    /// sample phase).  Uses a k-way heap merge: `O(r·s·log r)`, exactly the
    /// cost the paper's Table 2 charges for "merging r sample lists".
    ///
    /// # Errors
    /// Returns [`OpaqError::EmptyDataset`] if `run_samples` is empty.
    pub fn from_run_samples(run_samples: Vec<RunSample<K>>) -> OpaqResult<Self> {
        if run_samples.is_empty() {
            return Err(OpaqError::EmptyDataset);
        }
        let runs = run_samples.len() as u64;
        let total_elements: u64 = run_samples.iter().map(|r| r.run_len).sum();
        let max_gap = run_samples
            .iter()
            .map(|r| r.max_gap())
            .max()
            .unwrap_or(1)
            .max(1);
        let dataset_min = run_samples
            .iter()
            .map(|r| r.run_min)
            .min()
            .expect("at least one run");

        let total_samples: usize = run_samples.iter().map(|r| r.values.len()).sum();
        let mut values = Vec::with_capacity(total_samples);
        let mut prefix = Vec::with_capacity(total_samples);

        // K-way merge of the already-sorted per-run sample lists.
        let mut heap: BinaryHeap<Reverse<(K, usize, usize)>> =
            BinaryHeap::with_capacity(run_samples.len());
        for (run_idx, rs) in run_samples.iter().enumerate() {
            if !rs.values.is_empty() {
                heap.push(Reverse((rs.values[0], run_idx, 0)));
            }
        }
        let mut covered = 0u64;
        while let Some(Reverse((value, run_idx, pos))) = heap.pop() {
            let rs = &run_samples[run_idx];
            covered += rs.gaps[pos];
            values.push(value);
            prefix.push(covered);
            let next = pos + 1;
            if next < rs.values.len() {
                heap.push(Reverse((rs.values[next], run_idx, next)));
            }
        }
        debug_assert!(values.windows(2).all(|w| w[0] <= w[1]));
        debug_assert_eq!(covered, total_elements);
        // Every run's maximum is its last sample, so the last merged sample
        // is the dataset maximum.
        Ok(Self {
            dataset_max: values[values.len() - 1],
            values,
            prefix,
            total_elements,
            runs,
            max_gap,
            dataset_min,
        })
    }

    /// Assemble a sketch from an already-sorted list of `(value, gap)` pairs
    /// and its metadata.  A gap is the number of elements of the sample's
    /// run that the sample newly accounts for.
    ///
    /// This is the constructor used by the parallel global-merge algorithms,
    /// which produce the sorted sample list through message passing rather
    /// than through [`QuantileSketch::from_run_samples`], and by
    /// [`QuantileSketch::from_wire`].
    ///
    /// # Errors
    /// [`OpaqError::EmptyDataset`] if `points` is empty or `total_elements`
    /// is zero, and [`OpaqError::IncompatibleSketches`] if the points are
    /// not sorted by value, the gaps do not sum to `total_elements` (or
    /// overflow `u64` on the way), `runs` is zero or exceeds the number of
    /// points (every run contributes at least one sample), a gap is zero or
    /// exceeds `max_gap` (an understated `max_gap` would silently loosen
    /// nothing but *tighten* the quantile-phase slack below what the data
    /// supports, breaking the enclosure guarantee), Lemma 1's bound
    /// `g + (r−1)(g−1)` overflows `u64`, or the points do not respect
    /// `dataset_min`/`dataset_max`.
    pub fn assemble(
        points: Vec<(K, u64)>,
        total_elements: u64,
        runs: u64,
        max_gap: u64,
        dataset_min: K,
        dataset_max: K,
    ) -> OpaqResult<Self> {
        if points.is_empty() || total_elements == 0 {
            return Err(OpaqError::EmptyDataset);
        }
        if runs == 0 || runs > points.len() as u64 {
            let why = "runs must be 1..=samples: every run contributes a sample";
            return Err(incompatible(why));
        }
        if lemma1_bound(runs, max_gap).is_none() {
            return Err(incompatible("the Lemma 1 bound overflows u64"));
        }
        let mut values = Vec::with_capacity(points.len());
        let mut prefix = Vec::with_capacity(points.len());
        let mut covered = 0u64;
        for (value, gap) in points {
            if values.last().is_some_and(|&previous| previous > value) {
                return Err(incompatible("sample list must be sorted by value"));
            }
            // Gaps ≥ 1 everywhere, so this also rejects max_gap == 0.
            if gap == 0 || gap > max_gap {
                return Err(incompatible(format!(
                    "sample gap {gap} lies outside 1..={max_gap} (max_gap)"
                )));
            }
            covered = covered
                .checked_add(gap)
                .ok_or_else(|| incompatible("sample gaps overflow u64"))?;
            values.push(value);
            prefix.push(covered);
        }
        if covered != total_elements {
            return Err(incompatible(format!(
                "sample gaps sum to {covered}, expected {total_elements}"
            )));
        }
        if dataset_min > dataset_max {
            return Err(incompatible("dataset_min must not exceed dataset_max"));
        }
        // Samples are dataset elements, so they must lie within [min, max],
        // and regular sampling always samples the run maximum, so the
        // largest sample *is* the dataset maximum.  The quantile phase's
        // psi == n short-circuit relies on exactly this invariant.
        if values[0] < dataset_min {
            return Err(incompatible("samples must not undercut dataset_min"));
        }
        if values[values.len() - 1] != dataset_max {
            return Err(incompatible(
                "the largest sample must equal dataset_max (the run maximum is always sampled)",
            ));
        }
        Ok(Self {
            values,
            prefix,
            total_elements,
            runs,
            max_gap,
            dataset_min,
            dataset_max,
        })
    }

    /// The sample values, sorted ascending.  Equal values keep the order of
    /// the runs they came from (see [`QuantileSketch::merge`]).
    pub fn values(&self) -> &[K] {
        &self.values
    }

    /// The prefix column, as long as [`QuantileSketch::values`]:
    /// `prefix()[i]` is the number of data elements that `values()[..=i]`
    /// account for.  It is strictly increasing, because every sample
    /// accounts for at least one element, and its last entry is
    /// [`QuantileSketch::total_elements`].
    pub fn prefix(&self) -> &[u64] {
        &self.prefix
    }

    /// The sample list as `(value, gap)` pairs, the form
    /// [`QuantileSketch::assemble`] takes and the wire stores: the gap of
    /// sample `i` is `prefix()[i] − prefix()[i−1]`.
    pub fn pairs(&self) -> impl ExactSizeIterator<Item = (K, u64)> + '_ {
        (0..self.values.len()).map(move |i| {
            let before = if i == 0 { 0 } else { self.prefix[i - 1] };
            (self.values[i], self.prefix[i] - before)
        })
    }

    /// Number of sample points (`r·s` in the paper's notation).
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the sketch holds no samples.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Total number of data elements the sketch summarises (`n`).
    pub fn total_elements(&self) -> u64 {
        self.total_elements
    }

    /// Number of runs merged into the sketch (`r`).
    pub fn runs(&self) -> u64 {
        self.runs
    }

    /// The largest per-sample gap (`⌈m/s⌉` for equal full runs).
    pub fn max_gap(&self) -> u64 {
        self.max_gap
    }

    /// The smallest element of the dataset.
    pub fn dataset_min(&self) -> K {
        self.dataset_min
    }

    /// The largest element of the dataset (always equal to the largest
    /// sample, because the run maximum is always sampled).
    pub fn dataset_max(&self) -> K {
        self.dataset_max
    }

    /// Lemma 1/2 bound: the maximum number of data elements that can lie
    /// between the true quantile and either estimated bound.  Equals
    /// `g + (r−1)(g−1)` which is at most `n/s` when all runs are full.
    pub fn max_elements_per_bound(&self) -> u64 {
        lemma1_bound(self.runs, self.max_gap).unwrap_or(u64::MAX)
    }

    /// Lemma 3 bound: the maximum number of data elements in `[e_l, e_u]`,
    /// i.e. twice [`Self::max_elements_per_bound`].
    pub fn max_elements_between_bounds(&self) -> u64 {
        self.max_elements_per_bound().saturating_mul(2)
    }

    /// Estimate the φ-quantile (the quantile phase, formulas (2)–(5)).
    ///
    /// The boundaries are exact: `phi = 0.0` targets rank 1 and bounds it
    /// below by the dataset minimum, `phi = 1.0` returns the dataset maximum.
    ///
    /// # Errors
    /// [`OpaqError::InvalidPhi`] if `phi ∉ [0, 1]`, [`OpaqError::EmptyDataset`]
    /// if the sketch is empty.
    pub fn estimate(&self, phi: f64) -> OpaqResult<QuantileEstimate<K>> {
        quantile_phase::estimate_phi(self, phi)
    }

    /// Estimate the quantile of 1-based rank `psi` directly.
    pub fn estimate_rank(&self, psi: u64) -> OpaqResult<QuantileEstimate<K>> {
        quantile_phase::estimate_rank(self, psi)
    }

    /// Estimate all `q`-quantiles (`φ = 1/q … (q−1)/q`).  The cost per
    /// additional quantile is `O(log(r·s))` — the "constant extra time per
    /// quantile" the paper advertises, since the sample list is already built.
    ///
    /// The degenerate request `q = 1` has exactly one boundary, the
    /// 1.0-quantile, so it returns the dataset maximum (exactly — the run
    /// maximum is always sampled) instead of an out-of-range rank.
    pub fn estimate_q_quantiles(&self, q: u64) -> OpaqResult<Vec<QuantileEstimate<K>>> {
        if q == 0 {
            return Err(OpaqError::InvalidConfig("q must be at least 1".into()));
        }
        if q == 1 {
            return Ok(vec![self.estimate(1.0)?]);
        }
        (1..q).map(|i| self.estimate(i as f64 / q as f64)).collect()
    }

    /// Estimate several quantile fractions in one call.
    ///
    /// Each additional quantile costs `O(log(r·s))` on the already-built
    /// sample list, so batching amortises nothing but saves per-call overhead
    /// in serving paths; the method exists so a server holding an
    /// `Arc<QuantileSketch>` snapshot can answer a batch request against one
    /// consistent sketch version with a single shared reference.
    ///
    /// # Errors
    /// Fails on the first invalid `phi`, with no partial results.
    pub fn estimate_many(&self, phis: &[f64]) -> OpaqResult<Vec<QuantileEstimate<K>>> {
        phis.iter().map(|&phi| self.estimate(phi)).collect()
    }

    /// Bounds on the rank of an arbitrary `value` (§4: "the sorted sample
    /// list can obviously be used to estimate the rank of any arbitrary
    /// element in the whole data set").
    pub fn rank_bounds(&self, value: K) -> RankBounds {
        crate::rank::rank_bounds(self, value)
    }

    /// The sketch's content as the storage layer's wire form, ready for
    /// [`opaq_storage::sketch_codec`] to encode.
    pub fn to_wire(&self) -> opaq_storage::SketchWire<K> {
        opaq_storage::SketchWire {
            total_elements: self.total_elements,
            runs: self.runs,
            max_gap: self.max_gap,
            dataset_min: self.dataset_min,
            dataset_max: self.dataset_max,
            samples: self.pairs().collect(),
        }
    }

    /// Rebuild a sketch from its decoded wire form, re-validating every
    /// semantic invariant via [`QuantileSketch::assemble`] — a structurally
    /// valid file whose content violates the sketch invariants (unsorted
    /// samples, gap-sum mismatch, …) is rejected here.
    ///
    /// # Errors
    /// The same errors as [`QuantileSketch::assemble`].
    pub fn from_wire(wire: opaq_storage::SketchWire<K>) -> OpaqResult<Self> {
        Self::assemble(
            wire.samples,
            wire.total_elements,
            wire.runs,
            wire.max_gap,
            wire.dataset_min,
            wire.dataset_max,
        )
    }

    /// Merge two sketches summarising disjoint parts of a dataset.
    ///
    /// This is the primitive behind both the incremental formulation (§4:
    /// "keep the sorted samples from the runs of the old data … merge with
    /// the old sorted samples") and the parallel global merge.
    ///
    /// Ties are broken in favour of `self`, so folding sketches left to
    /// right keeps equal sample values ordered by the run index they came
    /// from.  That stability is what makes the sharded ingestion path
    /// (`opaq-parallel`'s `ShardedOpaq`) bit-identical to the sequential
    /// fold for any shard count.
    ///
    /// # Errors
    /// [`OpaqError::EmptyDataset`] if either sketch is empty: an empty
    /// sketch has no meaningful `dataset_min`/`dataset_max`, so merging it
    /// would propagate whatever placeholder values it was constructed with.
    /// Callers that may hold "no data yet" should model that as
    /// `Option<QuantileSketch>` (as [`crate::IncrementalOpaq`] does) rather
    /// than as an empty sketch.
    /// [`OpaqError::IncompatibleSketches`] if the merged element count, run
    /// count or Lemma 1 bound overflows `u64`.
    pub fn merge(&self, other: &QuantileSketch<K>) -> OpaqResult<QuantileSketch<K>> {
        if self.is_empty() || other.is_empty() {
            return Err(OpaqError::EmptyDataset);
        }
        let overflow = || incompatible("the merged sketch's counts overflow u64");
        let total_elements = self
            .total_elements
            .checked_add(other.total_elements)
            .ok_or_else(overflow)?;
        let runs = self.runs.checked_add(other.runs).ok_or_else(overflow)?;
        let max_gap = self.max_gap.max(other.max_gap);
        lemma1_bound(runs, max_gap).ok_or_else(overflow)?;

        // One pass over both column pairs: a taken sample's prefix is its
        // own sketch's prefix plus what the other sketch covered before it.
        let (a, b) = (self, other);
        let len = a.len() + b.len();
        let (mut values, mut prefix) = (Vec::with_capacity(len), Vec::with_capacity(len));
        let (mut i, mut j, mut a_covered, mut b_covered) = (0, 0, 0, 0);
        while i < a.len() && j < b.len() {
            if a.values[i] <= b.values[j] {
                values.push(a.values[i]);
                a_covered = a.prefix[i];
                i += 1;
            } else {
                values.push(b.values[j]);
                b_covered = b.prefix[j];
                j += 1;
            }
            prefix.push(a_covered + b_covered);
        }
        // At most one tail is left, and the other sketch is fully covered.
        values.extend_from_slice(&a.values[i..]);
        prefix.extend(a.prefix[i..].iter().map(|&p| p + b.total_elements));
        values.extend_from_slice(&b.values[j..]);
        prefix.extend(b.prefix[j..].iter().map(|&p| p + a.total_elements));
        Ok(QuantileSketch {
            values,
            prefix,
            total_elements,
            runs,
            max_gap,
            dataset_min: a.dataset_min.min(b.dataset_min),
            dataset_max: a.dataset_max.max(b.dataset_max),
        })
    }

    /// Memory footprint of the sketch in sample points (the `r·s` term of the
    /// paper's memory constraint).
    pub fn memory_sample_points(&self) -> usize {
        self.values.len()
    }
}

/// Fuse sketches with a balanced pairwise tree: adjacent pairs per round,
/// ascending order, odd one carries over.  Deterministic — the same input
/// order always produces the same fused sketch, which is what makes sharded
/// ingest bit-identical to the sequential fold and plan answers
/// byte-replayable.  A single input is returned as is, not copied.
///
/// # Errors
/// [`OpaqError::EmptyDataset`] for an empty slice; merge errors propagate
/// from [`QuantileSketch::merge`].
pub fn merge_tree<K: Key>(
    sketches: &[Arc<QuantileSketch<K>>],
) -> OpaqResult<Arc<QuantileSketch<K>>> {
    if sketches.is_empty() {
        return Err(OpaqError::EmptyDataset);
    }
    if sketches.len() == 1 {
        return Ok(Arc::clone(&sketches[0]));
    }
    let mut round: Vec<Arc<QuantileSketch<K>>> = sketches.to_vec();
    while round.len() > 1 {
        let mut next = Vec::with_capacity(round.len().div_ceil(2));
        let mut pairs = round.chunks_exact(2);
        for pair in &mut pairs {
            next.push(Arc::new(pair[0].merge(&pair[1])?));
        }
        if let [odd] = pairs.remainder() {
            next.push(Arc::clone(odd));
        }
        round = next;
    }
    Ok(round.pop().expect("non-empty round"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sample_phase::sample_run;

    fn sketch_of_runs(runs: Vec<Vec<u64>>, s: u64) -> QuantileSketch<u64> {
        let run_samples: Vec<RunSample<u64>> = runs
            .into_iter()
            .map(|mut run| sample_run(&mut run, s).unwrap())
            .collect();
        QuantileSketch::from_run_samples(run_samples).unwrap()
    }

    #[test]
    fn merged_sample_list_is_sorted_and_complete() {
        let sketch = sketch_of_runs(
            vec![
                (0..100).collect(),
                (100..200).rev().collect(),
                (50..150).collect(),
            ],
            10,
        );
        assert_eq!(sketch.len(), 30);
        assert_eq!(sketch.total_elements(), 300);
        assert_eq!(sketch.runs(), 3);
        assert!(sketch.values().windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(sketch.prefix().last().copied(), Some(300));
        assert_eq!(sketch.dataset_min(), 0);
        assert_eq!(sketch.dataset_max(), 199);
        assert_eq!(sketch.max_gap(), 10);
    }

    #[test]
    fn bounds_formulae() {
        let sketch = sketch_of_runs(vec![(0..100).collect(), (0..100).collect()], 10);
        // g = 10, r = 2 -> per bound 10 + 1*9 = 19, between bounds 38.
        assert_eq!(sketch.max_elements_per_bound(), 19);
        assert_eq!(sketch.max_elements_between_bounds(), 38);
    }

    #[test]
    fn single_run_sketch() {
        let sketch = sketch_of_runs(vec![(0..64).collect()], 8);
        assert_eq!(sketch.runs(), 1);
        assert_eq!(sketch.max_elements_per_bound(), 8);
    }

    #[test]
    fn empty_run_samples_error() {
        assert!(matches!(
            QuantileSketch::<u64>::from_run_samples(vec![]),
            Err(OpaqError::EmptyDataset)
        ));
    }

    #[test]
    fn merge_combines_counts_and_stays_sorted() {
        let a = sketch_of_runs(vec![(0..100).collect()], 10);
        let b = sketch_of_runs(vec![(1000..1100).collect(), (500..600).collect()], 10);
        let merged = a.merge(&b).unwrap();
        assert_eq!(merged.total_elements(), 300);
        assert_eq!(merged.runs(), 3);
        assert_eq!(merged.len(), 30);
        assert!(merged.values().windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(merged.dataset_min(), 0);
        assert_eq!(merged.dataset_max(), 1099);
        assert_eq!(merged.prefix().last().copied(), Some(300));
    }

    #[test]
    fn merge_is_commutative_in_content() {
        let a = sketch_of_runs(vec![(0..50).collect()], 5);
        let b = sketch_of_runs(vec![(25..75).collect()], 5);
        let ab = a.merge(&b).unwrap();
        let ba = b.merge(&a).unwrap();
        assert_eq!(ab.total_elements(), ba.total_elements());
        assert_eq!(ab.values(), ba.values());
    }

    #[test]
    fn merge_tree_matches_manual_pairwise_merge() {
        let a = Arc::new(sketch_of_runs(vec![(0..1000).collect()], 50));
        let b = Arc::new(sketch_of_runs(vec![(1000..2000).collect()], 50));
        let c = Arc::new(sketch_of_runs(vec![(2000..3000).collect()], 50));
        // Three inputs: ((a+b) + c), with c carried over the first round.
        let manual = a.merge(&b).unwrap().merge(&c).unwrap();
        let fused = merge_tree(&[a, b, c]).unwrap();
        assert_eq!(*fused, manual);
        assert_eq!(fused.total_elements(), 3000);
    }

    #[test]
    fn merge_tree_edge_cases() {
        assert!(matches!(
            merge_tree::<u64>(&[]),
            Err(OpaqError::EmptyDataset)
        ));
        let only = Arc::new(sketch_of_runs(vec![(0..100).collect()], 10));
        let fused = merge_tree(std::slice::from_ref(&only)).unwrap();
        assert!(Arc::ptr_eq(&fused, &only), "single input is not copied");
    }

    #[test]
    fn estimate_q_quantiles_boundaries() {
        let sketch = sketch_of_runs(vec![(0..100).collect()], 10);
        assert!(matches!(
            sketch.estimate_q_quantiles(0),
            Err(OpaqError::InvalidConfig(_))
        ));
        // q = 1: the single boundary is the dataset maximum, exactly.
        let single = sketch.estimate_q_quantiles(1).unwrap();
        assert_eq!(single.len(), 1);
        assert_eq!(single[0].lower, 99);
        assert_eq!(single[0].upper, 99);
        assert_eq!(single[0].target_rank, 100);
        assert_eq!(sketch.estimate_q_quantiles(4).unwrap().len(), 3);
    }

    #[test]
    fn merge_with_degenerate_sketches() {
        let a = sketch_of_runs(vec![(0..100).collect()], 10);
        // Merging two single-run sketches keeps min/max/max_gap correct.
        let b = sketch_of_runs(vec![(200..250).collect()], 5);
        let merged = a.merge(&b).unwrap();
        assert_eq!(merged.dataset_min(), 0);
        assert_eq!(merged.dataset_max(), 249);
        assert_eq!(merged.runs(), 2);
        assert_eq!(merged.max_gap(), 10);
        assert_eq!(merged.total_elements(), 150);
        // A single-element run degenerates gracefully.
        let c = sketch_of_runs(vec![vec![7]], 4);
        let merged = a.merge(&c).unwrap();
        assert_eq!(merged.total_elements(), 101);
        assert_eq!(merged.max_gap(), 10);
        assert_eq!(merged.dataset_min(), 0);
    }

    #[test]
    fn assemble_rejects_degenerate_inputs() {
        // Empty sample list: typed error, not a sketch with bogus min/max.
        assert!(matches!(
            QuantileSketch::<u64>::assemble(vec![], 0, 0, 1, 0, 0),
            Err(OpaqError::EmptyDataset)
        ));
        // Unsorted samples.
        assert!(matches!(
            QuantileSketch::assemble(vec![(5u64, 1), (3, 1)], 2, 1, 1, 3, 5),
            Err(OpaqError::IncompatibleSketches(_))
        ));
        // Gap sum mismatch.
        assert!(matches!(
            QuantileSketch::assemble(vec![(1u64, 2)], 3, 1, 2, 1, 1),
            Err(OpaqError::IncompatibleSketches(_))
        ));
        // Zero gap.
        assert!(matches!(
            QuantileSketch::assemble(vec![(1u64, 0), (2, 2)], 2, 1, 2, 1, 2),
            Err(OpaqError::IncompatibleSketches(_))
        ));
        // Zero runs for a non-empty list.
        assert!(matches!(
            QuantileSketch::assemble(vec![(1u64, 1)], 1, 0, 1, 1, 1),
            Err(OpaqError::IncompatibleSketches(_))
        ));
        // Inverted min/max.
        assert!(matches!(
            QuantileSketch::assemble(vec![(1u64, 1)], 1, 1, 1, 9, 1),
            Err(OpaqError::IncompatibleSketches(_))
        ));
        // Understated max_gap: would tighten the quantile-phase slack below
        // what the data supports, so it must be rejected (this also covers
        // max_gap == 0, since every gap is at least 1).
        assert!(matches!(
            QuantileSketch::assemble(vec![(1u64, 5), (2, 5)], 10, 1, 4, 1, 2),
            Err(OpaqError::IncompatibleSketches(_))
        ));
        assert!(matches!(
            QuantileSketch::assemble(vec![(4u64, 1)], 1, 1, 0, 2, 4),
            Err(OpaqError::IncompatibleSketches(_))
        ));
        // Largest sample must equal dataset_max: the run maximum is always
        // sampled, and the psi == n short-circuit relies on it.
        assert!(matches!(
            QuantileSketch::assemble(vec![(4u64, 1)], 1, 1, 1, 2, 9),
            Err(OpaqError::IncompatibleSketches(_))
        ));
        // More runs than samples: every run contributes at least one.
        assert!(matches!(
            QuantileSketch::assemble(vec![(1u64, 1), (2, 1)], 2, 3, 1, 1, 2),
            Err(OpaqError::IncompatibleSketches(_))
        ));
        // Lemma 1's bound g + (r−1)(g−1) overflows u64.
        assert!(matches!(
            QuantileSketch::assemble(vec![(1u64, 1), (2, 1)], 2, 2, u64::MAX, 1, 2),
            Err(OpaqError::IncompatibleSketches(_))
        ));
        // Gaps whose sum wraps around to total_elements.
        assert!(matches!(
            QuantileSketch::assemble(vec![(1u64, u64::MAX), (2, 3), (3, 2)], 4, 1, u64::MAX, 1, 3),
            Err(OpaqError::IncompatibleSketches(_))
        ));
        // A valid single-sample sketch assembles.
        let s = QuantileSketch::assemble(vec![(4u64, 1)], 1, 1, 1, 2, 4).unwrap();
        assert_eq!(s.max_gap(), 1);
        assert_eq!(s.dataset_min(), 2);
        assert_eq!(s.dataset_max(), 4);
        // Merging valid sketches whose counts overflow.  One run with a huge
        // gap ceiling and three runs of small gaps are each valid, but
        // together (r−1)(g−1) = 3·(2⁶³ − 1) overflows.
        let wide = QuantileSketch::assemble(vec![(1u64, 1)], 1, 1, 1 << 63, 1, 1).unwrap();
        let narrow =
            QuantileSketch::assemble(vec![(1u64, 1), (2, 1), (3, 1)], 3, 3, 1, 1, 3).unwrap();
        assert!(matches!(
            wide.merge(&narrow),
            Err(OpaqError::IncompatibleSketches(_))
        ));
        // Two halves of 2⁶³ elements each: the element count overflows.
        let half =
            QuantileSketch::assemble(vec![(1u64, 1 << 63)], 1 << 63, 1, 1 << 63, 1, 1).unwrap();
        assert!(matches!(
            half.merge(&half),
            Err(OpaqError::IncompatibleSketches(_))
        ));
    }

    #[test]
    fn estimate_many_matches_single_estimates() {
        let sketch = sketch_of_runs(vec![(0..1000).collect(), (500..1500).collect()], 50);
        let phis = [0.0, 0.25, 0.5, 0.75, 0.9, 1.0];
        let batch = sketch.estimate_many(&phis).unwrap();
        assert_eq!(batch.len(), phis.len());
        for (phi, est) in phis.iter().zip(&batch) {
            assert_eq!(est, &sketch.estimate(*phi).unwrap());
        }
        assert!(sketch.estimate_many(&[0.5, 1.5]).is_err());
        assert!(sketch.estimate_many(&[]).unwrap().is_empty());
    }

    #[test]
    fn wire_round_trip_preserves_sketch() {
        let sketch = sketch_of_runs(vec![(0..100).collect(), (100..200).rev().collect()], 10);
        let restored = QuantileSketch::from_wire(sketch.to_wire()).unwrap();
        assert_eq!(restored, sketch);
        assert_eq!(
            restored.estimate(0.5).unwrap(),
            sketch.estimate(0.5).unwrap()
        );
    }

    #[test]
    fn from_wire_rejects_semantic_corruption() {
        let sketch = sketch_of_runs(vec![(0..100).collect()], 10);
        let mut wire = sketch.to_wire();
        wire.samples.swap(0, 5); // unsorted
        assert!(matches!(
            QuantileSketch::from_wire(wire),
            Err(OpaqError::IncompatibleSketches(_))
        ));
        let mut wire = sketch.to_wire();
        wire.total_elements += 1; // gap-sum mismatch
        assert!(QuantileSketch::from_wire(wire).is_err());
        let crafted =
            |total_elements, runs, max_gap, samples: Vec<(u64, u64)>| opaq_storage::SketchWire {
                total_elements,
                runs,
                max_gap,
                dataset_min: samples[0].0,
                dataset_max: samples[samples.len() - 1].0,
                samples,
            };
        // A run count whose (r−1)(g−1) overflows the quantile phase's slack.
        let wire = crafted(10, u64::MAX / 2, 5, vec![(1, 5), (2, 5)]);
        assert!(matches!(
            QuantileSketch::from_wire(wire),
            Err(OpaqError::IncompatibleSketches(_))
        ));
        // Gaps that sum to total_elements only by wrapping around.
        let wire = crafted(4, 1, u64::MAX, vec![(1, u64::MAX), (2, 3), (3, 2)]);
        assert!(matches!(
            QuantileSketch::from_wire(wire),
            Err(OpaqError::IncompatibleSketches(_))
        ));
    }

    #[test]
    fn memory_sample_points_matches_len() {
        let sketch = sketch_of_runs(vec![(0..100).collect(); 4], 25);
        assert_eq!(sketch.memory_sample_points(), 100);
        assert!(!sketch.is_empty());
    }
}
