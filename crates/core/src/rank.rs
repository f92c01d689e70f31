//! Rank estimation for arbitrary values (§4).
//!
//! "The sorted sample list can obviously be used to estimate the rank of any
//! arbitrary element in the whole data set.  This does not require any extra
//! passes over the entire data set."  Given a value `v`, every sample `≤ v`
//! guarantees `gap` elements `≤ v`; beyond the covered prefix each run can
//! hide at most `g − 1` additional elements `≤ v` before its next sample.

use crate::sketch::QuantileSketch;
use crate::Key;

/// Deterministic bounds on the rank of a value: the number of dataset
/// elements less than or equal to it lies in `[min_rank, max_rank]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RankBounds {
    /// Guaranteed minimum number of elements `≤ value`.
    pub min_rank: u64,
    /// Guaranteed maximum number of elements `≤ value`.
    pub max_rank: u64,
}

impl RankBounds {
    /// Width of the rank interval.
    pub fn width(&self) -> u64 {
        self.max_rank - self.min_rank
    }

    /// The corresponding bounds on the quantile fraction `rank / n`.
    pub fn phi_bounds(&self, n: u64) -> (f64, f64) {
        assert!(n > 0, "dataset size must be positive");
        (
            self.min_rank as f64 / n as f64,
            self.max_rank as f64 / n as f64,
        )
    }
}

/// Compute [`RankBounds`] for `value` from a sketch.
pub fn rank_bounds<K: Key>(sketch: &QuantileSketch<K>, value: K) -> RankBounds {
    let covered = sketch.values().partition_point(|&v| v <= value);
    let min_rank = covered.checked_sub(1).map_or(0, |i| sketch.prefix()[i]);
    // r(g−1) = g + (r−1)(g−1) − 1, so it fits wherever Lemma 1's bound does.
    let slack = sketch.runs() * (sketch.max_gap().saturating_sub(1));
    let max_rank = min_rank.saturating_add(slack).min(sketch.total_elements());
    RankBounds { min_rank, max_rank }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sample_phase::sample_run;

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

    #[test]
    fn rank_bounds_enclose_true_rank() {
        let data: Vec<u64> = (0..10_000).map(|i| (i * 48271) % 9973).collect();
        let mut sorted = data.clone();
        sorted.sort_unstable();
        let sketch = sketch_of(data, 1000, 100);
        for value in [0u64, 13, 500, 5000, 9000, 9972, 20_000] {
            let truth = sorted.partition_point(|&x| x <= value) as u64;
            let rb = sketch.rank_bounds(value);
            assert!(
                rb.min_rank <= truth && truth <= rb.max_rank,
                "value {value}: true rank {truth} outside [{}, {}]",
                rb.min_rank,
                rb.max_rank
            );
        }
    }

    #[test]
    fn rank_bound_width_is_limited_by_runs_times_gap() {
        let data: Vec<u64> = (0..10_000).collect();
        let sketch = sketch_of(data, 1000, 100);
        let rb = sketch.rank_bounds(5000);
        // r = 10 runs, g = 10 -> width <= 10 * 9 = 90.
        assert!(rb.width() <= 90, "width {}", rb.width());
    }

    #[test]
    fn value_below_everything_has_zero_min_rank() {
        let data: Vec<u64> = (100..200).collect();
        let sketch = sketch_of(data, 50, 10);
        let rb = sketch.rank_bounds(5);
        assert_eq!(rb.min_rank, 0);
        assert!(
            rb.max_rank <= 10,
            "only per-run slack remains: {}",
            rb.max_rank
        );
    }

    #[test]
    fn value_above_everything_has_full_rank() {
        let data: Vec<u64> = (0..100).collect();
        let sketch = sketch_of(data, 50, 10);
        let rb = sketch.rank_bounds(1_000_000);
        assert_eq!(rb.min_rank, 100);
        assert_eq!(rb.max_rank, 100);
    }

    #[test]
    fn helpers() {
        let rb = RankBounds {
            min_rank: 10,
            max_rank: 30,
        };
        assert_eq!(rb.width(), 20);
        let (lo, hi) = rb.phi_bounds(100);
        assert!((lo - 0.1).abs() < 1e-12 && (hi - 0.3).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn phi_bounds_zero_n_panics() {
        RankBounds {
            min_rank: 0,
            max_rank: 0,
        }
        .phi_bounds(0);
    }
}
