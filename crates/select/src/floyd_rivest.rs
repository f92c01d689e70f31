//! Floyd–Rivest SELECT: expected-linear selection with very small constants.
//!
//! Implements the algorithm from Floyd & Rivest, "Expected Time Bounds for
//! Selection" (CACM 1975), cited as `[FR75]` by the OPAQ paper.  The key idea
//! is to recursively select pivots from a small random sample sized so that
//! the target order statistic is sandwiched between two sample order
//! statistics with high probability, shrinking the working range to
//! `O(n^{2/3})` per round.
//!
//! The partition step — the only per-element work — runs on the branchless
//! block kernel ([`crate::partition::partition_three_way_block`]); the
//! sampling logic above it is untouched, and the selected values are exactly
//! those of the scalar implementation.

use crate::partition::{insertion_sort, partition_three_way_block};

const INSERTION_CUTOFF: usize = 64;
/// Range length above which the sampling step is applied (below it a plain
/// three-way quickselect step is cheaper).
const SAMPLING_THRESHOLD: usize = 600;

/// Select the element of 0-based `rank` in `data` using the Floyd–Rivest
/// algorithm.  Partially reorders `data` (see [`crate::quickselect()`] for the
/// post-condition).
///
/// # Panics
/// Panics if `data` is empty or `rank >= data.len()`.
pub fn floyd_rivest_select<T: Ord>(data: &mut [T], rank: usize) -> &T {
    assert!(!data.is_empty(), "cannot select from an empty slice");
    assert!(rank < data.len(), "rank out of bounds");
    let mut lo = 0usize;
    let mut hi = data.len(); // exclusive
    while hi - lo > INSERTION_CUTOFF {
        let len = hi - lo;
        if len > SAMPLING_THRESHOLD {
            // Narrow [lo, hi) to a sub-range that still contains `rank` with
            // high probability by recursing on a sample-bounded window.
            let n = len as f64;
            let i = (rank - lo) as f64;
            let z = (2.0 / 3.0) * n.ln();
            let sd = 0.5
                * (z * n * (n - i) * i / n).sqrt().max(1.0)
                * if i < n / 2.0 { -1.0 } else { 1.0 };
            let sample = z.exp().powf(2.0 / 3.0); // ~ n^{2/3} * (ln n)^{1/3}
            let new_lo = (rank as f64 - i * sample / n + sd).max(lo as f64) as usize;
            let new_hi = ((rank as f64 + (n - i) * sample / n + sd) as usize + 1).min(hi);
            // Recursively place approximate fences; clamp defensively.
            let new_lo = new_lo.clamp(lo, rank);
            let new_hi = new_hi.clamp(rank + 1, hi);
            if new_lo > lo {
                floyd_rivest_inner(data, lo, hi, new_lo);
            }
            if new_hi < hi {
                floyd_rivest_inner(data, lo, hi, new_hi - 1);
            }
            // After fencing, elements outside [new_lo, new_hi) cannot hold the
            // answer only when the fences are exact order statistics — which
            // they are, because floyd_rivest_inner fully selects them.
            lo = new_lo;
            hi = new_hi;
            if hi - lo <= INSERTION_CUTOFF {
                break;
            }
        }
        // One three-way partition step around the middle element of the
        // current window (which after fencing is statistically close to the
        // target order statistic).
        let pivot_rel = (hi - lo) / 2;
        let p = partition_three_way_block(&mut data[lo..hi], pivot_rel);
        let (band_lo, band_hi) = (lo + p.lt, lo + p.gt);
        if rank < band_lo {
            hi = band_lo;
        } else if rank >= band_hi {
            lo = band_hi;
        } else {
            return &data[rank];
        }
    }
    insertion_sort(&mut data[lo..hi]);
    &data[rank]
}

/// Internal driver used to place "fence" order statistics; identical to the
/// public entry point but operating on an explicit window.
fn floyd_rivest_inner<T: Ord>(data: &mut [T], lo: usize, hi: usize, rank: usize) {
    debug_assert!(lo <= rank && rank < hi && hi <= data.len());
    let window = &mut data[lo..hi];
    let _ = crate::quickselect::quickselect_block(window, rank - lo);
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn selects_every_rank_small() {
        let base: Vec<u16> = vec![3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3];
        let mut sorted = base.clone();
        sorted.sort_unstable();
        for (rank, &expected) in sorted.iter().enumerate() {
            let mut work = base.clone();
            assert_eq!(*floyd_rivest_select(&mut work, rank), expected);
        }
    }

    #[test]
    fn large_input_exercises_sampling_path() {
        let n = 50_000usize;
        let data: Vec<u64> = (0..n as u64)
            .map(|i| i.wrapping_mul(6364136223846793005) >> 33)
            .collect();
        let mut sorted = data.clone();
        sorted.sort_unstable();
        for rank in [0, 1, n / 10, n / 2, n - 2, n - 1] {
            let mut work = data.clone();
            assert_eq!(
                *floyd_rivest_select(&mut work, rank),
                sorted[rank],
                "rank {rank}"
            );
        }
    }

    #[test]
    fn duplicate_heavy_input() {
        let mut data: Vec<u32> = (0..20_000).map(|i| i % 7).collect();
        let mut sorted = data.clone();
        sorted.sort_unstable();
        let rank = 13_000;
        assert_eq!(*floyd_rivest_select(&mut data, rank), sorted[rank]);
    }

    #[test]
    fn partial_order_invariant() {
        let mut data: Vec<i64> = (0..10_000)
            .map(|i| ((i * 2654435761_i64) % 5000) - 2500)
            .collect();
        let rank = 7777;
        let val = *floyd_rivest_select(&mut data, rank);
        assert!(data[..rank].iter().all(|x| *x <= val));
        assert!(data[rank + 1..].iter().all(|x| *x >= val));
    }

    proptest! {
        #[test]
        fn matches_sort(
            mut data in proptest::collection::vec(any::<i32>(), 1..2000),
            rank_seed in any::<usize>(),
        ) {
            let rank = rank_seed % data.len();
            let mut sorted = data.clone();
            sorted.sort_unstable();
            prop_assert_eq!(*floyd_rivest_select(&mut data, rank), sorted[rank]);
        }
    }
}
