//! Selection algorithms used by the OPAQ sampling phase.
//!
//! The OPAQ paper (Alsabti, Ranka, Singh — VLDB 1997) derives `s` *regular
//! samples* from every in-memory run of `m` elements: the elements of exact
//! rank `m/s, 2m/s, …, m` within the run.  Finding a single rank is the
//! classical *selection problem*; finding all `s` ranks at once is a
//! *multi-selection* problem which the paper solves in `O(m log s)` by
//! recursive median splitting (§2.1).
//!
//! This crate provides the complete substrate:
//!
//! * [`median_of_medians`] — the deterministic worst-case `O(n)` algorithm of
//!   Blum, Floyd, Pratt, Rivest and Tarjan (cited as `[ea72]` in the paper).
//! * [`floyd_rivest`] — the expected `O(n)` randomized SELECT algorithm of
//!   Floyd and Rivest (cited as `[FR75]`).
//! * [`quickselect`](mod@quickselect) — randomized quickselect over the
//!   scalar partition, and a branchless variant over the block kernel.
//! * [`multiselect`](mod@multiselect) — simultaneous selection of many order
//!   statistics, the workhorse of the sample phase.  It is the paper's
//!   recursive partitioning: each piece takes one exact
//!   [`SelectionStrategy::select`] of its middle rank and recurses on the
//!   ranks to either side, so depth is `⌈log₂(s+1)⌉`.  A selected key that
//!   equals a bound the piece inherited ends that piece's whole band of equal
//!   keys in one pass, which ends constant and few-valued runs.  Slices of
//!   at least [`SPLITTER_TREE_MIN_LEN`] keys with at least 32 ranks are
//!   first *distributed*: 255 splitters from a sorted oversample form an
//!   implicit search tree, one pass sends every key through it into a
//!   per-bucket buffer that is flushed block by block into the slice, the
//!   blocks are swapped in place into value-ordered buckets, and the
//!   recursion then runs only inside each bucket on the ranks that fall in
//!   it.  Runs with too few distinct splitters (constant or few-valued
//!   data) skip the buckets.
//! * [`partition`] — three-way partitioning primitives shared by the
//!   algorithms above, duplicate-robust by construction: the scalar Dutch
//!   national flag scan *and* a branchless BlockQuicksort-style kernel
//!   ([`partition::partition_three_way_block`]) that replaces the
//!   per-element comparison branch with offset-buffer fills and bulk swaps.
//!
//! All algorithms operate in place on `&mut [T]` where `T: Ord`, never
//! allocate proportionally to the input (the distribution's bucket buffers
//! have a fixed size), and are exact: they place the
//! requested order statistic at its index and return a reference to it.
//! Because selection is exact, **every strategy returns the same values** —
//! the choice only affects constant factors, so OPAQ sketches are
//! bit-identical across strategies and kernels.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod floyd_rivest;
pub mod median_of_medians;
pub mod multiselect;
pub mod partition;
pub mod quickselect;

pub use floyd_rivest::floyd_rivest_select;
pub use median_of_medians::median_of_medians_select;
pub use multiselect::{
    multiselect, multiselect_into, multiselect_with, regular_sample_ranks, SPLITTER_TREE_MIN_LEN,
};
pub use quickselect::{quickselect, quickselect_block};

/// The exact single-rank selector that multi-selection makes every rank
/// split with, and the strategy the OPAQ sample phase is configured with.
///
/// All strategies are exact, so they select identical values; they differ
/// only in constant factors and worst-case guarantees.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SelectionStrategy {
    /// The standard library's `select_nth_unstable`: introselect (Musser,
    /// 1997) with a median-of-medians fallback, so deterministic and
    /// worst-case linear (default — RNG-free, and the fastest strategy in
    /// `BENCH_select.json` on every row but constant runs).
    #[default]
    Introselect,
    /// Randomized quickselect with median-of-three pivoting over the scalar
    /// Dutch-national-flag partition (the paper notes the randomized
    /// selection "has small constant and is practically very efficient";
    /// kept as the reference scalar path).
    Quickselect,
    /// Deterministic median-of-medians (worst-case linear, `[ea72]`).
    MedianOfMedians,
    /// Floyd–Rivest SELECT (expected linear with very small constants,
    /// `[FR75]`); its partition step runs on the block kernel.
    FloydRivest,
}

impl SelectionStrategy {
    /// Every strategy, in a fixed order (test and benchmark helper).
    pub const ALL: [SelectionStrategy; 4] = [
        SelectionStrategy::Introselect,
        SelectionStrategy::Quickselect,
        SelectionStrategy::MedianOfMedians,
        SelectionStrategy::FloydRivest,
    ];

    /// Select the element of the given `rank` (0-based) within `data`,
    /// partially reordering `data` so that `data[rank]` holds the answer,
    /// everything before it is `<=` and everything after it is `>=`.
    ///
    /// # Panics
    /// Panics if `data` is empty or `rank >= data.len()`.
    pub fn select<'a, T: Ord>(&self, data: &'a mut [T], rank: usize) -> &'a T {
        assert!(
            rank < data.len(),
            "selection rank {rank} out of bounds for slice of length {}",
            data.len()
        );
        match self {
            SelectionStrategy::Introselect => data.select_nth_unstable(rank).1,
            SelectionStrategy::Quickselect => quickselect(data, rank),
            SelectionStrategy::MedianOfMedians => median_of_medians_select(data, rank),
            SelectionStrategy::FloydRivest => floyd_rivest_select(data, rank),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_all_strategies(mut data: Vec<u64>) {
        let mut sorted = data.clone();
        sorted.sort_unstable();
        for strategy in SelectionStrategy::ALL {
            for rank in [0, data.len() / 3, data.len() / 2, data.len() - 1] {
                let mut work = data.clone();
                let got = *strategy.select(&mut work, rank);
                assert_eq!(got, sorted[rank], "{strategy:?} rank {rank}");
            }
        }
        // keep `data` used for clarity
        data.clear();
    }

    #[test]
    fn strategies_agree_with_sort_small() {
        check_all_strategies(vec![5, 3, 9, 1, 7, 7, 2, 8, 0, 4]);
    }

    #[test]
    fn strategies_agree_with_sort_duplicates() {
        check_all_strategies(vec![4; 33]);
        check_all_strategies(vec![1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2]);
    }

    #[test]
    fn strategies_agree_with_sort_larger() {
        let data: Vec<u64> = (0..1000).map(|i| (i * 2654435761_u64) % 4096).collect();
        check_all_strategies(data);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn select_out_of_bounds_panics() {
        let mut data = vec![1_u64, 2, 3];
        SelectionStrategy::Quickselect.select(&mut data, 3);
    }

    #[test]
    fn default_strategy_is_introselect() {
        assert_eq!(SelectionStrategy::default(), SelectionStrategy::Introselect);
    }
}
