//! Multi-selection: place many order statistics simultaneously.
//!
//! The OPAQ sample phase needs the elements of rank `m/s, 2m/s, …, m` inside
//! every run.  The paper's recipe (§2.1) is recursive median splitting: find
//! the median of the run, split, recurse on both halves until the sub-lists
//! reach size `m/s`, then take each sub-list maximum.  That is exactly
//! multi-selection, and its general formulation — split the rank set around
//! its middle, then solve the left ranks in the left part and the right
//! ranks in the right part — achieves the same `O(m log s)` bound while
//! supporting arbitrary rank sets (the quantile-phase unit tests use
//! irregular rank sets too).
//!
//! A split only needs a pivot that falls *between* ranks, not the exact
//! order statistic of one of them, so one partition pass is enough.  That is
//! the sampling idea of Floyd and Rivest (CACM 1975) applied to a rank set.
//! The *rank-splitting driver* does this for every piece:
//!
//! * **Pivot.**  An evenly spaced sample of 15 keys is insertion-sorted, and
//!   the sample key at the fraction of the piece where the split aims (the
//!   midpoint of the two middle ranks, or a lone rank) is the pivot.
//! * **One pass.**  Keys below the pivot move to the front in one branchless
//!   block pass; the pivot is parked right after them, where it is its own
//!   order statistic; the ranks split three ways and both sides recurse.
//! * **Duplicates.**  When the pivot equals the piece's known lower bound
//!   (the pivot of the split that made the piece), the keys equal to it are
//!   the piece's minimum: one pass moves them to the front and settles every
//!   rank among them.  Constant and few-valued pieces end this way.
//! * **Guard.**  When a split leaves more than 7/8 of a piece on a side that
//!   holds more than half of its ranks, that side's next step is one exact
//!   [`SelectionStrategy::select`] of its middle rank.  Depth stays
//!   `O(log m)` whatever the samples hold.
//!
//! Pieces of at most 32 keys are sorted outright.
//!
//! Taken alone, the driver still makes about `log₂ s` passes over the whole
//! run, and a 1M-key run does not fit in cache, so every level pays a full
//! trip to memory.  Large rank sets on large slices therefore first take a
//! *splitter-tree* step that replaces the top levels with one classification
//! pass, after the classifier of Super Scalar Sample Sort (Sanders & Winkel,
//! ESA 2004) and the in-place distribution of IPS⁴o (Axtmann et al.,
//! ESA 2017):
//!
//! 1. **Classify.**  An evenly spaced oversample of `16 × 256` keys is sorted
//!    and every 16th key becomes one of 255 splitters, laid out as an
//!    implicit (Eytzinger) search tree.  Each key descends the tree with
//!    branch-free comparisons, eight keys interleaved, and its bucket number
//!    lands in a one-byte *oracle*.  Bucket `i` holds the keys in
//!    `(splitter[i-1], splitter[i]]`, so buckets are ordered by value.
//! 2. **Permute.**  The oracle drives an American-flag cycle walk that moves
//!    every key into its bucket in place — no second run-sized buffer.
//! 3. **Split inside buckets.**  The rank-splitting driver runs inside each
//!    bucket on the ranks that fall in it: a few ranks over a few thousand
//!    cache-resident keys, so a handful of one-pass splits.
//!
//! The only scratch is the oracle (one byte per key) and the oversample.
//! Either way every requested rank holds its exact order statistic, with
//! `<=` on its left and `>=` on its right.  So the selected values, and
//! every OPAQ sketch built from them, do not depend on which path ran.
//!
//! Slices shorter than [`SPLITTER_TREE_MIN_LEN`] and rank sets of fewer than
//! eight ranks go to the driver directly, which is cheaper there.  So do
//! runs whose oversample yields fewer than 32 distinct splitters (constant
//! or few-valued data): their keys would collapse into a handful of buckets,
//! while the driver's duplicate rule ends them in a few passes.

use crate::partition::{block_partition_by, insertion_sort};
use crate::SelectionStrategy;

/// Return the 0-based ranks of the `s` regular samples of a run of length `m`:
/// the elements of 1-based rank `⌈m/s⌉, ⌈2m/s⌉, …, m`.
///
/// When `s` does not divide `m` the ranks are spread as evenly as possible
/// (the paper assumes divisibility "without loss of generality" and notes the
/// algorithm is easily adjusted otherwise); the final sample is always the
/// run maximum, which is what the error-bound proofs rely on.
///
/// # Panics
/// Panics if `s == 0` or `s > m`.
pub fn regular_sample_ranks(m: usize, s: usize) -> Vec<usize> {
    assert!(s > 0, "sample size must be positive");
    assert!(s <= m, "sample size {s} cannot exceed run length {m}");
    (1..=s)
        .map(|i| {
            // 1-based rank ⌈i*m/s⌉ converted to a 0-based index.
            let rank_1based = (i * m).div_ceil(s);
            rank_1based - 1
        })
        .collect()
}

/// Simultaneously select all the order statistics listed in `ranks`
/// (0-based, may be unsorted but must be unique and in-bounds), using the
/// default [`SelectionStrategy`].
///
/// On return, `data[r]` holds the order statistic of rank `r` for every
/// `r ∈ ranks`, and the slice is partitioned consistently around those
/// positions.  Returns the selected values in ascending rank order.
///
/// The bound is `T: Copy` (OPAQ keys are fixed-width scalars): selected
/// values are plain loads from the reordered slice, never clones through a
/// reference chain.
///
/// # Panics
/// Panics if any rank is out of bounds or if `ranks` contains duplicates.
pub fn multiselect<T: Ord + Copy>(data: &mut [T], ranks: &[usize]) -> Vec<T> {
    multiselect_with(data, ranks, SelectionStrategy::default())
}

/// [`multiselect`] with an explicit single-rank [`SelectionStrategy`].
pub fn multiselect_with<T: Ord + Copy>(
    data: &mut [T],
    ranks: &[usize],
    strategy: SelectionStrategy,
) -> Vec<T> {
    let mut out = Vec::with_capacity(ranks.len());
    multiselect_into(data, ranks, strategy, &mut out);
    out
}

/// [`multiselect_with`] writing the selected values into a caller-provided
/// buffer (cleared first) instead of allocating a fresh one — the hot-path
/// entry point used by the sample phase.
///
/// When `ranks` is already strictly increasing (as produced by
/// [`regular_sample_ranks`]) no rank copy is made; unsorted rank sets fall
/// back to one scratch copy for sorting.  Slices of at least
/// [`SPLITTER_TREE_MIN_LEN`] keys with eight or more ranks also allocate the
/// splitter tree's scratch (one byte per key plus a 4096-key oversample),
/// freed before the call returns; smaller calls allocate nothing beyond what
/// `out` already owns.
pub fn multiselect_into<T: Ord + Copy>(
    data: &mut [T],
    ranks: &[usize],
    strategy: SelectionStrategy,
    out: &mut Vec<T>,
) {
    out.clear();
    if ranks.windows(2).all(|w| w[0] < w[1]) {
        // Pre-sorted (and therefore duplicate-free): select straight off the
        // caller's slice.
        check_bounds(ranks, data.len());
        select_sorted(data, ranks, strategy);
        out.extend(ranks.iter().map(|&r| data[r]));
    } else {
        let mut sorted_ranks: Vec<usize> = ranks.to_vec();
        sorted_ranks.sort_unstable();
        for pair in sorted_ranks.windows(2) {
            assert!(
                pair[0] != pair[1],
                "duplicate rank {} in multiselect",
                pair[0]
            );
        }
        check_bounds(&sorted_ranks, data.len());
        select_sorted(data, &sorted_ranks, strategy);
        out.extend(sorted_ranks.iter().map(|&r| data[r]));
    }
}

fn check_bounds(sorted_ranks: &[usize], len: usize) {
    if let Some(&max) = sorted_ranks.last() {
        assert!(
            max < len,
            "rank {max} out of bounds for slice of length {len}"
        );
    }
}

/// Slices shorter than this skip the splitter tree.  The splitter
/// tree's 4096-key oversample and 256 buckets pay off only on slices many
/// times their size.  With one rank per 1000 keys, classify-and-permute
/// followed by the driver measured about 1.5× faster than the driver alone
/// at this floor; with 8 ranks the two tied.
pub const SPLITTER_TREE_MIN_LEN: usize = 1 << 16;

/// Rank sets smaller than this skip the splitter tree: with few ranks the
/// driver makes only a few passes, which beat classify-and-permute.
const SPLITTER_TREE_MIN_RANKS: usize = 8;

/// Depth of the splitter tree; it has `BUCKETS - 1` splitters.
const LOG_BUCKETS: usize = 8;
const BUCKETS: usize = 1 << LOG_BUCKETS;

/// Oversample keys per bucket.
const OVERSAMPLE: usize = 16;

/// Fewer distinct splitters than this means a few-valued run: a handful of
/// buckets would hold nearly every key, so classifying buys nothing.
const MIN_DISTINCT_SPLITTERS: usize = BUCKETS / 8;

/// Keys classified side by side, so their tree descents overlap.
const UNROLL: usize = 8;

/// Place every rank of `ranks` (sorted, unique, in bounds): the splitter
/// tree first where it pays, then the rank-splitting driver.
fn select_sorted<T: Ord + Copy>(data: &mut [T], ranks: &[usize], strategy: SelectionStrategy) {
    if data.len() < SPLITTER_TREE_MIN_LEN || ranks.len() < SPLITTER_TREE_MIN_RANKS {
        split_ranks(data, 0, ranks, None, false, strategy);
        return;
    }
    let Some(tree) = splitter_tree(data) else {
        split_ranks(data, 0, ranks, None, false, strategy);
        return;
    };
    let mut oracle = vec![0u8; data.len() + 1];
    let bounds = classify(data, &tree, &mut oracle[..data.len()]);
    permute(data, &oracle, &bounds);
    drop(oracle);

    // Buckets are value-ordered, so each rank is solved inside its bucket.
    let mut first = 0;
    for b in 0..BUCKETS {
        let (lo, hi) = (bounds[b], bounds[b + 1]);
        let last = first + ranks[first..].partition_point(|&r| r < hi);
        let bucket = &mut data[lo..hi];
        split_ranks(bucket, lo, &ranks[first..last], None, false, strategy);
        first = last;
    }
}

/// Build the splitter tree from an evenly spaced, sorted oversample of
/// `data`, or `None` when it has fewer than [`MIN_DISTINCT_SPLITTERS`]
/// distinct splitters.
///
/// The tree is implicit (Eytzinger order): node `i` has children `2i` and
/// `2i + 1`, the root is node 1 and node 0 is unused.  An in-order walk
/// yields the splitters in ascending order.
fn splitter_tree<T: Ord + Copy>(data: &[T]) -> Option<[T; BUCKETS]> {
    let samples = OVERSAMPLE * BUCKETS;
    let stride = data.len() / samples;
    debug_assert!(stride > 0, "slice below the splitter-tree floor");
    let mut sample: Vec<T> = (0..samples)
        .map(|i| data[i * stride + stride / 2])
        .collect();
    sample.sort_unstable();
    let splitters: Vec<T> = (1..BUCKETS).map(|b| sample[b * OVERSAMPLE]).collect();
    let distinct = 1 + splitters.windows(2).filter(|w| w[0] < w[1]).count();
    if distinct < MIN_DISTINCT_SPLITTERS {
        return None;
    }
    let mut tree = [splitters[0]; BUCKETS];
    fill_tree(&mut tree, 1, &splitters);
    Some(tree)
}

/// Lay the sorted `splitters` out under node `node` in Eytzinger order.
fn fill_tree<T: Copy>(tree: &mut [T; BUCKETS], node: usize, splitters: &[T]) {
    if splitters.is_empty() {
        return;
    }
    let mid = splitters.len() / 2;
    tree[node] = splitters[mid];
    fill_tree(tree, 2 * node, &splitters[..mid]);
    fill_tree(tree, 2 * node + 1, &splitters[mid + 1..]);
}

/// The bucket of `key`: the number of splitters strictly below it.
///
/// Nodes stay below `BUCKETS` while descending, so masking the index changes
/// nothing but lets the compiler drop the bounds check.
#[inline(always)]
fn bucket_of<T: Ord>(tree: &[T; BUCKETS], key: &T) -> usize {
    let mut node = 1;
    for _ in 0..LOG_BUCKETS {
        node = 2 * node + usize::from(tree[node & (BUCKETS - 1)] < *key);
    }
    node - BUCKETS
}

/// Write every key's bucket into `oracle` and return the bucket bounds:
/// bucket `b` will occupy `bounds[b]..bounds[b + 1]`.
fn classify<T: Ord>(data: &[T], tree: &[T; BUCKETS], oracle: &mut [u8]) -> [usize; BUCKETS + 1] {
    let mut counts = [0usize; BUCKETS];
    let mut keys = data.chunks_exact(UNROLL);
    let mut bytes = oracle.chunks_exact_mut(UNROLL);
    for (keys, bytes) in (&mut keys).zip(&mut bytes) {
        // The descents are independent, so the eight loads per level
        // overlap instead of waiting on each other.
        let mut nodes = [1usize; UNROLL];
        for _ in 0..LOG_BUCKETS {
            for (node, key) in nodes.iter_mut().zip(keys) {
                *node = 2 * *node + usize::from(tree[*node & (BUCKETS - 1)] < *key);
            }
        }
        for (byte, node) in bytes.iter_mut().zip(nodes) {
            let bucket = node - BUCKETS;
            *byte = bucket as u8;
            counts[bucket & (BUCKETS - 1)] += 1;
        }
    }
    for (byte, key) in bytes.into_remainder().iter_mut().zip(keys.remainder()) {
        let bucket = bucket_of(tree, key);
        *byte = bucket as u8;
        counts[bucket] += 1;
    }
    let mut bounds = [0usize; BUCKETS + 1];
    for (b, &count) in counts.iter().enumerate() {
        bounds[b + 1] = bounds[b] + count;
    }
    bounds
}

/// Move every key into its bucket, in place: bucket `b` ends up in
/// `data[bounds[b]..bounds[b + 1]]`.
///
/// American-flag cycle walk: take the first unplaced key of a bucket, drop
/// it at the write head of the bucket the oracle names, pick up the key it
/// displaces, and so on until a key of the starting bucket comes back.  Every
/// slot before a write head is final and never read again, so the oracle
/// needs no updates.
///
/// The walk is a chain of dependent loads: where the next key goes depends
/// on the bucket of the key just displaced.  `waiting[c]` caches the bucket
/// of the key at head `c`, loaded from the oracle when the head last moved,
/// so each step of the chain reads a 256-byte table instead of waiting for
/// an oracle load from far away.  `oracle` has one spare byte at the end so
/// that load never runs off it.
fn permute<T: Copy>(data: &mut [T], oracle: &[u8], bounds: &[usize; BUCKETS + 1]) {
    debug_assert_eq!(oracle.len(), data.len() + 1);
    let mut heads = [0usize; BUCKETS];
    heads.copy_from_slice(&bounds[..BUCKETS]);
    let mut waiting = [0u8; BUCKETS];
    for (waiting, &head) in waiting.iter_mut().zip(&heads) {
        *waiting = oracle[head];
    }
    for b in 0..BUCKETS {
        let end = bounds[b + 1];
        while heads[b] < end {
            let start = heads[b];
            let mut bucket = usize::from(waiting[b]);
            heads[b] = start + 1;
            waiting[b] = oracle[start + 1];
            if bucket == b {
                continue;
            }
            let mut key = data[start];
            while bucket != b {
                let slot = heads[bucket];
                let displaced_bucket = waiting[bucket];
                heads[bucket] = slot + 1;
                waiting[bucket] = oracle[slot + 1];
                key = std::mem::replace(&mut data[slot], key);
                bucket = usize::from(displaced_bucket);
            }
            data[start] = key;
        }
    }
}

/// Keys in the evenly spaced sample that picks each split's pivot.
const PIVOT_SAMPLE: usize = 15;

/// Pieces this short are sorted outright.
const SORT_CUTOFF: usize = 32;

#[cfg(test)]
thread_local! {
    /// Exact selections the guard made on this thread.
    static GUARD_SELECTS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// The rank-splitting driver: place every rank of `ranks` inside `data`.
///
/// `offset` is the absolute index of `data[0]` in the original slice;
/// `ranks` are absolute, sorted, and all fall inside
/// `[offset, offset + data.len())`.  `floor`, when known, is a key no
/// greater than any key of the piece: the pivot of the split that made it.
/// `guarded` asks for one exact selection in place of a sampled split.
/// Borrows sub-slices of both `data` and `ranks` — no allocation.
fn split_ranks<T: Ord + Copy>(
    data: &mut [T],
    offset: usize,
    ranks: &[usize],
    floor: Option<T>,
    guarded: bool,
    strategy: SelectionStrategy,
) {
    if ranks.is_empty() {
        return;
    }
    let len = data.len();
    if len <= SORT_CUTOFF {
        insertion_sort(data);
        return;
    }
    // The pivot aims between the two middle ranks, or at a lone rank.
    let mid = ranks.len() / 2;
    let target = match mid {
        0 => ranks[0],
        _ => ranks[mid - 1] + (ranks[mid] - ranks[mid - 1]) / 2,
    };
    let sampled = sample_pivot(data, target - offset);
    let pivot = data[sampled];
    if floor == Some(pivot) {
        // No key is below the pivot, so the keys equal to it are the
        // piece's minimum.  Moving them to the front settles every rank
        // among them; this is what ends constant and few-valued pieces.
        let eq = block_partition_by(data, |key| *key == pivot);
        let first = ranks.partition_point(|&r| r < offset + eq);
        let (rest, rest_ranks) = (&mut data[eq..], &ranks[first..]);
        let guarded = lopsided(len, ranks.len(), rest.len(), rest_ranks.len());
        split_ranks(rest, offset + eq, rest_ranks, floor, guarded, strategy);
        return;
    }
    let (at, pivot) = if guarded {
        #[cfg(test)]
        GUARD_SELECTS.with(|count| count.set(count.get() + 1));
        let rel = ranks[mid] - offset;
        let _ = strategy.select(data, rel);
        (rel, data[rel])
    } else {
        // One pass: keys below the pivot to the front, then the pivot
        // parked right after them, where it is its own order statistic.
        data.swap(sampled, len - 1);
        let lt = block_partition_by(&mut data[..len - 1], |key| *key < pivot);
        data.swap(lt, len - 1);
        (lt, pivot)
    };
    // `<=` left of `at` and `>=` right of it, so the ranks split three ways.
    let split = offset + at;
    let lo = ranks.partition_point(|&r| r < split);
    let hi = lo + usize::from(ranks.get(lo) == Some(&split));
    let (left, right) = data.split_at_mut(at);
    let right = &mut right[1..];
    let (left_ranks, right_ranks) = (&ranks[..lo], &ranks[hi..]);
    let guard_left = lopsided(len, ranks.len(), left.len(), left_ranks.len());
    let guard_right = lopsided(len, ranks.len(), right.len(), right_ranks.len());
    split_ranks(left, offset, left_ranks, floor, guard_left, strategy);
    let floor = Some(pivot);
    split_ranks(right, split + 1, right_ranks, floor, guard_right, strategy);
}

/// Whether a split left more than 7/8 of a piece on a side that holds more
/// than half of its ranks.  That side's next step is an exact selection of
/// its middle rank, which halves its ranks for sure, so every second step
/// down any path shrinks the piece by 7/8 or halves its ranks: depth stays
/// `O(log m)` whatever the samples hold.
fn lopsided(len: usize, ranks: usize, side_len: usize, side_ranks: usize) -> bool {
    side_len * 8 > len * 7 && side_ranks * 2 > ranks
}

/// Sort an evenly spaced sample of [`PIVOT_SAMPLE`] keys of `data` in place
/// and return the index of the one to split at, for a split aimed at
/// position `target`.
///
/// Sample key `k` lands near rank `(k + 1)·len / 16`.  The pick counts from
/// whichever end `target` is nearer and takes the key one slot past
/// `target`'s fraction, toward the middle.  So a lone rank most likely
/// falls on the smaller side, and a split between two middle ranks leans
/// toward halving the piece.
fn sample_pivot<T: Ord>(data: &mut [T], target: usize) -> usize {
    let len = data.len();
    let stride = len / PIVOT_SAMPLE;
    let slot = |k: usize| k * stride + stride / 2;
    for i in 1..PIVOT_SAMPLE {
        let mut j = i;
        while j > 0 && data[slot(j - 1)] > data[slot(j)] {
            data.swap(slot(j - 1), slot(j));
            j -= 1;
        }
    }
    let low_half = target < len / 2;
    let from_end = if low_half { target } else { len - 1 - target };
    let k = from_end * (PIVOT_SAMPLE + 1) / len + 1;
    slot(if low_half { k } else { PIVOT_SAMPLE - 1 - k })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn regular_ranks_divisible() {
        // m = 12, s = 4 -> 1-based ranks 3, 6, 9, 12 -> 0-based 2, 5, 8, 11.
        assert_eq!(regular_sample_ranks(12, 4), vec![2, 5, 8, 11]);
    }

    #[test]
    fn regular_ranks_not_divisible() {
        // m = 10, s = 3 -> 1-based ranks ceil(10/3)=4, ceil(20/3)=7, 10.
        assert_eq!(regular_sample_ranks(10, 3), vec![3, 6, 9]);
    }

    #[test]
    fn regular_ranks_always_end_at_max() {
        for m in [1usize, 2, 7, 100, 1001] {
            for s in [1usize, 2, 3, 5] {
                if s <= m {
                    let ranks = regular_sample_ranks(m, s);
                    assert_eq!(ranks.len(), s);
                    assert_eq!(*ranks.last().unwrap(), m - 1, "m={m} s={s}");
                    assert!(ranks.windows(2).all(|w| w[0] < w[1]), "strictly increasing");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "cannot exceed")]
    fn regular_ranks_s_too_large_panics() {
        regular_sample_ranks(3, 4);
    }

    #[test]
    fn multiselect_matches_sort() {
        let base: Vec<u32> = (0..200).map(|i| (i * 7919) % 151).collect();
        let ranks = vec![0usize, 10, 50, 99, 150, 199];
        let mut sorted = base.clone();
        sorted.sort_unstable();
        let mut work = base.clone();
        let picked = multiselect(&mut work, &ranks);
        let expected: Vec<u32> = ranks.iter().map(|&r| sorted[r]).collect();
        assert_eq!(picked, expected);
        // In-place positions must also be correct.
        for &r in &ranks {
            assert_eq!(work[r], sorted[r]);
        }
    }

    #[test]
    fn multiselect_unsorted_rank_input() {
        let base: Vec<i32> = vec![5, -2, 8, 0, 3, 3, 9, -7, 1, 4];
        let mut sorted = base.clone();
        sorted.sort_unstable();
        let mut work = base.clone();
        let picked = multiselect(&mut work, &[7, 0, 3]);
        assert_eq!(picked, vec![sorted[0], sorted[3], sorted[7]]);
    }

    #[test]
    fn multiselect_all_strategies_agree() {
        let base: Vec<u64> = (0..5000).map(|i| (i * 2654435761) % 9973).collect();
        let ranks = regular_sample_ranks(base.len(), 16);
        let mut sorted = base.clone();
        sorted.sort_unstable();
        let expected: Vec<u64> = ranks.iter().map(|&r| sorted[r]).collect();
        for strategy in SelectionStrategy::ALL {
            let mut work = base.clone();
            assert_eq!(
                multiselect_with(&mut work, &ranks, strategy),
                expected,
                "{strategy:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "duplicate rank")]
    fn multiselect_duplicate_ranks_panic() {
        let mut data = vec![1, 2, 3, 4];
        multiselect(&mut data, &[1, 1]);
    }

    #[test]
    fn multiselect_single_element_slice() {
        let mut data = vec![42_u8];
        assert_eq!(multiselect(&mut data, &[0]), vec![42]);
    }

    #[test]
    fn splitter_tree_collapses_on_few_valued_runs() {
        let len = SPLITTER_TREE_MIN_LEN;
        let constant = vec![9_u64; len];
        assert!(splitter_tree(&constant).is_none());
        let few: Vec<u64> = (0..len as u64).map(|i| (i * 2654435761) % 3).collect();
        assert!(splitter_tree(&few).is_none());
        let uniform: Vec<u64> = (0..len as u64)
            .map(|i| (i * 2654435761) % 1_000_003)
            .collect();
        assert!(splitter_tree(&uniform).is_some());
    }

    #[test]
    fn buckets_are_value_ordered_and_in_place() {
        let len = SPLITTER_TREE_MIN_LEN + 12_345;
        let mut data: Vec<u64> = (0..len as u64).map(|i| (i * 2654435761) % 50_021).collect();
        let mut expected = data.clone();
        expected.sort_unstable();
        let tree = splitter_tree(&data).expect("enough distinct splitters");
        let mut oracle = vec![0u8; len + 1];
        let bounds = classify(&data, &tree, &mut oracle[..len]);
        for (key, &bucket) in data.iter().zip(&oracle) {
            assert_eq!(usize::from(bucket), bucket_of(&tree, key));
        }
        permute(&mut data, &oracle, &bounds);
        for b in 0..BUCKETS {
            let bucket = &data[bounds[b]..bounds[b + 1]];
            assert!(
                bucket.iter().all(|key| bucket_of(&tree, key) == b),
                "bucket {b}"
            );
        }
        data.sort_unstable();
        assert_eq!(data, expected, "permute must only move keys");
    }

    fn guard_selects() -> usize {
        GUARD_SELECTS.with(std::cell::Cell::get)
    }

    #[test]
    fn guard_takes_over_when_the_sample_holds_the_extremes() {
        // The 15 largest keys sit exactly where the driver samples, so its
        // first pivot is one of them and the split leaves all but a few
        // keys on the side with the ranks.
        let len = 10_000;
        let stride = len / PIVOT_SAMPLE;
        let mut data: Vec<u64> = (0..len as u64).collect();
        for k in 0..PIVOT_SAMPLE {
            data.swap(k * stride + stride / 2, len - 1 - k);
        }
        let ranks = regular_sample_ranks(len, 4);
        let before = guard_selects();
        let picked = multiselect(&mut data, &ranks);
        assert!(guard_selects() > before, "the guard never engaged");
        let expected: Vec<u64> = ranks.iter().map(|&r| r as u64).collect();
        assert_eq!(picked, expected);
        data.sort_unstable();
        assert!(data.iter().copied().eq(0..len as u64));
    }

    #[test]
    fn constant_runs_end_without_the_guard() {
        // The first split leaves everything but the pivot on one side; the
        // next pivot equals that piece's lower bound, so one pass ends it.
        let mut data = vec![7_u32; 50_000];
        let ranks = regular_sample_ranks(data.len(), 500);
        let before = guard_selects();
        assert!(multiselect(&mut data, &ranks).iter().all(|&v| v == 7));
        assert_eq!(guard_selects(), before);
    }

    proptest! {
        #[test]
        fn multiselect_regular_samples_match_sort(
            data in proptest::collection::vec(any::<u32>(), 1..500),
            s_seed in 1usize..32,
        ) {
            let m = data.len();
            let s = s_seed.min(m);
            let ranks = regular_sample_ranks(m, s);
            let mut sorted = data.clone();
            sorted.sort_unstable();
            let mut work = data.clone();
            let picked = multiselect(&mut work, &ranks);
            let expected: Vec<u32> = ranks.iter().map(|&r| sorted[r]).collect();
            prop_assert_eq!(picked, expected);
        }
    }
}
