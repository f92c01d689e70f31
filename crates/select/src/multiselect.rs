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
//! Each piece takes one exact selection of its middle rank with
//! `select_nth_unstable`, which leaves `<=` keys on the left and `>=` keys
//! on the right; the ranks to either side recurse into their part.  So the
//! depth is `⌈log₂(s+1)⌉`, and since that selection is worst-case linear the
//! bound is `O(m log s)` with no guard.  Every piece also carries the
//! inclusive floor and ceiling its splits gave it:
//!
//! * **Floor.**  When the selected key equals the floor, every key left of it
//!   equals it too: one `==` pass gathers its copies on the right and settles
//!   every rank in that band.
//! * **Ceiling.**  The mirror image: one `<` pass settles the band of keys
//!   equal to the ceiling.
//! * A piece whose floor equals its ceiling is constant, so already done.
//!
//! Constant and few-valued pieces end in a constant number of selections.
//!
//! Taken alone, the recursion still makes about `log₂ s` passes over the
//! whole run, and a 1M-key run does not fit in cache, so every level pays a
//! full trip to memory.  Large rank sets on large slices therefore first take
//! a *splitter-tree* step that replaces the top levels with one
//! distribution pass, after the classifier of Super Scalar Sample Sort
//! (Sanders & Winkel, ESA 2004) and the block-wise in-place distribution of
//! IPS⁴o (Axtmann et al., ESA 2017):
//!
//! 1. **Distribute.**  An evenly spaced oversample of `16 × 256` keys is
//!    sorted and every 16th key becomes one of 255 splitters, laid out as an
//!    implicit (Eytzinger) search tree.  Bucket `i` holds the keys in
//!    `(splitter[i-1], splitter[i]]`, so buckets are ordered by value.  One
//!    pass descends the tree with branch-free comparisons, eight keys
//!    interleaved, and appends each key to its bucket's buffer of 128 keys.
//!    A full buffer is flushed as one block into the front of the slice,
//!    which that pass has already read.  Whole blocks are then swapped into
//!    block-aligned bucket areas, and a left-to-right cleanup places the
//!    partial buffers and the blocks that overhang a bucket's edge.
//! 2. **Select inside buckets.**  The recursion runs inside each bucket on
//!    the ranks that fall in it: a few ranks over a few thousand
//!    cache-resident keys.  Bucket `i`'s ceiling is `splitter[i]`, so a
//!    bucket that holds one heavy key ends in one selection and one pass.
//!
//! The scratch does not grow with the slice: 256 bucket buffers of 128
//! keys, two more blocks and the oversample.  Either way every requested
//! rank holds its exact order statistic, with `<=` on its left and `>=` on
//! its right.  So the selected values, and every OPAQ sketch
//! built from them, do not depend on which path ran.
//!
//! Slices shorter than [`SPLITTER_TREE_MIN_LEN`] and rank sets of fewer than
//! 32 ranks go to the recursion directly, which is cheaper there.  So do
//! runs whose oversample yields fewer than 32 distinct splitters (constant
//! or few-valued data): their keys would collapse into a handful of buckets,
//! while the floor and ceiling rules end them in a few passes.

use crate::partition::block_partition_by;
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
/// (0-based, may be unsorted but must be unique and in-bounds).
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
    let mut out = Vec::with_capacity(ranks.len());
    multiselect_into(data, ranks, SelectionStrategy::default(), &mut out);
    out
}

/// [`multiselect`] writing the selected values into a caller-provided
/// buffer (cleared first) instead of allocating a fresh one — the hot-path
/// entry point used by the sample phase.  `_strategy` has one value and
/// changes nothing.
///
/// When `ranks` is already strictly increasing (as produced by
/// [`regular_sample_ranks`]) no rank copy is made; unsorted rank sets fall
/// back to one scratch copy for sorting.  Slices of at least
/// [`SPLITTER_TREE_MIN_LEN`] keys with 32 or more ranks also allocate the
/// splitter tree's fixed scratch (a 4096-key oversample and 256 bucket
/// buffers of 128 keys, whatever the slice length), freed before the call
/// returns; smaller calls allocate nothing beyond what `out` already owns.
pub fn multiselect_into<T: Ord + Copy>(
    data: &mut [T],
    ranks: &[usize],
    _strategy: SelectionStrategy,
    out: &mut Vec<T>,
) {
    out.clear();
    if ranks.windows(2).all(|w| w[0] < w[1]) {
        // Pre-sorted (and therefore duplicate-free): select straight off the
        // caller's slice.
        check_bounds(ranks, data.len());
        select_sorted(data, ranks);
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
        select_sorted(data, &sorted_ranks);
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
/// times their size.  At this floor, with one rank per 1000 keys, the tree
/// and the recursion alone measured even; from 48k keys the tree won by
/// about 1.25×, and with one rank per 20 keys it won by 1.2–1.3× at every
/// length from 16k keys up.  With the block-wise distribution the tree
/// measured even or up to 1.2× faster at this floor, so it still holds.
pub const SPLITTER_TREE_MIN_LEN: usize = 1 << 15;

/// Rank sets smaller than this skip the splitter tree: with few ranks the
/// recursion makes only a few passes, which beat the distribution.  With
/// 8 ranks the recursion alone measured about 1.4× faster at every length up
/// to 1M keys, with 16 about 1.1×; with 32 the two were even.
const SPLITTER_TREE_MIN_RANKS: usize = 32;

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

/// Keys per block of the distribution: each bucket buffers this many keys
/// before it flushes them to the slice as one block.  From 64 to 256 keys
/// measured even; 16 and 32 were slower.
const BLOCK: usize = 128;

/// Place every rank of `ranks` (sorted, unique, in bounds): the splitter
/// tree first where it pays, then exact middle-rank recursion.
fn select_sorted<T: Ord + Copy>(data: &mut [T], ranks: &[usize]) {
    let splitters = if data.len() < SPLITTER_TREE_MIN_LEN || ranks.len() < SPLITTER_TREE_MIN_RANKS {
        None
    } else {
        splitters(data)
    };
    let Some(splitters) = splitters else {
        split_ranks(data, 0, ranks, None, None);
        return;
    };
    let bounds = distribute(data, &splitter_tree(&splitters));

    // Buckets are value-ordered, so each rank is solved inside its bucket.
    // Bucket `b`'s largest possible key is `splitters[b]`: a bucket full of
    // one heavy key ends after one exact selection and one pass.
    let mut first = 0;
    for b in 0..BUCKETS {
        let (lo, hi) = (bounds[b], bounds[b + 1]);
        let last = first + ranks[first..].partition_point(|&r| r < hi);
        let bucket = &mut data[lo..hi];
        let ceil = splitters.get(b).copied();
        split_ranks(bucket, lo, &ranks[first..last], None, ceil);
        first = last;
    }
}

/// The `BUCKETS - 1` splitters, ascending: every [`OVERSAMPLE`]th key of an
/// evenly spaced, sorted oversample of `data`.  `None` when fewer than
/// [`MIN_DISTINCT_SPLITTERS`] of them are distinct.
fn splitters<T: Ord + Copy>(data: &[T]) -> Option<Vec<T>> {
    let samples = OVERSAMPLE * BUCKETS;
    let stride = data.len() / samples;
    debug_assert!(stride > 0, "slice below the splitter-tree floor");
    let mut sample: Vec<T> = (0..samples)
        .map(|i| data[i * stride + stride / 2])
        .collect();
    sample.sort_unstable();
    let splitters: Vec<T> = (1..BUCKETS).map(|b| sample[b * OVERSAMPLE]).collect();
    let distinct = 1 + splitters.windows(2).filter(|w| w[0] < w[1]).count();
    (distinct >= MIN_DISTINCT_SPLITTERS).then_some(splitters)
}

/// Lay the sorted `splitters` out as an implicit (Eytzinger) search tree:
/// node `i` has children `2i` and `2i + 1`, the root is node 1 and node 0 is
/// unused.  An in-order walk yields the splitters in ascending order.
fn splitter_tree<T: Copy>(splitters: &[T]) -> [T; BUCKETS] {
    let mut tree = [splitters[0]; BUCKETS];
    fill_tree(&mut tree, 1, splitters);
    tree
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

/// Move every key into its bucket, in place, and return the bucket bounds:
/// bucket `b` ends up in `data[bounds[b]..bounds[b + 1]]`.
///
/// Block-wise, after IPS⁴o: [`Buffers::fill`] classifies every key and
/// flushes full buffers as blocks into the slice's front,
/// [`permute_blocks`] swaps those blocks into block-aligned bucket areas,
/// and [`cleanup`] fills each bucket's edges from its buffer and from the
/// block that overhangs its end.
fn distribute<T: Ord + Copy>(data: &mut [T], tree: &[T; BUCKETS]) -> [usize; BUCKETS + 1] {
    let Some(&first) = data.first() else {
        return [0; BUCKETS + 1];
    };
    let mut buffers = Buffers::new(first);
    let flushed = buffers.fill(data, tree);
    let mut bounds = [0usize; BUCKETS + 1];
    for b in 0..BUCKETS {
        bounds[b + 1] = bounds[b] + buffers.blocks[b] * BLOCK + buffers.waiting(b).len();
    }
    let mut overflow = [first; BLOCK];
    let ends = permute_blocks(data, tree, &bounds, flushed, &mut overflow);
    cleanup(data, &bounds, &ends, &buffers, &overflow);
    bounds
}

/// One buffer of [`BLOCK`] keys per bucket, for [`distribute`].
struct Buffers<T> {
    /// Bucket `b`'s buffer is `keys[b * BLOCK..(b + 1) * BLOCK]`.
    keys: Box<[T; BUCKETS * BLOCK]>,
    /// Where the next key of each bucket goes in `keys`: bucket `b` has
    /// `keys[b * BLOCK..next[b]]` waiting, always less than a block.
    next: [usize; BUCKETS],
    /// Full blocks flushed from each buffer.
    blocks: [usize; BUCKETS],
}

impl<T: Ord + Copy> Buffers<T> {
    /// Empty buffers; `filler` only initialises their slots.
    fn new(filler: T) -> Self {
        let keys = vec![filler; BUCKETS * BLOCK].into_boxed_slice();
        Self {
            keys: keys
                .try_into()
                .unwrap_or_else(|_| unreachable!("exact length")),
            next: std::array::from_fn(|b| b * BLOCK),
            blocks: [0; BUCKETS],
        }
    }

    /// The keys waiting in bucket `b`'s buffer.
    fn waiting(&self, b: usize) -> &[T] {
        &self.keys[b * BLOCK..self.next[b]]
    }

    /// Classify every key of `data` into its bucket's buffer, flushing each
    /// full buffer as a block to the front of `data`.  Returns the length
    /// of the flushed front, a multiple of [`BLOCK`].
    ///
    /// A block is flushed only once [`BLOCK`] keys of its bucket have been
    /// read, so it always lands on keys the pass has already read.
    fn fill(&mut self, data: &mut [T], tree: &[T; BUCKETS]) -> usize {
        let Self { keys, next, blocks } = self;
        let mut flushed = 0;
        let mut push = |bucket: usize, key: T, data: &mut [T]| {
            let bucket = bucket & (BUCKETS - 1);
            let at = next[bucket];
            keys[at & (BUCKETS * BLOCK - 1)] = key;
            if (at + 1) % BLOCK != 0 {
                next[bucket] = at + 1;
            } else {
                let start = at + 1 - BLOCK;
                data[flushed..flushed + BLOCK].copy_from_slice(&keys[start..=at]);
                flushed += BLOCK;
                next[bucket] = start;
                blocks[bucket] += 1;
            }
        };
        let whole = data.len() - data.len() % UNROLL;
        for at in (0..whole).step_by(UNROLL) {
            let chunk: [T; UNROLL] = data[at..at + UNROLL].try_into().expect("a whole chunk");
            // The descents are independent, so the eight loads per level
            // overlap instead of waiting on each other.
            let mut nodes = [1usize; UNROLL];
            for _ in 0..LOG_BUCKETS {
                for (node, key) in nodes.iter_mut().zip(&chunk) {
                    *node = 2 * *node + usize::from(tree[*node & (BUCKETS - 1)] < *key);
                }
            }
            for (node, key) in nodes.into_iter().zip(chunk) {
                push(node - BUCKETS, key, data);
            }
        }
        for at in whole..data.len() {
            let key = data[at];
            push(bucket_of(tree, &key), key, data);
        }
        flushed
    }
}

/// Round `at` up to a block boundary.
fn block_ceil(at: usize) -> usize {
    at.div_ceil(BLOCK) * BLOCK
}

/// Swap the full blocks in `data[..flushed]` into bucket areas, in place,
/// and return each bucket's end of blocks.
///
/// Bucket `b`'s blocks go to the block-aligned area that starts at
/// `block_ceil(bounds[b])`; it has room for all of them, but its last block
/// may run past `bounds[b + 1]`.  `write[b]` is the next slot of that area
/// and `read[b]` the end of the flushed blocks not yet looked at inside it,
/// so slots before `write[b]` are final and slots from `read[b]` on are
/// free.  Each cycle takes the last unread block of one bucket's area and
/// carries it to its own bucket's write slot, skipping blocks already in
/// place there; if that slot holds a foreign block, the two swap and the
/// cycle carries the foreign one on, and otherwise the slot is free and the
/// cycle ends.  The one slot that runs past the end of `data` goes to
/// `overflow`.
fn permute_blocks<T: Ord + Copy>(
    data: &mut [T],
    tree: &[T; BUCKETS],
    bounds: &[usize; BUCKETS + 1],
    flushed: usize,
    overflow: &mut [T; BLOCK],
) -> [usize; BUCKETS] {
    let mut write = [0usize; BUCKETS];
    let mut read = [0usize; BUCKETS];
    for b in 0..BUCKETS {
        let (start, end) = (block_ceil(bounds[b]), block_ceil(bounds[b + 1]));
        write[b] = start;
        read[b] = flushed.clamp(start, end);
    }
    // Any keys do: the carried block is loaded before it is read.
    let mut carry = *overflow;
    for b in 0..BUCKETS {
        while write[b] < read[b] {
            read[b] -= BLOCK;
            let at = read[b];
            carry.copy_from_slice(&data[at..at + BLOCK]);
            let mut dest = bucket_of(tree, &carry[0]);
            loop {
                while write[dest] < read[dest] && bucket_of(tree, &data[write[dest]]) == dest {
                    write[dest] += BLOCK;
                }
                let slot = write[dest];
                write[dest] += BLOCK;
                if slot < read[dest] {
                    data[slot..slot + BLOCK].swap_with_slice(&mut carry);
                    dest = bucket_of(tree, &carry[0]);
                } else {
                    match data.get_mut(slot..slot + BLOCK) {
                        Some(free) => free.copy_from_slice(&carry),
                        None => *overflow = carry,
                    }
                    break;
                }
            }
        }
    }
    write
}

/// Complete every bucket, left to right, once [`permute_blocks`] has placed
/// the full blocks: bucket `b`'s blocks fill `block_ceil(bounds[b])..ends[b]`.
///
/// Bucket `b` still lacks its head, `bounds[b]..block_ceil(bounds[b])`,
/// which holds the overhang of the bucket before (already moved out), and
/// any tail between its last block and `bounds[b + 1]`.  They take the keys
/// of its last block that lie past `bounds[b + 1]`, then its buffer.  Those
/// overhanging keys sit in the next bucket's head, which is filled only
/// afterwards; if the block is the one that ran past the slice end, it is
/// in `overflow`.
fn cleanup<T: Ord + Copy>(
    data: &mut [T],
    bounds: &[usize; BUCKETS + 1],
    ends: &[usize; BUCKETS],
    buffers: &Buffers<T>,
    overflow: &[T; BLOCK],
) {
    for b in 0..BUCKETS {
        let (lo, hi, end) = (bounds[b], bounds[b + 1], ends[b]);
        let start = block_ceil(lo);
        let head_end = start.min(hi);
        let mut at = lo;
        // A bucket without blocks has `end == start`, which may lie past `hi`.
        if end > start.max(hi) {
            let last = end - BLOCK;
            if end > data.len() {
                let (inside, over) = overflow.split_at(hi - last);
                data[last..hi].copy_from_slice(inside);
                data[at..at + over.len()].copy_from_slice(over);
                at += over.len();
            } else {
                data.copy_within(hi..end, at);
                at += end - hi;
            }
        }
        let (head, tail) = buffers.waiting(b).split_at(head_end - at);
        data[at..head_end].copy_from_slice(head);
        data[end.clamp(head_end, hi)..hi].copy_from_slice(tail);
    }
}

#[cfg(test)]
thread_local! {
    /// Exact selections [`split_ranks`] made on this thread.
    static SELECTS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Exact middle-rank recursion: place every rank of `ranks` inside `data`.
///
/// `offset` is the absolute index of `data[0]` in the original slice;
/// `ranks` are absolute, sorted, and all fall inside
/// `[offset, offset + data.len())`.  `floor` and `ceil`, when known, are
/// inclusive bounds on every key of the piece: the values of the splits that
/// made it, or a splitter-tree bucket's upper splitter.  Borrows sub-slices
/// of both `data` and `ranks` — no allocation.
fn split_ranks<T: Ord + Copy>(
    data: &mut [T],
    offset: usize,
    ranks: &[usize],
    floor: Option<T>,
    ceil: Option<T>,
) {
    if ranks.is_empty() || (floor.is_some() && floor == ceil) {
        return;
    }
    let mid = ranks.len() / 2;
    let at = ranks[mid] - offset;
    #[cfg(test)]
    SELECTS.with(|count| count.set(count.get() + 1));
    let pivot = *data.select_nth_unstable(at).1;
    if floor == Some(pivot) {
        // Every key left of `at` equals the pivot, the piece's minimum.
        // Gathering its copies on the right behind them settles every rank
        // in the band; this is what ends constant and few-valued pieces.
        let eq = at + 1 + block_partition_by(&mut data[at + 1..], |key| *key == pivot);
        let first = ranks.partition_point(|&r| r < offset + eq);
        let (rest, rest_ranks) = (&mut data[eq..], &ranks[first..]);
        split_ranks(rest, offset + eq, rest_ranks, floor, ceil);
        return;
    }
    if ceil == Some(pivot) {
        // The mirror image: every key right of `at` is the piece's maximum,
        // so moving the keys below it to the front settles the band.
        let lt = block_partition_by(&mut data[..at], |key| *key < pivot);
        let last = ranks.partition_point(|&r| r < offset + lt);
        let (rest, rest_ranks) = (&mut data[..lt], &ranks[..last]);
        split_ranks(rest, offset, rest_ranks, floor, ceil);
        return;
    }
    // `<=` left of `at` and `>=` right of it, so the ranks split three ways.
    let (left, right) = data.split_at_mut(at);
    let (left_ranks, right_ranks) = (&ranks[..mid], &ranks[mid + 1..]);
    let pivot = Some(pivot);
    split_ranks(left, offset, left_ranks, floor, pivot);
    let right = &mut right[1..];
    split_ranks(right, offset + at + 1, right_ranks, pivot, ceil);
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
    fn multiselect_regular_ranks_match_sort() {
        let base: Vec<u64> = (0..5000).map(|i| (i * 2654435761) % 9973).collect();
        let ranks = regular_sample_ranks(base.len(), 16);
        let mut sorted = base.clone();
        sorted.sort_unstable();
        let expected: Vec<u64> = ranks.iter().map(|&r| sorted[r]).collect();
        let mut work = base.clone();
        assert_eq!(multiselect(&mut work, &ranks), expected);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn multiselect_out_of_bounds_rank_panics() {
        let mut data = vec![1_u64, 2, 3];
        multiselect(&mut data, &[1, 3]);
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
        assert!(splitters(&constant).is_none());
        let few: Vec<u64> = (0..len as u64).map(|i| (i * 2654435761) % 3).collect();
        assert!(splitters(&few).is_none());
        let uniform: Vec<u64> = (0..len as u64)
            .map(|i| (i * 2654435761) % 1_000_003)
            .collect();
        assert!(splitters(&uniform).is_some());
    }

    /// SplitMix64 step: a deterministic key stream per seed.
    fn mix(x: u64) -> u64 {
        let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Distribute `data` over `tree` and check that the result is a
    /// permutation of the input in which bucket `b` holds exactly the keys
    /// whose [`bucket_of`] is `b`.
    fn assert_distributes(mut data: Vec<u64>, tree: &[u64; BUCKETS]) -> [usize; BUCKETS + 1] {
        let mut expected = data.clone();
        expected.sort_unstable();
        let mut counts = [0usize; BUCKETS];
        for key in &data {
            counts[bucket_of(tree, key)] += 1;
        }
        let bounds = distribute(&mut data, tree);
        assert_eq!(bounds[BUCKETS], data.len());
        for b in 0..BUCKETS {
            assert_eq!(bounds[b + 1] - bounds[b], counts[b], "bucket {b} size");
            let bucket = &data[bounds[b]..bounds[b + 1]];
            assert!(
                bucket.iter().all(|key| bucket_of(tree, key) == b),
                "bucket {b} of {} keys",
                data.len()
            );
        }
        data.sort_unstable();
        assert_eq!(data, expected, "the distribution must only move keys");
        bounds
    }

    /// A tree over the splitters `step, 2·step, …, 255·step`.
    fn spaced_tree(step: u64) -> [u64; BUCKETS] {
        let splitters: Vec<u64> = (1..BUCKETS as u64).map(|i| i * step).collect();
        splitter_tree(&splitters)
    }

    #[test]
    fn buckets_are_value_ordered_and_in_place() {
        let len = SPLITTER_TREE_MIN_LEN + 12_345;
        let data: Vec<u64> = (0..len as u64).map(|i| (i * 2654435761) % 50_021).collect();
        let tree = splitter_tree(&splitters(&data).expect("enough distinct splitters"));
        assert_distributes(data, &tree);
    }

    #[test]
    fn a_last_block_past_the_slice_end_is_placed() {
        // A few keys spread thinly over the lower buckets, which stay smaller
        // than one block or empty; every other key lies above the last
        // splitter.  The last bucket's area starts at the first block
        // boundary, and with at most `len % BLOCK` keys below it, its blocks
        // fill that area up to the boundary past the slice end: the final
        // block goes to the overflow block, and all but `len % BLOCK` of
        // its keys overhang the slice.
        let step = 1 << 20;
        let len = SPLITTER_TREE_MIN_LEN + 3 * BLOCK + 100;
        let data: Vec<u64> = (0..len as u64)
            .map(|i| match i % 379 {
                0 => mix(i) % (BUCKETS as u64 * step),
                _ => BUCKETS as u64 * step + mix(i) % 1000,
            })
            .collect();
        let bounds = assert_distributes(data, &spaced_tree(step));
        assert!(bounds[BUCKETS - 1] <= len % BLOCK, "{bounds:?}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        /// Slices at block multiples ±1 from the splitter-tree floor up, and
        /// splitters from `step` to `255·step` over keys below `2^20`: a
        /// small step leaves buckets smaller than one block or empty and
        /// piles most keys into the last bucket, whose final block then runs
        /// past the slice end; a step near `2^12` spreads the keys evenly.
        #[test]
        fn distribution_places_every_key_in_its_bucket(
            blocks in 0usize..24,
            edge in 0usize..3,
            shift in 0u32..14,
            seed in any::<u64>(),
        ) {
            let len = SPLITTER_TREE_MIN_LEN + blocks * BLOCK + edge - 1;
            let data: Vec<u64> = (0..len as u64).map(|i| mix(seed ^ i) % (1 << 20)).collect();
            assert_distributes(data, &spaced_tree(1 << shift));
        }
    }

    /// Exact selections [`split_ranks`] makes for `data` and `ranks`, which
    /// it must also get right.
    fn selects_for(mut data: Vec<u32>, ranks: &[usize]) -> usize {
        let mut sorted = data.clone();
        sorted.sort_unstable();
        let before = SELECTS.with(std::cell::Cell::get);
        let picked = multiselect(&mut data, ranks);
        let selects = SELECTS.with(std::cell::Cell::get) - before;
        let expected: Vec<u32> = ranks.iter().map(|&r| sorted[r]).collect();
        assert_eq!(picked, expected);
        selects
    }

    #[test]
    fn distinct_keys_take_one_select_per_rank() {
        // A permutation of 0..50,000.  A selected key meets a bound only as
        // its bucket's ceiling splitter, the bucket's largest key, and no
        // other rank shares its band of one.
        let data: Vec<u32> = (0..50_000).map(|i| (i * 7919) % 50_000).collect();
        let ranks = regular_sample_ranks(data.len(), 500);
        assert_eq!(selects_for(data, &ranks), ranks.len());
    }

    #[test]
    fn a_heavy_key_bucket_ends_in_one_select() {
        // 40,000 distinct even keys and 20,000 copies of one odd key in
        // their middle: enough distinct splitters for the splitter tree, and
        // every copy of the heavy key lands in the one bucket whose ceiling
        // splitter it is.  That bucket's first selection meets its ceiling,
        // and one pass settles all its heavy ranks; every other rank takes
        // one selection.  Without the ceiling the bucket would take three.
        const HEAVY: u32 = 40_001;
        let mut distinct = (0..40_000_u32).map(|j| 2 * ((j * 7919) % 40_000));
        let data: Vec<u32> = (0..60_000)
            .map(|i| {
                if i % 3 == 2 {
                    HEAVY
                } else {
                    distinct.next().unwrap()
                }
            })
            .collect();
        assert!(data.len() >= SPLITTER_TREE_MIN_LEN);
        let ranks = regular_sample_ranks(data.len(), 600);
        let mut sorted = data.clone();
        sorted.sort_unstable();
        let heavy = ranks.iter().filter(|&&r| sorted[r] == HEAVY).count();
        assert!(heavy > 100, "{heavy} heavy ranks");
        assert_eq!(selects_for(data, &ranks), ranks.len() - heavy + 1);
    }

    #[test]
    fn constant_runs_end_in_three_selects() {
        // The first selection splits the ranks in two.  Each side's next
        // selection meets the ceiling (left) or the floor (right) it
        // inherited, and one pass settles every rank on that side.
        let ranks = regular_sample_ranks(50_000, 500);
        assert_eq!(selects_for(vec![7; 50_000], &ranks), 3);
    }

    #[test]
    fn few_valued_runs_end_in_a_constant_number_of_selects() {
        // Each distinct value costs a bounded number of selections whatever
        // the number of ranks: 50 to 5,000 ranks over three values take the
        // same handful.
        let three: Vec<u32> = (0..50_000_u64)
            .map(|i| (i * 2654435761 % 3) as u32)
            .collect();
        let selects: Vec<usize> = [50, 500, 5_000]
            .iter()
            .map(|&s| selects_for(three.clone(), &regular_sample_ranks(three.len(), s)))
            .collect();
        assert!(
            selects.iter().all(|&n| n == selects[0] && n <= 12),
            "{selects:?}"
        );
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
