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
//! one *distribution* pass that replaces the top levels, with the radix
//! classifier of IPS²Ra (Axtmann, Witt, Ferizovic & Sanders, "Engineering
//! In-place (Shared-memory) Sorting Algorithms", TOPC 2022) and the
//! block-wise in-place distribution of IPS⁴o (Axtmann et al., ESA 2017):
//!
//! 1. **Classify.**  Every key has an order-preserving `u64` image,
//!    [`RadixKey::radix`].  The images of an evenly spaced oversample of
//!    4096 keys are sorted, and the range between the 16th smallest and the
//!    16th largest becomes 1024 value-ordered buckets under one of two maps:
//!    *linear*, `(image − low) >> shift`, or *log-linear*, which cuts every
//!    octave of `image − low` into `2^k` equal buckets, for keys spread over
//!    many orders of magnitude.  Each call takes the map whose largest bucket
//!    holds fewer oversample keys.  Either way a key finds its bucket with a
//!    subtract, a shift or two and a clamp, and no comparison; keys beyond
//!    the trimmed range land in the first or the last bucket.
//! 2. **Distribute.**  One pass appends every key to its bucket's buffer of
//!    64 keys.  A full buffer is flushed as one block into the front of the
//!    slice, which that pass has already read.  Whole blocks are then swapped
//!    into block-aligned bucket areas, and a left-to-right cleanup places the
//!    partial buffers and the blocks that overhang a bucket's edge.
//! 3. **Select inside buckets.**  The recursion runs inside each bucket on
//!    the ranks that fall in it: a few ranks over a few thousand
//!    cache-resident keys.  A bucket that covers a single image holds one
//!    key value, so its ranks already hold their order statistics.  A bucket
//!    with more than 8× the mean share of keys (one cluster of two far apart,
//!    or a heavy key among spread ones) that itself clears the floors below
//!    is distributed again on its own slice, at most three levels deep.
//!
//! The scratch does not grow with the slice: 1024 bucket buffers of 64 keys,
//! reused by every level, two more blocks and the oversample's images.
//! Either way every requested rank holds its exact order statistic, with
//! `<=` on its left and `>=` on its right.  So the selected values, and every
//! OPAQ sketch built from them, do not depend on which path ran.
//!
//! Slices shorter than [`DISTRIBUTION_MIN_LEN`] and rank sets of fewer than
//! 32 ranks go to the recursion directly, which is cheaper there.  So do
//! slices whose oversample has fewer than 128 distinct images among its 1023
//! evenly spaced splitter positions (constant or few-valued data): their keys
//! would collapse into a handful of buckets, while the floor and ceiling
//! rules end them in a few passes.

use crate::partition::block_partition_by;
use crate::{RadixKey, SelectionStrategy};

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
/// The bound is `T: Ord + RadixKey` (OPAQ keys are fixed-width scalars):
/// long slices are bucketed by the keys' order-preserving `u64` images, and
/// selected values are plain loads from the reordered slice.
///
/// # Panics
/// Panics if any rank is out of bounds or if `ranks` contains duplicates.
pub fn multiselect<T: Ord + RadixKey>(data: &mut [T], ranks: &[usize]) -> Vec<T> {
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
/// [`DISTRIBUTION_MIN_LEN`] keys with 32 or more ranks also allocate the
/// distribution's fixed scratch (the images of a 4096-key oversample and
/// 1024 bucket buffers of 64 keys, whatever the slice length), freed before
/// the call returns; smaller calls allocate nothing beyond what `out`
/// already owns.
pub fn multiselect_into<T: Ord + RadixKey>(
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

/// Slices shorter than this skip the distribution and run the recursion
/// alone.  The oversample and the 1024 buckets pay off only on slices many
/// times their size.  The floor was set for the splitter tree this
/// classifier replaced: at this length, with one rank per 1000 keys, the
/// tree and the recursion alone measured even, and from 48k keys the tree
/// won by about 1.25×.  The radix classifier is cheaper per key than the
/// tree, so the floor errs on the side of the recursion.
pub const DISTRIBUTION_MIN_LEN: usize = 1 << 15;

/// Rank sets smaller than this skip the distribution: with few ranks the
/// recursion makes only a few passes, which beat the distribution.  With
/// 8 ranks the recursion alone measured about 1.4× faster than the splitter
/// tree at every length up to 1M keys, with 16 about 1.1×; with 32 the two
/// were even.
const DISTRIBUTION_MIN_RANKS: usize = 32;

const LOG_BUCKETS: u32 = 10;
const BUCKETS: usize = 1 << LOG_BUCKETS;

/// Oversample keys whose images choose the range and the map.
const OVERSAMPLE: usize = 4096;

/// Oversample keys left out of the range at each end, so a few outliers do
/// not stretch it: keys past either end share the first or the last bucket.
const TRIM: usize = 16;

/// Fewer distinct images than this at the oversample's `BUCKETS - 1` evenly
/// spaced splitter positions means a few-valued slice: a handful of buckets
/// would hold nearly every key, so distributing buys nothing.
const MIN_DISTINCT_SPLITTERS: usize = BUCKETS / 8;

/// A bucket with more than this many times the mean share of keys is
/// distributed again, if it also clears the length and rank floors.
const HEAVY_SHARE: usize = 8;

/// Most nested distributions of one slice.  Every level shrinks the slice,
/// but keys laid out to keep one bucket heavy under both maps could make it
/// shrink slowly; two levels serve clusters, a third nested ones.
const MAX_DEPTH: usize = 3;

/// Keys per block of the distribution: each bucket buffers this many keys
/// before it flushes them to the slice as one block.
const BLOCK: usize = 64;

/// Place every rank of `ranks` (sorted, unique, in bounds): the distribution
/// first where it pays, then exact middle-rank recursion.
fn select_sorted<T: Ord + RadixKey>(data: &mut [T], ranks: &[usize]) {
    if data.len() < DISTRIBUTION_MIN_LEN || ranks.len() < DISTRIBUTION_MIN_RANKS {
        split_ranks(data, 0, ranks, None, None);
    } else {
        distribute_and_select(data, 0, ranks, &mut None, 1);
    }
}

/// Distribute `data` (at absolute index `offset`, holding the absolute
/// `ranks`) into buckets and place each bucket's ranks inside it; the
/// recursion alone when the oversample is few-valued.  `buffers` is the
/// bucket scratch, allocated by the first level that distributes and reused
/// by the levels below it.
fn distribute_and_select<T: Ord + RadixKey>(
    data: &mut [T],
    offset: usize,
    ranks: &[usize],
    buffers: &mut Option<Buffers<T>>,
    depth: usize,
) {
    let Some(map) = BucketMap::for_slice(data) else {
        split_ranks(data, offset, ranks, None, None);
        return;
    };
    #[cfg(test)]
    DISTRIBUTIONS.with(|count| count.set(count.get() + 1));
    let scratch = buffers.get_or_insert_with(|| Buffers::new(data[0]));
    let bounds = match map {
        BucketMap::Linear(map) => distribute(data, &map, scratch),
        BucketMap::LogLinear(map) => distribute(data, &map, scratch),
    };

    // Buckets are value-ordered, so each rank is solved inside its bucket.
    let heavy = HEAVY_SHARE * data.len() / BUCKETS;
    let mut first = 0;
    for b in 0..BUCKETS {
        let (lo, hi) = (bounds[b], bounds[b + 1]);
        let last = first + ranks[first..].partition_point(|&r| r < offset + hi);
        let (bucket, bucket_ranks) = (&mut data[lo..hi], &ranks[first..last]);
        first = last;
        if bucket_ranks.is_empty() {
            continue;
        }
        if map.single_image(b) {
            // One key value: a floor equal to the ceiling ends the piece.
            let key = Some(bucket[0]);
            split_ranks(bucket, offset + lo, bucket_ranks, key, key);
        } else if bucket.len() > heavy
            && bucket.len() >= DISTRIBUTION_MIN_LEN
            && bucket_ranks.len() >= DISTRIBUTION_MIN_RANKS
            && depth < MAX_DEPTH
        {
            distribute_and_select(bucket, offset + lo, bucket_ranks, buffers, depth + 1);
        } else {
            split_ranks(bucket, offset + lo, bucket_ranks, None, None);
        }
    }
}

/// Maps a key's image to its bucket; buckets are ordered by value.
trait Classify {
    /// The bucket, below [`BUCKETS`], of a key whose image is `image`.
    fn bucket(&self, image: u64) -> usize;

    /// The bucket of `key`.
    #[inline(always)]
    fn bucket_of<T: RadixKey>(&self, key: T) -> usize {
        self.bucket(key.radix())
    }
}

/// `(image − low) >> shift`, clamped to the last bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Linear {
    low: u64,
    shift: u32,
}

impl Linear {
    /// The narrowest buckets that fit `high − low` into [`BUCKETS`].
    fn new(low: u64, high: u64) -> Self {
        let bits = u64::BITS - (high - low).leading_zeros();
        Self {
            low,
            shift: bits.saturating_sub(LOG_BUCKETS),
        }
    }
}

impl Classify for Linear {
    #[inline(always)]
    fn bucket(&self, image: u64) -> usize {
        ((image.saturating_sub(self.low) >> self.shift) as usize).min(BUCKETS - 1)
    }
}

/// Log-linear buckets of `d = image − low`: `d` itself below `2^bits`, and
/// from there each octave `[2^e, 2^(e+1))` in `2^bits` equal buckets, the
/// code `(e − bits)·2^bits + (d >> (e − bits))`.  Clamped to the last
/// bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LogLinear {
    low: u64,
    bits: u32,
}

impl LogLinear {
    /// The finest octaves that fit `high − low` into [`BUCKETS`].
    fn new(low: u64, high: u64) -> Self {
        let mut map = Self {
            low,
            bits: LOG_BUCKETS,
        };
        while map.code(high - low) >= BUCKETS as u64 {
            map.bits -= 1;
        }
        map
    }

    #[inline(always)]
    fn code(&self, d: u64) -> u64 {
        // `d | 2^bits` has its top bit at `e` for `d >= 2^bits` and at
        // `bits` below it, where the shift is 0 and the code is `d`.
        let shift = u64::BITS - 1 - (d | 1 << self.bits).leading_zeros() - self.bits;
        (u64::from(shift) << self.bits) + (d >> shift)
    }
}

impl Classify for LogLinear {
    #[inline(always)]
    fn bucket(&self, image: u64) -> usize {
        (self.code(image.saturating_sub(self.low)) as usize).min(BUCKETS - 1)
    }
}

/// The map one call distributes with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BucketMap {
    Linear(Linear),
    LogLinear(LogLinear),
}

impl BucketMap {
    /// The map for `data` (at least [`OVERSAMPLE`] keys): over the trimmed
    /// range of the sorted images of an evenly spaced oversample, the linear
    /// or the log-linear map, whichever puts fewer oversample keys in its
    /// largest bucket.  `None` when fewer than [`MIN_DISTINCT_SPLITTERS`] of
    /// the oversample's splitter positions hold distinct images.
    fn for_slice<T: RadixKey>(data: &[T]) -> Option<Self> {
        let stride = data.len() / OVERSAMPLE;
        debug_assert!(stride > 0, "slice shorter than the oversample");
        let mut images: Vec<u64> = (0..OVERSAMPLE)
            .map(|i| data[i * stride + stride / 2].radix())
            .collect();
        images.sort_unstable();
        let per_bucket = OVERSAMPLE / BUCKETS;
        let distinct = 1
            + (per_bucket..OVERSAMPLE - per_bucket)
                .step_by(per_bucket)
                .filter(|&at| images[at] < images[at + per_bucket])
                .count();
        if distinct < MIN_DISTINCT_SPLITTERS {
            return None;
        }
        let (low, high) = (images[TRIM], images[OVERSAMPLE - 1 - TRIM]);
        let linear = Linear::new(low, high);
        let log = LogLinear::new(low, high);
        Some(if largest(&images, &log) < largest(&images, &linear) {
            Self::LogLinear(log)
        } else {
            Self::Linear(linear)
        })
    }

    /// Whether every image in bucket `b` is one value.  The first and last
    /// buckets also take the keys beyond the trimmed range, so never.
    fn single_image(&self, b: usize) -> bool {
        let inner = b > 0 && b < BUCKETS - 1;
        inner
            && match self {
                Self::Linear(map) => map.shift == 0,
                Self::LogLinear(map) => b < 1 << map.bits,
            }
    }
}

/// The most `sorted` images that `map` puts in one bucket.  Buckets are
/// value-ordered, so each bucket's images are one run of `sorted`.
fn largest(sorted: &[u64], map: &impl Classify) -> usize {
    let mut most = 0;
    let mut at = 0;
    while at < sorted.len() {
        let bucket = map.bucket(sorted[at]);
        let run = sorted[at..].partition_point(|&image| map.bucket(image) == bucket);
        most = most.max(run);
        at += run;
    }
    most
}

/// Move every key into its bucket under `map`, in place, and return the
/// bucket bounds: bucket `b` ends up in `data[bounds[b]..bounds[b + 1]]`.
///
/// Block-wise, after IPS⁴o: [`Buffers::fill`] classifies every key and
/// flushes full buffers as blocks into the slice's front,
/// [`permute_blocks`] swaps those blocks into block-aligned bucket areas,
/// and [`cleanup`] fills each bucket's edges from its buffer and from the
/// block that overhangs its end.
fn distribute<T: RadixKey, C: Classify>(
    data: &mut [T],
    map: &C,
    buffers: &mut Buffers<T>,
) -> [usize; BUCKETS + 1] {
    let Some(&first) = data.first() else {
        return [0; BUCKETS + 1];
    };
    let flushed = buffers.fill(data, map);
    let mut bounds = [0usize; BUCKETS + 1];
    for b in 0..BUCKETS {
        bounds[b + 1] = bounds[b] + buffers.blocks[b] * BLOCK + buffers.waiting(b).len();
    }
    let mut overflow = [first; BLOCK];
    let ends = permute_blocks(data, map, &bounds, flushed, &mut overflow);
    cleanup(data, &bounds, &ends, buffers, &overflow);
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

impl<T: RadixKey> Buffers<T> {
    /// Buffers for one distribution; `filler` only initialises their slots.
    fn new(filler: T) -> Self {
        let keys = vec![filler; BUCKETS * BLOCK].into_boxed_slice();
        Self {
            keys: keys
                .try_into()
                .unwrap_or_else(|_| unreachable!("exact length")),
            next: [0; BUCKETS],
            blocks: [0; BUCKETS],
        }
    }

    /// The keys waiting in bucket `b`'s buffer.
    fn waiting(&self, b: usize) -> &[T] {
        &self.keys[b * BLOCK..self.next[b]]
    }

    /// Empty every buffer, then classify every key of `data` into its
    /// bucket's buffer, flushing each full buffer as a block to the front of
    /// `data`.  Returns the length of the flushed front, a multiple of
    /// [`BLOCK`].
    ///
    /// A block is flushed only once [`BLOCK`] keys of its bucket have been
    /// read, so it always lands on keys the pass has already read.
    fn fill<C: Classify>(&mut self, data: &mut [T], map: &C) -> usize {
        let Self { keys, next, blocks } = self;
        *next = std::array::from_fn(|b| b * BLOCK);
        *blocks = [0; BUCKETS];
        let mut flushed = 0;
        for at in 0..data.len() {
            let key = data[at];
            // Masking changes nothing, the map clamps, but it lets the
            // compiler drop the bounds checks.
            let bucket = map.bucket_of(key) & (BUCKETS - 1);
            let slot = next[bucket];
            keys[slot & (BUCKETS * BLOCK - 1)] = key;
            if (slot + 1) % BLOCK != 0 {
                next[bucket] = slot + 1;
            } else {
                let start = slot + 1 - BLOCK;
                data[flushed..flushed + BLOCK].copy_from_slice(&keys[start..=slot]);
                flushed += BLOCK;
                next[bucket] = start;
                blocks[bucket] += 1;
            }
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
fn permute_blocks<T: RadixKey, C: Classify>(
    data: &mut [T],
    map: &C,
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
            let mut dest = map.bucket_of(carry[0]);
            loop {
                while write[dest] < read[dest] && map.bucket_of(data[write[dest]]) == dest {
                    write[dest] += BLOCK;
                }
                let slot = write[dest];
                write[dest] += BLOCK;
                if slot < read[dest] {
                    data[slot..slot + BLOCK].swap_with_slice(&mut carry);
                    dest = map.bucket_of(carry[0]);
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
fn cleanup<T: RadixKey>(
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
    /// Slices [`distribute_and_select`] distributed on this thread.
    static DISTRIBUTIONS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Exact middle-rank recursion: place every rank of `ranks` inside `data`.
///
/// `offset` is the absolute index of `data[0]` in the original slice;
/// `ranks` are absolute, sorted, and all fall inside
/// `[offset, offset + data.len())`.  `floor` and `ceil`, when known, are
/// inclusive bounds on every key of the piece: the values of the splits that
/// made it, or a single-image bucket's one key.  Borrows sub-slices
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
    fn few_valued_slices_get_no_bucket_map() {
        let len = DISTRIBUTION_MIN_LEN;
        let constant = vec![9_u64; len];
        assert!(BucketMap::for_slice(&constant).is_none());
        let few: Vec<u64> = (0..len as u64).map(|i| (i * 2654435761) % 3).collect();
        assert!(BucketMap::for_slice(&few).is_none());
        let uniform: Vec<u64> = (0..len as u64)
            .map(|i| (i * 2654435761) % 1_000_003)
            .collect();
        assert!(BucketMap::for_slice(&uniform).is_some());
    }

    /// SplitMix64 step: a deterministic key stream per seed.
    fn mix(x: u64) -> u64 {
        let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// `DISTRIBUTION_MIN_LEN` keys spread evenly over 40 octaves.
    fn log_uniform() -> Vec<u64> {
        (0..DISTRIBUTION_MIN_LEN as u64)
            .map(|i| {
                let octave = mix(i) % 40;
                (1 << octave) + (mix(!i) >> (63 - octave))
            })
            .collect()
    }

    #[test]
    fn each_slice_takes_the_map_with_the_smaller_largest_bucket() {
        let uniform: Vec<u64> = (0..DISTRIBUTION_MIN_LEN as u64).map(mix).collect();
        let Some(BucketMap::Linear(map)) = BucketMap::for_slice(&uniform) else {
            panic!("uniform keys take the linear map");
        };
        assert_eq!(map.shift, 64 - LOG_BUCKETS);
        let Some(BucketMap::LogLinear(map)) = BucketMap::for_slice(&log_uniform()) else {
            panic!("log-uniform keys take the log-linear map");
        };
        assert_eq!(map.bits, 4);
    }

    proptest! {
        /// Images below the range's low end, inside it and above its high
        /// end, in every octave: both maps keep them in order, stay below
        /// `BUCKETS`, start the range at bucket 0, and put two images in one
        /// single-image bucket only if they are equal.
        #[test]
        fn both_bucket_maps_are_monotone(
            low in any::<u64>(),
            width in 0u32..64,
            span in any::<u64>(),
            images in proptest::collection::vec(any::<u64>(), 2..40),
        ) {
            let high = low.saturating_add(span >> width);
            let maps = [
                BucketMap::Linear(Linear::new(low, high)),
                BucketMap::LogLinear(LogLinear::new(low, high)),
            ];
            let mut images: Vec<u64> = images
                .into_iter()
                .map(|image| image >> (mix(image) % 64))
                .chain([0, low.saturating_sub(1), low, high, high.saturating_add(1), u64::MAX])
                .collect();
            images.sort_unstable();
            for map in maps {
                let bucket = |image: u64| match map {
                    BucketMap::Linear(map) => map.bucket(image),
                    BucketMap::LogLinear(map) => map.bucket(image),
                };
                prop_assert_eq!(bucket(low), 0);
                for pair in images.windows(2) {
                    let (a, b) = (bucket(pair[0]), bucket(pair[1]));
                    prop_assert!(a <= b && b < BUCKETS, "{:?}: {:?} -> {} {}", map, pair, a, b);
                    if a == b && map.single_image(a) {
                        prop_assert_eq!(pair[0], pair[1], "{:?} bucket {}", map, a);
                    }
                }
            }
        }
    }

    /// Distribute `data` under `map` and check that the result is a
    /// permutation of the input in which bucket `b` holds exactly the keys
    /// whose bucket is `b`.
    fn assert_distributes(mut data: Vec<u64>, map: &impl Classify) -> [usize; BUCKETS + 1] {
        let mut expected = data.clone();
        expected.sort_unstable();
        let mut counts = [0usize; BUCKETS];
        for &key in &data {
            counts[map.bucket_of(key)] += 1;
        }
        let mut buffers = Buffers::new(0);
        let bounds = distribute(&mut data, map, &mut buffers);
        assert_eq!(bounds[BUCKETS], data.len());
        for b in 0..BUCKETS {
            assert_eq!(bounds[b + 1] - bounds[b], counts[b], "bucket {b} size");
            let bucket = &data[bounds[b]..bounds[b + 1]];
            assert!(
                bucket.iter().all(|&key| map.bucket_of(key) == b),
                "bucket {b} of {} keys",
                data.len()
            );
        }
        data.sort_unstable();
        assert_eq!(data, expected, "the distribution must only move keys");
        bounds
    }

    #[test]
    fn buckets_are_value_ordered_and_in_place() {
        let len = DISTRIBUTION_MIN_LEN + 12_345;
        let data: Vec<u64> = (0..len as u64).map(|i| (i * 2654435761) % 50_021).collect();
        match BucketMap::for_slice(&data).expect("enough distinct splitters") {
            BucketMap::Linear(map) => assert_distributes(data, &map),
            BucketMap::LogLinear(map) => assert_distributes(data, &map),
        };
        assert_distributes(log_uniform(), &LogLinear::new(1, 1 << 40));
    }

    #[test]
    fn a_last_block_past_the_slice_end_is_placed() {
        // A few keys spread thinly over the lower buckets, which stay smaller
        // than one block or empty; every other key lies in the last bucket.
        // The last bucket's area starts at the first block boundary, and
        // with at most `len % BLOCK` keys below it, its blocks fill that
        // area up to the boundary past the slice end: the final block goes
        // to the overflow block, and all but `len % BLOCK` of its keys
        // overhang the slice.
        let map = Linear { low: 0, shift: 20 };
        let last = (BUCKETS as u64 - 1) << map.shift;
        let len = DISTRIBUTION_MIN_LEN + 3 * BLOCK + 60;
        let data: Vec<u64> = (0..len as u64)
            .map(|i| match i % 997 {
                0 => mix(i) % last,
                _ => last + mix(i) % 1000,
            })
            .collect();
        let bounds = assert_distributes(data, &map);
        assert!(bounds[BUCKETS - 1] <= len % BLOCK, "{bounds:?}");
        assert!(bounds[BUCKETS - 1] > 0, "{bounds:?}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        /// Slices at block multiples ±1 from the distribution floor up, keys
        /// below `2^20`, and both maps at every bucket width: a narrow linear
        /// bucket leaves buckets smaller than one block or empty and piles
        /// most keys into the last bucket, whose final block then runs past
        /// the slice end; a shift of 10 spreads the keys evenly, as does a
        /// log-linear map with few bits per octave.
        #[test]
        fn distribution_places_every_key_in_its_bucket(
            blocks in 0usize..24,
            edge in 0usize..3,
            shift in 0u32..14,
            log in any::<bool>(),
            seed in any::<u64>(),
        ) {
            let len = DISTRIBUTION_MIN_LEN + blocks * BLOCK + edge - 1;
            let data: Vec<u64> = (0..len as u64).map(|i| mix(seed ^ i) % (1 << 20)).collect();
            let low = mix(seed) % 1024;
            if log {
                assert_distributes(data, &LogLinear { low, bits: shift.min(LOG_BUCKETS) });
            } else {
                assert_distributes(data, &Linear { low, shift });
            }
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
        // A permutation of 0..50,000: no rank shares its band of one, so no
        // selected key meets a bound.
        let data: Vec<u32> = (0..50_000).map(|i| (i * 7919) % 50_000).collect();
        let ranks = regular_sample_ranks(data.len(), 500);
        assert_eq!(selects_for(data, &ranks), ranks.len());
    }

    #[test]
    fn single_image_buckets_take_no_select() {
        // 1000 values, so the linear map has one image per bucket: only the
        // first bucket, which also takes the keys below the trimmed range,
        // selects.  Each value's copies span about 60 ranks.
        let data: Vec<u32> = (0..60_000_u64).map(|i| (mix(i) % 1000) as u32).collect();
        let ranks = regular_sample_ranks(data.len(), 600);
        let selects = selects_for(data, &ranks);
        assert!(selects <= 12, "{selects} selects");
    }

    #[test]
    fn a_heavy_key_bucket_ends_in_three_selects() {
        // 40,000 distinct even keys and 20,000 copies of one odd key in
        // their middle.  The heavy key's bucket, under 8x the mean share but
        // below the length floor, goes to the recursion: its first selection
        // picks the heavy key, and on each side the next one meets it as the
        // ceiling or the floor, so one pass settles that side's heavy ranks.
        // Every other rank takes one selection.
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
        assert!(data.len() >= DISTRIBUTION_MIN_LEN);
        let ranks = regular_sample_ranks(data.len(), 600);
        let mut sorted = data.clone();
        sorted.sort_unstable();
        let heavy = ranks.iter().filter(|&&r| sorted[r] == HEAVY).count();
        assert!(heavy > 100, "{heavy} heavy ranks");
        assert_eq!(selects_for(data, &ranks), ranks.len() - heavy + 3);
    }

    /// Slices distributed while `multiselect` places `ranks` in `data`,
    /// which it must also get right.
    fn distributions_for(mut data: Vec<u64>, ranks: &[usize]) -> usize {
        let mut sorted = data.clone();
        sorted.sort_unstable();
        let before = DISTRIBUTIONS.with(std::cell::Cell::get);
        let picked = multiselect(&mut data, ranks);
        let distributions = DISTRIBUTIONS.with(std::cell::Cell::get) - before;
        let expected: Vec<u64> = ranks.iter().map(|&r| sorted[r]).collect();
        assert_eq!(picked, expected);
        distributions
    }

    #[test]
    fn heavy_buckets_are_distributed_again_down_to_the_depth_cap() {
        let len = 1 << 18;
        let ranks = regular_sample_ranks(len, 1000);
        // Spread keys: one level.
        let uniform: Vec<u64> = (0..len as u64).map(mix).collect();
        assert_eq!(distributions_for(uniform, &ranks), 1);
        // A quarter of the keys in one cluster and the rest in one far
        // above it: the linear map puts each cluster in one bucket, and the
        // log-linear map, which spreads the cluster the range starts in,
        // still leaves the far one whole, so the linear map wins the tie and
        // both clusters are distributed again.
        let clusters: Vec<u64> = (0..len as u64)
            .map(|i| u64::from(mix(i) & 3 != 0) * ((1 << 50) + (1 << 40)) + mix(!i) % 1_000_000)
            .collect();
        assert_eq!(distributions_for(clusters, &ranks), 3);
        // Clusters nested in clusters, each far inside its parent's range:
        // at every level the keys of the inner clusters share one bucket
        // under either map, and the cap stops at `MAX_DEPTH` levels.
        let nested: Vec<u64> = (0..len as u64)
            .map(|i| match mix(i) % 8 {
                0 => mix(!i) >> 4,
                1 => (1 << 59) + (mix(!i) >> 24),
                2 => ((1 << 59) + (1 << 39)) + (mix(!i) >> 44),
                _ => ((1 << 59) + (1 << 39) + (1 << 19)) + (mix(!i) >> 54),
            })
            .collect();
        assert_eq!(distributions_for(nested, &ranks), MAX_DEPTH);
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
