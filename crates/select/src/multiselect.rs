//! Multi-selection: find many order statistics at once.
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
//! full trip to memory.  Yet the sample phase wants only the selected
//! values.  So large rank sets on large slices *count, then gather*, as
//! bucketSelect and radixSelect do on GPUs (Alabi, Blanchard, Gordon &
//! Steinbach, "Fast K-Selection Algorithms for Graphics Processing Units",
//! JEA 2012), bucketing by the radix classifier of IPS²Ra (Axtmann, Witt,
//! Ferizovic & Sanders, TOPC 2022):
//!
//! 1. **Map.**  Every key has an order-preserving `u64` image,
//!    [`RadixKey::radix`].  The sorted images of an evenly spaced 4096-key
//!    oversample, less 16 at each end, span 65,536 value-ordered buckets
//!    under a *linear* map, `(image − low) >> shift`, or a *log-linear* one
//!    that cuts every octave of `image − low` into `2^k` equal buckets; keys
//!    beyond the range land in the first or the last bucket.  A call takes
//!    the map whose buckets that hold a rank's oversample position hold the
//!    fewer oversample keys: the estimated number of keys to gather.
//! 2. **Count.**  One pass reads each key's image once, counts the key in
//!    its bucket and stores the bucket's two-byte id.
//! 3. **Classify.**  The prefix sums of the counts place every rank in its
//!    bucket.  A bucket holding a rank is *single-image* if every image in
//!    it is one value (its ranks all take that key), *heavy* if it holds
//!    [`DISTRIBUTION_MIN_LEN`] keys and 32 ranks, the floors below (one of
//!    two far-apart clusters, or a heavy key among spread ones), else
//!    *light*.
//! 4. **Gather.**  One pass reads the stored ids, not the images, and
//!    writes each key where its bucket's slot says: a light bucket's keys
//!    fill its slice of a small buffer, a single-image bucket's all land in
//!    its one slot, every other key in a dump slot, so the pass branches
//!    only on light keys.  Each heavy bucket is then moved to the slice's
//!    front by a branchless partition on the stored id, ids alongside.
//! 5. **Select.**  The recursion runs inside each light bucket's copy on the
//!    ranks that fall in it; each heavy bucket is counted and gathered again
//!    on its own keys, at most three levels deep.
//!
//! On spread keys 1–2% of a run is copied: each key is read twice and only
//! its id is written back, where an in-place distribution moved every key.
//! Every selected value is the exact order statistic whichever path ran, so
//! OPAQ sketches do not depend on it.  `data` is left a permutation of its
//! input, and no more is promised.
//!
//! Slices shorter than [`DISTRIBUTION_MIN_LEN`] and rank sets of fewer than
//! 32 ranks go to the recursion directly, which is cheaper there.  So do
//! slices whose oversample has fewer than 128 distinct images among its 1023
//! evenly spaced splitter positions (constant or few-valued data), which the
//! floor and ceiling rules end in a few passes.

use crate::partition::{block_partition_by, block_partition_mirrored};
use crate::{RadixKey, SelectionStrategy};
use std::ops::Range;

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
/// Returns the selected values in ascending rank order.  `data` is left a
/// permutation of its input, in no promised order.
///
/// # Panics
/// Panics if any rank is out of bounds or if `ranks` contains duplicates.
pub fn multiselect<T: Ord + RadixKey>(data: &mut [T], ranks: &[usize]) -> Vec<T> {
    let mut out = Vec::with_capacity(ranks.len());
    Multiselector::default().select_into(data, ranks, &mut out);
    out
}

/// [`multiselect`] into a caller-provided buffer (cleared first).
/// `_strategy` has one value and changes nothing.  Each call allocates its
/// own scratch; a loop over many slices should hold a [`Multiselector`].
pub fn multiselect_into<T: Ord + RadixKey>(
    data: &mut [T],
    ranks: &[usize],
    _strategy: SelectionStrategy,
    out: &mut Vec<T>,
) {
    Multiselector::default().select_into(data, ranks, out);
}

/// [`multiselect`] with its scratch kept between calls, as the sample phase
/// does.  Slices of at least [`DISTRIBUTION_MIN_LEN`] keys with 32 or more
/// ranks use a 256 KB bucket count table, a two-byte bucket id per key,
/// grown to the largest slice seen, and a buffer for the keys of the
/// buckets that hold a rank: 1–2% of a slice of spread keys, up to all of
/// it on clustered or coarsely bucketed ones, of which room for 65,536
/// keys is kept between calls.
#[derive(Clone)]
pub struct Multiselector<T> {
    /// Keys per bucket after the count pass, then each bucket's [`Slot`].
    slots: Vec<u32>,
    /// Every key's bucket at the current level.
    ids: Vec<u16>,
    /// Each level's gathered keys, after its parents'.
    gather: Vec<T>,
}

/// Scratch sizes only: the tables are megabytes of bucket ids.
impl<T> std::fmt::Debug for Multiselector<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let ids = self.ids.len();
        write!(
            f,
            "Multiselector {{ ids: {ids}, gathered: {} }}",
            self.gather.len()
        )
    }
}

/// A selector with no scratch allocated yet.
impl<T> Default for Multiselector<T> {
    fn default() -> Self {
        Self {
            slots: Vec::new(),
            ids: Vec::new(),
            gather: Vec::new(),
        }
    }
}

impl<T: Ord + RadixKey> Multiselector<T> {
    /// Select the order statistics listed in `ranks` from `data` into `out`
    /// (cleared first), in ascending rank order; see [`multiselect`].
    /// Unsorted rank sets are sorted in one scratch copy.
    ///
    /// # Panics
    /// Panics if any rank is out of bounds or if `ranks` contains duplicates.
    pub fn select_into(&mut self, data: &mut [T], ranks: &[usize], out: &mut Vec<T>) {
        out.clear();
        let sorted_ranks;
        // Pre-sorted ranks are duplicate-free and used as they are.
        let ranks = if ranks.windows(2).all(|w| w[0] < w[1]) {
            ranks
        } else {
            let mut sorted = ranks.to_vec();
            sorted.sort_unstable();
            if let Some(pair) = sorted.windows(2).find(|w| w[0] == w[1]) {
                panic!("duplicate rank {} in multiselect", pair[0]);
            }
            sorted_ranks = sorted;
            &sorted_ranks
        };
        if let Some(&max) = ranks.last() {
            let len = data.len();
            assert!(
                max < len,
                "rank {max} out of bounds for slice of length {len}"
            );
        }
        self.select_sorted(data, ranks, out);
    }

    /// Append the values of `ranks` (sorted, unique, in bounds) to `out`:
    /// count and gather where it pays, the recursion alone elsewhere.
    fn select_sorted(&mut self, data: &mut [T], ranks: &[usize], out: &mut Vec<T>) {
        let len = data.len();
        // A count and a gather position must fit below a slot's flag bit.
        if !(DISTRIBUTION_MIN_LEN..FIXED as usize).contains(&len)
            || ranks.len() < DISTRIBUTION_MIN_RANKS
        {
            split_ranks(data, 0, ranks, None, None);
            out.extend(ranks.iter().map(|&r| data[r]));
            return;
        }
        self.slots.resize(BUCKETS, 0);
        if self.ids.len() < len {
            self.ids.resize(len, 0);
        }
        let mut scratch = Scratch {
            slots: (&mut self.slots[..])
                .try_into()
                .expect("the slot table has one word per bucket"),
            gather: &mut self.gather,
        };
        scratch.gather.clear();
        count_gather_select(data, &mut self.ids[..len], 0, ranks, &mut scratch, 1, out);
        self.gather.shrink_to(KEPT_GATHER);
    }
}

/// Gathered keys a [`Multiselector`] keeps room for between calls: the
/// 1–2% of a 1M-key slice of spread keys, while a slice that gathered most
/// of itself gives the rest back.
const KEPT_GATHER: usize = 1 << 16;

/// Slices shorter than this skip the buckets and run the recursion alone:
/// a count and gather costs a fixed ~150 µs (the 256 KB table, the bucket
/// walk, the oversample), and with 32 ranks it measured even at this length.
pub const DISTRIBUTION_MIN_LEN: usize = 1 << 15;

/// Rank sets smaller than this skip the buckets: the recursion's few passes
/// beat the count and gather.
const DISTRIBUTION_MIN_RANKS: usize = 32;

const LOG_BUCKETS: u32 = 16;
const BUCKETS: usize = 1 << LOG_BUCKETS;

/// Oversample keys whose images choose the range and the map.
const OVERSAMPLE: usize = 4096;

/// Oversample keys left out of the range at each end: keys past either end
/// share the first or the last bucket, so a few outliers do not coarsen the
/// other keys' buckets.
const TRIM: usize = 16;

/// Fewer distinct images than this at the oversample's `SPLITTERS - 1`
/// evenly spaced positions means a few-valued slice: a handful of buckets
/// would hold nearly every key, so counting buys nothing.
const MIN_DISTINCT_SPLITTERS: usize = SPLITTERS / 8;
const SPLITTERS: usize = 1024;

/// Most nested count-and-gather levels of one slice: keys laid out to keep
/// one bucket heavy under every map could shrink it slowly.  Two levels
/// serve clusters, a third nested ones.
const MAX_DEPTH: usize = 3;

/// A bucket's word in the slot table during the gather pass: `at`, below
/// [`FIXED`], for a light bucket, whose next key goes to `gather[at]`, and
/// [`FIXED`]` | at` for one whose every key goes to `gather[at]`: the one
/// key a single-image bucket needs, or its level's dump slot.
type Slot = u32;
const FIXED: Slot = 1 << 31;

/// The scratch one level works in, borrowed from a [`Multiselector`].
struct Scratch<'a, T> {
    slots: &'a mut [Slot; BUCKETS],
    gather: &'a mut Vec<T>,
}

/// Append the values of the absolute `ranks` inside `data` (at absolute
/// index `offset`) to `out`, in rank order: count, gather and select, or the
/// recursion alone when the oversample is few-valued.  `ids` is `data`'s
/// slice of the id scratch.
fn count_gather_select<T: Ord + RadixKey>(
    data: &mut [T],
    ids: &mut [u16],
    offset: usize,
    ranks: &[usize],
    scratch: &mut Scratch<'_, T>,
    depth: usize,
    out: &mut Vec<T>,
) {
    let Some(map) = BucketMap::for_slice(data, offset, ranks) else {
        split_ranks(data, offset, ranks, None, None);
        out.extend(ranks.iter().map(|&r| data[r - offset]));
        return;
    };
    #[cfg(test)]
    DISTRIBUTIONS.with(|count| count.set(count.get() + 1));
    let base = scratch.gather.len();
    let pieces = distribute(data, ids, offset, ranks, &map, scratch, depth);
    for piece in &pieces {
        let ranks = &ranks[piece.ranks.clone()];
        let start = offset + piece.start;
        let Range { start: at, end } = piece.keys.clone();
        match piece.kind {
            Kind::Single => out.extend(ranks.iter().map(|_| scratch.gather[at])),
            Kind::Light => {
                let keys = &mut scratch.gather[at..end];
                split_ranks(keys, start, ranks, None, None);
                out.extend(ranks.iter().map(|&r| keys[r - start]));
            }
            Kind::Heavy => count_gather_select(
                &mut data[at..end],
                &mut ids[at..end],
                start,
                ranks,
                scratch,
                depth + 1,
                out,
            ),
        }
    }
    scratch.gather.truncate(base);
}

/// What a bucket that holds a rank becomes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// Every image in it is one value: one gathered key answers its ranks.
    Single,
    /// Copied into the gather buffer and selected there.
    Light,
    /// Grouped at the slice's front and counted again.
    Heavy,
}

/// A bucket that holds a rank, after [`distribute`].
#[derive(Debug)]
struct Piece {
    bucket: usize,
    kind: Kind,
    /// Keys of the slice in lower buckets, so the bucket's first rank.
    start: usize,
    /// Indices of the bucket's ranks in the level's rank set.
    ranks: Range<usize>,
    /// Its keys: in the gather buffer (one for a single-image bucket), or
    /// in the slice for a heavy one.
    keys: Range<usize>,
}

/// One level's count and gather over `data` under `map`: its pieces, in
/// bucket order, with each light or single-image bucket's keys in its `keys`
/// range of `scratch.gather` and the heavy buckets' keys in theirs at the
/// front of `data`, `ids` moved alongside.  `data` stays a permutation.
fn distribute<T: Ord + RadixKey>(
    data: &mut [T],
    ids: &mut [u16],
    offset: usize,
    ranks: &[usize],
    map: &BucketMap,
    scratch: &mut Scratch<'_, T>,
    depth: usize,
) -> Vec<Piece> {
    let slots = &mut *scratch.slots;
    slots.fill(0);
    match map {
        BucketMap::Linear(map) => count(data, ids, map, slots),
        BucketMap::LogLinear(map) => count(data, ids, map, slots),
    }

    // A bucket's ranks are those below the keys in it and the buckets before.
    let mut pieces = Vec::new();
    // The level's first gather slot takes the keys it passes over.
    let dump = FIXED | scratch.gather.len() as Slot;
    let mut gathered = scratch.gather.len() + 1;
    let (mut start, mut first) = (0, 0);
    for (bucket, slot) in slots.iter_mut().enumerate() {
        let len = *slot as usize;
        let end = start + len;
        if first == ranks.len() || ranks[first] - offset >= end {
            *slot = dump;
            start = end;
            continue;
        }
        let last = first + ranks[first..].partition_point(|&r| r - offset < end);
        let (kind, keys, word) = if map.single_image(bucket) {
            (
                Kind::Single,
                gathered..gathered + 1,
                FIXED | gathered as Slot,
            )
        } else if len >= DISTRIBUTION_MIN_LEN
            && last - first >= DISTRIBUTION_MIN_RANKS
            && depth < MAX_DEPTH
        {
            // Its keys are placed once the gather is done.
            (Kind::Heavy, 0..len, dump)
        } else {
            (Kind::Light, gathered..gathered + len, gathered as Slot)
        };
        *slot = word;
        if kind != Kind::Heavy {
            gathered = keys.end;
        }
        pieces.push(Piece {
            bucket,
            kind,
            start,
            ranks: first..last,
            keys,
        });
        (start, first) = (end, last);
    }

    if pieces.iter().any(|piece| piece.kind != Kind::Heavy) {
        scratch.gather.resize(gathered, data[0]);
        gather(data, ids, slots, scratch.gather);
    }

    // Heavy buckets to the slice's front in bucket order, one partition on
    // the stored id each, none for a last one that fills the rest.
    let mut front = 0;
    for piece in pieces.iter_mut().filter(|piece| piece.kind == Kind::Heavy) {
        let len = piece.keys.len();
        if front + len < data.len() {
            let id = piece.bucket as u16;
            let (keys, ids) = (&mut data[front..], &mut ids[front..]);
            block_partition_mirrored(ids, |&key_id| key_id == id, |a, b| keys.swap(a, b));
        }
        piece.keys = front..front + len;
        front += len;
    }
    pieces
}

/// The count pass: store every key's bucket under `map` in `ids` and count
/// it in `counts`.  One image per key.
fn count<T: RadixKey>(
    data: &[T],
    ids: &mut [u16],
    map: &impl Classify,
    counts: &mut [u32; BUCKETS],
) {
    for (key, id) in data.iter().zip(ids.iter_mut()) {
        // Buckets are below 2^16: an exact cast, and no bounds check.
        let bucket = map.bucket(key.radix()) as u16;
        counts[usize::from(bucket)] += 1;
        *id = bucket;
    }
}

/// The gather pass: write every key to the place its [`Slot`] word names,
/// reading the stored ids, not the images; a light bucket's word then moves on.
fn gather<T: Copy>(data: &[T], ids: &[u16], slots: &mut [Slot; BUCKETS], gather: &mut [T]) {
    for (&key, &id) in data.iter().zip(ids) {
        let slot = slots[usize::from(id)];
        gather[(slot & !FIXED) as usize] = key;
        if slot < FIXED {
            slots[usize::from(id)] = slot + 1;
        }
    }
}

/// Maps a key's image to its bucket; buckets are ordered by value.
trait Classify {
    /// The bucket, below [`BUCKETS`], of a key whose image is `image`.
    fn bucket(&self, image: u64) -> usize;
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

/// The map one level counts with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BucketMap {
    Linear(Linear),
    LogLinear(LogLinear),
}

impl Classify for BucketMap {
    fn bucket(&self, image: u64) -> usize {
        match self {
            Self::Linear(map) => map.bucket(image),
            Self::LogLinear(map) => map.bucket(image),
        }
    }
}

impl BucketMap {
    /// The map for `data` (at least [`OVERSAMPLE`] keys, at absolute index
    /// `offset`, holding the absolute `ranks`): of both maps over the
    /// trimmed range of its oversample, the one with the smaller
    /// [`gather_volume`], linear on a tie.  `None` for a few-valued
    /// oversample.
    fn for_slice<T: RadixKey>(data: &[T], offset: usize, ranks: &[usize]) -> Option<Self> {
        let stride = data.len() / OVERSAMPLE;
        debug_assert!(stride > 0, "slice shorter than the oversample");
        let mut images: Vec<u64> = (0..OVERSAMPLE)
            .map(|i| data[i * stride + stride / 2].radix())
            .collect();
        images.sort_unstable();
        let per_splitter = OVERSAMPLE / SPLITTERS;
        let distinct = 1
            + (per_splitter..OVERSAMPLE - per_splitter)
                .step_by(per_splitter)
                .filter(|&at| images[at] < images[at + per_splitter])
                .count();
        if distinct < MIN_DISTINCT_SPLITTERS {
            return None;
        }
        // Where each rank falls in the sorted oversample.
        let positions: Vec<usize> = ranks
            .iter()
            .map(|&r| ((r - offset) / stride).min(OVERSAMPLE - 1))
            .collect();
        let (low, high) = (images[TRIM], images[OVERSAMPLE - 1 - TRIM]);
        [
            Self::Linear(Linear::new(low, high)),
            Self::LogLinear(LogLinear::new(low, high)),
        ]
        .into_iter()
        .min_by_key(|map| gather_volume(&images, &positions, map))
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

/// How many of the `sorted` images share a bucket under `map` with one of
/// the images at `positions` (ascending): the keys a gather would copy, in
/// oversample keys.  Buckets are value-ordered, so each bucket's images are
/// one run of `sorted`.
fn gather_volume(sorted: &[u64], positions: &[usize], map: &impl Classify) -> usize {
    let mut volume = 0;
    let (mut at, mut next) = (0, 0);
    while at < sorted.len() && next < positions.len() {
        let bucket = map.bucket(sorted[at]);
        let mut end = at + 1;
        while end < sorted.len() && map.bucket(sorted[end]) == bucket {
            end += 1;
        }
        if positions[next] < end {
            volume += end - at;
            next += positions[next..].partition_point(|&p| p < end);
        }
        at = end;
    }
    volume
}

#[cfg(test)]
thread_local! {
    /// Exact selections [`split_ranks`] made on this thread.
    static SELECTS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    /// Count-and-gather levels [`count_gather_select`] ran on this thread.
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
        work.sort_unstable();
        assert_eq!(work, sorted, "the slice must stay a permutation");
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
    fn a_selector_reused_across_lengths_matches_sort() {
        // Long, short, longer and long again: the scratch grows, is reused,
        // and never leaks one call's keys into the next.  The last slice is
        // 500 values 2^30 apart, so nearly every key is in a light bucket
        // that holds a rank and is gathered; the room kept afterwards is
        // still capped.
        let mut selector = Multiselector::default();
        let mut out = Vec::new();
        for (len, seed, values, spacing) in [
            (1 << 16, 1, 1_000_000, 0),
            (20_000, 2, 1_000_000, 0),
            (100_000, 3, 1_000_000, 0),
            (1 << 16, 4, 1_000_000, 0),
            (1 << 18, 5, 500, 30),
        ] {
            let data: Vec<u64> = (0..len as u64)
                .map(|i| (mix(seed ^ i) % values) << spacing)
                .collect();
            let ranks = regular_sample_ranks(len, 500);
            let mut sorted = data.clone();
            sorted.sort_unstable();
            let mut work = data;
            selector.select_into(&mut work, &ranks, &mut out);
            let expected: Vec<u64> = ranks.iter().map(|&r| sorted[r]).collect();
            assert_eq!(out, expected, "len {len}");
            assert!(selector.gather.capacity() <= KEPT_GATHER, "len {len}");
        }
    }

    /// Regular ranks of `data`, for the map choice.
    fn map_for(data: &[u64]) -> Option<BucketMap> {
        BucketMap::for_slice(data, 0, &regular_sample_ranks(data.len(), 1000))
    }

    #[test]
    fn few_valued_slices_get_no_bucket_map() {
        let len = DISTRIBUTION_MIN_LEN;
        let constant = vec![9_u64; len];
        assert!(map_for(&constant).is_none());
        let few: Vec<u64> = (0..len as u64).map(|i| (i * 2654435761) % 3).collect();
        assert!(map_for(&few).is_none());
        let uniform: Vec<u64> = (0..len as u64)
            .map(|i| (i * 2654435761) % 1_000_003)
            .collect();
        assert!(map_for(&uniform).is_some());
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

    /// The sorted images of `data`'s oversample, as the map choice reads it.
    fn oversample(data: &[u64]) -> Vec<u64> {
        let stride = data.len() / OVERSAMPLE;
        let mut images: Vec<u64> = (0..OVERSAMPLE)
            .map(|i| data[i * stride + stride / 2])
            .collect();
        images.sort_unstable();
        images
    }

    #[test]
    fn each_slice_takes_the_map_with_the_smallest_gather_volume() {
        // Uniform keys: linear buckets are narrow everywhere, and the
        // log-linear map's top octaves are 32x wider.
        let uniform: Vec<u64> = (0..DISTRIBUTION_MIN_LEN as u64).map(mix).collect();
        let Some(BucketMap::Linear(map)) = map_for(&uniform) else {
            panic!("uniform keys take the linear map");
        };
        assert_eq!(map.shift, 64 - LOG_BUCKETS);
        let Some(BucketMap::LogLinear(map)) = map_for(&log_uniform()) else {
            panic!("log-uniform keys take the log-linear map");
        };
        assert_eq!(map.bits, 11);
        // Sorted keys with one in 64 an outlier near `u64::MAX`: the
        // trimmed range reaches the outliers, so one linear bucket would
        // hold every dense key, while the log-linear map's low octaves keep
        // them apart.
        let outliers: Vec<u64> = (0..DISTRIBUTION_MIN_LEN as u64)
            .map(|i| match mix(i) % 64 {
                0 => u64::MAX - mix(!i) % 1000,
                _ => i,
            })
            .collect();
        let images = oversample(&outliers);
        assert!(images[OVERSAMPLE - 1 - TRIM] > u64::MAX - 1000);
        let Some(BucketMap::LogLinear(map)) = map_for(&outliers) else {
            panic!("sorted keys with outliers take the log-linear map");
        };
        assert_eq!(map.low, images[TRIM]);
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
                prop_assert_eq!(map.bucket(low), 0);
                for pair in images.windows(2) {
                    let (a, b) = (map.bucket(pair[0]), map.bucket(pair[1]));
                    prop_assert!(a <= b && b < BUCKETS, "{:?}: {:?} -> {} {}", map, pair, a, b);
                    if a == b && map.single_image(a) {
                        prop_assert_eq!(pair[0], pair[1], "{:?} bucket {}", map, a);
                    }
                }
            }
        }
    }

    /// Run one level's count and gather over `data` under `map` at `depth`,
    /// and check what it promises against the keys' buckets.  Returns the
    /// pieces.
    fn check_distribute(
        data: Vec<u64>,
        ranks: &[usize],
        map: BucketMap,
        depth: usize,
    ) -> Vec<Piece> {
        let mut slots = vec![0; BUCKETS];
        let mut gathered = vec![7; 5];
        let mut scratch = Scratch {
            slots: (&mut slots[..]).try_into().unwrap(),
            gather: &mut gathered,
        };
        let (mut work, mut ids) = (data.clone(), vec![0; data.len()]);
        let pieces = distribute(&mut work, &mut ids, 0, ranks, &map, &mut scratch, depth);
        let mut by_bucket = vec![Vec::new(); BUCKETS];
        for &key in &data {
            by_bucket[map.bucket(key)].push(key);
        }
        let sorted = |mut keys: Vec<u64>| {
            keys.sort_unstable();
            keys
        };
        let (mut front, mut rank) = (0, 0);
        for piece in &pieces {
            let b = piece.bucket;
            let keys = &by_bucket[b];
            let below: usize = by_bucket[..b].iter().map(Vec::len).sum();
            assert_eq!(piece.start, below, "bucket {b} start");
            assert_eq!(piece.ranks.start, rank, "bucket {b} takes the next ranks");
            rank = piece.ranks.end;
            assert!(ranks[piece.ranks.clone()]
                .iter()
                .all(|&r| r >= below && r < below + keys.len()));
            let placed = match piece.kind {
                Kind::Light => &gathered[piece.keys.clone()],
                Kind::Single => {
                    assert!(keys.iter().all(|&key| key == gathered[piece.keys.start]));
                    continue;
                }
                Kind::Heavy => {
                    assert_eq!(piece.keys, front..front + keys.len(), "heavy bucket {b}");
                    front = piece.keys.end;
                    let ids = &ids[piece.keys.clone()];
                    assert!(
                        ids.iter().all(|&id| usize::from(id) == b),
                        "ids of bucket {b}"
                    );
                    &work[piece.keys.clone()]
                }
            };
            assert_eq!(
                sorted(placed.to_vec()),
                sorted(keys.clone()),
                "bucket {b} keys"
            );
        }
        assert_eq!(rank, ranks.len(), "every rank is in a piece");
        assert_eq!(&gathered[..5], &[7; 5], "the levels above keep their keys");
        assert!(work
            .iter()
            .zip(&ids)
            .all(|(&key, &id)| map.bucket(key) == usize::from(id)));
        assert_eq!(sorted(work), sorted(data), "the slice stays a permutation");
        pieces
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]
        /// A quarter of the keys spread over `2^40` and up to three narrow
        /// clusters, each heavy enough to stay in place above the depth
        /// cap, under either map: every light bucket's keys fill its slice
        /// of the gather buffer, and the heavy ones the slice's front in
        /// bucket order, with the ids of their buckets.
        #[test]
        fn the_gather_places_light_keys_in_their_slices_and_heavy_keys_in_front(
            seed in any::<u64>(),
            extra in 8_000usize..20_000,
            clusters in 1u64..4,
            log in any::<bool>(),
            s in 200usize..1200,
            depth in 1..=MAX_DEPTH,
        ) {
            let len = 4 * DISTRIBUTION_MIN_LEN + extra;
            let data: Vec<u64> = (0..len as u64)
                .map(|i| match mix(seed ^ i) % 4 {
                    c if c > 0 && c <= clusters => (c << 38) + mix(!seed ^ i) % 1000,
                    _ => mix(!seed ^ i) >> 24,
                })
                .collect();
            let ranks = regular_sample_ranks(len, s);
            let (low, high) = (0, 1 << 40);
            let map = if log {
                BucketMap::LogLinear(LogLinear::new(low, high))
            } else {
                BucketMap::Linear(Linear::new(low, high))
            };
            let pieces = check_distribute(data, &ranks, map, depth);
            let heavy = pieces.iter().filter(|piece| piece.kind == Kind::Heavy).count();
            prop_assert_eq!(heavy, if depth < MAX_DEPTH { clusters as usize } else { 0 });
        }
    }

    #[test]
    fn single_image_buckets_gather_one_key() {
        // 3000 values under a unit-width map: one key per rank bucket.
        let data: Vec<u64> = (0..50_000).map(|i| 1000 + mix(i) % 3000).collect();
        let ranks = regular_sample_ranks(data.len(), 700);
        let pieces = check_distribute(data, &ranks, BucketMap::Linear(Linear::new(1000, 4000)), 1);
        let singles = pieces
            .iter()
            .filter(|piece| piece.kind == Kind::Single)
            .count();
        assert!(singles > 600, "{singles} single-image buckets");
        assert!(pieces
            .iter()
            .all(|piece| piece.kind != Kind::Single || piece.keys.len() == 1));
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
        // A permutation of 0..50,000 spaced 4096 apart: each rank's bucket
        // holds only its own key, and no rank shares its band of one, so no
        // selected key meets a bound.
        let data: Vec<u32> = (0..50_000).map(|i| ((i * 7919) % 50_000) << 12).collect();
        let ranks = regular_sample_ranks(data.len(), 500);
        assert_eq!(selects_for(data, &ranks), ranks.len());
    }

    #[test]
    fn single_image_buckets_take_no_select() {
        // 1000 values, so the linear map has one image per bucket: only the
        // first and last buckets, which also take the keys beyond the
        // trimmed range, select.  Each value's copies span about 60 ranks.
        let data: Vec<u32> = (0..60_000_u64).map(|i| (mix(i) % 1000) as u32).collect();
        let ranks = regular_sample_ranks(data.len(), 600);
        let selects = selects_for(data, &ranks);
        assert!(selects <= 12, "{selects} selects");
    }

    #[test]
    fn a_heavy_key_bucket_ends_in_three_selects() {
        // 40,000 distinct even keys and 20,000 copies of one odd key in
        // their middle.  The heavy key's bucket is below the length floor,
        // so it is gathered: its first selection picks the heavy key, and
        // on each side the next one meets it as the ceiling or the floor,
        // so one pass settles that side's heavy ranks.  Every other rank
        // takes one selection.
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

    /// Count-and-gather levels while `multiselect` selects `ranks` from
    /// `data`, which it must also get right.
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
    fn heavy_buckets_are_counted_again_down_to_the_depth_cap() {
        let len = 1 << 18;
        let ranks = regular_sample_ranks(len, 1000);
        // Spread keys: one level.
        let uniform: Vec<u64> = (0..len as u64).map(mix).collect();
        assert_eq!(distributions_for(uniform, &ranks), 1);
        // A quarter of the keys in one cluster and the rest in one far
        // above it: the far cluster shares one bucket under every map, so
        // it is counted again.
        let clusters: Vec<u64> = (0..len as u64)
            .map(|i| u64::from(mix(i) & 3 != 0) * ((1 << 50) + (1 << 40)) + mix(!i) % 1_000_000)
            .collect();
        assert_eq!(distributions_for(clusters, &ranks), 2);
        // Clusters nested in clusters, each far inside its parent's range:
        // at every level the keys of the inner clusters share one bucket
        // under every map, and the cap stops at `MAX_DEPTH` levels.
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
