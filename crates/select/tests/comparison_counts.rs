//! Comparison-count and image-count ceilings for `multiselect`, a cost gate
//! that host noise cannot move.
//!
//! The keys count every `Ord`/`PartialOrd` call, and every `RadixKey::radix`
//! call, in thread-local counters.  Selection makes no random choices, so
//! for a given input the counts are exact and the same on every run.  Each
//! shape takes `s = 1000` regular ranks of `2^17` keys, above
//! `DISTRIBUTION_MIN_LEN`, so the keys are counted into buckets wherever
//! the oversample allows.  The ceilings are the counts measured when they
//! were set: a change that makes selection compare more fails here, and one
//! that compares less should lower its ceiling.  The count pass buckets a
//! key by its image, with no comparison, and only the keys gathered from
//! the buckets that hold a rank are compared, so spread keys cost well
//! under one comparison per key.  The image count is about one per key for
//! each count-and-gather level a key goes through: a regression into extra
//! levels, or a pass that reads an image again, fails that count.  (The
//! multiple-selection lower bound for comparison-based selection of 1000
//! ranks is about log₂ 1000 ≈ 9.97 comparisons per key.)

use opaq_select::{multiselect, regular_sample_ranks, RadixKey, DISTRIBUTION_MIN_LEN};
use std::cell::Cell;
use std::cmp::Ordering;

thread_local! {
    static COMPARISONS: Cell<u64> = const { Cell::new(0) };
    static IMAGES: Cell<u64> = const { Cell::new(0) };
}

fn tick() {
    COMPARISONS.with(|count| count.set(count.get() + 1));
}

/// A `u64` key that counts its comparisons and its images; equality is not
/// counted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Counted(u64);

impl Ord for Counted {
    fn cmp(&self, other: &Self) -> Ordering {
        tick();
        self.0.cmp(&other.0)
    }
}

impl PartialOrd for Counted {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
    fn lt(&self, other: &Self) -> bool {
        tick();
        self.0 < other.0
    }
    fn le(&self, other: &Self) -> bool {
        tick();
        self.0 <= other.0
    }
    fn gt(&self, other: &Self) -> bool {
        tick();
        self.0 > other.0
    }
    fn ge(&self, other: &Self) -> bool {
        tick();
        self.0 >= other.0
    }
}

impl RadixKey for Counted {
    fn radix(self) -> u64 {
        IMAGES.with(|count| count.set(count.get() + 1));
        self.0
    }
}

const N: usize = 1 << 17;
const S: usize = 1000;
const _: () = assert!(N >= DISTRIBUTION_MIN_LEN);

/// SplitMix64 step: a deterministic key stream per seed.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `N` keys drawn from a Zipf law with exponent 0.86 over `2^16` values,
/// the paper's skew, by inverse transform over the cumulative weights.
fn zipf() -> Vec<u64> {
    let mut total = 0.0;
    let cumulative: Vec<f64> = (1..=1u32 << 16)
        .map(|rank| {
            total += f64::from(rank).powf(-0.86);
            total
        })
        .collect();
    (0..N as u64)
        .map(|i| {
            let u = (mix(i) >> 11) as f64 / (1u64 << 53) as f64 * total;
            cumulative.partition_point(|&c| c < u) as u64
        })
        .collect()
}

/// Comparisons and images per key that `multiselect` of `S` regular ranks
/// makes on `keys`, after checking the selected values against a sort.
fn counts_per_key(keys: Vec<u64>) -> (f64, f64) {
    let ranks = regular_sample_ranks(keys.len(), S);
    let mut sorted = keys.clone();
    sorted.sort_unstable();
    let expected: Vec<Counted> = ranks.iter().map(|&r| Counted(sorted[r])).collect();
    let mut work: Vec<Counted> = keys.into_iter().map(Counted).collect();
    let before = (COMPARISONS.with(Cell::get), IMAGES.with(Cell::get));
    let picked = multiselect(&mut work, &ranks);
    let comparisons = COMPARISONS.with(Cell::get) - before.0;
    let images = IMAGES.with(Cell::get) - before.1;
    assert_eq!(picked, expected);
    let len = work.len() as f64;
    (comparisons as f64 / len, images as f64 / len)
}

/// Hold `multiselect` on `keys` to `comparisons` and `images` per key.
fn assert_at_most(shape: &str, keys: Vec<u64>, comparisons: f64, images: f64) {
    let (per_key, images_per_key) = counts_per_key(keys);
    assert!(
        per_key <= comparisons,
        "{shape}: {per_key:.4} comparisons per key, over the ceiling of {comparisons}.  The \
         count includes std's select_nth_unstable, so a toolchain bump may move it: \
         re-measure before blaming the change"
    );
    assert!(
        images_per_key <= images,
        "{shape}: {images_per_key:.4} images per key, over the ceiling of {images}"
    );
}

#[test]
fn uniform_keys() {
    assert_at_most("uniform", (0..N as u64).map(mix).collect(), 0.067, 1.05);
}

#[test]
fn zipf_keys() {
    assert_at_most("zipf 0.86", zipf(), 0.162, 1.06);
}

/// Keys spread evenly over 48 octaves: the log-linear map, one level.
#[test]
fn log_uniform_keys() {
    let keys = (0..N as u64).map(|i| {
        let octave = mix(i) % 48;
        (1 << octave) + (mix(!i) >> (63 - octave))
    });
    assert_at_most("log-uniform", keys.collect(), 0.082, 1.06);
}

/// One key in 2000 near `u64::MAX`, the rest below a million: the trimmed
/// range leaves the outliers out, one level.
#[test]
fn rare_outlier_keys() {
    let keys = (0..N as u64).map(|i| match mix(i) % 2000 {
        0 => u64::MAX - mix(!i) % 1000,
        _ => mix(!i) % 1_000_000,
    });
    assert_at_most("rare outliers", keys.collect(), 0.067, 1.06);
}

/// A quarter of the keys in one cluster and the rest far above it: the far
/// cluster lands in one bucket and is counted again, two levels.
#[test]
fn two_cluster_keys() {
    let keys = (0..N as u64)
        .map(|i| u64::from(mix(i) & 3 != 0) * ((1 << 50) + (1 << 40)) + mix(!i) % 1_000_000);
    assert_at_most("two clusters", keys.collect(), 0.221, 2.13);
}

/// Sorted keys in which one key in ten repeats its predecessor: the map
/// choice's case, where every candidate map spreads the keys evenly and the
/// gather volume decides.
#[test]
fn sorted_keys_with_duplicates() {
    let keys = (0..N as u64).map(|i| i - i / 10);
    assert_at_most("sorted, 10% duplicates", keys.collect(), 0.031, 1.04);
}

#[test]
fn keys_mod_3() {
    assert_at_most(
        "keys mod 3",
        (0..N as u64).map(|i| mix(i) % 3).collect(),
        6.09,
        0.04,
    );
}

#[test]
fn constant_keys() {
    assert_at_most("constant", vec![7; N], 4.27, 0.04);
}
