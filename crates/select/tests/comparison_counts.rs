//! Comparison-count ceilings for `multiselect`, a cost gate that host
//! noise cannot move.
//!
//! The keys count every `Ord`/`PartialOrd` call in a thread-local counter.
//! Selection makes no random choices, so for a given input the count is
//! exact and the same on every run.  Each shape takes `s = 1000` regular
//! ranks of `2^17` keys, above `SPLITTER_TREE_MIN_LEN`, so the splitter tree
//! runs wherever the splitters allow.  The ceilings are the counts measured
//! when they were set: a change that makes selection compare more fails
//! here, and one that compares less should lower its ceiling.  (At 1M
//! uniform keys the count is 13.55 per key, against the multiple-selection
//! lower bound of about log₂ 1000 ≈ 9.97.)

use opaq_select::{multiselect, regular_sample_ranks, SPLITTER_TREE_MIN_LEN};
use std::cell::Cell;
use std::cmp::Ordering;

thread_local! {
    static COMPARISONS: Cell<u64> = const { Cell::new(0) };
}

fn tick() {
    COMPARISONS.with(|count| count.set(count.get() + 1));
}

/// A `u64` key that counts its comparisons; equality is not counted.
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

const N: usize = 1 << 17;
const S: usize = 1000;
const _: () = assert!(N >= SPLITTER_TREE_MIN_LEN);

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

/// Comparisons per key that `multiselect` of `S` regular ranks makes on
/// `keys`, after checking the selected values against a sort.
fn comparisons_per_key(keys: Vec<u64>) -> f64 {
    let ranks = regular_sample_ranks(keys.len(), S);
    let mut sorted = keys.clone();
    sorted.sort_unstable();
    let expected: Vec<Counted> = ranks.iter().map(|&r| Counted(sorted[r])).collect();
    let mut work: Vec<Counted> = keys.into_iter().map(Counted).collect();
    let before = COMPARISONS.with(Cell::get);
    let picked = multiselect(&mut work, &ranks);
    let comparisons = COMPARISONS.with(Cell::get) - before;
    assert_eq!(picked, expected);
    comparisons as f64 / work.len() as f64
}

fn assert_at_most(shape: &str, keys: Vec<u64>, ceiling: f64) {
    let per_key = comparisons_per_key(keys);
    assert!(
        per_key <= ceiling,
        "{shape}: {per_key:.4} comparisons per key, over the ceiling of {ceiling}.  The count \
         includes std's select_nth_unstable, so a toolchain bump may move it: re-measure \
         before blaming the change"
    );
}

#[test]
fn uniform_keys() {
    assert_at_most("uniform", (0..N as u64).map(mix).collect(), 14.28);
}

#[test]
fn zipf_keys() {
    assert_at_most("zipf 0.86", zipf(), 13.64);
}

#[test]
fn keys_mod_3() {
    assert_at_most(
        "keys mod 3",
        (0..N as u64).map(|i| mix(i) % 3).collect(),
        6.18,
    );
}

#[test]
fn constant_keys() {
    assert_at_most("constant", vec![7; N], 4.31);
}
