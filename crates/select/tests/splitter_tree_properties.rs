//! Property tests for multi-selection.  At or above [`SPLITTER_TREE_MIN_LEN`]
//! `multiselect` distributes the keys in place into value-ordered buckets,
//! block by block, and runs exact middle-rank recursion inside each bucket;
//! below it, the recursion runs on the whole slice.
//!
//! Every shape runs with regular and irregular rank sets under every
//! strategy in [`SelectionStrategy::ALL`], and every result is checked
//! against a full sort: the selected values, the partition around every
//! requested rank, and that the slice is still a permutation of its input.
//! The all-equal, two-valued and few-valued shapes have too few distinct
//! splitters for the buckets to help, so they exercise the recursion's floor
//! and ceiling rules on whole runs.  The two sample-* shapes put the slice's
//! extreme keys at evenly spaced positions, where sampling pivot choosers
//! look.

use opaq_select::{
    multiselect_with, regular_sample_ranks, SelectionStrategy, SPLITTER_TREE_MIN_LEN,
};
use proptest::prelude::*;

/// SplitMix64 step: a deterministic key stream per seed.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The input shapes, each `len` keys long.  `domain` sizes the
/// duplicate-heavy shape (enough values for the splitter tree to apply) and
/// the few-valued one (too few, so it falls back).
fn shapes(seed: u64, len: usize, domain: u64) -> Vec<(&'static str, Vec<u64>)> {
    let n = len as u64;
    vec![
        ("uniform", (0..n).map(|i| mix(seed ^ i)).collect()),
        (
            "duplicate-heavy",
            (0..n).map(|i| mix(seed ^ i) % (32 + domain * 64)).collect(),
        ),
        (
            "few-valued",
            (0..n).map(|i| mix(seed ^ i) % domain).collect(),
        ),
        ("all-equal", vec![seed; len]),
        ("two-valued", (0..n).map(|i| mix(seed ^ i) & 1).collect()),
        ("sorted", (0..n).collect()),
        ("reverse", (0..n).rev().collect()),
        ("organ-pipe", (0..n).map(|i| i.min(n - 1 - i)).collect()),
        ("sample-max", sample_extremes((0..n).collect())),
        ("sample-min", sample_extremes((0..n).rev().collect())),
    ]
}

/// Move the last 15 keys of `keys` to 15 evenly spaced positions.  On sorted
/// keys that puts the largest keys there, on reverse-sorted keys the
/// smallest.
fn sample_extremes(mut keys: Vec<u64>) -> Vec<u64> {
    const SPOTS: usize = 15;
    let len = keys.len();
    let stride = len / SPOTS;
    if stride > 1 {
        for k in 0..SPOTS {
            keys.swap(k * stride + stride / 2, len - 1 - k);
        }
    }
    keys
}

/// Up to `count` distinct ranks spread pseudo-randomly over `0..len`, always
/// including both ends, delivered unsorted.
fn irregular_ranks(seed: u64, len: usize, count: usize) -> Vec<usize> {
    let mut ranks: Vec<usize> = (0..count as u64)
        .map(|i| (mix(seed.wrapping_add(i)) % len as u64) as usize)
        .chain([0, len - 1])
        .collect();
    ranks.sort_unstable();
    ranks.dedup();
    let pivot = ranks.len() / 3;
    ranks.rotate_left(pivot);
    ranks
}

/// Check one `multiselect` result against the sorted input `truth`.
///
/// The partition is checked segment by segment: with the ranks sorted, every
/// key strictly between two consecutive ranks must lie between the keys at
/// those ranks, which gives `<=` left of and `>=` right of every rank.
fn check(
    truth: &[u64],
    work: &[u64],
    ranks: &[usize],
    got: &[u64],
    what: &str,
) -> Result<(), TestCaseError> {
    let mut sorted_ranks = ranks.to_vec();
    sorted_ranks.sort_unstable();
    let expected: Vec<u64> = sorted_ranks.iter().map(|&r| truth[r]).collect();
    prop_assert_eq!(got, &expected[..], "{} selected values", what);
    let mut lo = 0;
    let mut floor = u64::MIN;
    for &r in &sorted_ranks {
        prop_assert_eq!(work[r], truth[r], "{} value in place at rank {}", what, r);
        let ceiling = work[r];
        prop_assert!(
            work[lo..r].iter().all(|&x| floor <= x && x <= ceiling),
            "{} partition broken left of rank {}",
            what,
            r
        );
        floor = ceiling;
        lo = r + 1;
    }
    prop_assert!(
        work[lo..].iter().all(|&x| floor <= x),
        "{} partition broken right of the last rank",
        what
    );
    let mut permuted = work.to_vec();
    permuted.sort_unstable();
    prop_assert!(
        permuted == truth,
        "{} is not a permutation of its input",
        what
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Slices below the floor, where the recursion runs alone: regular and
    /// irregular rank sets of up to a few hundred ranks.
    #[test]
    fn ranks_match_sort_below_the_floor(
        seed in any::<u64>(),
        len in 1usize..SPLITTER_TREE_MIN_LEN,
        domain in 2u64..8,
        s in 1usize..400,
    ) {
        let rank_sets = [
            regular_sample_ranks(len, s.min(len)),
            irregular_ranks(seed, len, s),
        ];
        for (shape, data) in shapes(seed, len, domain) {
            let mut truth = data.clone();
            truth.sort_unstable();
            for ranks in &rank_sets {
                for strategy in SelectionStrategy::ALL {
                    let mut work = data.clone();
                    let got = multiselect_with(&mut work, ranks, strategy);
                    let what = format!("{shape} {strategy:?} len={len} ranks={}", ranks.len());
                    check(&truth, &work, ranks, &got, &what)?;
                }
            }
        }
    }

    /// Regular sample ranks, the sample phase's rank sets.
    #[test]
    fn regular_ranks_match_sort_above_the_floor(
        seed in any::<u64>(),
        extra in 0usize..40_000,
        domain in 2u64..8,
        s in 1usize..400,
    ) {
        let len = SPLITTER_TREE_MIN_LEN + extra;
        let ranks = regular_sample_ranks(len, s);
        for (shape, data) in shapes(seed, len, domain) {
            let mut truth = data.clone();
            truth.sort_unstable();
            for strategy in SelectionStrategy::ALL {
                let mut work = data.clone();
                let got = multiselect_with(&mut work, &ranks, strategy);
                check(&truth, &work, &ranks, &got, &format!("{shape} {strategy:?} s={s}"))?;
            }
        }
    }

    /// Irregular, unsorted rank sets, from a single rank (which skips the
    /// splitter tree) to a few hundred.
    #[test]
    fn irregular_ranks_match_sort_above_the_floor(
        seed in any::<u64>(),
        extra in 0usize..40_000,
        domain in 2u64..8,
        count in 0usize..300,
    ) {
        let len = SPLITTER_TREE_MIN_LEN + extra;
        let ranks = irregular_ranks(seed, len, count);
        for (shape, data) in shapes(seed, len, domain) {
            let mut truth = data.clone();
            truth.sort_unstable();
            for strategy in SelectionStrategy::ALL {
                let mut work = data.clone();
                let got = multiselect_with(&mut work, &ranks, strategy);
                let what = format!("{shape} {strategy:?} ranks={}", ranks.len());
                check(&truth, &work, &ranks, &got, &what)?;
            }
        }
    }
}
