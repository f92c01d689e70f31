//! Property tests for multi-selection.  At or above [`DISTRIBUTION_MIN_LEN`]
//! `multiselect` counts the keys into value-ordered buckets by their radix
//! images, gathers the keys of the buckets that hold a rank, and runs exact
//! middle-rank recursion inside each of them; below it, the recursion runs
//! on the whole slice.
//!
//! Every shape runs with regular and irregular rank sets, and every result
//! is checked against a full sort: the selected values, and that the slice
//! is still a permutation of its input.
//! The all-equal, two-valued and few-valued shapes have too few distinct
//! keys for the buckets to help, so they exercise the recursion's floor
//! and ceiling rules on whole runs.  The two sample-* shapes put the slice's
//! extreme keys at evenly spaced positions, where the oversample looks.  The
//! log-uniform shape takes the log-linear bucket map; the outlier and
//! two-cluster shapes leave heavy buckets that are counted again; the
//! near-max shape puts keys at the top of the image range, and the signed
//! shapes put negative keys below the sign bit's flip.

use opaq_select::{multiselect, regular_sample_ranks, RadixKey, DISTRIBUTION_MIN_LEN};
use proptest::prelude::*;

/// SplitMix64 step: a deterministic key stream per seed.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The input shapes, each `len` keys long.  `domain` sizes the
/// duplicate-heavy shape (enough values for the buckets to apply) and
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
        (
            "log-uniform",
            (0..n)
                .map(|i| {
                    let octave = mix(seed ^ i) % 48;
                    (1 << octave) + (mix(!seed ^ i) >> (63 - octave))
                })
                .collect(),
        ),
        (
            "rare-outliers",
            (0..n)
                .map(|i| match mix(seed ^ i) % 2000 {
                    0 => u64::MAX - mix(i) % 1000,
                    _ => mix(!seed ^ i) % 1_000_000,
                })
                .collect(),
        ),
        (
            "two-clusters",
            (0..n)
                .map(|i| ((mix(seed ^ i) & 1) << 50) + mix(!seed ^ i) % (32 + domain * 4096))
                .collect(),
        ),
        (
            "near-max",
            (0..n)
                .map(|i| u64::MAX - mix(seed ^ i) % (32 + domain * 64))
                .collect(),
        ),
    ]
}

/// Signed shapes of `len` keys: negative keys only, and both signs spread
/// over the whole `i64` range with its extremes mixed in.
fn signed_shapes(seed: u64, len: usize) -> Vec<(&'static str, Vec<i64>)> {
    let n = len as u64;
    vec![
        (
            "negative",
            (0..n)
                .map(|i| -1 - (mix(seed ^ i) % 1_000_000) as i64)
                .collect(),
        ),
        (
            "both-signs",
            (0..n)
                .map(|i| match i % 1000 {
                    0 => i64::MIN,
                    1 => i64::MAX,
                    2 => -1,
                    3 => 0,
                    _ => mix(seed ^ i) as i64,
                })
                .collect(),
        ),
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

/// Check one `multiselect` result against the sorted input `truth`: the
/// selected values, and that the slice is still a permutation of its input.
/// Where the values sit in the slice afterwards is not promised.
fn check<T: Ord + RadixKey + std::fmt::Debug>(
    truth: &[T],
    work: &[T],
    ranks: &[usize],
    got: &[T],
    what: &str,
) -> Result<(), TestCaseError> {
    let mut sorted_ranks = ranks.to_vec();
    sorted_ranks.sort_unstable();
    let expected: Vec<T> = sorted_ranks.iter().map(|&r| truth[r]).collect();
    prop_assert_eq!(got, &expected[..], "{} selected values", what);
    let mut permuted = work.to_vec();
    permuted.sort_unstable();
    prop_assert!(
        permuted == truth,
        "{} is not a permutation of its input",
        what
    );
    Ok(())
}

/// At `2^17` keys with 1000 regular ranks a cluster of half the keys clears
/// the floors on its own, so the two-cluster shape (and any heavy bucket) is
/// counted again: every shape at that size, checked against a sort.
#[test]
fn every_shape_matches_sort_where_heavy_buckets_are_counted_again() {
    let len = 1 << 17;
    let ranks = regular_sample_ranks(len, 1000);
    for (shape, data) in shapes(7, len, 5) {
        let mut truth = data.clone();
        truth.sort_unstable();
        let mut work = data;
        let got = multiselect(&mut work, &ranks);
        check(&truth, &work, &ranks, &got, shape).unwrap();
    }
    for (shape, data) in signed_shapes(7, len) {
        let mut truth = data.clone();
        truth.sort_unstable();
        let mut work = data;
        let got = multiselect(&mut work, &ranks);
        check(&truth, &work, &ranks, &got, shape).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Slices below the floor, where the recursion runs alone: regular and
    /// irregular rank sets of up to a few hundred ranks.
    #[test]
    fn ranks_match_sort_below_the_floor(
        seed in any::<u64>(),
        len in 1usize..DISTRIBUTION_MIN_LEN,
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
                let mut work = data.clone();
                let got = multiselect(&mut work, ranks);
                let what = format!("{shape} len={len} ranks={}", ranks.len());
                check(&truth, &work, ranks, &got, &what)?;
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
        let len = DISTRIBUTION_MIN_LEN + extra;
        let ranks = regular_sample_ranks(len, s);
        for (shape, data) in shapes(seed, len, domain) {
            let mut truth = data.clone();
            truth.sort_unstable();
            let mut work = data;
            let got = multiselect(&mut work, &ranks);
            check(&truth, &work, &ranks, &got, &format!("{shape} s={s}"))?;
        }
    }

    /// Irregular, unsorted rank sets, from a single rank (which skips the
    /// buckets) to a few hundred.
    #[test]
    fn irregular_ranks_match_sort_above_the_floor(
        seed in any::<u64>(),
        extra in 0usize..40_000,
        domain in 2u64..8,
        count in 0usize..300,
    ) {
        let len = DISTRIBUTION_MIN_LEN + extra;
        let ranks = irregular_ranks(seed, len, count);
        for (shape, data) in shapes(seed, len, domain) {
            let mut truth = data.clone();
            truth.sort_unstable();
            let mut work = data;
            let got = multiselect(&mut work, &ranks);
            check(&truth, &work, &ranks, &got, &format!("{shape} ranks={}", ranks.len()))?;
        }
    }

    /// Signed keys, negative only and both signs with `i64`'s extremes,
    /// under regular and irregular rank sets.
    #[test]
    fn signed_keys_match_sort_above_the_floor(
        seed in any::<u64>(),
        extra in 0usize..40_000,
        s in 32usize..400,
    ) {
        let len = DISTRIBUTION_MIN_LEN + extra;
        let rank_sets = [regular_sample_ranks(len, s), irregular_ranks(seed, len, s)];
        for (shape, data) in signed_shapes(seed, len) {
            let mut truth = data.clone();
            truth.sort_unstable();
            for ranks in &rank_sets {
                let mut work = data.clone();
                let got = multiselect(&mut work, ranks);
                check(&truth, &work, ranks, &got, &format!("{shape} ranks={}", ranks.len()))?;
            }
        }
    }
}
