//! Property-based tests for multi-selection against a full sort.
//!
//! The adversarial shapes are uniform random, duplicate-heavy (tiny domain),
//! reversed, all-equal and a sawtooth around the 128-key block of the
//! equal-band compaction: the shapes where an off-by-one in an equal band
//! would slip through uniform random testing.

use opaq_select::{multiselect, regular_sample_ranks};
use proptest::prelude::*;

/// The adversarial input shapes, materialised from a (seed, len, domain)
/// triple: uniform-ish hash spray, duplicate-heavy, reversed, all-equal,
/// plus a sawtooth that straddles the 128-element block boundary.
fn shapes(seed: u64, len: usize, domain: u64) -> Vec<Vec<u32>> {
    let len = len.max(1);
    let domain = domain.max(1);
    vec![
        // Uniform-ish spray over the full u32 range.
        (0..len as u64)
            .map(|i| (i.wrapping_add(seed).wrapping_mul(0x9E3779B97F4A7C15) >> 32) as u32)
            .collect(),
        // Duplicate-heavy: tiny domain.
        (0..len as u64)
            .map(|i| ((i.wrapping_mul(48271).wrapping_add(seed)) % domain) as u32)
            .collect(),
        // Reversed.
        (0..len as u32).rev().collect(),
        // All-equal.
        vec![(seed % u64::from(u32::MAX)) as u32; len],
        // Sawtooth around the block size.
        (0..len as u32).map(|i| i % 127).collect(),
    ]
}

fn sorted(mut v: Vec<u32>) -> Vec<u32> {
    v.sort_unstable();
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Multi-selection of a random set of ranks equals a full sort.
    #[test]
    fn multiselect_matches_individual_selections(
        data in proptest::collection::vec(any::<u32>(), 1..400),
        rank_count in 1usize..16,
    ) {
        let len = data.len();
        let mut ranks: Vec<usize> = (0..rank_count).map(|i| (i * 7919 + 13) % len).collect();
        ranks.sort_unstable();
        ranks.dedup();

        let mut sorted = data.clone();
        sorted.sort_unstable();
        let expected: Vec<u32> = ranks.iter().map(|&r| sorted[r]).collect();

        let mut work = data;
        prop_assert_eq!(multiselect(&mut work, &ranks), expected);
    }

    /// Regular sample ranks are strictly increasing, end at the maximum and
    /// have gaps of at most ceil(m/s).
    #[test]
    fn regular_ranks_structure(m in 1usize..10_000, s_seed in 1usize..2_000) {
        let s = s_seed.min(m);
        let ranks = regular_sample_ranks(m, s);
        prop_assert_eq!(ranks.len(), s);
        prop_assert_eq!(*ranks.last().unwrap(), m - 1);
        prop_assert!(ranks.windows(2).all(|w| w[0] < w[1]));
        let max_gap = ranks
            .iter()
            .scan(0usize, |prev, &r| {
                let gap = r + 1 - *prev;
                *prev = r + 1;
                Some(gap)
            })
            .max()
            .unwrap();
        prop_assert!(max_gap <= m.div_ceil(s));
    }

    /// `multiselect` picks the values a full sort puts at regular sample
    /// ranks on every adversarial shape.
    #[test]
    fn regular_ranks_match_sort_on_adversarial_shapes(
        seed in any::<u64>(),
        len in 1usize..600,
        domain in 1u64..8,
        s_seed in 1usize..64,
    ) {
        for data in shapes(seed, len, domain) {
            let m = data.len();
            let s = s_seed.min(m);
            let ranks = regular_sample_ranks(m, s);
            let truth = sorted(data.clone());
            let expected: Vec<u32> = ranks.iter().map(|&r| truth[r]).collect();
            let mut work = data;
            prop_assert_eq!(multiselect(&mut work, &ranks), expected);
        }
    }

    /// Irregular (unsorted, arbitrary) rank sets on the same shapes — this
    /// exercises multiselect's sorting fallback path.
    #[test]
    fn irregular_ranks_match_sort_on_adversarial_shapes(
        seed in any::<u64>(),
        len in 1usize..400,
        domain in 1u64..8,
        rank_count in 1usize..12,
    ) {
        for data in shapes(seed, len, domain) {
            let n = data.len();
            let mut ranks: Vec<usize> = (0..rank_count).map(|i| (i * 5407 + 3) % n).collect();
            ranks.sort_unstable();
            ranks.dedup();
            // Deliver them unsorted to exercise the sorting fallback.
            ranks.reverse();
            let truth = sorted(data.clone());
            let mut expected: Vec<u32> = ranks.iter().map(|&r| truth[r]).collect();
            expected.sort_unstable();
            let mut work = data;
            prop_assert_eq!(multiselect(&mut work, &ranks), expected);
        }
    }
}
