//! API-contract tests: behaviours a downstream user relies on that are not
//! covered by the lemma property tests — determinism, exact regular samples,
//! duplicate handling at the bound values, and memory accounting.

use opaq_core::{OpaqConfig, OpaqEstimator, TheoreticalBounds};
use opaq_select::regular_sample_ranks;
use opaq_storage::MemRunStore;

fn data(n: u64, seed: u64) -> Vec<u64> {
    (0..n)
        .map(|i| (i.wrapping_mul(6364136223846793005).wrapping_add(seed)) >> 33)
        .collect()
}

#[test]
fn sketch_is_deterministic_for_a_given_input() {
    let keys = data(30_000, 7);
    let config = OpaqConfig::builder()
        .run_length(3_000)
        .sample_size(300)
        .build()
        .unwrap();
    let build = || {
        OpaqEstimator::new(config)
            .build_sketch(&MemRunStore::new(keys.clone(), 3_000))
            .unwrap()
    };
    let a = build();
    let b = build();
    assert_eq!(a, b, "two builds over the same input must be identical");
}

#[test]
fn sample_list_holds_the_sorted_runs_regular_samples() {
    let keys = data(20_000, 1);
    let config = OpaqConfig::builder()
        .run_length(2_000)
        .sample_size(200)
        .build()
        .unwrap();
    let sketch = OpaqEstimator::new(config)
        .build_sketch(&MemRunStore::new(keys.clone(), 2_000))
        .unwrap();
    // Selection is exact, so the sample list is what sorting every run and
    // reading off its regular ranks gives.
    let mut expected: Vec<u64> = keys
        .chunks(2_000)
        .flat_map(|run| {
            let mut run = run.to_vec();
            run.sort_unstable();
            regular_sample_ranks(run.len(), 200)
                .into_iter()
                .map(move |r| run[r])
        })
        .collect();
    expected.sort_unstable();
    assert_eq!(sketch.values(), expected);
}

#[test]
fn all_duplicate_dataset_collapses_bounds_to_the_single_value() {
    let keys = vec![42u64; 10_000];
    let config = OpaqConfig::builder()
        .run_length(1_000)
        .sample_size(50)
        .build()
        .unwrap();
    let sketch = OpaqEstimator::new(config)
        .build_sketch(&MemRunStore::new(keys, 1_000))
        .unwrap();
    for i in 1..10 {
        let est = sketch.estimate(i as f64 / 10.0).unwrap();
        assert_eq!(est.lower, 42);
        assert_eq!(est.upper, 42);
    }
    assert_eq!(sketch.dataset_min(), 42);
    assert_eq!(sketch.dataset_max(), 42);
}

#[test]
fn memory_accounting_matches_the_paper_constraint() {
    // r*s sample points plus one run of m elements is the working set the
    // paper's `rs + m <= M` constraint describes.
    let n = 1_000_000u64;
    let config = OpaqConfig::for_memory_budget(n, 250_000, 10).unwrap();
    let keys = data(n / 100, 3); // smaller data, same structure check
    let store = MemRunStore::new(keys, config.run_length);
    let sketch = OpaqEstimator::new(config).build_sketch(&store).unwrap();
    assert!(
        (sketch.memory_sample_points() as u64) + config.run_length <= 250_000 + config.run_length,
        "working set must respect the budget"
    );
    // The theoretical bounds must be computable and consistent.
    let bounds = TheoreticalBounds::new(&config, n, 10);
    assert!(bounds.max_elements_per_bound <= TheoreticalBounds::n_over_s(n, config.sample_size));
}

#[test]
fn sample_size_equal_to_run_length_gives_exact_answers() {
    let keys = data(5_000, 11);
    let mut sorted = keys.clone();
    sorted.sort_unstable();
    let config = OpaqConfig::builder()
        .run_length(500)
        .sample_size(500)
        .build()
        .unwrap();
    let sketch = OpaqEstimator::new(config)
        .build_sketch(&MemRunStore::new(keys, 500))
        .unwrap();
    // Every element is a sample, so lower == upper == the exact value.
    for i in 1..10 {
        let est = sketch.estimate(i as f64 / 10.0).unwrap();
        let truth = sorted[(est.target_rank - 1) as usize];
        assert_eq!(est.lower, truth);
        assert_eq!(est.upper, truth);
    }
}

#[test]
fn tiny_datasets_smaller_than_one_run_work() {
    let keys = vec![5u64, 1, 9, 3, 7];
    let config = OpaqConfig::builder()
        .run_length(100)
        .sample_size(10)
        .build()
        .unwrap();
    let sketch = OpaqEstimator::new(config)
        .build_sketch(&MemRunStore::new(keys, 100))
        .unwrap();
    let est = sketch.estimate(0.5).unwrap();
    assert_eq!(
        (est.lower, est.upper),
        (5, 5),
        "median of 1,3,5,7,9 is exact here"
    );
}
