//! Sketches built from runs long enough for the sample phase's bucketing
//! multi-selection (`opaq::select::DISTRIBUTION_MIN_LEN` keys and up).
//!
//! Selection is exact, so the sketch must not depend on which path of the
//! selector ran or on how the runs are spread over threads: sequential
//! ingest, and sharded ingest at every thread count, must build the same
//! sketch, equal to the one assembled from fully sorted runs.  Its decile bounds must satisfy Lemma 3
//! against a full sort of the dataset.
//!
//! The datasets cover the shapes the sample phase treats differently: spread
//! keys (uniform, Zipf 0.86), keys left in place or all moved (sorted,
//! reverse), a heavy Zipf skew whose oversample repeats, so some buckets
//! stay empty and the heaviest key's bucket is oversized, and few-valued and
//! constant runs, too few distinct keys for the buckets, which exact
//! middle-rank recursion ends by its floor and ceiling rules.
//!
//! The same datasets, with a short tail run added, are also written to a
//! `FileRunStore`, which streams every run through a fixed 256 KiB read
//! window: the sketches it yields must equal the in-memory store's.

use opaq::core::{RunSample, RunSampler};
use opaq::datagen::{DatasetSpec, Distribution};
use opaq::select::{regular_sample_ranks, SelectionStrategy, DISTRIBUTION_MIN_LEN};
use opaq::{
    FileRunStoreBuilder, MemRunStore, OpaqConfig, OpaqEstimator, QuantileSketch, ShardedOpaq,
};

/// Three equal runs above the floor, so Lemma 3's `n/s` bound applies as is.
const M: u64 = DISTRIBUTION_MIN_LEN as u64 + 34_464;
const N: u64 = 3 * M;
const S: u64 = 400;

/// `FileRunStore`'s read window, in bytes.
const READ_WINDOW: u64 = 256 << 10;

fn datasets() -> Vec<DatasetSpec> {
    let spec = |distribution, duplicate_fraction| DatasetSpec {
        n: N,
        distribution,
        duplicate_fraction,
        seed: 29,
    };
    vec![
        DatasetSpec::paper_uniform(N, 29),
        DatasetSpec::paper_zipf(N, 29),
        spec(Distribution::Sorted, 0.0),
        spec(Distribution::ReverseSorted, 0.0),
        spec(
            Distribution::Zipf {
                domain: 1 << 31,
                parameter: 0.05,
            },
            0.1,
        ),
        spec(Distribution::Uniform { domain: 3 }, 0.0),
        spec(Distribution::Constant(7), 0.0),
    ]
}

fn config() -> OpaqConfig {
    OpaqConfig::builder()
        .run_length(M)
        .sample_size(S)
        .build()
        .unwrap()
}

/// The sketch assembled from fully sorted runs: the regular samples read
/// straight off each sorted run.
fn sorted_run_sketch(data: &[u64]) -> QuantileSketch<u64> {
    let samples = data
        .chunks(M as usize)
        .map(|run| {
            let mut run = run.to_vec();
            run.sort_unstable();
            let m = run.len();
            let ranks = regular_sample_ranks(m, (S as usize).min(m));
            let mut prev = 0;
            let gaps = ranks
                .iter()
                .map(|&r| {
                    let gap = (r + 1 - prev) as u64;
                    prev = r + 1;
                    gap
                })
                .collect();
            RunSample {
                values: ranks.iter().map(|&r| run[r]).collect(),
                gaps,
                run_min: run[0],
                run_len: m as u64,
            }
        })
        .collect();
    QuantileSketch::from_run_samples(samples).unwrap()
}

#[test]
fn sequential_ingest_builds_the_sorted_run_sketch() {
    for spec in datasets() {
        let data = spec.generate();
        let expected = sorted_run_sketch(&data);
        let store = MemRunStore::new(data, M);
        let sketch = OpaqEstimator::new(config()).build_sketch(&store).unwrap();
        assert!(
            sketch == expected,
            "{} built a different sketch",
            spec.label()
        );
    }
}

#[test]
fn sharded_ingest_builds_the_sorted_run_sketch() {
    for spec in datasets() {
        let data = spec.generate();
        let expected = sorted_run_sketch(&data);
        let store = MemRunStore::new(data, M);
        for threads in [1, 2, 4, 8] {
            let sketch = ShardedOpaq::new(config(), threads)
                .unwrap()
                .build_sketch(&store)
                .unwrap();
            assert!(
                sketch == expected,
                "{} on {threads} threads built a different sketch",
                spec.label()
            );
        }
    }
}

#[test]
fn run_sampler_keeps_the_run_minimum_exact() {
    for spec in datasets() {
        let data = spec.generate();
        let mut sampler = RunSampler::new(S, SelectionStrategy::default()).unwrap();
        // The last run is shorter than the floor and goes straight to exact
        // middle-rank recursion.
        for run in data.chunks(M as usize).chain([&data[..5_000]]) {
            let mut work = run.to_vec();
            let sample = sampler.sample(&mut work).unwrap();
            assert_eq!(Some(&sample.run_min), run.iter().min(), "{}", spec.label());
        }
    }
}

/// Lemma 3: every decile's bounds bracket the exact decile, and each bound
/// lies within `n/s` ranks of it.
#[test]
fn decile_bounds_satisfy_lemma_3() {
    for spec in datasets() {
        let data = spec.generate();
        let mut sorted = data.clone();
        sorted.sort_unstable();
        let store = MemRunStore::new(data, M);
        let sketch = OpaqEstimator::new(config()).build_sketch(&store).unwrap();
        let slack = (N / S) as usize;
        for est in sketch.estimate_q_quantiles(10).unwrap() {
            let t = (est.target_rank - 1) as usize;
            let exact = sorted[t];
            let lowest = sorted[t.saturating_sub(slack)];
            let highest = sorted[(t + slack).min(sorted.len() - 1)];
            assert!(
                est.lower <= exact && exact <= est.upper,
                "{} decile {}: [{}, {}] misses {exact}",
                spec.label(),
                est.phi,
                est.lower,
                est.upper
            );
            assert!(
                lowest <= est.lower && est.upper <= highest,
                "{} decile {}: [{}, {}] is more than n/s ranks from rank {}",
                spec.label(),
                est.phi,
                est.lower,
                est.upper,
                est.target_rank
            );
        }
    }
}

/// Each full run is longer than the read window and its byte length is not a
/// multiple of it, so every run read ends in a part window; the tail run is
/// shorter than one window and than the distribution floor.
#[test]
fn file_backed_runs_build_the_mem_store_sketch() {
    const TAIL: u64 = 5_000;
    const { assert!(M * 8 > 2 * READ_WINDOW && !(M * 8).is_multiple_of(READ_WINDOW)) };
    const { assert!(TAIL * 8 < READ_WINDOW) };
    let estimator = OpaqEstimator::new(config());
    for spec in datasets() {
        let label = spec.label();
        let data = DatasetSpec {
            n: N + TAIL,
            ..spec
        }
        .generate();
        let expected = sorted_run_sketch(&data);
        let path = std::env::temp_dir().join(format!(
            "opaq-large-runs-{}-{}.bin",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        let file = FileRunStoreBuilder::<u64>::new(&path, M)
            .unwrap()
            .append(&data)
            .unwrap()
            .finish()
            .unwrap();
        let mem = MemRunStore::new(data, M);
        let from_file = estimator.build_sketch(&file).unwrap();
        let from_mem = estimator.build_sketch(&mem).unwrap();
        file.remove_file().unwrap();
        assert_eq!(from_file.runs(), 4, "{label}");
        assert!(
            from_file == from_mem,
            "{label}: file and memory sketches differ"
        );
        assert!(from_file == expected, "{label}: not the sorted-run sketch");
    }
}
