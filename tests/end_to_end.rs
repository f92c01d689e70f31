//! Cross-crate integration tests: generator → storage → OPAQ → metrics,
//! sequential vs parallel vs baselines, file-backed and memory-backed.

use opaq::datagen::{DatasetSpec, Distribution};
use opaq::parallel::block_partition;
use opaq::storage::FileRunStoreBuilder;
use opaq::{
    compute_error_rates, exact_quantile, GroundTruth, IncrementalOpaq, MemRunStore, MergeAlgorithm,
    OpaqConfig, OpaqEstimator, ParallelOpaq, QuantileBoundsView, ShardedOpaq, TheoreticalBounds,
};
use std::path::PathBuf;

fn temp_path(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "opaq-e2e-{tag}-{}-{}.bin",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ));
    p
}

/// The full pipeline on a file-backed dataset: error rates must respect the
/// paper's closed-form bounds.
#[test]
fn file_backed_pipeline_respects_theoretical_bounds() {
    let n: u64 = 200_000;
    let m: u64 = 20_000;
    let s: u64 = 500;
    let spec = DatasetSpec::paper_uniform(n, 77);
    let data = spec.generate();

    let path = temp_path("pipeline");
    let store = FileRunStoreBuilder::<u64>::new(&path, m)
        .unwrap()
        .append(&data)
        .unwrap()
        .finish()
        .unwrap();

    let config = OpaqConfig::builder()
        .run_length(m)
        .sample_size(s)
        .build()
        .unwrap();
    let sketch = OpaqEstimator::new(config).build_sketch(&store).unwrap();
    let estimates = sketch.estimate_q_quantiles(10).unwrap();

    let truth = GroundTruth::new(&data);
    let bounds: Vec<QuantileBoundsView> = estimates
        .iter()
        .map(|e| QuantileBoundsView {
            phi: e.phi,
            lower: e.lower,
            upper: e.upper,
        })
        .collect();
    let rates = compute_error_rates(&truth, &bounds);
    let theory = TheoreticalBounds::new(&config, n, 10);

    assert!(
        rates.rer_a_max() <= theory.rer_a_percent + 1e-9,
        "{rates:?} vs {theory:?}"
    );
    assert!(rates.rer_n <= theory.rer_n_percent + 1e-9);
    for e in &estimates {
        let exact = truth.quantile_value(e.phi);
        assert!(e.lower <= exact && exact <= e.upper);
    }
    store.remove_file().unwrap();
}

/// Sequential and parallel OPAQ over the same data and run structure must
/// produce the same sample values and equally valid bounds.
/// Batched absorption merges once per batch, yet a 241-run store absorbed
/// whole, sharded over 3 threads, folded run by run and sampled by the
/// one-pass estimator all give the same sketch, bit for bit.  The keys
/// repeat heavily and the sample gaps differ (s does not divide m, and the
/// tail run is short), so equal samples from different runs must keep run
/// order in every path.
#[test]
fn batched_sharded_and_one_pass_sketches_are_bit_identical() {
    let m: u64 = 500;
    let data: Vec<u64> = (0..240 * m + 123)
        .map(|i| (i * 2_654_435_761) % 1_009)
        .collect();
    let store = MemRunStore::new(data.clone(), m);
    let config = OpaqConfig::builder()
        .run_length(m)
        .sample_size(47)
        .build()
        .unwrap();
    let one_pass = OpaqEstimator::new(config).build_sketch(&store).unwrap();
    assert_eq!(one_pass.runs(), 241);

    let mut batched = IncrementalOpaq::new(config).unwrap();
    batched.add_store(&store).unwrap();
    assert_eq!(batched.sketch(), Some(&one_pass));

    let sharded = ShardedOpaq::new(config, 3)
        .unwrap()
        .build_sketch(&store)
        .unwrap();
    assert_eq!(sharded, one_pass);

    let mut run_by_run = IncrementalOpaq::new(config).unwrap();
    for run in data.chunks(m as usize) {
        run_by_run.add_run(run.to_vec()).unwrap();
    }
    assert_eq!(run_by_run.into_sketch(), Some(one_pass));
}

#[test]
fn parallel_agrees_with_sequential() {
    let n: u64 = 160_000;
    let p = 4usize;
    let m: u64 = 10_000;
    let s: u64 = 200;
    let data = DatasetSpec::paper_zipf(n, 5).generate();

    let config = OpaqConfig::builder()
        .run_length(m)
        .sample_size(s)
        .build()
        .unwrap();
    let sequential = OpaqEstimator::new(config)
        .build_sketch(&MemRunStore::new(data.clone(), m))
        .unwrap();

    // Zipf keys tie heavily, so both merges order equal values by gap; they
    // must give the same sketch, both columns included.
    let reports: Vec<_> = [MergeAlgorithm::Bitonic, MergeAlgorithm::Sample]
        .into_iter()
        .map(|merge| {
            ParallelOpaq::new(config, p)
                .with_merge(merge)
                .run_on_partitions(block_partition(&data, p))
                .unwrap()
        })
        .collect();
    assert_eq!(reports[0].sketch, reports[1].sketch, "Bitonic vs Sample");
    let parallel = &reports[0].sketch;
    assert_eq!(parallel.total_elements(), sequential.total_elements());
    assert_eq!(parallel.runs(), sequential.runs());
    assert_eq!(parallel.values(), sequential.values());

    let truth = GroundTruth::new(&data);
    for e in parallel.estimate_q_quantiles(10).unwrap() {
        let exact = truth.quantile_value(e.phi);
        assert!(e.lower <= exact && exact <= e.upper, "phi {}", e.phi);
    }
}

/// The exact-quantile second pass must agree with a full sort for every
/// distribution the generator can produce.
#[test]
fn exact_pass_agrees_with_full_sort_across_distributions() {
    let distributions = [
        Distribution::Uniform { domain: 1 << 20 },
        Distribution::Zipf {
            domain: 1 << 20,
            parameter: 0.86,
        },
        Distribution::Normal {
            domain: 1 << 20,
            mean: 500_000.0,
            std_dev: 100_000.0,
        },
        Distribution::Sorted,
        Distribution::ReverseSorted,
        Distribution::Constant(7),
    ];
    for distribution in distributions {
        let spec = DatasetSpec {
            n: 50_000,
            distribution,
            duplicate_fraction: 0.1,
            seed: 3,
        };
        let data = spec.generate();
        let truth = GroundTruth::new(&data);
        let store = MemRunStore::new(data, 5_000);
        let config = OpaqConfig::builder()
            .run_length(5_000)
            .sample_size(100)
            .build()
            .unwrap();
        let sketch = OpaqEstimator::new(config).build_sketch(&store).unwrap();
        for phi in [0.25, 0.5, 0.75, 0.99] {
            let exact = exact_quantile(&store, &sketch, phi).unwrap();
            assert_eq!(
                exact.value,
                truth.quantile_value(phi),
                "{distribution:?} phi {phi}"
            );
        }
    }
}

/// OPAQ under an equal memory budget must beat or match the baselines'
/// worst-case accuracy on skewed data (Table 7's qualitative claim).
#[test]
fn opaq_accuracy_is_competitive_with_baselines_under_equal_memory() {
    use opaq::baselines::{AdaptiveIntervalEstimator, ReservoirSampler};
    use opaq::StreamingEstimator;

    let n: u64 = 300_000;
    let memory_points = 3_000usize;
    let data = DatasetSpec::paper_zipf(n, 31).generate();
    let truth = GroundTruth::new(&data);

    // OPAQ: r = 10 runs, s = memory/10.
    let m = n / 10;
    let s = memory_points as u64 / 10;
    let config = OpaqConfig::builder()
        .run_length(m)
        .sample_size(s)
        .build()
        .unwrap();
    let sketch = OpaqEstimator::new(config)
        .build_sketch(&MemRunStore::new(data.clone(), m))
        .unwrap();
    let opaq_bounds: Vec<QuantileBoundsView> = sketch
        .estimate_q_quantiles(10)
        .unwrap()
        .iter()
        .map(|e| QuantileBoundsView {
            phi: e.phi,
            lower: e.lower,
            upper: e.upper,
        })
        .collect();
    let opaq_rates = compute_error_rates(&truth, &opaq_bounds);

    let mut worst_baseline = 0.0f64;
    let mut reservoir = ReservoirSampler::new(memory_points, 9);
    let mut intervals = AdaptiveIntervalEstimator::new(memory_points);
    reservoir.observe_all(&data);
    intervals.observe_all(&data);
    for estimator in [&reservoir as &dyn StreamingEstimator, &intervals] {
        let bounds: Vec<QuantileBoundsView> = (1..10)
            .map(|i| {
                let phi = i as f64 / 10.0;
                let v = estimator.estimate(phi).unwrap();
                QuantileBoundsView {
                    phi,
                    lower: v,
                    upper: v,
                }
            })
            .collect();
        worst_baseline = worst_baseline.max(compute_error_rates(&truth, &bounds).rer_n);
    }

    // Compare worst dectile *displacement* from the truth (RER_N): that is
    // the error a point estimator actually commits.  (RER_A would be
    // meaningless here — a point interval [v, v] contains ~1 element however
    // wrong v is, while OPAQ's deterministic interval must contain up to
    // 2n/s by design.)  The paper claims comparable-or-better accuracy;
    // allow a factor for sampling luck on the baselines' side.
    assert!(
        opaq_rates.rer_n <= worst_baseline * 1.5 + 0.05,
        "OPAQ displacement {} vs worst baseline displacement {}",
        opaq_rates.rer_n,
        worst_baseline
    );
    // And OPAQ must respect its deterministic cap, which the baselines do not have.
    assert!(opaq_rates.rer_a_max() <= 2.0 / s as f64 * 100.0 + 1e-9);
}

/// Incremental absorption of a second store must answer over the union.
#[test]
fn incremental_union_of_two_stores() {
    use opaq::IncrementalOpaq;

    let config = OpaqConfig::builder()
        .run_length(10_000)
        .sample_size(200)
        .build()
        .unwrap();
    let mut inc = IncrementalOpaq::<u64>::new(config).unwrap();

    let old = DatasetSpec::paper_uniform(100_000, 1).generate();
    let new = DatasetSpec::paper_uniform(50_000, 2).generate();
    inc.add_store(&MemRunStore::new(old.clone(), 10_000))
        .unwrap();
    inc.add_store(&MemRunStore::new(new.clone(), 10_000))
        .unwrap();

    let mut all = old;
    all.extend(new);
    let truth = GroundTruth::new(&all);
    for i in 1..10 {
        let phi = i as f64 / 10.0;
        let est = inc.estimate(phi).unwrap();
        let exact = truth.quantile_value(phi);
        assert!(est.lower <= exact && exact <= est.upper, "phi {phi}");
    }
    assert_eq!(inc.total_elements(), 150_000);
}
