//! Criterion micro-benchmarks for the OPAQ building blocks.
//!
//! These complement the table/figure binaries: they measure the hot paths
//! (multi-selection, the sample phase, the quantile phase, the global merge
//! algorithms and the baselines) on fixed-size inputs so regressions show up
//! in `cargo bench`.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use opaq_baselines::{
    AdaptiveIntervalEstimator, P2Estimator, ReservoirSampler, StreamingEstimator,
};
use opaq_core::{sample_run, OpaqConfig, OpaqEstimator};
use opaq_datagen::{DatasetSpec, KeyGenerator, UniformGenerator};
use opaq_parallel::{bitonic_merge, sample_merge, CostModel, Machine};
use opaq_select::{multiselect_with, regular_sample_ranks, SelectionStrategy};
use opaq_storage::MemRunStore;

fn bench_selection(c: &mut Criterion) {
    let mut group = c.benchmark_group("selection");
    group.sample_size(20);
    let data = UniformGenerator::new(1, u32::MAX as u64).generate(100_000);
    let ranks = regular_sample_ranks(data.len(), 1000);

    // Every strategy, the default (what the sample phase runs) included.
    for strategy in SelectionStrategy::ALL {
        group.bench_with_input(
            BenchmarkId::new("multiselect_1000_of_100k", format!("{strategy:?}")),
            &strategy,
            |b, &strategy| {
                b.iter(|| {
                    let mut work = data.clone();
                    black_box(multiselect_with(&mut work, &ranks, strategy))
                })
            },
        );
    }
    group.bench_function("full_sort_100k_for_reference", |b| {
        b.iter(|| {
            let mut work = data.clone();
            work.sort_unstable();
            black_box(work.len())
        })
    });
    group.finish();
}

fn bench_sample_phase(c: &mut Criterion) {
    let mut group = c.benchmark_group("sample_phase");
    group.sample_size(15);
    for &s in &[250u64, 1000] {
        let data = UniformGenerator::new(2, u32::MAX as u64).generate(100_000);
        group.bench_with_input(BenchmarkId::new("sample_run_100k", s), &s, |b, &s| {
            b.iter(|| {
                let mut run = data.clone();
                black_box(sample_run(&mut run, s, SelectionStrategy::default()).unwrap())
            })
        });
    }
    let data = DatasetSpec::paper_uniform(500_000, 3).generate();
    let store = MemRunStore::new(data, 50_000);
    let config = OpaqConfig::builder()
        .run_length(50_000)
        .sample_size(1000)
        .build()
        .unwrap();
    group.bench_function("build_sketch_500k_keys_10_runs", |b| {
        b.iter(|| black_box(OpaqEstimator::new(config).build_sketch(&store).unwrap()))
    });
    group.finish();
}

fn bench_quantile_phase(c: &mut Criterion) {
    let mut group = c.benchmark_group("quantile_phase");
    group.sample_size(30);
    let data = DatasetSpec::paper_uniform(500_000, 4).generate();
    let store = MemRunStore::new(data, 50_000);
    let config = OpaqConfig::builder()
        .run_length(50_000)
        .sample_size(1000)
        .build()
        .unwrap();
    let sketch = OpaqEstimator::new(config).build_sketch(&store).unwrap();
    // The paper claims O(1)-ish cost per additional quantile once the sample
    // list exists; these two benches make the claim measurable.
    group.bench_function("single_quantile", |b| {
        b.iter(|| black_box(sketch.estimate(0.5).unwrap()))
    });
    group.bench_function("ninety_nine_quantiles", |b| {
        b.iter(|| black_box(sketch.estimate_q_quantiles(100).unwrap()))
    });
    group.finish();
}

fn bench_global_merges(c: &mut Criterion) {
    let mut group = c.benchmark_group("global_merge");
    group.sample_size(10);
    for &per in &[4_096usize, 65_536] {
        let lists: Vec<Vec<u64>> = (0..8u64)
            .map(|pid| {
                let mut l = UniformGenerator::new(pid, u32::MAX as u64).generate(per);
                l.sort_unstable();
                l
            })
            .collect();
        group.bench_with_input(BenchmarkId::new("bitonic_p8", per), &per, |b, _| {
            b.iter(|| {
                let machine = Machine::new(8, CostModel::sp2());
                black_box(bitonic_merge(&machine, lists.clone()))
            })
        });
        group.bench_with_input(BenchmarkId::new("sample_p8", per), &per, |b, _| {
            b.iter(|| {
                let machine = Machine::new(8, CostModel::sp2());
                black_box(sample_merge(&machine, lists.clone()))
            })
        });
    }
    group.finish();
}

fn bench_baselines(c: &mut Criterion) {
    let mut group = c.benchmark_group("baselines_observe_100k");
    group.sample_size(15);
    let data = UniformGenerator::new(9, u32::MAX as u64).generate(100_000);
    group.bench_function("reservoir_3000", |b| {
        b.iter(|| {
            let mut est = ReservoirSampler::new(3000, 1);
            est.observe_all(&data);
            black_box(est.estimate(0.5))
        })
    });
    group.bench_function("adaptive_intervals_3000", |b| {
        b.iter(|| {
            let mut est = AdaptiveIntervalEstimator::new(3000);
            est.observe_all(&data);
            black_box(est.estimate(0.5))
        })
    });
    group.bench_function("p2_median", |b| {
        b.iter(|| {
            let mut est = P2Estimator::new(0.5);
            est.observe_all(&data);
            black_box(est.estimate(0.5))
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_selection,
    bench_sample_phase,
    bench_quantile_phase,
    bench_global_merges,
    bench_baselines
);
criterion_main!(benches);
