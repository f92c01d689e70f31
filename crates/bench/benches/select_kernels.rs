//! Microbenchmarks for the selection kernels and the allocation-free
//! run-ingest hot path (PR 3).
//!
//! Five questions, answered on 1M-key u64 runs (the paper's experiment
//! scale) unless noted:
//!
//! 1. **Partition kernel** — scalar Dutch-national-flag vs. the branchless
//!    BlockQuicksort-style three-way partition, on identical data and pivot.
//! 2. **Multi-selection** — `multiselect` of `s = 1000` regular ranks under
//!    the scalar `Quickselect` strategy vs. the `BlockQuickselect` strategy.
//! 3. **Duplicate-heavy multi-selection** — the same rank set over constant
//!    and three-valued runs, whose splitters collapse, so `multiselect` skips
//!    the splitter tree and the rank-splitting driver's duplicate rule ends
//!    them.
//! 4. **Bucket-sized multi-selection** — 4 regular ranks of a 4096-key
//!    slice, the size of one splitter-tree bucket of a 1M-key run, where the
//!    driver does the sample phase's in-bucket work.
//! 5. **End-to-end `sample_run`** — the seed path (fresh buffer per run +
//!    scalar kernel) vs. the new hot path (recycled buffer + `RunSampler`
//!    rank cache + block kernel), which is what the acceptance criterion
//!    ("≥ 1.5× on 1M-key u64 runs") measures.
//!
//! The kernel and multi-selection groups refill one reused buffer with the
//! input before every timed iteration, so the copy is timed but no
//! allocation is.
//!
//! Set `OPAQ_BENCH_QUICK=1` to shrink the input to 20k keys: that mode is
//! run per-PR in CI as a smoke job, where the *correctness* cross-checks at
//! the top of each benchmark (block kernel vs. scalar oracle) fail loudly if
//! a kernel regresses; timings at that size are informational only.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use opaq_core::{sample_run, RunSampler};
use opaq_datagen::{KeyGenerator, UniformGenerator};
use opaq_select::partition::{partition_three_way, partition_three_way_block};
use opaq_select::{multiselect_with, regular_sample_ranks, SelectionStrategy};

fn quick_mode() -> bool {
    std::env::var_os("OPAQ_BENCH_QUICK").is_some()
}

fn run_len() -> usize {
    if quick_mode() {
        20_000
    } else {
        1_000_000
    }
}

fn sample_size() -> u64 {
    if quick_mode() {
        200
    } else {
        1000
    }
}

fn keys(seed: u64, n: usize) -> Vec<u64> {
    UniformGenerator::new(seed, u32::MAX as u64).generate(n)
}

fn bench_partition_kernels(c: &mut Criterion) {
    let n = run_len();
    let data = keys(1, n);
    let pivot = n / 2;

    // Correctness cross-check before timing anything: the block kernel must
    // return the scalar oracle's equal band on this exact input.
    {
        let mut scalar = data.clone();
        let ps = partition_three_way(&mut scalar, pivot);
        let mut block = data.clone();
        let pb = partition_three_way_block(&mut block, pivot);
        assert_eq!(ps, pb, "block kernel diverged from the scalar oracle");
    }

    let mut group = c.benchmark_group(format!("partition_3way_{n}"));
    group.sample_size(15);
    let mut work = data.clone();
    group.bench_function("scalar_dnf", |b| {
        b.iter(|| {
            work.copy_from_slice(&data);
            black_box(partition_three_way(&mut work, pivot))
        })
    });
    group.bench_function("block_branchless", |b| {
        b.iter(|| {
            work.copy_from_slice(&data);
            black_box(partition_three_way_block(&mut work, pivot))
        })
    });
    group.finish();
}

fn bench_multiselect_strategies(c: &mut Criterion) {
    let n = run_len();
    let s = sample_size() as usize;
    let data = keys(2, n);
    let ranks = regular_sample_ranks(n, s);

    // Every strategy must select identical values (the sketch-identity
    // invariant); check it on the bench input before timing.
    let reference = {
        let mut work = data.clone();
        multiselect_with(&mut work, &ranks, SelectionStrategy::Quickselect)
    };
    for strategy in SelectionStrategy::ALL {
        let mut work = data.clone();
        assert_eq!(
            multiselect_with(&mut work, &ranks, strategy),
            reference,
            "{strategy:?} selected different values"
        );
    }

    let mut group = c.benchmark_group(format!("multiselect_{s}_of_{n}"));
    group.sample_size(15);
    for strategy in [
        SelectionStrategy::Quickselect,
        SelectionStrategy::BlockQuickselect,
        SelectionStrategy::FloydRivest,
    ] {
        group.bench_with_input(
            BenchmarkId::new("strategy", format!("{strategy:?}")),
            &strategy,
            |b, &strategy| {
                let mut work = data.clone();
                b.iter(|| {
                    work.copy_from_slice(&data);
                    black_box(multiselect_with(&mut work, &ranks, strategy))
                })
            },
        );
    }
    group.finish();
}

fn bench_duplicate_heavy_multiselect(c: &mut Criterion) {
    let n = run_len();
    let s = sample_size() as usize;
    let ranks = regular_sample_ranks(n, s);
    let shapes: [(&str, Vec<u64>); 2] = [
        ("constant", vec![42; n]),
        ("three_valued", keys(4, n).iter().map(|k| k % 3).collect()),
    ];

    let mut group = c.benchmark_group(format!("multiselect_{s}_of_{n}_dup"));
    group.sample_size(15);
    for (shape, data) in &shapes {
        let reference = {
            let mut work = data.clone();
            multiselect_with(&mut work, &ranks, SelectionStrategy::Quickselect)
        };
        for strategy in SelectionStrategy::ALL {
            let mut work = data.clone();
            assert_eq!(
                multiselect_with(&mut work, &ranks, strategy),
                reference,
                "{strategy:?} selected different values on the {shape} run"
            );
        }
        for strategy in [
            SelectionStrategy::Quickselect,
            SelectionStrategy::BlockQuickselect,
            SelectionStrategy::FloydRivest,
        ] {
            group.bench_with_input(
                BenchmarkId::new(*shape, format!("{strategy:?}")),
                &strategy,
                |b, &strategy| {
                    let mut work = data.clone();
                    b.iter(|| {
                        work.copy_from_slice(data);
                        black_box(multiselect_with(&mut work, &ranks, strategy))
                    })
                },
            );
        }
    }
    group.finish();
}

fn bench_bucket_sized_multiselect(c: &mut Criterion) {
    let n = 4096;
    let data = keys(5, n);
    let ranks = regular_sample_ranks(n, 4);
    let mut group = c.benchmark_group(format!("multiselect_4_of_{n}"));
    // One iteration is tens of microseconds, so take more samples.
    group.sample_size(201);
    let mut work = data.clone();
    group.bench_function("BlockQuickselect", |b| {
        b.iter(|| {
            work.copy_from_slice(&data);
            black_box(multiselect_with(
                &mut work,
                &ranks,
                SelectionStrategy::BlockQuickselect,
            ))
        })
    });
    group.finish();
}

fn bench_sample_run_pipeline(c: &mut Criterion) {
    let n = run_len();
    let s = sample_size();
    let data = keys(3, n);

    // The two paths must produce the identical RunSample.
    {
        let mut seed_buf = data.clone();
        let seed = sample_run(&mut seed_buf, s, SelectionStrategy::Quickselect).unwrap();
        let mut sampler = RunSampler::new(s, SelectionStrategy::BlockQuickselect).unwrap();
        let mut reuse_buf = data.clone();
        let block = sampler.sample(&mut reuse_buf).unwrap();
        assert_eq!(seed, block, "hot path diverged from the seed path");
    }

    let mut group = c.benchmark_group(format!("sample_run_{n}_s{s}"));
    group.sample_size(15);

    // Seed path: a fresh m-element buffer every run (what `read_run`
    // allocated), scalar partition kernel, ranks recomputed per call.
    group.bench_function("seed_scalar_alloc", |b| {
        b.iter(|| {
            let mut run = data.clone();
            black_box(sample_run(&mut run, s, SelectionStrategy::Quickselect).unwrap())
        })
    });

    // Hot path: one recycled buffer refilled in place (what `read_run_into`
    // does), block kernel, rank table cached across runs.
    group.bench_function("block_buffer_reuse", |b| {
        let mut sampler = RunSampler::new(s, SelectionStrategy::BlockQuickselect).unwrap();
        let mut run_buf: Vec<u64> = Vec::with_capacity(n);
        b.iter(|| {
            run_buf.clear();
            run_buf.extend_from_slice(&data);
            black_box(sampler.sample(&mut run_buf).unwrap())
        })
    });

    // Ablation: block kernel but fresh allocation per run, to separate the
    // kernel win from the allocator win.
    group.bench_function("block_alloc", |b| {
        b.iter(|| {
            let mut run = data.clone();
            black_box(sample_run(&mut run, s, SelectionStrategy::BlockQuickselect).unwrap())
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_partition_kernels,
    bench_multiselect_strategies,
    bench_duplicate_heavy_multiselect,
    bench_bucket_sized_multiselect,
    bench_sample_run_pipeline
);
criterion_main!(benches);
