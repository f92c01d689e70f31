//! Microbenchmarks for the selection kernels and the allocation-free
//! run-ingest hot path (PR 3).
//!
//! Seven questions, answered on 1M-key u64 runs (the paper's experiment
//! scale) unless noted.  Every multi-selection group times every strategy
//! in `SelectionStrategy::ALL`, since the strategy makes every rank split:
//!
//! 1. **Partition kernel** — scalar Dutch-national-flag vs. the branchless
//!    BlockQuicksort-style three-way partition, on identical data and pivot.
//! 2. **Multi-selection** — `multiselect` of `s = 1000` regular ranks.
//! 3. **Duplicate-heavy multi-selection** — the same rank set over constant
//!    and three-valued runs, whose splitters collapse, so `multiselect` skips
//!    the splitter tree and the recursion's floor and ceiling rules end them.
//! 4. **Bucket-sized multi-selection** — 4 regular ranks of a 4096-key
//!    slice, the size of one splitter-tree bucket of a 1M-key run, where the
//!    recursion does the sample phase's in-bucket work.
//! 5. **Serving set-up** — 500 regular ranks of a 10k-key run, the run
//!    shape perfbench's `serve-point` samples while it builds its catalog.
//! 6. **Splitter-tree floor** — the default strategy on slices one key
//!    below and at 2^15 and 2^16 keys, with one rank per 1000 keys and one
//!    per 20: each pair times the recursion alone against the splitter tree
//!    at nearly the same size wherever `SPLITTER_TREE_MIN_LEN` falls between
//!    them.
//! 7. **End-to-end `sample_run`** — the seed path (fresh buffer per run +
//!    scalar quickselect) vs. the default strategy with the hot path's
//!    recycled buffer and `RunSampler` rank cache, and without the buffer.
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

/// Time `multiselect_with` of `ranks` over `data` under every strategy, in
/// `group` under `name/strategy`.  Every strategy must first select the
/// same values as the scalar `Quickselect` (the sketch-identity invariant).
fn bench_every_strategy(
    group: &mut criterion::BenchmarkGroup<'_>,
    name: &str,
    data: &[u64],
    ranks: &[usize],
) {
    let mut work = data.to_vec();
    let reference = multiselect_with(&mut work, ranks, SelectionStrategy::Quickselect);
    for strategy in SelectionStrategy::ALL {
        work.copy_from_slice(data);
        assert_eq!(
            multiselect_with(&mut work, ranks, strategy),
            reference,
            "{strategy:?} selected different values on {name}"
        );
    }
    for strategy in SelectionStrategy::ALL {
        group.bench_with_input(
            BenchmarkId::new(name, format!("{strategy:?}")),
            &strategy,
            |b, &strategy| {
                b.iter(|| {
                    work.copy_from_slice(data);
                    black_box(multiselect_with(&mut work, ranks, strategy))
                })
            },
        );
    }
}

fn bench_multiselect_strategies(c: &mut Criterion) {
    let n = run_len();
    let s = sample_size() as usize;
    let data = keys(2, n);
    let ranks = regular_sample_ranks(n, s);
    let mut group = c.benchmark_group(format!("multiselect_{s}_of_{n}"));
    group.sample_size(15);
    bench_every_strategy(&mut group, "strategy", &data, &ranks);
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
        bench_every_strategy(&mut group, shape, data, &ranks);
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
    bench_every_strategy(&mut group, "strategy", &data, &ranks);
    group.finish();
}

fn bench_serving_setup_multiselect(c: &mut Criterion) {
    let (n, s) = (10_000, 500);
    let data = keys(6, n);
    let ranks = regular_sample_ranks(n, s);
    let mut group = c.benchmark_group(format!("multiselect_{s}_of_{n}"));
    group.sample_size(101);
    bench_every_strategy(&mut group, "strategy", &data, &ranks);
    group.finish();
}

fn bench_splitter_tree_floor(c: &mut Criterion) {
    let mut group = c.benchmark_group("splitter_tree_floor");
    group.sample_size(31);
    for len in [(1 << 15) - 1, 1 << 15, (1 << 16) - 1, 1 << 16] {
        let data = keys(7, len);
        for per_rank in [1000, 20] {
            let ranks = regular_sample_ranks(len, len / per_rank);
            let id = format!("len={len}/s={}", ranks.len());
            let mut work = data.clone();
            group.bench_function(id, |b| {
                b.iter(|| {
                    work.copy_from_slice(&data);
                    black_box(multiselect_with(
                        &mut work,
                        &ranks,
                        SelectionStrategy::default(),
                    ))
                })
            });
        }
    }
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
        let mut sampler = RunSampler::new(s, SelectionStrategy::default()).unwrap();
        let mut reuse_buf = data.clone();
        let hot = sampler.sample(&mut reuse_buf).unwrap();
        assert_eq!(seed, hot, "hot path diverged from the seed path");
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

    // Hot path under the default strategy, which the sample phase runs: one
    // recycled buffer refilled in place (what `read_run_into` does), rank
    // table cached across runs.
    group.bench_function("default_buffer_reuse", |b| {
        let mut sampler = RunSampler::new(s, SelectionStrategy::default()).unwrap();
        let mut run_buf: Vec<u64> = Vec::with_capacity(n);
        b.iter(|| {
            run_buf.clear();
            run_buf.extend_from_slice(&data);
            black_box(sampler.sample(&mut run_buf).unwrap())
        })
    });

    // Ablation: the default strategy but a fresh allocation per run, to
    // separate the selection win from the allocator win.
    group.bench_function("default_alloc", |b| {
        b.iter(|| {
            let mut run = data.clone();
            black_box(sample_run(&mut run, s, SelectionStrategy::default()).unwrap())
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
    bench_serving_setup_multiselect,
    bench_splitter_tree_floor,
    bench_sample_run_pipeline
);
criterion_main!(benches);
