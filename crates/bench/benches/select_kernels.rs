//! Microbenchmarks for multi-selection and the allocation-free run-ingest
//! hot path.
//!
//! Seven questions, answered on 1M-key u64 runs (the paper's experiment
//! scale) unless noted:
//!
//! 1. **Multi-selection** — `multiselect` of `s = 1000` regular ranks.
//! 2. **Duplicate-heavy multi-selection** — the same rank set over constant
//!    and three-valued runs, whose oversample is few-valued, so
//!    `multiselect` skips the buckets and the recursion's floor and ceiling
//!    rules end them.
//! 3. **Bucket-sized multi-selection** — 4 regular ranks of a 4096-key
//!    slice, where the recursion does in-bucket work.
//! 4. **Serving set-up** — 500 regular ranks of a 10k-key run, the run
//!    shape perfbench's `serve-point` samples while it builds its catalog.
//! 5. **Distribution floor** — slices one key below and at 2^15 and 2^16
//!    keys, with one rank per 1000 keys and one per 20: each pair times the
//!    recursion alone against the distribution at nearly the same size
//!    wherever `DISTRIBUTION_MIN_LEN` falls between them.
//! 6. **Bucket-map shapes** — 2^16 keys, in quick mode too, with 1000
//!    regular ranks: log-uniform keys (the log-linear map), rare huge
//!    outliers (the trimmed range), two far-apart clusters (heavy buckets
//!    distributed again) and signed keys of both signs (the sign-flipped
//!    image).  In quick mode these are the only rows above the distribution
//!    floor, so CI's smoke checks the map choice and the second level
//!    against a sort.
//! 7. **End-to-end `sample_run`** — the hot path's recycled buffer and
//!    `RunSampler` rank cache, and the same without the buffer.
//!
//! The multi-selection groups refill one reused buffer with the input
//! before every timed iteration, so the copy is timed but no allocation is.
//!
//! Set `OPAQ_BENCH_QUICK=1` to shrink the 1M-key inputs to 20k keys: that
//! mode is run per-PR in CI as a smoke job, where the *correctness*
//! cross-checks at the top of each benchmark (every selected value against
//! a sorted copy) fail loudly if selection regresses; timings at that size
//! are informational only.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use opaq_core::{sample_run, RunSampler};
use opaq_datagen::{KeyGenerator, UniformGenerator};
use opaq_select::{multiselect, regular_sample_ranks, RadixKey, SelectionStrategy};

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

/// The values a full sort puts at `ranks`.
fn sorted_at<T: Ord + Copy>(data: &[T], ranks: &[usize]) -> Vec<T> {
    let mut sorted = data.to_vec();
    sorted.sort_unstable();
    ranks.iter().map(|&r| sorted[r]).collect()
}

/// Time `multiselect` of `ranks` over `data` in `group` under `name`, after
/// checking that it selects what a full sort puts at those ranks.
fn bench_multiselect<T: Ord + RadixKey + std::fmt::Debug>(
    group: &mut criterion::BenchmarkGroup<'_>,
    name: &str,
    data: &[T],
    ranks: &[usize],
) {
    let mut work = data.to_vec();
    assert_eq!(
        multiselect(&mut work, ranks),
        sorted_at(data, ranks),
        "multiselect selected different values than a sort on {name}"
    );
    group.bench_function(name, |b| {
        b.iter(|| {
            work.copy_from_slice(data);
            black_box(multiselect(&mut work, ranks))
        })
    });
}

fn bench_regular_multiselect(c: &mut Criterion) {
    let n = run_len();
    let s = sample_size() as usize;
    let data = keys(2, n);
    let ranks = regular_sample_ranks(n, s);
    let mut group = c.benchmark_group(format!("multiselect_{s}_of_{n}"));
    group.sample_size(15);
    bench_multiselect(&mut group, "default", &data, &ranks);
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
        bench_multiselect(&mut group, shape, data, &ranks);
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
    bench_multiselect(&mut group, "default", &data, &ranks);
    group.finish();
}

fn bench_serving_setup_multiselect(c: &mut Criterion) {
    let (n, s) = (10_000, 500);
    let data = keys(6, n);
    let ranks = regular_sample_ranks(n, s);
    let mut group = c.benchmark_group(format!("multiselect_{s}_of_{n}"));
    group.sample_size(101);
    bench_multiselect(&mut group, "default", &data, &ranks);
    group.finish();
}

fn bench_distribution_floor(c: &mut Criterion) {
    let mut group = c.benchmark_group("distribution_floor");
    group.sample_size(31);
    for len in [(1 << 15) - 1, 1 << 15, (1 << 16) - 1, 1 << 16] {
        let data = keys(7, len);
        for per_rank in [1000, 20] {
            let ranks = regular_sample_ranks(len, len / per_rank);
            let id = format!("len={len}/s={}", ranks.len());
            bench_multiselect(&mut group, &id, &data, &ranks);
        }
    }
    group.finish();
}

/// SplitMix64 step: a deterministic key stream per seed.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn bench_bucket_map_shapes(c: &mut Criterion) {
    let n = 1u64 << 16;
    let ranks = regular_sample_ranks(n as usize, 1000);
    let shapes: [(&str, Vec<u64>); 3] = [
        (
            "log_uniform",
            (0..n)
                .map(|i| {
                    let octave = mix(i) % 48;
                    (1 << octave) + (mix(!i) >> (63 - octave))
                })
                .collect(),
        ),
        (
            "rare_outliers",
            (0..n)
                .map(|i| match mix(i) % 10_000 {
                    0 => u64::MAX - mix(!i) % 1000,
                    _ => mix(!i) % 1_000_000,
                })
                .collect(),
        ),
        (
            "two_clusters",
            (0..n)
                .map(|i| u64::from(mix(i) & 3 != 0) * ((1 << 50) + (1 << 40)) + mix(!i) % 1_000_000)
                .collect(),
        ),
    ];
    let signed: Vec<i64> = (0..n).map(|i| (mix(i) >> 20) as i64 - (1 << 43)).collect();
    let mut group = c.benchmark_group(format!("multiselect_1000_of_{n}_shapes"));
    group.sample_size(31);
    for (shape, data) in &shapes {
        bench_multiselect(&mut group, shape, data, &ranks);
    }
    bench_multiselect(&mut group, "signed", &signed, &ranks);
    group.finish();
}

fn bench_sample_run_pipeline(c: &mut Criterion) {
    let n = run_len();
    let s = sample_size();
    let data = keys(3, n);

    // The hot path must sample what a sort of the run puts at its ranks.
    {
        let mut sampler = RunSampler::new(s, SelectionStrategy::default()).unwrap();
        let mut run = data.clone();
        let sample = sampler.sample(&mut run).unwrap();
        let ranks = regular_sample_ranks(n, s as usize);
        assert_eq!(
            sample.values,
            sorted_at(&data, &ranks),
            "hot path diverged from a sort"
        );
    }

    let mut group = c.benchmark_group(format!("sample_run_{n}_s{s}"));
    group.sample_size(15);

    // The hot path the sample phase runs: one recycled buffer refilled in
    // place (what `read_run_into` does), rank table cached across runs.
    group.bench_function("default_buffer_reuse", |b| {
        let mut sampler = RunSampler::new(s, SelectionStrategy::default()).unwrap();
        let mut run_buf: Vec<u64> = Vec::with_capacity(n);
        b.iter(|| {
            run_buf.clear();
            run_buf.extend_from_slice(&data);
            black_box(sampler.sample(&mut run_buf).unwrap())
        })
    });

    // Ablation: a fresh allocation per run, to separate the selection cost
    // from the allocator's.
    group.bench_function("default_alloc", |b| {
        b.iter(|| {
            let mut run = data.clone();
            black_box(sample_run(&mut run, s).unwrap())
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_regular_multiselect,
    bench_duplicate_heavy_multiselect,
    bench_bucket_sized_multiselect,
    bench_serving_setup_multiselect,
    bench_distribution_floor,
    bench_bucket_map_shapes,
    bench_sample_run_pipeline
);
criterion_main!(benches);
