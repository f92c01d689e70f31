//! Sequential vs. sharded ingestion wall-clock.
//!
//! Builds the same sketch four ways — the sequential [`OpaqEstimator`] and
//! [`ShardedOpaq`] with 2, 4 and 8 worker threads — over a multi-run
//! in-memory store, so `cargo bench --bench sharded_ingest` answers "what
//! does sharding buy on this machine?".  The sampling work (`O(m log s)`
//! multi-selection per run) dominates, so on a machine with ≥ 4 cores the
//! 4-thread variant should beat sequential clearly; on a single core the
//! numbers instead measure the (small) cost of starting the shard threads.
//! Sketch equality across all variants is asserted once up front, so the
//! bench doubles as a smoke test of the bit-identity invariant.
//!
//! Set `OPAQ_BENCH_QUICK=1` to shrink the input to 160k keys in the same 16
//! runs: that mode runs per-PR in CI as a smoke job, where the up-front
//! check that the sharded sketch equals the sequential one for 1, 2, 4 and
//! 8 threads fails loudly; timings at that size are informational only.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use opaq_core::{OpaqConfig, OpaqEstimator};
use opaq_datagen::DatasetSpec;
use opaq_parallel::ShardedOpaq;
use opaq_storage::MemRunStore;

const RUNS: u64 = 16;
const SAMPLE_SIZE: u64 = 2_000;

/// The key count and the group name it is reported under.
fn size() -> (u64, &'static str) {
    if std::env::var_os("OPAQ_BENCH_QUICK").is_some() {
        (160_000, "sharded_ingest_160k_keys_16_runs")
    } else {
        (2_000_000, "sharded_ingest_2m_keys_16_runs")
    }
}

fn bench_sharded_ingest(c: &mut Criterion) {
    let (n, group) = size();
    let run_length = n / RUNS;
    let data = DatasetSpec::paper_uniform(n, 41).generate();
    let store = MemRunStore::new(data, run_length);
    let config = OpaqConfig::builder()
        .run_length(run_length)
        .sample_size(SAMPLE_SIZE)
        .build()
        .unwrap();

    // The invariant the satellites pin down, asserted on the bench workload.
    let sequential = OpaqEstimator::new(config).build_sketch(&store).unwrap();
    for threads in [1usize, 2, 4, 8] {
        let sharded = ShardedOpaq::new(config, threads)
            .unwrap()
            .build_sketch(&store)
            .unwrap();
        assert_eq!(sharded, sequential, "threads {threads}");
    }

    let mut group = c.benchmark_group(group);
    group.sample_size(10);
    group.bench_function("sequential", |b| {
        b.iter(|| black_box(OpaqEstimator::new(config).build_sketch(&store).unwrap()))
    });
    for threads in [2usize, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("sharded", threads),
            &threads,
            |b, &threads| {
                let sharded = ShardedOpaq::new(config, threads).unwrap();
                b.iter(|| black_box(sharded.build_sketch(&store).unwrap()))
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_sharded_ingest);
criterion_main!(benches);
