//! Sharded multi-threaded ingestion: same sketch, less wall-clock.
//!
//! ```text
//! cargo run --release --example sharded_ingest
//! ```
//!
//! Writes a multi-run dataset file, ingests it once sequentially and once
//! per thread count with [`opaq::ShardedOpaq`], prints the wall-clock and
//! per-shard busy breakdown, and verifies the central invariant:
//! the sharded sketch is **bit-identical** to the sequential one for every
//! thread count, so parallelism is purely a latency optimisation.

use opaq::datagen::DatasetSpec;
use opaq::storage::FileRunStoreBuilder;
use opaq::{OpaqConfig, OpaqEstimator, RunStore, ShardedOpaq};
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n: u64 = 2_000_000;
    let run_length: u64 = 125_000; // 16 runs
    let data = DatasetSpec::paper_uniform(n, 7).generate();
    let path = std::env::temp_dir().join(format!("opaq-sharded-{}.bin", std::process::id()));
    let store = FileRunStoreBuilder::<u64>::new(&path, run_length)?
        .append(&data)?
        .finish()?;
    println!(
        "wrote {} keys to {} ({} runs of {} keys)\n",
        n,
        path.display(),
        store.layout().runs(),
        run_length
    );

    let config = OpaqConfig::builder()
        .run_length(run_length)
        .sample_size(1_000)
        .build()?;

    let start = Instant::now();
    let sequential = OpaqEstimator::new(config).build_sketch(&store)?;
    let sequential_time = start.elapsed();
    println!("sequential ingest: {sequential_time:?}");

    for threads in [2usize, 4, 8] {
        let sharded = ShardedOpaq::new(config, threads)?;
        let start = Instant::now();
        let (sketch, report) = sharded.build_sketch_with_report(&store)?;
        let elapsed = start.elapsed();
        let identical = sketch == sequential;
        println!(
            "\nsharded ingest, {threads} threads: {elapsed:?} \
             (merge {:?}, io {:?}; {:.2}x vs sequential; identical sketch: {identical})",
            report.merge,
            report.io.effective_io_time(),
            sequential_time.as_secs_f64() / elapsed.as_secs_f64(),
        );
        print!("{}", report.render_table());
        assert!(identical, "sharded sketch must equal the sequential one");
    }

    let median = sequential.estimate(0.5)?;
    println!(
        "\nmedian of {} keys: in [{}, {}] (slack ≤ {} ranks)",
        n, median.lower, median.upper, median.max_rank_slack
    );
    store.remove_file()?;
    Ok(())
}
