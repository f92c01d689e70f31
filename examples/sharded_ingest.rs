//! Sharded multi-threaded ingestion: same sketch, less wall-clock.
//!
//! ```text
//! cargo run --release --example sharded_ingest
//! ```
//!
//! Writes a multi-run dataset file, ingests it sequentially and with
//! [`opaq::ShardedOpaq`] at each thread count, prints the wall-clock and
//! per-shard busy breakdown, and verifies the central invariant:
//! the sharded sketch is **bit-identical** to the sequential one for every
//! thread count, so parallelism is purely a latency optimisation.
//!
//! Every variant is built once to warm up, then timed over a few rounds
//! that rotate which variant goes first; each line reports the median, so
//! a speed-up reads the variants under the same host conditions rather
//! than one cold build against a warm one.

use opaq::datagen::DatasetSpec;
use opaq::storage::FileRunStoreBuilder;
use opaq::{OpaqConfig, OpaqEstimator, RunStore, ShardedOpaq};
use std::time::{Duration, Instant};

/// Timed rounds after the warm-up; each times every variant once.
const ROUNDS: usize = 5;

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

    let sequential = OpaqEstimator::new(config).build_sketch(&store)?;
    let variants = [1usize, 2, 4, 8];
    let mut times = vec![Vec::new(); variants.len()];
    let mut reports = Vec::new();
    // Round 0 is the warm-up and is not timed.
    for round in 0..=ROUNDS {
        for turn in 0..variants.len() {
            let at = (turn + round) % variants.len();
            let start = Instant::now();
            let (sketch, report) = if variants[at] == 1 {
                (OpaqEstimator::new(config).build_sketch(&store)?, None)
            } else {
                let sharded = ShardedOpaq::new(config, variants[at])?;
                let (sketch, report) = sharded.build_sketch_with_report(&store)?;
                (sketch, Some(report))
            };
            let elapsed = start.elapsed();
            assert!(
                sketch == sequential,
                "every build must equal the sequential one"
            );
            if round > 0 {
                times[at].push(elapsed);
            }
            if round == ROUNDS {
                reports.push((at, report));
            }
        }
    }
    let medians: Vec<Duration> = times
        .iter_mut()
        .map(|t| {
            t.sort();
            t[t.len() / 2]
        })
        .collect();
    println!(
        "sequential ingest: median {:?} of {ROUNDS} rounds",
        medians[0]
    );
    reports.sort_by_key(|(at, _)| *at);
    for (at, report) in reports {
        let Some(report) = report else { continue };
        println!(
            "\nsharded ingest, {} threads: median {:?} of {ROUNDS} rounds \
             ({:.2}x vs sequential; identical sketch: true); last round's merge {:?}, io {:?}",
            variants[at],
            medians[at],
            medians[0].as_secs_f64() / medians[at].as_secs_f64(),
            report.merge,
            report.io.effective_io_time(),
        );
        print!("{}", report.render_table());
    }

    let median = sequential.estimate(0.5)?;
    println!(
        "\nmedian of {} keys: in [{}, {}] (slack ≤ {} ranks)",
        n, median.lower, median.upper, median.max_rank_slack
    );
    store.remove_file()?;
    Ok(())
}
