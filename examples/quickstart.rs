//! Quickstart: estimate dectiles of a disk-resident dataset in one pass.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! The example writes a 2-million-key binary file, streams it back as runs
//! of 200k keys, builds the OPAQ sketch and prints the nine dectiles with
//! their deterministic bounds, comparing each against the exact value.

use opaq::datagen::DatasetSpec;
use opaq::storage::FileRunStoreBuilder;
use opaq::{GroundTruth, OpaqConfig, OpaqEstimator, RunStore};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- 1. create a "disk-resident" dataset --------------------------------
    let n: u64 = 2_000_000;
    let run_length: u64 = 200_000;
    let spec = DatasetSpec::paper_uniform(n, 2024);
    let data = spec.generate();

    let path = std::env::temp_dir().join(format!("opaq-quickstart-{}.bin", std::process::id()));
    let store = FileRunStoreBuilder::<u64>::new(&path, run_length)?
        .append(&data)?
        .finish()?;
    println!(
        "wrote {} keys to {} ({} runs of {} keys)",
        n,
        path.display(),
        store.layout().runs(),
        run_length
    );

    // --- 2. one pass: build the sketch ---------------------------------------
    let config = OpaqConfig::builder()
        .run_length(run_length)
        .sample_size(1_000)
        .build()?;
    let estimator = OpaqEstimator::new(config);
    let sketch = estimator.build_sketch(&store)?;
    let io = store.io_stats().snapshot();
    println!(
        "sample phase done: {} sample points, {} runs read, io {:?}",
        sketch.len(),
        io.read_calls,
        io.effective_io_time()
    );

    // --- 3. quantile phase: dectiles with deterministic bounds --------------
    let truth = GroundTruth::new(&data);
    println!(
        "\n{:>8} {:>12} {:>12} {:>12} {:>8}",
        "phi", "lower", "exact", "upper", "ok?"
    );
    for estimate in sketch.estimate_q_quantiles(10)? {
        let exact = truth.quantile_value(estimate.phi);
        let ok = estimate.lower <= exact && exact <= estimate.upper;
        println!(
            "{:>8.1} {:>12} {:>12} {:>12} {:>8}",
            estimate.phi, estimate.lower, exact, estimate.upper, ok
        );
    }
    println!(
        "\nguarantee: at most {} elements (≤ n/s = {}) between the true quantile and either bound",
        sketch.max_elements_per_bound(),
        n / 1_000
    );

    store.remove_file()?;
    Ok(())
}
