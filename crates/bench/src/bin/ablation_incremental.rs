//! Ablation (§4 extension): incremental maintenance.
//!
//! New data arrives in batches; the incremental estimator only samples the
//! new runs and merges the sample lists.  The table tracks the measured
//! RER_N after each batch and compares it against a from-scratch rebuild —
//! the two must agree because merging sample lists is exactly what the batch
//! algorithm does.
//!
//! Run with `cargo run --release -p opaq-bench --bin ablation_incremental`.

use opaq_bench::{ablation_incremental, scaled, ABLATION_INCREMENTAL_S};
use opaq_metrics::{fmt2, TextTable};

fn main() {
    let batch = scaled(250_000);
    let batches = 6usize;
    let s = ABLATION_INCREMENTAL_S;
    let mut table = TextTable::new(format!(
        "Ablation: incremental maintenance, {batches} batches of {batch} keys (s = {s})"
    ))
    .header([
        "batch",
        "total n",
        "RER_N incremental",
        "RER_N rebuilt",
        "sample points held",
    ]);
    for row in ablation_incremental(batch, batches) {
        table.row([
            row.batch.to_string(),
            row.total_n.to_string(),
            fmt2(row.rer_n_incremental),
            fmt2(row.rer_n_rebuilt),
            row.sample_points.to_string(),
        ]);
    }
    print!("{}", table.render());
    println!("expectation: the incremental error matches the from-scratch rebuild at every step");
}
