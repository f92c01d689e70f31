//! Table 7: RER_A comparison of OPAQ against the Agrawal–Swami one-pass
//! algorithm \[AS95\] and random sampling, under an equal memory budget of
//! 3000 retained points, on a 1 M-key dataset (uniform and Zipf 0.86).
//!
//! Run with `cargo run --release -p opaq-bench --bin table7`.

use opaq_baselines::{AdaptiveIntervalEstimator, ReservoirSampler, StreamingEstimator};
use opaq_bench::{
    dectile_labels, error_rates_for_bounds, paper_run_length, run_sequential_accuracy, scaled,
    to_bounds_view, DECTILES,
};
use opaq_datagen::DatasetSpec;
use opaq_metrics::{fmt2, QuantileBoundsView, TextTable};

/// Memory budget in retained points, shared by all three algorithms.  For
/// OPAQ this is the merged sample list (r·s = 3000 with the paper's r = 10).
const MEMORY_POINTS: usize = 3000;

fn baseline_rates(data: &[u64], estimator: &mut dyn StreamingEstimator) -> Vec<f64> {
    estimator.observe_all(data);
    let bounds: Vec<QuantileBoundsView> = (1..DECTILES)
        .map(|i| {
            let phi = i as f64 / DECTILES as f64;
            let v = estimator.estimate(phi).expect("baseline estimate");
            QuantileBoundsView {
                phi,
                lower: v,
                upper: v,
            }
        })
        .collect();
    error_rates_for_bounds(data, &bounds).rer_a_per_quantile
}

fn main() {
    let n = scaled(1_000_000);
    let m = paper_run_length(n);
    // r = n/m = 10 runs; r*s = MEMORY_POINTS  =>  s = MEMORY_POINTS / 10.
    let s = (MEMORY_POINTS as u64 * m / n).max(2);

    let specs = [
        DatasetSpec::paper_uniform(n, 42),
        DatasetSpec::paper_zipf(n, 43),
    ];
    let mut columns: Vec<Vec<f64>> = Vec::new();
    for spec in &specs {
        let data = spec.generate();

        // OPAQ with r*s = 3000 sample points.
        let opaq = run_sequential_accuracy(spec, m, s);
        let opaq_bounds = to_bounds_view(&opaq.estimates);
        columns.push(error_rates_for_bounds(&data, &opaq_bounds).rer_a_per_quantile);

        // AS95 adaptive intervals with ~3000 counters.
        let mut as95 = AdaptiveIntervalEstimator::new(MEMORY_POINTS - 2);
        columns.push(baseline_rates(&data, &mut as95));

        // Random sampling with 3000 retained keys.
        let mut sampler = ReservoirSampler::new(MEMORY_POINTS, 7);
        columns.push(baseline_rates(&data, &mut sampler));
    }

    let mut table = TextTable::new(format!(
        "Table 7: RER_A (%) under an equal memory budget of {MEMORY_POINTS} points, n = {n} (uniform | zipf 0.86)"
    ))
    .header([
        "dectile", "u OPAQ", "u AS95", "u sample", "z OPAQ", "z AS95", "z sample",
    ]);
    for (d, label) in dectile_labels().into_iter().enumerate() {
        table.row([
            label,
            fmt2(columns[0][d]),
            fmt2(columns[1][d]),
            fmt2(columns[2][d]),
            fmt2(columns[3][d]),
            fmt2(columns[4][d]),
            fmt2(columns[5][d]),
        ]);
    }
    print!("{}", table.render());
    println!("expectation: OPAQ is comparable or better, and it is the only one with a deterministic bound (2/s*100 = {:.2}%)", 200.0 / s as f64);
}
