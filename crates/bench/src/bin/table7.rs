//! Table 7: RER_A comparison of OPAQ against the Agrawal–Swami one-pass
//! algorithm \[AS95\] and random sampling, under an equal memory budget of
//! 3000 retained points, on a 1 M-key dataset (uniform and Zipf 0.86).
//!
//! Run with `cargo run --release -p opaq-bench --bin table7`.

use opaq_bench::{dectile_labels, scaled, table7, Table7, TABLE7_MEMORY_POINTS};
use opaq_metrics::{fmt2, TextTable};

fn main() {
    let Table7 { n, s, columns } = table7(scaled(1_000_000));
    let mut table = TextTable::new(format!(
        "Table 7: RER_A (%) under an equal memory budget of {TABLE7_MEMORY_POINTS} points, n = {n} (uniform | zipf 0.86)"
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
