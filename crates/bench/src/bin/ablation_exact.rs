//! Ablation (§4 extension): the exact-quantile second pass.
//!
//! Prints, for several sample sizes, how many candidate elements the second
//! pass has to buffer (Lemma 3 bounds it by 2n/s) and whether the returned
//! value matches a full sort ([`opaq_bench::ablation_exact`]).
//!
//! Run with `cargo run --release -p opaq-bench --bin ablation_exact`.

use opaq_bench::{ablation_exact, scaled};
use opaq_metrics::TextTable;

fn main() {
    let n = scaled(1_000_000);
    let mut table = TextTable::new(format!(
        "Ablation: exact second pass, n = {n} — candidates kept vs the 2n/s bound"
    ))
    .header([
        "s",
        "quantile",
        "candidates kept",
        "bound 2n/s",
        "Lemma 3 cap",
        "exact?",
    ]);
    for row in ablation_exact(n) {
        table.row([
            row.s.to_string(),
            format!("{}%", row.percent),
            row.candidates_kept.to_string(),
            (2 * n / row.s).to_string(),
            row.lemma3_cap.to_string(),
            row.exact.to_string(),
        ]);
    }
    print!("{}", table.render());
    println!("expectation: candidates <= 2n/s (+duplicates of the bounds) and every exact value matches the full sort");
}
