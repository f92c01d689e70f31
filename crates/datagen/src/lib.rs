//! Workload generators for the OPAQ reproduction.
//!
//! The paper's experiments (§2.4, §3.1) use data sets of 1, 5 and 10 million
//! keys (up to 32 million in the parallel runs), drawn from either a uniform
//! distribution or a Zipf distribution with parameter 0.86, with `n/10`
//! duplicate keys injected.  This crate reproduces those workloads and adds a
//! few adversarial orderings used by the extended test suite:
//!
//! * [`UniformGenerator`] — i.i.d. uniform keys over a configurable domain.
//! * [`ZipfGenerator`] — Zipf-distributed keys via Hörmann's
//!   rejection-inversion sampling; the paper's "parameter" convention
//!   (1 = uniform, 0 = maximally skewed) is supported directly.
//! * [`NormalGenerator`] — Gaussian keys (clamped to the domain), for
//!   distribution-robustness tests beyond the paper.
//! * [`patterns`] — deterministic adversarial orders: sorted, reverse sorted,
//!   organ pipe, constant.
//! * [`duplicates`] — duplicate injection matching the paper's `n/10` rule.
//! * [`DatasetSpec`] — a serializable description of a workload
//!   (distribution + size + seed + duplicate fraction) that the experiment
//!   harness uses to label its tables.
//!
//! All generators are deterministic functions of their seed so every
//! experiment binary (`cargo run --release -p opaq-bench --bin table3`, …)
//! can be reproduced bit-for-bit.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod duplicates;
pub mod normal;
pub mod patterns;
pub mod spec;
pub mod uniform;
pub mod zipf;

pub use duplicates::{count_duplicated_elements, inject_duplicates};
pub use normal::NormalGenerator;
pub use patterns::{Pattern, PatternGenerator};
pub use spec::{DatasetSpec, Distribution};
pub use uniform::UniformGenerator;
pub use zipf::ZipfGenerator;

use rand::rngs::SmallRng;
use rand::SeedableRng;

/// A source of synthetic keys.
///
/// Generators are infinite: `generate(n)` yields any requested number of
/// keys, deterministically derived from the generator's seed.
pub trait KeyGenerator {
    /// Produce the next `n` keys.
    fn generate(&mut self, n: usize) -> Vec<u64>;

    /// A short human-readable label used in experiment tables
    /// (e.g. `"uniform"`, `"zipf(0.86)"`).
    fn label(&self) -> String;
}

/// Construct the deterministic RNG used by all generators in this crate.
pub(crate) fn rng_from_seed(seed: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic() {
        let a = UniformGenerator::new(7, 1 << 20).generate(1000);
        let b = UniformGenerator::new(7, 1 << 20).generate(1000);
        assert_eq!(a, b);
        let a = ZipfGenerator::from_paper_parameter(7, 1 << 20, 0.86).generate(1000);
        let b = ZipfGenerator::from_paper_parameter(7, 1 << 20, 0.86).generate(1000);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = UniformGenerator::new(1, 1 << 20).generate(100);
        let b = UniformGenerator::new(2, 1 << 20).generate(100);
        assert_ne!(a, b);
    }
}
