//! OPAQ configuration: run length `m` and sample size `s`.
//!
//! The paper constrains the parameters by the memory budget `M` through
//! `r·s + m ≤ M` (the sorted sample list of all runs plus one in-memory run
//! must fit) and notes that `s ≥ 2q` is needed for good bounds on `q`
//! quantiles, which limits the number of quantiles to `O(M²/n)`.
//! [`OpaqConfig::for_memory_budget`] encodes that sizing rule.

use crate::{OpaqError, OpaqResult};
use opaq_select::SelectionStrategy;
use serde::{Deserialize, Serialize};

/// Configuration of a sequential OPAQ run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OpaqConfig {
    /// Run length `m`: the number of elements processed in memory at once.
    pub run_length: u64,
    /// Sample size `s`: regular samples taken per run.  The paper's
    /// experiments use 250–1000; accuracy is proportional to `s`
    /// (error ≤ `n/s` elements per bound).
    pub sample_size: u64,
    /// Has one value and changes nothing: the sample phase always selects
    /// with introselect.  Kept only for the benchmark harness, which still
    /// reads it.
    #[serde(skip, default)]
    pub strategy: SelectionStrategy,
}

impl OpaqConfig {
    /// Start building a configuration.
    pub fn builder() -> OpaqConfigBuilder {
        OpaqConfigBuilder::default()
    }

    /// Pick `m` and `s` for a dataset of `n` elements under a memory budget
    /// of `memory_elements` elements, aiming to estimate up to `q` quantiles.
    ///
    /// The rule follows §2.3: the in-memory run (`m` elements) and the merged
    /// sample list (`r·s = n·s/m` elements) must both fit, and `s ≥ 2q`.
    /// We split the budget evenly: `m = memory/2`, then the largest `s`
    /// with `n·s/m ≤ memory/2`, clamped to `[2q, m]`.
    ///
    /// # Errors
    /// Returns [`OpaqError::InvalidConfig`] if the budget cannot satisfy
    /// `s ≥ 2q`.
    pub fn for_memory_budget(n: u64, memory_elements: u64, q: u64) -> OpaqResult<Self> {
        if n == 0 || memory_elements == 0 || q == 0 {
            return Err(OpaqError::InvalidConfig(
                "n, memory and q must all be positive".to_string(),
            ));
        }
        let m = (memory_elements / 2).clamp(1, n);
        let sample_budget = memory_elements - m;
        // r*s <= sample_budget  =>  s <= sample_budget * m / n
        let max_s = sample_budget.saturating_mul(m) / n;
        let s = max_s.min(m);
        let min_s = 2 * q;
        if s < min_s.min(m) {
            return Err(OpaqError::InvalidConfig(format!(
                "memory budget of {memory_elements} elements cannot hold {min_s} samples per run \
                 for n={n} (max feasible s={s})"
            )));
        }
        Ok(Self {
            run_length: m,
            sample_size: s.max(min_s.min(m)),
            strategy: SelectionStrategy::default(),
        })
    }

    /// Validate the invariants `m ≥ 1`, `1 ≤ s ≤ m`.
    pub fn validate(&self) -> OpaqResult<()> {
        if self.run_length == 0 {
            return Err(OpaqError::InvalidConfig(
                "run length m must be positive".into(),
            ));
        }
        if self.sample_size == 0 {
            return Err(OpaqError::InvalidConfig(
                "sample size s must be positive".into(),
            ));
        }
        if self.sample_size > self.run_length {
            return Err(OpaqError::InvalidConfig(format!(
                "sample size s={} cannot exceed run length m={}",
                self.sample_size, self.run_length
            )));
        }
        Ok(())
    }

    /// The per-sample sub-run length `⌈m/s⌉`: each sample point stands for at
    /// most this many elements of its run.
    pub fn sub_run_length(&self) -> u64 {
        self.run_length.div_ceil(self.sample_size)
    }

    /// The paper's memory-footprint estimate in elements for a dataset of
    /// `n` elements: one run plus the merged sample list (`m + r·s`).
    pub fn memory_elements(&self, n: u64) -> u64 {
        let runs = n.div_ceil(self.run_length.max(1));
        self.run_length + runs * self.sample_size
    }
}

impl Default for OpaqConfig {
    fn default() -> Self {
        Self {
            run_length: 1 << 20,
            sample_size: 1000,
            strategy: SelectionStrategy::default(),
        }
    }
}

/// Builder for [`OpaqConfig`].
#[derive(Debug, Clone, Copy, Default)]
pub struct OpaqConfigBuilder {
    run_length: Option<u64>,
    sample_size: Option<u64>,
}

impl OpaqConfigBuilder {
    /// Set the run length `m`.
    pub fn run_length(mut self, m: u64) -> Self {
        self.run_length = Some(m);
        self
    }

    /// Set the per-run sample size `s`.
    pub fn sample_size(mut self, s: u64) -> Self {
        self.sample_size = Some(s);
        self
    }

    /// Build and validate the configuration.
    pub fn build(self) -> OpaqResult<OpaqConfig> {
        let defaults = OpaqConfig::default();
        let config = OpaqConfig {
            run_length: self.run_length.unwrap_or(defaults.run_length),
            sample_size: self.sample_size.unwrap_or(defaults.sample_size),
            strategy: SelectionStrategy::default(),
        };
        config.validate()?;
        Ok(config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_are_valid() {
        let c = OpaqConfig::builder().build().unwrap();
        assert_eq!(c.run_length, 1 << 20);
        assert_eq!(c.sample_size, 1000);
    }

    #[test]
    fn builder_rejects_s_greater_than_m() {
        let err = OpaqConfig::builder()
            .run_length(10)
            .sample_size(11)
            .build()
            .unwrap_err();
        assert!(matches!(err, OpaqError::InvalidConfig(_)));
    }

    #[test]
    fn builder_rejects_zero_values() {
        assert!(OpaqConfig::builder().run_length(0).build().is_err());
        assert!(OpaqConfig::builder().sample_size(0).build().is_err());
    }

    #[test]
    fn sub_run_length_rounds_up() {
        let c = OpaqConfig::builder()
            .run_length(10)
            .sample_size(3)
            .build()
            .unwrap();
        assert_eq!(c.sub_run_length(), 4);
        let c = OpaqConfig::builder()
            .run_length(100)
            .sample_size(10)
            .build()
            .unwrap();
        assert_eq!(c.sub_run_length(), 10);
    }

    #[test]
    fn memory_budget_sizing_satisfies_constraints() {
        let n = 1_000_000;
        let memory = 200_000;
        let q = 10;
        let c = OpaqConfig::for_memory_budget(n, memory, q).unwrap();
        c.validate().unwrap();
        assert!(c.sample_size >= 2 * q);
        assert!(
            c.memory_elements(n) <= memory + c.run_length,
            "within ~budget: {}",
            c.memory_elements(n)
        );
    }

    #[test]
    fn memory_budget_too_small_errors() {
        let err = OpaqConfig::for_memory_budget(1_000_000, 100, 50).unwrap_err();
        assert!(matches!(err, OpaqError::InvalidConfig(_)));
        assert!(OpaqConfig::for_memory_budget(0, 100, 10).is_err());
    }

    #[test]
    fn memory_elements_accounts_run_plus_samples() {
        let c = OpaqConfig::builder()
            .run_length(1000)
            .sample_size(100)
            .build()
            .unwrap();
        // n = 10_000 -> r = 10 -> memory = 1000 + 10*100 = 2000
        assert_eq!(c.memory_elements(10_000), 2000);
    }
}
