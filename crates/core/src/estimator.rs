//! The high-level driver: one pass over a [`RunStore`], producing a
//! [`QuantileSketch`].
//!
//! This is the "reading from the disk + finding the r·s sample points +
//! merging the r sample lists" pipeline of Table 2.  It runs the one
//! read→sample→merge loop, [`IncrementalOpaq::add_runs`], over every run;
//! the store's [`opaq_storage::IoStats`] record the measured and modelled
//! read time.

use crate::incremental::IncrementalOpaq;
use crate::sketch::QuantileSketch;
use crate::{Key, OpaqConfig, OpaqResult, QuantileEstimate};
use opaq_storage::RunStore;

/// The sequential OPAQ estimator.
#[derive(Debug, Clone, Copy)]
pub struct OpaqEstimator {
    config: OpaqConfig,
}

impl OpaqEstimator {
    /// Create an estimator with the given configuration.
    pub fn new(config: OpaqConfig) -> Self {
        Self { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &OpaqConfig {
        &self.config
    }

    /// Run the sample phase over every run of `store` and return the sketch.
    ///
    /// The store's own [`opaq_storage::RunLayout`] defines the run structure
    /// (it is the physical layout of the data on disk); the configuration
    /// contributes the per-run sample size `s`, and store runs longer than
    /// its run length `m` are sampled in pieces of `m`.
    ///
    /// # Errors
    /// [`crate::OpaqError::InvalidConfig`] for an invalid configuration,
    /// [`crate::OpaqError::EmptyDataset`] for an empty store, and storage
    /// errors from the read pass.
    pub fn build_sketch<K, S>(&self, store: &S) -> OpaqResult<QuantileSketch<K>>
    where
        K: Key,
        S: RunStore<K>,
    {
        let mut inc = IncrementalOpaq::new(self.config)?;
        inc.add_store(store)?;
        Ok(inc
            .into_sketch()
            .expect("a non-empty store absorbs at least one run"))
    }

    /// One-shot convenience: build the sketch and estimate the `q`-quantiles.
    pub fn estimate_q_quantiles<K, S>(
        &self,
        store: &S,
        q: u64,
    ) -> OpaqResult<Vec<QuantileEstimate<K>>>
    where
        K: Key,
        S: RunStore<K>,
    {
        self.build_sketch(store)?.estimate_q_quantiles(q)
    }

    /// One-shot convenience: build the sketch and estimate a single quantile.
    pub fn estimate<K, S>(&self, store: &S, phi: f64) -> OpaqResult<QuantileEstimate<K>>
    where
        K: Key,
        S: RunStore<K>,
    {
        self.build_sketch(store)?.estimate(phi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::OpaqError;
    use opaq_storage::{DiskModel, MemRunStore};

    fn config(m: u64, s: u64) -> OpaqConfig {
        OpaqConfig::builder()
            .run_length(m)
            .sample_size(s)
            .build()
            .unwrap()
    }

    #[test]
    fn build_sketch_from_mem_store() {
        let data: Vec<u64> = (0..10_000).rev().collect();
        let store = MemRunStore::new(data, 1000);
        let est = OpaqEstimator::new(config(1000, 100));
        let sketch = est.build_sketch(&store).unwrap();
        assert_eq!(sketch.total_elements(), 10_000);
        assert_eq!(sketch.runs(), 10);
        assert_eq!(sketch.len(), 1000);
        let q = sketch.estimate(0.5).unwrap();
        assert!(q.lower <= 4_999 && 4_999 <= q.upper);
    }

    #[test]
    fn estimate_q_quantiles_encloses_truth() {
        let data: Vec<u64> = (0..20_000).map(|i| (i * 2654435761u64) % 100_003).collect();
        let mut sorted = data.clone();
        sorted.sort_unstable();
        let store = MemRunStore::new(data, 2000);
        let est = OpaqEstimator::new(config(2000, 200));
        let quantiles = est.estimate_q_quantiles(&store, 10).unwrap();
        assert_eq!(quantiles.len(), 9);
        for q in quantiles {
            let truth = sorted[(q.target_rank - 1) as usize];
            assert!(q.lower <= truth && truth <= q.upper);
        }
    }

    #[test]
    fn store_io_stats_account_the_read_pass() {
        let data: Vec<u64> = (0..50_000).collect();
        let store = MemRunStore::new(data, 5000).with_disk_model(DiskModel::sp2_node_disk());
        let est = OpaqEstimator::new(config(5000, 500));
        est.build_sketch(&store).unwrap();
        let io = store.io_stats().snapshot();
        assert_eq!((io.read_calls, io.bytes_read), (10, 50_000 * 8));
        assert!(
            io.modelled >= std::time::Duration::from_millis(100),
            "modelled I/O for 10 runs: {:?}",
            io.modelled
        );
        // One run buffer recycled across the pass.
        assert_eq!((io.buffer_allocs, io.buffer_reuses), (1, 9));
    }

    #[test]
    fn empty_store_errors() {
        let store = MemRunStore::<u64>::new(vec![], 10);
        let est = OpaqEstimator::new(config(10, 2));
        assert!(matches!(
            est.build_sketch(&store),
            Err(OpaqError::EmptyDataset)
        ));
    }

    #[test]
    fn invalid_config_rejected_at_build_time() {
        let store = MemRunStore::new((0u64..10).collect(), 5);
        let bad = OpaqConfig {
            run_length: 5,
            sample_size: 10,
            strategy: Default::default(),
        };
        let est = OpaqEstimator::new(bad);
        assert!(matches!(
            est.build_sketch(&store),
            Err(OpaqError::InvalidConfig(_))
        ));
    }

    #[test]
    fn one_shot_single_quantile() {
        let store = MemRunStore::new((0u64..1000).collect(), 100);
        let est = OpaqEstimator::new(config(100, 50));
        let q = est.estimate(&store, 0.9).unwrap();
        assert!(q.lower <= 899 && 899 <= q.upper);
    }
}
