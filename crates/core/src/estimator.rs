//! The high-level driver: one pass over a [`RunStore`], producing a
//! [`QuantileSketch`].
//!
//! This is the "reading from the disk + finding the r·s sample points +
//! merging the r sample lists" pipeline of Table 2, with per-phase timing so
//! the experiment harness can reproduce the paper's I/O-fraction tables.

use crate::sample_phase::{RunSample, RunSampler};
use crate::sketch::QuantileSketch;
use crate::{Key, OpaqConfig, OpaqResult, QuantileEstimate};
use opaq_storage::RunStore;
use std::time::{Duration, Instant};

/// Wall-clock (or modelled, for I/O) durations of the sequential phases.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SamplePhaseStats {
    /// Time spent reading runs from the store (modelled disk time when the
    /// store has a disk model attached, measured time otherwise).
    pub io: Duration,
    /// Time spent extracting the regular samples from each run.
    pub sampling: Duration,
    /// Time spent merging the per-run sample lists.
    pub merge: Duration,
}

impl SamplePhaseStats {
    /// Total time across the three phases.
    pub fn total(&self) -> Duration {
        self.io + self.sampling + self.merge
    }
}

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
    /// contributes the per-run sample size `s`.
    pub fn build_sketch<K, S>(&self, store: &S) -> OpaqResult<QuantileSketch<K>>
    where
        K: Key,
        S: RunStore<K>,
    {
        self.build_sketch_with_stats(store)
            .map(|(sketch, _)| sketch)
    }

    /// Like [`Self::build_sketch`], also returning per-phase timings.
    pub fn build_sketch_with_stats<K, S>(
        &self,
        store: &S,
    ) -> OpaqResult<(QuantileSketch<K>, SamplePhaseStats)>
    where
        K: Key,
        S: RunStore<K>,
    {
        self.config.validate()?;
        if store.is_empty() {
            return Err(crate::OpaqError::EmptyDataset);
        }
        let mut stats = SamplePhaseStats::default();
        let layout = store.layout();
        let mut run_samples: Vec<RunSample<K>> = Vec::with_capacity(layout.runs() as usize);
        let io_before = store.io_stats().snapshot();

        // One run buffer recycled across the whole pass (the store decodes
        // into it in place) and one sampler reusing its rank table: the
        // steady-state loop allocates nothing proportional to `m`.
        let mut sampler = RunSampler::new(self.config.sample_size, self.config.strategy)?;
        let mut run_buf: Vec<K> = Vec::new();
        let mut measured_io = Duration::ZERO;
        for run_idx in 0..layout.runs() {
            let io_start = Instant::now();
            store.read_run_into(run_idx, &mut run_buf)?;
            measured_io += io_start.elapsed();

            let sample_start = Instant::now();
            let rs = sampler.sample(&mut run_buf)?;
            stats.sampling += sample_start.elapsed();
            run_samples.push(rs);
        }

        // Prefer the store's modelled disk time when a disk model is attached;
        // otherwise use the measured wall time of the read calls.
        let io_after = store.io_stats().snapshot();
        let modelled_delta = io_after.modelled.saturating_sub(io_before.modelled);
        stats.io = if modelled_delta > Duration::ZERO {
            modelled_delta
        } else {
            measured_io
        };

        let merge_start = Instant::now();
        let sketch = QuantileSketch::from_run_samples(run_samples)?;
        stats.merge = merge_start.elapsed();
        Ok((sketch, stats))
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
    fn stats_account_all_phases() {
        let data: Vec<u64> = (0..50_000).collect();
        let store = MemRunStore::new(data, 5000).with_disk_model(DiskModel::sp2_node_disk());
        let est = OpaqEstimator::new(config(5000, 500));
        let (_, stats) = est.build_sketch_with_stats(&store).unwrap();
        assert!(
            stats.io >= Duration::from_millis(100),
            "modelled I/O for 10 runs: {:?}",
            stats.io
        );
        assert!(stats.total() >= stats.io);
        assert!(stats.sampling > Duration::ZERO);
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
