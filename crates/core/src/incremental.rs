//! Incremental maintenance (§4).
//!
//! "It is easy to use the OPAQ algorithm to deal with new data incrementally.
//! If the sorted samples are kept from the runs of the old data, one need
//! only compute the sorted samples from the new runs and merge with the old
//! sorted samples."  [`IncrementalOpaq`] is that loop: it holds the current
//! sketch and folds in new runs (or whole new stores) as they arrive, without
//! ever revisiting old data.

use crate::sample_phase::{RunSample, RunSampler};
use crate::sketch::QuantileSketch;
use crate::{Key, OpaqConfig, OpaqError, OpaqResult, QuantileEstimate};
use opaq_storage::RunStore;
use std::ops::Range;

/// An OPAQ estimator that absorbs data incrementally, one run at a time.
#[derive(Debug, Clone)]
pub struct IncrementalOpaq<K> {
    config: OpaqConfig,
    sketch: Option<QuantileSketch<K>>,
    sampler: RunSampler,
    runs_absorbed: u64,
}

impl<K: Key> IncrementalOpaq<K> {
    /// Create an empty incremental estimator.
    ///
    /// # Errors
    /// Returns [`OpaqError::InvalidConfig`] if the configuration is invalid.
    pub fn new(config: OpaqConfig) -> OpaqResult<Self> {
        config.validate()?;
        Ok(Self {
            config,
            sketch: None,
            sampler: RunSampler::new(config.sample_size, config.strategy)?,
            runs_absorbed: 0,
        })
    }

    /// The configuration in use.
    pub fn config(&self) -> &OpaqConfig {
        &self.config
    }

    /// Number of runs absorbed so far.
    pub fn runs_absorbed(&self) -> u64 {
        self.runs_absorbed
    }

    /// Total number of elements summarised so far.
    pub fn total_elements(&self) -> u64 {
        self.sketch
            .as_ref()
            .map(|s| s.total_elements())
            .unwrap_or(0)
    }

    /// Absorb one new run of raw data (consumed; the run is sampled in place).
    ///
    /// Runs larger than the configured run length are split so that the
    /// per-run error guarantees keep holding.
    pub fn add_run(&mut self, mut run: Vec<K>) -> OpaqResult<()> {
        let mut batch = Vec::new();
        self.sample_into(&mut run, &mut batch)?;
        self.absorb(batch)
    }

    /// Sample one run **in place** into `batch`, to be merged by a later
    /// [`Self::absorb`]: `run` is partially reordered by the selection (the
    /// buffer-reuse contract of [`crate::sample_phase`]), so the caller can
    /// refill it with the next run.  Runs larger than the configured run
    /// length are split.
    fn sample_into(&mut self, run: &mut [K], batch: &mut Vec<RunSample<K>>) -> OpaqResult<()> {
        if run.is_empty() {
            return Err(OpaqError::EmptyDataset);
        }
        for piece in run.chunks_mut(self.config.run_length as usize) {
            batch.push(self.sampler.sample(piece)?);
        }
        Ok(())
    }

    /// Fold a batch of sampled runs into the sketch with one k-way merge of
    /// the batch and one merge with the sketch so far — `O(r·s)` copying
    /// for `r` runs, where merging run by run copies `O(r²·s)`.  Both break
    /// ties between equal samples by run order, so the sketch is
    /// bit-identical.  An empty batch changes nothing.
    fn absorb(&mut self, batch: Vec<RunSample<K>>) -> OpaqResult<()> {
        if batch.is_empty() {
            return Ok(());
        }
        let new_sketch = QuantileSketch::from_run_samples(batch)?;
        self.runs_absorbed += new_sketch.runs();
        self.sketch = Some(match self.sketch.take() {
            Some(old) => old.merge(&new_sketch)?,
            None => new_sketch,
        });
        Ok(())
    }

    /// Absorb runs `runs` of `store`: the one read→sample→merge loop every
    /// sketch build runs.  Each run is read into one recycled buffer, sampled
    /// in place (runs longer than the configured run length are split) and
    /// dropped; the batch is merged into the sketch once at the end.  The
    /// sharded ingester gives each shard its own contiguous range.
    ///
    /// # Errors
    /// Storage errors, including [`opaq_storage::StorageError::RunOutOfRange`]
    /// for a range past the store's last run.
    pub fn add_runs<S: RunStore<K>>(&mut self, store: &S, runs: Range<u64>) -> OpaqResult<()> {
        let mut buf: Vec<K> = Vec::new();
        let mut batch = Vec::with_capacity(runs.end.saturating_sub(runs.start) as usize);
        for run in runs {
            store.read_run_into(run, &mut buf)?;
            self.sample_into(&mut buf, &mut batch)?;
        }
        self.absorb(batch)
    }

    /// Absorb every run of a store (e.g. a newly arrived data file):
    /// [`Self::add_runs`] over `0..runs`.
    ///
    /// # Errors
    /// [`OpaqError::EmptyDataset`] for an empty store; storage errors.
    pub fn add_store<S: RunStore<K>>(&mut self, store: &S) -> OpaqResult<()> {
        if store.is_empty() {
            return Err(OpaqError::EmptyDataset);
        }
        self.add_runs(store, 0..store.layout().runs())
    }

    /// The current sketch, if any data has been absorbed.
    pub fn sketch(&self) -> Option<&QuantileSketch<K>> {
        self.sketch.as_ref()
    }

    /// Consume the estimator and return the accumulated sketch, if any data
    /// has been absorbed (the sharded ingestion workers hand their per-shard
    /// sketch to the merge tree without cloning it).
    pub fn into_sketch(self) -> Option<QuantileSketch<K>> {
        self.sketch
    }

    /// Estimate the φ-quantile of everything absorbed so far.
    ///
    /// # Errors
    /// [`OpaqError::EmptyDataset`] if no data has been absorbed yet.
    pub fn estimate(&self, phi: f64) -> OpaqResult<QuantileEstimate<K>> {
        self.sketch
            .as_ref()
            .ok_or(OpaqError::EmptyDataset)?
            .estimate(phi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opaq_storage::MemRunStore;

    fn config(m: u64, s: u64) -> OpaqConfig {
        OpaqConfig::builder()
            .run_length(m)
            .sample_size(s)
            .build()
            .unwrap()
    }

    #[test]
    fn incremental_matches_batch_estimate_quality() {
        let data: Vec<u64> = (0..20_000).map(|i| (i * 2654435761u64) % 65_537).collect();
        let mut sorted = data.clone();
        sorted.sort_unstable();

        let mut inc = IncrementalOpaq::new(config(1000, 100)).unwrap();
        for chunk in data.chunks(1000) {
            inc.add_run(chunk.to_vec()).unwrap();
        }
        assert_eq!(inc.total_elements(), 20_000);
        assert_eq!(inc.runs_absorbed(), 20);

        for i in 1..10 {
            let phi = i as f64 / 10.0;
            let est = inc.estimate(phi).unwrap();
            let truth = sorted[(est.target_rank - 1) as usize];
            assert!(est.lower <= truth && truth <= est.upper, "phi {phi}");
        }
    }

    #[test]
    fn oversized_run_is_split() {
        let mut inc = IncrementalOpaq::new(config(100, 10)).unwrap();
        inc.add_run((0..1000).collect()).unwrap();
        assert_eq!(inc.runs_absorbed(), 10);
        assert_eq!(inc.total_elements(), 1000);
        // Per-bound slack must reflect run length 100, not 1000.
        assert!(inc.sketch().unwrap().max_gap() <= 10);
    }

    #[test]
    fn add_store_absorbs_every_run() {
        let store = MemRunStore::new((0u64..5000).collect(), 500);
        let mut inc = IncrementalOpaq::new(config(500, 50)).unwrap();
        inc.add_store(&store).unwrap();
        assert_eq!(inc.total_elements(), 5000);
        let est = inc.estimate(0.5).unwrap();
        assert!(est.lower <= 2499 && 2499 <= est.upper);
    }

    #[test]
    fn add_runs_over_split_ranges_equals_add_store() {
        let data: Vec<u64> = (0..10_300).map(|i| (i * 48271) % 4093).collect();
        let store = MemRunStore::new(data, 1000);
        let mut whole = IncrementalOpaq::new(config(1000, 100)).unwrap();
        whole.add_store(&store).unwrap();
        let mut split = IncrementalOpaq::new(config(1000, 100)).unwrap();
        split.add_runs(&store, 0..4).unwrap();
        split.add_runs(&store, 4..11).unwrap();
        assert_eq!(split.sketch(), whole.sketch());
        assert_eq!(split.runs_absorbed(), 11);
        // An empty range changes nothing; a range past the last run errors.
        split.add_runs(&store, 11..11).unwrap();
        assert_eq!(split.sketch(), whole.sketch());
        assert!(matches!(
            split.add_runs(&store, 10..12),
            Err(OpaqError::Storage(_))
        ));
    }

    #[test]
    fn estimates_stay_valid_as_data_arrives() {
        // Old data: values 0..10k; new data: values 100k..110k — the median
        // shifts dramatically and the sketch must track it.
        let mut inc = IncrementalOpaq::new(config(1000, 100)).unwrap();
        inc.add_run((0..10_000).collect()).unwrap();
        let before = inc.estimate(0.5).unwrap();
        assert!(before.lower <= 4_999 && 4_999 <= before.upper);

        inc.add_run((100_000..110_000).collect()).unwrap();
        let after = inc.estimate(0.5).unwrap();
        // True median of the combined 20k elements (rank 10_000) is 9_999.
        assert!(after.lower <= 9_999 && 9_999 <= after.upper);
        assert_eq!(inc.total_elements(), 20_000);
    }

    #[test]
    fn empty_cases_error() {
        let mut inc = IncrementalOpaq::<u64>::new(config(10, 2)).unwrap();
        assert!(matches!(inc.estimate(0.5), Err(OpaqError::EmptyDataset)));
        assert!(matches!(inc.add_run(vec![]), Err(OpaqError::EmptyDataset)));
        let empty_store = MemRunStore::<u64>::new(vec![], 10);
        assert!(matches!(
            inc.add_store(&empty_store),
            Err(OpaqError::EmptyDataset)
        ));
    }

    #[test]
    fn invalid_config_rejected() {
        assert!(IncrementalOpaq::<u64>::new(OpaqConfig {
            run_length: 5,
            sample_size: 10,
            strategy: Default::default()
        })
        .is_err());
    }
}
