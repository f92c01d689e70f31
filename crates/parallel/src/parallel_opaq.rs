//! The parallel OPAQ driver (§3).
//!
//! Every processor holds `n/p` elements (one [`RunStore`] per processor),
//! runs the sequential sample phase locally, and the `p` local sorted sample
//! lists are merged globally with either the bitonic merge or the sample
//! merge.  The quantile phase then runs on the merged sketch, whose run count
//! is `r·p` — which is exactly what makes Lemmas 1–3 carry over unchanged.
//!
//! Besides the merged [`QuantileSketch`], a run produces a
//! [`ParallelRunReport`] with *measured* wall-clock phase times and
//! *modelled* phase times under the SP-2-like cost models, which the
//! Table 11/12 and Figure 4–6 experiments consume.

use crate::bitonic::bitonic_merge;
use crate::cost_model::CostModel;
use crate::machine::Machine;
use crate::sample_merge::sample_merge;
use opaq_core::{
    Key, OpaqConfig, OpaqError, OpaqResult, QuantileSketch, RunSample, RunSampler, SamplePoint,
};
use opaq_storage::{DiskModel, FixedWidthCodec, MemRunStore, RunStore};
use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};

/// Which global merge algorithm to use (paper §3, Figure 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum MergeAlgorithm {
    /// Block-bitonic merge: better for small lists / few processors.
    Bitonic,
    /// PSRS-style sample merge: better for large lists / many processors.
    #[default]
    Sample,
}

/// Durations of the four phases the paper reports (Table 12).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseTimes {
    /// Reading runs from disk.
    pub io: Duration,
    /// Extracting the regular samples from every run.
    pub sampling: Duration,
    /// Merging the per-run sample lists into the local sorted sample list.
    pub local_merge: Duration,
    /// The global merge of the `p` local sample lists.
    pub global_merge: Duration,
}

impl PhaseTimes {
    /// Total across the four phases.
    pub fn total(&self) -> Duration {
        self.io + self.sampling + self.local_merge + self.global_merge
    }

    /// Fraction of the total spent in I/O (Table 11's metric).
    pub fn io_fraction(&self) -> f64 {
        let total = self.total().as_secs_f64();
        if total == 0.0 {
            0.0
        } else {
            self.io.as_secs_f64() / total
        }
    }

    /// `(io, sampling, local merge, global merge)` as fractions of the total.
    pub fn fractions(&self) -> (f64, f64, f64, f64) {
        let total = self.total().as_secs_f64();
        if total == 0.0 {
            return (0.0, 0.0, 0.0, 0.0);
        }
        (
            self.io.as_secs_f64() / total,
            self.sampling.as_secs_f64() / total,
            self.local_merge.as_secs_f64() / total,
            self.global_merge.as_secs_f64() / total,
        )
    }

    fn max_elementwise(a: PhaseTimes, b: PhaseTimes) -> PhaseTimes {
        PhaseTimes {
            io: a.io.max(b.io),
            sampling: a.sampling.max(b.sampling),
            local_merge: a.local_merge.max(b.local_merge),
            global_merge: a.global_merge.max(b.global_merge),
        }
    }
}

/// Everything a parallel OPAQ run produces.
#[derive(Debug, Clone)]
pub struct ParallelRunReport<K> {
    /// The globally merged sketch (quantile phase runs on this).
    pub sketch: QuantileSketch<K>,
    /// Measured wall-clock phase times (max over processors per phase).
    pub measured: PhaseTimes,
    /// Modelled phase times under the SP-2-like disk and communication
    /// models (max over processors per phase) — what Tables 11/12 and the
    /// scalability figures report.
    pub modelled: PhaseTimes,
    /// Modelled communication time charged by the global merge.
    pub modelled_comm: Duration,
    /// Number of processors used.
    pub processors: usize,
}

/// The parallel OPAQ estimator.
#[derive(Debug, Clone, Copy)]
pub struct ParallelOpaq {
    config: OpaqConfig,
    processors: usize,
    merge: MergeAlgorithm,
    cost: CostModel,
    disk: DiskModel,
}

impl ParallelOpaq {
    /// Create a parallel estimator over `processors` simulated processors.
    ///
    /// # Panics
    /// Panics if `processors == 0`.
    pub fn new(config: OpaqConfig, processors: usize) -> Self {
        assert!(processors > 0, "at least one processor is required");
        Self {
            config,
            processors,
            merge: MergeAlgorithm::default(),
            cost: CostModel::sp2(),
            disk: DiskModel::sp2_node_disk(),
        }
    }

    /// Select the global merge algorithm.
    pub fn with_merge(mut self, merge: MergeAlgorithm) -> Self {
        self.merge = merge;
        self
    }

    /// Override the disk model used for modelled I/O time.
    pub fn with_disk_model(mut self, disk: DiskModel) -> Self {
        self.disk = disk;
        self
    }

    /// The number of processors.
    pub fn processors(&self) -> usize {
        self.processors
    }

    /// The configuration in use.
    pub fn config(&self) -> &OpaqConfig {
        &self.config
    }

    /// Run parallel OPAQ, processor `i` reading its data from `stores[i]`.
    ///
    /// # Errors
    /// Fails if the number of stores does not match the processor count, if
    /// any store is empty, or if the configuration is invalid.
    pub fn run_on_stores<K, S>(&self, stores: &[S]) -> OpaqResult<ParallelRunReport<K>>
    where
        K: Key,
        S: RunStore<K>,
    {
        self.config.validate()?;
        if stores.len() != self.processors {
            return Err(OpaqError::InvalidConfig(format!(
                "{} stores supplied for {} processors",
                stores.len(),
                self.processors
            )));
        }
        if stores.iter().any(|s| s.is_empty()) {
            return Err(OpaqError::EmptyDataset);
        }
        if self.merge == MergeAlgorithm::Bitonic && !self.processors.is_power_of_two() {
            return Err(OpaqError::InvalidConfig(
                "the bitonic merge requires a power-of-two processor count".into(),
            ));
        }

        // ---- local phases: one thread per processor -------------------------
        type LocalOutcome<K> = OpaqResult<(LocalResult<K>, PhaseTimes, PhaseTimes)>;
        let locals: Vec<LocalOutcome<K>> = std::thread::scope(|scope| {
            let handles: Vec<_> = stores
                .iter()
                .map(|store| scope.spawn(move || self.local_phases(store)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("local phase thread panicked"))
                .collect()
        });
        let mut local_results = Vec::with_capacity(self.processors);
        let mut measured = PhaseTimes::default();
        let mut modelled = PhaseTimes::default();
        for outcome in locals {
            let (local, meas, model) = outcome?;
            measured = PhaseTimes::max_elementwise(measured, meas);
            modelled = PhaseTimes::max_elementwise(modelled, model);
            local_results.push(local);
        }

        // ---- global merge of the p local sample lists -----------------------
        let machine = Machine::new(self.processors, self.cost);
        let lists: Vec<Vec<SamplePoint<K>>> =
            local_results.iter().map(|l| l.samples.clone()).collect();
        let per_proc_list: u64 = lists.iter().map(|l| l.len() as u64).max().unwrap_or(0);
        let keyed: Vec<Vec<KeyedPoint<K>>> = lists
            .into_iter()
            .map(|l| l.into_iter().map(KeyedPoint).collect())
            .collect();

        let global_start = Instant::now();
        let (merged_blocks, modelled_comm) = match self.merge {
            MergeAlgorithm::Bitonic => {
                let out = bitonic_merge(&machine, keyed);
                (
                    out,
                    self.cost
                        .bitonic_merge_cost(self.processors as u64, per_proc_list),
                )
            }
            MergeAlgorithm::Sample => {
                let out = sample_merge(&machine, keyed);
                (
                    out,
                    self.cost.sample_merge_cost(
                        self.processors as u64,
                        per_proc_list,
                        (self.processors * self.processors) as u64,
                    ),
                )
            }
        };
        measured.global_merge = global_start.elapsed();
        modelled.global_merge = modelled_comm;

        // ---- assemble the global sketch --------------------------------------
        let samples: Vec<SamplePoint<K>> = merged_blocks
            .into_iter()
            .flatten()
            .map(|KeyedPoint(sp)| sp)
            .collect();
        let total_elements: u64 = local_results.iter().map(|l| l.total_elements).sum();
        let runs: u64 = local_results.iter().map(|l| l.runs).sum();
        let max_gap = local_results.iter().map(|l| l.max_gap).max().unwrap_or(1);
        let dataset_min = local_results
            .iter()
            .map(|l| l.min)
            .min()
            .expect("at least one processor");
        let dataset_max = local_results
            .iter()
            .map(|l| l.max)
            .max()
            .expect("at least one processor");
        let sketch = QuantileSketch::assemble(
            samples,
            total_elements,
            runs,
            max_gap,
            dataset_min,
            dataset_max,
        )?;

        Ok(ParallelRunReport {
            sketch,
            measured,
            modelled,
            modelled_comm,
            processors: self.processors,
        })
    }

    /// Convenience wrapper: partition in-memory data across processors (block
    /// partitioning) and run on memory-backed stores.
    pub fn run_on_partitions<K>(&self, partitions: Vec<Vec<K>>) -> OpaqResult<ParallelRunReport<K>>
    where
        K: Key + FixedWidthCodec,
    {
        let stores: Vec<MemRunStore<K>> = partitions
            .into_iter()
            .map(|part| MemRunStore::new(part, self.config.run_length).with_disk_model(self.disk))
            .collect();
        self.run_on_stores(&stores)
    }

    /// Local phases of one processor: read runs, sample them, merge the
    /// per-run sample lists into the local sorted sample list.
    fn local_phases<K, S>(&self, store: &S) -> OpaqResult<(LocalResult<K>, PhaseTimes, PhaseTimes)>
    where
        K: Key,
        S: RunStore<K>,
    {
        let layout = store.layout();
        let mut run_samples: Vec<RunSample<K>> = Vec::with_capacity(layout.runs() as usize);
        let mut measured = PhaseTimes::default();
        let mut modelled = PhaseTimes::default();
        let s = self.config.sample_size;
        let log_s = (s.max(2) as f64).log2();

        // One recycled run buffer and one sampler, with its selection
        // scratch, per simulated processor (see the sample-phase
        // buffer-reuse contract).
        let mut run_buf: Vec<K> = Vec::new();
        let mut sampler = RunSampler::new(s, self.config.strategy)?;
        for run_idx in 0..layout.runs() {
            let io_start = Instant::now();
            store.read_run_into(run_idx, &mut run_buf)?;
            measured.io += io_start.elapsed();
            modelled.io += self.disk.transfer_time(run_buf.len() as u64 * 8);

            let sample_start = Instant::now();
            let rs = sampler.sample(&mut run_buf)?;
            measured.sampling += sample_start.elapsed();
            modelled.sampling += self.cost.compute((run_buf.len() as f64 * log_s) as u64);
            run_samples.push(rs);
        }

        let r = run_samples.len() as u64;
        let merge_start = Instant::now();
        let local_sketch = QuantileSketch::from_run_samples(run_samples)?;
        measured.local_merge = merge_start.elapsed();
        modelled.local_merge = self
            .cost
            .compute((r as f64 * s as f64 * (r.max(2) as f64).log2()) as u64);

        Ok((
            LocalResult {
                samples: local_sketch.samples().to_vec(),
                total_elements: local_sketch.total_elements(),
                runs: local_sketch.runs(),
                max_gap: local_sketch.max_gap(),
                min: local_sketch.dataset_min(),
                max: local_sketch.dataset_max(),
            },
            measured,
            modelled,
        ))
    }
}

/// The outcome of one processor's local phases.
struct LocalResult<K> {
    samples: Vec<SamplePoint<K>>,
    total_elements: u64,
    runs: u64,
    max_gap: u64,
    min: K,
    max: K,
}

/// Wrapper giving [`SamplePoint`] a total order on its value so the generic
/// merge algorithms can move whole sample points around.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct KeyedPoint<K>(SamplePoint<K>);

impl<K: Ord> PartialOrd for KeyedPoint<K> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<K: Ord> Ord for KeyedPoint<K> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0
            .value
            .cmp(&other.0.value)
            .then(self.0.gap.cmp(&other.0.gap))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opaq_core::OpaqConfig;

    fn config(m: u64, s: u64) -> OpaqConfig {
        OpaqConfig::builder()
            .run_length(m)
            .sample_size(s)
            .build()
            .unwrap()
    }

    fn partitioned_data(n: u64, p: usize) -> (Vec<u64>, Vec<Vec<u64>>) {
        let data: Vec<u64> = (0..n)
            .map(|i| i.wrapping_mul(2654435761) % 1_000_003)
            .collect();
        let per = n as usize / p;
        let parts = data.chunks(per).take(p).map(|c| c.to_vec()).collect();
        (data, parts)
    }

    fn check_dectiles(data: &[u64], report: &ParallelRunReport<u64>) {
        let mut sorted = data.to_vec();
        sorted.sort_unstable();
        for i in 1..10 {
            let phi = i as f64 / 10.0;
            let est = report.sketch.estimate(phi).unwrap();
            let truth = sorted[(est.target_rank - 1) as usize];
            assert!(est.lower <= truth && truth <= est.upper, "phi {phi}");
        }
    }

    #[test]
    fn parallel_bounds_enclose_truth_with_sample_merge() {
        let (data, parts) = partitioned_data(40_000, 4);
        let popaq = ParallelOpaq::new(config(1000, 100), 4).with_merge(MergeAlgorithm::Sample);
        let report = popaq.run_on_partitions(parts).unwrap();
        assert_eq!(report.sketch.total_elements(), 40_000);
        assert_eq!(report.sketch.runs(), 40);
        assert_eq!(report.processors, 4);
        check_dectiles(&data, &report);
    }

    #[test]
    fn parallel_bounds_enclose_truth_with_bitonic_merge() {
        let (data, parts) = partitioned_data(32_000, 8);
        let popaq = ParallelOpaq::new(config(1000, 100), 8).with_merge(MergeAlgorithm::Bitonic);
        let report = popaq.run_on_partitions(parts).unwrap();
        check_dectiles(&data, &report);
    }

    #[test]
    fn parallel_matches_sequential_sketch_counts() {
        let (data, parts) = partitioned_data(20_000, 4);
        let cfg = config(500, 50);
        let popaq = ParallelOpaq::new(cfg, 4);
        let report = popaq.run_on_partitions(parts).unwrap();

        let store = MemRunStore::new(data, 500);
        let sequential = opaq_core::OpaqEstimator::new(cfg)
            .build_sketch(&store)
            .unwrap();
        assert_eq!(report.sketch.total_elements(), sequential.total_elements());
        assert_eq!(report.sketch.runs(), sequential.runs());
        assert_eq!(report.sketch.len(), sequential.len());
        // Identical data split identically -> identical sample values.
        let a: Vec<u64> = report.sketch.samples().iter().map(|s| s.value).collect();
        let b: Vec<u64> = sequential.samples().iter().map(|s| s.value).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn phase_times_are_populated() {
        let (_, parts) = partitioned_data(16_000, 2);
        let popaq = ParallelOpaq::new(config(1000, 100), 2);
        let report = popaq.run_on_partitions(parts).unwrap();
        assert!(report.modelled.io > Duration::ZERO);
        assert!(report.modelled.sampling > Duration::ZERO);
        assert!(report.modelled.total() > report.modelled.io);
        assert!(report.measured.total() > Duration::ZERO);
        let (io_f, samp_f, lm_f, gm_f) = report.modelled.fractions();
        assert!((io_f + samp_f + lm_f + gm_f - 1.0).abs() < 1e-9);
        assert!(report.modelled.io_fraction() > 0.0);
    }

    #[test]
    fn single_processor_degenerates_to_sequential() {
        let (data, _) = partitioned_data(5_000, 1);
        let popaq = ParallelOpaq::new(config(500, 50), 1);
        let report = popaq.run_on_partitions(vec![data.clone()]).unwrap();
        check_dectiles(&data, &report);
    }

    #[test]
    fn bitonic_with_non_power_of_two_rejected() {
        let (_, parts) = partitioned_data(3_000, 3);
        let popaq = ParallelOpaq::new(config(100, 10), 3).with_merge(MergeAlgorithm::Bitonic);
        assert!(matches!(
            popaq.run_on_partitions(parts),
            Err(OpaqError::InvalidConfig(_))
        ));
    }

    #[test]
    fn sample_merge_with_non_power_of_two_works() {
        let (data, parts) = partitioned_data(9_000, 3);
        let popaq = ParallelOpaq::new(config(300, 30), 3).with_merge(MergeAlgorithm::Sample);
        let report = popaq.run_on_partitions(parts).unwrap();
        check_dectiles(&data, &report);
    }

    #[test]
    fn mismatched_store_count_rejected() {
        let popaq = ParallelOpaq::new(config(100, 10), 4);
        let stores: Vec<MemRunStore<u64>> = vec![MemRunStore::new((0..100).collect(), 100)];
        assert!(matches!(
            popaq.run_on_stores(&stores),
            Err(OpaqError::InvalidConfig(_))
        ));
    }

    #[test]
    fn empty_partition_rejected() {
        let popaq = ParallelOpaq::new(config(100, 10), 2);
        assert!(matches!(
            popaq.run_on_partitions(vec![(0..100u64).collect(), vec![]]),
            Err(OpaqError::EmptyDataset)
        ));
    }

    #[test]
    #[should_panic(expected = "at least one processor")]
    fn zero_processors_panics() {
        ParallelOpaq::new(config(10, 2), 0);
    }
}
