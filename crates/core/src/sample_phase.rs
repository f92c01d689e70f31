//! The sample phase (§2.1): regular samples from every run.
//!
//! From a run of `m` in-memory elements the phase extracts the `s` elements
//! of rank `⌈m/s⌉, ⌈2m/s⌉, …, m` by multi-selection (`O(m log s)`): the
//! paper's recursive median splitting, one exact introselect of the middle
//! rank per piece, after a radix bucketing pass on long runs.  Each
//! sample comes with its *gap* — the number of new elements of the run it
//! stands for.  Gaps are what make the error bounds work for runs whose
//! length is not an exact multiple of `s` (the paper assumes divisibility
//! "without loss of generality"; we do not have to).
//!
//! ## The buffer-reuse contract
//!
//! `sample_run` (and [`RunSampler::sample`]) borrows the run as `&mut [K]`
//! and the selection happens **in place**: on return the slice is *partially
//! reordered* (each sample value sits at its exact rank, with `<=` on the
//! left and `>=` on the right).  The sampler relies on that layout itself:
//! the run minimum is read from the keys before the first sample, about
//! `m/s` of them, instead of from a second pass over all `m`.  Nothing in
//! the slice is consumed, which is what makes the ingest loop legal: callers
//! read the next run **into the same buffer** (`RunStore::read_run_into`)
//! and sample it again, recycling one `m`-element allocation across the
//! whole pass.  A caller that needs the run's original order must copy it
//! first — every OPAQ phase only ever needs each run once, so none do.
//! [`RunSampler`] additionally caches the regular-rank table between runs of
//! equal length, so steady-state per-run work allocates only the `s`-sized
//! `values`/`gaps` vectors that outlive the call inside the returned
//! [`RunSample`], plus the selection's own scratch: on runs of at least
//! `opaq_select::DISTRIBUTION_MIN_LEN` keys with `s >= 32`, the `u64`
//! images of a 4096-key oversample and 1024 bucket buffers of 64 keys,
//! freed before the call returns.  That scratch has the same size whatever `m` is, so one run in
//! memory is the only `m`-sized buffer of the phase.

use crate::{Key, OpaqError, OpaqResult};
use opaq_select::{multiselect_into, regular_sample_ranks, SelectionStrategy};

/// The regular samples of one run, in ascending order, with their gaps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunSample<K> {
    /// Sample values in ascending order (the last one is the run maximum).
    pub values: Vec<K>,
    /// `gaps[i]` = within-run rank of `values[i]` minus the rank of
    /// `values[i-1]` (with rank 0 before the first sample); the gaps sum to
    /// the run length.
    pub gaps: Vec<u64>,
    /// The smallest element of the run (needed because the first sample has
    /// rank `⌈m/s⌉ ≥ 1` and therefore is generally *not* the minimum).
    pub run_min: K,
    /// The run length `m` this sample was derived from.
    pub run_len: u64,
}

impl<K: Key> RunSample<K> {
    /// The largest sample, which by construction is the run maximum.
    pub fn run_max(&self) -> K {
        *self
            .values
            .last()
            .expect("a run sample always has at least one sample")
    }

    /// Largest gap in this run (`⌈m/s⌉` for full regular sampling).
    pub fn max_gap(&self) -> u64 {
        self.gaps.iter().copied().max().unwrap_or(0)
    }
}

/// Extract the `s` regular samples of `run` (which is partially reordered in
/// the process, as selection is in-place — see the module docs for the
/// buffer-reuse contract).
///
/// If the run is shorter than `s`, every element becomes a sample with gap 1
/// — the bounds only get tighter.
///
/// One-shot convenience over [`RunSampler`]; loops over many runs should
/// hold a `RunSampler` to reuse its rank table.
///
/// # Errors
/// Returns [`OpaqError::EmptyDataset`] if the run is empty or
/// [`OpaqError::InvalidConfig`] if `s == 0`.
pub fn sample_run<K: Key>(run: &mut [K], s: u64) -> OpaqResult<RunSample<K>> {
    RunSampler::new(s, SelectionStrategy::default())?.sample(run)
}

/// Reusable sample-phase worker: extracts regular samples run after run,
/// caching the rank table between runs of the same length.
///
/// Every full-length run of an ingest shares one `(m, s)` pair, so in steady
/// state [`RunSampler::sample`] recomputes nothing and allocates only the
/// returned [`RunSample`]'s own `values`/`gaps` vectors.
#[derive(Debug, Clone)]
pub struct RunSampler {
    s: u64,
    /// Regular ranks for a run of length `cached_m` (invalid when
    /// `cached_m == 0`, i.e. before the first run).
    ranks: Vec<usize>,
    cached_m: usize,
}

impl RunSampler {
    /// Create a sampler taking `s` regular samples per run.  `_strategy`
    /// has one value and changes nothing.
    ///
    /// # Errors
    /// Returns [`OpaqError::InvalidConfig`] if `s == 0`.
    pub fn new(s: u64, _strategy: SelectionStrategy) -> OpaqResult<Self> {
        if s == 0 {
            return Err(OpaqError::InvalidConfig(
                "sample size s must be positive".into(),
            ));
        }
        Ok(Self {
            s,
            ranks: Vec::new(),
            cached_m: 0,
        })
    }

    /// Extract the regular samples of `run` (partially reordered in place).
    ///
    /// # Errors
    /// Returns [`OpaqError::EmptyDataset`] if the run is empty.
    pub fn sample<K: Key>(&mut self, run: &mut [K]) -> OpaqResult<RunSample<K>> {
        if run.is_empty() {
            return Err(OpaqError::EmptyDataset);
        }
        let m = run.len();
        let s_eff = (self.s as usize).min(m);
        if self.cached_m != m {
            self.ranks = regular_sample_ranks(m, s_eff);
            self.cached_m = m;
        }
        let mut values = Vec::with_capacity(self.ranks.len());
        multiselect_into(run, &self.ranks, SelectionStrategy::default(), &mut values);
        // Selection left nothing but keys `<=` the first sample before it,
        // so the run minimum is among the first `ranks[0] + 1` keys.
        let run_min = *run[..=self.ranks[0]]
            .iter()
            .min()
            .expect("non-empty run has a minimum");
        let mut gaps = Vec::with_capacity(self.ranks.len());
        let mut prev_rank_1based = 0u64;
        for &r in &self.ranks {
            let rank_1based = (r + 1) as u64;
            gaps.push(rank_1based - prev_rank_1based);
            prev_rank_1based = rank_1based;
        }
        debug_assert_eq!(gaps.iter().sum::<u64>(), m as u64);
        Ok(RunSample {
            values,
            gaps,
            run_min,
            run_len: m as u64,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opaq_select::SelectionStrategy;

    #[test]
    fn samples_of_identity_run() {
        // run = 1..=100, s = 10 -> samples 10, 20, ..., 100, gaps all 10.
        let mut run: Vec<u64> = (1..=100).collect();
        let rs = sample_run(&mut run, 10).unwrap();
        assert_eq!(rs.values, vec![10, 20, 30, 40, 50, 60, 70, 80, 90, 100]);
        assert_eq!(rs.gaps, vec![10; 10]);
        assert_eq!(rs.run_min, 1);
        assert_eq!(rs.run_max(), 100);
        assert_eq!(rs.run_len, 100);
        assert_eq!(rs.max_gap(), 10);
    }

    #[test]
    fn samples_of_shuffled_run_match_sorted_ranks() {
        let mut run: Vec<u64> = (0..1000).map(|i| (i * 48271) % 10007).collect();
        let mut sorted = run.clone();
        sorted.sort_unstable();
        let rs = sample_run(&mut run, 16).unwrap();
        assert_eq!(rs.values.len(), 16);
        assert!(rs.values.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(rs.run_max(), *sorted.last().unwrap());
        assert_eq!(rs.run_min, sorted[0]);
        assert_eq!(rs.gaps.iter().sum::<u64>(), 1000);
    }

    #[test]
    fn last_sample_is_always_run_max() {
        for len in [7usize, 64, 129, 1000] {
            let mut run: Vec<u64> = (0..len as u64).rev().collect();
            let rs = sample_run(&mut run, 5).unwrap();
            assert_eq!(rs.run_max(), (len - 1) as u64, "len {len}");
        }
    }

    #[test]
    fn short_run_takes_every_element() {
        let mut run = vec![5u64, 1, 9];
        let rs = sample_run(&mut run, 10).unwrap();
        assert_eq!(rs.values, vec![1, 5, 9]);
        assert_eq!(rs.gaps, vec![1, 1, 1]);
    }

    #[test]
    fn gaps_sum_to_run_length_when_not_divisible() {
        let mut run: Vec<u64> = (0..103).collect();
        let rs = sample_run(&mut run, 10).unwrap();
        assert_eq!(rs.gaps.iter().sum::<u64>(), 103);
        assert_eq!(rs.values.len(), 10);
        assert!(rs.max_gap() <= 11);
    }

    #[test]
    fn duplicate_heavy_run() {
        let mut run = vec![7u64; 64];
        let rs = sample_run(&mut run, 8).unwrap();
        assert!(rs.values.iter().all(|&v| v == 7));
        assert_eq!(rs.gaps, vec![8; 8]);
    }

    #[test]
    fn run_sampler_reuses_rank_table_across_runs() {
        let mut sampler = RunSampler::new(10, SelectionStrategy::default()).unwrap();
        // Two full-length runs, then a short tail run, then full-length again.
        for len in [100usize, 100, 37, 100] {
            let mut run: Vec<u64> = (0..len as u64).rev().collect();
            let one_shot = sample_run(&mut run.clone(), 10).unwrap();
            let rs = sampler.sample(&mut run).unwrap();
            assert_eq!(rs, one_shot, "len {len}");
            assert_eq!(rs.run_len, len as u64);
            assert_eq!(rs.run_max(), (len - 1) as u64);
        }
    }

    #[test]
    fn run_sampler_rejects_zero_s_and_empty_run() {
        assert!(matches!(
            RunSampler::new(0, SelectionStrategy::default()),
            Err(OpaqError::InvalidConfig(_))
        ));
        let mut sampler = RunSampler::new(4, SelectionStrategy::default()).unwrap();
        let mut empty: Vec<u64> = vec![];
        assert!(matches!(
            sampler.sample(&mut empty),
            Err(OpaqError::EmptyDataset)
        ));
    }

    #[test]
    fn empty_run_errors() {
        let mut run: Vec<u64> = vec![];
        assert!(matches!(
            sample_run(&mut run, 4),
            Err(OpaqError::EmptyDataset)
        ));
    }

    #[test]
    fn zero_sample_size_errors() {
        let mut run = vec![1u64, 2];
        assert!(matches!(
            sample_run(&mut run, 0),
            Err(OpaqError::InvalidConfig(_))
        ));
    }
}
