//! Sharded multi-threaded ingestion: OPAQ's sample phase fanned out to OS
//! worker threads, with a deterministic sketch-merge tree.
//!
//! The paper's §3 parallel form gives every processor its own `n/p`
//! elements to sample locally and merges the sample lists once;
//! [`ShardedOpaq`] is the shared-memory version of that:
//!
//! ```text
//!            ┌─▶ shard 0:   add_runs(starts[0]..starts[1]) ──┐
//! RunStore ──┼─▶ shard 1:   add_runs(starts[1]..starts[2]) ──┼─▶ merge tree ─▶ sketch
//!            └─▶ shard S−1: add_runs(starts[S−1]..r)       ──┘
//! ```
//!
//! * **Shards read their own runs.**  Each shard is one scoped OS thread
//!   running the one read→sample→merge loop, [`IncrementalOpaq::add_runs`],
//!   over its own run range: it reads each run into its recycled buffer,
//!   samples it and merges its sample lists once.  No reader thread or
//!   channel sits in between.  The store serialises the reads themselves
//!   ([`opaq_storage::FileRunStore`] holds its file behind one mutex, and
//!   each read is one seek plus one sequential read), so the paper's Table 2
//!   cost model charges a read the same whichever shard issues it, while the
//!   `O(m log s)` multi-selection, the dominant CPU cost, runs on all shards
//!   at once.
//! * **Contiguous shard assignment.**  Shard `k` of `S` owns the contiguous
//!   run range `[k·r/S, (k+1)·r/S)`.  Combined with the tie-breaking rule of
//!   [`QuantileSketch::merge`] (equal values keep left-operand order), this
//!   makes the final sketch **bit-identical to the sequential
//!   [`IncrementalOpaq`] fold over the same store, for any shard count and
//!   any worker completion order**: each worker samples its runs in
//!   ascending run order and merges them once, and the merge tree combines
//!   shard sketches in ascending shard order, so equal sample values are
//!   globally ordered by the run they came from — exactly as in the
//!   sequential left-to-right fold.
//! * **Memory and threads.**  A build starts `S = min(threads, r)` threads,
//!   and each holds one run buffer that it recycles across its runs, so peak
//!   run memory is `S·m` keys on top of the `r·s` sample points.  Each
//!   shard's first read allocates its buffer and every later read reuses
//!   it: the report's [`IoStatsSnapshot`] shows `buffer_allocs == S` and
//!   `buffer_reuses == r − S`.
//! * **Observability.**  Each worker reports an [`opaq_metrics::ShardStats`]
//!   (runs, elements, sample points, and busy time, which is its
//!   [`Stage::Ingest`] span's duration), and the report carries the store's
//!   [`IoStatsSnapshot`] delta with measured and modelled read time — the
//!   multi-threaded analogue of the paper's Table 11/12 I/O-fraction
//!   breakdown.

use opaq_core::{
    merge_tree, IncrementalOpaq, Key, OpaqConfig, OpaqError, OpaqResult, QuantileSketch,
};
use opaq_metrics::trace::{SpanTag, Stage, TraceSink, ROOT_SPAN_ID};
use opaq_metrics::{render_shard_table, ShardStats};
use opaq_storage::{IoStatsSnapshot, RunStore};
use std::sync::Arc;
use std::time::Duration;

/// Multi-threaded OPAQ ingestion over any [`RunStore`].
///
/// Produces a sketch bit-identical to the sequential
/// [`IncrementalOpaq::add_store`] fold over the same store — see the module
/// docs for why — while sampling runs on `threads` OS threads.
#[derive(Debug, Clone, Copy)]
pub struct ShardedOpaq {
    config: OpaqConfig,
    threads: usize,
}

/// What one sharded ingest did: per-shard statistics plus the merge, total
/// and I/O figures of the whole pass.
#[derive(Debug, Clone)]
pub struct ShardedIngestReport {
    /// Per-shard statistics, ordered by shard index.
    pub shards: Vec<ShardStats>,
    /// The store's I/O counter deltas for this ingest.
    pub io: IoStatsSnapshot,
    /// Wall-clock time of the final sketch-merge tree.
    pub merge: Duration,
    /// Wall-clock time of the whole ingest.
    pub total: Duration,
}

impl ShardedIngestReport {
    /// Render the per-shard statistics as a fixed-width text table.
    pub fn render_table(&self) -> String {
        render_shard_table(&self.shards)
    }
}

/// Field-wise difference of two I/O snapshots taken around one ingest.
fn io_delta(before: IoStatsSnapshot, after: IoStatsSnapshot) -> IoStatsSnapshot {
    IoStatsSnapshot {
        bytes_read: after.bytes_read.saturating_sub(before.bytes_read),
        bytes_written: after.bytes_written.saturating_sub(before.bytes_written),
        read_calls: after.read_calls.saturating_sub(before.read_calls),
        write_calls: after.write_calls.saturating_sub(before.write_calls),
        measured: after.measured.saturating_sub(before.measured),
        modelled: after.modelled.saturating_sub(before.modelled),
        buffer_allocs: after.buffer_allocs.saturating_sub(before.buffer_allocs),
        buffer_reuses: after.buffer_reuses.saturating_sub(before.buffer_reuses),
    }
}

impl ShardedOpaq {
    /// Create a sharded ingester with `threads` worker threads.
    ///
    /// # Errors
    /// [`OpaqError::InvalidConfig`] if the configuration is invalid or
    /// `threads == 0`.
    pub fn new(config: OpaqConfig, threads: usize) -> OpaqResult<Self> {
        config.validate()?;
        if threads == 0 {
            return Err(OpaqError::InvalidConfig(
                "at least one ingestion thread is required".into(),
            ));
        }
        Ok(Self { config, threads })
    }

    /// The configuration in use.
    pub fn config(&self) -> &OpaqConfig {
        &self.config
    }

    /// The configured worker thread count (the effective shard count is
    /// capped at the store's run count).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Ingest every run of `store` and return the sketch.
    ///
    /// # Errors
    /// [`OpaqError::EmptyDataset`] for an empty store; a storage error from
    /// any shard's reads is propagated (the lowest failing shard's).
    pub fn build_sketch<K, S>(&self, store: &S) -> OpaqResult<QuantileSketch<K>>
    where
        K: Key,
        S: RunStore<K>,
    {
        self.build_sketch_with_report(store).map(|(s, _)| s)
    }

    /// Like [`Self::build_sketch`], also returning the per-shard report.
    pub fn build_sketch_with_report<K, S>(
        &self,
        store: &S,
    ) -> OpaqResult<(QuantileSketch<K>, ShardedIngestReport)>
    where
        K: Key,
        S: RunStore<K>,
    {
        self.build_sketch_traced(store, &TraceSink::off(), ROOT_SPAN_ID)
    }

    /// Like [`Self::build_sketch_with_report`], recording ingest-side trace
    /// spans on `sink`: one [`Stage::Ingest`] span per shard worker, whose
    /// duration is that shard's [`ShardStats::busy`], and one
    /// [`Stage::Merge`] span for the final merge tree, all parented under
    /// `parent` (typically the refresh job's root span).
    pub fn build_sketch_traced<K, S>(
        &self,
        store: &S,
        sink: &TraceSink,
        parent: u32,
    ) -> OpaqResult<(QuantileSketch<K>, ShardedIngestReport)>
    where
        K: Key,
        S: RunStore<K>,
    {
        if store.is_empty() {
            return Err(OpaqError::EmptyDataset);
        }
        let runs = store.layout().runs();
        let shards = self.threads.min(runs as usize).max(1);
        // Contiguous balanced blocks: shard k owns [starts[k], starts[k+1]),
        // never empty since shards <= runs.
        let starts: Vec<u64> = (0..=shards)
            .map(|k| (k as u64 * runs) / shards as u64)
            .collect();

        let io_before = store.io_stats().snapshot();
        // Every duration below comes from the sink's clock, the one its
        // spans record, whether or not the sink records them.
        let since = |start: u64| sink.now_nanos().saturating_sub(start);
        let total_start = sink.now_nanos();

        let config = self.config;
        let results: Vec<OpaqResult<(QuantileSketch<K>, ShardStats)>> =
            std::thread::scope(|scope| {
                let workers: Vec<_> = starts
                    .windows(2)
                    .enumerate()
                    .map(|(shard, range)| {
                        let (first, end) = (range[0], range[1]);
                        scope.spawn(move || {
                            let mut inc = IncrementalOpaq::new(config)
                                .expect("ShardedOpaq::new validated the configuration");
                            let (span, start) = (sink.allocate(), sink.now_nanos());
                            let read = inc.add_runs(store, first..end);
                            let busy = since(start);
                            let tag = match read {
                                Ok(()) => SpanTag::Untagged,
                                Err(_) => SpanTag::Error,
                            };
                            sink.complete_with(span, parent, Stage::Ingest, tag, start, busy);
                            read?;
                            let stats = ShardStats {
                                shard,
                                runs: inc.runs_absorbed(),
                                elements: inc.total_elements(),
                                sample_points: inc.sketch().map_or(0, QuantileSketch::len),
                                busy: Duration::from_nanos(busy),
                            };
                            let sketch = inc.into_sketch().expect("every shard owns a run");
                            Ok((sketch, stats))
                        })
                    })
                    .collect();
                workers
                    .into_iter()
                    .map(|worker| {
                        worker
                            .join()
                            .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
                    })
                    .collect()
            });
        let (sketches, shard_stats): (Vec<_>, Vec<_>) = results
            .into_iter()
            .collect::<OpaqResult<Vec<_>>>()?
            .into_iter()
            .unzip();

        // Deterministic merge tree over the shard sketches in ascending
        // shard index.  Any order-respecting tree yields the same sketch;
        // pairing halves the depth compared to a left fold.
        let merge_start = sink.now_nanos();
        let level: Vec<Arc<QuantileSketch<K>>> = sketches.into_iter().map(Arc::new).collect();
        let fused = merge_tree(&level)?;
        drop(level);
        let sketch = Arc::try_unwrap(fused).unwrap_or_else(|shared| (*shared).clone());
        let merge_nanos = since(merge_start);
        let span = sink.allocate();
        let tag = SpanTag::Untagged;
        sink.complete_with(span, parent, Stage::Merge, tag, merge_start, merge_nanos);

        let report = ShardedIngestReport {
            shards: shard_stats,
            io: io_delta(io_before, store.io_stats().snapshot()),
            merge: Duration::from_nanos(merge_nanos),
            total: Duration::from_nanos(since(total_start)),
        };
        Ok((sketch, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opaq_storage::{FileRunStoreBuilder, MemRunStore};

    fn config(m: u64, s: u64) -> OpaqConfig {
        OpaqConfig::builder()
            .run_length(m)
            .sample_size(s)
            .build()
            .unwrap()
    }

    fn sequential(store: &MemRunStore<u64>, cfg: OpaqConfig) -> QuantileSketch<u64> {
        let mut inc = IncrementalOpaq::new(cfg).unwrap();
        inc.add_store(store).unwrap();
        inc.into_sketch().unwrap()
    }

    #[test]
    fn matches_sequential_for_every_thread_count() {
        let data: Vec<u64> = (0..30_000).map(|i| (i * 2654435761) % 10_007).collect();
        let cfg = config(1000, 100);
        let store = MemRunStore::new(data, 1000);
        let reference = sequential(&store, cfg);
        for threads in 1..=8 {
            let sharded = ShardedOpaq::new(cfg, threads)
                .unwrap()
                .build_sketch(&store)
                .unwrap();
            assert_eq!(sharded, reference, "threads {threads}");
        }
    }

    #[test]
    fn matches_sequential_on_file_store_with_tail_run() {
        let mut path = std::env::temp_dir();
        path.push(format!("opaq-sharded-test-{}.bin", std::process::id()));
        let data: Vec<u64> = (0..12_345).rev().collect();
        let file = FileRunStoreBuilder::<u64>::new(&path, 1000)
            .unwrap()
            .append(&data)
            .unwrap()
            .finish()
            .unwrap();
        let mem = MemRunStore::new(data, 1000);
        let cfg = config(1000, 64);
        let reference = sequential(&mem, cfg);
        let (sharded, report) = ShardedOpaq::new(cfg, 4)
            .unwrap()
            .build_sketch_with_report(&file)
            .unwrap();
        assert_eq!(sharded, reference);
        // 13 runs over 4 shards; the report accounts for every run and byte.
        assert_eq!(report.shards.len(), 4);
        assert_eq!(report.shards.iter().map(|s| s.runs).sum::<u64>(), 13);
        assert_eq!(
            report.shards.iter().map(|s| s.elements).sum::<u64>(),
            12_345
        );
        assert_eq!(report.io.bytes_read, 12_345 * 8);
        assert_eq!(report.io.read_calls, 13);
        assert!(report.render_table().contains("4 shards"));
        file.remove_file().unwrap();
    }

    #[test]
    fn more_threads_than_runs_caps_shard_count() {
        let store = MemRunStore::new((0u64..3000).collect(), 1000);
        let cfg = config(1000, 100);
        let (sketch, report) = ShardedOpaq::new(cfg, 8)
            .unwrap()
            .build_sketch_with_report(&store)
            .unwrap();
        assert_eq!(report.shards.len(), 3, "shards capped at the run count");
        assert_eq!(sketch, sequential(&store, cfg));
    }

    #[test]
    fn single_thread_degenerates_to_sequential() {
        let store = MemRunStore::new((0u64..5000).collect(), 500);
        let cfg = config(500, 50);
        let sketch = ShardedOpaq::new(cfg, 1)
            .unwrap()
            .build_sketch(&store)
            .unwrap();
        assert_eq!(sketch, sequential(&store, cfg));
    }

    #[test]
    fn estimates_from_sharded_sketch_enclose_truth() {
        let data: Vec<u64> = (0..20_000).map(|i| (i * 48271) % 65_537).collect();
        let mut sorted = data.clone();
        sorted.sort_unstable();
        let store = MemRunStore::new(data, 2000);
        let sketch = ShardedOpaq::new(config(2000, 200), 5)
            .unwrap()
            .build_sketch(&store)
            .unwrap();
        for i in 1..10u64 {
            let est = sketch.estimate(i as f64 / 10.0).unwrap();
            let truth = sorted[(est.target_rank - 1) as usize];
            assert!(est.lower <= truth && truth <= est.upper);
        }
    }

    /// Buffer counts of one sharded build over `store`.
    fn buffer_counts<S: RunStore<u64>>(sharded: &ShardedOpaq, store: &S) -> (u64, u64) {
        let (_, report) = sharded.build_sketch_with_report(store).unwrap();
        (report.io.buffer_allocs, report.io.buffer_reuses)
    }

    #[test]
    fn each_shard_allocates_one_run_buffer() {
        // r = 41 runs, the last a 345-key tail: each shard's first read
        // allocates its buffer and every later read reuses it.
        let data: Vec<u64> = (0..40_345).map(|i| (i * 48271) % 9973).collect();
        let mut path = std::env::temp_dir();
        path.push(format!("opaq-sharded-buffers-{}.bin", std::process::id()));
        let file = FileRunStoreBuilder::<u64>::new(&path, 1000)
            .unwrap()
            .append(&data)
            .unwrap()
            .finish()
            .unwrap();
        let mem = MemRunStore::new(data, 1000);
        for shards in [1u64, 3, 4, 8, 41] {
            let sharded = ShardedOpaq::new(config(1000, 100), shards as usize).unwrap();
            let expected = (shards, 41 - shards);
            assert_eq!(buffer_counts(&sharded, &mem), expected, "mem, S = {shards}");
            assert_eq!(
                buffer_counts(&sharded, &file),
                expected,
                "file, S = {shards}"
            );
        }
        file.remove_file().unwrap();
    }

    #[test]
    fn traced_build_records_ingest_and_merge_spans() {
        use opaq_metrics::trace::{SpanRecorder, TraceId};
        let store = MemRunStore::new((0u64..10_000).collect(), 1000);
        let cfg = config(1000, 100);
        let recorder = std::sync::Arc::new(SpanRecorder::new(64));
        let sink = TraceSink::new(std::sync::Arc::clone(&recorder), TraceId::mint());
        let (sketch, report) = ShardedOpaq::new(cfg, 4)
            .unwrap()
            .build_sketch_traced(&store, &sink, ROOT_SPAN_ID)
            .unwrap();
        assert_eq!(sketch, sequential(&store, cfg));
        let spans = recorder.trace(sink.trace());
        let ingest = spans.iter().filter(|s| s.stage == Stage::Ingest).count();
        assert_eq!(ingest, report.shards.len(), "one ingest span per shard");
        let merges: Vec<_> = spans.iter().filter(|s| s.stage == Stage::Merge).collect();
        assert_eq!(merges.len(), 1);
        // The report's merge and busy times are the spans': one clock, read
        // once per span.
        assert_eq!(report.merge, Duration::from_nanos(merges[0].duration_nanos));
        let mut span_busy: Vec<Duration> = spans
            .iter()
            .filter(|s| s.stage == Stage::Ingest)
            .map(|s| Duration::from_nanos(s.duration_nanos))
            .collect();
        let mut shard_busy: Vec<Duration> = report.shards.iter().map(|s| s.busy).collect();
        span_busy.sort_unstable();
        shard_busy.sort_unstable();
        assert_eq!(span_busy, shard_busy);
        assert!(report.merge + shard_busy[0] <= report.total, "{report:?}");
        assert!(spans.iter().all(|s| s.parent == ROOT_SPAN_ID));
        assert!(spans.iter().all(|s| s.tag == SpanTag::Untagged));
    }

    #[test]
    fn a_failed_read_fails_the_build_and_tags_its_shard() {
        use opaq_metrics::trace::{SpanRecorder, TraceId};
        let mut path = std::env::temp_dir();
        path.push(format!("opaq-sharded-torn-{}.bin", std::process::id()));
        let data: Vec<u64> = (0..4000).collect();
        let file = FileRunStoreBuilder::<u64>::new(&path, 1000)
            .unwrap()
            .append(&data)
            .unwrap()
            .finish()
            .unwrap();
        // Cut the file inside run 3, which shard 1 of 2 owns.
        std::fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .and_then(|f| f.set_len(3500 * 8))
            .unwrap();
        let recorder = std::sync::Arc::new(SpanRecorder::new(64));
        let sink = TraceSink::new(std::sync::Arc::clone(&recorder), TraceId::mint());
        let built = ShardedOpaq::new(config(1000, 100), 2)
            .unwrap()
            .build_sketch_traced(&file, &sink, ROOT_SPAN_ID);
        assert!(matches!(built, Err(OpaqError::Storage(_))), "{built:?}");
        let mut tags: Vec<_> = recorder
            .trace(sink.trace())
            .iter()
            .map(|s| (s.stage, s.tag))
            .collect();
        tags.sort_by_key(|&(_, tag)| tag == SpanTag::Error);
        assert_eq!(
            tags,
            [
                (Stage::Ingest, SpanTag::Untagged),
                (Stage::Ingest, SpanTag::Error)
            ]
        );
        file.remove_file().unwrap();
    }

    #[test]
    fn zero_threads_rejected() {
        assert!(matches!(
            ShardedOpaq::new(config(100, 10), 0),
            Err(OpaqError::InvalidConfig(_))
        ));
    }

    #[test]
    fn empty_store_errors() {
        let store = MemRunStore::<u64>::new(vec![], 10);
        let sharded = ShardedOpaq::new(config(100, 10), 4).unwrap();
        assert!(matches!(
            sharded.build_sketch(&store),
            Err(OpaqError::EmptyDataset)
        ));
    }
}
