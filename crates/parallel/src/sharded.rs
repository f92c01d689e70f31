//! Sharded multi-threaded ingestion: OPAQ's sample phase fanned out to OS
//! worker threads, with a deterministic sketch-merge tree.
//!
//! The paper's one-pass structure makes every run independent until the
//! final sample merge, which §5 exploits on the SP-2; [`ShardedOpaq`] is the
//! shared-memory version of that observation:
//!
//! ```text
//!            ┌────────────┐   bounded channels    ┌──────────┐
//! RunStore ─▶│ dispatcher │──▶ shard 0 runs ─────▶│ worker 0 │─┐
//!            │ (prefetch  │──▶ shard 1 runs ─────▶│ worker 1 │─┤  sketch
//!            │  thread)   │──▶ …                  │ …        │ ├─▶ merge
//!            └────────────┘──▶ shard S−1 runs ───▶│ worker S │─┘   tree
//!            one sequential                        IncrementalOpaq
//!            pass over disk                        per shard
//! ```
//!
//! * **One reader, many samplers.**  The dispatcher performs the single
//!   sequential pass over the store — via the storage crate's
//!   double-buffered prefetcher, so the read of run `i + 1` overlaps the
//!   fan-out of run `i` — and hands each run to the worker that owns it.
//!   Disk access stays strictly sequential (the access pattern the paper's
//!   cost model assumes) while the `O(m log s)` multi-selection work, the
//!   dominant CPU cost, runs on all shards concurrently.
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
//! * **Bounded memory, zero steady-state allocation.**  Every run channel
//!   holds at most `depth` = [`DEFAULT_PREFETCH_DEPTH`] runs, so a slow
//!   worker back-pressures the dispatcher instead of letting buffered runs
//!   pile up; peak memory stays at most `(S·(depth + 1) + depth + 2) · m`
//!   keys (per shard:
//!   `depth` buffered plus one being sampled; plus the prefetch pipeline's
//!   `depth + 2`) on top of the `r·s` sample points.  Those buffers
//!   *recycle*: workers return each sampled run to a shared
//!   [`BufferPool`] that the prefetching reader refills via
//!   `RunStore::read_run_into`, so after warm-up no run read allocates
//!   (watch the `buffer_allocs`/`buffer_reuses` counters in the report's
//!   [`IoStatsSnapshot`]).
//! * **Observability.**  Each worker reports an [`opaq_metrics::ShardStats`]
//!   (runs, elements, busy vs. starved wall-clock), and the report carries
//!   the store's [`IoStatsSnapshot`] delta, so "is ingest I/O-bound or
//!   CPU-bound?" is answerable per run — the multi-threaded analogue of the
//!   paper's Table 11/12 I/O-fraction breakdown.

use crossbeam::channel;
use opaq_core::{
    merge_tree, IncrementalOpaq, Key, OpaqConfig, OpaqError, OpaqResult, QuantileSketch,
};
use opaq_metrics::trace::{SpanTag, Stage, TraceSink, ROOT_SPAN_ID};
use opaq_metrics::{render_shard_table, ShardStats};
use opaq_storage::{BufferPool, IoStatsSnapshot, RunStore, DEFAULT_PREFETCH_DEPTH};
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

/// What one sharded ingest did: per-shard statistics plus the phase and I/O
/// totals of the whole pass.
#[derive(Debug, Clone)]
pub struct ShardedIngestReport {
    /// Per-shard statistics, ordered by shard index.
    pub shards: Vec<ShardStats>,
    /// The store's I/O counter deltas for this ingest.
    pub io: IoStatsSnapshot,
    /// Wall-clock time of the dispatch loop (sequential read + fan-out).
    pub dispatch: Duration,
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
    /// [`OpaqError::EmptyDataset`] for an empty store; storage errors from
    /// the sequential read pass are propagated.
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
    /// spans on `sink`: one [`Stage::Ingest`] span per shard worker
    /// (covering the worker's whole lifetime, so starvation is visible as
    /// span length vs. busy time in the report) and one [`Stage::Merge`]
    /// span for the final merge tree, all parented under `parent`
    /// (typically the refresh job's root span).
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
        // Contiguous balanced blocks: shard k owns [starts[k], starts[k+1]).
        let starts: Vec<u64> = (0..=shards)
            .map(|k| (k as u64 * runs) / shards as u64)
            .collect();

        let io_before = store.io_stats().snapshot();
        // Every duration below comes from the sink's clock, the one its
        // spans record, whether or not the sink records them.
        let since = |start: u64| sink.now_nanos().saturating_sub(start);
        let total_start = sink.now_nanos();

        type WorkerResult<K> = OpaqResult<(Option<QuantileSketch<K>>, ShardStats)>;

        // One buffer pool shared by the prefetching reader and every worker:
        // a worker finishes sampling a run and parks the buffer for the
        // reader to refill, so steady state recycles ~`shards·(depth+1)`
        // buffers instead of allocating one per run.
        let pool = BufferPool::<K>::new();

        let scope_result: OpaqResult<(QuantileSketch<K>, Vec<ShardStats>, Duration, Duration)> =
            crossbeam::thread::scope(|scope| {
                let (result_tx, result_rx) = channel::unbounded::<(usize, WorkerResult<K>)>();
                let mut run_txs: Vec<channel::Sender<Vec<K>>> = Vec::with_capacity(shards);
                for shard in 0..shards {
                    let (run_tx, run_rx) = channel::bounded::<Vec<K>>(DEFAULT_PREFETCH_DEPTH);
                    run_txs.push(run_tx);
                    let result_tx = result_tx.clone();
                    let config = self.config;
                    let pool = &pool;
                    scope.spawn(move |_| {
                        // One Ingest span per shard worker, spanning its
                        // whole lifetime (recv waits included).
                        let (span, start) = (sink.allocate(), sink.now_nanos());
                        let finish =
                            |tag: SpanTag| sink.complete(span, parent, Stage::Ingest, tag, start);
                        let mut inc = match IncrementalOpaq::<K>::new(config) {
                            Ok(inc) => inc,
                            Err(e) => {
                                let _ = result_tx.send((shard, Err(e)));
                                finish(SpanTag::Error);
                                return;
                            }
                        };
                        let mut busy = Duration::ZERO;
                        let mut starved = Duration::ZERO;
                        let mut batch = Vec::new();
                        loop {
                            let wait_start = sink.now_nanos();
                            // Channel closed = all of this shard's runs seen.
                            let Ok(mut run) = run_rx.recv() else { break };
                            starved += Duration::from_nanos(since(wait_start));
                            let work_start = sink.now_nanos();
                            let sampled = inc.sample_into(&mut run, &mut batch);
                            pool.put(run);
                            if let Err(e) = sampled {
                                let _ = result_tx.send((shard, Err(e)));
                                finish(SpanTag::Error);
                                return;
                            }
                            busy += Duration::from_nanos(since(work_start));
                        }
                        let work_start = sink.now_nanos();
                        if let Err(e) = inc.absorb(batch) {
                            let _ = result_tx.send((shard, Err(e)));
                            finish(SpanTag::Error);
                            return;
                        }
                        busy += Duration::from_nanos(since(work_start));
                        let stats = ShardStats {
                            shard,
                            runs: inc.runs_absorbed(),
                            elements: inc.total_elements(),
                            sample_points: inc.sketch().map_or(0, QuantileSketch::len),
                            busy,
                            starved,
                        };
                        let _ = result_tx.send((shard, Ok((inc.into_sketch(), stats))));
                        finish(SpanTag::Untagged);
                    });
                }
                drop(result_tx);

                // The dispatcher runs on this thread: one sequential,
                // prefetched pass over the store, fanning each run out to
                // its owning shard.  A send only fails if the worker died
                // (which parks an error on the results channel), so errors
                // are picked up below rather than here.
                let dispatch_start = sink.now_nanos();
                let mut current = 0usize;
                let dispatched = opaq_storage::for_each_run_prefetched_pooled(
                    store,
                    DEFAULT_PREFETCH_DEPTH,
                    &pool,
                    |run, data| {
                        while current + 1 < shards && run >= starts[current + 1] {
                            current += 1;
                        }
                        let _ = run_txs[current].send(data);
                    },
                );
                drop(run_txs);
                let dispatch = Duration::from_nanos(since(dispatch_start));

                let mut sketches: Vec<Option<QuantileSketch<K>>> =
                    (0..shards).map(|_| None).collect();
                let mut stats: Vec<Option<ShardStats>> = (0..shards).map(|_| None).collect();
                let mut first_error: Option<OpaqError> = None;
                for (shard, result) in result_rx {
                    match result {
                        Ok((sketch, stat)) => {
                            sketches[shard] = sketch;
                            stats[shard] = Some(stat);
                        }
                        Err(e) => {
                            let _ = first_error.get_or_insert(e);
                        }
                    }
                }
                dispatched?;
                if let Some(e) = first_error {
                    return Err(e);
                }

                // Deterministic merge tree over the shard sketches in
                // ascending shard index.  Any order-respecting tree yields
                // the same sketch; pairing halves the depth compared to a
                // left fold.
                let merge_start = sink.now_nanos();
                let level: Vec<Arc<QuantileSketch<K>>> =
                    sketches.into_iter().flatten().map(Arc::new).collect();
                let fused = merge_tree(&level)?;
                drop(level);
                let sketch = Arc::try_unwrap(fused).unwrap_or_else(|shared| (*shared).clone());
                let merge_nanos = since(merge_start);
                let span = sink.allocate();
                let tag = SpanTag::Untagged;
                sink.complete_with(span, parent, Stage::Merge, tag, merge_start, merge_nanos);
                let merge = Duration::from_nanos(merge_nanos);
                let shard_stats = stats.into_iter().flatten().collect();
                Ok((sketch, shard_stats, dispatch, merge))
            })
            .expect("sharded ingest scope does not panic");

        let (sketch, shards, dispatch, merge) = scope_result?;
        let report = ShardedIngestReport {
            shards,
            io: io_delta(io_before, store.io_stats().snapshot()),
            dispatch,
            merge,
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

    #[test]
    fn run_buffers_recycle_across_the_ingest() {
        // 40 runs over 4 shards with depth 2: at most
        // shards·(depth+1) + depth + 2 = 16 buffers can be in flight before
        // recycling kicks in, so most of the 40 reads must be reuses.
        let data: Vec<u64> = (0..40_000).map(|i| (i * 48271) % 9973).collect();
        let store = MemRunStore::new(data, 1000);
        let cfg = config(1000, 100);
        let (_, report) = ShardedOpaq::new(cfg, 4)
            .unwrap()
            .build_sketch_with_report(&store)
            .unwrap();
        assert_eq!(report.io.buffer_allocs + report.io.buffer_reuses, 40);
        assert!(
            report.io.buffer_allocs <= 16,
            "allocs: {}",
            report.io.buffer_allocs
        );
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
        // The report's merge time is the span's: one clock, read once.
        assert_eq!(report.merge, Duration::from_nanos(merges[0].duration_nanos));
        assert!(report.merge + report.dispatch <= report.total, "{report:?}");
        assert!(spans.iter().all(|s| s.parent == ROOT_SPAN_ID));
        assert!(spans.iter().all(|s| s.tag == SpanTag::Untagged));
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
