//! The background refresh pipeline: build new sketch versions off the
//! serving path, publish them with an epoch swap.
//!
//! A [`RefreshPool`] owns a few worker threads fed over a channel.  Each job
//! carries a *builder* closure that produces the new sketch — typically by
//! ingesting new runs with `opaq_parallel::ShardedOpaq` (see
//! [`RefreshPool::submit_ingest`]) or by folding increments into an
//! `IncrementalOpaq` — and the worker publishes the result to the catalog.
//! The catalog's epoch-swap discipline does the rest: readers keep serving
//! the old version for the whole (possibly long) build and flip to the new
//! one at a single pointer swap.

use crate::catalog::{DatasetId, SketchCatalog, TenantId};
use crate::{ServeError, ServeResult};
use crossbeam::channel;
use opaq_core::{OpaqConfig, QuantileSketch};
use opaq_metrics::trace::{SpanRecorder, SpanTag, Stage, TraceSink, ROOT_SPAN_ID};
use opaq_parallel::ShardedOpaq;
use opaq_storage::RunStore;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A job's sketch builder; handed the job's trace sink so a build — e.g.
/// the sharded ingest — records child spans under the job's `refresh` root.
type Builder = Box<dyn FnOnce(&TraceSink) -> ServeResult<QuantileSketch<u64>> + Send>;

struct Job {
    tenant: TenantId,
    dataset: DatasetId,
    build: Builder,
}

#[derive(Default)]
struct Progress {
    submitted: AtomicU64,
    published: AtomicU64,
    failed: AtomicU64,
}

/// A pool of background refresh workers publishing into one catalog.
///
/// Shutdown discipline ([`RefreshPool::shutdown`], also run by `Drop`):
/// **close the queue first, then join the workers.**  Closing first means no
/// new job can be accepted mid-teardown; joining second means every job that
/// *was* accepted is drained — built and published (or recorded as failed) —
/// before shutdown returns.  A server tearing down in the order "HTTP
/// workers, refresh pool, catalog" therefore can never have an in-flight
/// ingest publish into a catalog whose owner already finished tearing down:
/// when `shutdown` returns, the pool is quiescent and will never touch the
/// catalog again.
pub struct RefreshPool {
    catalog: Arc<SketchCatalog>,
    /// `None` once the queue is closed.  Behind a mutex so a concurrent
    /// `submit` either completes its send before the queue closes (and the
    /// job is then drained by the joining workers) or observes the closed
    /// queue and gets a typed [`ServeError::RefreshClosed`] — there is no
    /// window where a submit is accepted but silently dropped.
    tx: Mutex<Option<channel::Sender<Job>>>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
    progress: Arc<Progress>,
}

impl std::fmt::Debug for RefreshPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RefreshPool")
            .field("workers", &self.workers.lock().len())
            .field("submitted", &self.submitted())
            .field("published", &self.published())
            .field("failed", &self.failed())
            .finish()
    }
}

impl RefreshPool {
    /// Spawn a pool of `workers` refresh threads publishing into `catalog`.
    /// Every job is its own trace, rooted at a [`Stage::Refresh`] span,
    /// recorded into `recorder` (typically the server's shared one) — or
    /// nowhere when it is `None`.
    ///
    /// # Errors
    /// [`ServeError::InvalidConfig`] if `workers == 0`.
    pub fn new(
        catalog: Arc<SketchCatalog>,
        workers: usize,
        recorder: Option<Arc<SpanRecorder>>,
    ) -> ServeResult<Self> {
        if workers == 0 {
            return Err(ServeError::InvalidConfig(
                "a refresh pool needs at least one worker".into(),
            ));
        }
        let (tx, rx) = channel::unbounded::<Job>();
        // std's Receiver is single-consumer; workers take turns holding it
        // while they wait.  Dispatch is serialized (cheap), the sketch
        // builds — the expensive part — run concurrently.
        let rx = Arc::new(Mutex::new(rx));
        let progress = Arc::new(Progress::default());
        let workers = (0..workers)
            .map(|i| {
                let rx = Arc::clone(&rx);
                let catalog = Arc::clone(&catalog);
                let progress = Arc::clone(&progress);
                let recorder = recorder.clone();
                std::thread::Builder::new()
                    .name(format!("opaq-serve-refresh-{i}"))
                    .spawn(move || loop {
                        let job = {
                            let rx = rx.lock();
                            rx.recv()
                        };
                        let Ok(job) = job else {
                            return; // queue closed and drained
                        };
                        // Each job is its own trace, rooted at a `refresh`
                        // span; the builder records children under it.
                        let sink = TraceSink::fresh(recorder.clone());
                        let result = (job.build)(&sink)
                            .and_then(|sketch| catalog.publish(&job.tenant, &job.dataset, sketch));
                        match result {
                            Ok(_version) => {
                                progress.published.fetch_add(1, Ordering::Release);
                                sink.finish_root(Stage::Refresh, SpanTag::Untagged);
                            }
                            Err(_) => {
                                // A TTL-triggered refresh that dies must not
                                // leave its entry claiming `refreshing`
                                // forever — reopen the trigger.
                                catalog.refresh_aborted(&job.tenant, &job.dataset);
                                progress.failed.fetch_add(1, Ordering::Release);
                                sink.finish_root(Stage::Refresh, SpanTag::Error);
                            }
                        }
                    })
                    .expect("spawning a refresh worker cannot fail")
            })
            .collect();
        Ok(Self {
            catalog,
            tx: Mutex::new(Some(tx)),
            workers: Mutex::new(workers),
            progress,
        })
    }

    /// The catalog the pool publishes into.
    pub fn catalog(&self) -> &Arc<SketchCatalog> {
        &self.catalog
    }

    /// Queue a refresh whose new sketch is produced by `build` on a worker
    /// thread.
    ///
    /// # Errors
    /// [`ServeError::RefreshClosed`] if the pool has shut down.
    pub fn submit(
        &self,
        tenant: &TenantId,
        dataset: &DatasetId,
        build: impl FnOnce() -> ServeResult<QuantileSketch<u64>> + Send + 'static,
    ) -> ServeResult<()> {
        self.submit_inner(tenant, dataset, Box::new(move |_sink| build()))
    }

    /// Queue a builder that receives the job's trace sink, so the build can
    /// record child spans under the job's `refresh` root span.
    fn submit_inner(
        &self,
        tenant: &TenantId,
        dataset: &DatasetId,
        build: Builder,
    ) -> ServeResult<()> {
        // Hold the sender lock across the send: either the whole submission
        // lands before a concurrent `shutdown` takes the sender (and the
        // drain-then-join discipline guarantees it completes), or it fails
        // with the typed error.  An accepted submit is never half-dropped.
        let tx = self.tx.lock();
        let Some(tx) = tx.as_ref() else {
            return Err(ServeError::RefreshClosed);
        };
        tx.send(Job {
            tenant: tenant.clone(),
            dataset: dataset.clone(),
            build,
        })
        .map_err(|_| ServeError::RefreshClosed)?;
        // Count only after the send succeeded, so `submitted` is exactly
        // the number of jobs the queue accepted and `wait_idle` can never
        // wait on a job that was rejected.
        self.progress.submitted.fetch_add(1, Ordering::Release);
        Ok(())
    }

    /// Queue a full re-ingest of `store` through the sharded multi-threaded
    /// ingestion path (`threads` worker threads inside the build; the result
    /// is bit-identical to a sequential ingest for any count).
    pub fn submit_ingest<S>(
        &self,
        tenant: &TenantId,
        dataset: &DatasetId,
        store: Arc<S>,
        config: OpaqConfig,
        threads: usize,
    ) -> ServeResult<()>
    where
        S: RunStore<u64> + Send + Sync + 'static,
    {
        let sharded = ShardedOpaq::new(config, threads)?;
        self.submit_inner(
            tenant,
            dataset,
            Box::new(move |sink| {
                Ok(sharded
                    .build_sketch_traced(&*store, sink, ROOT_SPAN_ID)
                    .map(|(sketch, _)| sketch)?)
            }),
        )
    }

    /// Refreshes queued so far.
    pub fn submitted(&self) -> u64 {
        self.progress.submitted.load(Ordering::Acquire)
    }

    /// Refreshes successfully published so far.
    pub fn published(&self) -> u64 {
        self.progress.published.load(Ordering::Acquire)
    }

    /// Refreshes that failed (build or publish error).
    pub fn failed(&self) -> u64 {
        self.progress.failed.load(Ordering::Acquire)
    }

    /// Shut the pool down: close the queue, then join every worker.
    ///
    /// Safe to call from any thread, any number of times (later calls are
    /// no-ops), and concurrently with `submit` — a submit either completes
    /// before the queue closes (its job is then drained before this method
    /// returns) or fails with [`ServeError::RefreshClosed`].  After
    /// `shutdown` returns the pool is quiescent: every accepted job has
    /// been published or recorded as failed, and no worker will ever touch
    /// the catalog again.
    pub fn shutdown(&self) {
        // 1. Close the queue.  Taking the sender out under the lock
        //    linearizes against `submit`: no job can be accepted after this
        //    point.
        let tx = self.tx.lock().take();
        drop(tx);
        // 2. Join the workers.  The channel reports disconnection only
        //    after it is both closed *and* drained, so every worker first
        //    finishes the jobs that were accepted, then exits.  Taking the
        //    handles out under their own lock makes concurrent shutdowns
        //    join disjoint (possibly empty) sets instead of racing.
        let workers: Vec<_> = self.workers.lock().drain(..).collect();
        for worker in workers {
            let _ = worker.join();
        }
    }

    /// Whether [`Self::shutdown`] has closed the queue.
    pub fn is_shut_down(&self) -> bool {
        self.tx.lock().is_none()
    }

    /// Block until every submitted refresh has been published or failed, or
    /// `timeout` elapses; returns whether the pool went idle in time.
    pub fn wait_idle(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            let done = self.published() + self.failed();
            if done >= self.submitted() {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }
}

impl Drop for RefreshPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opaq_core::OpaqError;
    use opaq_storage::MemRunStore;

    fn config() -> OpaqConfig {
        OpaqConfig::builder()
            .run_length(1000)
            .sample_size(100)
            .build()
            .unwrap()
    }

    fn ids() -> (TenantId, DatasetId) {
        (TenantId::from("t"), DatasetId::from("d"))
    }

    #[test]
    fn background_ingest_publishes_the_sharded_sketch() {
        let catalog = Arc::new(SketchCatalog::unbounded());
        let pool = RefreshPool::new(Arc::clone(&catalog), 2, None).unwrap();
        let (t, d) = ids();
        let store = Arc::new(MemRunStore::new((0u64..10_000).collect(), 1000));
        pool.submit_ingest(&t, &d, Arc::clone(&store), config(), 2)
            .unwrap();
        assert!(pool.wait_idle(Duration::from_secs(10)));
        assert_eq!(pool.published(), 1);
        let snap = catalog.snapshot(&t, &d).unwrap();
        assert_eq!(snap.version, 1);
        // Bit-identical to the direct sharded build.
        let direct = ShardedOpaq::new(config(), 2)
            .unwrap()
            .build_sketch(&*store)
            .unwrap();
        assert_eq!(*snap.sketch, direct);
    }

    #[test]
    fn sequential_submissions_stack_versions() {
        let catalog = Arc::new(SketchCatalog::unbounded());
        let pool = RefreshPool::new(Arc::clone(&catalog), 1, None).unwrap();
        let (t, d) = ids();
        for round in 1..=5u64 {
            pool.submit(&t, &d, move || {
                let mut inc = opaq_core::IncrementalOpaq::new(
                    OpaqConfig::builder()
                        .run_length(100)
                        .sample_size(10)
                        .build()
                        .unwrap(),
                )
                .unwrap();
                inc.add_run((0..round * 100).collect()).unwrap();
                Ok(inc.into_sketch().unwrap())
            })
            .unwrap();
        }
        assert!(pool.wait_idle(Duration::from_secs(10)));
        let snap = catalog.snapshot(&t, &d).unwrap();
        // One worker: jobs run in order, so version 5 summarises 500 keys.
        assert_eq!(snap.version, 5);
        assert_eq!(snap.sketch.total_elements(), 500);
    }

    #[test]
    fn failures_are_recorded_not_published() {
        let catalog = Arc::new(SketchCatalog::unbounded());
        let pool = RefreshPool::new(Arc::clone(&catalog), 2, None).unwrap();
        let (t, d) = ids();
        pool.submit(&t, &d, || Err(ServeError::Opaq(OpaqError::EmptyDataset)))
            .unwrap();
        assert!(pool.wait_idle(Duration::from_secs(10)));
        assert_eq!(pool.failed(), 1);
        assert_eq!(pool.published(), 0);
        assert!(!catalog.contains(&t, &d));
    }

    #[test]
    fn zero_workers_rejected_and_drop_joins() {
        let catalog = Arc::new(SketchCatalog::unbounded());
        assert!(matches!(
            RefreshPool::new(Arc::clone(&catalog), 0, None),
            Err(ServeError::InvalidConfig(_))
        ));
        let pool = RefreshPool::new(Arc::clone(&catalog), 3, None).unwrap();
        let (t, d) = ids();
        pool.submit(&t, &d, || {
            let mut inc = opaq_core::IncrementalOpaq::new(
                OpaqConfig::builder()
                    .run_length(100)
                    .sample_size(10)
                    .build()
                    .unwrap(),
            )
            .unwrap();
            inc.add_run((0..100).collect()).unwrap();
            Ok(inc.into_sketch().unwrap())
        })
        .unwrap();
        drop(pool); // joins workers; the queued job completes first
        assert!(catalog.contains(&t, &d));
    }

    #[test]
    fn explicit_shutdown_drains_then_rejects() {
        let catalog = Arc::new(SketchCatalog::unbounded());
        let pool = RefreshPool::new(Arc::clone(&catalog), 2, None).unwrap();
        let (t, d) = ids();
        let store = Arc::new(MemRunStore::new((0u64..5_000).collect(), 1000));
        for _ in 0..4 {
            pool.submit_ingest(&t, &d, Arc::clone(&store), config(), 1)
                .unwrap();
        }
        assert!(!pool.is_shut_down());
        pool.shutdown();
        assert!(pool.is_shut_down());
        // Every accepted job drained before shutdown returned.
        assert_eq!(pool.published() + pool.failed(), pool.submitted());
        assert_eq!(catalog.snapshot(&t, &d).unwrap().version, 4);
        // Closed queue rejects with the typed error; shutdown is idempotent.
        assert!(matches!(
            pool.submit_ingest(&t, &d, store, config(), 1),
            Err(ServeError::RefreshClosed)
        ));
        pool.shutdown();
    }

    #[test]
    fn traced_ingest_records_refresh_root_with_ingest_children() {
        let catalog = Arc::new(SketchCatalog::unbounded());
        let recorder = Arc::new(SpanRecorder::new(64));
        let pool = RefreshPool::new(Arc::clone(&catalog), 2, Some(Arc::clone(&recorder))).unwrap();
        let (t, d) = ids();
        let store = Arc::new(MemRunStore::new((0u64..10_000).collect(), 1000));
        pool.submit_ingest(&t, &d, Arc::clone(&store), config(), 2)
            .unwrap();
        assert!(pool.wait_idle(Duration::from_secs(10)));
        let spans = recorder.spans();
        let roots: Vec<_> = spans.iter().filter(|s| s.stage == Stage::Refresh).collect();
        assert_eq!(roots.len(), 1, "one refresh root per job");
        assert_eq!(roots[0].span_id, ROOT_SPAN_ID);
        assert_eq!(roots[0].tag, SpanTag::Untagged);
        let trace = roots[0].trace;
        let ingests = spans
            .iter()
            .filter(|s| s.trace == trace && s.stage == Stage::Ingest)
            .count();
        assert!(ingests >= 1, "sharded build recorded ingest spans");
        // A failing job roots an error-tagged refresh span.
        pool.submit(&t, &d, || Err(ServeError::Opaq(OpaqError::EmptyDataset)))
            .unwrap();
        assert!(pool.wait_idle(Duration::from_secs(10)));
        assert!(recorder
            .spans()
            .iter()
            .any(|s| s.stage == Stage::Refresh && s.tag == SpanTag::Error));
    }

    #[test]
    fn ttl_hook_routes_expired_entries_through_the_pool() {
        let catalog = Arc::new(SketchCatalog::unbounded());
        let pool = Arc::new(RefreshPool::new(Arc::clone(&catalog), 1, None).unwrap());
        let (t, d) = ids();
        let store = Arc::new(MemRunStore::new((0u64..10_000).collect(), 1000));
        pool.submit_ingest(&t, &d, Arc::clone(&store), config(), 1)
            .unwrap();
        assert!(pool.wait_idle(Duration::from_secs(10)));
        catalog.set_ttl(&t, &d, Some(Duration::ZERO)).unwrap();

        // Weak hook: no Arc cycle between catalog and pool, and a hook that
        // outlives the pool degrades to `stale` instead of dangling.
        let weak = Arc::downgrade(&pool);
        let hook_store = Arc::clone(&store);
        catalog.set_refresh_hook(Box::new(move |tenant, dataset| {
            let Some(pool) = weak.upgrade() else {
                return false;
            };
            pool.submit_ingest(
                tenant,
                dataset,
                Arc::clone(&hook_store),
                OpaqConfig::builder()
                    .run_length(1000)
                    .sample_size(100)
                    .build()
                    .unwrap(),
                1,
            )
            .is_ok()
        }));

        // Expired snapshot triggers the background re-ingest; once it
        // publishes, the version has bumped and the entry is fresh again
        // (TTL zero => immediately stale again on the *next* read, so check
        // the version bump rather than a fresh tag).
        let before = catalog.snapshot(&t, &d).unwrap();
        assert_eq!(before.freshness, crate::Freshness::Refreshing);
        assert_eq!(before.version, 1);
        assert!(pool.wait_idle(Duration::from_secs(10)));
        assert_eq!(pool.published(), 2);
        let after = catalog.snapshot(&t, &d).unwrap();
        assert_eq!(after.version, 2);
    }
}
