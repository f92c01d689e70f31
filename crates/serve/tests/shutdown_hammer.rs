//! Races `RefreshPool::shutdown` against concurrent `submit_ingest` callers.
//!
//! The contract under test: a submit either fails with the typed
//! `RefreshClosed` error, or is *fully honoured* — its build runs and its
//! publish lands before `shutdown` returns.  There is no third outcome
//! (accepted-but-dropped job, or a publish that sneaks in after teardown),
//! which is exactly the ordering bug this suite pins: the queue must close
//! before the workers are joined, and the workers must drain the queue
//! before exiting.

use opaq_core::OpaqConfig;
use opaq_serve::{DatasetId, RefreshPool, ServeError, SketchCatalog, TenantId};
use opaq_storage::MemRunStore;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn config() -> OpaqConfig {
    OpaqConfig::builder()
        .run_length(500)
        .sample_size(50)
        .build()
        .unwrap()
}

#[test]
fn shutdown_racing_submit_ingest_never_drops_an_accepted_job() {
    // Several rounds to give the race different interleavings; each round
    // hammers one pool with 4 submitter threads while the main thread shuts
    // it down mid-flight.
    for round in 0..8u64 {
        let catalog = Arc::new(SketchCatalog::unbounded());
        let pool = Arc::new(RefreshPool::new(Arc::clone(&catalog), 2, None).unwrap());
        let accepted = Arc::new(AtomicU64::new(0));
        let rejected = Arc::new(AtomicU64::new(0));
        let stop = Arc::new(AtomicBool::new(false));

        std::thread::scope(|scope| {
            for submitter in 0..4u64 {
                let pool = Arc::clone(&pool);
                let accepted = Arc::clone(&accepted);
                let rejected = Arc::clone(&rejected);
                let stop = Arc::clone(&stop);
                scope.spawn(move || {
                    let tenant = TenantId::new(format!("t{submitter}"));
                    let dataset = DatasetId::new("events");
                    let store = Arc::new(MemRunStore::new((0u64..500).collect(), 500));
                    // Cap the backlog so the drain stays fast in debug
                    // builds; yield between submits to interleave with the
                    // racing shutdown rather than flooding before it runs.
                    for attempt in 0..100u64 {
                        match pool.submit_ingest(&tenant, &dataset, Arc::clone(&store), config(), 1)
                        {
                            Ok(()) => {
                                accepted.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(ServeError::RefreshClosed) => {
                                rejected.fetch_add(1, Ordering::Relaxed);
                                break;
                            }
                            Err(e) => panic!("unexpected submit error: {e}"),
                        }
                        if stop.load(Ordering::Relaxed) && attempt > 0 {
                            break;
                        }
                        std::thread::yield_now();
                    }
                });
            }

            // Let some submissions land, then slam the door mid-stream.
            std::thread::sleep(Duration::from_millis(1 + round % 4));
            pool.shutdown();
            let publishes_at_shutdown = catalog.stats().publishes;
            stop.store(true, Ordering::Relaxed);

            // Quiescence: nothing publishes after shutdown returned.
            std::thread::sleep(Duration::from_millis(5));
            assert_eq!(
                catalog.stats().publishes,
                publishes_at_shutdown,
                "round {round}: a publish landed after shutdown returned"
            );
        });

        // Every accepted job was honoured (published or recorded failed),
        // and the pool's own accounting agrees with the submitters'.
        assert_eq!(
            pool.submitted(),
            accepted.load(Ordering::Relaxed),
            "round {round}: pool accepted a job the submitter never saw (or vice versa)"
        );
        assert_eq!(
            pool.published() + pool.failed(),
            pool.submitted(),
            "round {round}: an accepted job was dropped on the floor"
        );
        assert_eq!(
            catalog.stats().publishes,
            pool.published(),
            "round {round}: catalog and pool disagree on publish count"
        );
        assert!(pool.is_shut_down());
    }
}

#[test]
fn shutdown_with_deep_backlog_drains_everything() {
    let catalog = Arc::new(SketchCatalog::unbounded());
    let pool = RefreshPool::new(Arc::clone(&catalog), 3, None).unwrap();
    let tenant = TenantId::new("t");
    let dataset = DatasetId::new("d");
    let store = Arc::new(MemRunStore::new((0u64..1_000).collect(), 500));
    for _ in 0..50 {
        pool.submit_ingest(&tenant, &dataset, Arc::clone(&store), config(), 1)
            .unwrap();
    }
    // No wait_idle: shutdown itself must drain the 50-deep backlog.
    pool.shutdown();
    assert_eq!(pool.published(), 50);
    assert_eq!(catalog.snapshot(&tenant, &dataset).unwrap().version, 50);
}
