//! Interleaving tests for the catalog's concurrent semantics.
//!
//! The property under test: **a reader always observes a complete published
//! version**.  Structural equality of `QuantileSketch` is the strongest
//! possible form of that check — a snapshot must be *identical* (samples,
//! gaps, metadata, prefix sums) to one specific sketch the writer published,
//! never a mixture — and per-reader version numbers must be monotone,
//! because an epoch swap can only move an entry forward.
//!
//! Each test registers every version's sketch in a side map *before*
//! publishing it, then hammers the catalog from reader threads while the
//! writer (or several) keeps publishing; readers compare every snapshot
//! against the registered original.  The proptest case additionally
//! randomises reader/writer/tenant counts and the eviction budget, so the
//! interleaving space (including evict → reload races on a durable catalog)
//! gets explored across seeds rather than at one hand-picked schedule.

use opaq_core::{IncrementalOpaq, OpaqConfig, QuantileSketch};
use opaq_serve::{CatalogConfig, DatasetId, SketchCatalog, TenantId};
use parking_lot::RwLock;
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A deterministic sketch whose content differs per (tenant, version): any
/// mixture of two versions breaks structural equality with both.
fn version_sketch(tenant: u64, version: u64) -> QuantileSketch<u64> {
    let config = OpaqConfig::builder()
        .run_length(200)
        .sample_size(20)
        .build()
        .unwrap();
    let mut inc = IncrementalOpaq::new(config).unwrap();
    for round in 1..=version {
        let run: Vec<u64> = (0..400)
            .map(|i| (i * 48_271 + tenant * 7_919 + round * 104_729) % (10_000 + version * 1_000))
            .collect();
        inc.add_run(run).unwrap();
    }
    inc.into_sketch().unwrap()
}

type Registry = Arc<RwLock<HashMap<(u64, u64), Arc<QuantileSketch<u64>>>>>;

/// Drive `readers` snapshot threads against a writer publishing
/// `versions` epochs for each of `tenants`, on a catalog with an optional
/// eviction budget (which makes it durable: evicted entries reload from
/// their version files).  Panics on the first torn or regressing
/// observation.
fn hammer(tenants: u64, versions: u64, readers: usize, budget: Option<u64>) {
    let mut data_dir = None;
    let catalog = Arc::new(match budget {
        None => SketchCatalog::unbounded(),
        Some(points) => {
            let dir = std::env::temp_dir().join(format!(
                "opaq-serve-conc-{}-{tenants}-{versions}-{readers}-{points}",
                std::process::id()
            ));
            std::fs::remove_dir_all(&dir).ok();
            data_dir = Some(dir.clone());
            SketchCatalog::new(
                CatalogConfig::builder()
                    .budget_sample_points(points)
                    .data_dir(dir)
                    .build()
                    .unwrap(),
            )
            .unwrap()
        }
    });
    let registry: Registry = Arc::new(RwLock::new(HashMap::new()));
    let ids: Vec<(TenantId, DatasetId)> = (0..tenants)
        .map(|t| (TenantId::new(format!("t{t}")), DatasetId::new("d")))
        .collect();

    // Version 1 of every tenant exists before any reader starts.
    for (t, (tenant, dataset)) in ids.iter().enumerate() {
        let sketch = version_sketch(t as u64, 1);
        registry
            .write()
            .insert((t as u64, 1), Arc::new(sketch.clone()));
        assert_eq!(catalog.publish(tenant, dataset, sketch).unwrap(), 1);
    }

    let done = AtomicBool::new(false);
    let observations = AtomicU64::new(0);
    crossbeam::thread::scope(|scope| {
        for reader in 0..readers {
            let catalog = Arc::clone(&catalog);
            let registry = Arc::clone(&registry);
            let ids = &ids;
            let done = &done;
            let observations = &observations;
            scope.spawn(move |_| {
                let mut last_seen: Vec<u64> = vec![0; ids.len()];
                let mut rng = 0x9e37_79b9u64.wrapping_mul(reader as u64 + 1);
                while !done.load(Ordering::Acquire) {
                    rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1);
                    let t = (rng >> 33) as usize % ids.len();
                    let (tenant, dataset) = &ids[t];
                    let snap = catalog.snapshot(tenant, dataset).unwrap();
                    assert!(
                        snap.version >= last_seen[t],
                        "version regressed: reader {reader} saw {} after {}",
                        snap.version,
                        last_seen[t]
                    );
                    last_seen[t] = snap.version;
                    let expected = registry
                        .read()
                        .get(&(t as u64, snap.version))
                        .cloned()
                        .unwrap_or_else(|| {
                            panic!(
                                "catalog served version {} of tenant {t}, which was never \
                                 published",
                                snap.version
                            )
                        });
                    assert!(
                        *snap.sketch == *expected,
                        "torn read: tenant {t} version {} does not match the published sketch",
                        snap.version
                    );
                    observations.fetch_add(1, Ordering::Relaxed);
                }
            });
        }

        // The writer interleaves tenants and lets readers run between
        // publications.
        for version in 2..=versions {
            for (t, (tenant, dataset)) in ids.iter().enumerate() {
                let sketch = version_sketch(t as u64, version);
                registry
                    .write()
                    .insert((t as u64, version), Arc::new(sketch.clone()));
                let assigned = catalog.publish(tenant, dataset, sketch).unwrap();
                assert_eq!(assigned, version, "epochs must be sequential");
                std::thread::sleep(Duration::from_micros(100));
            }
        }
        // Give readers one more window against the final state — on a
        // loaded host, at least until some reader has been scheduled at all.
        std::thread::sleep(Duration::from_millis(2));
        let deadline = Instant::now() + Duration::from_secs(10);
        while observations.load(Ordering::Relaxed) == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        done.store(true, Ordering::Release);
    })
    .unwrap();

    assert!(
        observations.load(Ordering::Relaxed) > 0,
        "readers must actually have observed snapshots"
    );
    // Every tenant ends on its final, complete version.
    for (t, (tenant, dataset)) in ids.iter().enumerate() {
        let snap = catalog.snapshot(tenant, dataset).unwrap();
        assert_eq!(snap.version, versions);
        assert!(*snap.sketch == version_sketch(t as u64, versions));
    }
    // Accounting sanity: the resident counter must reflect actual sketches
    // (a racing publish/evict interleaving that wrapped the u64 would read
    // as ~1.8e19 here and would also have caused a mass-eviction storm).
    assert!(
        catalog.resident_sample_points() < 1_000_000,
        "resident sample points wrapped: {}",
        catalog.resident_sample_points()
    );
    if let Some(dir) = data_dir {
        std::fs::remove_dir_all(dir).ok();
    }
}

#[test]
fn readers_observe_only_complete_versions_during_refresh() {
    hammer(1, 12, 6, None);
}

#[test]
fn readers_observe_only_complete_versions_with_eviction_churn() {
    // ~60-point sketches with a 100-point budget across 3 tenants: most
    // snapshots race an eviction or a reload of somebody.
    hammer(3, 8, 6, Some(100));
}

#[test]
fn concurrent_publishers_serialize_into_distinct_sequential_epochs() {
    let catalog = Arc::new(SketchCatalog::unbounded());
    let tenant = TenantId::new("race");
    let dataset = DatasetId::new("d");
    let writers = 6u64;
    let per_writer = 10u64;
    let versions = Arc::new(RwLock::new(Vec::<u64>::new()));
    crossbeam::thread::scope(|scope| {
        for w in 0..writers {
            let catalog = Arc::clone(&catalog);
            let versions = Arc::clone(&versions);
            let tenant = tenant.clone();
            let dataset = dataset.clone();
            scope.spawn(move |_| {
                for i in 0..per_writer {
                    let v = catalog
                        .publish(&tenant, &dataset, version_sketch(w, i + 1))
                        .unwrap();
                    versions.write().push(v);
                }
            });
        }
    })
    .unwrap();
    let mut assigned = Arc::try_unwrap(versions).unwrap().into_inner();
    assigned.sort_unstable();
    let expected: Vec<u64> = (1..=writers * per_writer).collect();
    assert_eq!(
        assigned, expected,
        "every publish must get its own sequential epoch"
    );
    let snap = catalog.snapshot(&tenant, &dataset).unwrap();
    assert_eq!(snap.version, writers * per_writer);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Randomised interleavings: reader/writer/tenant counts and the
    /// eviction budget all vary; the complete-version property must hold
    /// for every schedule the host's scheduler produces.
    #[test]
    fn complete_version_property_holds_across_interleavings(
        tenants in 1u64..4,
        versions in 2u64..6,
        readers in 1usize..5,
        budget_sel in 0u8..3,
    ) {
        let budget = match budget_sel {
            0 => None,
            1 => Some(60),  // tight: constant churn
            _ => Some(200), // loose: occasional churn
        };
        hammer(tenants, versions, readers, budget);
    }
}
