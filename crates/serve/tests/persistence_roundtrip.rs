//! Persistence round-trip tests: save → load → identical estimates.
//!
//! The serving catalog trusts the shared sketch codec
//! (`opaq_storage::sketch_codec`) for its durable version files, which are
//! also what an evicted entry reloads from, so this suite pins the
//! end-to-end property: a sketch that travels through the on-disk format
//! answers *every* query identically — structural equality plus
//! estimate-by-estimate comparison — and damaged files surface as typed
//! errors, never as silently-different estimates.

use opaq_core::{OpaqConfig, QuantileSketch};
use opaq_datagen::{DatasetSpec, Distribution};
use opaq_parallel::ShardedOpaq;
use opaq_serve::{CatalogConfig, DatasetId, ServeError, SketchCatalog, TenantId};
use opaq_storage::{sketch_codec, MemRunStore, StorageError};
use std::path::{Path, PathBuf};

fn temp_path(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "opaq-serve-roundtrip-{tag}-{}.sketch",
        std::process::id()
    ));
    p
}

/// A durable catalog in a fresh directory that keeps only the hot entry
/// resident, so every other entry is served from its version file.
fn evicting_catalog(tag: &str) -> (SketchCatalog, PathBuf) {
    let dir = temp_path(tag).with_extension("d");
    std::fs::remove_dir_all(&dir).ok();
    let catalog = SketchCatalog::new(
        CatalogConfig::builder()
            .budget_sample_points(1) // evict everything but the hot entry
            .data_dir(&dir)
            .build()
            .unwrap(),
    )
    .unwrap();
    (catalog, dir)
}

fn sketch_for(spec: &DatasetSpec, threads: usize) -> QuantileSketch<u64> {
    let store = MemRunStore::new(spec.generate(), 2_000);
    let config = OpaqConfig::builder()
        .run_length(2_000)
        .sample_size(200)
        .build()
        .unwrap();
    ShardedOpaq::new(config, threads)
        .unwrap()
        .build_sketch(&store)
        .unwrap()
}

fn probe_phis() -> Vec<f64> {
    (0..=20).map(|i| i as f64 / 20.0).collect()
}

#[test]
fn save_load_preserves_every_estimate_across_distributions_and_threads() {
    let specs = [
        DatasetSpec {
            n: 40_000,
            distribution: Distribution::Uniform { domain: 1 << 31 },
            duplicate_fraction: 0.1,
            seed: 3,
        },
        DatasetSpec {
            n: 40_000,
            distribution: Distribution::Zipf {
                domain: 1 << 20,
                parameter: 0.86,
            },
            duplicate_fraction: 0.3,
            seed: 5,
        },
        DatasetSpec {
            n: 12_345, // tail run: gaps are non-uniform
            distribution: Distribution::ReverseSorted,
            duplicate_fraction: 0.0,
            seed: 7,
        },
    ];
    for (i, spec) in specs.iter().enumerate() {
        for threads in [1usize, 4] {
            let original = sketch_for(spec, threads);
            let path = temp_path(&format!("dist{i}-t{threads}"));
            sketch_codec::save_synced(&path, &original.to_wire()).unwrap();
            let restored = QuantileSketch::from_wire(sketch_codec::load(&path).unwrap()).unwrap();
            std::fs::remove_file(&path).unwrap();

            assert_eq!(restored, original, "structural identity after round trip");
            for phi in probe_phis() {
                assert_eq!(
                    restored.estimate(phi).unwrap(),
                    original.estimate(phi).unwrap(),
                    "phi {phi} differs after round trip (spec {i}, threads {threads})"
                );
            }
            for key in [0u64, 1, 1 << 10, 1 << 20, 1 << 30, u64::MAX] {
                assert_eq!(restored.rank_bounds(key), original.rank_bounds(key));
            }
            assert_eq!(
                restored.estimate_q_quantiles(16).unwrap(),
                original.estimate_q_quantiles(16).unwrap()
            );
        }
    }
}

#[test]
fn catalog_spill_reload_preserves_estimates() {
    let (catalog, dir) = evicting_catalog("spill");

    let spec = DatasetSpec {
        n: 30_000,
        distribution: Distribution::Uniform { domain: 1 << 24 },
        duplicate_fraction: 0.2,
        seed: 11,
    };
    let originals: Vec<QuantileSketch<u64>> =
        (0..3).map(|t| sketch_for(&spec, 1 + t as usize)).collect();
    let ids: Vec<(TenantId, DatasetId)> = (0..3)
        .map(|t| (TenantId::new(format!("tenant{t}")), DatasetId::new("d")))
        .collect();
    for ((tenant, dataset), sketch) in ids.iter().zip(&originals) {
        catalog.publish(tenant, dataset, sketch.clone()).unwrap();
    }
    // With a 1-point budget every non-hot entry was evicted; each snapshot
    // below reloads its version file (evicting its predecessor again).
    assert!(catalog.stats().evictions >= 2);
    for ((tenant, dataset), original) in ids.iter().zip(&originals) {
        let snap = catalog.snapshot(tenant, dataset).unwrap();
        assert_eq!(*snap.sketch, *original);
        for phi in probe_phis() {
            assert_eq!(
                snap.sketch.estimate(phi).unwrap(),
                original.estimate(phi).unwrap()
            );
        }
    }
    assert!(catalog.stats().reloads >= 2);
    std::fs::remove_dir_all(dir).ok();
}

/// The one `.sketch` file in `dir` whose name starts with `tenant`.
fn version_file(dir: &Path, tenant: &str) -> PathBuf {
    let mut found = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| {
            let name = p.file_name().unwrap().to_str().unwrap();
            name.starts_with(&format!("{tenant}--")) && name.ends_with(".sketch")
        });
    let path = found.next().expect("the entry's version file");
    assert!(found.next().is_none(), "one live version per entry");
    path
}

#[test]
fn damaged_files_surface_typed_errors_not_different_estimates() {
    let spec = DatasetSpec {
        n: 10_000,
        distribution: Distribution::Uniform { domain: 1 << 20 },
        duplicate_fraction: 0.1,
        seed: 17,
    };
    let original = sketch_for(&spec, 1);
    let (catalog, dir) = evicting_catalog("damaged");
    let (tenant, dataset) = (TenantId::new("cold"), DatasetId::new("d"));
    let hot = TenantId::new("hot");
    catalog
        .publish(&tenant, &dataset, original.clone())
        .unwrap();
    catalog.publish(&hot, &dataset, original.clone()).unwrap(); // evicts cold
    assert_eq!(catalog.stats().evictions, 1);
    let path = version_file(&dir, "cold");
    let clean = std::fs::read(&path).unwrap();
    assert_eq!(clean, sketch_codec::to_bytes(&original.to_wire()));

    // Bit rot in the body: checksum failure on the reload path.
    let mut corrupt = clean.clone();
    let mid = corrupt.len() / 2;
    corrupt[mid] ^= 0x10;
    std::fs::write(&path, &corrupt).unwrap();
    let err = catalog.snapshot(&tenant, &dataset).unwrap_err();
    assert!(
        matches!(&err, ServeError::Storage(StorageError::Corrupt(_))),
        "{err}"
    );

    // Future format version: typed mismatch.
    let mut future = clean.clone();
    future[7] = b'3';
    std::fs::write(&path, &future).unwrap();
    let err = catalog.snapshot(&tenant, &dataset).unwrap_err();
    assert!(
        matches!(
            &err,
            ServeError::Storage(StorageError::VersionMismatch { found: b'3', .. })
        ),
        "{err}"
    );

    // Neither failed reload made the entry resident; once the bytes are
    // whole again it serves the original estimates.
    assert_eq!(catalog.stats().reloads, 0);
    std::fs::write(&path, &clean).unwrap();
    let snap = catalog.snapshot(&tenant, &dataset).unwrap();
    assert_eq!(*snap.sketch, original);
    assert_eq!(catalog.stats().reloads, 1);
    std::fs::remove_dir_all(dir).ok();
}
