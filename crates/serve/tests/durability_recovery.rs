//! Crash-recovery coverage for the durable catalog: a restarted catalog
//! must rebuild the *exact* entries, versions and TTLs from the write-ahead
//! manifest, every served answer must be byte-for-byte identical to what
//! the pre-crash catalog served, and a crash at **any** byte of a manifest
//! append must recover cleanly to the last committed version.

use opaq_core::{IncrementalOpaq, OpaqConfig, QuantileSketch};
use opaq_serve::{
    CatalogConfig, DatasetId, Freshness, ServeError, SketchCatalog, TenantId, MANIFEST_FILE,
};
use opaq_storage::{sketch_codec, AppendFault, StorageError};
use std::path::PathBuf;
use std::time::Duration;

fn temp_dir(tag: &str) -> PathBuf {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .unwrap()
        .subsec_nanos();
    let dir = std::env::temp_dir().join(format!(
        "opaq-durability-{tag}-{}-{nanos}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn sketch_of(range: std::ops::Range<u64>) -> QuantileSketch<u64> {
    let config = OpaqConfig::builder()
        .run_length(100)
        .sample_size(10)
        .build()
        .unwrap();
    let mut inc = IncrementalOpaq::new(config).unwrap();
    inc.add_run(range.collect()).unwrap();
    inc.into_sketch().unwrap()
}

fn durable(dir: &PathBuf) -> SketchCatalog {
    SketchCatalog::new(CatalogConfig::builder().data_dir(dir).build().unwrap()).unwrap()
}

fn key(t: &str, d: &str) -> (TenantId, DatasetId) {
    (TenantId::from(t), DatasetId::from(d))
}

/// The byte-for-byte identity used throughout: two sketches serve identical
/// answers iff their canonical wire encodings are identical.
fn wire_bytes(sketch: &QuantileSketch<u64>) -> Vec<u8> {
    sketch_codec::to_bytes(&sketch.to_wire())
}

#[test]
fn restart_rebuilds_exact_entries_versions_and_ttls() {
    let dir = temp_dir("rebuild");
    let (t0, d0) = key("tenant-0", "events");
    let (t1, d1) = key("tenant-1", "events");
    let (t2, d2) = key("tenant-2", "events");

    let expected_bytes;
    {
        let catalog = durable(&dir);
        // tenant-0 sees three versions; only the last must survive.
        catalog.publish(&t0, &d0, sketch_of(0..1000)).unwrap();
        catalog.publish(&t0, &d0, sketch_of(0..2000)).unwrap();
        assert_eq!(catalog.publish(&t0, &d0, sketch_of(0..3000)).unwrap(), 3);
        assert_eq!(catalog.publish(&t1, &d1, sketch_of(500..1500)).unwrap(), 1);
        assert_eq!(catalog.publish(&t2, &d2, sketch_of(0..700)).unwrap(), 2 - 1);
        // A TTL that is already expired the moment it applies: if it
        // survives the restart, the recovered entry reports Stale.
        catalog.set_ttl(&t1, &d1, Some(Duration::ZERO)).unwrap();
        expected_bytes = [
            wire_bytes(&catalog.snapshot(&t0, &d0).unwrap().sketch),
            wire_bytes(&catalog.snapshot(&t1, &d1).unwrap().sketch),
            wire_bytes(&catalog.snapshot(&t2, &d2).unwrap().sketch),
        ];
        assert_eq!(catalog.stats().recoveries, 0);
        // 5 publishes + 1 ttl-set.
        assert_eq!(catalog.stats().manifest_records, 6);
    } // "crash": the catalog drops with no orderly shutdown step.

    let recovered = durable(&dir);
    let report = recovered.recovery().expect("durable catalogs report");
    assert_eq!(report.entries, 3);
    assert_eq!(report.records_replayed, 6);
    assert_eq!(report.torn_tail_bytes, 0);
    assert_eq!(report.orphan_spills_removed, 0);
    let stats = recovered.stats();
    assert_eq!(stats.recoveries, 1);
    assert_eq!(stats.manifest_records, 6);
    assert_eq!(stats.entries, 3);

    // Exact versions, exact bytes.
    let s0 = recovered.snapshot(&t0, &d0).unwrap();
    assert_eq!(s0.version, 3);
    assert_eq!(wire_bytes(&s0.sketch), expected_bytes[0]);
    let s1 = recovered.snapshot(&t1, &d1).unwrap();
    assert_eq!(s1.version, 1);
    assert_eq!(wire_bytes(&s1.sketch), expected_bytes[1]);
    // The TTL survived: zero max-age reports stale immediately even though
    // the age clock restarted at recovery.
    assert_eq!(s1.freshness, Freshness::Stale);
    let s2 = recovered.snapshot(&t2, &d2).unwrap();
    assert_eq!(s2.version, 1);
    assert_eq!(wire_bytes(&s2.sketch), expected_bytes[2]);
    // Entries without a TTL are not born stale.
    assert_eq!(s0.freshness, Freshness::Fresh);

    // The version sequence continues where the log left off.
    assert_eq!(recovered.publish(&t0, &d0, sketch_of(0..4000)).unwrap(), 4);
    assert_eq!(recovered.snapshot(&t0, &d0).unwrap().version, 4);

    // And a third incarnation still agrees after the post-recovery publish.
    drop(recovered);
    let third = durable(&dir);
    assert_eq!(third.snapshot(&t0, &d0).unwrap().version, 4);
    assert_eq!(third.stats().recoveries, 1);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn crash_at_every_byte_of_a_manifest_append_recovers_the_committed_version() {
    // First, measure the full length of a publish record by letting the
    // fault keep everything: the record is then complete on disk, which is
    // the "commit landed, ack lost" case — recovery must serve the NEW
    // version even though the publisher saw an error.
    let probe_dir = temp_dir("fault-probe");
    let (t, d) = key("acme", "clicks");
    let v1 = sketch_of(0..1000);
    let v2 = sketch_of(0..2000);
    let record_len = {
        let catalog = durable(&probe_dir);
        catalog.publish(&t, &d, v1.clone()).unwrap();
        let before = std::fs::metadata(probe_dir.join(MANIFEST_FILE))
            .unwrap()
            .len();
        catalog.inject_manifest_fault(AppendFault::TornWrite {
            keep_bytes: usize::MAX,
        });
        catalog.publish(&t, &d, v2.clone()).unwrap_err();
        let after = std::fs::metadata(probe_dir.join(MANIFEST_FILE))
            .unwrap()
            .len();
        (after - before) as usize
    };
    assert!(record_len > 24, "publish record must outgrow its header");
    {
        let recovered = durable(&probe_dir);
        let snap = recovered.snapshot(&t, &d).unwrap();
        assert_eq!(snap.version, 2, "complete record on disk = committed");
        assert_eq!(wire_bytes(&snap.sketch), wire_bytes(&v2));
    }
    std::fs::remove_dir_all(&probe_dir).ok();

    // Now crash at every proper prefix of the append: the record never
    // commits, so recovery must serve version 1 byte-for-byte, truncate
    // exactly the torn bytes, and reap the unannounced sketch file.
    for keep in 0..record_len {
        let dir = temp_dir(&format!("fault-{keep}"));
        {
            let catalog = durable(&dir);
            catalog.publish(&t, &d, v1.clone()).unwrap();
            catalog.inject_manifest_fault(AppendFault::TornWrite { keep_bytes: keep });
            let err = catalog.publish(&t, &d, v2.clone()).unwrap_err();
            assert!(err.to_string().contains("injected"), "keep {keep}: {err}");
            // The failed publish keeps serving the old version.
            let snap = catalog.snapshot(&t, &d).unwrap();
            assert_eq!(snap.version, 1, "keep {keep}");
            assert_eq!(wire_bytes(&snap.sketch), wire_bytes(&v1), "keep {keep}");
        } // crash

        let recovered = durable(&dir);
        let report = recovered.recovery().unwrap();
        assert_eq!(report.torn_tail_bytes, keep as u64, "keep {keep}");
        assert_eq!(report.entries, 1, "keep {keep}");
        let snap = recovered.snapshot(&t, &d).unwrap();
        assert_eq!(snap.version, 1, "keep {keep}");
        assert_eq!(wire_bytes(&snap.sketch), wire_bytes(&v1), "keep {keep}");
        // The next publish retries the same version number and succeeds.
        assert_eq!(recovered.publish(&t, &d, v2.clone()).unwrap(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn orphaned_sketch_files_are_reaped_and_counted_never_leaked() {
    let dir = temp_dir("orphans");
    let (t, d) = key("acme", "clicks");
    {
        let catalog = durable(&dir);
        catalog.publish(&t, &d, sketch_of(0..1000)).unwrap();
    }
    // A crash between "sketch synced" and "manifest appended" leaves files
    // no record references.  Fake two of them (one valid sketch, one junk —
    // adoption is decided by the manifest, not by file contents) plus a
    // non-sketch file that must be left alone.
    sketch_codec::save_synced(
        dir.join("acme--clicks--deadbeef--v9.sketch"),
        &sketch_of(0..10).to_wire(),
    )
    .unwrap();
    std::fs::write(dir.join("stray.sketch"), b"not a sketch at all").unwrap();
    std::fs::write(dir.join("notes.txt"), b"operator scribbles").unwrap();

    let recovered = durable(&dir);
    let report = recovered.recovery().unwrap();
    assert_eq!(report.orphan_spills_removed, 2);
    assert_eq!(recovered.stats().orphan_spills_removed, 2);
    assert_eq!(report.entries, 1);
    // The live entry still serves; the orphans are gone; the stranger file
    // survived.
    assert_eq!(recovered.snapshot(&t, &d).unwrap().version, 1);
    assert!(!dir.join("acme--clicks--deadbeef--v9.sketch").exists());
    assert!(!dir.join("stray.sketch").exists());
    assert!(dir.join("notes.txt").exists());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn damaged_manifest_records_are_typed_corruption_not_silent_loss() {
    let dir = temp_dir("corrupt");
    let (t, d) = key("acme", "clicks");
    {
        let catalog = durable(&dir);
        catalog.publish(&t, &d, sketch_of(0..1000)).unwrap();
    }
    // Flip one bit inside the record body: replay must refuse with a typed
    // Corrupt error instead of rebuilding a guessed catalog.
    let manifest_path = dir.join(MANIFEST_FILE);
    let mut bytes = std::fs::read(&manifest_path).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x40;
    std::fs::write(&manifest_path, &bytes).unwrap();
    let err = SketchCatalog::new(CatalogConfig::builder().data_dir(&dir).build().unwrap())
        .map(|_| ())
        .unwrap_err();
    assert!(
        matches!(err, ServeError::Storage(StorageError::Corrupt(_))),
        "{err}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn durable_eviction_is_a_persistence_tier_not_a_rewrite() {
    let dir = temp_dir("evict");
    // Budget of one 100-point sketch, durable mode: eviction logs a record
    // and drops residency; the publish-time file keeps serving.
    let catalog = SketchCatalog::new(
        CatalogConfig::builder()
            .budget_sample_points(100)
            .data_dir(&dir)
            .build()
            .unwrap(),
    )
    .unwrap();
    let (a, da) = key("a", "data");
    let (b, db) = key("b", "data");
    catalog.publish(&a, &da, sketch_of(0..1000)).unwrap();
    catalog.publish(&b, &db, sketch_of(0..1000)).unwrap(); // evicts a
    let stats = catalog.stats();
    assert_eq!(stats.evictions, 1, "{stats:?}");
    // 2 publishes + 1 evict record.
    assert_eq!(stats.manifest_records, 3, "{stats:?}");
    // Reloading an evicted durable entry keeps its file (it IS the entry's
    // persistence), and re-eviction needs no rewrite.
    let reference = wire_bytes(&sketch_of(0..1000));
    assert_eq!(
        wire_bytes(&catalog.snapshot(&a, &da).unwrap().sketch),
        reference
    );
    assert_eq!(
        wire_bytes(&catalog.snapshot(&b, &db).unwrap().sketch),
        reference
    );
    assert!(catalog.stats().reloads >= 1);

    // A restart after all that churn still rebuilds both entries exactly.
    drop(catalog);
    let recovered = SketchCatalog::new(
        CatalogConfig::builder()
            .budget_sample_points(100)
            .data_dir(&dir)
            .build()
            .unwrap(),
    )
    .unwrap();
    assert_eq!(recovered.recovery().unwrap().entries, 2);
    assert_eq!(
        wire_bytes(&recovered.snapshot(&a, &da).unwrap().sketch),
        reference
    );
    assert_eq!(
        wire_bytes(&recovered.snapshot(&b, &db).unwrap().sketch),
        reference
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn an_eviction_budget_needs_a_data_dir() {
    let err = CatalogConfig::builder()
        .budget_sample_points(100)
        .build()
        .unwrap_err();
    assert!(matches!(err, ServeError::InvalidConfig(_)), "{err}");
    // With a data dir it is fine: the data dir is the one disk tier.
    CatalogConfig::builder()
        .budget_sample_points(100)
        .data_dir("/tmp/opaq-dd")
        .build()
        .unwrap();
}
