//! Sketch persistence: save a [`QuantileSketch<u64>`] to disk and load it
//! back.
//!
//! Persisting the sorted sample list is what makes the paper's incremental
//! formulation practical ("if the sorted samples are kept from the runs of
//! the old data…"): the sketch of yesterday's data is a few kilobytes, so the
//! CLI writes it next to the data file and future runs only sample new runs.
//!
//! The binary format — versioned header, FNV-1a checksum, fixed-width body —
//! lives in [`opaq_storage::sketch_codec`], which also writes the serving
//! catalog's version files; this module only composes that codec with
//! the core's semantic re-validation (`QuantileSketch::from_wire`).  Corrupt
//! files surface as typed [`StorageError::Corrupt`] /
//! [`StorageError::VersionMismatch`] errors, never as garbage decodes.
//!
//! [`StorageError::Corrupt`]: opaq_storage::StorageError::Corrupt
//! [`StorageError::VersionMismatch`]: opaq_storage::StorageError::VersionMismatch

use crate::CliResult;
use opaq_core::QuantileSketch;
use opaq_storage::sketch_codec;
use std::path::Path;

/// Serialize a sketch into bytes (current format version, checksummed).
pub fn to_bytes(sketch: &QuantileSketch<u64>) -> Vec<u8> {
    sketch_codec::to_bytes(&sketch.to_wire())
}

/// Deserialize a sketch from bytes, verifying checksum and invariants.
pub fn from_bytes(bytes: &[u8]) -> CliResult<QuantileSketch<u64>> {
    Ok(QuantileSketch::from_wire(sketch_codec::from_bytes(bytes)?)?)
}

/// Save a sketch to `path`, synced to disk before returning.
pub fn save(sketch: &QuantileSketch<u64>, path: impl AsRef<Path>) -> CliResult<()> {
    Ok(sketch_codec::save_synced(path, &sketch.to_wire())?)
}

/// Load a sketch from `path`.
pub fn load(path: impl AsRef<Path>) -> CliResult<QuantileSketch<u64>> {
    Ok(QuantileSketch::from_wire(sketch_codec::load(path)?)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CliError;
    use opaq_core::{OpaqConfig, OpaqEstimator};
    use opaq_storage::{MemRunStore, StorageError};
    use std::path::PathBuf;

    fn sample_sketch() -> QuantileSketch<u64> {
        let data: Vec<u64> = (0..10_000).map(|i| (i * 48271) % 65_536).collect();
        let store = MemRunStore::new(data, 1_000);
        let config = OpaqConfig::builder()
            .run_length(1_000)
            .sample_size(100)
            .build()
            .unwrap();
        OpaqEstimator::new(config).build_sketch(&store).unwrap()
    }

    fn temp_path(tag: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "opaq-cli-persist-{tag}-{}.sketch",
            std::process::id()
        ));
        p
    }

    #[test]
    fn bytes_round_trip_preserves_everything() {
        let sketch = sample_sketch();
        let restored = from_bytes(&to_bytes(&sketch)).unwrap();
        assert_eq!(restored, sketch);
        assert_eq!(
            restored.estimate(0.5).unwrap().upper,
            sketch.estimate(0.5).unwrap().upper
        );
    }

    #[test]
    fn file_round_trip() {
        let sketch = sample_sketch();
        let path = temp_path("file");
        save(&sketch, &path).unwrap();
        let restored = load(&path).unwrap();
        assert_eq!(restored, sketch);
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn bad_magic_rejected() {
        let err = from_bytes(b"NOTASKETCHFILE_AT_ALL_______________________________________")
            .unwrap_err();
        assert!(err.to_string().contains("magic"));
    }

    #[test]
    fn truncated_body_rejected() {
        let mut bytes = to_bytes(&sample_sketch());
        bytes.truncate(bytes.len() - 8);
        assert!(from_bytes(&bytes).is_err());
    }

    #[test]
    fn corrupted_byte_fails_the_checksum() {
        let mut bytes = to_bytes(&sample_sketch());
        // Flip one bit inside the sample list; the checksum catches it
        // before any semantic validation runs.
        let off = bytes.len() - 4;
        bytes[off] ^= 0x01;
        let err = from_bytes(&bytes).unwrap_err();
        assert!(
            matches!(&err, CliError::Storage(StorageError::Corrupt(_))),
            "{err}"
        );
        assert!(err.to_string().contains("checksum"), "{err}");
    }

    #[test]
    fn future_version_is_a_typed_mismatch() {
        let mut bytes = to_bytes(&sample_sketch());
        bytes[7] = b'7';
        let err = from_bytes(&bytes).unwrap_err();
        assert!(
            matches!(
                &err,
                CliError::Storage(StorageError::VersionMismatch { found: b'7', .. })
            ),
            "{err}"
        );
    }
}
