//! Versioned, checksummed on-disk encoding of quantile sketches.
//!
//! Persisting the sorted sample list is what makes the paper's incremental
//! formulation practical ("if the sorted samples are kept from the runs of
//! the old data…"), and it is what lets the serving layer (`opaq-serve`)
//! keep one durable file per published version, from which an evicted
//! tenant reloads on demand.  The codec lives in the storage crate — below
//! `opaq-core` — so every layer (the CLI's `sketch --out`, the catalog's
//! version files) shares one format and one synced writer; the *semantic*
//! validation (sorted samples, gap sums) stays with
//! `QuantileSketch::assemble` in the core, which consumes the [`SketchWire`]
//! this module decodes.
//!
//! ## Format (version 2)
//!
//! ```text
//! magic    "OPAQSKT"                      7 bytes
//! version  ASCII digit, currently '2'     1 byte
//! checksum FNV-1a 64 over the body        u64 LE      (v2 onward)
//! body:
//!   total_elements, runs, max_gap         3 × u64 LE
//!   dataset_min, dataset_max              2 × K (fixed width)
//!   sample_count                          u64 LE
//!   sample_count × (value K, gap u64)
//! ```
//!
//! Version 1 (the original CLI format, u64 keys only) is identical minus the
//! checksum and is still readable.  Unknown versions fail with the typed
//! [`StorageError::VersionMismatch`] instead of decoding garbage; damaged
//! bytes fail the checksum with [`StorageError::Corrupt`].

use crate::{FixedWidthCodec, StorageError, StorageResult};
use bytes::{Buf, BufMut};
use std::io::{Read, Write};
use std::path::Path;

/// Magic prefix of every persisted sketch, followed by the version digit.
pub const MAGIC: &[u8; 7] = b"OPAQSKT";

/// The format version this build writes.
pub const FORMAT_VERSION: u8 = b'2';

/// The legacy (checksum-less) version this build still reads.
pub const LEGACY_VERSION: u8 = b'1';

/// The structural content of a persisted sketch: metadata plus the sorted
/// `(value, gap)` sample list.  This is the storage-level *wire* view; the
/// core's `QuantileSketch::from_wire` re-validates the semantics (sortedness,
/// gap sums, min/max invariants) on the way back in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SketchWire<K> {
    /// Total number of data elements the sketch summarises (`n`).
    pub total_elements: u64,
    /// Number of runs merged into the sketch (`r`).
    pub runs: u64,
    /// The largest per-sample gap (`⌈m/s⌉` for equal full runs).
    pub max_gap: u64,
    /// The smallest element of the dataset.
    pub dataset_min: K,
    /// The largest element of the dataset.
    pub dataset_max: K,
    /// The sorted sample list as `(value, gap)` pairs.
    pub samples: Vec<(K, u64)>,
}

impl<K: FixedWidthCodec> SketchWire<K> {
    /// Encoded size in bytes (header + checksum + body).
    pub fn encoded_len(&self) -> usize {
        8 + 8 + body_len::<K>(self.samples.len())
    }
}

fn body_len<K: FixedWidthCodec>(samples: usize) -> usize {
    3 * 8 + 2 * K::WIDTH + 8 + samples * (K::WIDTH + 8)
}

/// FNV-1a 64-bit — tiny, dependency-free, and plenty to catch the torn
/// writes and bit rot a persisted sketch can suffer (this is an integrity
/// check, not an authenticity one).  The manifest frames its records with
/// the same checksum.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Serialize a wire sketch into bytes (always the current format version).
pub fn to_bytes<K: FixedWidthCodec>(wire: &SketchWire<K>) -> Vec<u8> {
    let mut body = Vec::with_capacity(body_len::<K>(wire.samples.len()));
    body.put_u64_le(wire.total_elements);
    body.put_u64_le(wire.runs);
    body.put_u64_le(wire.max_gap);
    wire.dataset_min.encode(&mut body);
    wire.dataset_max.encode(&mut body);
    body.put_u64_le(wire.samples.len() as u64);
    for (value, gap) in &wire.samples {
        value.encode(&mut body);
        body.put_u64_le(*gap);
    }

    let mut out = Vec::with_capacity(8 + 8 + body.len());
    out.put_slice(MAGIC);
    out.put_u8(FORMAT_VERSION);
    out.put_u64_le(fnv1a(&body));
    out.put_slice(&body);
    out
}

/// Deserialize a wire sketch, accepting the current and the legacy version.
///
/// # Errors
/// [`StorageError::Corrupt`] for bad magic, truncation, checksum mismatch or
/// trailing bytes; [`StorageError::VersionMismatch`] for a version digit this
/// build does not understand.
pub fn from_bytes<K: FixedWidthCodec>(bytes: &[u8]) -> StorageResult<SketchWire<K>> {
    if bytes.len() < 8 {
        return Err(StorageError::Corrupt(
            "sketch file truncated: shorter than the 8-byte magic/version header".into(),
        ));
    }
    if &bytes[..7] != MAGIC {
        return Err(StorageError::Corrupt(
            "not an OPAQ sketch file (bad magic)".into(),
        ));
    }
    let version = bytes[7];
    let mut body: &[u8] = match version {
        FORMAT_VERSION => {
            if bytes.len() < 16 {
                return Err(StorageError::Corrupt(
                    "sketch file truncated: missing checksum".into(),
                ));
            }
            let declared = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));
            let body = &bytes[16..];
            let actual = fnv1a(body);
            if declared != actual {
                return Err(StorageError::Corrupt(format!(
                    "sketch checksum mismatch: header declares {declared:#018x}, body hashes to \
                     {actual:#018x}"
                )));
            }
            body
        }
        LEGACY_VERSION => &bytes[8..],
        found => {
            return Err(StorageError::VersionMismatch {
                found,
                supported: FORMAT_VERSION,
            })
        }
    };

    let fixed = 3 * 8 + 2 * K::WIDTH + 8;
    if body.len() < fixed {
        return Err(StorageError::Corrupt(format!(
            "sketch file truncated: body holds {} bytes, metadata needs {fixed}",
            body.len()
        )));
    }
    let total_elements = body.get_u64_le();
    let runs = body.get_u64_le();
    let max_gap = body.get_u64_le();
    let dataset_min = K::decode(&mut body);
    let dataset_max = K::decode(&mut body);
    let count = body.get_u64_le() as usize;
    // Divide rather than multiply: `count` comes from the file, and a crafted
    // value could overflow `count * (WIDTH + 8)` past the truncation guard.
    let pair = K::WIDTH + 8;
    if body.remaining() / pair < count {
        return Err(StorageError::Corrupt(format!(
            "sketch file truncated: expected {count} sample points, body holds {}",
            body.remaining() / pair
        )));
    }
    if body.remaining() != count * pair {
        return Err(StorageError::Corrupt(format!(
            "sketch file has {} trailing bytes after the sample list",
            body.remaining() - count * pair
        )));
    }
    let mut samples = Vec::with_capacity(count);
    for _ in 0..count {
        let value = K::decode(&mut body);
        let gap = body.get_u64_le();
        samples.push((value, gap));
    }
    Ok(SketchWire {
        total_elements,
        runs,
        max_gap,
        dataset_min,
        dataset_max,
        samples,
    })
}

/// Wrap an I/O failure with the operation and path it happened on ("open
/// manifest /data/x: …"): "file not found" alone is useless to an operator
/// juggling data directories.
pub(crate) fn io_context(op: &str, path: &Path, e: std::io::Error) -> StorageError {
    StorageError::Io(std::io::Error::new(
        e.kind(),
        format!("{op} {}: {e}", path.display()),
    ))
}

/// Save a wire sketch to `path` (current format version) and sync file
/// data to disk before returning.  The durable catalog writes its version
/// files through it, so the write-ahead manifest never references a file a
/// crash could lose; the CLI's `sketch --out` writes the same bytes.
pub fn save_synced<K: FixedWidthCodec>(
    path: impl AsRef<Path>,
    wire: &SketchWire<K>,
) -> StorageResult<()> {
    let path = path.as_ref();
    let mut file =
        std::fs::File::create(path).map_err(|e| io_context("create sketch file", path, e))?;
    file.write_all(&to_bytes(wire))
        .map_err(|e| io_context("write sketch file", path, e))?;
    file.sync_data()
        .map_err(|e| io_context("sync sketch file", path, e))?;
    Ok(())
}

/// Load a wire sketch from `path`.
pub fn load<K: FixedWidthCodec>(path: impl AsRef<Path>) -> StorageResult<SketchWire<K>> {
    let path = path.as_ref();
    let mut bytes = Vec::new();
    std::fs::File::open(path)
        .map_err(|e| io_context("open sketch file", path, e))?
        .read_to_end(&mut bytes)
        .map_err(|e| io_context("read sketch file", path, e))?;
    from_bytes(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wire() -> SketchWire<u64> {
        SketchWire {
            total_elements: 30,
            runs: 3,
            max_gap: 10,
            dataset_min: 5,
            dataset_max: 900,
            samples: vec![(5, 10), (450, 10), (900, 10)],
        }
    }

    #[test]
    fn round_trip_preserves_everything() {
        let w = wire();
        let bytes = to_bytes(&w);
        assert_eq!(bytes.len(), w.encoded_len());
        assert_eq!(from_bytes::<u64>(&bytes).unwrap(), w);
    }

    #[test]
    fn round_trip_other_key_widths() {
        let w = SketchWire::<u32> {
            total_elements: 2,
            runs: 1,
            max_gap: 1,
            dataset_min: 1,
            dataset_max: 2,
            samples: vec![(1, 1), (2, 1)],
        };
        assert_eq!(from_bytes::<u32>(&to_bytes(&w)).unwrap(), w);
    }

    #[test]
    fn legacy_version_1_still_decodes() {
        let w = wire();
        let mut v1 = Vec::new();
        v1.put_slice(MAGIC);
        v1.put_u8(LEGACY_VERSION);
        v1.put_u64_le(w.total_elements);
        v1.put_u64_le(w.runs);
        v1.put_u64_le(w.max_gap);
        v1.put_u64_le(w.dataset_min);
        v1.put_u64_le(w.dataset_max);
        v1.put_u64_le(w.samples.len() as u64);
        for (value, gap) in &w.samples {
            v1.put_u64_le(*value);
            v1.put_u64_le(*gap);
        }
        assert_eq!(from_bytes::<u64>(&v1).unwrap(), w);
    }

    #[test]
    fn unknown_version_is_a_typed_mismatch() {
        let mut bytes = to_bytes(&wire());
        bytes[7] = b'9';
        let err = from_bytes::<u64>(&bytes).unwrap_err();
        assert!(
            matches!(
                err,
                StorageError::VersionMismatch {
                    found: b'9',
                    supported: FORMAT_VERSION
                }
            ),
            "{err}"
        );
        assert!(err.to_string().contains("version"));
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = to_bytes(&wire());
        bytes[0] = b'X';
        assert!(matches!(
            from_bytes::<u64>(&bytes),
            Err(StorageError::Corrupt(_))
        ));
        assert!(matches!(
            from_bytes::<u64>(b"short"),
            Err(StorageError::Corrupt(_))
        ));
    }

    #[test]
    fn every_flipped_bit_fails_the_checksum() {
        let clean = to_bytes(&wire());
        // Flip one bit in each body byte; the checksum must catch them all
        // (header corruption is caught by the magic/version/checksum checks).
        for i in 16..clean.len() {
            let mut corrupted = clean.clone();
            corrupted[i] ^= 0x40;
            let err = from_bytes::<u64>(&corrupted).unwrap_err();
            assert!(
                matches!(err, StorageError::Corrupt(_)),
                "byte {i} slipped through: {err}"
            );
            assert!(err.to_string().contains("checksum"), "byte {i}: {err}");
        }
    }

    #[test]
    fn truncated_and_trailing_bodies_rejected() {
        let bytes = to_bytes(&wire());
        for cut in [bytes.len() - 1, bytes.len() - 8, 20, 15, 8] {
            assert!(
                from_bytes::<u64>(&bytes[..cut]).is_err(),
                "cut at {cut} must fail"
            );
        }
        // Trailing garbage changes the checksum; with a *recomputed* checksum
        // it must still be rejected structurally.
        let mut padded = bytes.clone();
        padded.extend_from_slice(&[0u8; 4]);
        let fixed = fnv1a(&padded[16..]);
        padded[8..16].copy_from_slice(&fixed.to_le_bytes());
        let err = from_bytes::<u64>(&padded).unwrap_err();
        assert!(err.to_string().contains("trailing"), "{err}");
    }

    #[test]
    fn oversized_declared_count_rejected_without_allocating() {
        let mut bytes = to_bytes(&wire());
        // Overwrite sample_count (body offset 3*8 + 2*8 = 40; header 16).
        bytes[56..64].copy_from_slice(&u64::MAX.to_le_bytes());
        let fixed = fnv1a(&bytes[16..]);
        bytes[8..16].copy_from_slice(&fixed.to_le_bytes());
        let err = from_bytes::<u64>(&bytes).unwrap_err();
        assert!(matches!(err, StorageError::Corrupt(_)), "{err}");
    }

    #[test]
    fn file_round_trip() {
        let mut path = std::env::temp_dir();
        path.push(format!("opaq-sketch-codec-{}.sketch", std::process::id()));
        let w = wire();
        save_synced(&path, &w).unwrap();
        assert_eq!(load::<u64>(&path).unwrap(), w);
        std::fs::remove_file(path).unwrap();
    }
}
