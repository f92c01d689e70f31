//! Write-ahead publication manifest for the serving catalog.
//!
//! The serving layer (`opaq-serve`) swaps sketch versions in memory with an
//! epoch swap; this module is what makes those swaps *durable*.  Every
//! publish, evict and TTL change appends one self-framed record here — synced
//! to disk **before** the in-memory swap — so a restarted process can replay
//! the log and rebuild the exact catalog: entries, sequential versions and
//! TTLs.  The record framing deliberately mirrors [`crate::sketch_codec`]
//! (magic + ASCII version digit + FNV-1a checksum + LE body) so one set of
//! integrity idioms covers every persisted artefact.
//!
//! ## Record format (version 1)
//!
//! ```text
//! magic     "OPAQMAN"                      7 bytes
//! version   ASCII digit, currently '1'     1 byte
//! checksum  FNV-1a 64 over the body        u64 LE
//! body_len                                 u64 LE
//! body:
//!   kind                                   u8  (1 publish, 2 evict, 3 ttl-set)
//!   tenant_len, tenant bytes               u64 LE + UTF-8
//!   dataset_len, dataset bytes             u64 LE + UTF-8
//!   version                                u64 LE
//!   ttl_nanos (u64::MAX = no TTL)          u64 LE
//!   file_len, sketch file name bytes       u64 LE + UTF-8
//! ```
//!
//! Every record kind shares the one body layout (unused fields are zero /
//! empty), which keeps the field-boundary truncation analysis — and the
//! fixture that pins it — exhaustive and simple.
//!
//! ## Crash semantics
//!
//! A crash can leave exactly one *incomplete* record at the tail of the log
//! (appends are sequential and synced).  [`replay`] distinguishes the two
//! failure shapes:
//!
//! * **Torn tail** — the remaining bytes are shorter than the record they
//!   started: expected after a crash, reported via
//!   [`ManifestReplay::torn_tail_bytes`] and truncated away by
//!   [`replay_and_truncate`] so the log is clean for the next writer.
//! * **Corruption** — a *complete* record whose magic, version digit,
//!   checksum or structure is wrong: never produced by a crash, surfaced as
//!   a typed [`StorageError::Corrupt`] (or
//!   [`StorageError::VersionMismatch`]) instead of being silently dropped.

use crate::sketch_codec::{fnv1a, io_context};
use crate::{StorageError, StorageResult};
use bytes::{Buf, BufMut};
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

/// Magic prefix of every manifest record, followed by the version digit.
pub const MANIFEST_MAGIC: &[u8; 7] = b"OPAQMAN";

/// The manifest record version this build writes.
pub const MANIFEST_VERSION: u8 = b'1';

/// Fixed prefix of every record: magic, version, checksum, body length.
pub const HEADER_LEN: usize = 7 + 1 + 8 + 8;

/// Upper bound on a declared body length.  Bodies hold a kind byte, three
/// u64s and three length-prefixed names; anything near this limit is damage,
/// and rejecting it keeps a corrupt length from masquerading as a torn tail
/// (or allocating unbounded memory).
const MAX_BODY_LEN: u64 = 1 << 20;

/// TTL sentinel meaning "never goes stale" — mirrors the catalog's `NO_TTL`.
pub const MANIFEST_NO_TTL: u64 = u64::MAX;

/// One durable catalog state transition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ManifestRecord {
    /// A new sketch version became the entry's servable truth.  The sketch
    /// bytes live in `sketch_file` (relative to the manifest's directory),
    /// synced before this record was appended.
    Publish {
        /// Owning tenant.
        tenant: String,
        /// Dataset within the tenant.
        dataset: String,
        /// The published version (strictly increasing per entry).
        version: u64,
        /// TTL in nanoseconds at publish time; [`MANIFEST_NO_TTL`] for none.
        ttl_nanos: u64,
        /// File name of the persisted sketch, relative to the data dir.
        sketch_file: String,
    },
    /// The entry's resident copy was dropped to its persisted file (the
    /// spill tier); the version is unchanged and still servable from disk.
    Evict {
        /// Owning tenant.
        tenant: String,
        /// Dataset within the tenant.
        dataset: String,
        /// Version that was evicted (still the entry's current version).
        version: u64,
    },
    /// The entry's TTL was changed without publishing a new version.
    TtlSet {
        /// Owning tenant.
        tenant: String,
        /// Dataset within the tenant.
        dataset: String,
        /// New TTL in nanoseconds; [`MANIFEST_NO_TTL`] for none.
        ttl_nanos: u64,
    },
}

impl ManifestRecord {
    /// The record's tenant/dataset key, for replay bookkeeping.
    pub fn key(&self) -> (&str, &str) {
        match self {
            ManifestRecord::Publish {
                tenant, dataset, ..
            }
            | ManifestRecord::Evict {
                tenant, dataset, ..
            }
            | ManifestRecord::TtlSet {
                tenant, dataset, ..
            } => (tenant, dataset),
        }
    }

    fn kind(&self) -> u8 {
        match self {
            ManifestRecord::Publish { .. } => 1,
            ManifestRecord::Evict { .. } => 2,
            ManifestRecord::TtlSet { .. } => 3,
        }
    }
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.put_u64_le(s.len() as u64);
    out.put_slice(s.as_bytes());
}

/// Encode one record into its self-framed byte form.
pub fn encode_record(record: &ManifestRecord) -> Vec<u8> {
    let (tenant, dataset) = record.key();
    let (version, ttl_nanos, sketch_file) = match record {
        ManifestRecord::Publish {
            version,
            ttl_nanos,
            sketch_file,
            ..
        } => (*version, *ttl_nanos, sketch_file.as_str()),
        ManifestRecord::Evict { version, .. } => (*version, 0, ""),
        ManifestRecord::TtlSet { ttl_nanos, .. } => (0, *ttl_nanos, ""),
    };

    let mut body = Vec::new();
    body.put_u8(record.kind());
    put_str(&mut body, tenant);
    put_str(&mut body, dataset);
    body.put_u64_le(version);
    body.put_u64_le(ttl_nanos);
    put_str(&mut body, sketch_file);

    let mut out = Vec::with_capacity(HEADER_LEN + body.len());
    out.put_slice(MANIFEST_MAGIC);
    out.put_u8(MANIFEST_VERSION);
    out.put_u64_le(fnv1a(&body));
    out.put_u64_le(body.len() as u64);
    out.put_slice(&body);
    out
}

fn get_str(body: &mut &[u8], what: &str) -> StorageResult<String> {
    if body.remaining() < 8 {
        return Err(StorageError::Corrupt(format!(
            "manifest record body ends inside the {what} length"
        )));
    }
    let len = body.get_u64_le() as usize;
    if body.remaining() < len {
        return Err(StorageError::Corrupt(format!(
            "manifest record declares a {len}-byte {what} but only {} bytes remain",
            body.remaining()
        )));
    }
    let (head, tail) = body.split_at(len);
    let s = std::str::from_utf8(head)
        .map_err(|_| StorageError::Corrupt(format!("manifest record {what} is not UTF-8")))?
        .to_owned();
    *body = tail;
    Ok(s)
}

/// Decode the record at the front of `bytes`.
///
/// Returns `Ok(Some((record, consumed)))` on success and `Ok(None)` when the
/// bytes are a *prefix* of a record (a torn tail: fewer bytes than the header
/// plus declared body — the expected residue of a crash mid-append).
///
/// # Errors
/// [`StorageError::Corrupt`] for a structurally complete but damaged record
/// (bad magic, checksum mismatch, unknown kind, malformed body) and
/// [`StorageError::VersionMismatch`] for a version digit this build does not
/// understand — damage is never misreported as a torn tail.
pub fn decode_record(bytes: &[u8]) -> StorageResult<Option<(ManifestRecord, usize)>> {
    if bytes.len() >= 7 && &bytes[..7] != MANIFEST_MAGIC {
        // Even a torn record starts with the full magic (appends are
        // sequential), so a wrong prefix is corruption, not a crash.
        return Err(StorageError::Corrupt(
            "not an OPAQ manifest record (bad magic)".into(),
        ));
    }
    if bytes.len() < HEADER_LEN {
        return Ok(None);
    }
    let version = bytes[7];
    if version != MANIFEST_VERSION {
        return Err(StorageError::VersionMismatch {
            found: version,
            supported: MANIFEST_VERSION,
        });
    }
    let declared = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));
    let body_len = u64::from_le_bytes(bytes[16..24].try_into().expect("8 bytes"));
    if body_len > MAX_BODY_LEN {
        return Err(StorageError::Corrupt(format!(
            "manifest record declares an implausible {body_len}-byte body (limit {MAX_BODY_LEN})"
        )));
    }
    let body_len = body_len as usize;
    if bytes.len() < HEADER_LEN + body_len {
        return Ok(None);
    }
    let body = &bytes[HEADER_LEN..HEADER_LEN + body_len];
    let actual = fnv1a(body);
    if declared != actual {
        return Err(StorageError::Corrupt(format!(
            "manifest record checksum mismatch: header declares {declared:#018x}, body hashes to \
             {actual:#018x}"
        )));
    }

    let mut cursor = body;
    if cursor.remaining() < 1 {
        return Err(StorageError::Corrupt(
            "manifest record body is empty".into(),
        ));
    }
    let kind = cursor.get_u8();
    let tenant = get_str(&mut cursor, "tenant")?;
    let dataset = get_str(&mut cursor, "dataset")?;
    if cursor.remaining() < 16 {
        return Err(StorageError::Corrupt(
            "manifest record body ends inside the version/ttl fields".into(),
        ));
    }
    let version = cursor.get_u64_le();
    let ttl_nanos = cursor.get_u64_le();
    let sketch_file = get_str(&mut cursor, "sketch file name")?;
    if cursor.remaining() > 0 {
        return Err(StorageError::Corrupt(format!(
            "manifest record has {} trailing bytes after its fields",
            cursor.remaining()
        )));
    }

    let record = match kind {
        1 => ManifestRecord::Publish {
            tenant,
            dataset,
            version,
            ttl_nanos,
            sketch_file,
        },
        2 => ManifestRecord::Evict {
            tenant,
            dataset,
            version,
        },
        3 => ManifestRecord::TtlSet {
            tenant,
            dataset,
            ttl_nanos,
        },
        other => {
            return Err(StorageError::Corrupt(format!(
                "manifest record has unknown kind {other}"
            )))
        }
    };
    Ok(Some((record, HEADER_LEN + body_len)))
}

/// The result of replaying a manifest log.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ManifestReplay {
    /// Every complete record, in append order.
    pub records: Vec<ManifestRecord>,
    /// Bytes of incomplete record left at the tail by a crash (0 for a
    /// cleanly closed log).
    pub torn_tail_bytes: u64,
}

/// Replay every complete record in `path` without modifying the file.
/// A missing file replays as empty (a fresh data dir has no history yet).
///
/// # Errors
/// Typed [`StorageError::Corrupt`] / [`StorageError::VersionMismatch`] on a
/// damaged complete record; I/O errors with path context.
pub fn replay(path: impl AsRef<Path>) -> StorageResult<ManifestReplay> {
    let path = path.as_ref();
    let bytes = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(io_context("read manifest", path, e)),
    };
    replay_bytes(&bytes)
}

/// Replay an in-memory manifest image (the workhorse behind [`replay`]).
///
/// # Errors
/// Same contract as [`replay`].
pub fn replay_bytes(mut bytes: &[u8]) -> StorageResult<ManifestReplay> {
    let mut out = ManifestReplay::default();
    while !bytes.is_empty() {
        match decode_record(bytes)? {
            Some((record, consumed)) => {
                out.records.push(record);
                bytes = &bytes[consumed..];
            }
            None => {
                out.torn_tail_bytes = bytes.len() as u64;
                break;
            }
        }
    }
    Ok(out)
}

/// Fold a replayed record sequence into its **version vector**: the last
/// published version per `(tenant, dataset)`.  This is the canonical
/// derivation the replication layer reconciles against — `Evict` keeps the
/// version (the entry is still servable from disk) and `TtlSet` is a local
/// serving policy, so only `Publish` records move the vector, and a record
/// sequence replayed on any replica folds to the same vector.
pub fn version_vector(
    records: &[ManifestRecord],
) -> std::collections::BTreeMap<(String, String), u64> {
    let mut vector = std::collections::BTreeMap::new();
    for record in records {
        if let ManifestRecord::Publish {
            tenant,
            dataset,
            version,
            ..
        } = record
        {
            vector.insert((tenant.clone(), dataset.clone()), *version);
        }
    }
    vector
}

/// Replay `path` and, if a torn tail was found, truncate the file back to
/// its last complete record so the next writer appends onto a clean log.
///
/// # Errors
/// Same contract as [`replay`], plus I/O errors from the truncation itself.
pub fn replay_and_truncate(path: impl AsRef<Path>) -> StorageResult<ManifestReplay> {
    let path = path.as_ref();
    let replayed = replay(path)?;
    if replayed.torn_tail_bytes > 0 {
        let file = OpenOptions::new()
            .write(true)
            .open(path)
            .map_err(|e| io_context("open manifest", path, e))?;
        let keep: u64 = replayed
            .records
            .iter()
            .map(|r| encode_record(r).len() as u64)
            .sum();
        file.set_len(keep)
            .map_err(|e| io_context("truncate manifest", path, e))?;
        file.sync_data()
            .map_err(|e| io_context("sync manifest", path, e))?;
    }
    Ok(replayed)
}

/// Fault injected into [`ManifestWriter::append`] to simulate a crash at a
/// manifest-write boundary: the writer persists only the first `keep_bytes`
/// of the encoded record, then fails.  One-shot — the next append is clean.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppendFault {
    /// Persist a `keep_bytes` prefix of the record, then report failure —
    /// exactly the torn tail a power cut mid-append leaves behind.
    TornWrite {
        /// How much of the encoded record reaches disk before the "crash".
        keep_bytes: usize,
    },
}

/// Append-only handle on a manifest log.  Each [`append`](Self::append)
/// writes one framed record and syncs file data before returning: once it
/// returns `Ok`, the record survives a crash.
#[derive(Debug)]
pub struct ManifestWriter {
    file: File,
    path: PathBuf,
    /// Length of the log up to the end of its last complete record.
    committed_len: u64,
    /// Whether a failed append may have left bytes past `committed_len`.
    torn: bool,
    records_appended: u64,
    fault: Option<AppendFault>,
}

impl ManifestWriter {
    /// Open `path` for appending, creating it if absent.  Callers are
    /// expected to have replayed (and truncated) the log first.
    ///
    /// # Errors
    /// I/O errors with path context.
    pub fn open(path: impl Into<PathBuf>) -> StorageResult<Self> {
        let path = path.into();
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| io_context("open manifest", &path, e))?;
        let committed_len = file
            .metadata()
            .map_err(|e| io_context("open manifest", &path, e))?
            .len();
        Ok(ManifestWriter {
            file,
            path,
            committed_len,
            torn: false,
            records_appended: 0,
            fault: None,
        })
    }

    /// Append one record and sync it to disk.  On success the record is
    /// durable.  On failure the log may hold a torn tail: a crash leaves it
    /// for the next replay to truncate, and the next append through this
    /// writer cuts it off first, so a writer that outlives a failed append
    /// keeps writing a log its own replay accepts.
    ///
    /// # Errors
    /// I/O errors with path context (including the injected fault).
    pub fn append(&mut self, record: &ManifestRecord) -> StorageResult<()> {
        if self.torn {
            self.file
                .set_len(self.committed_len)
                .and_then(|()| self.file.sync_data())
                .map_err(|e| io_context("truncate manifest", &self.path, e))?;
            self.torn = false;
        }
        let bytes = encode_record(record);
        // Cleared only once the whole record is durable.
        self.torn = true;
        if let Some(AppendFault::TornWrite { keep_bytes }) = self.fault.take() {
            let keep = keep_bytes.min(bytes.len());
            self.file
                .write_all(&bytes[..keep])
                .and_then(|()| self.file.sync_data())
                .map_err(|e| io_context("append manifest", &self.path, e))?;
            return Err(StorageError::Io(std::io::Error::other(format!(
                "injected torn write: {keep} of {} record bytes persisted to {}",
                bytes.len(),
                self.path.display()
            ))));
        }
        self.file
            .write_all(&bytes)
            .and_then(|()| self.file.sync_data())
            .map_err(|e| io_context("append manifest", &self.path, e))?;
        self.torn = false;
        self.committed_len += bytes.len() as u64;
        self.records_appended += 1;
        Ok(())
    }

    /// Records successfully appended through this handle (not the replayed
    /// history).
    pub fn records_appended(&self) -> u64 {
        self.records_appended
    }

    /// Arm a one-shot fault on the next [`append`](Self::append) — test
    /// instrumentation for crash-recovery coverage.
    pub fn inject_fault(&mut self, fault: AppendFault) {
        self.fault = Some(fault);
    }

    /// The log file this writer appends to.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<ManifestRecord> {
        vec![
            ManifestRecord::Publish {
                tenant: "acme".into(),
                dataset: "clicks".into(),
                version: 1,
                ttl_nanos: 5_000_000_000,
                sketch_file: "acme--clicks--v1.sketch".into(),
            },
            ManifestRecord::TtlSet {
                tenant: "acme".into(),
                dataset: "clicks".into(),
                ttl_nanos: MANIFEST_NO_TTL,
            },
            ManifestRecord::Evict {
                tenant: "acme".into(),
                dataset: "clicks".into(),
                version: 1,
            },
        ]
    }

    fn temp_path(tag: &str) -> PathBuf {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .subsec_nanos();
        std::env::temp_dir().join(format!(
            "opaq-manifest-{tag}-{}-{nanos}.manifest",
            std::process::id()
        ))
    }

    #[test]
    fn every_record_kind_round_trips() {
        for record in sample_records() {
            let bytes = encode_record(&record);
            let (decoded, consumed) = decode_record(&bytes).unwrap().unwrap();
            assert_eq!(decoded, record);
            assert_eq!(consumed, bytes.len());
        }
    }

    #[test]
    fn every_truncation_is_a_torn_tail_not_corruption() {
        for record in sample_records() {
            let bytes = encode_record(&record);
            for cut in 0..bytes.len() {
                let replayed = replay_bytes(&bytes[..cut]).unwrap();
                assert!(replayed.records.is_empty(), "cut at {cut}");
                assert_eq!(replayed.torn_tail_bytes, cut as u64, "cut at {cut}");
            }
        }
    }

    #[test]
    fn every_flipped_bit_in_the_body_fails_the_checksum() {
        let bytes = encode_record(&sample_records()[0]);
        for i in HEADER_LEN..bytes.len() {
            let mut damaged = bytes.clone();
            damaged[i] ^= 0x40;
            let err = decode_record(&damaged).unwrap_err();
            assert!(matches!(err, StorageError::Corrupt(_)), "byte {i}: {err}");
            assert!(err.to_string().contains("checksum"), "byte {i}: {err}");
        }
    }

    #[test]
    fn bad_magic_and_unknown_version_are_typed() {
        let bytes = encode_record(&sample_records()[0]);
        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        assert!(matches!(
            decode_record(&bad_magic),
            Err(StorageError::Corrupt(_))
        ));
        // A wrong magic is corruption even when fewer than HEADER_LEN bytes
        // remain — damage must not hide behind the torn-tail path.
        assert!(matches!(
            decode_record(&bad_magic[..10]),
            Err(StorageError::Corrupt(_))
        ));
        let mut bad_version = bytes.clone();
        bad_version[7] = b'9';
        assert!(matches!(
            decode_record(&bad_version),
            Err(StorageError::VersionMismatch {
                found: b'9',
                supported: MANIFEST_VERSION
            })
        ));
    }

    #[test]
    fn implausible_body_length_is_corruption_not_torn_tail() {
        let mut bytes = encode_record(&sample_records()[0]);
        bytes[16..24].copy_from_slice(&u64::MAX.to_le_bytes());
        let err = decode_record(&bytes).unwrap_err();
        assert!(matches!(err, StorageError::Corrupt(_)), "{err}");
        assert!(err.to_string().contains("implausible"), "{err}");
    }

    #[test]
    fn unknown_kind_and_trailing_bytes_are_corruption() {
        let record = &sample_records()[0];
        let bytes = encode_record(record);
        // Patch the kind byte and re-seal the checksum: structure intact,
        // meaning unknown.
        let mut unknown = bytes.clone();
        unknown[HEADER_LEN] = 9;
        let sum = fnv1a(&unknown[HEADER_LEN..]);
        unknown[8..16].copy_from_slice(&sum.to_le_bytes());
        let err = decode_record(&unknown).unwrap_err();
        assert!(err.to_string().contains("unknown kind"), "{err}");

        // Extend the body by one sealed byte: trailing garbage.
        let mut padded_body = bytes[HEADER_LEN..].to_vec();
        padded_body.push(0);
        let mut padded = Vec::new();
        padded.put_slice(MANIFEST_MAGIC);
        padded.put_u8(MANIFEST_VERSION);
        padded.put_u64_le(fnv1a(&padded_body));
        padded.put_u64_le(padded_body.len() as u64);
        padded.put_slice(&padded_body);
        let err = decode_record(&padded).unwrap_err();
        assert!(err.to_string().contains("trailing"), "{err}");
    }

    #[test]
    fn replay_walks_multiple_records_and_reports_torn_tail() {
        let records = sample_records();
        let mut log = Vec::new();
        for r in &records {
            log.extend_from_slice(&encode_record(r));
        }
        let clean = replay_bytes(&log).unwrap();
        assert_eq!(clean.records, records);
        assert_eq!(clean.torn_tail_bytes, 0);

        let torn_record = encode_record(&records[0]);
        for cut in 1..torn_record.len() {
            let mut torn = log.clone();
            torn.extend_from_slice(&torn_record[..cut]);
            let replayed = replay_bytes(&torn).unwrap();
            assert_eq!(replayed.records, records, "cut at {cut}");
            assert_eq!(replayed.torn_tail_bytes, cut as u64, "cut at {cut}");
        }
    }

    #[test]
    fn writer_appends_and_replay_truncate_round_trip() {
        let path = temp_path("roundtrip");
        let records = sample_records();
        {
            let mut writer = ManifestWriter::open(&path).unwrap();
            for r in &records {
                writer.append(r).unwrap();
            }
            assert_eq!(writer.records_appended(), 3);
        }
        assert_eq!(replay(&path).unwrap().records, records);

        // Simulate a crash: half a record at the tail.
        let torn = encode_record(&records[0]);
        {
            use std::io::Write as _;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&torn[..torn.len() / 2]).unwrap();
        }
        let replayed = replay_and_truncate(&path).unwrap();
        assert_eq!(replayed.records, records);
        assert_eq!(replayed.torn_tail_bytes, (torn.len() / 2) as u64);
        // The file is clean again: a fresh writer appends onto whole records.
        let mut writer = ManifestWriter::open(&path).unwrap();
        writer.append(&records[1]).unwrap();
        let after = replay(&path).unwrap();
        assert_eq!(after.records.len(), 4);
        assert_eq!(after.torn_tail_bytes, 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn injected_fault_leaves_exactly_the_declared_torn_prefix() {
        let record = &sample_records()[0];
        let encoded = encode_record(record);
        for keep in [0, 1, HEADER_LEN - 1, HEADER_LEN, encoded.len() - 1] {
            let path = temp_path(&format!("fault-{keep}"));
            let mut writer = ManifestWriter::open(&path).unwrap();
            writer.inject_fault(AppendFault::TornWrite { keep_bytes: keep });
            let err = writer.append(record).unwrap_err();
            assert!(err.to_string().contains("injected torn write"), "{err}");
            assert_eq!(writer.records_appended(), 0);
            assert_eq!(std::fs::metadata(&path).unwrap().len(), keep as u64);
            let replayed = replay_and_truncate(&path).unwrap();
            assert!(replayed.records.is_empty());
            assert_eq!(replayed.torn_tail_bytes, keep as u64);
            assert_eq!(std::fs::metadata(&path).unwrap().len(), 0);
            // The fault is one-shot: the retry lands cleanly.
            writer.append(record).unwrap();
            assert_eq!(replay(&path).unwrap().records, vec![record.clone()]);
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn an_append_after_a_failed_one_lands_on_the_last_complete_record() {
        let records = sample_records();
        let encoded = encode_record(&records[1]);
        for keep in [0, 1, HEADER_LEN, encoded.len() - 1, encoded.len()] {
            let path = temp_path(&format!("after-fault-{keep}"));
            let mut writer = ManifestWriter::open(&path).unwrap();
            writer.append(&records[0]).unwrap();
            writer.inject_fault(AppendFault::TornWrite { keep_bytes: keep });
            writer.append(&records[1]).unwrap_err();
            writer.append(&records[2]).unwrap();
            let replayed = replay(&path).unwrap();
            assert_eq!(
                replayed.records,
                vec![records[0].clone(), records[2].clone()],
                "keep {keep}"
            );
            assert_eq!(replayed.torn_tail_bytes, 0, "keep {keep}");
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn missing_manifest_replays_as_empty() {
        let replayed = replay(temp_path("missing")).unwrap();
        assert!(replayed.records.is_empty());
        assert_eq!(replayed.torn_tail_bytes, 0);
    }
}
