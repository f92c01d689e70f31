//! The [`RunStore`] trait: a source of disk-resident runs.

use crate::{IoStats, RunLayout};
use std::fmt;

/// Errors surfaced by the storage layer.
#[derive(Debug)]
pub enum StorageError {
    /// An underlying I/O failure.
    Io(std::io::Error),
    /// The store is inconsistent with its declared layout (truncated file,
    /// wrong record width, …).
    Corrupt(String),
    /// A run index outside `0..layout.runs()` was requested.
    RunOutOfRange {
        /// Requested run index.
        requested: u64,
        /// Number of runs actually available.
        available: u64,
    },
    /// The requested `(n, m)` run layout is ill-formed (`m == 0`, or a store
    /// declared over zero keys where the caller requires data).
    InvalidLayout {
        /// Declared number of keys.
        n: u64,
        /// Declared run length.
        m: u64,
        /// What is wrong with the combination.
        reason: String,
    },
    /// A persisted artefact (e.g. a saved sketch) declares a format version
    /// this build does not understand — written by a newer build, or the
    /// version byte itself is damage.  Distinct from [`StorageError::Corrupt`]
    /// so callers can suggest "upgrade" rather than "re-ingest".
    VersionMismatch {
        /// Version byte found in the file.
        found: u8,
        /// Newest format version this build can read.
        supported: u8,
    },
}

impl StorageError {
    /// Shorthand constructor for [`StorageError::InvalidLayout`].
    pub fn invalid_layout(n: u64, m: u64, reason: impl Into<String>) -> Self {
        StorageError::InvalidLayout {
            n,
            m,
            reason: reason.into(),
        }
    }
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io(e) => write!(f, "I/O error: {e}"),
            StorageError::Corrupt(msg) => write!(f, "corrupt run store: {msg}"),
            StorageError::RunOutOfRange {
                requested,
                available,
            } => {
                write!(
                    f,
                    "run {requested} out of range (store has {available} runs)"
                )
            }
            StorageError::InvalidLayout { n, m, reason } => {
                write!(f, "invalid run layout (n = {n}, m = {m}): {reason}")
            }
            StorageError::VersionMismatch { found, supported } => {
                // Versions are ASCII digits on disk; show the digit when the
                // byte is printable, the raw value when it is damage.
                let show = |b: u8| {
                    if b.is_ascii_graphic() {
                        format!("'{}'", b as char)
                    } else {
                        format!("{b:#04x}")
                    }
                };
                write!(
                    f,
                    "unsupported format version {} (newest supported: {})",
                    show(*found),
                    show(*supported)
                )
            }
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> Self {
        StorageError::Io(e)
    }
}

/// Convenience alias used throughout the storage layer.
pub type StorageResult<T> = Result<T, StorageError>;

/// A source of run-partitioned, disk-resident data with key type `K`.
///
/// OPAQ reads each run exactly once; implementations therefore optimise for
/// sequential whole-run reads rather than random record access.
pub trait RunStore<K>: Send + Sync {
    /// The run layout (total elements, run length, number of runs).
    fn layout(&self) -> RunLayout;

    /// Read run `run` (0-based) entirely into memory.
    fn read_run(&self, run: u64) -> StorageResult<Vec<K>>;

    /// Read run `run` into `buf` (cleared first), reusing the buffer's
    /// existing capacity.
    ///
    /// This is the allocation-free twin of [`RunStore::read_run`]: callers
    /// that process one run at a time (the sample phase, each shard of the
    /// sharded ingest) keep recycling the same buffer, so after the first run no
    /// allocation happens on the read path.  The default implementation
    /// falls back to [`RunStore::read_run`] and replaces `buf` wholesale;
    /// [`crate::FileRunStore`] and [`crate::MemRunStore`] override it to
    /// decode straight into the buffer and to record
    /// alloc-vs-reuse counters in their [`IoStats`].
    ///
    /// On error `buf` may be left cleared, but never holds partial garbage.
    fn read_run_into(&self, run: u64, buf: &mut Vec<K>) -> StorageResult<()> {
        *buf = self.read_run(run)?;
        Ok(())
    }

    /// The shared I/O statistics handle for this store.
    fn io_stats(&self) -> &IoStats;

    /// Total number of elements (shorthand for `layout().n()`).
    fn len(&self) -> u64 {
        self.layout().n()
    }

    /// Whether the store holds no elements.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storage_error_display() {
        let e = StorageError::RunOutOfRange {
            requested: 7,
            available: 3,
        };
        assert!(e.to_string().contains("run 7"));
        let e = StorageError::Corrupt("short file".into());
        assert!(e.to_string().contains("short file"));
        let e: StorageError = std::io::Error::new(std::io::ErrorKind::NotFound, "gone").into();
        assert!(e.to_string().contains("gone"));
    }

    #[test]
    fn io_error_has_source() {
        use std::error::Error;
        let e: StorageError = std::io::Error::other("x").into();
        assert!(e.source().is_some());
        assert!(StorageError::Corrupt("y".into()).source().is_none());
    }
}
