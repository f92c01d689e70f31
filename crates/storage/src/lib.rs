//! Disk-resident data substrate for the OPAQ reproduction.
//!
//! The OPAQ paper assumes "the data size is larger than the size of the
//! memory and the data is disk-resident" and reads it as `r = n/m` *runs* of
//! `m` elements each, where a run fits in main memory.  This crate provides
//! everything the algorithm needs to stream such data:
//!
//! * [`codec`] — fixed-width binary encoding of record keys ([`codec::FixedWidthCodec`]).
//! * [`layout`] — the [`layout::RunLayout`] arithmetic (`n`, `m`, `r`, tail runs).
//! * [`io_stats`] — shared [`io_stats::IoStats`] counters: bytes, calls,
//!   measured wall time and *modelled* disk time.
//! * [`disk_model`] — a simple seek + bandwidth [`disk_model::DiskModel`] used
//!   to reproduce the paper's I/O-bound regime (Tables 11–12) independently of
//!   how fast the host page cache happens to be.
//! * [`run_store`] — the [`run_store::RunStore`] trait: a source of runs.
//! * [`sketch_codec`] — the versioned, checksummed on-disk sketch format
//!   ([`sketch_codec::SketchWire`]), shared by the CLI's persistence and the
//!   serving catalog's spill/reload path.
//! * [`manifest`] — the write-ahead publication log behind the serving
//!   catalog's durable mode ([`manifest::ManifestRecord`],
//!   [`manifest::ManifestWriter`], [`manifest::replay`]): same
//!   magic/version/checksum framing as the sketch codec, with torn-tail
//!   truncation for crash recovery.
//! * [`file_store`] — a file-backed implementation: each run is one seek and
//!   one sequential read through a fixed 256 KiB window, decoded straight
//!   into the caller's buffer, so no second run-sized buffer exists.
//! * [`mem_store`] — an in-memory implementation for tests and small inputs.
//!
//! The stores are deliberately *pull*-oriented (`read_run(i) -> Vec<K>`,
//! with the allocation-free twin `read_run_into(i, &mut Vec<K>)` recycling a
//! caller buffer): OPAQ's one-pass structure means each run is read exactly
//! once, processed entirely in memory, and dropped.  The reader owns the
//! buffer and the store owns no thread: a sequential build reads every run
//! into one buffer, and each shard of `opaq-parallel`'s sharded ingest reads
//! its own contiguous runs into its own buffer, so a build holds one run per
//! reading thread.  [`FileRunStore`] serialises reads behind one mutex and
//! each read is one seek plus one sequential read, so the Table 2 cost model
//! charges a read the same whichever thread issues it.  Every store counts
//! buffer reuse vs. allocation in its [`IoStats`].

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod codec;
pub mod disk_model;
pub mod file_store;
pub mod io_stats;
pub mod layout;
pub mod manifest;
pub mod mem_store;
pub mod run_store;
pub mod sketch_codec;

pub use codec::FixedWidthCodec;
pub use disk_model::DiskModel;
pub use file_store::{FileRunStore, FileRunStoreBuilder};
pub use io_stats::{IoStats, IoStatsSnapshot};
pub use layout::RunLayout;
pub use manifest::{version_vector, AppendFault, ManifestRecord, ManifestReplay, ManifestWriter};
pub use mem_store::MemRunStore;
pub use run_store::{RunStore, StorageError, StorageResult};
pub use sketch_codec::SketchWire;
