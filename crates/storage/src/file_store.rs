//! File-backed [`RunStore`]: the disk-resident substrate proper.
//!
//! Records are stored as densely packed little-endian fixed-width keys in a
//! single binary file.  Runs are contiguous byte ranges, so reading a run is
//! one seek plus one sequential read — exactly the access pattern the
//! paper's cost analysis assumes (`O(n)` to read the data from disk).
//!
//! The paper sizes the run length `m` so that one run fits in main memory,
//! so the read path holds no second run-sized buffer: each run streams
//! through a fixed 256 KiB window and is decoded window by window straight
//! into the caller's key buffer.  [`IoStats`] still records one read per
//! run.

use crate::codec::{encode_slice, FixedWidthCodec};
use crate::{DiskModel, IoStats, RunLayout, RunStore, StorageError, StorageResult};
use parking_lot::Mutex;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Builder for [`FileRunStore`]: writes a dataset to disk run by run.
///
/// ```no_run
/// use opaq_storage::{FileRunStoreBuilder, RunStore};
/// let store = FileRunStoreBuilder::<u64>::new("/tmp/keys.bin", 1_000_000)
///     .unwrap()
///     .append(&(0u64..5_000_000).collect::<Vec<_>>())
///     .unwrap()
///     .finish()
///     .unwrap();
/// assert_eq!(store.layout().runs(), 5);
/// ```
pub struct FileRunStoreBuilder<K> {
    path: PathBuf,
    writer: BufWriter<File>,
    written: u64,
    m: u64,
    stats: IoStats,
    _marker: std::marker::PhantomData<K>,
}

impl<K: FixedWidthCodec> FileRunStoreBuilder<K> {
    /// Start writing a new dataset file at `path` with run length `m`.
    /// An existing file at `path` is truncated.
    ///
    /// # Errors
    /// [`StorageError::InvalidLayout`] if `m == 0`, or an I/O error if the
    /// file cannot be created.
    pub fn new(path: impl AsRef<Path>, m: u64) -> StorageResult<Self> {
        if m == 0 {
            return Err(StorageError::invalid_layout(
                0,
                m,
                "run length m must be positive",
            ));
        }
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(&path)?;
        Ok(Self {
            path,
            writer: BufWriter::with_capacity(1 << 20, file),
            written: 0,
            m,
            stats: IoStats::new(),
            _marker: std::marker::PhantomData,
        })
    }

    /// Append a batch of keys (any size; batches need not align with runs).
    pub fn append(mut self, keys: &[K]) -> StorageResult<Self> {
        let start = Instant::now();
        let bytes = encode_slice(keys);
        self.writer.write_all(&bytes)?;
        self.written += keys.len() as u64;
        self.stats
            .record_write(bytes.len() as u64, start.elapsed(), Duration::ZERO);
        Ok(self)
    }

    /// Flush and produce the readable [`FileRunStore`].
    ///
    /// # Errors
    /// [`StorageError::InvalidLayout`] if no keys were appended: a zero-key
    /// store would have no runs, and every consumer (the sample phase, the
    /// sharded ingester) treats that as a distinct "empty dataset" error
    /// rather than a silently empty store.
    pub fn finish(mut self) -> StorageResult<FileRunStore<K>> {
        if self.written == 0 {
            return Err(StorageError::invalid_layout(
                0,
                self.m,
                format!("no keys appended to {}", self.path.display()),
            ));
        }
        self.writer.flush()?;
        drop(self.writer);
        FileRunStore::open(&self.path, self.written, self.m)
    }
}

/// A read-only, file-backed run store.
#[derive(Debug)]
pub struct FileRunStore<K> {
    path: PathBuf,
    reader: Mutex<Reader>,
    layout: RunLayout,
    stats: IoStats,
    disk_model: Option<DiskModel>,
    _marker: std::marker::PhantomData<K>,
}

/// Bytes a run read moves from the file per call: the window every run
/// streams through, whatever its length.
const READ_WINDOW: usize = 256 << 10;

/// The serialized read state: the file handle plus the read window.  Reads
/// are already serialized by the mutex (one seek + one sequential read at a
/// time is exactly the access pattern the paper's cost model assumes), so
/// the window rides in the same lock and is reused by every run read: at
/// most [`READ_WINDOW`] bytes, however long the runs are.
#[derive(Debug)]
struct Reader {
    file: File,
    window: Vec<u8>,
}

impl<K: FixedWidthCodec> FileRunStore<K> {
    /// Open an existing dataset file containing exactly `n` keys, to be read
    /// as runs of length `m`.  A run length larger than the dataset is
    /// clamped to `n` (a single run), matching [`crate::MemRunStore`].
    ///
    /// # Errors
    /// [`StorageError::InvalidLayout`] if `n == 0` (a store over zero keys
    /// has no runs to read — callers that want "no data yet" should not
    /// open a file for it) or `m == 0`; [`StorageError::Corrupt`] if the
    /// file is shorter or longer than the `n * K::WIDTH` bytes the layout
    /// declares.
    pub fn open(path: impl AsRef<Path>, n: u64, m: u64) -> StorageResult<Self> {
        let path = path.as_ref().to_path_buf();
        if n == 0 {
            return Err(StorageError::invalid_layout(
                n,
                m,
                format!(
                    "cannot open {} as a run store over zero keys",
                    path.display()
                ),
            ));
        }
        let layout = RunLayout::try_new(n, m.min(n))?;
        let file = File::open(&path)?;
        let expected = n * K::WIDTH as u64;
        let actual = file.metadata()?.len();
        if actual != expected {
            let kind = if actual < expected {
                "truncated: is"
            } else {
                "oversized: is"
            };
            return Err(StorageError::Corrupt(format!(
                "{} {kind} {actual} bytes, expected {expected} for {n} keys of width {}",
                path.display(),
                K::WIDTH
            )));
        }
        Ok(Self {
            path,
            reader: Mutex::new(Reader {
                file,
                window: Vec::new(),
            }),
            layout,
            stats: IoStats::new(),
            disk_model: None,
            _marker: std::marker::PhantomData,
        })
    }

    /// Attach a [`DiskModel`]; subsequent reads accumulate modelled disk time.
    pub fn with_disk_model(mut self, model: DiskModel) -> Self {
        self.disk_model = Some(model);
        self
    }

    /// The path of the underlying file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Remove the underlying file (cleanup helper for experiments).
    pub fn remove_file(self) -> StorageResult<()> {
        std::fs::remove_file(&self.path)?;
        Ok(())
    }
}

impl<K: FixedWidthCodec> RunStore<K> for FileRunStore<K> {
    fn layout(&self) -> RunLayout {
        self.layout
    }

    fn read_run(&self, run: u64) -> StorageResult<Vec<K>> {
        let mut keys = Vec::new();
        self.read_run_into(run, &mut keys)?;
        Ok(keys)
    }

    fn read_run_into(&self, run: u64, buf: &mut Vec<K>) -> StorageResult<()> {
        if run >= self.layout.runs() {
            return Err(StorageError::RunOutOfRange {
                requested: run,
                available: self.layout.runs(),
            });
        }
        let start = Instant::now();
        let offset = self.layout.run_start(run) * K::WIDTH as u64;
        let len = self.layout.run_len(run) as usize;
        let byte_len = len * K::WIDTH;
        let reused = buf.capacity() >= len;
        buf.clear();
        buf.reserve(len);
        {
            let mut reader = self.reader.lock();
            let Reader { file, window } = &mut *reader;
            let per_window = (READ_WINDOW / K::WIDTH).max(1);
            // Resizing only zero-fills bytes the window has not held before.
            window.resize(per_window.min(len) * K::WIDTH, 0);
            let read = file.seek(SeekFrom::Start(offset)).and_then(|_| {
                let mut left = len;
                while left > 0 {
                    let keys = left.min(per_window);
                    let bytes = &mut window[..keys * K::WIDTH];
                    file.read_exact(bytes)?;
                    K::decode_extend(bytes, keys, buf);
                    left -= keys;
                }
                Ok(())
            });
            if let Err(e) = read {
                buf.clear();
                return Err(e.into());
            }
        }
        let modelled = self
            .disk_model
            .map(|m| m.transfer_time(byte_len as u64))
            .unwrap_or(Duration::ZERO);
        self.stats
            .record_read(byte_len as u64, start.elapsed(), modelled);
        self.stats.record_buffer(reused);
        Ok(())
    }

    fn io_stats(&self) -> &IoStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "opaq-storage-test-{tag}-{}-{}.bin",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        p
    }

    #[test]
    fn write_then_read_round_trip() {
        let path = temp_path("roundtrip");
        let data: Vec<u64> = (0..10_000)
            .map(|i: u64| i.wrapping_mul(48271) % 65536)
            .collect();
        let store = FileRunStoreBuilder::<u64>::new(&path, 1024)
            .unwrap()
            .append(&data)
            .unwrap()
            .finish()
            .unwrap();
        assert_eq!(store.layout().runs(), 10);
        let mut back = Vec::new();
        for run in 0..store.layout().runs() {
            back.extend(store.read_run(run).unwrap());
        }
        assert_eq!(back, data);
        store.remove_file().unwrap();
    }

    #[test]
    fn append_in_multiple_batches() {
        let path = temp_path("batches");
        let store = FileRunStoreBuilder::<u32>::new(&path, 7)
            .unwrap()
            .append(&[1, 2, 3])
            .unwrap()
            .append(&[4, 5, 6, 7, 8, 9, 10, 11])
            .unwrap()
            .finish()
            .unwrap();
        assert_eq!(store.len(), 11);
        assert_eq!(store.read_run(0).unwrap(), vec![1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(store.read_run(1).unwrap(), vec![8, 9, 10, 11]);
        store.remove_file().unwrap();
    }

    #[test]
    fn corrupt_file_detected() {
        let path = temp_path("corrupt");
        std::fs::write(&path, [0u8; 12]).unwrap();
        let err = FileRunStore::<u64>::open(&path, 2, 2).unwrap_err();
        assert!(matches!(err, StorageError::Corrupt(_)), "{err}");
        assert!(err.to_string().contains("truncated"), "{err}");
        let err = FileRunStore::<u64>::open(&path, 1, 1).unwrap_err();
        assert!(err.to_string().contains("oversized"), "{err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn degenerate_layouts_are_typed_errors() {
        let path = temp_path("degenerate");
        std::fs::write(&path, [0u8; 16]).unwrap();
        // n = 0: a clean error, not a store that silently yields no runs.
        let err = FileRunStore::<u64>::open(&path, 0, 4).unwrap_err();
        assert!(
            matches!(err, StorageError::InvalidLayout { n: 0, .. }),
            "{err}"
        );
        // m = 0: a clean error, not a panic.
        let err = FileRunStore::<u64>::open(&path, 2, 0).unwrap_err();
        assert!(
            matches!(err, StorageError::InvalidLayout { m: 0, .. }),
            "{err}"
        );
        let Err(err) = FileRunStoreBuilder::<u64>::new(&path, 0) else {
            panic!("builder with m = 0 must fail");
        };
        assert!(
            matches!(err, StorageError::InvalidLayout { m: 0, .. }),
            "{err}"
        );
        // A builder that never saw a key refuses to produce an empty store.
        let err = FileRunStoreBuilder::<u64>::new(&path, 4)
            .unwrap()
            .finish()
            .unwrap_err();
        assert!(
            matches!(err, StorageError::InvalidLayout { n: 0, .. }),
            "{err}"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn oversized_run_length_is_clamped_to_single_run() {
        let path = temp_path("clamp");
        let store = FileRunStoreBuilder::<u64>::new(&path, 1000)
            .unwrap()
            .append(&[1, 2, 3])
            .unwrap()
            .finish()
            .unwrap();
        assert_eq!(store.layout().runs(), 1);
        assert_eq!(store.read_run(0).unwrap(), vec![1, 2, 3]);
        store.remove_file().unwrap();
    }

    #[test]
    fn tail_run_when_m_does_not_divide_n() {
        let path = temp_path("tail");
        let data: Vec<u64> = (0..1037).collect();
        let store = FileRunStoreBuilder::<u64>::new(&path, 100)
            .unwrap()
            .append(&data)
            .unwrap()
            .finish()
            .unwrap();
        assert_eq!(store.layout().runs(), 11);
        assert!(store.layout().has_tail_run());
        assert_eq!(store.read_run(10).unwrap().len(), 37);
        let mut back = Vec::new();
        for run in 0..store.layout().runs() {
            back.extend(store.read_run(run).unwrap());
        }
        assert_eq!(back, data);
        store.remove_file().unwrap();
    }

    #[test]
    fn io_stats_track_bytes_and_calls() {
        let path = temp_path("stats");
        let data: Vec<u64> = (0..100).collect();
        let store = FileRunStoreBuilder::<u64>::new(&path, 25)
            .unwrap()
            .append(&data)
            .unwrap()
            .finish()
            .unwrap();
        for run in 0..4 {
            let _ = store.read_run(run).unwrap();
        }
        let s = store.io_stats().snapshot();
        assert_eq!(s.read_calls, 4);
        assert_eq!(s.bytes_read, 100 * 8);
        store.remove_file().unwrap();
    }

    #[test]
    fn read_run_into_recycles_buffers() {
        let path = temp_path("reuse");
        let data: Vec<u64> = (0..1000).collect();
        let store = FileRunStoreBuilder::<u64>::new(&path, 100)
            .unwrap()
            .append(&data)
            .unwrap()
            .finish()
            .unwrap();
        let mut buf: Vec<u64> = Vec::new();
        let mut back = Vec::new();
        for run in 0..store.layout().runs() {
            store.read_run_into(run, &mut buf).unwrap();
            back.extend_from_slice(&buf);
        }
        assert_eq!(back, data);
        let s = store.io_stats().snapshot();
        // First read allocates; the other nine ride the recycled capacity.
        assert_eq!(s.buffer_allocs, 1);
        assert_eq!(s.buffer_reuses, 9);
        store.remove_file().unwrap();
    }

    #[test]
    fn runs_longer_than_the_window_read_whole_and_count_once() {
        // u32 keys: two full windows and a part per run, so no run's byte
        // length is a multiple of the window, and a short tail run.
        let per_window = READ_WINDOW / 4;
        let m = 2 * per_window + 1_000;
        let data: Vec<u32> = (0..(3 * m + 77) as u32)
            .map(|i| i.wrapping_mul(2_654_435_761))
            .collect();
        let path = temp_path("window");
        let store = FileRunStoreBuilder::<u32>::new(&path, m as u64)
            .unwrap()
            .append(&data)
            .unwrap()
            .finish()
            .unwrap();
        assert_eq!(store.layout().runs(), 4);
        let mut buf = Vec::new();
        for (run, expected) in data.chunks(m).enumerate() {
            let before = store.io_stats().snapshot();
            store.read_run_into(run as u64, &mut buf).unwrap();
            let after = store.io_stats().snapshot();
            assert_eq!(buf, expected, "run {run}");
            assert_eq!(after.read_calls - before.read_calls, 1, "run {run}");
            assert_eq!(
                after.bytes_read - before.bytes_read,
                4 * expected.len() as u64,
                "run {run}"
            );
        }
        // A file cut short after opening fails the read and leaves the
        // buffer cleared, not holding the windows read before the cut.
        File::options()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(4 * (m + per_window + 5) as u64)
            .unwrap();
        assert!(store.read_run_into(1, &mut buf).is_err());
        assert!(buf.is_empty());
        store.remove_file().unwrap();
    }

    #[test]
    fn disk_model_modelled_time() {
        let path = temp_path("model");
        let data: Vec<u64> = (0..1000).collect();
        let store = FileRunStoreBuilder::<u64>::new(&path, 100)
            .unwrap()
            .append(&data)
            .unwrap()
            .finish()
            .unwrap()
            .with_disk_model(DiskModel::sp2_node_disk());
        let _ = store.read_run(0).unwrap();
        let snap = store.io_stats().snapshot();
        assert!(snap.modelled >= Duration::from_millis(10));
        assert_eq!(snap.effective_io_time(), snap.modelled);
        store.remove_file().unwrap();
    }

    #[test]
    fn out_of_range_run() {
        let path = temp_path("oob");
        let store = FileRunStoreBuilder::<u32>::new(&path, 4)
            .unwrap()
            .append(&[1, 2, 3, 4])
            .unwrap()
            .finish()
            .unwrap();
        assert!(matches!(
            store.read_run(1).unwrap_err(),
            StorageError::RunOutOfRange { .. }
        ));
        store.remove_file().unwrap();
    }
}
