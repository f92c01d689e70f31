//! In-memory [`RunStore`] used by unit tests, examples and small inputs.
//!
//! The data still goes through the same run-partitioned access path as the
//! file store, and the same I/O accounting (with modelled disk time if a
//! [`DiskModel`] is attached), so every algorithm in the workspace can be
//! exercised without touching the filesystem.

use crate::codec::FixedWidthCodec;
use crate::{DiskModel, IoStats, RunLayout, RunStore, StorageError, StorageResult};
use std::time::Duration;

/// A run store backed by a `Vec<K>` held in memory.
#[derive(Debug, Clone)]
pub struct MemRunStore<K> {
    data: Vec<K>,
    layout: RunLayout,
    stats: IoStats,
    disk_model: Option<DiskModel>,
    key_width: usize,
}

impl<K: FixedWidthCodec> MemRunStore<K> {
    /// Create a store over `data` cut into runs of length `m`.
    pub fn new(data: Vec<K>, m: u64) -> Self {
        let layout = RunLayout::new(data.len() as u64, m.min(data.len().max(1) as u64));
        Self {
            data,
            layout,
            stats: IoStats::new(),
            disk_model: None,
            key_width: K::WIDTH,
        }
    }

    /// Attach a [`DiskModel`]; subsequent reads accumulate modelled disk time
    /// in the store's [`IoStats`].
    pub fn with_disk_model(mut self, model: DiskModel) -> Self {
        self.disk_model = Some(model);
        self
    }

    /// Borrow the underlying data (test helper).
    pub fn data(&self) -> &[K] {
        &self.data
    }
}

impl<K: FixedWidthCodec> RunStore<K> for MemRunStore<K> {
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
        let start = self.layout.run_start(run) as usize;
        let len = self.layout.run_len(run) as usize;
        let bytes = (len * self.key_width) as u64;
        let reused = buf.capacity() >= len;
        buf.clear();
        buf.extend_from_slice(&self.data[start..start + len]);
        let modelled = self
            .disk_model
            .map(|m| m.transfer_time(bytes))
            .unwrap_or(Duration::ZERO);
        self.stats.record_read(bytes, Duration::ZERO, modelled);
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

    #[test]
    fn reads_back_runs_in_order() {
        let data: Vec<u64> = (0..1000).collect();
        let store = MemRunStore::new(data.clone(), 128);
        assert_eq!(store.layout().runs(), 8);
        let mut reassembled = Vec::new();
        for run in 0..store.layout().runs() {
            reassembled.extend(store.read_run(run).unwrap());
        }
        assert_eq!(reassembled, data);
    }

    #[test]
    fn tail_run_is_short() {
        let store = MemRunStore::new((0u32..10).collect(), 4);
        assert_eq!(store.read_run(2).unwrap(), vec![8, 9]);
    }

    #[test]
    fn out_of_range_run_errors() {
        let store = MemRunStore::new((0u32..10).collect(), 4);
        let err = store.read_run(3).unwrap_err();
        assert!(matches!(
            err,
            StorageError::RunOutOfRange {
                requested: 3,
                available: 3
            }
        ));
    }

    #[test]
    fn io_stats_count_bytes() {
        let store = MemRunStore::new((0u64..100).collect(), 10);
        let _ = store.read_run(0).unwrap();
        let _ = store.read_run(1).unwrap();
        let s = store.io_stats().snapshot();
        assert_eq!(s.read_calls, 2);
        assert_eq!(s.bytes_read, 2 * 10 * 8);
        assert_eq!(s.modelled, Duration::ZERO);
    }

    #[test]
    fn disk_model_accumulates_modelled_time() {
        let store =
            MemRunStore::new((0u64..100).collect(), 10).with_disk_model(DiskModel::sp2_node_disk());
        let _ = store.read_run(0).unwrap();
        assert!(store.io_stats().snapshot().modelled >= Duration::from_millis(10));
    }

    #[test]
    fn empty_store() {
        let store = MemRunStore::<u64>::new(vec![], 16);
        assert!(store.is_empty());
        assert_eq!(store.layout().runs(), 0);
    }
}
