//! A simple analytical disk model (seek latency + sequential bandwidth).
//!
//! The original experiments ran on IBM SP-2 nodes whose local disks made I/O
//! about half of the total execution time.  Modern NVMe drives and page
//! caches would hide that effect entirely, so the reproduction *models* disk
//! time: every run read is charged one seek plus `bytes / bandwidth`.  The
//! modelled time is accumulated in [`crate::IoStats`] and used by the
//! Table 11/12 experiments; it never slows the actual computation down.

use std::time::Duration;

/// Disk cost model: `time(bytes) = seek + bytes / bandwidth`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiskModel {
    /// Fixed per-operation latency (seek + rotational + controller overhead).
    pub seek: Duration,
    /// Sequential transfer bandwidth in bytes per second.
    pub bandwidth_bytes_per_sec: f64,
}

impl DiskModel {
    /// A model loosely calibrated to a mid-1990s SCSI disk of the kind an
    /// IBM SP-2 node used: ~10 ms average access, ~8 MB/s sequential reads.
    /// With 4–8 byte keys this puts the I/O share of OPAQ's total time at
    /// roughly one half, matching Table 11 of the paper.
    pub fn sp2_node_disk() -> Self {
        Self {
            seek: Duration::from_millis(10),
            bandwidth_bytes_per_sec: 8.0 * 1024.0 * 1024.0,
        }
    }

    /// Modelled time to transfer `bytes` bytes in one sequential operation.
    pub fn transfer_time(&self, bytes: u64) -> Duration {
        assert!(
            self.bandwidth_bytes_per_sec > 0.0,
            "disk bandwidth must be positive"
        );
        let secs = bytes as f64 / self.bandwidth_bytes_per_sec;
        self.seek + Duration::from_secs_f64(secs)
    }
}

impl Default for DiskModel {
    fn default() -> Self {
        Self::sp2_node_disk()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time_is_seek_plus_bandwidth() {
        let model = DiskModel {
            seek: Duration::from_millis(5),
            bandwidth_bytes_per_sec: 1_000_000.0,
        };
        let t = model.transfer_time(2_000_000);
        assert_eq!(t, Duration::from_millis(5) + Duration::from_secs(2));
    }

    #[test]
    fn zero_bytes_costs_one_seek() {
        let model = DiskModel::sp2_node_disk();
        assert_eq!(model.transfer_time(0), model.seek);
    }

    #[test]
    fn default_is_sp2() {
        assert_eq!(DiskModel::default(), DiskModel::sp2_node_disk());
    }

    #[test]
    fn monotone_in_bytes() {
        let m = DiskModel::sp2_node_disk();
        assert!(m.transfer_time(100) < m.transfer_time(10_000));
    }
}
