//! Per-shard ingestion statistics for the sharded (multi-threaded) OPAQ
//! ingest path.
//!
//! The sharded ingester in `opaq-parallel` gives each worker thread a
//! contiguous range of runs to read, sample and merge; each worker reports
//! how many runs and elements it absorbed and how long that took
//! ([`ShardStats::busy`]).  The read share of the ingest is in the store's
//! I/O counters, not here.

use crate::TextTable;
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// What one ingestion shard (worker thread) did.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardStats {
    /// Shard index (also the deterministic merge-tree position).
    pub shard: usize,
    /// Number of store runs this shard absorbed.
    pub runs: u64,
    /// Number of data elements this shard absorbed.
    pub elements: u64,
    /// Number of sample points in the shard's local sketch.
    pub sample_points: usize,
    /// Wall-clock time spent reading and sampling runs and merging sample
    /// lists.
    pub busy: Duration,
}

/// Render per-shard statistics as a fixed-width table (one row per shard
/// plus a totals row), for the CLI and the experiment binaries.
pub fn render_shard_table(stats: &[ShardStats]) -> String {
    let mut table = TextTable::new(format!("sharded ingest ({} shards)", stats.len()))
        .header(["shard", "runs", "elements", "samples", "busy"]);
    for s in stats {
        table.row([
            s.shard.to_string(),
            s.runs.to_string(),
            s.elements.to_string(),
            s.sample_points.to_string(),
            format!("{:?}", s.busy),
        ]);
    }
    let total_runs: u64 = stats.iter().map(|s| s.runs).sum();
    let total_elements: u64 = stats.iter().map(|s| s.elements).sum();
    let total_samples: usize = stats.iter().map(|s| s.sample_points).sum();
    let total_busy: Duration = stats.iter().map(|s| s.busy).sum();
    table.row([
        "all".to_string(),
        total_runs.to_string(),
        total_elements.to_string(),
        total_samples.to_string(),
        format!("{total_busy:?}"),
    ]);
    table.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stat(shard: usize, busy_ms: u64) -> ShardStats {
        ShardStats {
            shard,
            runs: 4,
            elements: 4_000,
            sample_points: 400,
            busy: Duration::from_millis(busy_ms),
        }
    }

    #[test]
    fn multi_digit_shard_counts_stay_aligned() {
        // 12 shards: indices go two-digit and the busy column mixes `ms`
        // and `µs` debug formats; every rendered line must still have the
        // same printable width.
        let stats: Vec<ShardStats> = (0..12)
            .map(|i| ShardStats {
                shard: i,
                runs: 10 + i as u64,
                elements: 1_000 * (i as u64 + 1),
                sample_points: 100,
                busy: Duration::from_micros(950 + 137 * i as u64),
            })
            .collect();
        let rendered = render_shard_table(&stats);
        assert!(rendered.contains("12 shards"));
        assert!(rendered.contains("11"), "two-digit shard index present");
        let widths: Vec<usize> = rendered
            .lines()
            .skip(1) // title
            .map(|l| l.chars().count())
            .collect();
        assert!(
            widths.windows(2).all(|w| w[0] == w[1]),
            "shard table misaligned: {widths:?}\n{rendered}"
        );
    }

    #[test]
    fn table_lists_every_shard_and_totals() {
        let rendered = render_shard_table(&[stat(0, 10), stat(1, 12)]);
        assert!(rendered.contains("sharded ingest (2 shards)"));
        assert!(rendered.contains("busy"));
        // One row per shard plus the totals row.
        assert!(rendered.lines().any(|l| l.trim_start().starts_with("0 ")));
        assert!(rendered.lines().any(|l| l.trim_start().starts_with("1 ")));
        assert!(rendered.lines().any(|l| l.trim_start().starts_with("all")));
        assert!(rendered.contains("8000"));
    }
}
