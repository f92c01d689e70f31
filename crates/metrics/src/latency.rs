//! Lock-free latency/throughput histograms for the sketch-serving layer.
//!
//! The serving subsystem (`opaq-serve`) answers quantile queries from many
//! client threads at once, so its latency instrumentation must be cheap and
//! contention-free: [`LatencyHistogram::record`] is a handful of relaxed
//! atomic operations, safe to share behind an `Arc` across any number of
//! threads with no locking.
//!
//! The histogram uses HdrHistogram-style log-linear buckets: values below
//! [`SUB_BUCKETS`] nanoseconds are counted exactly, and every power-of-two
//! range above that is split into [`SUB_BUCKETS`] linear sub-buckets, so the
//! relative error of a reported quantile is at most `1/SUB_BUCKETS`
//! (≈ 6 % with 16 sub-buckets) across the full `u64` nanosecond range.
//! Fittingly, reading a latency percentile out of the recorded histogram is
//! itself a quantile-phase lookup — the same shape of computation the served
//! sketches perform.

use crate::TextTable;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Linear sub-buckets per power-of-two range (relative error ≤ 1/16).
pub const SUB_BUCKETS: u64 = 16;

const SUB_SHIFT: u32 = 4; // log2(SUB_BUCKETS)
const BUCKETS: usize = ((64 - SUB_SHIFT as usize) + 1) * SUB_BUCKETS as usize;

/// Map a nanosecond value to its bucket index.
fn bucket_index(nanos: u64) -> usize {
    if nanos < SUB_BUCKETS {
        return nanos as usize;
    }
    let exp = 63 - nanos.leading_zeros(); // >= SUB_SHIFT
    let shift = exp - SUB_SHIFT;
    let sub = (nanos >> shift) & (SUB_BUCKETS - 1);
    (((exp - SUB_SHIFT + 1) as u64 * SUB_BUCKETS) + sub) as usize
}

/// Largest nanosecond value that maps into bucket `index` (the value the
/// quantile queries report, so estimates err on the conservative side).
fn bucket_upper_bound(index: usize) -> u64 {
    let index = index as u64;
    if index < SUB_BUCKETS {
        return index;
    }
    let range = index / SUB_BUCKETS - 1; // 0 = [16, 32)
    let sub = index % SUB_BUCKETS;
    let shift = range as u32;
    let base = SUB_BUCKETS << shift;
    let width = 1u64 << shift;
    // The top bucket's exclusive end is 2^64: saturate instead of
    // overflowing (reachable — `record` clamps huge durations to u64::MAX).
    base.checked_add((sub + 1) * width)
        .map_or(u64::MAX, |end| end - 1)
}

/// A thread-safe log-linear histogram of operation latencies.
///
/// All methods take `&self`; recording uses only relaxed atomics, so one
/// histogram can be shared behind an `Arc` by every client thread of a
/// serving workload.  Reads ([`Self::quantile`], [`Self::snapshot`]) are
/// weakly consistent under concurrent writes — fine for reporting.
pub struct LatencyHistogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    total_nanos: AtomicU64,
    max_nanos: AtomicU64,
    min_nanos: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for LatencyHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LatencyHistogram")
            .field("count", &self.count())
            .field("mean", &self.mean())
            .field("max", &self.max())
            .finish()
    }
}

impl LatencyHistogram {
    /// Create an empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            total_nanos: AtomicU64::new(0),
            max_nanos: AtomicU64::new(0),
            min_nanos: AtomicU64::new(u64::MAX),
        }
    }

    /// Record one operation latency.
    pub fn record(&self, latency: Duration) {
        self.record_nanos(latency.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Record one operation latency given in nanoseconds.
    pub fn record_nanos(&self, nanos: u64) {
        self.buckets[bucket_index(nanos)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_nanos.fetch_add(nanos, Ordering::Relaxed);
        self.max_nanos.fetch_max(nanos, Ordering::Relaxed);
        self.min_nanos.fetch_min(nanos, Ordering::Relaxed);
    }

    /// Number of recorded operations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Whether nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.count() == 0
    }

    /// Mean recorded latency (zero when empty).
    pub fn mean(&self) -> Duration {
        let count = self.count();
        if count == 0 {
            return Duration::ZERO;
        }
        Duration::from_nanos(self.total_nanos.load(Ordering::Relaxed) / count)
    }

    /// Largest recorded latency (zero when empty).
    pub fn max(&self) -> Duration {
        Duration::from_nanos(self.max_nanos.load(Ordering::Relaxed))
    }

    /// Smallest recorded latency (zero when empty).
    pub fn min(&self) -> Duration {
        match self.min_nanos.load(Ordering::Relaxed) {
            u64::MAX => Duration::ZERO,
            nanos => Duration::from_nanos(nanos),
        }
    }

    /// The `q`-quantile of the recorded latencies, or `None` when nothing
    /// has been recorded or `q` is NaN — the typed form of
    /// [`Self::quantile`], so callers can distinguish "no data" from "fast".
    ///
    /// Target-rank arithmetic at the edges: `q ≤ 0.0` targets rank 1 (the
    /// minimum-holding bucket), `q ≥ 1.0` targets rank `count` and reports
    /// the *exact* recorded maximum rather than a bucket bound.  Any bucket
    /// answer is additionally clamped to the exact recorded maximum, so a
    /// recording that landed in the saturation bucket (values up to
    /// `u64::MAX` ns, e.g. a clamped `Duration::MAX`) reports the true
    /// maximum instead of the bucket's saturated upper bound.
    pub fn try_quantile(&self, q: f64) -> Option<Duration> {
        let count = self.count();
        if count == 0 || q.is_nan() {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // ceil(q·count) is the 1-based target rank; clamp keeps q = 0.0 at
        // rank 1 and float round-off at q = 1.0 from overshooting `count`.
        let target = ((q * count as f64).ceil() as u64).clamp(1, count);
        if target == count {
            // The top rank is tracked exactly — never report a bucket bound
            // (the saturation bucket's would be u64::MAX) when the true
            // maximum is known.
            return Some(self.max());
        }
        let mut seen = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= target {
                return Some(Duration::from_nanos(
                    bucket_upper_bound(i).min(self.max_nanos.load(Ordering::Relaxed)),
                ));
            }
        }
        // Unreachable when counts are consistent; weakly-consistent reads
        // under concurrent writes may briefly under-count a bucket, in which
        // case the exact maximum is the conservative answer.
        Some(self.max())
    }

    /// The `q`-quantile (`q ∈ [0, 1]`) of the recorded latencies, as the
    /// upper bound of the bucket holding that rank (relative error at most
    /// `1/SUB_BUCKETS`), clamped to the exact recorded maximum.  Zero when
    /// empty; see [`Self::try_quantile`] for the `Option` form.
    pub fn quantile(&self, q: f64) -> Duration {
        self.try_quantile(q).unwrap_or(Duration::ZERO)
    }

    /// Sum of all recorded latencies in nanoseconds (saturating on the
    /// accumulator, like every other counter here).
    pub fn total_nanos(&self) -> u64 {
        self.total_nanos.load(Ordering::Relaxed)
    }

    /// Export the histogram against an ascending ladder of upper bounds
    /// (nanoseconds) for Prometheus `_bucket`/`_sum`/`_count` rendering.
    ///
    /// The internal log-linear buckets are snapshotted **once**, so the
    /// cumulative counts and the total are mutually consistent even under
    /// concurrent recording: the implied `+Inf` bucket always equals
    /// [`HistogramExport::count`].  A log-linear bucket is attributed to a
    /// bound only when the bucket's entire range fits under it, so each
    /// cumulative count is a conservative (never over-stated) "samples ≤
    /// bound" with relative bound error at most `1/SUB_BUCKETS`.
    pub fn export(&self, bounds_nanos: &[u64]) -> HistogramExport {
        let snap: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let mut cumulative = Vec::with_capacity(bounds_nanos.len());
        let mut running = 0u64;
        let mut bucket = 0usize;
        for &bound in bounds_nanos {
            while bucket < snap.len() && bucket_upper_bound(bucket) <= bound {
                running += snap[bucket];
                bucket += 1;
            }
            cumulative.push(running);
        }
        let count = running + snap[bucket..].iter().sum::<u64>();
        HistogramExport {
            cumulative,
            count,
            sum_nanos: self.total_nanos(),
        }
    }

    /// A plain-data summary of the histogram (p50/p90/p99/p999).
    pub fn snapshot(&self) -> LatencySnapshot {
        LatencySnapshot {
            count: self.count(),
            mean: self.mean(),
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p99: self.quantile(0.99),
            p999: self.quantile(0.999),
            max: self.max(),
        }
    }
}

/// One consistent export of a histogram against a bucket-bound ladder;
/// see [`LatencyHistogram::export`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramExport {
    /// Cumulative sample counts, one per requested bound, non-decreasing.
    pub cumulative: Vec<u64>,
    /// Total samples (the implied `+Inf` bucket and the `_count` series).
    pub count: u64,
    /// Sum of all recorded nanoseconds (the `_sum` series).
    pub sum_nanos: u64,
}

/// Plain-data summary of a [`LatencyHistogram`] at one point in time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencySnapshot {
    /// Number of recorded operations.
    pub count: u64,
    /// Mean latency.
    pub mean: Duration,
    /// Median latency.
    pub p50: Duration,
    /// 90th-percentile latency.
    pub p90: Duration,
    /// 99th-percentile latency.
    pub p99: Duration,
    /// 99.9th-percentile latency.
    pub p999: Duration,
    /// Worst recorded latency.
    pub max: Duration,
}

impl LatencySnapshot {
    /// Operations per second over `wall` wall-clock time (0 for zero wall).
    pub fn throughput(&self, wall: Duration) -> f64 {
        if wall.is_zero() {
            0.0
        } else {
            self.count as f64 / wall.as_secs_f64()
        }
    }
}

/// Render labelled latency snapshots (e.g. one row per tenant plus a totals
/// row) as a fixed-width table.
pub fn render_latency_table(title: &str, rows: &[(String, LatencySnapshot)]) -> String {
    let mut table =
        TextTable::new(title).header(["client", "ops", "mean", "p50", "p90", "p99", "p999", "max"]);
    for (label, snap) in rows {
        table.row([
            label.clone(),
            snap.count.to_string(),
            format!("{:?}", snap.mean),
            format!("{:?}", snap.p50),
            format!("{:?}", snap.p90),
            format!("{:?}", snap.p99),
            format!("{:?}", snap.p999),
            format!("{:?}", snap.max),
        ]);
    }
    table.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn bucket_round_trip_bounds_relative_error() {
        for nanos in [0u64, 1, 15, 16, 17, 100, 1_000, 123_456, u64::MAX / 2] {
            let upper = bucket_upper_bound(bucket_index(nanos));
            assert!(upper >= nanos, "upper {upper} < {nanos}");
            // Log-linear resolution: upper bound within 1/SUB_BUCKETS.
            assert!(
                upper as f64 <= nanos as f64 * (1.0 + 1.0 / SUB_BUCKETS as f64) + 1.0,
                "upper {upper} too far above {nanos}"
            );
        }
    }

    #[test]
    fn extreme_values_do_not_overflow() {
        let h = LatencyHistogram::new();
        h.record_nanos(u64::MAX);
        h.record_nanos(u64::MAX - 1);
        h.record(Duration::MAX); // clamps to u64::MAX nanos
        assert_eq!(h.count(), 3);
        assert_eq!(h.quantile(1.0), Duration::from_nanos(u64::MAX));
        assert_eq!(h.snapshot().max, Duration::from_nanos(u64::MAX));
        assert_eq!(bucket_upper_bound(bucket_index(u64::MAX)), u64::MAX);
    }

    #[test]
    fn bucket_indices_are_monotonic_and_in_range() {
        let mut last = 0usize;
        for exp in 0..64 {
            let nanos = 1u64 << exp;
            let idx = bucket_index(nanos);
            assert!(idx >= last);
            assert!(idx < BUCKETS, "index {idx} out of range for 2^{exp}");
            last = idx;
        }
        assert!(bucket_index(u64::MAX) < BUCKETS);
    }

    #[test]
    fn quantiles_of_known_distribution() {
        let h = LatencyHistogram::new();
        for i in 1..=1000u64 {
            h.record_nanos(i * 1_000); // 1µs .. 1ms, uniform
        }
        assert_eq!(h.count(), 1000);
        let p50 = h.quantile(0.5).as_nanos() as f64;
        let p99 = h.quantile(0.99).as_nanos() as f64;
        assert!((p50 - 500_000.0).abs() / 500_000.0 < 0.10, "p50 {p50}");
        assert!((p99 - 990_000.0).abs() / 990_000.0 < 0.10, "p99 {p99}");
        assert_eq!(h.quantile(1.0), h.max());
        assert_eq!(h.max(), Duration::from_nanos(1_000_000));
        assert_eq!(h.min(), Duration::from_nanos(1_000));
        let mean = h.mean().as_nanos() as f64;
        assert!((mean - 500_500.0).abs() / 500_500.0 < 0.01, "mean {mean}");
    }

    #[test]
    fn empty_histogram_reports_zeroes() {
        let h = LatencyHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.5), Duration::ZERO);
        assert_eq!(h.mean(), Duration::ZERO);
        assert_eq!(h.min(), Duration::ZERO);
        assert_eq!(h.snapshot().count, 0);
    }

    #[test]
    fn empty_histogram_quantile_is_typed_none_not_a_bucket_value() {
        let h = LatencyHistogram::new();
        for q in [-1.0, 0.0, 0.5, 1.0, 2.0] {
            assert_eq!(h.try_quantile(q), None, "q={q}");
        }
        assert_eq!(h.try_quantile(f64::NAN), None);
        // After one recording the same calls all have answers.
        h.record_nanos(42);
        assert!(h.try_quantile(0.5).is_some());
        assert_eq!(h.try_quantile(f64::NAN), None, "NaN stays typed-None");
    }

    #[test]
    fn single_recording_pins_rank_arithmetic_at_count_one() {
        // count = 1: every q targets rank 1 = rank count, so every quantile
        // is the one exact recording — no bucket rounding is visible.
        let h = LatencyHistogram::new();
        h.record_nanos(123_457); // deliberately not a bucket boundary
        for q in [0.0, 0.25, 0.5, 0.999, 1.0, -3.0, 7.0] {
            assert_eq!(
                h.try_quantile(q),
                Some(Duration::from_nanos(123_457)),
                "q={q}"
            );
        }
        assert_eq!(h.min(), h.max());
    }

    #[test]
    fn edge_quantiles_clamp_target_ranks() {
        let h = LatencyHistogram::new();
        for nanos in [100u64, 200, 400, 800] {
            h.record_nanos(nanos);
        }
        // q = 0.0 targets rank 1: the answer must cover the minimum without
        // jumping to a later bucket (conservative upper bound of min's own
        // bucket).
        let q0 = h.quantile(0.0).as_nanos() as u64;
        assert!((100..200).contains(&q0), "q0 = {q0}");
        // q = 1.0 targets rank `count` and is the exact maximum.
        assert_eq!(h.quantile(1.0), Duration::from_nanos(800));
        // Out-of-range q clamps instead of panicking or indexing garbage.
        assert_eq!(h.quantile(42.0), h.quantile(1.0));
        assert_eq!(h.quantile(-42.0), h.quantile(0.0));
    }

    #[test]
    fn saturation_bucket_reports_exact_max_not_a_garbage_bound() {
        let h = LatencyHistogram::new();
        // Three huge recordings near the u64 ceiling: all land in the final
        // (saturation) bucket, whose naive upper bound is u64::MAX.
        h.record_nanos(u64::MAX - 2);
        h.record_nanos(u64::MAX - 1);
        h.record_nanos(u64::MAX);
        // Every quantile of this distribution must clamp to the *exact*
        // recorded maximum, not the bucket bound.
        assert_eq!(h.try_quantile(1.0), Some(Duration::from_nanos(u64::MAX)));
        assert_eq!(h.try_quantile(0.5), Some(Duration::from_nanos(u64::MAX)));
        // Mixed with a small value, the saturated tail still reports exactly.
        let mixed = LatencyHistogram::new();
        mixed.record_nanos(1_000);
        mixed.record_nanos(u64::MAX - 5);
        assert_eq!(
            mixed.try_quantile(1.0),
            Some(Duration::from_nanos(u64::MAX - 5)),
            "exact max, not the saturated bucket bound"
        );
        assert_eq!(mixed.try_quantile(0.25), Some(Duration::from_nanos(1_023)));
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = Arc::new(LatencyHistogram::new());
        std::thread::scope(|scope| {
            for t in 0..8 {
                let h = Arc::clone(&h);
                scope.spawn(move || {
                    for i in 0..10_000u64 {
                        h.record_nanos((t * 10_000 + i) % 1_000_000);
                    }
                });
            }
        });
        assert_eq!(h.count(), 80_000);
    }

    #[test]
    fn export_is_cumulative_and_internally_consistent() {
        let h = LatencyHistogram::new();
        h.record_nanos(500); // ≤ 1_000
        h.record_nanos(3_000); // ≤ 4_000
        h.record_nanos(3_500); // ≤ 4_000
        h.record_nanos(9_000_000_000); // beyond every bound
        let bounds = [1_000u64, 4_000, 1_000_000, 5_000_000_000];
        let export = h.export(&bounds);
        assert_eq!(export.cumulative, vec![1, 3, 3, 3]);
        assert_eq!(export.count, 4);
        assert_eq!(export.sum_nanos, 500 + 3_000 + 3_500 + 9_000_000_000);
        assert_eq!(h.total_nanos(), export.sum_nanos);
        // Monotone, and never exceeds the total.
        let mut last = 0;
        for c in &export.cumulative {
            assert!(*c >= last && *c <= export.count);
            last = *c;
        }
        // Empty ladder still exports a consistent count.
        let empty = h.export(&[]);
        assert_eq!(empty.count, 4);
        assert!(empty.cumulative.is_empty());
    }

    #[test]
    fn snapshot_and_table_render() {
        let h = LatencyHistogram::new();
        for i in 1..=100u64 {
            h.record(Duration::from_micros(i));
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 100);
        assert!(snap.p50 <= snap.p99 && snap.p99 <= snap.p999 && snap.p999 <= snap.max);
        assert!(snap.throughput(Duration::from_secs(2)) == 50.0);
        let rendered = render_latency_table("latency", &[("tenant-0".to_string(), snap)]);
        assert!(rendered.contains("tenant-0"));
        assert!(rendered.contains("p999"));
    }
}
