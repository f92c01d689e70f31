//! A typed metric registry rendering valid Prometheus text exposition.
//!
//! One [`MetricRegistry`] is the single source of truth for every metric
//! name the serving stack exports: each family is registered exactly once
//! with its `# HELP` string and type, series are identified by their label
//! pairs, and [`MetricRegistry::render`] produces the `/metrics` body —
//! `# HELP`/`# TYPE` lines on every family, escaped label values, a
//! guaranteed trailing newline, and cumulative `_bucket`/`_sum`/`_count`
//! series for histogram families backed by the crate's log-linear
//! [`LatencyHistogram`]s.
//!
//! Registration order is render order, so scrapes are deterministic; and
//! because callers register families at startup (not lazily on first use),
//! the exposition schema is stable from the very first scrape — a gauge
//! that has never moved renders as `0`, not as absent.
//!
//! Handles ([`Counter`], [`Gauge`]) are cheap `Arc<AtomicU64>` wrappers:
//! clone them out of the registry once and update them lock-free on the
//! hot path, or mirror an external atomic into them at scrape time.

use crate::latency::LatencyHistogram;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Default histogram bucket ladder in nanoseconds: 1µs → 5s, roughly
/// geometric, dense around the 1–100 ms serving SLO band.
pub const DEFAULT_BOUNDS_NANOS: [u64; 14] = [
    1_000,
    4_000,
    16_000,
    64_000,
    250_000,
    1_000_000,
    4_000_000,
    16_000_000,
    50_000_000,
    100_000_000,
    250_000_000,
    1_000_000_000,
    2_500_000_000,
    5_000_000_000,
];

/// A monotonically-increasing counter handle.
///
/// `set` exists for scrape-time mirroring of counters whose source of
/// truth is an existing atomic elsewhere in the stack; mirrored values
/// must themselves be monotone.
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Add one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Overwrite with `v` (scrape-time mirror of an external counter).
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge handle (a value that can go up and down).
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Overwrite with `v`.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Counter,
    Gauge,
    Histogram,
}

impl Kind {
    fn as_str(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

enum SeriesValue {
    Scalar(Arc<AtomicU64>),
    Histogram(Arc<LatencyHistogram>),
}

struct Series {
    labels: Vec<(String, String)>,
    value: SeriesValue,
}

struct Family {
    name: String,
    help: String,
    kind: Kind,
    series: Vec<Series>,
}

/// Typed registry of metric families; see the module docs.
pub struct MetricRegistry {
    families: Mutex<Vec<Family>>,
    /// Bucket ladder used for every histogram family, sorted ascending.
    bounds_nanos: Vec<u64>,
}

impl Default for MetricRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for MetricRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let families = self.families.lock().expect("registry lock");
        f.debug_struct("MetricRegistry")
            .field("families", &families.len())
            .finish()
    }
}

/// `[a-zA-Z_:][a-zA-Z0-9_:]*` — the Prometheus metric-name charset.
fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// `[a-zA-Z_][a-zA-Z0-9_]*` — the Prometheus label-name charset.
fn valid_label_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Escape a label value: `\` → `\\`, `"` → `\"`, newline → `\n`.
fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Escape a HELP string: `\` → `\\`, newline → `\n`.
fn escape_help(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Render `{k="v",...}` (empty string for an unlabeled series).
fn render_labels(labels: &[(String, String)], extra: Option<(&str, &str)>) -> String {
    if labels.is_empty() && extra.is_none() {
        return String::new();
    }
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label_value(v)))
        .collect();
    if let Some((k, v)) = extra {
        parts.push(format!("{k}=\"{}\"", escape_label_value(v)));
    }
    format!("{{{}}}", parts.join(","))
}

impl MetricRegistry {
    /// An empty registry with the [`DEFAULT_BOUNDS_NANOS`] histogram
    /// ladder.
    pub fn new() -> Self {
        Self {
            families: Mutex::new(Vec::new()),
            bounds_nanos: DEFAULT_BOUNDS_NANOS.to_vec(),
        }
    }

    /// The histogram bucket ladder (ascending, `+Inf` implied).
    pub fn bounds_nanos(&self) -> &[u64] {
        &self.bounds_nanos
    }

    /// Find or register the family `name` (panics on a type clash).
    fn family<'a>(
        families: &'a mut Vec<Family>,
        name: &str,
        help: &str,
        kind: Kind,
    ) -> &'a mut Family {
        assert!(valid_metric_name(name), "invalid metric name {name:?}");
        match families.iter().position(|f| f.name == name) {
            Some(i) => {
                let f = &mut families[i];
                assert!(
                    f.kind == kind,
                    "metric {name} registered twice with different types ({} vs {})",
                    f.kind.as_str(),
                    kind.as_str()
                );
                f
            }
            None => {
                families.push(Family {
                    name: name.to_string(),
                    help: help.to_string(),
                    kind,
                    series: Vec::new(),
                });
                families.last_mut().expect("just pushed")
            }
        }
    }

    fn upsert(
        &self,
        name: &str,
        help: &str,
        kind: Kind,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> SeriesValue,
    ) -> Option<Arc<AtomicU64>> {
        for (k, _) in labels {
            assert!(valid_label_name(k), "invalid label name {k:?} on {name}");
            assert!(*k != "le", "label name `le` is reserved on {name}");
        }
        let labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| ((*k).to_string(), (*v).to_string()))
            .collect();
        let mut families = self.families.lock().expect("registry lock");
        let family = Self::family(&mut families, name, help, kind);
        if let Some(existing) = family.series.iter().find(|s| s.labels == labels) {
            return match &existing.value {
                SeriesValue::Scalar(v) => Some(Arc::clone(v)),
                SeriesValue::Histogram(_) => None,
            };
        }
        let value = make();
        let handle = match &value {
            SeriesValue::Scalar(v) => Some(Arc::clone(v)),
            SeriesValue::Histogram(_) => None,
        };
        family.series.push(Series { labels, value });
        handle
    }

    /// Declare a labelled counter family before its first series exists:
    /// it renders (`# HELP`/`# TYPE` only) from the first scrape, keeping
    /// the exposition schema stable.
    pub fn declare_counter(&self, name: &str, help: &str) {
        let mut families = self.families.lock().expect("registry lock");
        Self::family(&mut families, name, help, Kind::Counter);
    }

    /// Declare a labelled gauge family before its first series exists; see
    /// [`Self::declare_counter`].
    pub fn declare_gauge(&self, name: &str, help: &str) {
        let mut families = self.families.lock().expect("registry lock");
        Self::family(&mut families, name, help, Kind::Gauge);
    }

    /// Register (or fetch) an unlabeled counter.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        self.counter_with(name, help, &[])
    }

    /// Register (or fetch) a counter series with the given label pairs.
    pub fn counter_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        Counter(
            self.upsert(name, help, Kind::Counter, labels, || {
                SeriesValue::Scalar(Arc::new(AtomicU64::new(0)))
            })
            .expect("counter series holds a scalar"),
        )
    }

    /// Register (or fetch) an unlabeled gauge.
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        self.gauge_with(name, help, &[])
    }

    /// Register (or fetch) a gauge series with the given label pairs.
    pub fn gauge_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        Gauge(
            self.upsert(name, help, Kind::Gauge, labels, || {
                SeriesValue::Scalar(Arc::new(AtomicU64::new(0)))
            })
            .expect("gauge series holds a scalar"),
        )
    }

    /// Register an unlabeled histogram family backed by `hist`.
    pub fn histogram(&self, name: &str, help: &str, hist: Arc<LatencyHistogram>) {
        self.histogram_with(name, help, &[], hist);
    }

    /// Register a histogram series with the given label pairs, backed by
    /// `hist`.  The `le` label is reserved for the renderer.
    pub fn histogram_with(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        hist: Arc<LatencyHistogram>,
    ) {
        self.upsert(name, help, Kind::Histogram, labels, || {
            SeriesValue::Histogram(hist)
        });
    }

    /// Render the full Prometheus text exposition: every registered family
    /// with `# HELP`/`# TYPE`, in registration order, trailing newline
    /// guaranteed.
    pub fn render(&self) -> String {
        let families = self.families.lock().expect("registry lock");
        let mut out = String::new();
        for family in families.iter() {
            out.push_str(&format!(
                "# HELP {} {}\n",
                family.name,
                escape_help(&family.help)
            ));
            out.push_str(&format!(
                "# TYPE {} {}\n",
                family.name,
                family.kind.as_str()
            ));
            for series in &family.series {
                match &series.value {
                    SeriesValue::Scalar(v) => {
                        out.push_str(&format!(
                            "{}{} {}\n",
                            family.name,
                            render_labels(&series.labels, None),
                            v.load(Ordering::Relaxed)
                        ));
                    }
                    SeriesValue::Histogram(hist) => {
                        let export = hist.export(&self.bounds_nanos);
                        for (bound, cumulative) in self.bounds_nanos.iter().zip(&export.cumulative)
                        {
                            out.push_str(&format!(
                                "{}_bucket{} {}\n",
                                family.name,
                                render_labels(&series.labels, Some(("le", &bound.to_string()))),
                                cumulative
                            ));
                        }
                        out.push_str(&format!(
                            "{}_bucket{} {}\n",
                            family.name,
                            render_labels(&series.labels, Some(("le", "+Inf"))),
                            export.count
                        ));
                        out.push_str(&format!(
                            "{}_sum{} {}\n",
                            family.name,
                            render_labels(&series.labels, None),
                            export.sum_nanos
                        ));
                        out.push_str(&format!(
                            "{}_count{} {}\n",
                            family.name,
                            render_labels(&series.labels, None),
                            export.count
                        ));
                    }
                }
            }
        }
        if !out.ends_with('\n') {
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn counters_and_gauges_render_with_help_and_type() {
        let reg = MetricRegistry::new();
        let c = reg.counter("opaq_requests", "Total requests.");
        let g = reg.gauge("opaq_entries", "Catalog entries.");
        c.add(3);
        c.inc();
        g.set(7);
        let text = reg.render();
        assert!(text.contains("# HELP opaq_requests Total requests.\n"));
        assert!(text.contains("# TYPE opaq_requests counter\n"));
        assert!(text.contains("\nopaq_requests 4\n"));
        assert!(text.contains("# TYPE opaq_entries gauge\n"));
        assert!(text.contains("\nopaq_entries 7\n"));
        assert!(text.ends_with('\n'));
    }

    #[test]
    fn preregistered_series_render_zero_before_first_use() {
        let reg = MetricRegistry::new();
        reg.counter("opaq_failovers", "Failovers.");
        assert!(reg.render().contains("opaq_failovers 0\n"), "schema-stable");
    }

    #[test]
    fn declared_families_render_before_their_first_series() {
        let reg = MetricRegistry::new();
        reg.declare_gauge("opaq_lat", "Per-tenant latency.");
        reg.declare_counter("opaq_cnt", "Per-tenant count.");
        assert_eq!(
            reg.render(),
            "# HELP opaq_lat Per-tenant latency.\n# TYPE opaq_lat gauge\n\
             # HELP opaq_cnt Per-tenant count.\n# TYPE opaq_cnt counter\n"
        );
        reg.gauge_with("opaq_lat", "Per-tenant latency.", &[("tenant", "a")])
            .set(3);
        assert!(reg.render().contains("opaq_lat{tenant=\"a\"} 3\n"));
    }

    #[test]
    fn labeled_series_share_a_family_and_escape_values() {
        let reg = MetricRegistry::new();
        let a = reg.gauge_with(
            "opaq_replica_breaker_state",
            "Breaker state per replica.",
            &[("peer", "127.0.0.1:7001")],
        );
        let sum = reg.gauge("opaq_replica_breaker_state", "Breaker state per replica.");
        let weird = reg.gauge_with(
            "opaq_replica_breaker_state",
            "Breaker state per replica.",
            &[("peer", "a\"b\\c\nd")],
        );
        a.set(1);
        sum.set(1);
        weird.set(2);
        let text = reg.render();
        assert_eq!(
            text.matches("# TYPE opaq_replica_breaker_state gauge")
                .count(),
            1,
            "one family, one TYPE line: {text}"
        );
        assert!(text.contains("opaq_replica_breaker_state{peer=\"127.0.0.1:7001\"} 1\n"));
        assert!(text.contains("\nopaq_replica_breaker_state 1\n"));
        assert!(
            text.contains("opaq_replica_breaker_state{peer=\"a\\\"b\\\\c\\nd\"} 2\n"),
            "escaped: {text}"
        );
    }

    #[test]
    fn same_name_and_labels_returns_the_same_handle() {
        let reg = MetricRegistry::new();
        let a = reg.counter("opaq_x", "X.");
        let b = reg.counter("opaq_x", "X.");
        a.inc();
        assert_eq!(b.get(), 1);
        assert_eq!(
            reg.render()
                .lines()
                .filter(|l| l.starts_with("opaq_x "))
                .count(),
            1
        );
    }

    #[test]
    #[should_panic(expected = "different types")]
    fn kind_conflict_panics() {
        let reg = MetricRegistry::new();
        reg.counter("opaq_x", "X.");
        reg.gauge("opaq_x", "X.");
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn invalid_name_panics() {
        MetricRegistry::new().counter("0bad-name", "Bad.");
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn le_label_is_reserved() {
        MetricRegistry::new().gauge_with("opaq_x", "X.", &[("le", "1")]);
    }

    #[test]
    fn histogram_renders_cumulative_buckets_sum_count() {
        let reg = MetricRegistry::new();
        let hist = Arc::new(LatencyHistogram::new());
        reg.histogram(
            "opaq_batch_duration_nanos",
            "Request duration.",
            Arc::clone(&hist),
        );
        hist.record(Duration::from_micros(2)); // 2_000 ns
        hist.record(Duration::from_millis(2)); // 2_000_000 ns
        hist.record(Duration::from_secs(10)); // beyond the ladder: +Inf only
        let text = reg.render();
        assert!(text.contains("# TYPE opaq_batch_duration_nanos histogram\n"));
        assert!(text.contains("opaq_batch_duration_nanos_bucket{le=\"1000\"} 0\n"));
        assert!(text.contains("opaq_batch_duration_nanos_bucket{le=\"4000\"} 1\n"));
        assert!(text.contains("opaq_batch_duration_nanos_bucket{le=\"4000000\"} 2\n"));
        assert!(text.contains("opaq_batch_duration_nanos_bucket{le=\"+Inf\"} 3\n"));
        assert!(text.contains("opaq_batch_duration_nanos_count 3\n"));
        // Sum is exact: 2µs + 2ms + 10s.
        assert!(
            text.contains("opaq_batch_duration_nanos_sum 10002002000\n"),
            "{text}"
        );
        // Buckets are monotone non-decreasing.
        let mut last = 0u64;
        for line in text.lines().filter(|l| l.contains("_bucket")) {
            let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v >= last, "bucket counts must be cumulative: {line}");
            last = v;
        }
    }

    #[test]
    fn labeled_histograms_put_le_last() {
        let reg = MetricRegistry::new();
        let hist = Arc::new(LatencyHistogram::new());
        reg.histogram_with(
            "opaq_stage_duration_nanos",
            "Stage duration.",
            &[("stage", "fetch")],
            hist,
        );
        let text = reg.render();
        assert!(
            text.contains("opaq_stage_duration_nanos_bucket{stage=\"fetch\",le=\"+Inf\"} 0\n"),
            "{text}"
        );
        assert!(text.contains("opaq_stage_duration_nanos_sum{stage=\"fetch\"} 0\n"));
    }

    #[test]
    fn registration_order_is_render_order() {
        let reg = MetricRegistry::new();
        reg.counter("opaq_b", "B.");
        reg.counter("opaq_a", "A.");
        let text = reg.render();
        let b = text.find("# HELP opaq_b").unwrap();
        let a = text.find("# HELP opaq_a").unwrap();
        assert!(b < a, "registration order preserved");
    }
}
