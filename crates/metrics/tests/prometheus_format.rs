//! The strict Prometheus parser (`prometheus_parser/mod.rs`), run against
//! [`MetricRegistry::render`] output, plus the parser's own rejection suite.
//! The live `/metrics` scrape of a running `opaq serve` is held to the same
//! parser by `opaq-cli`'s `tests/serve_process.rs`.

mod prometheus_parser;

use opaq_metrics::{LatencyHistogram, MetricRegistry};
use prometheus_parser::validate;
use std::sync::Arc;
use std::time::Duration;

#[test]
fn registry_output_passes_the_strict_parser() {
    let reg = MetricRegistry::new();
    let c = reg.counter("opaq_http_requests", "Total requests.");
    c.add(41);
    reg.gauge_with(
        "opaq_replica_breaker_state",
        "Breaker state per replica.",
        &[("peer", "127.0.0.1:7001")],
    )
    .set(1);
    // A label value exercising every legal escape.
    reg.gauge_with(
        "opaq_replica_breaker_state",
        "Breaker state per replica.",
        &[("peer", "a\"b\\c\nd")],
    )
    .set(2);
    let hist = Arc::new(LatencyHistogram::new());
    hist.record(Duration::from_micros(3));
    hist.record(Duration::from_millis(7));
    hist.record(Duration::from_secs(30)); // beyond the ladder: +Inf only
    reg.histogram(
        "opaq_batch_duration_nanos",
        "Batch duration.",
        Arc::clone(&hist),
    );
    for stage in ["request", "fetch"] {
        reg.histogram_with(
            "opaq_stage_duration_nanos",
            "Stage duration.",
            &[("stage", stage)],
            Arc::clone(&hist),
        );
    }

    let text = reg.render();
    let report = validate(&text).unwrap_or_else(|e| panic!("{e}\n---\n{text}"));
    assert_eq!(report.families, 4, "{text}");
    assert_eq!(report.kinds["opaq_http_requests"], "counter");
    assert_eq!(report.kinds["opaq_stage_duration_nanos"], "histogram");
}

#[test]
fn the_parser_rejects_structural_violations() {
    // No trailing newline.
    assert!(validate("# HELP a A.\n# TYPE a counter\na 1").is_err());
    // Sample before its family is announced.
    assert!(validate("a 1\n# HELP a A.\n# TYPE a counter\n").is_err());
    // TYPE without HELP.
    assert!(validate("# TYPE a counter\na 1\n").is_err());
    // Unknown kind.
    assert!(validate("# HELP a A.\n# TYPE a summary\na 1\n").is_err());
    // Duplicate HELP.
    assert!(
        validate("# HELP a A.\n# TYPE a counter\na 1\n# HELP a A.\n# TYPE a counter\n").is_err()
    );
    // Illegal escape in a label value.
    assert!(validate("# HELP a A.\n# TYPE a counter\na{x=\"\\t\"} 1\n").is_err());
    // `le` outside a histogram bucket.
    assert!(validate("# HELP a A.\n# TYPE a counter\na{le=\"1\"} 1\n").is_err());
    // Histogram without the +Inf bucket.
    assert!(validate(
        "# HELP h H.\n# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n"
    )
    .is_err());
    // Non-cumulative buckets.
    assert!(validate(
        "# HELP h H.\n# TYPE h histogram\nh_bucket{le=\"1\"} 2\nh_bucket{le=\"2\"} 1\n\
         h_bucket{le=\"+Inf\"} 1\nh_sum 1\nh_count 1\n"
    )
    .is_err());
    // +Inf disagreeing with _count.
    assert!(validate(
        "# HELP h H.\n# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 2\n\
         h_sum 1\nh_count 3\n"
    )
    .is_err());
    // A well-formed body passes.
    validate(
        "# HELP h H.\n# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 2\n\
         h_sum 40\nh_count 2\n",
    )
    .unwrap();
}
