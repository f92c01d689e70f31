//! A strict Prometheus text-exposition parser, run against
//! [`MetricRegistry::render`] output — and, when `OPAQ_METRICS_FILE` is
//! set, against a real `/metrics` scrape captured by CI's obs-smoke job.
//!
//! "Strict" means structural validity, not just grep-ability: every sample
//! belongs to a family announced by `# HELP` + `# TYPE` *before* it (the
//! pre-registration/schema-stability contract), names and labels match the
//! Prometheus charsets, label values use only the three legal escapes,
//! histogram buckets are cumulative with ascending `le` and `+Inf == _count`,
//! and the body ends in exactly one trailing newline.

use opaq_metrics::{LatencyHistogram, MetricRegistry};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn valid_label_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphabetic() || c == '_')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Parse `{k="v",...}`; returns the label pairs (unescaped) or an error.
fn parse_labels(s: &str) -> Result<Vec<(String, String)>, String> {
    let inner = s
        .strip_prefix('{')
        .and_then(|s| s.strip_suffix('}'))
        .ok_or_else(|| format!("malformed label block {s:?}"))?;
    let mut labels = Vec::new();
    let mut chars = inner.chars().peekable();
    loop {
        let mut name = String::new();
        while let Some(&c) = chars.peek() {
            if c == '=' {
                break;
            }
            name.push(c);
            chars.next();
        }
        if chars.next() != Some('=') || chars.next() != Some('"') {
            return Err(format!("label {name:?} in {s:?} is not followed by =\""));
        }
        if !valid_label_name(&name) {
            return Err(format!("invalid label name {name:?} in {s:?}"));
        }
        let mut value = String::new();
        loop {
            match chars.next() {
                Some('\\') => match chars.next() {
                    Some('\\') => value.push('\\'),
                    Some('"') => value.push('"'),
                    Some('n') => value.push('\n'),
                    other => {
                        return Err(format!("illegal escape \\{other:?} in label block {s:?}"))
                    }
                },
                Some('"') => break,
                Some(c) => value.push(c),
                None => return Err(format!("unterminated label value in {s:?}")),
            }
        }
        labels.push((name, value));
        match chars.next() {
            Some(',') => continue,
            None => break,
            Some(c) => return Err(format!("unexpected {c:?} after a label value in {s:?}")),
        }
    }
    Ok(labels)
}

/// A parsed sample: `(name, labels, value)`.
type Sample = (String, Vec<(String, String)>, f64);

/// Split a sample line into `(name, labels, value)`.
fn parse_sample(line: &str) -> Result<Sample, String> {
    let (series, value) = line
        .rsplit_once(' ')
        .ok_or_else(|| format!("sample line without a value: {line:?}"))?;
    let value: f64 = match value {
        "+Inf" => f64::INFINITY,
        "-Inf" => f64::NEG_INFINITY,
        v => v
            .parse()
            .map_err(|e| format!("unparseable sample value {v:?} on {line:?}: {e}"))?,
    };
    let (name, labels) = match series.find('{') {
        Some(brace) => (series[..brace].to_string(), parse_labels(&series[brace..])?),
        None => (series.to_string(), Vec::new()),
    };
    if !valid_metric_name(&name) {
        return Err(format!("invalid metric name {name:?} on {line:?}"));
    }
    Ok((name, labels, value))
}

#[derive(Default)]
struct Report {
    families: usize,
    samples: usize,
    kinds: HashMap<String, String>,
}

/// Validate a full exposition body; returns family/sample tallies.
fn validate(text: &str) -> Result<Report, String> {
    if !text.ends_with('\n') {
        return Err("exposition must end with a newline".into());
    }
    if text.ends_with("\n\n") {
        return Err("exposition ends with a blank line".into());
    }
    let mut report = Report::default();
    // family name -> kind; HELP seen awaiting its TYPE line.
    let mut pending_help: Option<String> = None;
    // (family, non-le labels) -> (ascending le bounds, cumulative counts)
    type BucketKey = (String, Vec<(String, String)>);
    let mut buckets: HashMap<BucketKey, Vec<(f64, f64)>> = HashMap::new();
    let mut counts: HashMap<BucketKey, f64> = HashMap::new();

    for line in text.lines() {
        if line.is_empty() {
            return Err("blank line inside the exposition".into());
        }
        if let Some(comment) = line.strip_prefix("# ") {
            let mut parts = comment.splitn(3, ' ');
            match (parts.next(), parts.next(), parts.next()) {
                (Some("HELP"), Some(name), help) => {
                    if !valid_metric_name(name) {
                        return Err(format!("HELP for invalid name {name:?}"));
                    }
                    if report.kinds.contains_key(name) {
                        return Err(format!("duplicate HELP for {name}"));
                    }
                    if help.is_none_or(str::is_empty) {
                        return Err(format!("HELP for {name} has no text"));
                    }
                    if pending_help.is_some() {
                        return Err(format!("HELP for {name} while another HELP awaits TYPE"));
                    }
                    pending_help = Some(name.to_string());
                }
                (Some("TYPE"), Some(name), Some(kind)) => {
                    if pending_help.as_deref() != Some(name) {
                        return Err(format!(
                            "TYPE for {name} without an immediately-preceding HELP"
                        ));
                    }
                    pending_help = None;
                    if !matches!(kind, "counter" | "gauge" | "histogram") {
                        return Err(format!("unknown TYPE {kind:?} for {name}"));
                    }
                    report.kinds.insert(name.to_string(), kind.to_string());
                    report.families += 1;
                }
                _ => return Err(format!("unrecognized comment line {line:?}")),
            }
            continue;
        }
        if pending_help.is_some() {
            return Err(format!("sample {line:?} between a HELP and its TYPE"));
        }
        let (name, labels, value) = parse_sample(line)?;
        report.samples += 1;
        // Resolve the sample to its family: exact for scalars, suffixed for
        // histograms.  A sample with no announced family is a schema leak.
        let family = if let Some(kind) = report.kinds.get(&name) {
            if kind == "histogram" {
                return Err(format!("bare sample {name} for a histogram family"));
            }
            name.clone()
        } else {
            let base = ["_bucket", "_sum", "_count"]
                .iter()
                .find_map(|suffix| name.strip_suffix(suffix))
                .ok_or_else(|| format!("sample {name} has no HELP/TYPE before it"))?;
            if report.kinds.get(base).map(String::as_str) != Some("histogram") {
                return Err(format!("sample {name} has no HELP/TYPE before it"));
            }
            base.to_string()
        };
        let le = labels.iter().find(|(k, _)| k == "le").cloned();
        let plain: Vec<(String, String)> =
            labels.iter().filter(|(k, _)| k != "le").cloned().collect();
        if name.ends_with("_bucket") && report.kinds.get(&family).is_some_and(|k| k == "histogram")
        {
            let (_, le) = le.ok_or_else(|| format!("bucket sample without le: {line:?}"))?;
            let bound = if le == "+Inf" {
                f64::INFINITY
            } else {
                le.parse()
                    .map_err(|e| format!("unparseable le {le:?} on {line:?}: {e}"))?
            };
            buckets
                .entry((family.clone(), plain))
                .or_default()
                .push((bound, value));
        } else {
            if le.is_some() {
                return Err(format!("`le` label outside a bucket sample: {line:?}"));
            }
            if name.ends_with("_count") && report.kinds[&family] == "histogram" {
                counts.insert((family.clone(), plain), value);
            }
            if value < 0.0 && report.kinds[&family] == "counter" {
                return Err(format!("negative counter sample {line:?}"));
            }
        }
    }
    if let Some(name) = pending_help {
        return Err(format!("HELP for {name} never followed by TYPE"));
    }
    for ((family, labels), series) in &buckets {
        let mut last_bound = f64::NEG_INFINITY;
        let mut last_count = 0.0;
        for (bound, count) in series {
            if *bound <= last_bound {
                return Err(format!("{family}{labels:?}: le bounds not ascending"));
            }
            if *count < last_count {
                return Err(format!("{family}{labels:?}: bucket counts not cumulative"));
            }
            (last_bound, last_count) = (*bound, *count);
        }
        match series.last() {
            Some((bound, count)) if bound.is_infinite() => {
                let total = counts.get(&(family.clone(), labels.clone())).copied();
                if total != Some(*count) {
                    return Err(format!(
                        "{family}{labels:?}: +Inf bucket {count} != _count {total:?}"
                    ));
                }
            }
            _ => return Err(format!("{family}{labels:?}: missing +Inf bucket")),
        }
    }
    Ok(report)
}

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

/// CI hook: when `OPAQ_METRICS_FILE` points at a captured `/metrics` body,
/// hold the *live server's* exposition to the same strict parser, and
/// require the core serving families to be present in the schema.
#[test]
fn scraped_metrics_file_is_valid_when_provided() {
    let Ok(path) = std::env::var("OPAQ_METRICS_FILE") else {
        return;
    };
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("could not read OPAQ_METRICS_FILE {path}: {e}"));
    let report = validate(&text).unwrap_or_else(|e| panic!("{path} failed validation: {e}"));
    for family in [
        "opaq_http_requests",
        "opaq_stage_duration_nanos",
        "opaq_trace_spans_recorded",
        "opaq_catalog_publishes",
        "opaq_catalog_entries",
    ] {
        assert!(
            report.kinds.contains_key(family),
            "{path} is missing family {family}"
        );
    }
    assert_eq!(report.kinds["opaq_stage_duration_nanos"], "histogram");
    assert!(
        text.contains("\nopaq_stage_duration_nanos_count{stage=\"request\"} "),
        "{path} is missing the stage=\"request\" series"
    );
    assert!(
        report.samples > report.families,
        "{path} has empty families"
    );
}
