//! A strict Prometheus text-exposition parser.
//!
//! "Strict" means structural validity, not just grep-ability: every sample
//! belongs to a family announced by `# HELP` + `# TYPE` *before* it (the
//! pre-registration/schema-stability contract), names and labels match the
//! Prometheus charsets, label values use only the three legal escapes,
//! histogram buckets are cumulative with ascending `le` and `+Inf == _count`,
//! and the body ends in exactly one trailing newline.
//!
//! `prometheus_format.rs` runs it against [`MetricRegistry::render`]
//! output; `opaq-cli`'s `tests/serve_process.rs` includes this file by path
//! and runs it against a live `opaq serve` scrape.
//!
//! [`MetricRegistry::render`]: opaq_metrics::MetricRegistry::render

use std::collections::HashMap;

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

/// What a valid exposition declared.
#[derive(Default)]
pub struct Report {
    /// `# HELP` + `# TYPE` families.
    pub families: usize,
    /// Sample lines.
    pub samples: usize,
    /// Family name -> declared kind (`counter`, `gauge`, `histogram`).
    pub kinds: HashMap<String, String>,
}

/// Validate a full exposition body; returns family/sample tallies.
pub fn validate(text: &str) -> Result<Report, String> {
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
