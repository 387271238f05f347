//! Prometheus text-format registry and scrape parser.
//!
//! The serve subsystem computes metric values at scrape time; this module
//! only renders them. A [`Registry`] is built per scrape, filled with
//! counter/gauge/histogram families, and rendered to the [text exposition
//! format]. The rendered body ends with a `# EOF` line — valid OpenMetrics,
//! ignored by classic Prometheus parsers — which doubles as the framing
//! terminator for the serve protocol's multi-line `METRICS` response.
//!
//! [text exposition format]:
//! https://prometheus.io/docs/instrumenting/exposition_formats/
//!
//! [`parse_text`] is the minimal consumer-side parser the golden tests use
//! to prove a `METRICS` scrape round-trips: names, label sets, and values
//! survive render → parse exactly.

use std::fmt::Write as _;

/// Metric family kind, for the `# TYPE` line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricKind {
    Counter,
    Gauge,
    Histogram,
}

impl MetricKind {
    fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// One sample line: `name<suffix>{labels} value`.
#[derive(Clone, Debug)]
struct Sample {
    suffix: &'static str,
    labels: Vec<(String, String)>,
    value: f64,
}

/// A named family of samples sharing HELP/TYPE metadata.
pub struct MetricFamily {
    name: String,
    help: String,
    kind: MetricKind,
    samples: Vec<Sample>,
}

impl MetricFamily {
    /// Adds an unlabeled sample.
    pub fn sample(&mut self, value: f64) -> &mut Self {
        self.labeled(&[], value)
    }

    /// Adds a sample with the given label pairs.
    pub fn labeled(&mut self, labels: &[(&str, &str)], value: f64) -> &mut Self {
        self.samples.push(Sample {
            suffix: "",
            labels: labels
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            value,
        });
        self
    }
}

/// An ordered collection of metric families, rendered in insertion order.
#[derive(Default)]
pub struct Registry {
    families: Vec<MetricFamily>,
}

impl Registry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts a new family; fill it through the returned handle.
    pub fn family(&mut self, name: &str, help: &str, kind: MetricKind) -> &mut MetricFamily {
        self.families.push(MetricFamily {
            name: name.to_string(),
            help: help.to_string(),
            kind,
            samples: Vec::new(),
        });
        self.families.last_mut().unwrap()
    }

    /// Shorthand for a single-sample counter.
    pub fn counter(&mut self, name: &str, help: &str, value: f64) {
        self.family(name, help, MetricKind::Counter).sample(value);
    }

    /// Shorthand for a single-sample gauge.
    pub fn gauge(&mut self, name: &str, help: &str, value: f64) {
        self.family(name, help, MetricKind::Gauge).sample(value);
    }

    /// Adds a cumulative histogram over `observations` (fractional µs) with
    /// the given upper bounds (whole µs), producing `_bucket{le=…}` samples
    /// (including `+Inf`), `_sum`, and `_count`.
    pub fn histogram_us(&mut self, name: &str, help: &str, observations: &[f64], bounds: &[u64]) {
        let mut samples = Vec::with_capacity(bounds.len() + 3);
        for &b in bounds {
            let n = observations.iter().filter(|&&o| o <= b as f64).count();
            samples.push(Sample {
                suffix: "_bucket",
                labels: vec![("le".to_string(), b.to_string())],
                value: n as f64,
            });
        }
        samples.push(Sample {
            suffix: "_bucket",
            labels: vec![("le".to_string(), "+Inf".to_string())],
            value: observations.len() as f64,
        });
        samples.push(Sample {
            suffix: "_sum",
            labels: Vec::new(),
            value: observations.iter().sum::<f64>(),
        });
        samples.push(Sample {
            suffix: "_count",
            labels: Vec::new(),
            value: observations.len() as f64,
        });
        self.families.push(MetricFamily {
            name: name.to_string(),
            help: help.to_string(),
            kind: MetricKind::Histogram,
            samples,
        });
    }

    /// Renders the text exposition, terminated by a `# EOF` line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for f in &self.families {
            let _ = writeln!(out, "# HELP {} {}", f.name, escape_help(&f.help));
            let _ = writeln!(out, "# TYPE {} {}", f.name, f.kind.as_str());
            for s in &f.samples {
                out.push_str(&f.name);
                out.push_str(s.suffix);
                if !s.labels.is_empty() {
                    out.push('{');
                    for (i, (k, v)) in s.labels.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        let _ = write!(out, "{k}=\"{}\"", escape_label(v));
                    }
                    out.push('}');
                }
                let _ = writeln!(out, " {}", format_value(s.value));
            }
        }
        out.push_str("# EOF\n");
        out
    }
}

fn format_value(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        // Rust's f64 Display is the shortest round-trip decimal form,
        // which the parser side reads back exactly.
        v.to_string()
    }
}

fn escape_help(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n")
}

fn escape_label(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

// ---------------------------------------------------------------------------
// Scrape parser.

/// One parsed sample line.
#[derive(Clone, Debug, PartialEq)]
pub struct ParsedSample {
    /// Full sample name including any `_bucket`/`_sum`/`_count` suffix.
    pub name: String,
    pub labels: Vec<(String, String)>,
    pub value: f64,
}

/// A parsed scrape body.
#[derive(Clone, Debug, Default)]
pub struct ParsedScrape {
    pub samples: Vec<ParsedSample>,
    /// `(name, kind)` pairs from `# TYPE` lines, in order.
    pub types: Vec<(String, String)>,
    /// Whether a terminating `# EOF` line was present.
    pub saw_eof: bool,
}

impl ParsedScrape {
    /// Finds a sample by exact name and label set (order-insensitive).
    pub fn find(&self, name: &str, labels: &[(&str, &str)]) -> Option<&ParsedSample> {
        self.samples.iter().find(|s| {
            s.name == name
                && s.labels.len() == labels.len()
                && labels
                    .iter()
                    .all(|(k, v)| s.labels.iter().any(|(sk, sv)| sk == k && sv == v))
        })
    }

    /// Value of a sample found via [`ParsedScrape::find`].
    pub fn value(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        self.find(name, labels).map(|s| s.value)
    }
}

/// Parses a Prometheus/OpenMetrics text scrape. Comment lines other than
/// `# TYPE`/`# EOF` are validated for form and skipped; sample lines must be
/// `name[{labels}] value`.
pub fn parse_text(text: &str) -> Result<ParsedScrape, String> {
    let mut scrape = ParsedScrape::default();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim_end();
        if line.is_empty() {
            continue;
        }
        let err = |msg: &str| format!("line {}: {msg}: {line:?}", lineno + 1);
        if let Some(comment) = line.strip_prefix('#') {
            let comment = comment.trim_start();
            if comment == "EOF" {
                scrape.saw_eof = true;
            } else if let Some(rest) = comment.strip_prefix("TYPE ") {
                let mut it = rest.split_whitespace();
                let name = it.next().ok_or_else(|| err("TYPE missing name"))?;
                let kind = it.next().ok_or_else(|| err("TYPE missing kind"))?;
                scrape.types.push((name.to_string(), kind.to_string()));
            } else if comment.starts_with("HELP ") && comment.split_whitespace().nth(1).is_none() {
                return Err(err("HELP missing name"));
            }
            // Other comments are legal and ignored.
            continue;
        }
        scrape
            .samples
            .push(parse_sample(line).map_err(|m| err(&m))?);
    }
    Ok(scrape)
}

fn parse_sample(line: &str) -> Result<ParsedSample, String> {
    let (name_part, rest) = match line.find('{') {
        Some(brace) => {
            let close = line[brace..]
                .find('}')
                .map(|i| brace + i)
                .ok_or("unterminated label set")?;
            (&line[..brace], &line[close + 1..])
        }
        None => {
            let sp = line.find(' ').ok_or("missing value")?;
            (&line[..sp], &line[sp..])
        }
    };
    let name = name_part.trim();
    if name.is_empty()
        || !name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
    {
        return Err(format!("bad metric name {name:?}"));
    }
    let labels = match line.find('{') {
        Some(brace) => {
            let close = line[brace..].find('}').map(|i| brace + i).unwrap();
            parse_labels(&line[brace + 1..close])?
        }
        None => Vec::new(),
    };
    let value_text = rest.trim();
    let value_text = value_text
        .split_whitespace()
        .next()
        .ok_or("missing value")?;
    let value = match value_text {
        "+Inf" => f64::INFINITY,
        "-Inf" => f64::NEG_INFINITY,
        "NaN" => f64::NAN,
        t => t.parse::<f64>().map_err(|_| format!("bad value {t:?}"))?,
    };
    Ok(ParsedSample {
        name: name.to_string(),
        labels,
        value,
    })
}

fn parse_labels(body: &str) -> Result<Vec<(String, String)>, String> {
    let mut labels = Vec::new();
    let mut chars = body.chars().peekable();
    loop {
        while matches!(chars.peek(), Some(',') | Some(' ')) {
            chars.next();
        }
        if chars.peek().is_none() {
            return Ok(labels);
        }
        let mut key = String::new();
        for c in chars.by_ref() {
            if c == '=' {
                break;
            }
            key.push(c);
        }
        if chars.next() != Some('"') {
            return Err(format!("label {key:?}: expected opening quote"));
        }
        let mut value = String::new();
        loop {
            match chars.next() {
                None => return Err(format!("label {key:?}: unterminated value")),
                Some('"') => break,
                Some('\\') => match chars.next() {
                    Some('\\') => value.push('\\'),
                    Some('"') => value.push('"'),
                    Some('n') => value.push('\n'),
                    other => return Err(format!("label {key:?}: bad escape {other:?}")),
                },
                Some(c) => value.push(c),
            }
        }
        labels.push((key.trim().to_string(), value));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_parse_round_trip_preserves_names_labels_values() {
        let mut reg = Registry::new();
        reg.counter("uww_requests_total", "Total requests.", 42.0);
        reg.family(
            "uww_requests_by_verb_total",
            "Requests per verb.",
            MetricKind::Counter,
        )
        .labeled(&[("verb", "query")], 40.0)
        .labeled(&[("verb", "stats")], 2.0);
        reg.gauge("uww_epoch", "Catalog epoch.", 7.0);
        reg.histogram_us(
            "uww_latency_us",
            "Latency (µs).",
            &[50.0, 150.0, 150.5, 9000.0],
            &[100, 1000],
        );
        let text = reg.render();
        let scrape = parse_text(&text).unwrap();
        assert!(scrape.saw_eof);
        assert_eq!(scrape.value("uww_requests_total", &[]), Some(42.0));
        assert_eq!(
            scrape.value("uww_requests_by_verb_total", &[("verb", "query")]),
            Some(40.0)
        );
        assert_eq!(scrape.value("uww_epoch", &[]), Some(7.0));
        assert_eq!(
            scrape.value("uww_latency_us_bucket", &[("le", "100")]),
            Some(1.0)
        );
        assert_eq!(
            scrape.value("uww_latency_us_bucket", &[("le", "1000")]),
            Some(3.0)
        );
        assert_eq!(
            scrape.value("uww_latency_us_bucket", &[("le", "+Inf")]),
            Some(4.0)
        );
        assert_eq!(scrape.value("uww_latency_us_sum", &[]), Some(9350.5));
        assert_eq!(scrape.value("uww_latency_us_count", &[]), Some(4.0));
        assert!(scrape
            .types
            .iter()
            .any(|(n, k)| n == "uww_latency_us" && k == "histogram"));
    }

    #[test]
    fn parser_rejects_malformed_lines() {
        assert!(parse_text("bad name 1").is_err());
        assert!(parse_text("name{l=\"v\" 1").is_err());
        assert!(parse_text("name{l=\"v\"} notanumber").is_err());
        assert!(parse_text("name").is_err());
    }

    #[test]
    fn label_values_with_escapes_round_trip() {
        let mut reg = Registry::new();
        reg.family("m", "h", MetricKind::Gauge)
            .labeled(&[("path", "a\\b\"c\nd")], 1.0);
        let scrape = parse_text(&reg.render()).unwrap();
        assert_eq!(scrape.value("m", &[("path", "a\\b\"c\nd")]), Some(1.0));
    }
}
