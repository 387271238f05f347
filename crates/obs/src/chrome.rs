//! Chrome trace-event exporter and validator.
//!
//! Emits the JSON-object form of the [trace-event format] that Perfetto and
//! `chrome://tracing` load directly: one complete event (`"ph":"X"`) per
//! span with microsecond `ts`/`dur`, the span kind as `cat`, the lane as
//! `tid` (one row per OS thread, so `--partitions` overlap is visible),
//! and span id/parent plus all attributes under `args`. A `thread_name`
//! metadata event labels each lane.
//!
//! [trace-event format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
//!
//! The validator re-parses exporter output with the in-crate JSON parser and
//! checks the event-shape contract; the golden tests and the CI bench-smoke
//! job both run it against freshly produced traces.

use crate::json::{self, JsonValue};
use crate::span::{AttrValue, SpanRecord};

/// Renders `spans` as a Chrome trace-event JSON document.
pub fn chrome_trace(spans: &[SpanRecord]) -> String {
    let mut out = String::with_capacity(spans.len() * 128 + 64);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    let mut lanes: Vec<u64> = spans.iter().map(|s| s.lane).collect();
    lanes.sort_unstable();
    lanes.dedup();
    for lane in lanes {
        push_event(
            &mut out,
            &mut first,
            &format!(
                "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":{lane},\
             \"args\":{{\"name\":\"lane-{lane}\"}}}}"
            ),
        );
    }
    for s in spans {
        let mut ev = format!(
            "{{\"ph\":\"X\",\"name\":\"{}\",\"cat\":\"{}\",\"ts\":{},\"dur\":{},\
             \"pid\":1,\"tid\":{},\"args\":{{\"span_id\":{},\"parent_id\":{}",
            json::escape(&s.name),
            s.kind.as_str(),
            s.start_us,
            s.dur_us(),
            s.lane,
            s.id,
            s.parent,
        );
        for (k, v) in &s.attrs {
            ev.push_str(",\"");
            ev.push_str(&json::escape(k));
            ev.push_str("\":");
            match v {
                AttrValue::U64(n) => ev.push_str(&n.to_string()),
                AttrValue::F64(x) if x.is_finite() => ev.push_str(&x.to_string()),
                // JSON has no NaN/Inf; stringify so the document stays valid.
                AttrValue::F64(x) => ev.push_str(&format!("\"{x}\"")),
                AttrValue::Str(t) => {
                    ev.push('"');
                    ev.push_str(&json::escape(t));
                    ev.push('"');
                }
            }
        }
        ev.push_str("}}");
        push_event(&mut out, &mut first, &ev);
    }
    out.push_str("]}");
    out
}

fn push_event(out: &mut String, first: &mut bool, event: &str) {
    if !*first {
        out.push(',');
    }
    *first = false;
    out.push_str(event);
}

/// Summary returned by [`validate_chrome_trace`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceStats {
    /// Total events, metadata included.
    pub events: usize,
    /// Complete (`ph == "X"`) events.
    pub complete_events: usize,
    /// Complete events per category (span kind), sorted by name.
    pub by_category: Vec<(String, usize)>,
    /// Distinct lanes (`tid` values) seen on complete events.
    pub lanes: usize,
    /// Largest `ts + dur` over complete events, µs.
    pub span_end_us: u64,
}

/// Parses `text` as a Chrome trace and checks the shape every consumer
/// (Perfetto, `uww-bench validate-trace`, the golden tests) relies on: a `traceEvents`
/// array whose members carry a one-char `ph`, and for `X` events a nonempty
/// `name`, numeric nonnegative `ts`/`dur`, and numeric `pid`/`tid`.
pub fn validate_chrome_trace(text: &str) -> Result<TraceStats, String> {
    let doc = json::parse(text).map_err(|e| e.to_string())?;
    let events = doc
        .get("traceEvents")
        .and_then(JsonValue::as_array)
        .ok_or("missing traceEvents array")?;
    let mut stats = TraceStats {
        events: events.len(),
        ..TraceStats::default()
    };
    let mut cats: Vec<(String, usize)> = Vec::new();
    let mut lanes: Vec<u64> = Vec::new();
    for (i, ev) in events.iter().enumerate() {
        let ctx = |field: &str| format!("event {i}: bad {field}");
        let ph = ev
            .get("ph")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| ctx("ph"))?;
        if ph.chars().count() != 1 {
            return Err(ctx("ph (must be one character)"));
        }
        if ph != "X" {
            continue;
        }
        stats.complete_events += 1;
        let name = ev
            .get("name")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| ctx("name"))?;
        if name.is_empty() {
            return Err(ctx("name (empty)"));
        }
        let num = |field: &str| -> Result<f64, String> {
            ev.get(field)
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| ctx(field))
        };
        let ts = num("ts")?;
        let dur = num("dur")?;
        if ts < 0.0 || dur < 0.0 {
            return Err(ctx("ts/dur (negative)"));
        }
        num("pid")?;
        let tid = num("tid")?;
        stats.span_end_us = stats.span_end_us.max((ts + dur) as u64);
        let lane = tid as u64;
        if !lanes.contains(&lane) {
            lanes.push(lane);
        }
        if let Some(cat) = ev.get("cat").and_then(JsonValue::as_str) {
            match cats.iter_mut().find(|(c, _)| c == cat) {
                Some((_, n)) => *n += 1,
                None => cats.push((cat.to_string(), 1)),
            }
        }
    }
    cats.sort();
    stats.by_category = cats;
    stats.lanes = lanes.len();
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::SpanKind;

    fn rec(id: u64, parent: u64, kind: SpanKind, name: &str, lane: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            kind,
            name: name.to_string(),
            lane,
            start_us: 10 * id,
            end_us: 10 * id + 5,
            attrs: vec![
                ("rows".to_string(), AttrValue::U64(7)),
                ("staleness".to_string(), AttrValue::F64(1.5)),
                ("view".to_string(), AttrValue::Str("Q3 \"x\"".to_string())),
            ],
        }
    }

    #[test]
    fn export_validates_and_counts_categories() {
        let spans = vec![
            rec(1, 0, SpanKind::Run, "run", 1),
            rec(2, 1, SpanKind::Expression, "Comp(Q3)", 1),
            rec(3, 2, SpanKind::Term, "d_LINEITEM", 2),
        ];
        let text = chrome_trace(&spans);
        let stats = validate_chrome_trace(&text).unwrap();
        assert_eq!(stats.complete_events, 3);
        assert_eq!(stats.lanes, 2);
        // 2 thread_name metadata events + 3 complete events.
        assert_eq!(stats.events, 5);
        assert!(stats
            .by_category
            .iter()
            .any(|(c, n)| c == "expression" && *n == 1));
        assert_eq!(stats.span_end_us, 35);
    }

    #[test]
    fn validator_rejects_broken_events() {
        assert!(validate_chrome_trace("not json").is_err());
        assert!(validate_chrome_trace("{\"other\":1}").is_err());
        let missing_ts = r#"{"traceEvents":[{"ph":"X","name":"a","dur":1,"pid":1,"tid":1}]}"#;
        assert!(validate_chrome_trace(missing_ts).is_err());
        let long_ph = r#"{"traceEvents":[{"ph":"XY","name":"a"}]}"#;
        assert!(validate_chrome_trace(long_ph).is_err());
    }

    #[test]
    fn nan_attr_degrades_to_string_but_stays_valid_json() {
        let mut r = rec(1, 0, SpanKind::Operator, "op", 1);
        r.attrs = vec![("x".to_string(), AttrValue::F64(f64::NAN))];
        let text = chrome_trace(&[r]);
        validate_chrome_trace(&text).unwrap();
        assert!(text.contains("\"NaN\""));
    }
}
