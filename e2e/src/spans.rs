//! Self time per layer from one traced round's span tree.
//!
//! A span's self time is its duration minus the part of that interval its
//! child spans cover. Children on other lanes (partition fan-outs) may
//! overlap each other, so the covered part is the union of their intervals.

use std::collections::{BTreeMap, HashMap};
use uww::obs::critical::fan_out_label;
use uww::obs::{keys, AttrValue, SpanKind, SpanRecord};

/// The harness span around the timed call into the engine; attribution is
/// taken over the subtree under it.
const OP_SPAN: &str = "bench:execute";

/// The labels self time is reported under, one `span.<label>_share` metric
/// each.
pub const LABELS: [&str; 14] = [
    "materialize",
    "scan",
    "hash_build",
    "probe",
    "group",
    "split",
    "operator_other",
    "comp",
    "inst",
    "term",
    "run",
    "wal_record",
    "serve_request",
    "harness",
];

/// The layer a span's self time belongs to.
pub fn label(span: &SpanRecord) -> &'static str {
    match span.kind {
        SpanKind::Operator => match fan_out_label(&span.name) {
            "materialize_operands" => "materialize",
            "scan" => "scan",
            "hash_build" | "hash_table_intern" | "hash_table_cross" => "hash_build",
            "hash_probe" => "probe",
            "group" | "group_merge" => "group",
            "split" => "split",
            _ => "operator_other",
        },
        SpanKind::Expression => match span.attr(keys::EXPR_KIND) {
            Some(AttrValue::Str(kind)) if kind == "inst" => "inst",
            _ => "comp",
        },
        SpanKind::Term => "term",
        SpanKind::WalRecord => "wal_record",
        SpanKind::ServeRequest => "serve_request",
        SpanKind::Run if span.name.starts_with("bench:") => "harness",
        SpanKind::Run | SpanKind::Stage | SpanKind::Replay => "run",
    }
}

/// True for labels that name a layer's own work; `comp`, `term`, `run` and
/// `harness` self time is glue between layers and counts as unattributed.
fn is_layer_work(label: &str) -> bool {
    !matches!(label, "comp" | "term" | "run" | "harness")
}

/// Self time of every span, in microseconds, in the order of `spans`.
pub fn self_times_us(spans: &[SpanRecord]) -> Vec<u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_us, s.end_us));
    }
    spans
        .iter()
        .map(|s| {
            let Some(kids) = children.get_mut(&s.id) else {
                return s.dur_us();
            };
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_us;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                let end = end.min(s.end_us);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.dur_us() - covered
        })
        .collect()
}

/// Where one traced round's wall went.
#[derive(Clone, Debug, Default)]
pub struct Attribution {
    /// Self time per label, milliseconds, over every recorded span.
    pub self_ms: BTreeMap<&'static str, f64>,
    /// Duration of the harness span around the timed call.
    pub op_wall_ms: f64,
    /// Self time under that span that names a layer's work.
    pub attributed_ms: f64,
    pub spans: usize,
}

pub fn attribute(spans: &[SpanRecord]) -> Attribution {
    let selfs = self_times_us(spans);
    // Ids are handed out at span start, so a parent's is below its
    // children's: one ascending pass settles subtree membership.
    let mut order: Vec<usize> = (0..spans.len()).collect();
    order.sort_unstable_by_key(|&i| spans[i].id);
    let mut under_op: HashMap<u64, bool> = HashMap::new();
    let mut out = Attribution {
        spans: spans.len(),
        ..Attribution::default()
    };
    for i in order {
        let s = &spans[i];
        let is_op = s.name == OP_SPAN;
        let inside = is_op || under_op.get(&s.parent).copied().unwrap_or(false);
        under_op.insert(s.id, inside);
        let self_ms = selfs[i] as f64 / 1e3;
        let l = label(s);
        *out.self_ms.entry(l).or_default() += self_ms;
        if is_op {
            out.op_wall_ms += s.dur_us() as f64 / 1e3;
        }
        if inside && is_layer_work(l) {
            out.attributed_ms += self_ms;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, kind: SpanKind, name: &str, start: u64, end: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            kind,
            name: name.to_string(),
            lane: 1,
            start_us: start,
            end_us: end,
            attrs: Vec::new(),
        }
    }

    /// execute 0..100 ─┬─ probe[p0] 10..40 ── (nested) filter 15..20
    ///                 └─ probe[p1] 30..60   (another lane, overlapping p0)
    fn tree() -> Vec<SpanRecord> {
        vec![
            span(3, 2, SpanKind::Operator, "filter", 15, 20),
            span(2, 1, SpanKind::Operator, "hash_probe[p0]", 10, 40),
            span(4, 1, SpanKind::Operator, "hash_probe[p1]", 30, 60),
            span(1, 0, SpanKind::Run, "bench:execute", 0, 100),
            span(5, 0, SpanKind::ServeRequest, "query", 50, 70),
        ]
    }

    #[test]
    fn self_time_subtracts_the_union_of_child_intervals() {
        assert_eq!(self_times_us(&tree()), vec![5, 25, 30, 50, 20]);
    }

    #[test]
    fn attribution_covers_only_the_subtree_of_the_timed_call() {
        let a = attribute(&tree());
        let close = |x: f64, y: f64| (x - y).abs() < 1e-12;
        assert!(close(a.op_wall_ms, 0.1));
        assert!(close(a.self_ms["probe"], 0.055));
        assert!(close(a.self_ms["operator_other"], 0.005));
        assert!(close(a.self_ms["harness"], 0.05));
        // The server's span is counted under its label but lies outside the
        // timed call: 5 + 25 + 30 of the 100 µs wall are attributed.
        assert!(close(a.self_ms["serve_request"], 0.02));
        assert!(close(a.attributed_ms, 0.06));
    }

    #[test]
    fn labels_follow_operator_names_and_expression_kind() {
        let mut inst = span(1, 0, SpanKind::Expression, "Inst(Q3)", 0, 1);
        inst.attrs
            .push((keys::EXPR_KIND.to_string(), AttrValue::Str("inst".into())));
        assert_eq!(label(&inst), "inst");
        assert_eq!(
            label(&span(2, 0, SpanKind::Expression, "Comp", 0, 1)),
            "comp"
        );
        assert_eq!(
            label(&span(3, 0, SpanKind::Operator, "group[p12]", 0, 1)),
            "group"
        );
        assert_eq!(
            label(&span(4, 0, SpanKind::Operator, "cross_join", 0, 1)),
            "operator_other"
        );
        assert_eq!(label(&span(5, 0, SpanKind::Run, "window 3", 0, 1)), "run");
        for l in [&inst, &span(6, 0, SpanKind::Term, "t", 0, 1)] {
            assert!(LABELS.contains(&label(l)));
        }
    }
}
