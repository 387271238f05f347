//! The static interference pass: `UWW014` over a staged parallel strategy.
//!
//! Section 9 parallelizes a strategy into stages whose expressions run
//! concurrently (term- or stage-level threads). Two expressions may share a
//! stage only when neither touches state the other mutates. This pass
//! computes, per expression, its read and write sets over the warehouse's
//! mutable locations — stored view extents and pending deltas, the two
//! operand forms the engine's `OperandStore` keys by — and flags every
//! same-stage pair whose sets conflict.
//!
//! The conflict relation is deliberately *at least as strict* as the
//! dynamic race check in the threaded executor: any schedule the engine
//! would reject at runtime is already an error here, and a `UWW014`-clean
//! schedule (in particular, anything [`parallelize`] emits) runs
//! identically threaded or sequential.
//!
//! [`parallelize`]: https://docs.rs/uww-core (Section 9 scheduler)

use crate::analyzer::{safe_expr, safe_name};
use crate::diag::{Diagnostic, Report, Rule, Severity};
use std::collections::BTreeSet;
use uww_vdag::{UpdateExpr, Vdag, ViewId};

/// A mutable warehouse location an update expression can touch.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Loc {
    /// The stored extent of a view.
    Stored(ViewId),
    /// The pending delta (ΔV) of a view.
    Delta(ViewId),
}

impl Loc {
    fn describe(self, g: &Vdag) -> String {
        match self {
            Loc::Stored(v) => format!("the stored extent of {}", safe_name(g, v)),
            Loc::Delta(v) => format!("Δ{}", safe_name(g, v)),
        }
    }
}

/// The locations `e` reads: an `Inst(V)` consumes ΔV; a `Comp(W, Y)` scans
/// the stored extent of every source of `W` and the delta of every view
/// in `Y`.
pub fn reads(g: &Vdag, e: &UpdateExpr) -> BTreeSet<Loc> {
    let mut out = BTreeSet::new();
    match e {
        UpdateExpr::Inst(v) => {
            out.insert(Loc::Delta(*v));
        }
        UpdateExpr::Comp { view, over } => {
            if view.0 < g.len() {
                for s in g.sources(*view) {
                    out.insert(Loc::Stored(*s));
                }
            }
            for s in over {
                out.insert(Loc::Delta(*s));
            }
        }
    }
    out
}

/// The locations `e` writes: an `Inst(V)` rewrites the stored extent and
/// clears ΔV; a `Comp(W, Y)` extends ΔW.
pub fn writes(_g: &Vdag, e: &UpdateExpr) -> BTreeSet<Loc> {
    let mut out = BTreeSet::new();
    match e {
        UpdateExpr::Inst(v) => {
            out.insert(Loc::Stored(*v));
            out.insert(Loc::Delta(*v));
        }
        UpdateExpr::Comp { view, .. } => {
            out.insert(Loc::Delta(*view));
        }
    }
    out
}

/// Runs the interference pass over a staged strategy: every pair of
/// expressions sharing a stage with a write/read or write/write overlap is
/// a `UWW014` error. Diagnostic indices point into the stage-order
/// linearization of `stages`.
pub fn analyze_interference(g: &Vdag, stages: &[Vec<UpdateExpr>]) -> Report {
    let mut diags: Vec<Diagnostic> = Vec::new();
    let mut offset = 0usize;
    for (si, stage) in stages.iter().enumerate() {
        for a in 0..stage.len() {
            let wa = writes(g, &stage[a]);
            let ra = reads(g, &stage[a]);
            for b in a + 1..stage.len() {
                let wb = writes(g, &stage[b]);
                let rb = reads(g, &stage[b]);
                let mut conflicts: BTreeSet<Loc> = BTreeSet::new();
                conflicts.extend(wa.intersection(&rb).copied());
                conflicts.extend(wb.intersection(&ra).copied());
                conflicts.extend(wa.intersection(&wb).copied());
                if conflicts.is_empty() {
                    continue;
                }
                let locs: Vec<String> = conflicts.iter().map(|l| l.describe(g)).collect();
                diags.push(Diagnostic {
                    rule: Rule::SharedOperandRace,
                    severity: Severity::Error,
                    message: format!(
                        "stage {} runs {} and {} concurrently, but they interfere on {}",
                        si,
                        safe_expr(g, &stage[a]),
                        safe_expr(g, &stage[b]),
                        locs.join(" and "),
                    ),
                    primary: Some(offset + b),
                    primary_label: "races with an earlier expression in its stage".to_string(),
                    related: vec![(offset + a, "conflicting stage-mate".to_string())],
                    views: conflicts
                        .iter()
                        .map(|l| match l {
                            Loc::Stored(v) | Loc::Delta(v) => safe_name(g, *v),
                        })
                        .collect(),
                });
            }
        }
        offset += stage.len();
    }
    let exprs = stages.iter().flatten().map(|e| safe_expr(g, e)).collect();
    Report::new(exprs, diags)
}

#[cfg(test)]
mod tests {
    use super::*;
    use uww_vdag::figure3_vdag;

    #[test]
    fn disjoint_comps_share_a_stage() {
        let g = figure3_vdag();
        let v4 = g.id_of("V4").unwrap();
        let v5 = g.id_of("V5").unwrap();
        let v2 = g.id_of("V2").unwrap();
        let v1 = g.id_of("V1").unwrap();
        // Comp(V4,{V2}) reads stored V2,V3 + ΔV2, writes ΔV4.
        // Comp(V5,{V1}) reads stored V1,V4 + ΔV1, writes ΔV5. No overlap.
        let stages = vec![vec![UpdateExpr::comp1(v4, v2), UpdateExpr::comp1(v5, v1)]];
        assert!(analyze_interference(&g, &stages).is_clean());
    }

    #[test]
    fn comp_racing_its_source_inst_is_flagged() {
        let g = figure3_vdag();
        let v4 = g.id_of("V4").unwrap();
        let v2 = g.id_of("V2").unwrap();
        // Inst(V2) rewrites stored V2 while Comp(V4,{V2}) scans it (and both
        // touch ΔV2).
        let stages = vec![vec![UpdateExpr::inst(v2), UpdateExpr::comp1(v4, v2)]];
        let r = analyze_interference(&g, &stages);
        assert_eq!(r.error_count(), 1);
        assert_eq!(r.diagnostics[0].rule, Rule::SharedOperandRace);
        assert!(r.diagnostics[0].message.contains("stored extent of V2"));
    }

    #[test]
    fn comp_feeding_concurrent_comp_is_flagged() {
        let g = figure3_vdag();
        let v4 = g.id_of("V4").unwrap();
        let v5 = g.id_of("V5").unwrap();
        let v2 = g.id_of("V2").unwrap();
        // Comp(V4,{V2}) writes ΔV4; Comp(V5,{V4}) reads ΔV4.
        let stages = vec![vec![UpdateExpr::comp1(v4, v2), UpdateExpr::comp1(v5, v4)]];
        let r = analyze_interference(&g, &stages);
        assert_eq!(r.error_count(), 1);
        assert!(r.diagnostics[0].message.contains("ΔV4"));
    }

    #[test]
    fn duplicate_inst_is_a_write_write_race() {
        let g = figure3_vdag();
        let v1 = g.id_of("V1").unwrap();
        let stages = vec![vec![UpdateExpr::inst(v1), UpdateExpr::inst(v1)]];
        let r = analyze_interference(&g, &stages);
        assert_eq!(r.error_count(), 1);
    }

    #[test]
    fn sequential_stages_never_conflict() {
        let g = figure3_vdag();
        let v4 = g.id_of("V4").unwrap();
        let v2 = g.id_of("V2").unwrap();
        let stages = vec![vec![UpdateExpr::inst(v2)], vec![UpdateExpr::comp1(v4, v2)]];
        assert!(analyze_interference(&g, &stages).is_clean());
    }

    #[test]
    fn indices_are_linearization_offsets() {
        let g = figure3_vdag();
        let v4 = g.id_of("V4").unwrap();
        let v2 = g.id_of("V2").unwrap();
        let v1 = g.id_of("V1").unwrap();
        let stages = vec![
            vec![UpdateExpr::inst(v1)],
            vec![UpdateExpr::inst(v2), UpdateExpr::comp1(v4, v2)],
        ];
        let r = analyze_interference(&g, &stages);
        assert_eq!(r.error_count(), 1);
        assert_eq!(r.diagnostics[0].primary, Some(2));
        assert_eq!(r.diagnostics[0].related[0].0, 1);
        assert_eq!(r.exprs.len(), 3);
    }
}
