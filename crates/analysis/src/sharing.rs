//! The sharing-opportunity pass: `UWW011`–`UWW013` over a strategy's
//! sharing profile.
//!
//! The profile is what the engine's window runner records as it runs
//! (`uww_core::WindowOutcome::profile`; offline, `uww_core::plan_strategy_sharing`
//! runs a scratch clone to get one): per expression, every maintenance
//! term's executed join order and every distinct `(operand, pushed-down
//! filter, key columns)` hash-table use. The counters are not here — they
//! are the `WorkMeter` of the same run. This module is deliberately
//! core-agnostic — it sees only the profile — so the rule logic stays
//! beside the other `UWW` rules.
//!
//! The three rules are advisory ([`Severity::Warning`]): they describe
//! work that *could* be shared, not a correctness defect.
//!
//! * `UWW011` — an operand repeats across one `Comp`'s terms: the
//!   intra-`Comp` share the operand cache exploits (and the per-term
//!   baseline misses), with the priced saving;
//! * `UWW012` — two `Comp`s use an identical operand table with no
//!   intervening modification of that operand: the cross-`Comp` share a
//!   window-scope operand store serves and a per-`Comp` one rebuilds;
//! * `UWW013` — two operand uses inside one `Comp` are equal modulo the
//!   cache's source-position key (aliases of one view): shareable in
//!   principle, kept apart by the runtime's keying detail.

use crate::analyzer::{safe_expr, safe_name};
use crate::diag::{Diagnostic, Report, Rule, Severity};
use std::collections::BTreeMap;
use uww_vdag::{Strategy, UpdateExpr, Vdag};

/// One distinct keyed operand use inside a `Comp`, as the engine records
/// it — a node of the sharing-opportunity graph.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OperandProfile {
    /// Source view name.
    pub source: String,
    /// Source alias (distinct for self-join aliases).
    pub alias: String,
    /// Source position in the view definition — the runtime cache-key
    /// component `UWW013` is about.
    pub source_idx: usize,
    /// True when the delta form of the source is scanned.
    pub as_delta: bool,
    /// Build-key column names, in key order.
    pub key_cols: Vec<String>,
    /// Rendered pushed-down filters applied to this operand.
    pub filters: Vec<String>,
    /// Filtered operand cardinality (rows one build scans).
    pub rows: u64,
    /// Keyed join steps using this exact key across the `Comp`'s terms.
    pub occurrences: u64,
    /// True when the operand store already held this key's table when the
    /// `Comp` started: every use probed an earlier expression's or
    /// window's table, and the `Comp` built nothing for it.
    pub held: bool,
}

/// Owned form of [`OperandProfile::identity`], used as a grouping key.
type OperandIdentity = (String, bool, Vec<String>, Vec<String>);

impl OperandProfile {
    /// The sharing identity of this use: everything except the source
    /// position. Two uses with equal identity build interchangeable hash
    /// tables (within one expression; across expressions the operand must
    /// also be unmodified in between).
    fn identity(&self) -> (&str, bool, &[String], &[String]) {
        (
            self.source.as_str(),
            self.as_delta,
            &self.key_cols,
            &self.filters,
        )
    }

    /// Human label: `ΔS` or `stored S`, plus the key columns.
    fn label(&self) -> String {
        let role = if self.as_delta { "Δ" } else { "stored " };
        format!(
            "{role}{} keyed on [{}]",
            self.source,
            self.key_cols.join(", ")
        )
    }
}

/// One maintenance term of a `Comp`, as the engine ran it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TermProfile {
    /// Source views in the delta role for this term.
    pub delta_sources: Vec<String>,
    /// Every operand in the join order the engine executed, rendered as
    /// `Δname(rows)` or `name(rows)`; the rows are the filtered counts the
    /// order was chosen by. Empty for a term skipped over an empty delta.
    pub join_order: Vec<String>,
}

impl TermProfile {
    /// True when the engine skipped this term because one of its deltas is
    /// empty (footnote 5).
    pub fn skipped(&self) -> bool {
        self.join_order.is_empty()
    }
}

/// What the engine did for one strategy expression, beside its meter:
/// empty for an `Inst`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ExprSharingProfile {
    /// The maintenance terms the engine evaluated, in term order (the
    /// footnote-5 filter applied).
    pub terms: Vec<TermProfile>,
    /// Every distinct keyed operand use, sorted by key.
    pub operands: Vec<OperandProfile>,
}

/// A whole strategy's sharing profile, aligned index-for-index with the
/// strategy's expressions.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SharingProfile {
    /// Per-expression profiles, in strategy order.
    pub exprs: Vec<ExprSharingProfile>,
}

impl SharingProfile {
    /// Total filtered rows of the keys found in the store across the
    /// strategy — the hash builds avoided by probing earlier expressions'
    /// tables, which the shared planner objective prices.
    pub fn cross_saved_rows(&self) -> u64 {
        let operands = self.exprs.iter().flat_map(|e| &e.operands);
        operands.filter(|o| o.held).map(|o| o.rows).sum()
    }
}

/// Runs the sharing-opportunity pass: `UWW011` (intra-`Comp` repeats),
/// `UWW012` (cross-`Comp` repeats with no intervening modification), and
/// `UWW013` (alias-split cache keys), all advisory. Diagnostic indices are
/// strategy positions; `profile.exprs` must align with `s.exprs` (extra or
/// missing entries are ignored rather than flagged — the profile producer
/// is trusted).
pub fn analyze_sharing(g: &Vdag, s: &Strategy, profile: &SharingProfile) -> Report {
    let mut out: Vec<Diagnostic> = Vec::new();

    // UWW011: one Comp, one key, ≥ 2 uses.
    for (i, (expr, prof)) in s.exprs.iter().zip(&profile.exprs).enumerate() {
        for op in &prof.operands {
            if op.occurrences < 2 {
                continue;
            }
            out.push(Diagnostic {
                rule: Rule::IntraCompShare,
                severity: Severity::Warning,
                message: format!(
                    "{} builds the hash table over {} ({} rows) {} times across its {} terms; \
                     interning saves {} builds (~{} rows)",
                    safe_expr(g, expr),
                    op.label(),
                    op.rows,
                    op.occurrences,
                    prof.terms.len(),
                    op.occurrences - 1,
                    op.rows * (op.occurrences - 1),
                ),
                primary: Some(i),
                primary_label: "repeated operand build across terms".to_string(),
                related: vec![],
                views: vec![safe_name(g, expr.subject()), op.source.clone()],
            });
        }
    }

    // UWW013: one Comp, identical identity, distinct source positions.
    for (i, (expr, prof)) in s.exprs.iter().zip(&profile.exprs).enumerate() {
        let mut groups: BTreeMap<OperandIdentity, Vec<&OperandProfile>> = BTreeMap::new();
        for op in &prof.operands {
            let (source, as_delta, keys, filters) = op.identity();
            groups
                .entry((
                    source.to_string(),
                    as_delta,
                    keys.to_vec(),
                    filters.to_vec(),
                ))
                .or_default()
                .push(op);
        }
        for ops in groups.values() {
            let mut positions: Vec<usize> = ops.iter().map(|o| o.source_idx).collect();
            positions.sort_unstable();
            positions.dedup();
            if positions.len() < 2 {
                continue;
            }
            let first = ops[0];
            let aliases: Vec<&str> = ops.iter().map(|o| o.alias.as_str()).collect();
            out.push(Diagnostic {
                rule: Rule::CacheKeyMismatch,
                severity: Severity::Warning,
                message: format!(
                    "{} scans {} under {} aliases ({}) with identical role, filters, and key \
                     columns; the operand cache keys by source position and builds {} tables \
                     where one would serve",
                    safe_expr(g, expr),
                    first.label(),
                    positions.len(),
                    aliases.join(", "),
                    positions.len(),
                ),
                primary: Some(i),
                primary_label: "aliases split an otherwise-shared cache key".to_string(),
                related: vec![],
                views: vec![safe_name(g, expr.subject()), first.source.clone()],
            });
        }
    }

    // UWW012: a Comp needs a table an earlier Comp built, with the
    // operand unmodified in between. Each rebuild is attributed to the
    // *first* builder of its live run — the table a window-scope store
    // actually holds — so a chain of n sharing Comps prices n−1 avoided
    // rebuilds, not the n(n−1)/2 a pairwise walk would double-count.
    for (j, (ej, pj)) in s.exprs.iter().zip(&profile.exprs).enumerate() {
        if !matches!(ej, UpdateExpr::Comp { .. }) {
            continue;
        }
        for oj in &pj.operands {
            let builder = s
                .exprs
                .iter()
                .zip(&profile.exprs)
                .enumerate()
                .take(j)
                .find_map(|(i, (ei, pi))| {
                    if !matches!(ei, UpdateExpr::Comp { .. }) {
                        return None;
                    }
                    pi.operands.iter().find(|o| o.identity() == oj.identity())?;
                    if (i + 1..j).any(|p| modifies_operand(g, &s.exprs[p], &oj.source, oj.as_delta))
                    {
                        return None;
                    }
                    Some((i, ei))
                });
            let Some((i, ei)) = builder else {
                continue;
            };
            out.push(Diagnostic {
                rule: Rule::CrossCompShare,
                severity: Severity::Warning,
                message: format!(
                    "{} uses the hash table over {} ({} rows) that {} already built, \
                     with {} unmodified in between; a window-scope operand store \
                     serves it without a rebuild (~{} rows saved)",
                    safe_expr(g, ej),
                    oj.label(),
                    oj.rows,
                    safe_expr(g, ei),
                    oj.source,
                    oj.rows,
                ),
                primary: Some(j),
                primary_label: "cross-Comp rebuild of an unchanged operand".to_string(),
                related: vec![(i, "same hash table first built here".to_string())],
                views: vec![
                    safe_name(g, ei.subject()),
                    safe_name(g, ej.subject()),
                    oj.source.clone(),
                ],
            });
        }
    }

    let exprs = s.exprs.iter().map(|e| safe_expr(g, e)).collect();
    Report::new(exprs, out)
}

/// Whether executing `e` changes the contents of the given operand form of
/// `source`: the stored extent changes only at `Inst(source)`; the pending
/// delta changes when a `Comp` extends it or an `Inst` consumes it.
///
/// This predicate is the single liveness source of truth for cross-`Comp`
/// sharing: `UWW012` uses it to decide which rebuild opportunities are
/// live, and the engine's `OperandStore` uses the *same* predicate to
/// invalidate cached materializations and hash tables after each executed
/// expression — so anything the analyzer prices is exactly what the cache
/// may legally serve.
pub fn modifies_operand(g: &Vdag, e: &UpdateExpr, source: &str, as_delta: bool) -> bool {
    match e {
        UpdateExpr::Inst(v) => safe_name(g, *v) == source,
        UpdateExpr::Comp { view, .. } => as_delta && safe_name(g, *view) == source,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uww_vdag::{figure3_vdag, UpdateExpr, ViewId};

    fn op(source: &str, idx: usize, as_delta: bool, occ: u64) -> OperandProfile {
        OperandProfile {
            source: source.to_string(),
            alias: source.to_string(),
            source_idx: idx,
            as_delta,
            key_cols: vec!["k".to_string()],
            filters: vec![],
            rows: 100,
            occurrences: occ,
            held: false,
        }
    }

    fn comp_profile(operands: Vec<OperandProfile>) -> ExprSharingProfile {
        ExprSharingProfile {
            terms: vec![],
            operands,
        }
    }

    #[test]
    fn intra_comp_repeat_flags_uww011() {
        let g = figure3_vdag();
        let v4 = g.id_of("V4").unwrap();
        let v2 = g.id_of("V2").unwrap();
        let s = Strategy::from_exprs(vec![UpdateExpr::comp1(v4, v2)]);
        let profile = SharingProfile {
            exprs: vec![comp_profile(vec![op("V3", 1, false, 3)])],
        };
        let r = analyze_sharing(&g, &s, &profile);
        assert!(!r.has_errors());
        assert_eq!(r.warning_count(), 1);
        assert_eq!(r.diagnostics[0].rule, Rule::IntraCompShare);
        assert!(r.diagnostics[0].message.contains("saves 2 builds"));
    }

    #[test]
    fn alias_split_key_flags_uww013() {
        let g = figure3_vdag();
        let v4 = g.id_of("V4").unwrap();
        let v2 = g.id_of("V2").unwrap();
        let s = Strategy::from_exprs(vec![UpdateExpr::comp1(v4, v2)]);
        let mut a = op("V2", 0, false, 1);
        a.alias = "l".to_string();
        let mut b = op("V2", 2, false, 1);
        b.alias = "r".to_string();
        let profile = SharingProfile {
            exprs: vec![comp_profile(vec![a, b])],
        };
        let r = analyze_sharing(&g, &s, &profile);
        assert_eq!(r.warning_count(), 1);
        assert_eq!(r.diagnostics[0].rule, Rule::CacheKeyMismatch);
        assert!(r.diagnostics[0].message.contains("l, r"));
    }

    #[test]
    fn cross_comp_repeat_flags_uww012_unless_modified_between() {
        let g = figure3_vdag();
        let v4 = g.id_of("V4").unwrap();
        let v5 = g.id_of("V5").unwrap();
        let v2 = g.id_of("V2").unwrap();
        let shared = || op("V1", 0, false, 1);
        let profile = SharingProfile {
            exprs: vec![comp_profile(vec![shared()]), comp_profile(vec![shared()])],
        };
        // Back-to-back Comps reusing stored V1: flagged.
        let s = Strategy::from_exprs(vec![UpdateExpr::comp1(v4, v2), UpdateExpr::comp1(v5, v2)]);
        let r = analyze_sharing(&g, &s, &profile);
        assert_eq!(
            r.diagnostics
                .iter()
                .filter(|d| d.rule == Rule::CrossCompShare)
                .count(),
            1
        );

        // An Inst(V1) in between invalidates the stored extent: clean.
        let v1 = g.id_of("V1").unwrap();
        let s2 = Strategy::from_exprs(vec![
            UpdateExpr::comp1(v4, v2),
            UpdateExpr::inst(v1),
            UpdateExpr::comp1(v5, v2),
        ]);
        let profile2 = SharingProfile {
            exprs: vec![
                comp_profile(vec![shared()]),
                ExprSharingProfile::default(),
                comp_profile(vec![shared()]),
            ],
        };
        let r2 = analyze_sharing(&g, &s2, &profile2);
        assert_eq!(
            r2.diagnostics
                .iter()
                .filter(|d| d.rule == Rule::CrossCompShare)
                .count(),
            0
        );
    }

    #[test]
    fn transitive_chain_prices_each_rebuild_once() {
        let g = figure3_vdag();
        let v4 = g.id_of("V4").unwrap();
        let v5 = g.id_of("V5").unwrap();
        let v2 = g.id_of("V2").unwrap();
        let shared = || op("V1", 0, false, 1);
        // Three Comps sharing one live table: a pairwise walk would price
        // 3 savings; the cache realizes exactly 2 (one per rebuild).
        let s = Strategy::from_exprs(vec![
            UpdateExpr::comp1(v4, v2),
            UpdateExpr::comp1(v5, v2),
            UpdateExpr::comp1(v4, v2),
        ]);
        let profile = SharingProfile {
            exprs: vec![
                comp_profile(vec![shared()]),
                comp_profile(vec![shared()]),
                comp_profile(vec![shared()]),
            ],
        };
        let r = analyze_sharing(&g, &s, &profile);
        let cross: Vec<_> = r
            .diagnostics
            .iter()
            .filter(|d| d.rule == Rule::CrossCompShare)
            .collect();
        assert_eq!(cross.len(), 2);
        // Both rebuilds are attributed to the first live builder (expr 0),
        // and each prices one avoided 100-row build.
        for d in &cross {
            assert_eq!(
                d.related,
                vec![(0, "same hash table first built here".to_string())]
            );
            assert!(d.message.contains("~100 rows saved"));
        }

        // An Inst(V1) mid-chain splits the live run: the last Comp is
        // attributed to the post-install builder, not the first.
        let v1 = g.id_of("V1").unwrap();
        let s2 = Strategy::from_exprs(vec![
            UpdateExpr::comp1(v4, v2),
            UpdateExpr::comp1(v5, v2),
            UpdateExpr::inst(v1),
            UpdateExpr::comp1(v4, v2),
            UpdateExpr::comp1(v5, v2),
        ]);
        let profile2 = SharingProfile {
            exprs: vec![
                comp_profile(vec![shared()]),
                comp_profile(vec![shared()]),
                ExprSharingProfile::default(),
                comp_profile(vec![shared()]),
                comp_profile(vec![shared()]),
            ],
        };
        let r2 = analyze_sharing(&g, &s2, &profile2);
        let related: Vec<usize> = r2
            .diagnostics
            .iter()
            .filter(|d| d.rule == Rule::CrossCompShare)
            .map(|d| d.related[0].0)
            .collect();
        assert_eq!(related, vec![0, 3]);
    }

    #[test]
    fn delta_operand_invalidated_by_comp_between() {
        let g = figure3_vdag();
        let v4 = g.id_of("V4").unwrap();
        let v5 = g.id_of("V5").unwrap();
        let v2 = g.id_of("V2").unwrap();
        // Both Comps scan ΔV4; a Comp(V4, ·) in between extends that delta.
        let dv4 = || op("V4", 0, true, 1);
        let s = Strategy::from_exprs(vec![
            UpdateExpr::comp1(v5, v2),
            UpdateExpr::comp1(v4, v2),
            UpdateExpr::comp1(v5, v2),
        ]);
        let profile = SharingProfile {
            exprs: vec![
                comp_profile(vec![dv4()]),
                comp_profile(vec![]),
                comp_profile(vec![dv4()]),
            ],
        };
        let r = analyze_sharing(&g, &s, &profile);
        assert_eq!(
            r.diagnostics
                .iter()
                .filter(|d| d.rule == Rule::CrossCompShare)
                .count(),
            0
        );
    }

    #[test]
    fn empty_profile_is_clean() {
        let g = figure3_vdag();
        let s = Strategy::from_exprs(vec![UpdateExpr::inst(ViewId(0))]);
        let profile = SharingProfile {
            exprs: vec![ExprSharingProfile::default()],
        };
        assert!(analyze_sharing(&g, &s, &profile).is_clean());
    }
}
