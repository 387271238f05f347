//! EXPLAIN: the physical plan a strategy executes, read off a scratch run.
//!
//! For each `Comp(W, Y)` this renders the maintenance terms — which operands
//! play the delta role, which stored extents get scanned, and the join order
//! the engine runs, sized by the filtered row counts it was chosen by — and
//! every expression's model-predicted work beside the linear work the scratch
//! run measured (the paper's §4 metric against §7's measurement, in one
//! unit). Nothing here plans a join: the terms are what
//! [`plan_strategy_sharing`] saw the window runner execute on a scratch
//! clone, so each `Comp` is explained against the state the preceding
//! expressions leave. The paper's WHA writes update scripts by hand;
//! `explain` is the tool that shows what each script line actually does.

use crate::cost::CostModel;
use crate::engine::eval;
use crate::engine::exec::{plan_strategy_sharing, SharingScope};
use crate::engine::profile::TermProfile;
use crate::engine::warehouse::Warehouse;
use crate::error::CoreResult;
use std::fmt::Write as _;
use uww_vdag::{Strategy, UpdateExpr};

/// The plan of one strategy expression.
#[derive(Clone, Debug)]
pub struct ExprPlan {
    /// The expression.
    pub expr: UpdateExpr,
    /// Every maintenance term of a `Comp`, in term order; a term skipped
    /// over an empty delta has no join order.
    pub terms: Vec<TermProfile>,
    /// Model-predicted work given the installs preceding this expression.
    pub predicted_work: f64,
    /// Linear work (rows scanned + installed) the scratch run measured for
    /// this expression: what executing the strategy next reports for it.
    pub measured_work: u64,
}

impl Warehouse {
    /// Explains every expression of `strategy` against the current state
    /// and pending deltas, using `model` for work predictions.
    pub fn explain(&self, strategy: &Strategy, model: &CostModel<'_>) -> CoreResult<Vec<ExprPlan>> {
        let described = plan_strategy_sharing(self, strategy, SharingScope::Comp)?;
        let exprs = strategy.exprs.iter().zip(described.profile.exprs);
        Ok(exprs
            .zip(&described.report.per_expr)
            .zip(model.per_expression_work(strategy))
            .map(|(((e, ran), measured), predicted_work)| {
                // The runner reports the terms it evaluated; the rest of the
                // `Comp`'s terms were skipped.
                let mut ran = ran.terms.into_iter().peekable();
                let all = match e {
                    UpdateExpr::Comp { over, .. } => eval::nonempty_subsets(&self.view_names(over)),
                    UpdateExpr::Inst(_) => Vec::new(),
                };
                let terms = all.into_iter().map(|subset| {
                    let delta_sources: Vec<String> = subset.into_iter().collect();
                    ran.next_if(|t| t.delta_sources == delta_sources)
                        .unwrap_or(TermProfile {
                            delta_sources,
                            join_order: Vec::new(),
                        })
                });
                ExprPlan {
                    expr: e.clone(),
                    terms: terms.collect(),
                    predicted_work,
                    measured_work: measured.work.linear_work(),
                }
            })
            .collect())
    }
}

/// Renders an explain result as indented text.
pub fn render_explain(warehouse: &Warehouse, plans: &[ExprPlan]) -> String {
    let g = warehouse.vdag();
    let mut out = String::new();
    for p in plans {
        let _ = writeln!(
            out,
            "{:<30} predicted work {:.0}, measured work {}",
            p.expr.display(g).to_string(),
            p.predicted_work,
            p.measured_work
        );
        for t in &p.terms {
            let _ = writeln!(
                out,
                "    term Δ{{{}}}: {}{}",
                t.delta_sources.join(","),
                t.join_order.join(" ⋈ "),
                if t.skipped() {
                    "[skipped: empty delta]"
                } else {
                    ""
                }
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::min_work;
    use crate::sizes::SizeCatalog;
    use std::collections::BTreeMap;
    use uww_relational::{
        tup, DeltaRelation, EquiJoin, OutputColumn, Predicate, Schema, Table, Value, ValueType,
        ViewDef, ViewOutput, ViewSource,
    };

    /// Single-column base tables holding `0..rows`, a view `V` joining them
    /// on `joins`, and a batch deleting `0..n` from each `deleted` table.
    fn fixture(
        tables: &[(&str, i64)],
        joins: &[(&str, &str)],
        filters: Vec<Predicate>,
        deleted: &[(&str, i64)],
    ) -> Warehouse {
        let mut b = Warehouse::builder();
        for &(name, rows) in tables {
            let mut t = Table::new(name, Schema::of(&[("k", ValueType::Int)]));
            for i in 0..rows {
                t.insert(tup![Value::Int(i)]).unwrap();
            }
            b = b.base_table(t);
        }
        let first = tables[0].0;
        let mut w = b
            .view(ViewDef {
                name: "V".into(),
                sources: tables.iter().map(|t| ViewSource::named(t.0)).collect(),
                joins: joins.iter().map(|(l, r)| EquiJoin::new(*l, *r)).collect(),
                filters,
                output: ViewOutput::Project(vec![OutputColumn::col("k", format!("{first}.k"))]),
            })
            .build()
            .unwrap();
        let mut changes = BTreeMap::new();
        for &(name, n) in deleted {
            let mut d = DeltaRelation::new(w.table(name).unwrap().schema().clone());
            for i in 0..n {
                d.add(tup![Value::Int(i)], -1);
            }
            changes.insert(name.to_string(), d);
        }
        w.load_changes(changes).unwrap();
        w
    }

    fn warehouse() -> Warehouse {
        fixture(
            &[("R", 100), ("S", 10)],
            &[("R.k", "S.k")],
            vec![],
            &[("R", 1)],
        )
    }

    #[test]
    fn join_order_follows_pushed_down_filters() {
        // Star on T; R is the larger extent but `R.k < 3` leaves 3 rows, so
        // the engine joins it before the 10-row S.
        let w = fixture(
            &[("R", 100), ("S", 10), ("T", 5)],
            &[("R.k", "T.k"), ("S.k", "T.k")],
            vec![Predicate::col_lt("R.k", Value::Int(3))],
            &[("T", 1)],
        );
        let sizes = SizeCatalog::estimate(&w).unwrap();
        let strategy = min_work(w.vdag(), &sizes).unwrap().strategy;
        let model = CostModel::new(w.vdag(), &sizes);
        let term = &w.explain(&strategy, &model).unwrap()[0].terms[0];
        assert_eq!(term.delta_sources, ["T"]);
        assert_eq!(term.join_order, ["ΔT(1)", "R(3)", "S(10)"]);
    }

    #[test]
    fn join_order_follows_earlier_installs() {
        // ΔR empties R down to 2 rows; once it is installed, the term over
        // ΔS(5) starts from R, not from the delta.
        let w = fixture(
            &[("R", 8), ("S", 20)],
            &[("R.k", "S.k")],
            vec![],
            &[("R", 6), ("S", 5)],
        );
        let g = w.vdag();
        let [v, r, s] = ["V", "R", "S"].map(|n| g.id_of(n).unwrap());
        let strategy = Strategy::from_exprs(vec![
            UpdateExpr::comp1(v, r),
            UpdateExpr::inst(r),
            UpdateExpr::comp1(v, s),
            UpdateExpr::inst(s),
            UpdateExpr::inst(v),
        ]);
        let sizes = SizeCatalog::estimate(&w).unwrap();
        let explained = w.explain(&strategy, &CostModel::new(g, &sizes)).unwrap();
        assert_eq!(explained[0].terms[0].join_order, ["ΔR(6)", "S(20)"]);
        assert_eq!(explained[2].terms[0].join_order, ["R(2)", "ΔS(5)"]);
    }

    #[test]
    fn explain_shows_join_orders_and_skips() {
        let w = warehouse();
        let sizes = SizeCatalog::estimate(&w).unwrap();
        let model = CostModel::new(w.vdag(), &sizes);
        let plan = min_work(w.vdag(), &sizes).unwrap();
        let explained = w.explain(&plan.strategy, &model).unwrap();
        assert_eq!(explained.len(), plan.strategy.len());

        // Comp(V,{R}): ΔR is the smallest operand, so it anchors the join.
        let comp_r = explained
            .iter()
            .find(|p| {
                matches!(&p.expr, UpdateExpr::Comp { over, .. }
                    if over.iter().any(|v| w.vdag().name(*v) == "R"))
            })
            .unwrap();
        assert_eq!(comp_r.terms.len(), 1);
        assert_eq!(comp_r.terms[0].join_order[0], "ΔR(1)");
        assert!(!comp_r.terms[0].skipped());

        // Comp(V,{S}): ΔS is empty -> skipped.
        let comp_s = explained
            .iter()
            .find(|p| {
                matches!(&p.expr, UpdateExpr::Comp { over, .. }
                    if over.iter().any(|v| w.vdag().name(*v) == "S"))
            })
            .unwrap();
        assert!(comp_s.terms[0].skipped());
        assert_eq!(comp_s.predicted_work, 0.0);
        assert_eq!(comp_s.measured_work, 0);

        let text = render_explain(&w, &explained);
        assert!(text.contains("Comp(V, {R})"));
        assert!(text.contains("measured work"));
        assert!(text.contains("[skipped: empty delta]"));
        assert!(text.contains("⋈"));
    }

    #[test]
    fn explain_predicts_install_state_changes() {
        let w = warehouse();
        let sizes = SizeCatalog::estimate(&w).unwrap();
        let model = CostModel::new(w.vdag(), &sizes);
        let g = w.vdag();
        let v = g.id_of("V").unwrap();
        let r = g.id_of("R").unwrap();
        let s = g.id_of("S").unwrap();
        // Force S's comp after Inst(R): its (skipped) work stays 0, but
        // Comp(V,{R}) before/after install differs in prediction only via R.
        let strat = Strategy::from_exprs(vec![
            UpdateExpr::comp1(v, r),
            UpdateExpr::inst(r),
            UpdateExpr::comp1(v, s),
            UpdateExpr::inst(s),
            UpdateExpr::inst(v),
        ]);
        let explained = w.explain(&strat, &model).unwrap();
        // Inst(R) work = |ΔR| = 1.
        assert_eq!(explained[1].predicted_work, 1.0);
        assert_eq!(explained[1].measured_work, 1);
        // Final inst(V): delta estimated by the heuristic; non-negative.
        assert!(explained[4].predicted_work >= 0.0);
        // Measured work is what executing the strategy reports.
        let ran = w.clone().execute(&strat).unwrap();
        let measured: Vec<u64> = explained.iter().map(|p| p.measured_work).collect();
        let executed: Vec<u64> = ran.per_expr.iter().map(|e| e.work.linear_work()).collect();
        assert_eq!(measured, executed);
    }
}
