//! Parallel strategies (Section 9).
//!
//! A parallel VDAG strategy is a sequence of expression *sets*: all
//! expressions within a stage can be sent to the database concurrently, and
//! installs take effect between stages. The paper sketches (and defers to
//! future work) two levers for widening stages — dual-stage view strategies
//! (fewer C4 dependencies) and VDAG *flattening* (rewriting a view over an
//! intermediate view to run directly against the intermediate's sources,
//! removing C8 dependencies) — at the price of more total work. This module
//! implements the model, both levers and a makespan cost;
//! [`Warehouse::execute_staged`](crate::engine::Warehouse::execute_staged)
//! runs a parallel strategy on real threads, so the trade-off can be measured.

use crate::cost::CostModel;
use crate::error::{CoreError, CoreResult};
use std::collections::HashSet;
use uww_relational::{ScalarExpr, ViewDef, ViewOutput};
use uww_vdag::{Strategy, UpdateExpr, Vdag, ViewId};

/// A sequence of stages; expressions within a stage run in parallel.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParallelStrategy {
    /// The stages, in execution order.
    pub stages: Vec<Vec<UpdateExpr>>,
}

impl ParallelStrategy {
    /// Total number of expressions.
    pub fn expression_count(&self) -> usize {
        self.stages.iter().map(Vec::len).sum()
    }

    /// The equivalent sequential strategy (stages concatenated).
    pub fn linearize(&self) -> Strategy {
        Strategy::from_exprs(self.stages.iter().flatten().cloned().collect())
    }

    /// Number of stages — the critical-path length.
    pub fn depth(&self) -> usize {
        self.stages.len()
    }
}

/// Converts a correct sequential strategy into a parallel strategy by
/// dependence-preserving list scheduling.
///
/// Two expressions depend on each other when reordering them could change
/// either the result or the database state any `Comp` observes:
///
/// 1. `Inst(v)` after every `Comp` that propagates Δv (C3);
/// 2. `Inst(W)` after every `Comp(W, ·)` (C5);
/// 3. `Comp(W, {..v..})` after every `Comp(v, ·)` (C8);
/// 4. the *sequential order* between `Inst(v)` and any `Comp` whose view
///    reads `v` (in either delta or stored role) is preserved, so every term
///    sees exactly the states it saw sequentially.
///
/// Each expression is placed in the earliest stage after all its
/// dependencies.
pub fn parallelize(g: &Vdag, s: &Strategy) -> ParallelStrategy {
    let n = s.len();
    let mut stage = vec![0usize; n];
    for j in 0..n {
        let mut min_stage = 0usize;
        for (i, earlier_stage) in stage.iter().enumerate().take(j) {
            if uww_vdag::depends(g, &s.exprs[i], &s.exprs[j]) {
                min_stage = min_stage.max(earlier_stage + 1);
            }
        }
        stage[j] = min_stage;
    }
    let depth = stage.iter().copied().max().map_or(0, |d| d + 1);
    let mut stages = vec![Vec::new(); depth];
    for (j, e) in s.exprs.iter().enumerate() {
        stages[stage[j]].push(e.clone());
    }
    ParallelStrategy { stages }
}

/// Makespan of a parallel strategy under the linear work metric: the sum
/// over stages of the most expensive expression in the stage. Installs take
/// effect at stage boundaries.
pub fn makespan(model: &CostModel<'_>, p: &ParallelStrategy) -> f64 {
    let mut installed: HashSet<ViewId> = HashSet::new();
    let mut total = 0.0;
    for stage in &p.stages {
        let mut worst = 0.0f64;
        for e in stage {
            worst = worst.max(model.expression_work(e, &installed));
        }
        total += worst;
        for e in stage {
            if let UpdateExpr::Inst(v) = e {
                installed.insert(*v);
            }
        }
    }
    total
}

/// Total (sequential-equivalent) work of a parallel strategy.
pub fn total_work(model: &CostModel<'_>, p: &ParallelStrategy) -> f64 {
    let mut installed: HashSet<ViewId> = HashSet::new();
    let mut total = 0.0;
    for stage in &p.stages {
        for e in stage {
            total += model.expression_work(e, &installed);
        }
        for e in stage {
            if let UpdateExpr::Inst(v) = e {
                installed.insert(*v);
            }
        }
    }
    total
}

/// **Flattening** (Section 9, technique 2): rewrites `outer` (defined over
/// the intermediate view `inner`, which must be a *projection* view) to run
/// directly over `inner`'s sources, eliminating the C8 dependency between
/// their `Comp` expressions.
///
/// Every reference to an `inner` output column is substituted by its
/// defining expression; `inner`'s sources, joins and filters are inlined.
/// Fails for aggregate intermediates (their rows are not a function of
/// single source rows) and when source sets would collide.
pub fn flatten_def(outer: &ViewDef, inner: &ViewDef) -> CoreResult<ViewDef> {
    let inner_alias = outer
        .alias_of(&inner.name)
        .ok_or_else(|| {
            CoreError::Planner(format!("{} is not defined over {}", outer.name, inner.name))
        })?
        .to_string();
    let inner_outputs = match &inner.output {
        ViewOutput::Project(outs) => outs,
        ViewOutput::Aggregate { .. } => {
            return Err(CoreError::Planner(format!(
                "cannot flatten through aggregate view {}",
                inner.name
            )))
        }
    };

    // Substitution map: "ALIAS.col" -> inner defining expression.
    let substitute = |e: &ScalarExpr| -> CoreResult<ScalarExpr> {
        Ok(substitute_expr(e, &inner_alias, inner_outputs))
    };

    // New source list: outer's sources minus the inner view, plus inner's
    // sources.
    let mut sources = Vec::new();
    for s in &outer.sources {
        if s.view != inner.name {
            sources.push(s.clone());
        }
    }
    for s in &inner.sources {
        if sources
            .iter()
            .any(|t| t.view == s.view || t.alias == s.alias)
        {
            return Err(CoreError::Planner(format!(
                "flattening {} into {} would duplicate source {}",
                inner.name, outer.name, s.view
            )));
        }
        sources.push(s.clone());
    }

    // Joins: outer joins with substituted endpoints must remain simple
    // column-to-column equalities.
    let mut joins = Vec::new();
    let mut filters = Vec::new();
    for j in &outer.joins {
        let l = substitute(&ScalarExpr::Col(j.left.clone()))?;
        let r = substitute(&ScalarExpr::Col(j.right.clone()))?;
        match (&l, &r) {
            (ScalarExpr::Col(lc), ScalarExpr::Col(rc)) => {
                joins.push(uww_relational::EquiJoin::new(lc.clone(), rc.clone()));
            }
            _ => {
                // A computed join key becomes a residual filter.
                filters.push(uww_relational::Predicate::Cmp(
                    uww_relational::CmpOp::Eq,
                    l,
                    r,
                ));
            }
        }
    }
    joins.extend(inner.joins.iter().cloned());

    for f in &outer.filters {
        filters.push(substitute_pred(f, &inner_alias, inner_outputs));
    }
    filters.extend(inner.filters.iter().cloned());

    let output = match &outer.output {
        ViewOutput::Project(outs) => ViewOutput::Project(
            outs.iter()
                .map(|o| {
                    Ok(uww_relational::OutputColumn {
                        name: o.name.clone(),
                        expr: substitute(&o.expr)?,
                    })
                })
                .collect::<CoreResult<_>>()?,
        ),
        ViewOutput::Aggregate {
            group_by,
            aggregates,
        } => ViewOutput::Aggregate {
            group_by: group_by
                .iter()
                .map(|o| {
                    Ok(uww_relational::OutputColumn {
                        name: o.name.clone(),
                        expr: substitute(&o.expr)?,
                    })
                })
                .collect::<CoreResult<_>>()?,
            aggregates: aggregates
                .iter()
                .map(|a| {
                    Ok(uww_relational::AggregateColumn {
                        name: a.name.clone(),
                        func: a.func,
                        input: substitute(&a.input)?,
                    })
                })
                .collect::<CoreResult<_>>()?,
        },
    };

    Ok(ViewDef {
        name: outer.name.clone(),
        sources,
        joins,
        filters,
        output,
    })
}

fn substitute_expr(
    e: &ScalarExpr,
    inner_alias: &str,
    outs: &[uww_relational::OutputColumn],
) -> ScalarExpr {
    match e {
        ScalarExpr::Col(c) => {
            if let Some(rest) = c.strip_prefix(inner_alias) {
                if let Some(col) = rest.strip_prefix('.') {
                    if let Some(o) = outs.iter().find(|o| o.name == col) {
                        return o.expr.clone();
                    }
                }
            }
            e.clone()
        }
        ScalarExpr::Lit(_) => e.clone(),
        ScalarExpr::Add(a, b) => ScalarExpr::Add(
            Box::new(substitute_expr(a, inner_alias, outs)),
            Box::new(substitute_expr(b, inner_alias, outs)),
        ),
        ScalarExpr::Sub(a, b) => ScalarExpr::Sub(
            Box::new(substitute_expr(a, inner_alias, outs)),
            Box::new(substitute_expr(b, inner_alias, outs)),
        ),
        ScalarExpr::Mul(a, b) => ScalarExpr::Mul(
            Box::new(substitute_expr(a, inner_alias, outs)),
            Box::new(substitute_expr(b, inner_alias, outs)),
        ),
    }
}

fn substitute_pred(
    p: &uww_relational::Predicate,
    inner_alias: &str,
    outs: &[uww_relational::OutputColumn],
) -> uww_relational::Predicate {
    use uww_relational::Predicate as P;
    match p {
        P::Cmp(op, a, b) => P::Cmp(
            *op,
            substitute_expr(a, inner_alias, outs),
            substitute_expr(b, inner_alias, outs),
        ),
        P::And(a, b) => P::And(
            Box::new(substitute_pred(a, inner_alias, outs)),
            Box::new(substitute_pred(b, inner_alias, outs)),
        ),
        P::Or(a, b) => P::Or(
            Box::new(substitute_pred(a, inner_alias, outs)),
            Box::new(substitute_pred(b, inner_alias, outs)),
        ),
        P::Not(a) => P::Not(Box::new(substitute_pred(a, inner_alias, outs))),
        P::True => P::True,
    }
}

/// The canonical stage-by-stage linearization the WAL manifest records for
/// a parallel strategy: each stage's `Comp`s (in stage order), then its
/// `Inst`s (in stage order) — exactly the order
/// [`Warehouse::execute_staged`](crate::engine::Warehouse::execute_staged)
/// makes its effects visible (fragments merge after the comp threads join,
/// installs land at the stage boundary). Stage races that would make this
/// reordering unfaithful are rejected up front by `analyze_parallel` (UWW001),
/// which is what lets recovery resume a crashed staged run *sequentially*
/// in this order.
pub fn canonical_stage_order(p: &ParallelStrategy) -> Vec<(usize, UpdateExpr)> {
    let mut out = Vec::with_capacity(p.expression_count());
    for (si, stage) in p.stages.iter().enumerate() {
        for e in stage {
            if matches!(e, UpdateExpr::Comp { .. }) {
                out.push((si, e.clone()));
            }
        }
        for e in stage {
            if matches!(e, UpdateExpr::Inst(_)) {
                out.push((si, e.clone()));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{ExecOptions, Warehouse};
    use crate::sizes::{SizeCatalog, SizeInfo};
    use uww_relational::{OutputColumn, Predicate, Value, ViewSource};
    use uww_vdag::{check_vdag_strategy, dual_stage_strategy, figure3_vdag};

    fn sizes_for(g: &Vdag) -> SizeCatalog {
        let mut cat = SizeCatalog::default();
        for v in g.view_ids() {
            let pre = 100.0 * (v.0 + 1) as f64;
            cat.set(
                v,
                SizeInfo {
                    pre,
                    post: pre * 0.9,
                    delta: pre * 0.1,
                },
            );
        }
        cat
    }

    #[test]
    fn parallelize_preserves_linearized_correctness() {
        let g = figure3_vdag();
        let s = dual_stage_strategy(&g);
        let p = parallelize(&g, &s);
        check_vdag_strategy(&g, &p.linearize()).unwrap();
        assert_eq!(p.expression_count(), s.len());
        // Dual-stage: V4/V5 comps depend via C8; installs all in a later
        // stage. Depth must be < sequential length.
        assert!(p.depth() < s.len());
    }

    #[test]
    fn one_way_strategies_parallelize_poorly() {
        // The paper's observation: 1-way strategies have long dependency
        // chains, so their parallel form is nearly as deep as sequential;
        // dual-stage exposes much more parallelism.
        let g = figure3_vdag();
        let sizes = sizes_for(&g);
        let plan = crate::planner::min_work(&g, &sizes).unwrap();
        let p1 = parallelize(&g, &plan.strategy);
        let pd = parallelize(&g, &dual_stage_strategy(&g));
        assert!(
            pd.depth() < p1.depth(),
            "dual {} vs 1-way {}",
            pd.depth(),
            p1.depth()
        );
    }

    #[test]
    fn makespan_trade_off() {
        // Dual-stage: lower makespan potential per stage, higher total work.
        let g = figure3_vdag();
        let sizes = sizes_for(&g);
        let model = CostModel::new(&g, &sizes);
        let plan = crate::planner::min_work(&g, &sizes).unwrap();
        let p1 = parallelize(&g, &plan.strategy);
        let pd = parallelize(&g, &dual_stage_strategy(&g));
        let tw1 = total_work(&model, &p1);
        let twd = total_work(&model, &pd);
        assert!(tw1 < twd, "1-way total work must be lower: {tw1} vs {twd}");
        // Makespan: both are positive; sequential makespan of p1 equals its
        // total work when every stage is a singleton.
        if p1.stages.iter().all(|s| s.len() == 1) {
            assert!((makespan(&model, &p1) - tw1).abs() < 1e-9);
        }
        assert!(makespan(&model, &pd) <= twd);
    }

    #[test]
    fn threaded_execution_matches_sequential() {
        use uww_relational::{tup, DeltaRelation, Schema, Table, ValueType};
        // Build a real warehouse: two bases, two summary views.
        let mut r = Table::new(
            "R",
            Schema::of(&[("k", ValueType::Int), ("g", ValueType::Int)]),
        );
        for i in 0..200 {
            r.insert(tup![Value::Int(i), Value::Int(i % 7)]).unwrap();
        }
        let mut s = Table::new("S", Schema::of(&[("k", ValueType::Int)]));
        for i in 0..200 {
            s.insert(tup![Value::Int(i)]).unwrap();
        }
        let mk_view = |name: &str, modulus: i64| ViewDef {
            name: name.into(),
            sources: vec![ViewSource::named("R"), ViewSource::named("S")],
            joins: vec![uww_relational::EquiJoin::new("R.k", "S.k")],
            filters: vec![Predicate::col_ge("R.g", Value::Int(modulus))],
            output: ViewOutput::Project(vec![
                OutputColumn::col("k", "R.k"),
                OutputColumn::col("g", "R.g"),
            ]),
        };
        let base = Warehouse::builder()
            .base_table(r)
            .base_table(s)
            .view(mk_view("V1", 0))
            .view(mk_view("V2", 3))
            .build()
            .unwrap();
        let mut delta = DeltaRelation::new(base.table("R").unwrap().schema().clone());
        for i in 0..40 {
            delta.add(tup![Value::Int(i), Value::Int(i % 7)], -1);
        }
        let changes: std::collections::BTreeMap<_, _> =
            [("R".to_string(), delta)].into_iter().collect();

        let g = base.vdag();
        let dual = dual_stage_strategy(g);
        let p = parallelize(g, &dual);
        // Dual-stage over two independent summaries: both comps share a
        // stage, so the threads genuinely overlap.
        assert!(p.stages[0].len() >= 2);

        let mut seq = base.clone();
        seq.load_changes(changes.clone()).unwrap();
        let expected = seq.expected_final_state().unwrap();
        let seq_report = seq.execute(&p.linearize()).unwrap();

        let mut par = base.clone();
        par.load_changes(changes).unwrap();
        let par_report = par.execute_staged(&p, ExecOptions::default()).unwrap();

        assert!(par.diff_state(&expected).is_empty());
        assert!(seq.diff_state(&expected).is_empty());
        // Identical measured work, stage structure preserved.
        assert_eq!(
            par_report.total_work().operand_rows_scanned,
            seq_report.total_work().operand_rows_scanned
        );
        assert_eq!(
            par_report.total_work().rows_installed,
            seq_report.total_work().rows_installed
        );
        assert_eq!(par_report.stage_walls.len(), p.depth());
        assert_eq!(par_report.per_expr.len(), p.expression_count());
        assert!(par_report.linear_work() > 0);
        assert!(par_report.wall() > std::time::Duration::ZERO);
    }

    #[test]
    fn threaded_execution_publishes_the_window_once() {
        use crate::engine::InstallPublisher;
        use std::sync::Arc;
        use uww_relational::{tup, DeltaRelation, Schema, Table, ValueType, VersionedCatalog};
        let mut r = Table::new(
            "R",
            Schema::of(&[("k", ValueType::Int), ("g", ValueType::Int)]),
        );
        for i in 0..50 {
            r.insert(tup![Value::Int(i), Value::Int(i % 5)]).unwrap();
        }
        let mk_view = |name: &str, modulus: i64| ViewDef {
            name: name.into(),
            sources: vec![ViewSource::named("R")],
            joins: vec![],
            filters: vec![Predicate::col_ge("R.g", Value::Int(modulus))],
            output: ViewOutput::Project(vec![OutputColumn::col("k", "R.k")]),
        };
        let mut w = Warehouse::builder()
            .base_table(r)
            .view(mk_view("V1", 0))
            .view(mk_view("V2", 2))
            .build()
            .unwrap();
        let mut delta = DeltaRelation::new(w.table("R").unwrap().schema().clone());
        for i in 0..10 {
            delta.add(tup![Value::Int(i), Value::Int(i % 5)], -1);
        }
        w.load_changes([("R".to_string(), delta)].into_iter().collect())
            .unwrap();

        let versioned = Arc::new(VersionedCatalog::from_catalog(w.state()));
        w.attach_publisher(InstallPublisher::new(Arc::clone(&versioned), false));
        let p = parallelize(w.vdag(), &dual_stage_strategy(w.vdag()));
        w.execute_staged(&p, ExecOptions::default()).unwrap();

        // One published epoch for the window, and the published extents
        // equal the engine's final state.
        assert_eq!(versioned.epoch(), 1);
        let snap = versioned.snapshot();
        for table in w.state().iter() {
            assert!(snap.get(table.name()).unwrap().same_contents(table));
        }
    }

    #[test]
    fn threaded_execution_rejects_incorrect_schedules() {
        use uww_relational::{tup, Schema, Table, ValueType};
        let mut r = Table::new("R", Schema::of(&[("k", ValueType::Int)]));
        r.insert(tup![Value::Int(1)]).unwrap();
        let def = ViewDef {
            name: "V".into(),
            sources: vec![ViewSource::named("R")],
            joins: vec![],
            filters: vec![],
            output: ViewOutput::Project(vec![OutputColumn::col("k", "R.k")]),
        };
        let mut w = Warehouse::builder()
            .base_table(r)
            .view(def)
            .build()
            .unwrap();
        // Installs R before its comp: invalid.
        let bad = ParallelStrategy {
            stages: vec![
                vec![UpdateExpr::inst(w.view_id("R").unwrap())],
                vec![UpdateExpr::comp1(
                    w.view_id("V").unwrap(),
                    w.view_id("R").unwrap(),
                )],
                vec![UpdateExpr::inst(w.view_id("V").unwrap())],
            ],
        };
        assert!(w.execute_staged(&bad, ExecOptions::default()).is_err());
    }

    #[test]
    fn threaded_execution_rejects_same_stage_races() {
        use uww_relational::{tup, Schema, Table, ValueType};
        // R -> P -> W chain: Comp(P) and Comp(W, {P}) in ONE stage is a race
        // the linearized dynamic check cannot see (its linearization is
        // C8-legal), but the staged executor would compute W against the
        // frozen stage-entry ΔP = ∅ and silently drop the update.
        let mut r = Table::new("R", Schema::of(&[("k", ValueType::Int)]));
        r.insert(tup![Value::Int(1)]).unwrap();
        let p_def = ViewDef {
            name: "P".into(),
            sources: vec![ViewSource::named("R")],
            joins: vec![],
            filters: vec![],
            output: ViewOutput::Project(vec![OutputColumn::col("k", "R.k")]),
        };
        let w_def = ViewDef {
            name: "W".into(),
            sources: vec![ViewSource::named("P")],
            joins: vec![],
            filters: vec![],
            output: ViewOutput::Project(vec![OutputColumn::col("k", "P.k")]),
        };
        let mut w = Warehouse::builder()
            .base_table(r)
            .view(p_def)
            .view(w_def)
            .build()
            .unwrap();
        let rid = w.view_id("R").unwrap();
        let pid = w.view_id("P").unwrap();
        let wid = w.view_id("W").unwrap();
        let racy = ParallelStrategy {
            stages: vec![
                vec![UpdateExpr::comp1(pid, rid), UpdateExpr::comp1(wid, pid)],
                vec![
                    UpdateExpr::inst(rid),
                    UpdateExpr::inst(pid),
                    UpdateExpr::inst(wid),
                ],
            ],
        };
        // The linearization alone is fine — that is exactly the hole.
        check_vdag_strategy(w.vdag(), &racy.linearize()).unwrap();
        match w.execute_staged(&racy, ExecOptions::default()).unwrap_err() {
            CoreError::Analysis(report) => {
                assert!(report.diagnostics.iter().any(|d| d.rule.id() == "UWW001"));
            }
            other => panic!("expected a stage-race rejection, got {other:?}"),
        }
        // De-racing the schedule (one comp per stage) executes fine.
        let ok = ParallelStrategy {
            stages: vec![
                vec![UpdateExpr::comp1(pid, rid)],
                vec![UpdateExpr::comp1(wid, pid)],
                vec![
                    UpdateExpr::inst(rid),
                    UpdateExpr::inst(pid),
                    UpdateExpr::inst(wid),
                ],
            ],
        };
        w.execute_staged(&ok, ExecOptions::default()).unwrap();
    }

    #[test]
    fn flatten_projection_chain() {
        // P = Π(R where rv > 1), W = Π(P ⋈ S). Flattened W runs on R, S.
        let p = ViewDef {
            name: "P".into(),
            sources: vec![ViewSource::named("R")],
            joins: vec![],
            filters: vec![Predicate::col_gt("R.rv", Value::Int(1))],
            output: ViewOutput::Project(vec![
                OutputColumn::col("k", "R.rk"),
                OutputColumn::new("v2", ScalarExpr::col("R.rv").add(ScalarExpr::col("R.rv"))),
            ]),
        };
        let w = ViewDef {
            name: "W".into(),
            sources: vec![ViewSource::named("P"), ViewSource::named("S")],
            joins: vec![uww_relational::EquiJoin::new("P.k", "S.sk")],
            filters: vec![Predicate::col_eq("S.tag", Value::str("x"))],
            output: ViewOutput::Project(vec![
                OutputColumn::col("out", "P.v2"),
                OutputColumn::col("tag", "S.tag"),
            ]),
        };
        let flat = flatten_def(&w, &p).unwrap();
        assert_eq!(flat.source_views(), vec!["S", "R"]);
        // P.k -> R.rk stays a simple equi-join.
        assert!(flat
            .joins
            .iter()
            .any(|j| (j.left == "R.rk" && j.right == "S.sk")
                || (j.left == "S.sk" && j.right == "R.rk")));
        // P's filter inlined.
        assert!(flat
            .filters
            .contains(&Predicate::col_gt("R.rv", Value::Int(1))));
        // Output substituted: P.v2 -> R.rv + R.rv.
        match &flat.output {
            ViewOutput::Project(outs) => {
                assert_eq!(
                    outs[0].expr,
                    ScalarExpr::col("R.rv").add(ScalarExpr::col("R.rv"))
                );
            }
            _ => panic!("project expected"),
        }
    }

    #[test]
    fn flatten_through_aggregate_rejected() {
        let inner = ViewDef {
            name: "A".into(),
            sources: vec![ViewSource::named("R")],
            joins: vec![],
            filters: vec![],
            output: ViewOutput::Aggregate {
                group_by: vec![OutputColumn::col("k", "R.rk")],
                aggregates: vec![],
            },
        };
        let outer = ViewDef {
            name: "W".into(),
            sources: vec![ViewSource::named("A")],
            joins: vec![],
            filters: vec![],
            output: ViewOutput::Project(vec![OutputColumn::col("k", "A.k")]),
        };
        assert!(flatten_def(&outer, &inner).is_err());
    }

    #[test]
    fn flatten_detects_source_collision() {
        let inner = ViewDef {
            name: "P".into(),
            sources: vec![ViewSource::named("R")],
            joins: vec![],
            filters: vec![],
            output: ViewOutput::Project(vec![OutputColumn::col("k", "R.rk")]),
        };
        let outer = ViewDef {
            name: "W".into(),
            sources: vec![ViewSource::named("P"), ViewSource::named("R")],
            joins: vec![uww_relational::EquiJoin::new("P.k", "R.rk")],
            filters: vec![],
            output: ViewOutput::Project(vec![OutputColumn::col("k", "P.k")]),
        };
        assert!(flatten_def(&outer, &inner).is_err());
    }
}
