//! Maintenance-term evaluation (the paper's term-execution model).
//!
//! `Comp(W, Y)` expands into `2^|Y| − 1` terms; each term is a standalone
//! select-project-join evaluation whose operands are the *delta* forms of a
//! non-empty subset of `Y` and the *current stored* forms of every other
//! source of `W` (Section 3.3). This module evaluates one term: it pulls
//! each operand exactly once (charging the work meter for the full scan),
//! pushes single-source filters below the joins, greedily hash-joins
//! starting from the smallest operand (deltas are small, so they anchor the
//! join order), and applies residual filters at the end.
//!
//! The engine itself evaluates a `Comp`'s terms through the shared operand
//! cache of `engine::share`; [`reference_comp_fragment`] keeps the plain
//! term-at-a-time evaluation as the reference tests compare it against.

use crate::engine::share::surviving_terms;
use crate::engine::warehouse::{scan_operand, PendingDelta, Warehouse};
use crate::error::{CoreError, CoreResult};
use std::collections::BTreeSet;
use uww_relational::ops::{self, SignedRows};
use uww_relational::{
    AggFunc, BoundExpr, Predicate, RelError, RelResult, Schema, ValueType, ViewDef, ViewOutput,
    WorkMeter,
};
use uww_vdag::ViewId;

/// Evaluates one maintenance term of `def`.
///
/// * `schema_of(view)` returns the stored schema of a source view.
/// * `operand(view)` returns the term operand for that source — the caller
///   decides per source whether that is the stored extent or the delta, and
///   charges the meter for the scan.
///
/// Returns the joined rows together with their qualified schema (column
/// order depends on the chosen join order; downstream expressions bind by
/// name, so the order is irrelevant).
pub fn eval_term(
    def: &ViewDef,
    mut schema_of: impl FnMut(&str) -> RelResult<Schema>,
    mut operand: impl FnMut(&str) -> RelResult<SignedRows>,
    meter: &mut WorkMeter,
) -> RelResult<(Schema, SignedRows)> {
    meter.term();
    let n = def.sources.len();

    // Qualified per-source schemas.
    let mut qschemas = Vec::with_capacity(n);
    for s in &def.sources {
        qschemas.push(schema_of(&s.view)?.qualified(&s.alias));
    }

    // Split filters into single-source (pushed down) and residual.
    let mut local: Vec<Vec<&Predicate>> = vec![Vec::new(); n];
    let mut residual: Vec<&Predicate> = Vec::new();
    for f in &def.filters {
        match single_source_of(def, f) {
            Some(i) => local[i].push(f),
            None => residual.push(f),
        }
    }

    // Load and pre-filter each operand.
    let mut rows: Vec<Option<SignedRows>> = Vec::with_capacity(n);
    for (i, s) in def.sources.iter().enumerate() {
        let mut r = operand(&s.view)?;
        for f in &local[i] {
            let bound = f.bind(&qschemas[i])?;
            r = ops::filter(r, &bound)?;
        }
        rows.push(Some(r));
    }

    // Greedy join order: start from the smallest operand, then repeatedly
    // join the smallest source connected by an equi-join edge.
    let start = (0..n)
        .min_by_key(|&i| rows[i].as_ref().map_or(usize::MAX, Vec::len))
        .expect("at least one source");
    let mut joined_schema = qschemas[start].clone();
    let mut joined_rows = rows[start].take().expect("start operand");
    let mut in_set = vec![false; n];
    in_set[start] = true;

    for _ in 1..n {
        let next = pick_next(def, &in_set, |i| {
            rows[i].as_ref().map_or(usize::MAX, Vec::len)
        });
        let (lk, rk) = join_keys(def, &in_set, next, &joined_schema, &qschemas[next])?;
        let right = rows[next].take().expect("operand joined twice");
        joined_rows = if lk.is_empty() {
            ops::cross_join(&joined_rows, &right, meter)?
        } else {
            ops::hash_join(&joined_rows, &lk, &right, &rk, meter)?
        };
        joined_schema = joined_schema.concat(&qschemas[next])?;
        in_set[next] = true;
        if joined_rows.is_empty() {
            // Remaining joins cannot resurrect an empty intermediate, but the
            // term-execution model still scans the remaining operands.
            for (j, slot) in rows.iter_mut().enumerate() {
                if !in_set[j] {
                    if let Some(r) = slot.take() {
                        drop(r);
                        joined_schema = joined_schema.concat(&qschemas[j])?;
                        in_set[j] = true;
                    }
                }
            }
            break;
        }
    }

    for f in residual {
        let bound = f.bind(&joined_schema)?;
        joined_rows = ops::filter(joined_rows, &bound)?;
    }
    Ok((joined_schema, joined_rows))
}

/// Picks the next source to join: the smallest operand connected to the
/// current set, falling back to the smallest remaining (cross join) when the
/// join graph is disconnected. `size(i)` reports the (filtered) operand size
/// of source `i`, `usize::MAX` once joined — shared by the per-term and
/// cached-operand evaluators so both pick byte-identical join orders.
pub(crate) fn pick_next(def: &ViewDef, in_set: &[bool], size: impl Fn(usize) -> usize) -> usize {
    let connected: Vec<usize> = (0..in_set.len())
        .filter(|&i| !in_set[i] && is_connected(def, in_set, i))
        .collect();
    if let Some(&best) = connected.iter().min_by_key(|&&i| size(i)) {
        return best;
    }
    (0..in_set.len())
        .filter(|&i| !in_set[i])
        .min_by_key(|&i| size(i))
        .expect("some source remains")
}

pub(crate) fn is_connected(def: &ViewDef, in_set: &[bool], candidate: usize) -> bool {
    def.joins.iter().any(|j| {
        let a = def.source_of_column(&j.left);
        let b = def.source_of_column(&j.right);
        match (a, b) {
            (Some(a), Some(b)) => (a == candidate && in_set[b]) || (b == candidate && in_set[a]),
            _ => false,
        }
    })
}

/// Join-key column indices between the current joined schema and the next
/// source's qualified schema, from every applicable equi-join condition.
pub(crate) fn join_keys(
    def: &ViewDef,
    in_set: &[bool],
    next: usize,
    joined_schema: &Schema,
    next_schema: &Schema,
) -> RelResult<(Vec<usize>, Vec<usize>)> {
    let mut lk = Vec::new();
    let mut rk = Vec::new();
    for j in &def.joins {
        let a = def.source_of_column(&j.left);
        let b = def.source_of_column(&j.right);
        let (joined_col, next_col) = match (a, b) {
            (Some(a), Some(b)) if a == next && in_set[b] => (&j.right, &j.left),
            (Some(a), Some(b)) if b == next && in_set[a] => (&j.left, &j.right),
            _ => continue,
        };
        lk.push(joined_schema.index_of(joined_col)?);
        rk.push(next_schema.index_of(next_col)?);
    }
    Ok((lk, rk))
}

pub(crate) fn single_source_of(def: &ViewDef, f: &Predicate) -> Option<usize> {
    let cols = f.referenced_columns();
    let mut source = None;
    for c in cols {
        let s = def.source_of_column(c)?;
        match source {
            None => source = Some(s),
            Some(prev) if prev == s => {}
            Some(_) => return None,
        }
    }
    source
}

/// Projects term output rows into the view's visible output rows
/// (non-aggregate views).
pub fn project_output(
    def: &ViewDef,
    term_schema: &Schema,
    rows: &SignedRows,
    meter: &mut WorkMeter,
) -> RelResult<SignedRows> {
    let outs = match &def.output {
        ViewOutput::Project(outs) => outs,
        ViewOutput::Aggregate { .. } => {
            return Err(RelError::SchemaMismatch {
                detail: format!("{} is an aggregate view", def.name),
            })
        }
    };
    let exprs: Vec<BoundExpr> = outs
        .iter()
        .map(|o| o.expr.bind(term_schema))
        .collect::<RelResult<_>>()?;
    ops::project(rows, &exprs, meter)
}

/// Groups term output rows into per-group accumulator deltas
/// (aggregate views).
pub fn group_output(
    def: &ViewDef,
    term_schema: &Schema,
    rows: &SignedRows,
) -> RelResult<ops::GroupMap> {
    let spec = agg_spec(def, term_schema)?;
    ops::group_rows(rows, &spec)
}

/// The `(function, output type)` pairs of an aggregate view's aggregates.
pub fn agg_types(def: &ViewDef, joined_schema: &Schema) -> RelResult<Vec<(AggFunc, ValueType)>> {
    match &def.output {
        ViewOutput::Aggregate { aggregates, .. } => aggregates
            .iter()
            .map(|a| {
                let ty = match a.func {
                    AggFunc::Sum | AggFunc::Min | AggFunc::Max => {
                        a.input.output_type(joined_schema)?
                    }
                    AggFunc::Count => ValueType::Int,
                };
                Ok((a.func, ty))
            })
            .collect(),
        ViewOutput::Project(_) => Err(RelError::SchemaMismatch {
            detail: format!("{} is not an aggregate view", def.name),
        }),
    }
}

pub(crate) fn agg_spec(def: &ViewDef, term_schema: &Schema) -> RelResult<ops::AggSpec> {
    match &def.output {
        ViewOutput::Aggregate {
            group_by,
            aggregates,
        } => {
            let group_by = group_by
                .iter()
                .map(|g| g.expr.bind(term_schema))
                .collect::<RelResult<_>>()?;
            let aggs = aggregates
                .iter()
                .map(|a| {
                    let ty = match a.func {
                        AggFunc::Sum | AggFunc::Min | AggFunc::Max => {
                            a.input.output_type(term_schema)?
                        }
                        AggFunc::Count => ValueType::Int,
                    };
                    Ok((a.func, a.input.bind(term_schema)?, ty))
                })
                .collect::<RelResult<_>>()?;
            Ok(ops::AggSpec { group_by, aggs })
        }
        ViewOutput::Project(_) => Err(RelError::SchemaMismatch {
            detail: format!("{} is not an aggregate view", def.name),
        }),
    }
}

/// Reference evaluation of `Comp(view, over)` against the warehouse's current
/// state and pending deltas, **without mutating it**: every surviving term
/// (footnote 5) re-scans each of its operands and joins them from scratch
/// through [`eval_term`] — no operand cache, no interned build tables, no
/// partitioning. No option selects it and the engine never calls it; tests
/// hold the shared evaluator to its fragment bytes and logical meter, and
/// to touching no more physical rows than it does.
pub fn reference_comp_fragment(
    w: &Warehouse,
    view: ViewId,
    over: &BTreeSet<ViewId>,
) -> CoreResult<(PendingDelta, WorkMeter)> {
    let name = w.vdag().name(view);
    let def = w
        .def(name)
        .ok_or_else(|| CoreError::Warehouse(format!("no definition for {name}")))?;
    let (state, pending) = (w.state(), w.pending_map());
    let mut fragment = w.empty_pending_for(name)?;
    let mut total = WorkMeter::new();
    for subset in surviving_terms(w, &w.view_names(over)) {
        let mut scans = WorkMeter::new();
        let (schema, rows) = eval_term(
            def,
            |v| state.get(v).map(|t| t.schema().clone()),
            |v| scan_operand(state, pending, v, subset.contains(v), &mut scans),
            &mut total,
        )?;
        total.absorb(&scans);
        match &mut fragment {
            PendingDelta::Rows(acc) => {
                let out = project_output(def, &schema, &rows, &mut total)?;
                for (t, m) in ops::consolidate(out) {
                    acc.add(t, m);
                }
            }
            PendingDelta::Summary(acc) => acc.merge_groups(group_output(def, &schema, &rows)?),
        }
    }
    Ok((fragment, total))
}

/// All non-empty subsets of `set`, ordered by size then lexicographically —
/// the `2^|Y| − 1` delta combinations of a `Comp(W, Y)` expression.
pub fn nonempty_subsets<T: Clone + Ord>(set: &BTreeSet<T>) -> Vec<BTreeSet<T>> {
    let items: Vec<T> = set.iter().cloned().collect();
    let n = items.len();
    let mut out: Vec<BTreeSet<T>> = Vec::with_capacity((1usize << n) - 1);
    for mask in 1u32..(1u32 << n) {
        let subset: BTreeSet<T> = (0..n)
            .filter(|i| mask & (1 << i) != 0)
            .map(|i| items[i].clone())
            .collect();
        out.push(subset);
    }
    out.sort_by_key(|s| s.len());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use uww_relational::{tup, EquiJoin, OutputColumn, Table, Value, ViewSource};

    fn r_table() -> Table {
        let mut t = Table::new(
            "R",
            Schema::of(&[("rk", ValueType::Int), ("rv", ValueType::Int)]),
        );
        for i in 0..5 {
            t.insert(tup![Value::Int(i), Value::Int(10 * i)]).unwrap();
        }
        t
    }

    fn s_table() -> Table {
        let mut t = Table::new(
            "S",
            Schema::of(&[("sk", ValueType::Int), ("tag", ValueType::Str)]),
        );
        for i in 0..5 {
            let tag = if i % 2 == 0 { "even" } else { "odd" };
            t.insert(tup![Value::Int(i), Value::str(tag)]).unwrap();
        }
        t
    }

    fn def() -> ViewDef {
        ViewDef {
            name: "V".into(),
            sources: vec![ViewSource::named("R"), ViewSource::named("S")],
            joins: vec![EquiJoin::new("R.rk", "S.sk")],
            filters: vec![Predicate::col_eq("S.tag", Value::str("even"))],
            output: ViewOutput::Project(vec![
                OutputColumn::col("k", "R.rk"),
                OutputColumn::col("v", "R.rv"),
            ]),
        }
    }

    fn schema_lookup(name: &str) -> RelResult<Schema> {
        match name {
            "R" => Ok(r_table().schema().clone()),
            "S" => Ok(s_table().schema().clone()),
            _ => Err(RelError::UnknownRelation(name.into())),
        }
    }

    #[test]
    fn full_term_evaluates_join_and_filter() {
        let (r, s) = (r_table(), s_table());
        let mut meter = WorkMeter::new();
        let (schema, rows) = eval_term(
            &def(),
            schema_lookup,
            |name| {
                Ok(match name {
                    "R" => ops::scan_table(&r, &mut WorkMeter::new()),
                    _ => ops::scan_table(&s, &mut WorkMeter::new()),
                })
            },
            &mut meter,
        )
        .unwrap();
        // keys 0, 2, 4 are even.
        assert_eq!(rows.len(), 3);
        assert_eq!(schema.len(), 4);
        let out = project_output(&def(), &schema, &rows, &mut meter).unwrap();
        assert!(out.contains(&(tup![Value::Int(4), Value::Int(40)], 1)));
        assert_eq!(meter.terms_evaluated, 1);
    }

    #[test]
    fn delta_operand_signs_propagate() {
        let r = r_table();
        let mut meter = WorkMeter::new();
        // ΔS deletes key 2.
        let delta_s: SignedRows = vec![(tup![Value::Int(2), Value::str("even")], -1)];
        let (schema, rows) = eval_term(
            &def(),
            schema_lookup,
            |name| {
                Ok(match name {
                    "R" => ops::scan_table(&r, &mut WorkMeter::new()),
                    _ => delta_s.clone(),
                })
            },
            &mut meter,
        )
        .unwrap();
        let out = project_output(&def(), &schema, &rows, &mut meter).unwrap();
        assert_eq!(out, vec![(tup![Value::Int(2), Value::Int(20)], -1)]);
    }

    #[test]
    fn local_filter_applies_to_delta_too() {
        let r = r_table();
        let mut meter = WorkMeter::new();
        // A delta row that fails S's local filter contributes nothing.
        let delta_s: SignedRows = vec![(tup![Value::Int(2), Value::str("odd")], -1)];
        let (_, rows) = eval_term(
            &def(),
            schema_lookup,
            |name| {
                Ok(match name {
                    "R" => ops::scan_table(&r, &mut WorkMeter::new()),
                    _ => delta_s.clone(),
                })
            },
            &mut meter,
        )
        .unwrap();
        assert!(rows.is_empty());
    }

    #[test]
    fn nonempty_subsets_order_and_count() {
        let set: BTreeSet<i32> = [1, 2, 3].into_iter().collect();
        let subs = nonempty_subsets(&set);
        assert_eq!(subs.len(), 7);
        assert!(subs[..3].iter().all(|s| s.len() == 1));
        assert!(subs[3..6].iter().all(|s| s.len() == 2));
        assert_eq!(subs[6].len(), 3);
    }

    #[test]
    fn three_way_greedy_join_handles_snowflake() {
        // R(rk, rv) ⋈ S(sk, tag) ⋈ T(tk = rk) — T connected to R only.
        let mut t3 = Table::new(
            "T",
            Schema::of(&[("tk", ValueType::Int), ("w", ValueType::Int)]),
        );
        for i in 0..3 {
            t3.insert(tup![Value::Int(i), Value::Int(i + 100)]).unwrap();
        }
        let def = ViewDef {
            name: "V3".into(),
            sources: vec![
                ViewSource::named("R"),
                ViewSource::named("S"),
                ViewSource::named("T"),
            ],
            joins: vec![EquiJoin::new("R.rk", "S.sk"), EquiJoin::new("R.rk", "T.tk")],
            filters: vec![],
            output: ViewOutput::Project(vec![
                OutputColumn::col("k", "R.rk"),
                OutputColumn::col("w", "T.w"),
            ]),
        };
        let (r, s) = (r_table(), s_table());
        let mut meter = WorkMeter::new();
        let (schema, rows) = eval_term(
            &def,
            |n| match n {
                "R" => Ok(r.schema().clone()),
                "S" => Ok(s.schema().clone()),
                "T" => Ok(t3.schema().clone()),
                _ => Err(RelError::UnknownRelation(n.into())),
            },
            |name| {
                let mut m = WorkMeter::new();
                Ok(match name {
                    "R" => ops::scan_table(&r, &mut m),
                    "S" => ops::scan_table(&s, &mut m),
                    _ => ops::scan_table(&t3, &mut m),
                })
            },
            &mut meter,
        )
        .unwrap();
        let out = project_output(&def, &schema, &rows, &mut meter).unwrap();
        assert_eq!(out.len(), 3); // keys 0,1,2
        assert!(out.contains(&(tup![Value::Int(1), Value::Int(101)], 1)));
    }

    #[test]
    fn empty_delta_short_circuits_join() {
        let r = r_table();
        let mut meter = WorkMeter::new();
        let (_, rows) = eval_term(
            &def(),
            schema_lookup,
            |name| {
                Ok(match name {
                    "R" => ops::scan_table(&r, &mut WorkMeter::new()),
                    _ => Vec::new(),
                })
            },
            &mut meter,
        )
        .unwrap();
        assert!(rows.is_empty());
    }
}
