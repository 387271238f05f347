//! Summary deltas for aggregate views.
//!
//! The delta of a GROUP-BY view is carried as a *summary delta*
//! (\[MQM97\], cited in the paper's Section 8): a map from group key to signed
//! accumulator changes. Summary deltas are **additive**, so the piecemeal
//! `Comp` expressions of a 1-way strategy can each contribute their part and
//! the results merge exactly — the engine-level analogue of the paper's
//! "changes computed by the various Comp expressions are gathered in ΔV".
//!
//! The stored extent of an aggregate view carries a hidden trailing
//! `__count` column (the number of contributing base rows per group), the
//! standard bookkeeping that makes SUM/COUNT views self-maintainable under
//! deletions: a group dies exactly when its count reaches zero.

use uww_relational::ops::{Acc, GroupAcc, GroupMap};
use uww_relational::{
    AggFunc, Column, RelError, RelResult, Schema, Table, Tuple, TupleMap, Value, ValueType,
};

/// Name of the hidden per-group count column in stored aggregate extents.
pub const COUNT_COLUMN: &str = "__count";

/// Appends the hidden count column to a visible aggregate schema.
pub fn stored_aggregate_schema(visible: &Schema) -> RelResult<Schema> {
    let mut cols: Vec<Column> = visible.columns().to_vec();
    cols.push(Column::new(COUNT_COLUMN, ValueType::Int));
    Schema::new(cols)
}

/// A signed, mergeable delta for one aggregate view.
#[derive(Clone, Debug)]
pub struct SummaryDelta {
    /// Number of group-by columns (prefix of the visible schema).
    group_arity: usize,
    /// `(function, output type)` per aggregate column, in schema order.
    agg_types: Vec<(AggFunc, ValueType)>,
    groups: GroupMap,
}

impl SummaryDelta {
    /// An empty summary delta.
    pub fn new(group_arity: usize, agg_types: Vec<(AggFunc, ValueType)>) -> Self {
        SummaryDelta {
            group_arity,
            agg_types,
            groups: GroupMap::default(),
        }
    }

    /// True when no group changed.
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// Number of changed groups.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Merges per-group accumulator deltas (the output of
    /// [`uww_relational::ops::group_rows`]) into this delta.
    pub fn merge_groups(&mut self, groups: GroupMap) {
        for (key, acc) in groups {
            debug_assert_eq!(key.arity(), self.group_arity);
            debug_assert_eq!(acc.accs.len(), self.agg_types.len());
            use std::collections::hash_map::Entry;
            match self.groups.entry(key) {
                Entry::Occupied(mut e) => {
                    e.get_mut().merge(&acc);
                    if e.get().is_identity() {
                        e.remove();
                    }
                }
                Entry::Vacant(e) => {
                    e.insert(acc);
                }
            }
        }
    }

    /// Merges another summary delta.
    pub fn merge(&mut self, other: &SummaryDelta) {
        self.merge_groups(other.groups.clone());
    }

    /// Serializes the summary delta to a deterministic line-oriented wire
    /// form (groups sorted by key), so the install WAL can journal and
    /// replay aggregate `Comp` fragments byte-identically:
    ///
    /// ```text
    /// SUMMARY 1 Sum:decimal
    /// GROUP 2 S250 <TAB> i:1
    /// END
    /// ```
    pub fn to_wire(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("SUMMARY ");
        let _ = write!(out, "{}", self.group_arity);
        for (func, ty) in &self.agg_types {
            let _ = write!(out, " {}:{}", func_name(*func), type_wire(*ty));
        }
        out.push('\n');
        let mut keys: Vec<&Tuple> = self.groups.keys().collect();
        keys.sort();
        for key in keys {
            let acc = &self.groups[key];
            let _ = write!(out, "GROUP {}", acc.count);
            for a in &acc.accs {
                out.push(' ');
                match a {
                    Acc::Sum(v) => {
                        let _ = write!(out, "S{v}");
                    }
                    Acc::Min(v) => {
                        let _ = write!(out, "m{}", opt_wire(*v));
                    }
                    Acc::Max(v) => {
                        let _ = write!(out, "M{}", opt_wire(*v));
                    }
                }
            }
            for v in key.values() {
                out.push('\t');
                out.push_str(&uww_relational::value_to_wire(v));
            }
            out.push('\n');
        }
        out.push_str("END\n");
        out
    }

    /// Parses a summary delta serialized by [`SummaryDelta::to_wire`].
    pub fn from_wire(s: &str) -> RelResult<SummaryDelta> {
        let bad = |detail: String| RelError::SchemaMismatch { detail };
        let mut lines = s.lines();
        let header = lines
            .next()
            .and_then(|l| l.strip_prefix("SUMMARY "))
            .ok_or_else(|| bad("missing SUMMARY header".to_string()))?;
        let mut parts = header.split(' ');
        let group_arity: usize = parts
            .next()
            .and_then(|p| p.parse().ok())
            .ok_or_else(|| bad("bad group arity".to_string()))?;
        let mut agg_types = Vec::new();
        for p in parts {
            let (f, t) = p
                .split_once(':')
                .ok_or_else(|| bad(format!("bad agg spec {p}")))?;
            agg_types.push((func_from_name(f)?, type_from_wire(t)?));
        }
        let mut delta = SummaryDelta::new(group_arity, agg_types);
        for line in lines {
            if line == "END" {
                return Ok(delta);
            }
            let rest = line
                .strip_prefix("GROUP ")
                .ok_or_else(|| bad(format!("expected GROUP or END, got {line}")))?;
            let mut fields = rest.split('\t');
            let head = fields
                .next()
                .ok_or_else(|| bad("empty GROUP line".to_string()))?;
            let mut head_parts = head.split(' ');
            let count: i64 = head_parts
                .next()
                .and_then(|c| c.parse().ok())
                .ok_or_else(|| bad(format!("bad group count in {line}")))?;
            let mut accs = Vec::new();
            for a in head_parts {
                let (tag, body) = a.split_at(1);
                let acc = match tag {
                    "S" => Acc::Sum(body.parse().map_err(|_| bad(format!("bad acc {a}")))?),
                    "m" => Acc::Min(opt_from_wire(body).map_err(|_| bad(format!("bad acc {a}")))?),
                    "M" => Acc::Max(opt_from_wire(body).map_err(|_| bad(format!("bad acc {a}")))?),
                    _ => return Err(bad(format!("unknown acc tag in {a}"))),
                };
                accs.push(acc);
            }
            if accs.len() != delta.agg_types.len() {
                return Err(bad(format!(
                    "group has {} accumulators, expected {}",
                    accs.len(),
                    delta.agg_types.len()
                )));
            }
            let values: Vec<Value> = fields
                .map(uww_relational::value_from_wire)
                .collect::<RelResult<_>>()?;
            if values.len() != group_arity {
                return Err(bad(format!(
                    "group key arity {} != {}",
                    values.len(),
                    group_arity
                )));
            }
            let mut m = GroupMap::default();
            m.insert(Tuple::new(values), GroupAcc { accs, count });
            delta.merge_groups(m);
        }
        Err(bad("truncated summary delta: missing END".to_string()))
    }

    /// Materializes this summary delta as plus/minus rows over the *stored*
    /// schema (visible columns + hidden count), evaluated against the
    /// current (pre-install) stored extent: each changed group contributes a
    /// minus tuple for its old row (if it existed) and a plus tuple for its
    /// new row (if it survives).
    ///
    /// Correctness relies on condition C3/C8 ordering: every consumer reads
    /// ΔV after all `Comp(V, ·)` finished and before `Inst(V)`, so the
    /// stored extent seen here is exactly the pre-update state.
    pub fn to_delta(&self, stored: &Table) -> RelResult<uww_relational::DeltaRelation> {
        let schema = stored.schema().clone();
        let expected_arity = self.group_arity + self.agg_types.len() + 1;
        if schema.len() != expected_arity {
            return Err(RelError::SchemaMismatch {
                detail: format!(
                    "stored aggregate arity {} != expected {}",
                    schema.len(),
                    expected_arity
                ),
            });
        }
        // Index the stored extent by group key.
        let key_cols: Vec<usize> = (0..self.group_arity).collect();
        let mut by_group: TupleMap<&Tuple> =
            TupleMap::with_capacity_and_hasher(stored.distinct_len(), Default::default());
        for (row, mult) in stored.iter() {
            if mult != 1 {
                return Err(RelError::SchemaMismatch {
                    detail: "aggregate extent must have one row per group".to_string(),
                });
            }
            let key = row.project(&key_cols);
            if by_group.insert(key, row).is_some() {
                return Err(RelError::SchemaMismatch {
                    detail: "duplicate group key in aggregate extent".to_string(),
                });
            }
        }

        let mut delta = uww_relational::DeltaRelation::new(schema);
        for (key, acc) in &self.groups {
            let old = by_group.get(key).copied();
            let (old_accs, old_count): (Vec<Option<i64>>, i64) = match old {
                Some(row) => {
                    let mut accs = Vec::with_capacity(self.agg_types.len());
                    for i in 0..self.agg_types.len() {
                        let v = row.get(self.group_arity + i);
                        accs.push(Some(stored_raw(v).ok_or_else(|| {
                            RelError::TypeMismatch {
                                context: "stored aggregate value".to_string(),
                            }
                        })?));
                    }
                    let count = row
                        .get(self.group_arity + self.agg_types.len())
                        .as_int()
                        .ok_or_else(|| RelError::TypeMismatch {
                            context: "stored group count".to_string(),
                        })?;
                    (accs, count)
                }
                None => (vec![None; self.agg_types.len()], 0),
            };

            let new_count = old_count + acc.count;
            if new_count < 0 {
                return Err(RelError::NegativeMultiplicity {
                    relation: stored.name().to_string(),
                });
            }
            if let Some(row) = old {
                delta.add(row.clone(), -1);
            }
            if new_count > 0 {
                let mut vals: Vec<Value> = key.values().to_vec();
                for (i, (func, ty)) in self.agg_types.iter().enumerate() {
                    let raw = combine(old_accs[i], &acc.accs[i], *func).ok_or_else(|| {
                        RelError::UnsupportedIncremental(format!(
                            "{func:?} group with no surviving value"
                        ))
                    })?;
                    vals.push(raw_to_value(*func, *ty, raw));
                }
                vals.push(Value::Int(new_count));
                delta.add(Tuple::new(vals), 1);
            }
        }
        Ok(delta)
    }
}

fn func_name(f: AggFunc) -> &'static str {
    match f {
        AggFunc::Sum => "Sum",
        AggFunc::Count => "Count",
        AggFunc::Min => "Min",
        AggFunc::Max => "Max",
    }
}

fn func_from_name(s: &str) -> RelResult<AggFunc> {
    match s {
        "Sum" => Ok(AggFunc::Sum),
        "Count" => Ok(AggFunc::Count),
        "Min" => Ok(AggFunc::Min),
        "Max" => Ok(AggFunc::Max),
        _ => Err(RelError::SchemaMismatch {
            detail: format!("unknown aggregate function {s}"),
        }),
    }
}

fn type_wire(t: ValueType) -> &'static str {
    match t {
        ValueType::Int => "int",
        ValueType::Decimal => "decimal",
        ValueType::Date => "date",
        ValueType::Str => "str",
    }
}

fn type_from_wire(s: &str) -> RelResult<ValueType> {
    match s {
        "int" => Ok(ValueType::Int),
        "decimal" => Ok(ValueType::Decimal),
        "date" => Ok(ValueType::Date),
        "str" => Ok(ValueType::Str),
        _ => Err(RelError::SchemaMismatch {
            detail: format!("unknown value type {s}"),
        }),
    }
}

/// `Option<i64>` wire form: the number, or `-` for `None`.
fn opt_wire(v: Option<i64>) -> String {
    match v {
        Some(x) => x.to_string(),
        None => "-".to_string(),
    }
}

fn opt_from_wire(s: &str) -> Result<Option<i64>, std::num::ParseIntError> {
    if s == "-" {
        Ok(None)
    } else {
        s.parse().map(Some)
    }
}

/// Combines a stored raw aggregate with an accumulator delta.
///
/// SUM/COUNT add; MIN/MAX take the extremum of old and delta (valid because
/// [`uww_relational::ops::group_rows`] rejects minus tuples reaching
/// extremum accumulators, so the delta is insert-only).
fn combine(old: Option<i64>, delta: &Acc, func: AggFunc) -> Option<i64> {
    match (func, delta) {
        (AggFunc::Sum | AggFunc::Count, Acc::Sum(d)) => Some(old.unwrap_or(0) + d),
        (AggFunc::Min, Acc::Min(d)) => match (old, d) {
            (Some(o), Some(d)) => Some(o.min(*d)),
            (Some(o), None) => Some(o),
            (None, Some(d)) => Some(*d),
            (None, None) => None,
        },
        (AggFunc::Max, Acc::Max(d)) => match (old, d) {
            (Some(o), Some(d)) => Some(o.max(*d)),
            (Some(o), None) => Some(o),
            (None, Some(d)) => Some(*d),
            (None, None) => None,
        },
        _ => None,
    }
}

/// Raw payload of a stored aggregate value (numerics and dates).
fn stored_raw(v: &Value) -> Option<i64> {
    match v {
        Value::Int(x) | Value::Decimal(x) => Some(*x),
        Value::Date(d) => Some(*d as i64),
        Value::Str(_) => None,
    }
}

/// Converts a raw accumulator back into a [`Value`] of the aggregate's type.
pub(crate) fn raw_to_value(func: AggFunc, ty: ValueType, raw: i64) -> Value {
    match (func, ty) {
        (AggFunc::Count, _) => Value::Int(raw),
        (_, ValueType::Int) => Value::Int(raw),
        (_, ValueType::Decimal) => Value::Decimal(raw),
        (_, ValueType::Date) => Value::Date(raw as i32),
        // Aggregates over strings are rejected earlier; default to Int.
        (_, ValueType::Str) => Value::Int(raw),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uww_relational::tup;

    fn stored() -> Table {
        // Visible: (g Int, total Decimal); hidden count.
        let visible = Schema::of(&[("g", ValueType::Int), ("total", ValueType::Decimal)]);
        let schema = stored_aggregate_schema(&visible).unwrap();
        let mut t = Table::new("AGG", schema);
        t.insert(tup![Value::Int(1), Value::Decimal(500), Value::Int(2)])
            .unwrap();
        t.insert(tup![Value::Int(2), Value::Decimal(100), Value::Int(1)])
            .unwrap();
        t
    }

    fn delta_with(groups: Vec<(i64, i64, i64)>) -> SummaryDelta {
        let mut d = SummaryDelta::new(1, vec![(AggFunc::Sum, ValueType::Decimal)]);
        let mut m = GroupMap::default();
        for (g, dsum, dcount) in groups {
            m.insert(
                tup![Value::Int(g)],
                GroupAcc {
                    accs: vec![Acc::Sum(dsum)],
                    count: dcount,
                },
            );
        }
        d.merge_groups(m);
        d
    }

    #[test]
    fn group_update_produces_minus_plus_pair() {
        let t = stored();
        let d = delta_with(vec![(1, 250, 1)]);
        let delta = d.to_delta(&t).unwrap();
        assert_eq!(delta.minus_len(), 1);
        assert_eq!(delta.plus_len(), 1);
        let after = delta.applied_to(&t).unwrap();
        assert_eq!(
            after.multiplicity(&tup![Value::Int(1), Value::Decimal(750), Value::Int(3)]),
            1
        );
    }

    #[test]
    fn group_death_and_birth() {
        let t = stored();
        // Group 2 dies; group 3 is born.
        let d = delta_with(vec![(2, -100, -1), (3, 40, 1)]);
        let delta = d.to_delta(&t).unwrap();
        let after = delta.applied_to(&t).unwrap();
        assert_eq!(
            after.multiplicity(&tup![Value::Int(2), Value::Decimal(0), Value::Int(0)]),
            0
        );
        assert!(!after.iter().any(|(r, _)| r.get(0).as_int() == Some(2)));
        assert_eq!(
            after.multiplicity(&tup![Value::Int(3), Value::Decimal(40), Value::Int(1)]),
            1
        );
        assert_eq!(after.len(), 2);
    }

    #[test]
    fn merging_is_additive() {
        let mut a = delta_with(vec![(1, 100, 1)]);
        let b = delta_with(vec![(1, -100, -1), (2, 7, 1)]);
        a.merge(&b);
        // Group 1 fully cancelled; group 2 present.
        assert_eq!(a.group_count(), 1);
        let t = stored();
        let delta = a.to_delta(&t).unwrap();
        // Group 2 exists: minus old, plus new.
        assert_eq!(delta.len(), 2);
    }

    #[test]
    fn sum_can_change_while_count_is_stable() {
        // An UPDATE modeled as delete+insert within the same group.
        let t = stored();
        let d = delta_with(vec![(1, -200, 0)]);
        let delta = d.to_delta(&t).unwrap();
        let after = delta.applied_to(&t).unwrap();
        assert_eq!(
            after.multiplicity(&tup![Value::Int(1), Value::Decimal(300), Value::Int(2)]),
            1
        );
    }

    #[test]
    fn over_deletion_is_an_error() {
        let t = stored();
        let d = delta_with(vec![(2, -500, -3)]);
        assert!(matches!(
            d.to_delta(&t),
            Err(RelError::NegativeMultiplicity { .. })
        ));
    }

    #[test]
    fn stored_schema_has_hidden_count() {
        let visible = Schema::of(&[("g", ValueType::Int)]);
        let s = stored_aggregate_schema(&visible).unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s.column(1).name, COUNT_COLUMN);
    }

    #[test]
    fn wire_round_trip_is_exact() {
        let mut d = SummaryDelta::new(
            1,
            vec![
                (AggFunc::Sum, ValueType::Decimal),
                (AggFunc::Min, ValueType::Int),
            ],
        );
        let mut m = GroupMap::default();
        m.insert(
            tup![Value::Int(1)],
            GroupAcc {
                accs: vec![Acc::Sum(-250), Acc::Min(Some(-3))],
                count: -1,
            },
        );
        m.insert(
            tup![Value::Int(2)],
            GroupAcc {
                accs: vec![Acc::Sum(40), Acc::Min(None)],
                count: 2,
            },
        );
        d.merge_groups(m);
        let wire = d.to_wire();
        let back = SummaryDelta::from_wire(&wire).unwrap();
        // Re-serialization is byte-identical (deterministic group order).
        assert_eq!(back.to_wire(), wire);
        assert_eq!(back.group_count(), 2);
        // The parsed delta behaves identically against a stored extent.
        assert_eq!(back.agg_types, d.agg_types);
        assert_eq!(back.group_arity, d.group_arity);
    }

    #[test]
    fn wire_rejects_garbage() {
        assert!(SummaryDelta::from_wire("nonsense").is_err());
        assert!(SummaryDelta::from_wire("SUMMARY 1 Sum:decimal\nGROUP 1 S5\ti:1\n").is_err());
        assert!(SummaryDelta::from_wire("SUMMARY 1 Sum:decimal\nGROUP x\n").is_err());
        assert!(SummaryDelta::from_wire("SUMMARY 1 Frob:decimal\nEND\n").is_err());
    }

    #[test]
    fn empty_summary_produces_empty_delta() {
        let d = SummaryDelta::new(1, vec![(AggFunc::Sum, ValueType::Decimal)]);
        assert!(d.is_empty());
        assert!(d.to_delta(&stored()).unwrap().is_empty());
    }
}
