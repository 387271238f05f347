//! Physical operators over signed row streams.
//!
//! Every operator consumes and produces a [`SignedRows`] batch: a list of
//! `(tuple, signed multiplicity)` pairs. Stored tables enter the pipeline
//! with positive multiplicities; delta relations enter with their signs.
//! Joins multiply multiplicities, so a minus tuple joined with stored rows
//! yields minus results — exactly the "handle plus and minus tuples
//! appropriately" semantics of the paper's maintenance expressions.

mod aggregate;
mod index;
mod join;
pub(crate) mod keyhash;
mod partition;

pub use aggregate::{
    group_rows, group_rows_chunked, merge_groups, Acc, AggFunc, AggSpec, GroupAcc, GroupMap,
};
pub use index::MaintainedIndex;
pub use join::{build_table, cross_join, hash_join, probe_table, BuiltTable};
pub use partition::{part_of, Partitioner};

use crate::delta::DeltaRelation;
use crate::error::RelResult;
use crate::expr::{BoundExpr, BoundPredicate};
use crate::meter::WorkMeter;
use crate::table::Table;
use crate::tuple::{Tuple, TupleMap};

/// A batch of rows with signed multiplicities.
pub type SignedRows = Vec<(Tuple, i64)>;

/// Scans a stored table, charging the meter for the full extent
/// (the term-execution model scans operands in their entirety).
pub fn scan_table(table: &Table, meter: &mut WorkMeter) -> SignedRows {
    meter.scan(table.len());
    table.iter().map(|(t, m)| (t.clone(), m as i64)).collect()
}

/// Scans a delta relation, charging the meter `|ΔV|` rows.
pub fn scan_delta(delta: &DeltaRelation, meter: &mut WorkMeter) -> SignedRows {
    meter.scan(delta.len());
    delta.iter().map(|(t, m)| (t.clone(), m)).collect()
}

/// Keeps rows satisfying `pred`; multiplicities pass through.
pub fn filter(rows: SignedRows, pred: &BoundPredicate) -> RelResult<SignedRows> {
    let mut out = Vec::with_capacity(rows.len());
    for (t, m) in rows {
        if pred.eval(&t)? {
            out.push((t, m));
        }
    }
    Ok(out)
}

/// Evaluates `exprs` over each row, producing projected rows.
pub fn project(
    rows: &SignedRows,
    exprs: &[BoundExpr],
    meter: &mut WorkMeter,
) -> RelResult<SignedRows> {
    let mut out = Vec::with_capacity(rows.len());
    for (t, m) in rows {
        let mut vals = Vec::with_capacity(exprs.len());
        for e in exprs {
            vals.push(e.eval(t)?);
        }
        out.push((Tuple::new(vals), *m));
    }
    meter.emit(out.len() as u64);
    Ok(out)
}

/// Collapses duplicate tuples by summing multiplicities, dropping zeros.
/// Used at term boundaries to keep intermediate batches small.
pub fn consolidate(rows: SignedRows) -> SignedRows {
    let mut map: TupleMap<i64> = TupleMap::with_capacity_and_hasher(rows.len(), Default::default());
    for (t, m) in rows {
        *map.entry(t.hashed()).or_insert(0) += m;
    }
    map.into_iter().filter(|(_, m)| *m != 0).collect()
}

/// Sums the absolute multiplicities of a batch.
pub fn batch_len(rows: &SignedRows) -> u64 {
    rows.iter().map(|(_, m)| m.unsigned_abs()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{Predicate, ScalarExpr};
    use crate::schema::Schema;
    use crate::tup;
    use crate::value::{Value, ValueType};

    fn schema() -> Schema {
        Schema::of(&[("a", ValueType::Int), ("b", ValueType::Int)])
    }

    fn rows() -> SignedRows {
        vec![
            (tup![Value::Int(1), Value::Int(10)], 2),
            (tup![Value::Int(2), Value::Int(20)], -1),
            (tup![Value::Int(3), Value::Int(30)], 1),
        ]
    }

    #[test]
    fn scan_charges_meter() {
        let mut t = Table::new("T", schema());
        t.insert_n(tup![Value::Int(1), Value::Int(2)], 3).unwrap();
        let mut m = WorkMeter::new();
        let rows = scan_table(&t, &mut m);
        assert_eq!(m.operand_rows_scanned, 3);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].1, 3);

        let mut d = DeltaRelation::new(schema());
        d.add(tup![Value::Int(9), Value::Int(9)], -2);
        let rows = scan_delta(&d, &mut m);
        assert_eq!(m.operand_rows_scanned, 5);
        assert_eq!(rows[0].1, -2);
    }

    #[test]
    fn filter_keeps_signs() {
        let p = Predicate::col_ge("a", Value::Int(2))
            .bind(&schema())
            .unwrap();
        let out = filter(rows(), &p).unwrap();
        assert_eq!(out.len(), 2);
        assert!(out.iter().any(|(_, m)| *m == -1));
    }

    #[test]
    fn project_evaluates_exprs() {
        let e = ScalarExpr::col("a")
            .add(ScalarExpr::col("b"))
            .bind(&schema())
            .unwrap();
        let mut m = WorkMeter::new();
        let out = project(&rows(), &[e], &mut m).unwrap();
        assert_eq!(out[0].0, tup![Value::Int(11)]);
        assert_eq!(out[1].1, -1);
        assert_eq!(m.rows_emitted, 3);
    }

    #[test]
    fn consolidate_cancels() {
        let rows = vec![
            (tup![Value::Int(1), Value::Int(1)], 2),
            (tup![Value::Int(1), Value::Int(1)], -2),
            (tup![Value::Int(2), Value::Int(2)], 1),
        ];
        let out = consolidate(rows);
        assert_eq!(out.len(), 1);
        assert_eq!(batch_len(&out), 1);
    }
}
