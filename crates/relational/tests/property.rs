//! Property-based tests for the relational substrate: the algebraic laws
//! the maintenance engine depends on.

use proptest::prelude::*;
use uww_relational::ops::{self, SignedRows};
use uww_relational::{
    DeltaRelation, Predicate, ScalarExpr, Schema, Table, Tuple, Value, ValueType, WorkMeter,
};

fn schema() -> Schema {
    Schema::of(&[("k", ValueType::Int), ("x", ValueType::Int)])
}

fn tuple(k: i64, x: i64) -> Tuple {
    Tuple::new(vec![Value::Int(k), Value::Int(x)])
}

fn arb_rows() -> impl Strategy<Value = Vec<(i64, i64)>> {
    prop::collection::vec((0..20i64, 0..10i64), 0..30)
}

fn arb_delta() -> impl Strategy<Value = Vec<(i64, i64, i64)>> {
    prop::collection::vec((0..20i64, 0..10i64, -3..3i64), 0..30)
}

fn table_of(rows: &[(i64, i64)]) -> Table {
    let mut t = Table::new("T", schema());
    for (k, x) in rows {
        t.insert(tuple(*k, *x)).unwrap();
    }
    t
}

fn delta_of(entries: &[(i64, i64, i64)]) -> DeltaRelation {
    let mut d = DeltaRelation::new(schema());
    for (k, x, m) in entries {
        d.add(tuple(*k, *x), *m);
    }
    d
}

/// Restricts a delta so applying it to `t` never goes negative.
fn feasible_delta(t: &Table, entries: &[(i64, i64, i64)]) -> DeltaRelation {
    let mut d = DeltaRelation::new(schema());
    for (k, x, m) in entries {
        let tp = tuple(*k, *x);
        let available = t.multiplicity(&tp) as i64 + d.multiplicity(&tp);
        let m = (*m).max(-available);
        d.add(tp, m);
    }
    d
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Installing a merged delta equals installing the parts in sequence.
    #[test]
    fn install_is_homomorphic(rows in arb_rows(), d1 in arb_delta(), d2 in arb_delta()) {
        let t = table_of(&rows);
        let a = feasible_delta(&t, &d1);
        // b must be feasible against t+a.
        let t_after_a = a.applied_to(&t).unwrap();
        let b = feasible_delta(&t_after_a, &d2);

        // Sequential installs.
        let seq = b.applied_to(&t_after_a).unwrap();

        // Merged install (may be infeasible intermediate-free; merged is
        // feasible because net counts match the sequential result).
        let mut merged = a.clone();
        merged.merge(&b);
        match merged.applied_to(&t) {
            Ok(together) => prop_assert!(together.same_contents(&seq)),
            Err(_) => {
                // Merging can only fail feasibility if some tuple's combined
                // negative exceeds t's stock, which cannot happen since the
                // sequential path succeeded with the same net counts.
                prop_assert!(false, "merged install must succeed");
            }
        }
    }

    /// `len`, `net_count`, `plus_len`, `minus_len` are consistent.
    #[test]
    fn delta_size_invariants(d in arb_delta()) {
        let d = delta_of(&d);
        prop_assert_eq!(d.len(), d.plus_len() + d.minus_len());
        prop_assert_eq!(d.net_count(), d.plus_len() as i64 - d.minus_len() as i64);
        prop_assert!(d.distinct_len() as u64 <= d.len());
    }

    /// Join distributes over signed union:
    /// (a ∪ b) ⋈ c == (a ⋈ c) ∪ (b ⋈ c) as signed multisets.
    #[test]
    fn join_distributes_over_union(a in arb_delta(), b in arb_delta(), c in arb_rows()) {
        let mut m = WorkMeter::new();
        let ra: SignedRows = delta_of(&a).iter().map(|(t, n)| (t.clone(), n)).collect();
        let rb: SignedRows = delta_of(&b).iter().map(|(t, n)| (t.clone(), n)).collect();
        let rc: SignedRows = table_of(&c).iter().map(|(t, n)| (t.clone(), n as i64)).collect();

        let mut union = ra.clone();
        union.extend(rb.clone());
        let joined_union = ops::consolidate(ops::hash_join(&union, &[0], &rc, &[0], &mut m).unwrap());

        let mut parts = ops::hash_join(&ra, &[0], &rc, &[0], &mut m).unwrap();
        parts.extend(ops::hash_join(&rb, &[0], &rc, &[0], &mut m).unwrap());
        let joined_parts = ops::consolidate(parts);

        let mut ju = joined_union;
        let mut jp = joined_parts;
        ju.sort();
        jp.sort();
        prop_assert_eq!(ju, jp);
    }

    /// Filter commutes with consolidation and preserves multiplicities.
    #[test]
    fn filter_commutes_with_consolidate(d in arb_delta()) {
        let pred = Predicate::col_lt("k", Value::Int(10)).bind(&schema()).unwrap();
        let rows: SignedRows = delta_of(&d).iter().map(|(t, n)| (t.clone(), n)).collect();
        let mut a = ops::consolidate(ops::filter(rows.clone(), &pred).unwrap());
        let mut b = ops::filter(ops::consolidate(rows), &pred).unwrap();
        a.sort();
        b.sort();
        prop_assert_eq!(a, b);
    }

    /// Signed grouping is additive: grouping a concatenation equals merging
    /// the groupings (the foundation of piecemeal Comp accumulation).
    #[test]
    fn grouping_is_additive(a in arb_delta(), b in arb_delta()) {
        let spec = ops::AggSpec {
            group_by: vec![ScalarExpr::col("k").bind(&schema()).unwrap()],
            aggs: vec![(
                ops::AggFunc::Sum,
                ScalarExpr::col("x").bind(&schema()).unwrap(),
                ValueType::Int,
            )],
        };
        let ra: SignedRows = delta_of(&a).iter().map(|(t, n)| (t.clone(), n)).collect();
        let rb: SignedRows = delta_of(&b).iter().map(|(t, n)| (t.clone(), n)).collect();
        let mut concat = ra.clone();
        concat.extend(rb.clone());

        let whole = ops::group_rows(&concat, &spec).unwrap();

        let ga = ops::group_rows(&ra, &spec).unwrap();
        let gb = ops::group_rows(&rb, &spec).unwrap();
        let mut merged = ga;
        for (k, acc) in gb {
            use std::collections::hash_map::Entry;
            match merged.entry(k) {
                Entry::Occupied(mut e) => {
                    e.get_mut().merge(&acc);
                    if e.get().is_identity() {
                        e.remove();
                    }
                }
                Entry::Vacant(e) => { e.insert(acc); }
            }
        }
        prop_assert_eq!(whole, merged);
    }

    /// `install` then inverse-install restores the table.
    #[test]
    fn install_roundtrip(rows in arb_rows(), d in arb_delta()) {
        let t = table_of(&rows);
        let delta = feasible_delta(&t, &d);
        let mut inverse = DeltaRelation::new(schema());
        for (tp, m) in delta.iter() {
            inverse.add(tp.clone(), -m);
        }
        let forward = delta.applied_to(&t).unwrap();
        let back = inverse.applied_to(&forward).unwrap();
        prop_assert!(back.same_contents(&t));
    }
}
