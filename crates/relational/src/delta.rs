//! Signed delta relations: the paper's `ΔV`.
//!
//! A delta relation is a multiset of tuples with *signed* multiplicities:
//! positive counts are the paper's "plus tuples" (insertions), negative counts
//! the "minus tuples" (deletions). Updates are modeled as a deletion followed
//! by an insertion, exactly as in Section 2 of the paper.

use crate::error::{RelError, RelResult};
use crate::schema::Schema;
use crate::table::Table;
use crate::tuple::{Tuple, TupleMap};

/// A signed multiset of tuples over a fixed schema.
#[derive(Clone, Debug)]
pub struct DeltaRelation {
    schema: Schema,
    rows: TupleMap<i64>,
}

impl DeltaRelation {
    /// Creates an empty delta.
    pub fn new(schema: Schema) -> Self {
        DeltaRelation {
            schema,
            rows: TupleMap::default(),
        }
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Adds `count` (signed) copies of `tuple`; entries that net to zero are
    /// dropped, so a delta never stores dead weight.
    ///
    /// # Panics
    ///
    /// When the row's signed count would leave `i64`. Counts a client
    /// chose go through [`DeltaRelation::try_add`] instead.
    pub fn add(&mut self, tuple: Tuple, count: i64) {
        if let Err(e) = self.try_add(tuple, count) {
            panic!("{e}");
        }
    }

    /// [`DeltaRelation::add`], or [`RelError::Overflow`] — with the delta
    /// untouched — when the row's signed count would leave `i64`.
    pub fn try_add(&mut self, tuple: Tuple, count: i64) -> RelResult<()> {
        if count == 0 {
            return Ok(());
        }
        use std::collections::hash_map::Entry;
        match self.rows.entry(tuple.hashed()) {
            Entry::Occupied(mut e) => {
                let sum = e.get().checked_add(count).ok_or_else(|| {
                    RelError::Overflow(format!("signed count of delta row {:?}", e.key()))
                })?;
                if sum == 0 {
                    e.remove();
                } else {
                    *e.get_mut() = sum;
                }
            }
            Entry::Vacant(e) => {
                e.insert(count);
            }
        }
        Ok(())
    }

    /// Merges another delta into this one (bag union with signed counts).
    pub fn merge(&mut self, other: &DeltaRelation) {
        debug_assert_eq!(self.schema, other.schema, "delta schema mismatch in merge");
        for (t, m) in other.iter() {
            self.add(t.clone(), m);
        }
    }

    /// The signed multiplicity of `tuple` (0 when absent).
    pub fn multiplicity(&self, tuple: &Tuple) -> i64 {
        self.rows.get(tuple).copied().unwrap_or(0)
    }

    /// Iterates `(tuple, signed multiplicity)` pairs; multiplicities are
    /// never zero.
    pub fn iter(&self) -> impl Iterator<Item = (&Tuple, i64)> {
        self.rows.iter().map(|(t, &m)| (t, m))
    }

    /// Number of distinct tuples carried.
    pub fn distinct_len(&self) -> usize {
        self.rows.len()
    }

    /// Total row volume `|ΔV|`: the sum of absolute multiplicities. This is
    /// the size used by the linear work metric for `Inst` and delta scans.
    ///
    /// Each row's count fits an `i64`, but a sum over rows may not: this,
    /// [`DeltaRelation::plus_len`] and [`DeltaRelation::minus_len`]
    /// saturate, and [`DeltaRelation::net_count`] clamps its exact sum. A
    /// size pinned at the bound still prices the delta as the largest
    /// there is.
    pub fn len(&self) -> u64 {
        self.rows
            .values()
            .fold(0, |n, m| n.saturating_add(m.unsigned_abs()))
    }

    /// True when the delta carries no change.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Net change in cardinality this delta causes when installed:
    /// `|V'| − |V|` for the target view.
    pub fn net_count(&self) -> i64 {
        let net: i128 = self.rows.values().map(|&m| i128::from(m)).sum();
        net.clamp(i64::MIN.into(), i64::MAX.into()) as i64
    }

    /// Number of plus rows (insertions), counting multiplicities.
    pub fn plus_len(&self) -> u64 {
        (self.rows.values().filter(|m| **m > 0)).fold(0, |n, &m| n.saturating_add(m as u64))
    }

    /// Number of minus rows (deletions), counting multiplicities.
    pub fn minus_len(&self) -> u64 {
        (self.rows.values().filter(|m| **m < 0)).fold(0, |n, m| n.saturating_add(m.unsigned_abs()))
    }

    /// Builds the delta that deletes every row of `table` matched by `pred`.
    pub fn deleting_where(table: &Table, mut pred: impl FnMut(&Tuple) -> bool) -> DeltaRelation {
        let mut d = DeltaRelation::new(table.schema().clone());
        for (t, m) in table.iter() {
            if pred(t) {
                d.add(t.clone(), -(m as i64));
            }
        }
        d
    }

    /// Builds a delta that inserts all given tuples once each.
    pub fn inserting(schema: Schema, tuples: impl IntoIterator<Item = Tuple>) -> DeltaRelation {
        let mut d = DeltaRelation::new(schema);
        for t in tuples {
            d.add(t, 1);
        }
        d
    }

    /// `table + delta` as a fresh table (used by tests and the estimator; the
    /// engine installs in place via [`Table::install`]).
    pub fn applied_to(&self, table: &Table) -> RelResult<Table> {
        let mut out = table.clone();
        out.install(self)?;
        Ok(out)
    }

    /// Rows sorted for deterministic display.
    pub fn sorted_rows(&self) -> Vec<(Tuple, i64)> {
        let mut v: Vec<(Tuple, i64)> = self.rows.iter().map(|(t, &m)| (t.clone(), m)).collect();
        v.sort();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tup;
    use crate::value::{Value, ValueType};

    fn schema() -> Schema {
        Schema::of(&[("a", ValueType::Int)])
    }

    #[test]
    fn add_cancels_to_zero() {
        let mut d = DeltaRelation::new(schema());
        d.add(tup![Value::Int(1)], 2);
        d.add(tup![Value::Int(1)], -2);
        assert!(d.is_empty());
        assert_eq!(d.len(), 0);
        assert_eq!(d.multiplicity(&tup![Value::Int(1)]), 0);
    }

    #[test]
    fn sizes() {
        let mut d = DeltaRelation::new(schema());
        d.add(tup![Value::Int(1)], 3);
        d.add(tup![Value::Int(2)], -2);
        assert_eq!(d.len(), 5);
        assert_eq!(d.plus_len(), 3);
        assert_eq!(d.minus_len(), 2);
        assert_eq!(d.net_count(), 1);
        assert_eq!(d.distinct_len(), 2);
    }

    #[test]
    fn merge_is_bag_union() {
        let mut a = DeltaRelation::new(schema());
        a.add(tup![Value::Int(1)], 1);
        let mut b = DeltaRelation::new(schema());
        b.add(tup![Value::Int(1)], -1);
        b.add(tup![Value::Int(2)], 4);
        a.merge(&b);
        assert_eq!(a.multiplicity(&tup![Value::Int(1)]), 0);
        assert_eq!(a.multiplicity(&tup![Value::Int(2)]), 4);
    }

    #[test]
    fn deleting_where_selects_rows() {
        let mut t = Table::new("T", schema());
        for i in 0..10 {
            t.insert(tup![Value::Int(i)]).unwrap();
        }
        let d = DeltaRelation::deleting_where(&t, |tp| tp.get(0).as_int().unwrap() < 3);
        assert_eq!(d.minus_len(), 3);
        assert_eq!(d.plus_len(), 0);
        let t2 = d.applied_to(&t).unwrap();
        assert_eq!(t2.len(), 7);
    }

    #[test]
    fn inserting_builds_plus_delta() {
        let d = DeltaRelation::inserting(schema(), (0..4).map(|i| tup![Value::Int(i)]));
        assert_eq!(d.plus_len(), 4);
        assert_eq!(d.net_count(), 4);
    }

    #[test]
    fn a_count_past_i64_is_a_typed_error_and_sizes_saturate() {
        let mut d = DeltaRelation::new(schema());
        d.try_add(tup![Value::Int(1)], i64::MAX).unwrap();
        let err = d.try_add(tup![Value::Int(1)], i64::MAX);
        assert!(matches!(err, Err(RelError::Overflow(_))));
        assert!(matches!(
            d.try_add(tup![Value::Int(1)], 1),
            Err(RelError::Overflow(_))
        ));
        assert_eq!(d.multiplicity(&tup![Value::Int(1)]), i64::MAX);
        d.try_add(tup![Value::Int(2)], i64::MAX).unwrap();
        d.try_add(tup![Value::Int(3)], i64::MIN).unwrap();
        d.try_add(tup![Value::Int(4)], i64::MIN).unwrap();
        assert_eq!(d.len(), u64::MAX);
        assert_eq!(d.plus_len(), 2 * i64::MAX as u64);
        assert_eq!(d.minus_len(), u64::MAX);
        // Exact whatever the order rows are summed in: 2·MAX + 2·MIN.
        assert_eq!(d.net_count(), -2);
        let mut e = DeltaRelation::new(schema());
        e.add(tup![Value::Int(1)], i64::MAX);
        e.add(tup![Value::Int(2)], i64::MAX);
        assert_eq!(e.net_count(), i64::MAX);
    }

    #[test]
    #[should_panic(expected = "integer overflow")]
    fn add_panics_rather_than_wrap() {
        let mut d = DeltaRelation::new(schema());
        d.add(tup![Value::Int(1)], i64::MIN);
        d.add(tup![Value::Int(1)], -1);
    }

    #[test]
    fn net_count_matches_applied_size() {
        let mut t = Table::new("T", schema());
        for i in 0..10 {
            t.insert(tup![Value::Int(i)]).unwrap();
        }
        let mut d = DeltaRelation::new(schema());
        d.add(tup![Value::Int(0)], -1);
        d.add(tup![Value::Int(100)], 3);
        let t2 = d.applied_to(&t).unwrap();
        assert_eq!(t2.len() as i64, t.len() as i64 + d.net_count());
    }
}
