//! Multiset tables: the stored extent of a materialized view.

use crate::delta::DeltaRelation;
use crate::error::{RelError, RelResult};
use crate::schema::Schema;
use crate::tuple::{Tuple, TupleMap};
use std::collections::hash_map::Entry;

/// The largest multiplicity a table stores: every scan hands counts on as
/// signed `i64` multiplicities.
const MAX_MULTIPLICITY: u64 = i64::MAX as u64;

fn overflow(relation: &str) -> RelError {
    RelError::Overflow(format!("multiplicity of a row of {relation}"))
}

/// A bag (multiset) of tuples with a fixed schema.
///
/// The paper's views are SQL relations with bag semantics; we store each
/// distinct tuple with a positive multiplicity. `len` is the total number of
/// rows (sum of multiplicities), which is the quantity `|V|` used by the
/// linear work metric.
///
/// The table also keeps an order-independent content digest up to date
/// ([`Table::digest`]), so a journal can name an extent in O(1) instead of
/// re-reading it.
#[derive(Clone, Debug)]
pub struct Table {
    name: String,
    schema: Schema,
    rows: TupleMap<u64>,
    len: u64,
    digest: u64,
}

/// A row's share of a content digest: `count` copies of `tuple`, read off
/// its cached row hash. Shares add with wrapping arithmetic, so a signed
/// count (cast) subtracts.
pub(crate) fn digest_share(tuple: &Tuple, count: u64) -> u64 {
    count.wrapping_mul(tuple.row_hash())
}

impl Table {
    /// Creates an empty table.
    pub fn new(name: impl Into<String>, schema: Schema) -> Self {
        Table {
            name: name.into(),
            schema,
            rows: TupleMap::default(),
            len: 0,
            digest: 0,
        }
    }

    /// The table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Total number of rows, counting multiplicities (the paper's `|V|`).
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True when the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The content digest: the wrapping sum, over the rows, of multiplicity
    /// times a deterministic 64-bit hash of every column. Equal contents give
    /// equal digests whatever the insertion order; [`Table::insert_n`] and
    /// [`Table::delete_n`] keep it current in O(1) per call.
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// Number of distinct tuples.
    pub fn distinct_len(&self) -> usize {
        self.rows.len()
    }

    /// Inserts `count` copies of `tuple`. [`RelError::Overflow`] — with the
    /// table untouched — when the tuple's multiplicity would pass `i64::MAX`
    /// or the table's length `u64::MAX`.
    pub fn insert_n(&mut self, tuple: Tuple, count: u64) -> RelResult<()> {
        if count == 0 {
            return Ok(());
        }
        if !tuple.conforms_to(&self.schema) {
            return Err(RelError::SchemaMismatch {
                detail: format!("tuple {tuple:?} does not fit table {}", self.name),
            });
        }
        let len = (self.len.checked_add(count)).ok_or_else(|| overflow(&self.name))?;
        let tuple = tuple.hashed();
        let share = digest_share(&tuple, count);
        let grown = |held: u64| held.checked_add(count).filter(|&m| m <= MAX_MULTIPLICITY);
        match self.rows.entry(tuple) {
            Entry::Occupied(mut o) => {
                *o.get_mut() = grown(*o.get()).ok_or_else(|| overflow(&self.name))?;
            }
            Entry::Vacant(v) => {
                v.insert(grown(0).ok_or_else(|| overflow(&self.name))?);
            }
        }
        self.len = len;
        self.digest = self.digest.wrapping_add(share);
        Ok(())
    }

    /// Inserts one copy of `tuple`.
    pub fn insert(&mut self, tuple: Tuple) -> RelResult<()> {
        self.insert_n(tuple, 1)
    }

    /// Removes `count` copies of `tuple`; errors if fewer are present.
    pub fn delete_n(&mut self, tuple: &Tuple, count: u64) -> RelResult<()> {
        if count == 0 {
            return Ok(());
        }
        match self.rows.get_mut(tuple) {
            Some(m) if *m >= count => {
                *m -= count;
                if *m == 0 {
                    self.rows.remove(tuple);
                }
                self.len -= count;
                self.digest = self.digest.wrapping_sub(digest_share(tuple, count));
                Ok(())
            }
            _ => Err(RelError::NegativeMultiplicity {
                relation: self.name.clone(),
            }),
        }
    }

    /// Multiplicity of `tuple` (0 when absent).
    pub fn multiplicity(&self, tuple: &Tuple) -> u64 {
        self.rows.get(tuple).copied().unwrap_or(0)
    }

    /// Iterates `(tuple, multiplicity)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (&Tuple, u64)> {
        self.rows.iter().map(|(t, &m)| (t, m))
    }

    /// All rows as a sorted `Vec<(Tuple, u64)>`, for deterministic output.
    pub fn sorted_rows(&self) -> Vec<(Tuple, u64)> {
        let mut v: Vec<(Tuple, u64)> = self.rows.iter().map(|(t, &m)| (t.clone(), m)).collect();
        v.sort();
        v
    }

    /// Applies a signed delta: inserts plus tuples, deletes minus tuples.
    ///
    /// This is the paper's `Inst` primitive. Errors, leaving the table
    /// untouched, if a deletion would remove more copies than are stored
    /// ([`RelError::NegativeMultiplicity`]) or an insertion would take a
    /// multiplicity past `i64::MAX` or the length past `u64::MAX`
    /// ([`RelError::Overflow`]).
    pub fn install(&mut self, delta: &DeltaRelation) -> RelResult<()> {
        if *delta.schema() != self.schema {
            return Err(RelError::SchemaMismatch {
                detail: format!("delta schema does not match table {}", self.name),
            });
        }
        // Validate up front so errors leave the table untouched.
        let mut len = Some(self.len);
        for (t, m) in delta.iter() {
            if m < 0 && self.multiplicity(t) < m.unsigned_abs() {
                return Err(RelError::NegativeMultiplicity {
                    relation: self.name.clone(),
                });
            }
            if m > 0 {
                len = len.and_then(|l| l.checked_add(m as u64));
            }
        }
        let len = len.ok_or_else(|| overflow(&self.name))?;
        // A row is held at most `self.len` times, so only a table that can
        // grow past `i64::MAX` rows needs each plus row looked up.
        if len > MAX_MULTIPLICITY {
            for (t, m) in delta.iter().filter(|&(_, m)| m > 0) {
                if self.multiplicity(t) + m as u64 > MAX_MULTIPLICITY {
                    return Err(overflow(&self.name));
                }
            }
        }
        for (t, m) in delta.iter() {
            if m > 0 {
                self.insert_n(t.clone(), m as u64)?;
            } else if m < 0 {
                self.delete_n(t, m.unsigned_abs())?;
            }
        }
        Ok(())
    }

    /// Structural equality: same schema and same multiset of rows.
    /// (`Table` deliberately does not implement `PartialEq`; names may differ.)
    pub fn same_contents(&self, other: &Table) -> bool {
        self.schema == other.schema
            && self.len == other.len
            && self.digest == other.digest
            && self.rows == other.rows
    }

    /// The delta that transforms `self` into `target`:
    /// plus tuples where `target` has more copies, minus where fewer.
    /// `self.install(&self.diff(&target))` yields `target`.
    pub fn diff(&self, target: &Table) -> RelResult<DeltaRelation> {
        if self.schema != *target.schema() {
            return Err(RelError::SchemaMismatch {
                detail: format!(
                    "diff between incompatible schemas ({} vs {})",
                    self.name,
                    target.name()
                ),
            });
        }
        let mut d = DeltaRelation::new(self.schema.clone());
        for (t, m) in target.iter() {
            let before = self.multiplicity(t) as i64;
            d.add(t.clone(), m as i64 - before);
        }
        for (t, m) in self.iter() {
            if target.multiplicity(t) == 0 {
                d.add(t.clone(), -(m as i64));
            }
        }
        Ok(d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tup;
    use crate::value::{Value, ValueType};

    fn t() -> Table {
        Table::new("T", Schema::of(&[("a", ValueType::Int)]))
    }

    #[test]
    fn insert_delete_multiplicity() {
        let mut tab = t();
        tab.insert(tup![Value::Int(1)]).unwrap();
        tab.insert_n(tup![Value::Int(1)], 2).unwrap();
        tab.insert(tup![Value::Int(2)]).unwrap();
        assert_eq!(tab.len(), 4);
        assert_eq!(tab.distinct_len(), 2);
        assert_eq!(tab.multiplicity(&tup![Value::Int(1)]), 3);
        tab.delete_n(&tup![Value::Int(1)], 2).unwrap();
        assert_eq!(tab.len(), 2);
        assert_eq!(tab.multiplicity(&tup![Value::Int(1)]), 1);
        assert!(tab.delete_n(&tup![Value::Int(1)], 5).is_err());
        assert!(tab.delete_n(&tup![Value::Int(9)], 1).is_err());
    }

    #[test]
    fn schema_enforced() {
        let mut tab = t();
        assert!(tab.insert(tup![Value::str("x")]).is_err());
        assert!(tab.insert(tup![Value::Int(1), Value::Int(2)]).is_err());
    }

    #[test]
    fn install_round_trip() {
        let mut tab = t();
        tab.insert_n(tup![Value::Int(1)], 2).unwrap();
        let mut d = DeltaRelation::new(tab.schema().clone());
        d.add(tup![Value::Int(1)], -1);
        d.add(tup![Value::Int(5)], 3);
        tab.install(&d).unwrap();
        assert_eq!(tab.multiplicity(&tup![Value::Int(1)]), 1);
        assert_eq!(tab.multiplicity(&tup![Value::Int(5)]), 3);
        assert_eq!(tab.len(), 4);
    }

    #[test]
    fn install_validates_before_mutating() {
        let mut tab = t();
        tab.insert(tup![Value::Int(1)]).unwrap();
        let mut d = DeltaRelation::new(tab.schema().clone());
        d.add(tup![Value::Int(7)], 1);
        d.add(tup![Value::Int(1)], -2); // would go negative
        assert!(tab.install(&d).is_err());
        // Nothing was applied.
        assert_eq!(tab.len(), 1);
        assert_eq!(tab.multiplicity(&tup![Value::Int(7)]), 0);
    }

    #[test]
    fn an_install_past_i64_max_is_refused_and_changes_nothing() {
        // Held i64::MAX times, the row would reach 2·i64::MAX and every scan
        // would read it back as a negative multiplicity.
        let mut tab = t();
        tab.insert_n(tup![Value::Int(1)], i64::MAX as u64).unwrap();
        let mut d = DeltaRelation::new(tab.schema().clone());
        d.add(tup![Value::Int(2)], 1);
        d.add(tup![Value::Int(1)], i64::MAX);
        assert!(matches!(tab.install(&d), Err(RelError::Overflow(_))));
        assert_eq!(tab.len(), i64::MAX as u64);
        assert_eq!(tab.multiplicity(&tup![Value::Int(2)]), 0);
        assert_eq!(
            crate::ops::scan_table(&tab, &mut Default::default())[0].1,
            i64::MAX
        );
        // insert_n refuses the same row, and a fresh row past i64::MAX.
        let err = tab.insert_n(tup![Value::Int(1)], 1);
        assert!(matches!(err, Err(RelError::Overflow(_))));
        let err = t().insert_n(tup![Value::Int(3)], i64::MAX as u64 + 1);
        assert!(matches!(err, Err(RelError::Overflow(_))));
        // The length has a bound of its own.
        tab.insert_n(tup![Value::Int(4)], i64::MAX as u64).unwrap();
        let err = tab.insert_n(tup![Value::Int(5)], 2);
        assert!(matches!(err, Err(RelError::Overflow(_))));
        assert_eq!(tab.multiplicity(&tup![Value::Int(5)]), 0);
    }

    #[test]
    fn an_i64_min_deletion_is_a_typed_error_not_a_panic() {
        let mut tab = t();
        tab.insert_n(tup![Value::Int(1)], 3).unwrap();
        let mut d = DeltaRelation::new(tab.schema().clone());
        d.add(tup![Value::Int(1)], i64::MIN);
        let err = tab.install(&d);
        assert!(matches!(err, Err(RelError::NegativeMultiplicity { .. })));
        assert_eq!(tab.multiplicity(&tup![Value::Int(1)]), 3);
    }

    #[test]
    fn same_contents_ignores_name() {
        let mut a = Table::new("A", Schema::of(&[("a", ValueType::Int)]));
        let mut b = Table::new("B", Schema::of(&[("a", ValueType::Int)]));
        a.insert(tup![Value::Int(1)]).unwrap();
        b.insert(tup![Value::Int(1)]).unwrap();
        assert!(a.same_contents(&b));
        b.insert(tup![Value::Int(1)]).unwrap();
        assert!(!a.same_contents(&b));
    }

    #[test]
    fn diff_round_trips() {
        let mut a = t();
        let mut b = Table::new("T2", Schema::of(&[("a", ValueType::Int)]));
        for i in [1, 1, 2, 3] {
            a.insert(tup![Value::Int(i)]).unwrap();
        }
        for i in [1, 3, 3, 9] {
            b.insert(tup![Value::Int(i)]).unwrap();
        }
        let d = a.diff(&b).unwrap();
        // 1: 2->1 (-1); 2: 1->0 (-1); 3: 1->2 (+1); 9: 0->1 (+1).
        assert_eq!(d.minus_len(), 2);
        assert_eq!(d.plus_len(), 2);
        let rebuilt = d.applied_to(&a).unwrap();
        assert!(rebuilt.same_contents(&b));
        // Identity diff is empty.
        assert!(a.diff(&a).unwrap().is_empty());
        // Schema mismatch rejected.
        let other = Table::new("X", Schema::of(&[("z", ValueType::Str)]));
        assert!(a.diff(&other).is_err());
    }

    #[test]
    fn sorted_rows_deterministic() {
        let mut tab = t();
        for i in [5, 1, 3] {
            tab.insert(tup![Value::Int(i)]).unwrap();
        }
        let rows: Vec<i64> = tab
            .sorted_rows()
            .iter()
            .map(|(t, _)| t.get(0).as_int().unwrap())
            .collect();
        assert_eq!(rows, vec![1, 3, 5]);
    }
}
