//! Tuples: immutable rows of [`Value`]s, each carrying its row hash.

use crate::ops::keyhash::{self, MUL};
use crate::schema::Schema;
use crate::value::Value;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::Arc;

/// An immutable row. Cloning is O(1) (shared allocation), which matters
/// because multiset tables and delta relations key hash maps by tuples.
///
/// A tuple hashes its values once and carries the hash
/// ([`Tuple::row_hash`]): [`Hash`] writes that one word, so a [`TupleMap`]
/// never reads a value to find a row, and equality compares the hashes
/// before the values. Equality and order are still over the values alone.
///
/// [`Tuple::new`] and [`Tuple::project`] hash when they build. A join's
/// [`Tuple::concat`] does not: most joined rows are only probed by key,
/// filtered or projected, never keyed whole, so its hash is left unset,
/// worked out on the fly when asked for, and kept by the tables, deltas
/// and consolidations that take the row in.
#[derive(Clone)]
pub struct Tuple {
    values: Arc<[Value]>,
    /// The row hash, or [`UNSET`]. A row whose hash happens to be `UNSET`
    /// is hashed afresh whenever asked: slower, never wrong.
    hash: u64,
}

const UNSET: u64 = 0;

impl Tuple {
    /// Builds a tuple from values.
    pub fn new(values: Vec<Value>) -> Self {
        Tuple::from_values(values.into())
    }

    fn from_values(values: Arc<[Value]>) -> Self {
        let hash = keyhash::row_hash(&values);
        Tuple { values, hash }
    }

    /// The hash of a row holding `values`: every column in order, with a
    /// tag per type, so `Int(k)`, `Decimal(k)` and `Date(k)` hash apart.
    /// Content digests ([`crate::Table::digest`]) add it up one per row.
    pub fn row_hash_of(values: &[Value]) -> u64 {
        keyhash::row_hash(values)
    }

    /// This tuple's row hash, [`Tuple::row_hash_of`] its values: the one
    /// it carries, or a fresh one if it carries none.
    pub fn row_hash(&self) -> u64 {
        if self.hash == UNSET {
            keyhash::row_hash(&self.values)
        } else {
            self.hash
        }
    }

    /// This tuple, carrying its row hash: what a map that keeps the row
    /// stores, so the hash is worked out once.
    pub(crate) fn hashed(mut self) -> Tuple {
        if self.hash == UNSET {
            self.hash = keyhash::row_hash(&self.values);
        }
        self
    }

    /// The values in column order.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// The value at column `idx`.
    pub fn get(&self, idx: usize) -> &Value {
        &self.values[idx]
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// Projects the tuple onto the given column indices.
    pub fn project(&self, indices: &[usize]) -> Tuple {
        Tuple::from_values(indices.iter().map(|&i| self.values[i].clone()).collect())
    }

    /// Concatenates two tuples. The result carries no hash yet.
    pub fn concat(&self, other: &Tuple) -> Tuple {
        Tuple {
            values: self
                .values
                .iter()
                .chain(other.values.iter())
                .cloned()
                .collect(),
            hash: UNSET,
        }
    }

    /// Checks that this tuple's arity and value types match `schema`.
    pub fn conforms_to(&self, schema: &Schema) -> bool {
        self.arity() == schema.len()
            && self
                .values
                .iter()
                .zip(schema.columns())
                .all(|(v, c)| v.value_type() == c.ty)
    }
}

impl PartialEq for Tuple {
    fn eq(&self, other: &Tuple) -> bool {
        let hashes_may_match = self.hash == other.hash || self.hash == UNSET || other.hash == UNSET;
        hashes_may_match && self.values == other.values
    }
}

impl Eq for Tuple {}

impl PartialOrd for Tuple {
    fn partial_cmp(&self, other: &Tuple) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Tuple {
    fn cmp(&self, other: &Tuple) -> Ordering {
        self.values.cmp(&other.values)
    }
}

impl Hash for Tuple {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.row_hash());
    }
}

/// The [`Hasher`] of a [`TupleMap`]: a tuple's cached row hash passes
/// through it unchanged, already spread over the whole word. Any other
/// key still hashes: later words and bytes fold into the first, eight
/// bytes at a time.
#[derive(Clone, Copy, Debug, Default)]
pub struct RowHasher(u64);

impl Hasher for RowHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = self.0.wrapping_mul(MUL) ^ word;
    }
}

/// A hash map keyed by tuples that buckets each by its row hash.
pub type TupleMap<V> = HashMap<Tuple, V, BuildHasherDefault<RowHasher>>;

impl fmt::Debug for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = f.debug_tuple("");
        for v in self.values.iter() {
            t.field(v);
        }
        t.finish()
    }
}

impl From<Vec<Value>> for Tuple {
    fn from(values: Vec<Value>) -> Self {
        Tuple::new(values)
    }
}

/// Builds a tuple from a heterogeneous list of values.
///
/// ```
/// use uww_relational::{tup, Value};
/// let t = tup![Value::Int(1), Value::str("x")];
/// assert_eq!(t.arity(), 2);
/// ```
#[macro_export]
macro_rules! tup {
    ($($v:expr),* $(,)?) => {
        $crate::Tuple::new(vec![$($v),*])
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::value::ValueType;

    #[test]
    fn project_and_concat() {
        let t = tup![Value::Int(1), Value::str("x"), Value::Date(3)];
        assert_eq!(t.project(&[2, 0]), tup![Value::Date(3), Value::Int(1)]);
        let u = tup![Value::Int(9)];
        assert_eq!(t.concat(&u).arity(), 4);
        assert_eq!(*t.concat(&u).get(3), Value::Int(9));
    }

    #[test]
    fn conformance() {
        let s = Schema::of(&[("a", ValueType::Int), ("b", ValueType::Str)]);
        assert!(tup![Value::Int(1), Value::str("x")].conforms_to(&s));
        assert!(!tup![Value::str("x"), Value::Int(1)].conforms_to(&s));
        assert!(!tup![Value::Int(1)].conforms_to(&s));
    }

    #[test]
    fn every_constructor_gives_the_row_hash() {
        let t = tup![Value::Int(1), Value::str("x"), Value::Date(3)];
        let u = tup![Value::Decimal(9), Value::str("")];
        let joined = t.concat(&u);
        for built in [t.clone(), u.clone(), t.project(&[2, 0]), joined.clone()] {
            assert_eq!(built.row_hash(), Tuple::row_hash_of(built.values()));
        }
        assert_eq!(joined.hash, UNSET);
        let hashed = joined.clone().hashed();
        assert_eq!(hashed.hash, joined.row_hash());
        assert_eq!(hashed, joined);
        assert_eq!(
            t.concat(&u),
            tup![
                Value::Int(1),
                Value::str("x"),
                Value::Date(3),
                Value::Decimal(9),
                Value::str("")
            ]
        );
    }

    #[test]
    fn a_tuple_map_buckets_by_the_row_hash() {
        let t = tup![Value::Int(7), Value::str("abc")];
        let mut hasher = RowHasher::default();
        t.hash(&mut hasher);
        assert_eq!(hasher.finish(), t.row_hash());
        // Bytes fold rather than panic; a different byte, a different hash.
        let mut a = RowHasher::default();
        let mut b = RowHasher::default();
        a.write(b"nine bytes");
        b.write(b"nine bytez");
        assert_ne!(a.finish(), b.finish());
        let mut m: TupleMap<u64> = TupleMap::default();
        *m.entry(t.clone()).or_default() += 2;
        *m.entry(tup![Value::Int(7), Value::str("abc")]).or_default() += 1;
        assert_eq!(m.len(), 1);
        assert_eq!(m[&t], 3);
    }

    #[test]
    fn cheap_clone_shares_storage() {
        let t = tup![Value::Int(1)];
        let u = t.clone();
        assert!(std::ptr::eq(t.values().as_ptr(), u.values().as_ptr()));
    }
}
