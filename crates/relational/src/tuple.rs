//! Tuples: immutable rows of [`Value`]s.

use crate::schema::Schema;
use crate::value::Value;
use std::fmt;
use std::sync::Arc;

/// An immutable row. Cloning is O(1) (shared allocation), which matters
/// because multiset tables and delta relations key hash maps by tuples.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Tuple {
    values: Arc<[Value]>,
}

impl Tuple {
    /// Builds a tuple from values.
    pub fn new(values: Vec<Value>) -> Self {
        Tuple {
            values: values.into(),
        }
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
        Tuple {
            values: indices.iter().map(|&i| self.values[i].clone()).collect(),
        }
    }

    /// Concatenates two tuples.
    pub fn concat(&self, other: &Tuple) -> Tuple {
        Tuple {
            values: self
                .values
                .iter()
                .chain(other.values.iter())
                .cloned()
                .collect(),
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
    fn cheap_clone_shares_storage() {
        let t = tup![Value::Int(1)];
        let u = t.clone();
        assert!(std::ptr::eq(t.values().as_ptr(), u.values().as_ptr()));
    }
}
