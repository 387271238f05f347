//! Scalar expressions and predicates evaluated over a single row.
//!
//! Expressions reference columns positionally after being *bound* against a
//! schema; the unbound form references columns by name so view definitions
//! stay readable. Arithmetic on [`Value::Decimal`] is scale-aware:
//! `Decimal * Decimal` rescales by dividing by 100, so
//! `price * (1 - discount)` works in fixed point.

use crate::error::{RelError, RelResult};
use crate::schema::Schema;
use crate::tuple::Tuple;
use crate::value::{Value, ValueType, DECIMAL_ONE};
use std::borrow::Cow;
use std::fmt;

/// A scalar expression over one row.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ScalarExpr {
    /// Column reference by name; resolved at bind time.
    Col(String),
    /// A literal value.
    Lit(Value),
    /// Addition.
    Add(Box<ScalarExpr>, Box<ScalarExpr>),
    /// Subtraction.
    Sub(Box<ScalarExpr>, Box<ScalarExpr>),
    /// Multiplication (decimal-aware).
    Mul(Box<ScalarExpr>, Box<ScalarExpr>),
}

impl ScalarExpr {
    /// Column reference.
    pub fn col(name: impl Into<String>) -> Self {
        ScalarExpr::Col(name.into())
    }

    /// Literal.
    pub fn lit(v: Value) -> Self {
        ScalarExpr::Lit(v)
    }

    /// `self + rhs`.
    #[allow(clippy::should_implement_trait)] // builder over owned AST nodes, not arithmetic
    pub fn add(self, rhs: ScalarExpr) -> Self {
        ScalarExpr::Add(Box::new(self), Box::new(rhs))
    }

    /// `self - rhs`.
    #[allow(clippy::should_implement_trait)]
    pub fn sub(self, rhs: ScalarExpr) -> Self {
        ScalarExpr::Sub(Box::new(self), Box::new(rhs))
    }

    /// `self * rhs`.
    #[allow(clippy::should_implement_trait)]
    pub fn mul(self, rhs: ScalarExpr) -> Self {
        ScalarExpr::Mul(Box::new(self), Box::new(rhs))
    }

    /// Resolves all column names against `schema`, producing an evaluable
    /// [`BoundExpr`].
    pub fn bind(&self, schema: &Schema) -> RelResult<BoundExpr> {
        Ok(match self {
            ScalarExpr::Col(name) => BoundExpr::Col(schema.index_of(name)?),
            ScalarExpr::Lit(v) => BoundExpr::Lit(v.clone()),
            ScalarExpr::Add(a, b) => {
                BoundExpr::Add(Box::new(a.bind(schema)?), Box::new(b.bind(schema)?))
            }
            ScalarExpr::Sub(a, b) => {
                BoundExpr::Sub(Box::new(a.bind(schema)?), Box::new(b.bind(schema)?))
            }
            ScalarExpr::Mul(a, b) => {
                BoundExpr::Mul(Box::new(a.bind(schema)?), Box::new(b.bind(schema)?))
            }
        })
    }

    /// Names of all columns this expression references.
    pub fn referenced_columns(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.collect_columns(&mut out);
        out
    }

    fn collect_columns<'a>(&'a self, out: &mut Vec<&'a str>) {
        match self {
            ScalarExpr::Col(n) => out.push(n),
            ScalarExpr::Lit(_) => {}
            ScalarExpr::Add(a, b) | ScalarExpr::Sub(a, b) | ScalarExpr::Mul(a, b) => {
                a.collect_columns(out);
                b.collect_columns(out);
            }
        }
    }

    /// The output type of this expression under `schema`, if well-typed.
    pub fn output_type(&self, schema: &Schema) -> RelResult<ValueType> {
        match self {
            ScalarExpr::Col(n) => Ok(schema.column(schema.index_of(n)?).ty),
            ScalarExpr::Lit(v) => Ok(v.value_type()),
            ScalarExpr::Add(a, b) | ScalarExpr::Sub(a, b) | ScalarExpr::Mul(a, b) => {
                let ta = a.output_type(schema)?;
                let tb = b.output_type(schema)?;
                numeric_result_type(ta, tb).ok_or_else(|| RelError::TypeMismatch {
                    context: format!("{self:?}"),
                })
            }
        }
    }
}

fn numeric_result_type(a: ValueType, b: ValueType) -> Option<ValueType> {
    use ValueType::*;
    match (a, b) {
        (Int, Int) => Some(Int),
        (Decimal, Decimal) | (Int, Decimal) | (Decimal, Int) => Some(Decimal),
        _ => None,
    }
}

/// A position-resolved scalar expression, ready for evaluation.
#[derive(Clone, Debug)]
pub enum BoundExpr {
    /// Column at this index.
    Col(usize),
    /// Literal.
    Lit(Value),
    /// Addition.
    Add(Box<BoundExpr>, Box<BoundExpr>),
    /// Subtraction.
    Sub(Box<BoundExpr>, Box<BoundExpr>),
    /// Multiplication.
    Mul(Box<BoundExpr>, Box<BoundExpr>),
}

impl BoundExpr {
    /// Evaluates the expression against a row.
    pub fn eval(&self, row: &Tuple) -> RelResult<Value> {
        match self {
            BoundExpr::Col(i) => Ok(row.get(*i).clone()),
            BoundExpr::Lit(v) => Ok(v.clone()),
            BoundExpr::Add(a, b) => arith(a.eval(row)?, b.eval(row)?, ArithOp::Add),
            BoundExpr::Sub(a, b) => arith(a.eval(row)?, b.eval(row)?, ArithOp::Sub),
            BoundExpr::Mul(a, b) => arith(a.eval(row)?, b.eval(row)?, ArithOp::Mul),
        }
    }

    /// [`BoundExpr::eval`], borrowing a column or literal instead of
    /// cloning it.
    fn eval_ref<'a>(&'a self, row: &'a Tuple) -> RelResult<Cow<'a, Value>> {
        Ok(match self {
            BoundExpr::Col(i) => Cow::Borrowed(row.get(*i)),
            BoundExpr::Lit(v) => Cow::Borrowed(v),
            computed => Cow::Owned(computed.eval(row)?),
        })
    }
}

#[derive(Clone, Copy)]
enum ArithOp {
    Add,
    Sub,
    Mul,
}

fn arith(a: Value, b: Value, op: ArithOp) -> RelResult<Value> {
    use Value::*;
    let overflow = || RelError::Overflow("scalar arithmetic".to_string());
    match (&a, &b) {
        (Int(x), Int(y)) => {
            let r = match op {
                ArithOp::Add => x.checked_add(*y),
                ArithOp::Sub => x.checked_sub(*y),
                ArithOp::Mul => x.checked_mul(*y),
            };
            r.map(Int).ok_or_else(overflow)
        }
        // Mixed int/decimal: promote the int to scale-2 first.
        (Int(x), Decimal(_)) => arith(
            Decimal(x.checked_mul(DECIMAL_ONE).ok_or_else(overflow)?),
            b,
            op,
        ),
        (Decimal(_), Int(y)) => {
            let y = y.checked_mul(DECIMAL_ONE).ok_or_else(overflow)?;
            arith(a, Decimal(y), op)
        }
        (Decimal(x), Decimal(y)) => {
            let r = match op {
                ArithOp::Add => x.checked_add(*y),
                ArithOp::Sub => x.checked_sub(*y),
                // Scale-2 * scale-2 = scale-4; rescale back (truncating).
                ArithOp::Mul => x.checked_mul(*y).map(|p| p / DECIMAL_ONE),
            };
            r.map(Decimal).ok_or_else(overflow)
        }
        _ => Err(RelError::TypeMismatch {
            context: format!("arith on {a:?} and {b:?}"),
        }),
    }
}

/// Comparison operators usable in predicates.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    fn test(self, ord: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::*;
        match self {
            CmpOp::Eq => ord == Equal,
            CmpOp::Ne => ord != Equal,
            CmpOp::Lt => ord == Less,
            CmpOp::Le => ord != Greater,
            CmpOp::Gt => ord == Greater,
            CmpOp::Ge => ord != Less,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        f.write_str(s)
    }
}

/// A boolean predicate over one row.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Predicate {
    /// Comparison between two scalar expressions.
    Cmp(CmpOp, ScalarExpr, ScalarExpr),
    /// Conjunction.
    And(Box<Predicate>, Box<Predicate>),
    /// Disjunction.
    Or(Box<Predicate>, Box<Predicate>),
    /// Negation.
    Not(Box<Predicate>),
    /// Always true (neutral element for [`Predicate::and_all`]).
    True,
}

impl Predicate {
    /// `lhs op rhs`.
    pub fn cmp(op: CmpOp, lhs: ScalarExpr, rhs: ScalarExpr) -> Self {
        Predicate::Cmp(op, lhs, rhs)
    }

    /// `col = literal` shorthand.
    pub fn col_eq(col: impl Into<String>, v: Value) -> Self {
        Predicate::Cmp(CmpOp::Eq, ScalarExpr::Col(col.into()), ScalarExpr::Lit(v))
    }

    /// `col < literal` shorthand.
    pub fn col_lt(col: impl Into<String>, v: Value) -> Self {
        Predicate::Cmp(CmpOp::Lt, ScalarExpr::Col(col.into()), ScalarExpr::Lit(v))
    }

    /// `col > literal` shorthand.
    pub fn col_gt(col: impl Into<String>, v: Value) -> Self {
        Predicate::Cmp(CmpOp::Gt, ScalarExpr::Col(col.into()), ScalarExpr::Lit(v))
    }

    /// `col >= literal` shorthand.
    pub fn col_ge(col: impl Into<String>, v: Value) -> Self {
        Predicate::Cmp(CmpOp::Ge, ScalarExpr::Col(col.into()), ScalarExpr::Lit(v))
    }

    /// Conjunction of an arbitrary number of predicates.
    pub fn and_all(preds: impl IntoIterator<Item = Predicate>) -> Self {
        let mut it = preds.into_iter();
        let first = match it.next() {
            Some(p) => p,
            None => return Predicate::True,
        };
        it.fold(first, |acc, p| Predicate::And(Box::new(acc), Box::new(p)))
    }

    /// Conjunction.
    pub fn and(self, rhs: Predicate) -> Self {
        Predicate::And(Box::new(self), Box::new(rhs))
    }

    /// Resolves column names against `schema`.
    pub fn bind(&self, schema: &Schema) -> RelResult<BoundPredicate> {
        Ok(match self {
            Predicate::Cmp(op, a, b) => BoundPredicate::Cmp(*op, a.bind(schema)?, b.bind(schema)?),
            Predicate::And(a, b) => {
                BoundPredicate::And(Box::new(a.bind(schema)?), Box::new(b.bind(schema)?))
            }
            Predicate::Or(a, b) => {
                BoundPredicate::Or(Box::new(a.bind(schema)?), Box::new(b.bind(schema)?))
            }
            Predicate::Not(p) => BoundPredicate::Not(Box::new(p.bind(schema)?)),
            Predicate::True => BoundPredicate::True,
        })
    }

    /// Names of all columns this predicate references.
    pub fn referenced_columns(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.collect_columns(&mut out);
        out
    }

    fn collect_columns<'a>(&'a self, out: &mut Vec<&'a str>) {
        match self {
            Predicate::Cmp(_, a, b) => {
                a.collect_columns(out);
                b.collect_columns(out);
            }
            Predicate::And(a, b) | Predicate::Or(a, b) => {
                a.collect_columns(out);
                b.collect_columns(out);
            }
            Predicate::Not(p) => p.collect_columns(out),
            Predicate::True => {}
        }
    }
}

/// A position-resolved predicate.
#[derive(Clone, Debug)]
pub enum BoundPredicate {
    /// Comparison.
    Cmp(CmpOp, BoundExpr, BoundExpr),
    /// Conjunction.
    And(Box<BoundPredicate>, Box<BoundPredicate>),
    /// Disjunction.
    Or(Box<BoundPredicate>, Box<BoundPredicate>),
    /// Negation.
    Not(Box<BoundPredicate>),
    /// Always true.
    True,
}

impl BoundPredicate {
    /// Evaluates the predicate against a row.
    pub fn eval(&self, row: &Tuple) -> RelResult<bool> {
        Ok(match self {
            BoundPredicate::Cmp(op, a, b) => {
                let va = a.eval_ref(row)?;
                let vb = b.eval_ref(row)?;
                if va.value_type() != vb.value_type() {
                    return Err(RelError::TypeMismatch {
                        context: format!("compare {va:?} {op} {vb:?}"),
                    });
                }
                op.test(va.cmp(&vb))
            }
            BoundPredicate::And(a, b) => a.eval(row)? && b.eval(row)?,
            BoundPredicate::Or(a, b) => a.eval(row)? || b.eval(row)?,
            BoundPredicate::Not(p) => !p.eval(row)?,
            BoundPredicate::True => true,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tup;

    fn schema() -> Schema {
        Schema::of(&[
            ("k", ValueType::Int),
            ("price", ValueType::Decimal),
            ("disc", ValueType::Decimal),
            ("seg", ValueType::Str),
        ])
    }

    fn row() -> Tuple {
        tup![
            Value::Int(7),
            Value::Decimal(10_000), // 100.00
            Value::Decimal(10),     // 0.10
            Value::str("BUILDING"),
        ]
    }

    #[test]
    fn revenue_expression() {
        // price * (1 - disc) = 100.00 * 0.90 = 90.00
        let e = ScalarExpr::col("price")
            .mul(ScalarExpr::lit(Value::Decimal(100)).sub(ScalarExpr::col("disc")));
        let b = e.bind(&schema()).unwrap();
        assert_eq!(b.eval(&row()).unwrap(), Value::Decimal(9_000));
    }

    #[test]
    fn int_decimal_promotion() {
        let e = ScalarExpr::lit(Value::Int(2)).mul(ScalarExpr::col("price"));
        let b = e.bind(&schema()).unwrap();
        assert_eq!(b.eval(&row()).unwrap(), Value::Decimal(20_000));
        let t = e.output_type(&schema()).unwrap();
        assert_eq!(t, ValueType::Decimal);
    }

    #[test]
    fn predicates() {
        let p = Predicate::col_eq("seg", Value::str("BUILDING"))
            .and(Predicate::col_gt("k", Value::Int(3)));
        assert!(p.bind(&schema()).unwrap().eval(&row()).unwrap());
        let p = Predicate::col_lt("k", Value::Int(3));
        assert!(!p.bind(&schema()).unwrap().eval(&row()).unwrap());
        let p = Predicate::Not(Box::new(Predicate::True));
        assert!(!p.bind(&schema()).unwrap().eval(&row()).unwrap());
    }

    #[test]
    fn and_all_of_empty_is_true() {
        let p = Predicate::and_all(std::iter::empty());
        assert!(p.bind(&schema()).unwrap().eval(&row()).unwrap());
    }

    #[test]
    fn or_and_ne() {
        let p = Predicate::Or(
            Box::new(Predicate::col_eq("k", Value::Int(999))),
            Box::new(Predicate::cmp(
                CmpOp::Ne,
                ScalarExpr::col("seg"),
                ScalarExpr::lit(Value::str("AUTO")),
            )),
        );
        assert!(p.bind(&schema()).unwrap().eval(&row()).unwrap());
    }

    #[test]
    fn type_mismatch_detected() {
        let p = Predicate::col_eq("seg", Value::Int(1));
        assert!(p.bind(&schema()).unwrap().eval(&row()).is_err());
        let e = ScalarExpr::col("seg").add(ScalarExpr::col("k"));
        assert!(e.output_type(&schema()).is_err());
        let b = e.bind(&schema()).unwrap();
        assert!(b.eval(&row()).is_err());
    }

    #[test]
    fn referenced_columns_collected() {
        let p =
            Predicate::col_eq("seg", Value::str("x")).and(Predicate::col_gt("k", Value::Int(0)));
        let mut cols = p.referenced_columns();
        cols.sort_unstable();
        assert_eq!(cols, vec!["k", "seg"]);
    }

    #[test]
    fn unknown_column_bind_fails() {
        assert!(ScalarExpr::col("nope").bind(&schema()).is_err());
        assert!(Predicate::col_eq("nope", Value::Int(1))
            .bind(&schema())
            .is_err());
    }

    #[test]
    fn cmp_ops_exhaustive() {
        use std::cmp::Ordering::*;
        assert!(CmpOp::Eq.test(Equal) && !CmpOp::Eq.test(Less));
        assert!(CmpOp::Ne.test(Less) && !CmpOp::Ne.test(Equal));
        assert!(CmpOp::Lt.test(Less) && !CmpOp::Lt.test(Equal));
        assert!(CmpOp::Le.test(Equal) && !CmpOp::Le.test(Greater));
        assert!(CmpOp::Gt.test(Greater) && !CmpOp::Gt.test(Equal));
        assert!(CmpOp::Ge.test(Equal) && !CmpOp::Ge.test(Less));
    }
}
