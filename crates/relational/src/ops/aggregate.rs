//! Grouping and aggregation over signed row batches.
//!
//! Aggregation over a *signed* batch produces, per group, signed accumulator
//! deltas: `SUM` adds `value * multiplicity`, `COUNT` adds the multiplicity.
//! Over an all-positive batch this is ordinary aggregation; over a
//! maintenance delta it is exactly the "summary delta" of
//! Mumick/Quass/Mumick (SIGMOD '97), which the paper's Section 8 cites as the
//! change representation for summary tables.
//!
//! `MIN`/`MAX` are supported **for insertions only**: an extremum is
//! mergeable under inserts (min-of-mins) but is not self-maintainable under
//! deletions without auxiliary per-group state; a minus tuple reaching a
//! MIN/MAX accumulator raises [`RelError::UnsupportedIncremental`] — the
//! classic self-maintainability boundary, surfaced instead of silently
//! producing wrong answers.

use super::SignedRows;
use crate::error::{RelError, RelResult};
use crate::expr::BoundExpr;
use crate::tuple::{Tuple, TupleMap};
use crate::value::ValueType;

/// Aggregate functions supported by view definitions.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AggFunc {
    /// Sum of a numeric expression. Self-maintainable under inserts and
    /// deletes.
    Sum,
    /// Count of rows (the expression is still evaluated for type checking but
    /// its value is ignored). Self-maintainable under inserts and deletes.
    Count,
    /// Minimum of a numeric/date expression. Insert-only incremental.
    Min,
    /// Maximum of a numeric/date expression. Insert-only incremental.
    Max,
}

impl AggFunc {
    /// True when the function stays maintainable when rows are deleted.
    pub fn survives_deletions(self) -> bool {
        matches!(self, AggFunc::Sum | AggFunc::Count)
    }
}

/// A bound aggregation specification: group-by keys plus aggregates.
#[derive(Clone, Debug)]
pub struct AggSpec {
    /// Expressions producing the group key.
    pub group_by: Vec<BoundExpr>,
    /// `(function, input expression, input type)` triples.
    pub aggs: Vec<(AggFunc, BoundExpr, ValueType)>,
}

/// One per-aggregate accumulator delta.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Acc {
    /// Additive accumulator (SUM and COUNT): a signed raw delta.
    Sum(i64),
    /// Minimum seen (insert-only); `None` until a row contributes.
    Min(Option<i64>),
    /// Maximum seen (insert-only).
    Max(Option<i64>),
}

impl Acc {
    /// The neutral accumulator for `func`.
    pub fn identity(func: AggFunc) -> Acc {
        match func {
            AggFunc::Sum | AggFunc::Count => Acc::Sum(0),
            AggFunc::Min => Acc::Min(None),
            AggFunc::Max => Acc::Max(None),
        }
    }

    /// Merges another accumulator of the same shape.
    pub fn merge(&mut self, other: &Acc) {
        match (self, other) {
            (Acc::Sum(a), Acc::Sum(b)) => *a += b,
            (Acc::Min(a), Acc::Min(b)) => *a = opt_extreme(*a, *b, i64::min),
            (Acc::Max(a), Acc::Max(b)) => *a = opt_extreme(*a, *b, i64::max),
            _ => debug_assert!(false, "accumulator shape mismatch"),
        }
    }

    /// True when the accumulator is at its identity.
    pub fn is_identity(&self) -> bool {
        matches!(self, Acc::Sum(0) | Acc::Min(None) | Acc::Max(None))
    }

    /// The raw additive payload (SUM/COUNT only).
    pub fn sum(&self) -> Option<i64> {
        match self {
            Acc::Sum(v) => Some(*v),
            _ => None,
        }
    }
}

fn opt_extreme(a: Option<i64>, b: Option<i64>, f: impl Fn(i64, i64) -> i64) -> Option<i64> {
    match (a, b) {
        (Some(x), Some(y)) => Some(f(x, y)),
        (x, None) => x,
        (None, y) => y,
    }
}

/// Per-group signed accumulators.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GroupAcc {
    /// One accumulator per aggregate, in spec order.
    pub accs: Vec<Acc>,
    /// Signed number of contributing rows (drives group birth/death).
    pub count: i64,
}

impl GroupAcc {
    /// The neutral accumulator row for a spec.
    pub fn identity(aggs: &[(AggFunc, ValueType)]) -> GroupAcc {
        GroupAcc {
            accs: aggs.iter().map(|(f, _)| Acc::identity(*f)).collect(),
            count: 0,
        }
    }

    /// Merges another group accumulator.
    pub fn merge(&mut self, other: &GroupAcc) {
        for (a, b) in self.accs.iter_mut().zip(&other.accs) {
            a.merge(b);
        }
        self.count += other.count;
    }

    /// True when nothing changed.
    pub fn is_identity(&self) -> bool {
        self.count == 0 && self.accs.iter().all(Acc::is_identity)
    }
}

/// Per-group accumulators keyed by group-key tuple, bucketed by each key's
/// cached row hash.
pub type GroupMap = TupleMap<GroupAcc>;

/// Groups a signed batch, returning per-group accumulator deltas.
///
/// Groups whose every accumulator *and* count net to the identity are
/// dropped. A minus tuple contributing to a MIN/MAX accumulator is an
/// [`RelError::UnsupportedIncremental`] error.
///
/// Accepts any row slice (not just a whole [`SignedRows`] batch) so the
/// partition-parallel engine can aggregate contiguous chunks independently
/// and [`merge_groups`] the per-chunk maps.
pub fn group_rows(rows: &[(Tuple, i64)], spec: &AggSpec) -> RelResult<GroupMap> {
    let mut out = GroupMap::default();
    for (row, mult) in rows {
        let mut key_vals = Vec::with_capacity(spec.group_by.len());
        for e in &spec.group_by {
            key_vals.push(e.eval(row)?);
        }
        let key = Tuple::new(key_vals);
        let acc = out.entry(key).or_insert_with(|| GroupAcc {
            accs: spec
                .aggs
                .iter()
                .map(|(f, _, _)| Acc::identity(*f))
                .collect(),
            count: 0,
        });
        for (i, (f, e, _ty)) in spec.aggs.iter().enumerate() {
            match f {
                AggFunc::Sum => {
                    let v = e.eval(row)?;
                    let raw = v.numeric_raw().ok_or_else(|| RelError::TypeMismatch {
                        context: format!("SUM over non-numeric value {v:?}"),
                    })?;
                    let term = raw.checked_mul(*mult).ok_or_else(overflow)?;
                    acc.accs[i].merge(&Acc::Sum(term));
                }
                AggFunc::Count => {
                    acc.accs[i].merge(&Acc::Sum(*mult));
                }
                AggFunc::Min | AggFunc::Max => {
                    if *mult < 0 {
                        return Err(RelError::UnsupportedIncremental(format!(
                            "{f:?} under deletions (a minus tuple reached the accumulator)"
                        )));
                    }
                    let v = e.eval(row)?;
                    let raw = extremum_raw(&v).ok_or_else(|| RelError::TypeMismatch {
                        context: format!("{f:?} over value {v:?}"),
                    })?;
                    let other = if matches!(f, AggFunc::Min) {
                        Acc::Min(Some(raw))
                    } else {
                        Acc::Max(Some(raw))
                    };
                    acc.accs[i].merge(&other);
                }
            }
        }
        acc.count += mult;
    }
    out.retain(|_, acc| !acc.is_identity());
    Ok(out)
}

/// Merges per-chunk group maps into one, re-applying the identity filter —
/// the reduce side of chunked aggregation. Every accumulator is commutative
/// and associative under [`GroupAcc::merge`] (SUM/COUNT add; MIN/MAX,
/// insert-only, take extrema), so the merged map equals [`group_rows`] over
/// the concatenated input regardless of how the batch was chunked or in
/// which order chunks arrive. The first map is the accumulator, so a single
/// chunk comes back as it is.
pub fn merge_groups(maps: impl IntoIterator<Item = GroupMap>) -> GroupMap {
    let mut maps = maps.into_iter();
    let mut out = maps.next().unwrap_or_default();
    let mut merged = false;
    for m in maps {
        merged = true;
        for (key, acc) in m {
            match out.entry(key) {
                std::collections::hash_map::Entry::Occupied(mut o) => o.get_mut().merge(&acc),
                std::collections::hash_map::Entry::Vacant(v) => {
                    v.insert(acc);
                }
            }
        }
    }
    // A group can net to the identity only across chunks (each chunk map
    // already dropped its own identities).
    if merged {
        out.retain(|_, acc| !acc.is_identity());
    }
    out
}

/// [`group_rows`] over `chunks` contiguous slices, merged — the sequential
/// reference for the partition-parallel aggregation path.
pub fn group_rows_chunked(rows: &SignedRows, spec: &AggSpec, chunks: usize) -> RelResult<GroupMap> {
    let size = rows.len().div_ceil(chunks.max(1)).max(1);
    let maps = rows
        .chunks(size)
        .map(|c| group_rows(c, spec))
        .collect::<RelResult<Vec<_>>>()?;
    Ok(merge_groups(maps))
}

/// Raw ordering payload for MIN/MAX: numerics and dates.
fn extremum_raw(v: &crate::value::Value) -> Option<i64> {
    use crate::value::Value;
    match v {
        Value::Int(x) | Value::Decimal(x) => Some(*x),
        Value::Date(d) => Some(*d as i64),
        Value::Str(_) => None,
    }
}

fn overflow() -> RelError {
    RelError::Overflow("aggregation".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::ScalarExpr;
    use crate::schema::Schema;
    use crate::tup;
    use crate::value::Value;

    fn spec() -> AggSpec {
        let schema = Schema::of(&[("g", ValueType::Int), ("v", ValueType::Decimal)]);
        AggSpec {
            group_by: vec![ScalarExpr::col("g").bind(&schema).unwrap()],
            aggs: vec![
                (
                    AggFunc::Sum,
                    ScalarExpr::col("v").bind(&schema).unwrap(),
                    ValueType::Decimal,
                ),
                (
                    AggFunc::Count,
                    ScalarExpr::col("g").bind(&schema).unwrap(),
                    ValueType::Int,
                ),
            ],
        }
    }

    fn minmax_spec() -> AggSpec {
        let schema = Schema::of(&[("g", ValueType::Int), ("v", ValueType::Decimal)]);
        AggSpec {
            group_by: vec![ScalarExpr::col("g").bind(&schema).unwrap()],
            aggs: vec![
                (
                    AggFunc::Min,
                    ScalarExpr::col("v").bind(&schema).unwrap(),
                    ValueType::Decimal,
                ),
                (
                    AggFunc::Max,
                    ScalarExpr::col("v").bind(&schema).unwrap(),
                    ValueType::Decimal,
                ),
            ],
        }
    }

    #[test]
    fn positive_aggregation() {
        let rows = vec![
            (tup![Value::Int(1), Value::Decimal(100)], 1),
            (tup![Value::Int(1), Value::Decimal(250)], 2),
            (tup![Value::Int(2), Value::Decimal(10)], 1),
        ];
        let g = group_rows(&rows, &spec()).unwrap();
        assert_eq!(g.len(), 2);
        let a = &g[&tup![Value::Int(1)]];
        assert_eq!(a.accs, vec![Acc::Sum(600), Acc::Sum(3)]);
        assert_eq!(a.count, 3);
    }

    #[test]
    fn signed_aggregation_is_summary_delta() {
        let rows = vec![
            (tup![Value::Int(1), Value::Decimal(100)], -1),
            (tup![Value::Int(1), Value::Decimal(40)], 1),
        ];
        let g = group_rows(&rows, &spec()).unwrap();
        let a = &g[&tup![Value::Int(1)]];
        assert_eq!(a.accs, vec![Acc::Sum(-60), Acc::Sum(0)]);
        assert_eq!(a.count, 0);
    }

    #[test]
    fn fully_cancelled_groups_dropped() {
        let rows = vec![
            (tup![Value::Int(1), Value::Decimal(100)], 1),
            (tup![Value::Int(1), Value::Decimal(100)], -1),
        ];
        let g = group_rows(&rows, &spec()).unwrap();
        assert!(g.is_empty());
    }

    #[test]
    fn min_max_over_inserts() {
        let rows = vec![
            (tup![Value::Int(1), Value::Decimal(100)], 1),
            (tup![Value::Int(1), Value::Decimal(40)], 2),
            (tup![Value::Int(1), Value::Decimal(70)], 1),
        ];
        let g = group_rows(&rows, &minmax_spec()).unwrap();
        let a = &g[&tup![Value::Int(1)]];
        assert_eq!(a.accs, vec![Acc::Min(Some(40)), Acc::Max(Some(100))]);
        assert_eq!(a.count, 4);
    }

    #[test]
    fn min_max_under_deletions_rejected() {
        let rows = vec![(tup![Value::Int(1), Value::Decimal(100)], -1)];
        let e = group_rows(&rows, &minmax_spec()).unwrap_err();
        assert!(matches!(e, RelError::UnsupportedIncremental(_)));
        assert!(!AggFunc::Min.survives_deletions());
        assert!(AggFunc::Sum.survives_deletions());
    }

    #[test]
    fn acc_merging_laws() {
        let mut a = Acc::Min(None);
        a.merge(&Acc::Min(Some(5)));
        a.merge(&Acc::Min(Some(9)));
        assert_eq!(a, Acc::Min(Some(5)));
        let mut b = Acc::Max(Some(3));
        b.merge(&Acc::Max(None));
        assert_eq!(b, Acc::Max(Some(3)));
        assert!(Acc::Sum(0).is_identity());
        assert!(!Acc::Sum(1).is_identity());
        assert!(Acc::Min(None).is_identity());
        assert_eq!(Acc::Sum(7).sum(), Some(7));
        assert_eq!(Acc::Min(Some(7)).sum(), None);
    }

    #[test]
    fn chunked_grouping_equals_sequential() {
        // Signed batch with cross-chunk cancellation: key 1's count nets to
        // zero only once the chunks merge.
        let rows: SignedRows = vec![
            (tup![Value::Int(1), Value::Decimal(100)], 1),
            (tup![Value::Int(2), Value::Decimal(10)], 2),
            (tup![Value::Int(1), Value::Decimal(100)], -1),
            (tup![Value::Int(3), Value::Decimal(7)], 1),
            (tup![Value::Int(2), Value::Decimal(5)], -1),
        ];
        let seq = group_rows(&rows, &spec()).unwrap();
        for chunks in [1, 2, 3, 5, 9] {
            let par = group_rows_chunked(&rows, &spec(), chunks).unwrap();
            assert_eq!(seq, par, "diverged at {chunks} chunks");
        }
        // Insert-only MIN/MAX merges to extrema across chunks too.
        let pos: SignedRows = (0..20)
            .map(|i| (tup![Value::Int(i % 3), Value::Decimal(100 - i)], 1))
            .collect();
        let seq = group_rows(&pos, &minmax_spec()).unwrap();
        assert_eq!(seq, group_rows_chunked(&pos, &minmax_spec(), 4).unwrap());
        // merge_groups drops fully-cancelled groups and tolerates any order.
        let a = group_rows(&rows[..2], &spec()).unwrap();
        let b = group_rows(&rows[2..], &spec()).unwrap();
        assert_eq!(merge_groups([b, a]), group_rows(&rows, &spec()).unwrap());
    }

    #[test]
    fn sum_over_string_is_error() {
        let schema = Schema::of(&[("g", ValueType::Int), ("s", ValueType::Str)]);
        let bad = AggSpec {
            group_by: vec![ScalarExpr::col("g").bind(&schema).unwrap()],
            aggs: vec![(
                AggFunc::Sum,
                ScalarExpr::col("s").bind(&schema).unwrap(),
                ValueType::Str,
            )],
        };
        let rows = vec![(tup![Value::Int(1), Value::str("x")], 1)];
        assert!(group_rows(&rows, &bad).is_err());

        // MIN over strings also rejected (ordering payload undefined).
        let bad = AggSpec {
            group_by: vec![ScalarExpr::col("g").bind(&schema).unwrap()],
            aggs: vec![(
                AggFunc::Min,
                ScalarExpr::col("s").bind(&schema).unwrap(),
                ValueType::Str,
            )],
        };
        assert!(group_rows(&rows, &bad).is_err());
    }
}
