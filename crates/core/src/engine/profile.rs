//! The window's sharing profile and the operand-liveness predicate.
//!
//! The profile is what the engine's window runner records as it runs
//! ([`WindowOutcome::profile`](crate::WindowOutcome::profile); offline,
//! [`plan_strategy_sharing`](crate::plan_strategy_sharing) runs a scratch
//! clone to get one): per expression, every maintenance
//! term's executed join order and every distinct `(operand, pushed-down
//! filter, key columns)` hash-table use. The counters are not here — they
//! are the `WorkMeter` of the same run. `uww explain` renders the profile,
//! and the shared planner objective prices its held operands.

use uww_vdag::{UpdateExpr, Vdag, ViewId};

/// One distinct keyed operand use inside a `Comp`, as the engine records
/// it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OperandProfile {
    /// Source view name.
    pub source: String,
    /// True when the delta form of the source is scanned.
    pub as_delta: bool,
    /// Build-key column names, in key order.
    pub key_cols: Vec<String>,
    /// Rendered pushed-down filters applied to this operand.
    pub filters: Vec<String>,
    /// Filtered operand cardinality (rows one build scans).
    pub rows: u64,
    /// True when the operand store already held this key's table when the
    /// `Comp` started: every use probed an earlier expression's or
    /// window's table, and the `Comp` built nothing for it.
    pub held: bool,
}

/// One maintenance term of a `Comp`, as the engine ran it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TermProfile {
    /// Source views in the delta role for this term.
    pub delta_sources: Vec<String>,
    /// Every operand in the join order the engine executed, rendered as
    /// `Δname(rows)` or `name(rows)`; the rows are the filtered counts the
    /// order was chosen by. Empty for a term skipped over an empty delta.
    pub join_order: Vec<String>,
}

impl TermProfile {
    /// True when the engine skipped this term because one of its deltas is
    /// empty (footnote 5).
    pub fn skipped(&self) -> bool {
        self.join_order.is_empty()
    }
}

/// What the engine did for one strategy expression, beside its meter:
/// empty for an `Inst`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ExprSharingProfile {
    /// The maintenance terms the engine evaluated, in term order (the
    /// footnote-5 filter applied).
    pub terms: Vec<TermProfile>,
    /// Every distinct keyed operand use, sorted by key.
    pub operands: Vec<OperandProfile>,
}

/// A whole strategy's sharing profile, aligned index-for-index with the
/// strategy's expressions.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SharingProfile {
    /// Per-expression profiles, in strategy order.
    pub exprs: Vec<ExprSharingProfile>,
}

impl SharingProfile {
    /// Total filtered rows of the keys found in the store across the
    /// strategy — the hash builds avoided by probing earlier expressions'
    /// tables, which the shared planner objective prices.
    pub fn cross_saved_rows(&self) -> u64 {
        let operands = self.exprs.iter().flat_map(|e| &e.operands);
        operands.filter(|o| o.held).map(|o| o.rows).sum()
    }
}

/// Whether executing `e` changes the contents of the given operand form of
/// `source`: the stored extent changes only at `Inst(source)`; the pending
/// delta changes when a `Comp` extends it or an `Inst` consumes it.
///
/// This predicate is the single liveness source of truth for cross-`Comp`
/// sharing: the engine's `OperandStore` uses it to invalidate cached
/// materializations and hash tables after each executed expression
/// (liveness), and to stop looking for a later reader of an entry once an
/// expression modifies its operand (retention).
pub fn modifies_operand(g: &Vdag, e: &UpdateExpr, source: &str, as_delta: bool) -> bool {
    let named = |v: &ViewId| v.0 < g.len() && g.name(*v) == source;
    match e {
        UpdateExpr::Inst(v) => named(v),
        UpdateExpr::Comp { view, .. } => as_delta && named(view),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uww_vdag::figure3_vdag;

    #[test]
    fn only_installs_modify_stored_extents_and_comps_extend_their_own_delta() {
        let g = figure3_vdag();
        let v1 = g.id_of("V1").unwrap();
        let v2 = g.id_of("V2").unwrap();
        let v4 = g.id_of("V4").unwrap();
        let inst = UpdateExpr::inst(v1);
        assert!(modifies_operand(&g, &inst, "V1", false));
        assert!(modifies_operand(&g, &inst, "V1", true));
        assert!(!modifies_operand(&g, &inst, "V2", false));
        let comp = UpdateExpr::comp1(v4, v2);
        assert!(modifies_operand(&g, &comp, "V4", true));
        assert!(!modifies_operand(&g, &comp, "V4", false));
        assert!(!modifies_operand(&g, &comp, "V2", true));
    }
}
