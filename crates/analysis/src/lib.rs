//! # uww-analysis
//!
//! A rule-based static analyzer ("strategy lint") for update strategies.
//!
//! Where [`uww_vdag::check_vdag_strategy`] dynamically *rejects* an
//! incorrect strategy with the first violated condition, this crate runs an
//! abstract interpretation over the strategy — tracking, per expression,
//! which extents are read stale vs. fresh and which deltas are written —
//! and reports **every** defect as a structured diagnostic with a stable
//! rule id:
//!
//! | rule | name | enforces |
//! |------|------|----------|
//! | `UWW001` | `stage-race` | stage isolation of the parallel executor |
//! | `UWW002` | `dead-delta` | C2 (every view installed) |
//! | `UWW003` | `uncovered-source` | C1 (every source propagated) |
//! | `UWW004` | `redundant-term` | C6, plus overlapping over-sets (C3+C4) |
//! | `UWW005` | `cost-anomaly` | finite, non-negative predicted work |
//! | `UWW006` | `read-after-install` | C3 |
//! | `UWW007` | `install-order` | C4 |
//! | `UWW008` | `late-comp` | C5 |
//! | `UWW009` | `uncomputed-delta` | C8 |
//! | `UWW010` | `malformed-expr` | C1/C2/C7 shape conditions |
//!
//! `UWW011`–`UWW014` are retired and never reused: the sharing advisories
//! described sharing the operand store already does (`uww explain` and
//! `uww run --strategy-sharing` show it), and the same-stage race check is
//! `UWW001`'s, over the one dependence relation [`depends`] that
//! `parallelize` also schedules by.
//!
//! On sequential strategies the analyzer is **exactly equivalent** to the
//! dynamic checkers: [`Report::has_errors`] is `true` iff
//! [`uww_vdag::check_vdag_strategy`] (resp. `check_view_strategy` for
//! [`analyze_view`]) rejects. On parallel strategies it is strictly
//! stronger: [`analyze_parallel`] additionally flags same-stage expression
//! pairs whose order matters (`UWW001`) — races the dynamic check of the
//! linearization cannot observe. `execute_staged` runs exactly that check
//! before it starts a staged window.
//!
//! The crate also holds the engine's [`SharingProfile`] types and the
//! operand-liveness predicate [`modifies_operand`].
//!
//! Diagnostics carry severity, an expression-index span, and the involved
//! view names; [`Report::render_text`] renders them rustc-style and
//! [`Report::to_json`] emits machine-readable JSON.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod analyzer;
mod diag;
mod parse;
mod sharing;

pub use analyzer::{analyze, analyze_costs, analyze_parallel, analyze_view, depends};
pub use diag::{Diagnostic, Report, Rule, Severity};
pub use parse::{parse_expr, parse_stages, parse_strategy};
pub use sharing::{
    modifies_operand, ExprSharingProfile, OperandProfile, SharingProfile, TermProfile,
};
