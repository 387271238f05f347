//! # uww-vdag
//!
//! The warehouse model of *Shrinking the Warehouse Update Window*
//! (Labio, Yerneni, Garcia-Molina, SIGMOD 1999), Sections 2, 3, 5.2, 6:
//!
//! * [`Vdag`] — the view DAG, with `Level`, tree and uniform classification;
//! * [`UpdateExpr`] / [`Strategy`] — `Comp`/`Inst` sequences;
//! * [`correctness`] — one checker for conditions C1–C6 (view strategies)
//!   and C7–C8 (VDAG strategies), which names each defect with a rule
//!   ([`diag`]): [`check_view_strategy`] / [`check_vdag_strategy`] return
//!   the first, [`analyze`] / [`analyze_view`] / [`analyze_parallel`] report
//!   them all (`uww analyze`);
//! * [`parse`] — the strategy text syntax `uww analyze` reads;
//! * [`enumerate`] — ordered-set-partition enumeration of all view
//!   strategies, 1-way enumeration, and the Table 1 counts (Fubini numbers);
//! * [`ordering`] — view orderings, consistency and strong consistency;
//! * [`egraph`] — `ConstructEG` / `ConstructSEG` expression graphs,
//!   topological strategy extraction, and `ModifyOrdering`.
//!
//! The rules, each with a stable id:
//!
//! | rule | name | enforces |
//! |------|------|----------|
//! | `UWW001` | `stage-race` | stage isolation of the parallel executor |
//! | `UWW002` | `dead-delta` | C2 (every view installed) |
//! | `UWW003` | `uncovered-source` | C1 (every source propagated) |
//! | `UWW004` | `redundant-term` | C6, plus overlapping over-sets (C3+C4) |
//! | `UWW006` | `read-after-install` | C3 |
//! | `UWW007` | `install-order` | C4 |
//! | `UWW008` | `late-comp` | C5 |
//! | `UWW009` | `uncomputed-delta` | C8 |
//! | `UWW010` | `malformed-expr` | C1/C2/C7 shape conditions |
//!
//! `UWW005` (`cost-anomaly`) and `UWW011`–`UWW014` are retired and never
//! reused.
//!
//! This crate is purely combinatorial — it knows nothing about table
//! contents. Cost models and planners live in `uww-core`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod correctness;
pub mod diag;
pub mod dot;
pub mod egraph;
pub mod enumerate;
pub mod error;
pub mod graph;
pub mod ordering;
pub mod parse;
pub mod random;
pub mod strategy;

pub use correctness::{
    analyze, analyze_parallel, analyze_view, check_vdag_strategy, check_view_strategy, depends,
};
pub use diag::{Diagnostic, Report, Rule};
pub use egraph::{construct_eg, construct_seg, modify_ordering, EdgeLabel, ExpressionGraph};
pub use enumerate::{
    fubini, one_way_view_strategies, ordered_set_partitions, paper_formula_strategies,
    permutations, view_strategies,
};
pub use error::{VdagError, VdagResult};
pub use graph::{figure10_vdag, figure3_vdag, Vdag, ViewId, ViewNode};
pub use ordering::{
    install_ordering, strongly_consistent, vdag_strategy_consistent, view_strategy_consistent,
    ViewOrdering,
};
pub use parse::{parse_expr, parse_stages, parse_strategy};
pub use random::{random_vdag, RandomVdagConfig, SplitMix64};
pub use strategy::{dual_stage_strategy, one_way_expressions, Strategy, UpdateExpr};
