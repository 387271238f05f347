//! # uww-core
//!
//! The primary contribution of *Shrinking the Warehouse Update Window*
//! (Labio, Yerneni, Garcia-Molina, SIGMOD 1999): algorithms that pick, for a
//! DAG of materialized views and a batch of base-view changes, the update
//! strategy (sequence of `Comp`/`Inst` expressions) minimizing total work.
//!
//! * [`planner::min_work_single`] — **MinWorkSingle** (Section 4): the
//!   optimal strategy for one view, `O(n log n)`;
//! * [`planner::min_work`] — **MinWork** (Section 5): optimal for any VDAG
//!   whose expression graph is acyclic under the desired view ordering (in
//!   particular all tree and uniform VDAGs), near-optimal otherwise;
//! * [`planner::prune`] — **Prune** (Section 6): the best 1-way VDAG
//!   strategy for *any* VDAG, via `m!` strong-expression-graph candidates;
//! * [`cost::CostModel`] — the linear work metric (Definition 3.5) plus the
//!   flawed "operands once" variant used for the paper's metric ablation;
//! * [`sizes::SizeCatalog`] — `|V|`, `|ΔV|`, `|V'|` bookkeeping and the
//!   bottom-up estimator of Section 5.5;
//! * [`engine`] — a full update engine executing strategies against the
//!   `uww-relational` substrate, metering the measured counterpart of the
//!   work metric and wall-clock update windows;
//! * [`exhaustive`] — brute-force enumeration of *every* correct strategy on
//!   small VDAGs (the validation baseline for the optimality theorems);
//! * [`parallel`] — Section 9's parallel strategies: dependence-preserving
//!   stage scheduling, makespan costing, and VDAG flattening.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cost;
pub mod design;
pub mod engine;
pub mod error;
pub mod exhaustive;
pub mod olap;
pub mod parallel;
pub mod planner;
pub mod recovery;
pub mod script;
pub mod sizes;
pub mod wal;

pub use cost::{CostMetric, CostModel};
pub use design::{greedy_select, Candidate, DesignOutcome};
pub use engine::{
    plan_strategy_sharing, plan_strategy_sharing_carried, surviving_terms, CarryConformance,
    ExecOptions, ExecutionReport, ExprReport, InstallPublisher, PartitionOptions, PendingDelta,
    SharingScope, SummaryDelta, Warehouse, WarehouseBuilder, WindowCarry, WindowOutcome,
};
pub use error::{CoreError, CoreResult};
pub use exhaustive::{all_one_way_vdag_strategies, all_vdag_strategies, best_vdag_strategy};
pub use olap::{
    simulate as simulate_olap, InterferenceReport, IsolationMode, OlapWorkload, QueryOutcome,
};
pub use parallel::{
    canonical_stage_order, flatten_def, makespan, parallelize, total_work, ParallelStrategy,
};
pub use planner::{
    min_work, min_work_shared, min_work_shared_capped, min_work_single, one_way_for_ordering,
    prune, prune_full, MinWorkPlan, PruneOutcome, SharedPlanOutcome, PRUNE_MAX_VIEWS,
    SHARED_REPLAY_CAP,
};
pub use recovery::{recover, recover_with, RecoveryOutcome};
pub use script::{expr_to_sql, predicate_to_sql, value_to_sql, ScriptGenerator, SqlProcedure};
pub use sizes::{SizeCatalog, SizeInfo};
pub use wal::{FaultPlan, FsyncPolicy, WalConfig, WalLog};
