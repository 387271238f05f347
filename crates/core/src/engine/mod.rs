//! The update engine: executes `Comp`/`Inst` strategies against a warehouse.
//!
//! The engine implements the paper's execution model faithfully:
//!
//! * `Comp(W, Y)` evaluates `2^|Y| − 1` maintenance terms ([`eval`]), each
//!   scanning the delta forms of one subset of `Y` and the *current stored*
//!   state of every other source — so every preceding `Inst` changes the work
//!   later terms incur, exactly the effect the strategies trade off;
//! * ΔW accumulates across `Comp` expressions (plus/minus rows for
//!   projection views, additive summary deltas for aggregate views,
//!   [`summary`]);
//! * `Inst(V)` applies ΔV to the stored extent ([`exec`]).
//!
//! A [`WorkMeter`](uww_relational::WorkMeter) counts operand rows scanned
//! and rows installed — the measured counterpart of the linear work metric —
//! and the executor also records wall-clock time per expression.

pub mod eval;
pub mod exec;
pub mod explain;
pub(crate) mod index;
pub mod pool;
pub mod profile;
pub mod publish;
pub(crate) mod share;
pub mod summary;
pub mod warehouse;

pub(crate) use summary::raw_to_value as summary_raw_to_value;

pub use exec::{
    plan_strategy_sharing, plan_strategy_sharing_carried, CarryConformance, ExecOptions,
    ExecutionReport, ExprReport, SharingScope, WindowOutcome,
};
pub use explain::{render_explain, ExprPlan};
pub use pool::PartitionOptions;
pub use profile::{
    modifies_operand, ExprSharingProfile, OperandProfile, SharingProfile, TermProfile,
};
pub use publish::InstallPublisher;
pub use share::{surviving_terms, WindowCarry};
pub use summary::{stored_aggregate_schema, SummaryDelta, COUNT_COLUMN};
pub use warehouse::{PendingDelta, Warehouse, WarehouseBuilder};
