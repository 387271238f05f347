//! # uww — Shrinking the Warehouse Update Window
//!
//! A from-scratch Rust reproduction of Labio, Yerneni & Garcia-Molina,
//! *Shrinking the Warehouse Update Window* (SIGMOD 1999): optimal batch
//! update strategies for DAGs of materialized views, together with the
//! relational substrate, TPC-D workload, and benchmark harness needed to
//! regenerate every table and figure of the paper's evaluation.
//!
//! This umbrella crate re-exports the four library crates and adds
//! [`scenario`], which wires the TPC-D workload into ready-to-run warehouse
//! instances (used by the examples, the integration tests, and the
//! benchmark harness).
//!
//! ## Quick start
//!
//! ```
//! use uww::scenario::TpcdScenario;
//! use uww::core::{min_work, SizeCatalog};
//!
//! // A small TPC-D warehouse with the Q3 summary table, 10% deletions.
//! let mut scenario = TpcdScenario::builder()
//!     .scale(0.0005)
//!     .views([uww::tpcd::q3_def()])
//!     .build()
//!     .unwrap();
//! scenario.load_paper_changes(0.10).unwrap();
//!
//! // Plan with MinWork and execute.
//! let sizes = SizeCatalog::estimate(&scenario.warehouse).unwrap();
//! let plan = min_work(scenario.warehouse.vdag(), &sizes).unwrap();
//! let expected = scenario.warehouse.expected_final_state().unwrap();
//! let report = scenario.warehouse.execute(&plan.strategy).unwrap();
//! assert!(scenario.warehouse.diff_state(&expected).is_empty());
//! assert!(report.linear_work() > 0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use uww_core as core;
pub use uww_obs as obs;
pub use uww_relational as relational;
pub use uww_sched as sched;
pub use uww_serve as serve;
pub use uww_tpcd as tpcd;
pub use uww_vdag as vdag;

pub mod scenario;
pub mod serving;
