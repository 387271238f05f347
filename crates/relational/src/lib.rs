//! # uww-relational
//!
//! The relational substrate for the *Shrinking the Warehouse Update Window*
//! reproduction: an in-memory multiset engine with signed delta relations.
//!
//! The paper ran its experiments on a commercial RDBMS; this crate provides
//! the equivalent machinery the update strategies need, built from scratch:
//!
//! * [`Value`], [`Schema`], [`Tuple`] — typed rows with exact (fixed-point)
//!   arithmetic so incremental maintenance matches recomputation bit-for-bit;
//! * [`Table`] — bag-semantics stored extents with an `install` primitive;
//! * [`DeltaRelation`] — signed multisets carrying the paper's plus/minus
//!   tuples;
//! * [`ViewDef`] — SELECT-FROM-WHERE-GROUPBY view definitions (`Def(V)`);
//! * [`ops`] — physical operators over signed row batches (scan, filter,
//!   project, hash join, grouping) that multiply multiplicities through
//!   joins, giving maintenance-expression semantics for free;
//! * [`WorkMeter`] — counts operand rows scanned and rows installed, the two
//!   quantities the paper's linear work metric is built from.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod catalog;
pub mod delta;
pub mod error;
pub mod expr;
pub mod meter;
pub mod ops;
pub mod schema;
pub mod snapshot;
pub mod sql;
pub mod table;
pub mod tuple;
pub mod value;
pub mod versioned;
pub mod viewdef;

pub use catalog::Catalog;
pub use delta::DeltaRelation;
pub use error::{RelError, RelResult};
pub use expr::{BoundExpr, BoundPredicate, CmpOp, Predicate, ScalarExpr};
pub use meter::WorkMeter;
pub use ops::{AggFunc, AggSpec, SignedRows};
pub use schema::{Column, Schema};
pub use snapshot::{
    catalog_digest, catalog_from_image, catalog_from_str, catalog_to_string, delta_digest,
    delta_from_str, delta_to_string, deltas_digest, deltas_from_image, deltas_to_string, digest64,
    table_digest, table_to_string, value_from_wire, value_to_wire, write_catalog_image,
    write_deltas_image,
};
pub use sql::parse_view_def;
pub use table::Table;
pub use tuple::{Tuple, TupleMap};
pub use value::{date, days_to_ymd, ymd_to_days, Value, ValueType, DECIMAL_ONE, DECIMAL_SCALE};
pub use versioned::{CatalogVersion, VersionedCatalog};
pub use viewdef::{AggregateColumn, EquiJoin, OutputColumn, ViewDef, ViewOutput, ViewSource};
