//! Error type for the planner and update engine.

use std::fmt;
use uww_relational::RelError;
use uww_vdag::{Report, VdagError};

/// Errors raised by warehouse construction, strategy execution, and planning.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// An error from the relational substrate.
    Rel(RelError),
    /// An error from the VDAG model (including strategy-correctness
    /// violations).
    Vdag(VdagError),
    /// Warehouse-level misconfiguration.
    Warehouse(String),
    /// A planner precondition failed.
    Planner(String),
    /// The checker refused a staged strategy (the staged executor's race
    /// check); the full report with `UWW###` rule ids is attached.
    Analysis(Box<Report>),
    /// An install-WAL I/O or format problem (missing files, bad manifest,
    /// mismatched warehouse fingerprint).
    Wal(String),
    /// A WAL record failed its checksum or sequence check somewhere other
    /// than the torn tail — the log is damaged and recovery refuses it.
    WalCorrupt {
        /// Sequence number of the offending record.
        record: u64,
        /// What was wrong with it.
        detail: String,
    },
    /// A [`FaultPlan`](crate::wal::FaultPlan) fired: the injected crash that
    /// the deterministic fault-injection harness uses to stop execution at
    /// an exact WAL record boundary.
    InjectedCrash {
        /// Sequence number the crash was injected before.
        record: u64,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Rel(e) => write!(f, "relational: {e}"),
            CoreError::Vdag(e) => write!(f, "vdag: {e}"),
            CoreError::Warehouse(d) => write!(f, "warehouse: {d}"),
            CoreError::Planner(d) => write!(f, "planner: {d}"),
            CoreError::Analysis(r) => {
                write!(f, "analysis: strategy refused\n{}", r.render_text())
            }
            CoreError::Wal(d) => write!(f, "wal: {d}"),
            CoreError::WalCorrupt { record, detail } => {
                write!(f, "wal: corrupt record {record}: {detail}")
            }
            CoreError::InjectedCrash { record } => {
                write!(f, "wal: injected crash before record {record}")
            }
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Rel(e) => Some(e),
            CoreError::Vdag(e) => Some(e),
            _ => None,
        }
    }
}

impl From<RelError> for CoreError {
    fn from(e: RelError) -> Self {
        CoreError::Rel(e)
    }
}

impl From<VdagError> for CoreError {
    fn from(e: VdagError) -> Self {
        CoreError::Vdag(e)
    }
}

/// Convenience alias.
pub type CoreResult<T> = Result<T, CoreError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: CoreError = RelError::UnknownColumn("x".into()).into();
        assert!(e.to_string().contains("relational"));
        let e: CoreError = VdagError::UnknownView("v".into()).into();
        assert!(e.to_string().contains("vdag"));
        assert!(std::error::Error::source(&e).is_some());
        let e = CoreError::Warehouse("bad".into());
        assert!(std::error::Error::source(&e).is_none());
    }
}
