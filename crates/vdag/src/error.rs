//! Error types for the VDAG model.

use crate::diag::Rule;
use std::fmt;

/// Errors raised by VDAG construction and strategy validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VdagError {
    /// A view name was registered twice.
    DuplicateView(String),
    /// A view reference did not resolve.
    UnknownView(String),
    /// A structurally invalid VDAG operation.
    Malformed(String),
    /// A strategy violated one of the paper's correctness conditions: the
    /// checker's first diagnostic.
    Incorrect {
        /// The violated rule; [`Rule::condition`] names the condition
        /// (C1..C8).
        rule: Rule,
        /// Human-readable explanation.
        detail: String,
    },
    /// An expression graph was cyclic where an acyclic one was required.
    CyclicExpressionGraph,
}

impl fmt::Display for VdagError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VdagError::DuplicateView(n) => write!(f, "duplicate view name: {n}"),
            VdagError::UnknownView(n) => write!(f, "unknown view: {n}"),
            VdagError::Malformed(d) => write!(f, "malformed VDAG: {d}"),
            VdagError::Incorrect { rule, detail } => {
                write!(
                    f,
                    "strategy violates {} ({rule}): {detail}",
                    rule.condition()
                )
            }
            VdagError::CyclicExpressionGraph => write!(f, "expression graph is cyclic"),
        }
    }
}

impl std::error::Error for VdagError {}

/// Convenience alias.
pub type VdagResult<T> = Result<T, VdagError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        let e = VdagError::Incorrect {
            rule: Rule::InstallOrder,
            detail: "x".into(),
        };
        assert_eq!(
            e.to_string(),
            "strategy violates C4 (UWW007 install-order): x"
        );
    }
}
