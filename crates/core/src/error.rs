//! Operation outcomes.

use std::fmt;

use crate::quorum::QuorumError;

/// What kind of suite operation ran.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum OpKind {
    /// Quorum read.
    Read,
    /// Quorum write.
    Write,
    /// Configuration change (vote/quorum update through the old quorum).
    Reconfigure,
    /// Multi-suite atomic transaction (all writes commit or none).
    Transaction,
}

/// Why a suite operation failed.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum OpError {
    /// Too few representatives reachable to assemble the required quorum
    /// within the timeout — the paper's "blocked" outcome.
    Unavailable {
        /// Which quorum could not be assembled.
        kind: OpKind,
    },
    /// The operation lost repeatedly to concurrent writers (every attempt
    /// was killed by lock conflict or version race).
    Conflict,
    /// The outcome is unknown: the write may be durable, and the caller
    /// must not assume either way. [`crate::client::ClientNode`] never
    /// reports it, since a mutation completes at its durable commit
    /// decision; history checkers still classify an operation with no
    /// known outcome this way.
    Indeterminate,
    /// The requested configuration is illegal.
    IllegalConfig(QuorumError),
    /// The client does not know the suite.
    UnknownSuite,
}

impl fmt::Display for OpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OpError::Unavailable { kind } => write!(f, "{kind:?} quorum unavailable"),
            OpError::Conflict => write!(f, "lost to concurrent writers after all retries"),
            OpError::Indeterminate => write!(f, "commit decision reached but not fully acked"),
            OpError::IllegalConfig(e) => write!(f, "illegal configuration: {e}"),
            OpError::UnknownSuite => write!(f, "unknown suite"),
        }
    }
}

impl std::error::Error for OpError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(OpError::Unavailable { kind: OpKind::Read }
            .to_string()
            .contains("Read"));
        assert!(OpError::Conflict.to_string().contains("concurrent"));
        assert!(OpError::Indeterminate
            .to_string()
            .contains("not fully acked"));
        assert!(OpError::UnknownSuite.to_string().contains("unknown"));
        let e = OpError::IllegalConfig(QuorumError::NoIntersection { total: 3 });
        assert!(e.to_string().contains("exceed total votes"));
    }
}
