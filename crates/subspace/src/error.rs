//! Error types for the subspace method.

use std::fmt;

/// Errors produced by `odflow-subspace` operations.
#[derive(Debug, Clone, PartialEq)]
pub enum SubspaceError {
    /// The data matrix is too small for the requested model.
    InsufficientData {
        /// Timebins available.
        n: usize,
        /// OD pairs available.
        p: usize,
        /// Human-readable requirement.
        need: &'static str,
    },
    /// The normal-subspace dimension is infeasible.
    BadSubspaceDim {
        /// Requested k.
        k: usize,
        /// Number of OD pairs (k must be < p).
        p: usize,
    },
    /// A statistic threshold could not be computed (a false-alarm rate
    /// outside `(0, 1)`, no degrees of freedom, a quantile that did not
    /// converge).
    Threshold {
        /// What was wrong.
        reason: String,
    },
    /// Linear algebra failed (degenerate covariance, non-finite data).
    Numeric {
        /// The underlying linalg error, stringified.
        reason: String,
    },
    /// An observation vector had the wrong dimension.
    DimensionMismatch {
        /// Expected OD count.
        expected: usize,
        /// Provided length.
        got: usize,
    },
    /// Identification could not bring the statistic under threshold.
    IdentificationFailed {
        /// The timebin being explained.
        bin: usize,
    },
}

impl fmt::Display for SubspaceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubspaceError::InsufficientData { n, p, need } => {
                write!(f, "insufficient data (n={n}, p={p}): {need}")
            }
            SubspaceError::BadSubspaceDim { k, p } => {
                write!(f, "normal subspace dimension k={k} infeasible for p={p} OD pairs")
            }
            SubspaceError::Threshold { reason } => {
                write!(f, "threshold computation failed: {reason}")
            }
            SubspaceError::Numeric { reason } => write!(f, "numeric failure: {reason}"),
            SubspaceError::DimensionMismatch { expected, got } => {
                write!(f, "observation has {got} entries, model expects {expected}")
            }
            SubspaceError::IdentificationFailed { bin } => {
                write!(f, "could not identify responsible OD flows at bin {bin}")
            }
        }
    }
}

impl std::error::Error for SubspaceError {}

impl From<odflow_linalg::LinalgError> for SubspaceError {
    fn from(e: odflow_linalg::LinalgError) -> Self {
        SubspaceError::Numeric { reason: e.to_string() }
    }
}

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, SubspaceError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(SubspaceError::InsufficientData { n: 1, p: 2, need: "n > p" }
            .to_string()
            .contains("n=1"));
        assert!(SubspaceError::BadSubspaceDim { k: 9, p: 4 }.to_string().contains("k=9"));
        assert!(SubspaceError::Threshold { reason: "x".into() }.to_string().contains('x'));
        assert!(SubspaceError::DimensionMismatch { expected: 121, got: 3 }
            .to_string()
            .contains("121"));
        assert!(SubspaceError::IdentificationFailed { bin: 7 }.to_string().contains("bin 7"));
    }

    #[test]
    fn conversions() {
        let le = odflow_linalg::LinalgError::Empty { op: "scatter" };
        let se: SubspaceError = le.into();
        assert!(matches!(se, SubspaceError::Numeric { .. }));
    }
}
