//! Error types for the analysis crate.

use std::error::Error;
use std::fmt;

/// Errors reported by the yield/quality analyses.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum AnalysisError {
    /// A configuration parameter is invalid.
    InvalidParameter {
        /// Human-readable description of the problem.
        reason: String,
    },
    /// A distribution or CDF was queried before any sample was added.
    EmptyDistribution,
    /// An underlying memory operation failed.
    Memory(faultmit_memsim::MemError),
    /// An underlying bit-shuffling operation failed.
    Core(faultmit_core::CoreError),
}

impl fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalysisError::InvalidParameter { reason } => {
                write!(f, "invalid analysis parameter: {reason}")
            }
            AnalysisError::EmptyDistribution => {
                write!(f, "the distribution has no samples")
            }
            AnalysisError::Memory(e) => write!(f, "memory error: {e}"),
            AnalysisError::Core(e) => write!(f, "bit-shuffling error: {e}"),
        }
    }
}

impl Error for AnalysisError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            AnalysisError::Memory(e) => Some(e),
            AnalysisError::Core(e) => Some(e),
            _ => None,
        }
    }
}

impl From<faultmit_memsim::MemError> for AnalysisError {
    fn from(value: faultmit_memsim::MemError) -> Self {
        AnalysisError::Memory(value)
    }
}

impl From<faultmit_core::CoreError> for AnalysisError {
    fn from(value: faultmit_core::CoreError) -> Self {
        AnalysisError::Core(value)
    }
}

impl From<faultmit_sim::SimError> for AnalysisError {
    fn from(value: faultmit_sim::SimError) -> Self {
        match value {
            faultmit_sim::SimError::InvalidParameter { reason } => {
                AnalysisError::InvalidParameter { reason }
            }
            faultmit_sim::SimError::Memory(e) => AnalysisError::Memory(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let err = AnalysisError::InvalidParameter {
            reason: "negative runs".to_owned(),
        };
        assert!(err.to_string().contains("negative runs"));
        assert!(Error::source(&err).is_none());

        let err = AnalysisError::from(faultmit_memsim::MemError::InvalidProbability { value: 2.0 });
        assert!(Error::source(&err).is_some());

        let err = AnalysisError::from(faultmit_core::CoreError::InvalidGeometry {
            reason: "x".to_owned(),
        });
        assert!(Error::source(&err).is_some());
        assert!(AnalysisError::EmptyDistribution
            .to_string()
            .contains("no samples"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<AnalysisError>();
    }
}
