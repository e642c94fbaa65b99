//! Error types for `fi-config`.

use core::fmt;

use fi_types::ReplicaId;

/// Errors from configuration-space and assignment operations.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// The configuration space has no configurations.
    EmptySpace,
    /// A configuration index was out of range for the space.
    UnknownConfiguration {
        /// The offending index.
        index: usize,
        /// The space size.
        space_size: usize,
    },
    /// A replica id appears twice in an assignment.
    DuplicateReplica {
        /// The duplicated replica.
        replica: ReplicaId,
    },
    /// The assignment has no replicas (or no voting power).
    EmptyAssignment,
    /// A derived distribution was invalid.
    Distribution(fi_entropy::DistributionError),
    /// Generator parameters were invalid (e.g. zero replicas, non-positive
    /// Zipf exponent).
    InvalidParameter {
        /// What was wrong.
        reason: String,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::EmptySpace => write!(f, "configuration space is empty"),
            ConfigError::UnknownConfiguration { index, space_size } => {
                write!(
                    f,
                    "configuration index {index} out of range for space of {space_size}"
                )
            }
            ConfigError::DuplicateReplica { replica } => {
                write!(f, "replica {replica} assigned more than once")
            }
            ConfigError::EmptyAssignment => write!(f, "assignment has no replicas"),
            ConfigError::Distribution(e) => write!(f, "invalid derived distribution: {e}"),
            ConfigError::InvalidParameter { reason } => {
                write!(f, "invalid generator parameter: {reason}")
            }
        }
    }
}

impl std::error::Error for ConfigError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ConfigError::Distribution(e) => Some(e),
            _ => None,
        }
    }
}

impl From<fi_entropy::DistributionError> for ConfigError {
    fn from(e: fi_entropy::DistributionError) -> Self {
        ConfigError::Distribution(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn implements_std_error() {
        fn check<E: std::error::Error + Send + Sync + 'static>() {}
        check::<ConfigError>();
    }

    #[test]
    fn distribution_error_has_source() {
        use std::error::Error;
        let err = ConfigError::from(fi_entropy::DistributionError::Empty);
        assert!(err.source().is_some());
    }

    #[test]
    fn messages() {
        let msg = ConfigError::UnknownConfiguration {
            index: 9,
            space_size: 4,
        }
        .to_string();
        assert!(msg.contains('9') && msg.contains('4'));
    }
}
