//! The facade's error type: a sum over the workspace error types.

use core::fmt;

/// Any error the facade can surface.
#[derive(Debug)]
pub enum CoreError {
    /// Distribution/entropy failure.
    Entropy(fi_entropy::DistributionError),
    /// Configuration-model failure.
    Config(fi_config::ConfigError),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Entropy(e) => write!(f, "entropy error: {e}"),
            CoreError::Config(e) => write!(f, "configuration error: {e}"),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Entropy(e) => Some(e),
            CoreError::Config(e) => Some(e),
        }
    }
}

impl From<fi_entropy::DistributionError> for CoreError {
    fn from(e: fi_entropy::DistributionError) -> Self {
        CoreError::Entropy(e)
    }
}

impl From<fi_config::ConfigError> for CoreError {
    fn from(e: fi_config::ConfigError) -> Self {
        CoreError::Config(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error;

    #[test]
    fn wraps_all_sources() {
        let e: CoreError = fi_entropy::DistributionError::Empty.into();
        assert!(e.source().is_some());
        assert!(e.to_string().contains("entropy"));
        let e: CoreError = fi_config::ConfigError::EmptySpace.into();
        assert!(e.to_string().contains("configuration"));
    }

    #[test]
    fn implements_std_error() {
        fn check<E: std::error::Error + Send + Sync + 'static>() {}
        check::<CoreError>();
    }
}
