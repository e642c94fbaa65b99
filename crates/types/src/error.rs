//! Error types for `fi-types`.

use core::fmt;

/// Error parsing a hex string.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParseHexError {
    /// The input had an odd number of characters.
    OddLength {
        /// Length of the offending input.
        length: usize,
    },
    /// A character was not a hex digit.
    InvalidChar {
        /// The offending character.
        ch: char,
        /// Its byte index in the input.
        index: usize,
    },
}

impl fmt::Display for ParseHexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseHexError::OddLength { length } => {
                write!(f, "hex string has odd length {length}")
            }
            ParseHexError::InvalidChar { ch, index } => {
                write!(f, "invalid hex character {ch:?} at index {index}")
            }
        }
    }
}

impl std::error::Error for ParseHexError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_error_traits<E: std::error::Error + Send + Sync + 'static>() {}

    #[test]
    fn errors_implement_std_error_send_sync() {
        assert_error_traits::<ParseHexError>();
    }

    #[test]
    fn messages_are_lowercase_and_specific() {
        let msg = ParseHexError::OddLength { length: 3 }.to_string();
        assert!(msg.starts_with("hex string"));
    }
}
