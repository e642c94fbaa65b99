//! Error types for `fi-attest`.

use core::fmt;

use fi_types::SimTime;

/// Why a quote was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttestError {
    /// The AIK certificate was not signed by a trusted endorsement key.
    UntrustedEndorsement,
    /// The quote signature did not verify under the quoted AIK.
    BadSignature,
    /// The AIK has been revoked.
    RevokedKey,
    /// The device kind is not allowed by policy.
    DeviceNotAllowed,
    /// The measurement is not in the policy's accepted set.
    MeasurementNotAccepted,
    /// The quote is older than the policy's maximum age.
    StaleQuote {
        /// Quote timestamp.
        quoted_at: SimTime,
        /// Verification time.
        now: SimTime,
        /// Allowed age.
        max_age: SimTime,
    },
    /// The nonce did not match the challenge.
    NonceMismatch {
        /// Expected challenge nonce.
        expected: u64,
        /// Nonce in the quote.
        actual: u64,
    },
    /// The quote's timestamp lies in the verifier's future.
    FutureQuote,
    /// A commitment opening did not match.
    CommitmentMismatch,
}

impl fmt::Display for AttestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttestError::UntrustedEndorsement => {
                write!(f, "attestation key not certified by a trusted endorsement")
            }
            AttestError::BadSignature => write!(f, "quote signature invalid"),
            AttestError::RevokedKey => write!(f, "attestation key revoked"),
            AttestError::DeviceNotAllowed => write!(f, "device kind not allowed by policy"),
            AttestError::MeasurementNotAccepted => {
                write!(f, "measurement not in accepted set")
            }
            AttestError::StaleQuote {
                quoted_at,
                now,
                max_age,
            } => write!(
                f,
                "quote from {quoted_at} too old at {now} (max age {max_age})"
            ),
            AttestError::NonceMismatch { expected, actual } => {
                write!(f, "nonce mismatch: expected {expected}, got {actual}")
            }
            AttestError::FutureQuote => write!(f, "quote timestamp is in the future"),
            AttestError::CommitmentMismatch => write!(f, "commitment opening does not match"),
        }
    }
}

impl std::error::Error for AttestError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn implements_std_error() {
        fn check<E: std::error::Error + Send + Sync + 'static>() {}
        check::<AttestError>();
    }

    #[test]
    fn stale_quote_message_contains_times() {
        let msg = AttestError::StaleQuote {
            quoted_at: SimTime::from_secs(1),
            now: SimTime::from_secs(100),
            max_age: SimTime::from_secs(10),
        }
        .to_string();
        assert!(msg.contains("1.000s") && msg.contains("100.000s"));
    }
}
