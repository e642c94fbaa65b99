//! Configuration privacy: salted commitments (paper Remark 3).
//!
//! "The privacy of replica configuration should also be protected, as
//! otherwise it provides attackers a clear target when new vulnerabilities
//! are exposed." A replica can publish `commit = H(salt ‖ measurement)` and
//! reveal the measurement only to an auditor (e.g. a diversity manager)
//! that it trusts, proving consistency by opening the commitment.

use fi_types::hash::hash_fields;
use fi_types::Digest;

use crate::error::AttestError;

/// A hiding, binding commitment to a configuration measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConfigCommitment {
    digest: Digest,
}

impl ConfigCommitment {
    /// Commits to `measurement` under `salt`. The salt must be chosen
    /// uniformly at random by the committer and kept secret until opening.
    #[must_use]
    pub fn commit(measurement: Digest, salt: u64) -> Self {
        ConfigCommitment {
            digest: hash_fields(&[
                b"fi-config-commit-v1",
                &salt.to_be_bytes(),
                measurement.as_bytes(),
            ]),
        }
    }

    /// The public commitment value.
    #[must_use]
    pub fn digest(&self) -> Digest {
        self.digest
    }

    /// Verifies an opening `(measurement, salt)` against the commitment.
    ///
    /// # Errors
    ///
    /// Returns [`AttestError::CommitmentMismatch`] if the opening does not
    /// reproduce the commitment.
    pub fn open(&self, measurement: Digest, salt: u64) -> Result<(), AttestError> {
        if Self::commit(measurement, salt) == *self {
            Ok(())
        } else {
            Err(AttestError::CommitmentMismatch)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fi_types::sha256;

    #[test]
    fn commit_open_round_trip() {
        let m = sha256(b"stack");
        let c = ConfigCommitment::commit(m, 12345);
        assert!(c.open(m, 12345).is_ok());
    }

    #[test]
    fn wrong_salt_rejected() {
        let m = sha256(b"stack");
        let c = ConfigCommitment::commit(m, 1);
        assert_eq!(c.open(m, 2), Err(AttestError::CommitmentMismatch));
    }

    #[test]
    fn wrong_measurement_rejected() {
        let c = ConfigCommitment::commit(sha256(b"a"), 1);
        assert_eq!(
            c.open(sha256(b"b"), 1),
            Err(AttestError::CommitmentMismatch)
        );
    }

    #[test]
    fn commitment_hides_measurement() {
        // Same measurement, different salts: unlinkable commitments.
        let m = sha256(b"stack");
        let c1 = ConfigCommitment::commit(m, 1);
        let c2 = ConfigCommitment::commit(m, 2);
        assert_ne!(c1.digest(), c2.digest());
    }

    #[test]
    fn commitment_binds_measurement() {
        // Different measurements, same salt: distinct commitments.
        let c1 = ConfigCommitment::commit(sha256(b"a"), 9);
        let c2 = ConfigCommitment::commit(sha256(b"b"), 9);
        assert_ne!(c1, c2);
    }
}
