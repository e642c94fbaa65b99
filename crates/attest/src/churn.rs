//! Churn operations: the registry's mutation vocabulary as *data*.
//!
//! Devices register, re-attest, rotate measurements, and leave in
//! *batches* arriving from many verification frontends. [`ChurnOp`] reifies
//! those mutations so they can be queued, sharded by device id, applied in
//! parallel, logged, and replayed deterministically. It is the registry's
//! only write ([`AttestedRegistry::apply`](crate::AttestedRegistry::apply),
//! [`apply_batch`](crate::AttestedRegistry::apply_batch)), and the end state
//! of a registry depends only on the per-device operation order, never on
//! how ops from *different* devices interleave (each op touches exactly one
//! entry and integer bucket sums commute).
//!
//! Attested registration is **pre-verified**: the quote was checked by a
//! [`Verifier`](crate::Verifier) at the edge, and only its verified
//! measurement travels in the op — see [`ChurnOp::from_verified_quote`].
//! The quote's vote-key binding (Remark 3) is checked there too; nothing
//! downstream carries the key — not the op, the log, the registry or the
//! checkpoint.

use fi_types::{Digest, ReplicaId, VotingPower};

use crate::quote::Quote;

/// One registry mutation, shardable by [`replica`](ChurnOp::replica).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ChurnOp {
    /// Register (or re-register) a replica as attested with an
    /// already-verified measurement: the quote was checked by a
    /// [`Verifier`](crate::Verifier) before the op was built
    /// ([`ChurnOp::from_verified_quote`]).
    Attest {
        /// The device being registered.
        replica: ReplicaId,
        /// The verified configuration measurement.
        measurement: Digest,
        /// Raw registered power.
        power: VotingPower,
    },
    /// Register (or re-register) a replica on the unattested tier.
    Unattested {
        /// The device being registered.
        replica: ReplicaId,
        /// Raw registered power.
        power: VotingPower,
    },
    /// Remove a replica entirely (churn, slashing, voluntary exit).
    Deregister {
        /// The device leaving.
        replica: ReplicaId,
    },
}

impl ChurnOp {
    /// Shorthand for an attested registration ([`ChurnOp::Attest`]).
    #[must_use]
    pub fn attest(replica: ReplicaId, measurement: Digest, power: VotingPower) -> Self {
        ChurnOp::Attest {
            replica,
            measurement,
            power,
        }
    }

    /// Builds an attested-registration op from a quote that a
    /// [`Verifier`](crate::Verifier) already accepted. Only the verified
    /// measurement is carried forward: the quote's vote-key binding
    /// (Remark 3) was checked with the quote, and nothing downstream reads
    /// the key.
    #[must_use]
    pub fn from_verified_quote(replica: ReplicaId, quote: &Quote, power: VotingPower) -> Self {
        ChurnOp::attest(replica, quote.measurement(), power)
    }

    /// The device this op touches — the sharding key.
    #[must_use]
    pub fn replica(&self) -> ReplicaId {
        match *self {
            ChurnOp::Attest { replica, .. }
            | ChurnOp::Unattested { replica, .. }
            | ChurnOp::Deregister { replica } => replica,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{DeviceKind, TrustedDevice};
    use fi_types::{sha256, KeyPair, SimTime};

    #[test]
    fn replica_accessor_covers_all_variants() {
        let r = ReplicaId::new(7);
        let ops = [
            ChurnOp::attest(r, sha256(b"cfg"), VotingPower::new(10)),
            ChurnOp::Unattested {
                replica: r,
                power: VotingPower::new(10),
            },
            ChurnOp::Deregister { replica: r },
        ];
        assert!(ops.iter().all(|op| op.replica() == r));
    }

    #[test]
    fn a_churn_op_is_seven_words() {
        // The largest variant is three u64-aligned fields (replica, the
        // 32-byte measurement, power), and the tag rounds up to a word.
        assert_eq!(std::mem::size_of::<ChurnOp>(), 56);
    }

    #[test]
    fn from_verified_quote_carries_the_verified_measurement() {
        let device = TrustedDevice::new(DeviceKind::Tpm20, 3);
        let aik = device.create_aik("a");
        let key = KeyPair::from_seed(9).public_key();
        let quote = aik.quote(sha256(b"cfg-x"), 1, key, SimTime::ZERO);
        let op = ChurnOp::from_verified_quote(ReplicaId::new(0), &quote, VotingPower::new(5));
        assert_eq!(
            op,
            ChurnOp::attest(ReplicaId::new(0), sha256(b"cfg-x"), VotingPower::new(5))
        );
    }
}
