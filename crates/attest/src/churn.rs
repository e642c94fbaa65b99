//! Churn operations: the registry's mutation vocabulary as *data*.
//!
//! A production-scale monitor does not call [`crate::AttestedRegistry`] methods
//! one replica at a time from one thread — devices register, re-attest,
//! rotate measurements, and leave in *batches* arriving from many
//! verification frontends. [`ChurnOp`] reifies those mutations so they can
//! be queued, sharded by device id, applied in parallel, logged, and
//! replayed deterministically: the end state of a registry depends only on
//! the per-device operation order, never on how ops from *different*
//! devices interleave (each op touches exactly one entry and integer
//! bucket sums commute).
//!
//! Attested registration through this path is **pre-verified**: the quote
//! was checked by a [`Verifier`](crate::Verifier) at the edge and only its
//! verified facts (measurement, optional vote-key binding) travel in the
//! op — see [`ChurnOp::from_verified_quote`].

use fi_types::{Digest, PublicKey, ReplicaId, VotingPower};

use crate::quote::Quote;

/// One registry mutation, shardable by [`replica`](ChurnOp::replica).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ChurnOp {
    /// Register (or re-register) a replica as attested with an
    /// already-verified measurement. Mirrors
    /// [`AttestedRegistry::register_attested`](crate::AttestedRegistry::register_attested)
    /// minus the verification, which happened at the edge.
    Attest {
        /// The device being registered.
        replica: ReplicaId,
        /// The verified configuration measurement.
        measurement: Digest,
        /// The vote key the quote bound (Remark 3), if one was carried.
        vote_key: Option<PublicKey>,
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
    /// Shorthand for an attested registration without a vote-key binding.
    #[must_use]
    pub fn attest(replica: ReplicaId, measurement: Digest, power: VotingPower) -> Self {
        ChurnOp::Attest {
            replica,
            measurement,
            vote_key: None,
            power,
        }
    }

    /// Builds an attested-registration op from a quote that a
    /// [`Verifier`](crate::Verifier) already accepted, carrying the
    /// verified measurement and the Remark-3 vote-key binding forward.
    #[must_use]
    pub fn from_verified_quote(replica: ReplicaId, quote: &Quote, power: VotingPower) -> Self {
        ChurnOp::Attest {
            replica,
            measurement: quote.measurement(),
            vote_key: Some(quote.vote_key()),
            power,
        }
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
    fn from_verified_quote_carries_measurement_and_vote_key() {
        let device = TrustedDevice::new(DeviceKind::Tpm20, 3);
        let aik = device.create_aik("a");
        let vote_key = KeyPair::from_seed(9).public_key();
        let quote = aik.quote(sha256(b"cfg-x"), 1, vote_key, SimTime::ZERO);
        let op = ChurnOp::from_verified_quote(ReplicaId::new(0), &quote, VotingPower::new(5));
        match op {
            ChurnOp::Attest {
                measurement,
                vote_key: bound,
                power,
                ..
            } => {
                assert_eq!(measurement, sha256(b"cfg-x"));
                assert_eq!(bound, Some(vote_key));
                assert_eq!(power, VotingPower::new(5));
            }
            _ => panic!("expected an Attest op"),
        }
    }
}
