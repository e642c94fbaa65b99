//! # `fi-attest` — configuration discovery via remote attestation (paper §III-B)
//!
//! "We consider the use of remote attestation to discover the configuration
//! of a replica. The three main components of a replica … can be attested by
//! using remote attestation through trusted computing."
//!
//! This crate simulates the trusted-computing stack end to end:
//!
//! * [`device`] — a [`TrustedDevice`] (TPM 2.0, SGX, TrustZone, PSP, SSC)
//!   with an endorsement key and derived attestation identity keys (AIKs);
//! * [`quote`] — a [`Quote`] over a configuration measurement, carrying a
//!   nonce (freshness), a timestamp, and — per the paper's **Remark 3** —
//!   the replica's *vote key*, so a vote can be proven to originate from a
//!   replica with the attested configuration;
//! * [`verifier`] — an [`AttestationPolicy`] (accepted measurements,
//!   allowed device kinds, maximum quote age, AIK revocation) and the
//!   [`Verifier`] that issues challenge nonces and checks the quotes
//!   answering them against it and a set of trusted endorsement roots;
//! * [`commitment`] — salted configuration commitments for the privacy
//!   concern of Remark 3 ("the privacy of replica configuration should also
//!   be protected, as otherwise it provides attackers a clear target");
//! * [`churn`] — the [`ChurnOp`] that carries a verified quote's facts,
//!   and every other registry mutation, as data;
//! * [`registry`] — the [`AttestedRegistry`], the write side of the
//!   serving layer, written only by churn ops: verified measurements per
//!   replica under the two-tier weighting of the paper's conclusion
//!   ("having two types of replicas, one supporting configuration
//!   attestation and one does not, will help to improve blockchain
//!   resilience"), kept as integer power buckets per measurement for a
//!   seal to read. It answers no diversity query: the
//!   configuration entropy and distribution are read from an epoch
//!   snapshot `fi-fleet` seals from it;
//! * [`delta`] — the [`ChurnDelta`] the registry accumulates alongside its
//!   incremental buckets: the net churn since the last epoch cut, drained
//!   by `fi-fleet`'s differential sealer, merged once into a
//!   [`CanonicalDelta`], and used to patch epoch snapshots in O(churn)
//!   instead of rebuilding them.
//!
//! The devices here are *simulated* (DESIGN.md §3): the paper uses
//! attestation purely as an unforgeable configuration oracle, which the
//! keyed-digest quotes provide within the simulation.
//!
//! ## Example
//!
//! ```
//! use fi_attest::prelude::*;
//! use fi_types::{KeyPair, SimTime};
//!
//! // A replica with an SGX device attests its configuration measurement.
//! let device = TrustedDevice::new(DeviceKind::IntelSgx, 7);
//! let aik = device.create_aik("aik-0");
//! let vote_key = KeyPair::from_seed(99);
//! let measurement = fi_types::sha256(b"my-config");
//! let quote = aik.quote(measurement, 1234, vote_key.public_key(), SimTime::from_secs(5));
//!
//! // The verifier trusts the device vendor and the measurement.
//! let policy = AttestationPolicy::builder()
//!     .accept_measurement(measurement)
//!     .allow_device(DeviceKind::IntelSgx)
//!     .max_age(SimTime::from_secs(60))
//!     .build();
//! let mut verifier = Verifier::new(policy);
//! verifier.trust_endorsement(device.endorsement_key());
//! assert!(verifier
//!     .verify(&quote, SimTime::from_secs(10), Some(1234))
//!     .is_ok());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod churn;
pub mod codec;
pub mod commitment;
pub mod delta;
pub mod device;
pub mod error;
pub mod quote;
pub mod registry;
pub mod verifier;

pub use churn::ChurnOp;
pub use commitment::ConfigCommitment;
pub use delta::{AfterRow, BucketDelta, CanonicalDelta, ChurnDelta, RosterChange, TouchedRow};
pub use device::{AttestationKey, DeviceKind, TrustedDevice};
pub use error::AttestError;
pub use quote::Quote;
pub use registry::{
    device_row_digest, AttestedRegistry, RegisteredDevice, ReplicaTier, TwoTierWeights,
};
pub use verifier::{AttestationPolicy, Verifier};

/// Convenient glob import.
pub mod prelude {
    pub use crate::churn::ChurnOp;
    pub use crate::commitment::ConfigCommitment;
    pub use crate::delta::{
        AfterRow, BucketDelta, CanonicalDelta, ChurnDelta, RosterChange, TouchedRow,
    };
    pub use crate::device::{AttestationKey, DeviceKind, TrustedDevice};
    pub use crate::error::AttestError;
    pub use crate::quote::Quote;
    pub use crate::registry::{AttestedRegistry, RegisteredDevice, ReplicaTier, TwoTierWeights};
    pub use crate::verifier::{AttestationPolicy, Verifier};
}
