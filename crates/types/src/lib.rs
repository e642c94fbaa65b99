//! # `fi-types` — shared vocabulary for the fault-independence workspace
//!
//! This crate defines the small set of types that every other crate in the
//! workspace speaks: [`VotingPower`] (the paper's abstraction over replica
//! counts, hash rate, and stake) and [`WeightedQuorum`], the one quorum
//! rule over it; identifiers for replicas and clients, discrete simulation
//! time, a pure-Rust SHA-256 [`hash`] module used for configuration
//! measurements and block ids, and the simulation-grade signature scheme
//! in [`crypto`].
//!
//! The paper (*Fault Independence in Blockchain*, DSN'23) models a system as
//! a set of replicas each holding some amount of *voting power* `n_t`; faults
//! are measured in affected voting power, not machine counts. Keeping voting
//! power a newtype over integer "power units" (rather than a float) means
//! that distributions derived from it are exact and experiments are
//! reproducible bit-for-bit.
//!
//! ## Example
//!
//! ```
//! use fi_types::{VotingPower, ReplicaId};
//!
//! let a = VotingPower::new(600_000);
//! let b = VotingPower::new(400_000);
//! let total = a + b;
//! assert_eq!(total.as_units(), 1_000_000);
//! assert!((a.share_of(total) - 0.6).abs() < 1e-12);
//! let id = ReplicaId::new(7);
//! assert_eq!(format!("{id}"), "r7");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod crypto;
pub mod error;
pub mod hash;
pub mod hex;
pub mod ids;
pub mod power;
pub mod time;

pub use codec::{crc32, CodecError, Decode, Encode, Reader};
pub use crypto::{KeyPair, PublicKey, Signature};
pub use error::ParseHexError;
pub use hash::{sha256, Digest, SetDigest};
pub use ids::{ClientId, PoolId, ReplicaId, VulnId};
pub use power::{VotingPower, WeightedQuorum};
pub use time::SimTime;
