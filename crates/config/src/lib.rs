//! # `fi-config` — the replica configuration model (paper §III)
//!
//! A replica is "a machine running a stack of software, where system
//! software (i.e., operating systems) manages machine hardware and supports
//! application software (such as implementations of blockchains)" (§II-A).
//! This crate models that stack:
//!
//! * [`component`] — the taxonomy of configurable layers the paper names:
//!   trusted hardware, operating system, cryptographic library, consensus
//!   module, key management (wallets), mining software — plus a catalog of
//!   named COTS alternatives per layer;
//! * [`configuration`] — a [`Configuration`] is one concrete choice per
//!   layer, with a deterministic *measurement* digest (what remote
//!   attestation attests, §III-B);
//! * [`space`] — the configuration space `D = {d_1, …, d_k}` of §IV-A;
//! * [`generator`] — assignments of configurations and voting power to
//!   replicas (uniform, Zipf-skewed, monoculture, delegated-pool shapes);
//! * [`vulnerability`] — the `k_t` diverse vulnerabilities of §II-B, each
//!   targeting a component and carrying a disclosure→patch window
//!   (CVE-2017-18350 style, §I);
//! * [`window`] — patch-rollout modelling and exposure curves;
//! * [`closure`] — the correlated-fault closure over per-configuration
//!   rows: which voting power `f^i_t` a vulnerability compromises, the
//!   safety condition `f ≥ Σ_i f^i_t` (§II-C), and the single-product
//!   exposure ranking.
//!
//! ## Example
//!
//! ```
//! use fi_config::prelude::*;
//!
//! // Build a small space of diverse configurations.
//! let space = ConfigurationSpace::cartesian(&[
//!     catalog::operating_systems()[..2].to_vec(),
//!     catalog::crypto_libraries()[..2].to_vec(),
//! ])?;
//! assert_eq!(space.len(), 4);
//!
//! // Assign 8 replicas round-robin with equal power.
//! let assignment = Assignment::round_robin(&space, 8, VotingPower::new(100))?;
//! assert_eq!(assignment.distribution()?.support_size(), 4);
//!
//! // One vulnerability in one OS compromises exactly the replicas using it.
//! let os = &catalog::operating_systems()[0];
//! let mut db = VulnerabilityDb::new();
//! db.add(Vulnerability::new(VulnId::new(0), "CVE-X", ComponentSelector::product(os.kind(), os.name()))
//!     .with_window(SimTime::ZERO, SimTime::from_secs(3600)));
//! let rows = space.iter().map(Some).zip(assignment.power_by_config());
//! let summary = fault_summary(rows, &db, SimTime::from_secs(10));
//! assert_eq!(summary.sum_power(), VotingPower::new(400));
//! # Ok::<(), fi_config::ConfigError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod closure;
pub mod component;
pub mod configuration;
pub mod error;
pub mod generator;
pub mod space;
pub mod vulnerability;
pub mod window;

pub use closure::{fault_summary, FaultSummary};
pub use component::{catalog, Component, ComponentKind};
pub use configuration::{Configuration, ConfigurationBuilder};
pub use error::ConfigError;
pub use generator::Assignment;
pub use space::ConfigurationSpace;
pub use vulnerability::{ComponentSelector, Vulnerability, VulnerabilityDb};

/// Convenient glob import for examples and tests.
pub mod prelude {
    pub use crate::closure::fault_summary;
    pub use crate::component::{catalog, Component, ComponentKind};
    pub use crate::configuration::{Configuration, ConfigurationBuilder};
    pub use crate::error::ConfigError;
    pub use crate::generator::Assignment;
    pub use crate::space::ConfigurationSpace;
    pub use crate::vulnerability::{ComponentSelector, Vulnerability, VulnerabilityDb};
    pub use crate::window::PatchRollout;
    pub use fi_types::{ReplicaId, SimTime, VotingPower, VulnId};
}
