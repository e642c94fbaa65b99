//! # `fi-entropy` — quantifying replica diversity (paper §IV)
//!
//! This crate implements the measurement core of *Fault Independence in
//! Blockchain* (DSN'23):
//!
//! * [`Distribution`] — a validated probability distribution `p = (p_1 … p_k)`
//!   over the replica-configuration space `D = {d_1 … d_k}`;
//! * [`shannon`] — Shannon entropy `H(p) = −Σ p_i log p_i`, evenness, and
//!   effective configuration counts;
//! * [`incremental`] — the [`EntropyAccumulator`]: O(1) add/remove/peek of
//!   power at a configuration bucket via `H = log2 W − S/W`, powering the
//!   selection and monitoring hot paths;
//! * [`renyi`] — the Rényi family (Hartley, collision, min-entropy), which
//!   generalises "how many effectively independent configurations are
//!   there";
//! * [`abundance`] — configuration abundance and *relative* configuration
//!   abundance (§IV-B), the ecology-inspired measures the paper uses to
//!   separate permissioned (count matters) from permissionless (share
//!   matters) systems;
//! * [`optimal`] — Definition 1 (κ-optimal fault independence) and
//!   Definition 2 ((κ,ω)-optimal resilience) as checkable predicates;
//! * [`propositions`] — Propositions 1–3 as executable, numerically checked
//!   statements;
//! * [`metrics`] — complementary decentralization metrics (Nakamoto
//!   coefficient, Gini) over the same distributions;
//! * [`bitcoin`] — the exact Example-1 mining-pool distribution
//!   (2023-02-02) and the Figure-1 curve generator.
//!
//! ## Quickstart
//!
//! ```
//! use fi_entropy::{bitcoin, Distribution};
//!
//! // The paper's Example 1: 17 pools holding 99.13% of Bitcoin's power.
//! let pools = bitcoin::example1_distribution();
//! let h = pools.shannon_entropy();
//! // "the entropy is less than 3" — paper §IV-B.
//! assert!(h < 3.0);
//!
//! // An 8-replica BFT system with unique configurations reaches 3 bits.
//! let bft = Distribution::uniform(8).unwrap();
//! assert!((bft.shannon_entropy() - 3.0).abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod abundance;
pub mod bitcoin;
pub mod dist;
pub mod error;
pub mod incremental;
pub mod metrics;
pub mod optimal;
pub mod propositions;
pub mod renyi;
pub mod shannon;

pub use abundance::{AbundanceVector, RelativeAbundance};
pub use dist::Distribution;
pub use error::DistributionError;
pub use incremental::EntropyAccumulator;
pub use optimal::{KappaOptimality, OptimalResilience};
pub use shannon::{effective_configurations, evenness, max_entropy_bits, shannon_entropy_bits};
