//! # `fault-independence` — the paper's contribution as a library
//!
//! This crate is the facade over the workspace that reproduces *Fault
//! Independence in Blockchain* (Jiangshan Yu, DSN'23, arXiv:2306.05690). It
//! packages the paper's pipeline end to end:
//!
//! 1. **Configuration discovery** — replicas attest their stacks
//!    ([`fi_attest`]); the [`DiversityMonitor`] challenges, verifies, and
//!    records quotes (§III-B, Remark 3).
//! 2. **Diversity quantification** — the monitor derives the voting-power
//!    configuration distribution and reports Shannon entropy, effective
//!    configurations, evenness, min-entropy, and κ-optimality (§IV,
//!    Definition 1).
//! 3. **Resilience analysis** — the [`ResilienceAnalyzer`] combines an
//!    assignment with a vulnerability database and evaluates the safety
//!    condition `f ≥ Σ_i f^i_t` (§II-C), ranks single-product exposures,
//!    and sizes vulnerability windows.
//! 4. **Diversity management** — the [`Recommender`] proposes replica
//!    reconfigurations that raise entropy toward κ-optimal fault
//!    independence (the permissionless analogue of Lazarus, §III-A).
//!
//! The consensus substrates used by the paper's experiments are re-exported:
//! [`fi_bft`] (PBFT under correlated compromise), [`fi_nakamoto`]
//! (Proof-of-Work, pools, double-spend races), and [`fi_committee`]
//! (diversity-enforcing committee selection, §V's two-tier sketch) —
//! plus [`fi_fleet`], the sharded epoch-snapshot serving layer that runs
//! the attestation→selection pipeline concurrently at fleet scale
//! ([`DiversityReport::from_snapshot`] and
//! [`Recommender::plan_for_snapshot`] are its monitoring/management
//! read paths). [`fi_serve`] fronts that fleet with a backpressured
//! request pipeline — bounded ingress, edge coalescing, one ingest call
//! per flush, watermark admission control — plus the
//! deterministic simnet load scenarios that prove the pipeline
//! semantically invisible at million-device scale.
//!
//! ## Quickstart
//!
//! ```
//! use fault_independence::prelude::*;
//!
//! // Build a configuration space and assign 12 replicas round-robin.
//! let space = ConfigurationSpace::cartesian(&[
//!     catalog::operating_systems()[..4].to_vec(),
//!     catalog::crypto_libraries()[..2].to_vec(),
//! ])?;
//! let assignment = Assignment::round_robin(&space, 12, VotingPower::new(100))?;
//!
//! // One critical OS vulnerability, disclosed at t=0, patched at t=1h.
//! let os = &catalog::operating_systems()[0];
//! let mut db = VulnerabilityDb::new();
//! db.add(
//!     Vulnerability::new(
//!         VulnId::new(0),
//!         "CVE-2038-0001",
//!         ComponentSelector::product(os.kind(), os.name()),
//!         Severity::Critical,
//!     )
//!     .with_window(SimTime::ZERO, SimTime::from_secs(3600)),
//! );
//!
//! // Analyze: does the correlated fault stay within f?
//! let analyzer = ResilienceAnalyzer::new(assignment, db);
//! let report = analyzer.analyze_at(SimTime::from_secs(10));
//! assert_eq!(report.active_vulnerabilities, 1);
//! assert!(report.sum_compromised < report.total_power);
//! # Ok::<(), fault_independence::CoreError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analyzer;
pub mod error;
pub mod monitor;
pub mod recommend;
pub mod report;
pub mod rotation;

pub use analyzer::{ResilienceAnalyzer, ResilienceReport};
pub use error::CoreError;
pub use monitor::{DiversityMonitor, DiversityReport};
pub use recommend::{Recommendation, Recommender};
pub use rotation::{RotationEntropyTracker, RotationPlanner, RotationStep};

// Substrate re-exports: downstream users depend on this crate alone.
pub use fi_attest;
pub use fi_bft;
pub use fi_committee;
pub use fi_config;
pub use fi_entropy;
pub use fi_fleet;
pub use fi_nakamoto;
pub use fi_serve;
pub use fi_simnet;
pub use fi_types;

/// Everything a typical user needs, in one import.
pub mod prelude {
    pub use crate::analyzer::{ResilienceAnalyzer, ResilienceReport};
    pub use crate::error::CoreError;
    pub use crate::monitor::{DiversityMonitor, DiversityReport};
    pub use crate::recommend::{Recommendation, Recommender};
    pub use crate::rotation::{RotationEntropyTracker, RotationPlanner, RotationStep};
    pub use fi_attest::prelude::*;
    pub use fi_config::prelude::*;
    pub use fi_entropy::{AbundanceVector, Distribution};
    pub use fi_fleet::{ChurnTraceConfig, EpochSnapshot, ShardedFleet};
    pub use fi_types::{ReplicaId, SimTime, VotingPower, VulnId};
}
