//! # `fi-scenarios` — declarative adversary scenarios and campaign sweeps
//!
//! The paper's core claim — safety holds iff `f ≥ Σ_i f^i_t` under
//! correlated compromise (§II-C) — deserves more than a handful of
//! hand-written integration tests. This crate turns each resilience
//! experiment into data: a [`Scenario`] names a consensus substrate
//! ([`fi_bft`] on [`fi_simnet`], [`fi_nakamoto`] double-spend races, or
//! [`fi_committee`] selection), an adversary model (shared zero-day on a
//! configuration dimension, mining-pool compromise, patch-window
//! exploitation, churn + rotation under attack), and the knobs — replica
//! count, configuration-space shape, spread, fault budget, seed — and the
//! [`run_campaign`] loop sweeps whole grids of them, emitting
//! structured [`ScenarioReport`]s (safety verdict, entropy trajectory via
//! [`fi_entropy::EntropyAccumulator`], violation counts).
//!
//! Every scenario also carries its *expected* verdict, so a campaign is a
//! regression gate: any substrate change that flips a verdict — or drifts
//! any number in the byte-stable JSON rendering — fails against the
//! committed golden summaries.
//!
//! ## Example
//!
//! ```
//! use fi_scenarios::{run_campaign, smoke_grid};
//!
//! let campaign = run_campaign(&smoke_grid());
//! assert_eq!(campaign.len(), 6);
//! assert!(campaign.regressions().is_empty());
//! // Two renders of the same campaign are byte-identical.
//! assert_eq!(campaign.to_json("smoke"), campaign.to_json("smoke"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod report;
pub mod run;
pub mod scenario;

pub use campaign::run_campaign;
pub use report::{CampaignReport, ScenarioReport};
pub use run::run_scenario;
pub use scenario::{
    smoke_grid, standard_grid, Adversary, Dimension, Policy, Scenario, SpaceSpec, Spread, Substrate,
};

/// Convenient glob import.
pub mod prelude {
    pub use crate::campaign::run_campaign;
    pub use crate::report::{CampaignReport, ScenarioReport};
    pub use crate::run::run_scenario;
    pub use crate::scenario::{
        smoke_grid, standard_grid, Adversary, Dimension, Policy, Scenario, SpaceSpec, Spread,
        Substrate,
    };
}
