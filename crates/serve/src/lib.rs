//! # `fi-serve` — the backpressured serving front-end over `fi-fleet`
//!
//! `fi-fleet` seals epochs on caller demand; nothing in it models the
//! paper's deployment shape — millions of attesting devices pushing churn
//! at a service that must keep cutting epochs *under load*. This crate is
//! that service layer:
//!
//! * a **bounded ingress queue** clients submit churn requests into
//!   ([`FleetServer::submit`]), shed with a typed [`Overloaded`] when full
//!   — admission control, never silent drops, never unbounded buffering;
//! * an **edge coalescer** ([`Coalescer`]) that collapses same-device
//!   churn within a flush window (every [`ChurnOp`](fi_attest::ChurnOp)
//!   fully determines the device's post-state, so only the newest op per
//!   device needs to reach a shard);
//! * **one ingest call per flush**: the dispatcher hands each coalesced
//!   window to `ShardedFleet::try_ingest_batch` on its own thread, under
//!   the dispatch lock, and pops the next request only once the window
//!   has applied — the crate spawns no thread, and the ingress bound is
//!   its only queue;
//! * a **tick-driven seal cadence** ([`FleetServer::tick`]): epochs are
//!   cut every `epoch_ticks` under the same dispatch lock, and a fleet that
//!   falls behind its cadence sheds new load ([`Overloaded::SealLag`])
//!   instead of growing an unseable backlog;
//! * **deterministic load scenarios** ([`run_scenario`]): an
//!   `fi-simnet` [`ClientPopulation`](fi_simnet::ClientPopulation) (Zipf
//!   device skew, diurnal load curve) driven in lockstep, producing a
//!   [`ScenarioReport`] whose hash is byte-identical across runs, thread
//!   schedules, and shard counts — proven differentially against direct
//!   `ShardedFleet` ingest of the same admitted trace
//!   ([`direct_ingest_report`]).
//!
//! ## Example
//!
//! ```
//! use fi_serve::{run_scenario, direct_ingest_report, ScenarioConfig};
//!
//! let config = ScenarioConfig::new(400, 150, 20);
//! let outcome = run_scenario(&config, true).expect("in-memory scenario");
//! let trace = outcome.trace.expect("recording was requested");
//!
//! // The serving pipeline is semantically invisible: direct ingest of
//! // the admitted trace seals identical epochs.
//! let oracle = direct_ingest_report(&trace, config.shards).expect("in-memory oracle");
//! assert_eq!(outcome.report.epoch_hashes, oracle.epoch_hashes);
//! assert_eq!(outcome.report.final_hash, oracle.final_hash);
//!
//! // And a different shard count seals the same history.
//! let rerun = run_scenario(&config.clone().with_shards(1), false).expect("rerun");
//! assert_eq!(rerun.report.report_hash(), outcome.report.report_hash());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coalesce;
pub mod queue;
pub mod scenario;
pub mod server;

pub use coalesce::Coalescer;
pub use queue::Bounded;
pub use scenario::{
    direct_ingest_report, run_scenario, scenario_weights, AdmittedTrace, ScenarioConfig,
    ScenarioOutcome, ScenarioReport,
};
pub use server::{FleetServer, Overloaded, ServeConfig, ServeError, ServeStats};
