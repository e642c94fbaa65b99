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
//!   instead of growing an unseable backlog.
//!
//! The pipeline is semantically invisible: a lockstep load scenario driven
//! through it seals the byte-identical epochs that direct `ShardedFleet`
//! ingest of the admitted requests does, at any shard count
//! (`tests/scenario_determinism.rs`).
//!
//! ## Example
//!
//! ```
//! use std::sync::Arc;
//!
//! use fi_attest::ChurnOp;
//! use fi_fleet::ShardedFleet;
//! use fi_serve::{scenario_weights, FleetServer, ServeConfig};
//! use fi_types::{sha256, ReplicaId, VotingPower};
//!
//! let fleet = Arc::new(ShardedFleet::new(4, scenario_weights()));
//! let server = FleetServer::new(Arc::clone(&fleet), ServeConfig::default());
//! let attest = |id: u64, power: u64| {
//!     let measurement = sha256(format!("cfg-{}", id % 5).as_bytes());
//!     ChurnOp::attest(ReplicaId::new(id), measurement, VotingPower::new(power))
//! };
//! for id in 0..100 {
//!     server.submit(vec![attest(id, 10)]).expect("the ingress bound admits it");
//! }
//! // Device 7 re-attests inside the same window: only its newest op ships.
//! server.submit(vec![attest(7, 20)]).expect("admitted");
//!
//! // Every `epoch_ticks`-th tick flushes the window and cuts an epoch.
//! let sealed = (0..ServeConfig::default().epoch_ticks)
//!     .find_map(|_| server.tick().expect("an in-memory seal"))
//!     .expect("the last tick seals");
//! assert_eq!(sealed.epoch(), 1);
//! assert_eq!(sealed.device_count(), 100);
//! let stats = server.stats();
//! assert_eq!((stats.admitted_ops, stats.coalesced_away), (101, 1));
//!
//! // Direct ingest of the same requests seals the same content.
//! let direct = ShardedFleet::new(1, scenario_weights());
//! let ops: Vec<ChurnOp> = (0..100).map(|id| attest(id, 10)).chain([attest(7, 20)]).collect();
//! direct.try_ingest_batch(&ops).expect("in memory");
//! assert_eq!(direct.try_seal_epoch().unwrap().content_hash(), sealed.content_hash());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coalesce;
pub mod queue;
pub mod server;

pub use coalesce::Coalescer;
pub use queue::Bounded;
pub use server::{FleetServer, Overloaded, ServeConfig, ServeError, ServeStats};

use fi_attest::TwoTierWeights;

/// The tier weights every load scenario and the benchmark run under
/// (two-tier, attested weight double the unattested weight — the
/// representative deployment shape).
#[must_use]
pub fn scenario_weights() -> TwoTierWeights {
    TwoTierWeights::new(1.0, 0.5)
}
