//! # `fi-fleet` — the sharded, epoch-based serving layer
//!
//! The paper's pipeline (attested registry → entropy metrics → diverse
//! committee selection) is, as library calls, single-threaded. This crate
//! is the concurrency architecture that serves it at fleet scale: device
//! churn — register, re-attest, rotate, deregister — arrives as batches of
//! [`ChurnOp`]s (`fi_attest`) and is ingested into `N` registry shards
//! keyed by device id, while committee selection and diversity monitoring
//! read from immutable [`EpochSnapshot`]s published at
//! [`try_seal_epoch`](ShardedFleet::try_seal_epoch) barriers. The crate
//! spawns no thread: ingest runs on its caller's, and the per-shard locks
//! are what lets many callers ingest at once (`fi-serve`, also threadless,
//! is one).
//!
//! ## Model
//!
//! * A [`ShardedFleet`] owns `N` [`fi_attest::AttestedRegistry`] shards,
//!   each maintaining its integer measurement buckets with one or two row
//!   updates per op and no float.
//! * [`ShardedFleet::try_ingest_batch`] splits a batch by `device id mod
//!   N` and applies the sub-batches shard after shard. Shards share
//!   nothing; each device's op order is preserved, and that is the only
//!   order the end state depends on.
//! * [`ShardedFleet::try_seal_epoch`] takes a consistent cut across all
//!   shards and publishes a canonical [`EpochSnapshot`]: sorted
//!   measurement buckets, total effective power, an entropy accumulator,
//!   the device roster as a prebuilt committee-selection index, and a
//!   stable content hash.
//!   Sealing is **differential**: each shard accumulates a
//!   [`fi_attest::ChurnDelta`] since the last cut, the cut drains them,
//!   and ordinary epochs merge them into one [`fi_attest::CanonicalDelta`]
//!   and patch the previous snapshot with it in O(churn · log n)
//!   ([`EpochSnapshot::try_apply_delta`]) — bit-identical, entropy
//!   included, to the full rebuild a fresh fleet's first seal performs,
//!   that recovers from a rejected seal, and that a caller can force every
//!   R-th epoch as a reference ([`ShardedFleet::with_reanchor_interval`]).
//! * Readers clone the current `Arc<EpochSnapshot>` off the
//!   [`SnapshotCell`] publication point (one slot, its guard held for the
//!   clone alone) — or, better, hold a per-reader [`SnapshotHandle`]
//!   whose steady-state revalidation is one relaxed atomic load — and run
//!   [`select_greedy`](EpochSnapshot::select_greedy),
//!   [`select_two_tier`](EpochSnapshot::select_two_tier), and monitoring
//!   queries lock-free while ingest continues.
//! * Durable fleets ([`ShardedFleet::open_durable`]) tee every ingested
//!   batch into a write-ahead churn log ([`wal`]), write self-verifying
//!   checkpoints when the caller asks ([`ShardedFleet::checkpoint`],
//!   [`checkpoint`]), and recover after a
//!   crash by restoring the newest checkpoint and replaying the log tail,
//!   with every replayed epoch's content hash asserted against the seal
//!   records the pre-crash process logged ([`recover`]).
//!
//! **Thread-invariance guarantee:** the sealed snapshot — every bucket,
//! the entropy, the roster, the content hash — is bit-identical for any
//! shard count and any thread schedule, and bit-identical to sealing one
//! un-sharded registry that applied the same trace
//! ([`EpochSnapshot::from_registry`]). The differential suite in
//! `tests/fleet_differential.rs` and the committed golden in
//! `tests/goldens/fleet_snapshot.json` (repo root) pin this down.
//!
//! ## Example
//!
//! ```
//! use fi_attest::TwoTierWeights;
//! use fi_fleet::{churn_trace, ChurnTraceConfig, ShardedFleet};
//!
//! let trace = churn_trace(&ChurnTraceConfig::new(500, 1_000));
//! let fleet = ShardedFleet::new(4, TwoTierWeights::default());
//! for batch in trace.chunks(256) {
//!     fleet.try_ingest_batch(batch).unwrap();
//! }
//! let snapshot = fleet.try_seal_epoch().unwrap();
//! let committee = snapshot.select_greedy(32);
//! assert_eq!(committee.len(), 32);
//! // Any other shard count seals the bit-identical snapshot.
//! let oracle = ShardedFleet::new(1, TwoTierWeights::default());
//! oracle.try_ingest_batch(&trace).unwrap();
//! let resealed = oracle.try_seal_epoch().unwrap();
//! assert_eq!(resealed.content_hash(), snapshot.content_hash());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod checkpoint;
pub mod error;
pub mod fleet;
pub mod publish;
pub mod recover;
pub mod snapshot;
pub mod trace;
pub mod wal;

pub use cache::{CacheStats, SelectionCache};
pub use checkpoint::Checkpoint;
pub use error::{
    CheckpointError, FleetConfigError, IngestError, RecoveryError, SealError, WalError,
};
pub use fleet::ShardedFleet;
pub use publish::{SnapshotCell, SnapshotHandle};
pub use recover::{DurabilityConfig, RecoveryReport};
pub use snapshot::EpochSnapshot;
pub use trace::{churn_trace, measurement_pool, ChurnTraceConfig};
pub use wal::{ChurnLog, WalRecord, DEFAULT_SEGMENT_BYTES};

// The ingest vocabulary is fi-attest's; re-export it so fleet users need
// one import.
pub use fi_attest::{CanonicalDelta, ChurnDelta, ChurnOp};
