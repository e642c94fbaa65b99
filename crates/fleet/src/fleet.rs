//! The sharded write side: churn ingest and the epoch barrier.
//!
//! A [`ShardedFleet`] owns `N` [`AttestedRegistry`] shards, each behind its
//! own mutex. Devices are assigned to shards by id, so a batch of
//! [`ChurnOp`]s splits into `N` independent sub-batches — shards share no
//! state, and since every op touches exactly one device (and integer bucket
//! sums commute across devices), the fleet's end state depends only on each
//! device's own op order, which sharding preserves. That is the
//! thread-count-invariance guarantee the differential suite pins down:
//! **any** shard count in any thread schedule seals to a bit-identical
//! [`EpochSnapshot`].
//!
//! The fleet spawns no thread, and neither does `fi-serve` above it. Every
//! call runs on its caller's thread:
//! [`try_ingest_batch`](ShardedFleet::try_ingest_batch) — the one
//! production ingest path, which `fi-serve` calls once per flush — logs,
//! routes and applies a batch shard after shard under one hold of the
//! batch gate, and the shard mutexes are what lets several callers do so
//! at once. Its three steps are also public one by one
//! ([`log_batch`](ShardedFleet::log_batch),
//! [`split_by_shard`](ShardedFleet::split_by_shard),
//! [`apply_shard_batch`](ShardedFleet::apply_shard_batch)), only as
//! measurement and test seams: the benchmark's stage replay times each of
//! them, and the differential suite pins their composition to
//! `try_ingest_batch`.
//!
//! [`try_seal_epoch`](ShardedFleet::try_seal_epoch) is the write→read
//! barrier, and it is **differential**: each shard accumulates a
//! [`ChurnDelta`] of the net churn since the last
//! cut, so sealing an epoch that saw little churn drains the deltas, merges
//! them into a [`CanonicalDelta`] — O(churn) — and patches the
//! previous snapshot with it ([`EpochSnapshot::try_apply_delta`]) instead
//! of re-merging every shard. A touched device's delta row is 24 bytes —
//! id, raw power and the bucket handle it holds now, named against the
//! handle table its shard copies at the drain — kept beside the full row
//! it held at the last cut, so the patch stages what leaves and what
//! arrives from the delta alone, reads each shard's rows where they lie
//! (the merge moves them, it writes no merged roster), and writes the
//! snapshot's one per-device table, the selection index, once.
//! A full rebuild (`EpochSnapshot::build` over a complete shard merge)
//! happens whenever the published snapshot lacks shard content: a fresh
//! fleet's first seal and the seal after a rejected or dead one, never the
//! seal after a checkpoint restore. A caller can also force one every `R`
//! seals ([`ShardedFleet::with_reanchor_interval`]) as a reference to
//! compare against or to time. Both paths produce the bit-identical snapshot —
//! buckets, rosters, content hash, entropy accumulator. Neither
//! hashes a roster row: each shard's registry hashes a row when it writes
//! it, so the differential seal adds the drained deltas' net row-digest
//! change and the full rebuild adds up the shards' running aggregates (see
//! [`crate::snapshot`]).
//!
//! A seal has one owner. It takes the seal mutex and holds it through four
//! phases: **cut** (wait out in-flight batches behind the batch gate, which
//! makes whole batches atomic with respect to the cut even when their
//! sub-batches touch different shards; lock all shards; append the cut
//! marker, unsynced; drain the deltas — one `mem::take` a shard, nothing
//! merged or sorted — or copy the full rows on re-anchor epochs), **build**
//! (with the gate and the shard guards already dropped, so neither
//! canonicalising the deltas nor a slow rebuild stalls ingest), **record +
//! fsync** (on a durable fleet, the seal record and the epoch's one fsync,
//! which covers its batches, its cut and its record) and **publish**.
//! Concurrent callers serialise on that mutex, and the epoch is committed
//! at publication, the seal's last step, so a seal that fails or panics —
//! its fsync included — leaves no hole: the next seal takes the same epoch
//! number and rebuilds from the authoritative shards. A seal writes no
//! checkpoint: [`checkpoint`](ShardedFleet::checkpoint) does, from the
//! published snapshot, under its own mutex, at the caller's cadence.
//!
//! Publication lands in the
//! [`SnapshotCell`] (see [`crate::publish`]): readers clone the current
//! `Arc<EpochSnapshot>` under a guard held for that clone alone — never
//! across a seal's construction — per-reader [`SnapshotHandle`]s serve
//! steady-state monitoring queries without touching a shared cache line at
//! all, and every query then runs entirely lock-free on the immutable
//! snapshot while ingest continues on the shards.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock};

use fi_attest::{
    AttestedRegistry, CanonicalDelta, ChurnDelta, ChurnOp, RegisteredDevice, TwoTierWeights,
};
use fi_types::hash::SetDigest;
use fi_types::{Digest, ReplicaId, VotingPower};

use crate::cache::SelectionCache;
use crate::checkpoint::{self, Checkpoint};
use crate::error::{CheckpointError, IngestError, SealError};
use crate::publish::{SnapshotCell, SnapshotHandle};
use crate::snapshot::{roster_aggregate, EpochSnapshot};
use crate::wal::{ChurnLog, WalRecord};

/// One shard's bucket rows, opaque power and the roster's write-time
/// row-digest aggregate, as copied at a re-anchor cut.
type ShardRows = (Vec<(Digest, VotingPower)>, VotingPower, SetDigest);

/// What the epoch cut captured for one seal under the batch gate and the
/// shard guards, built into a snapshot after they are dropped.
enum SealWork {
    /// Re-anchor epochs: a complete copy of every shard's rows, the
    /// shards' device rows copied into one table.
    Full {
        per_shard: Vec<ShardRows>,
        devices: Vec<RegisteredDevice>,
    },
    /// Ordinary epochs: each shard's churn delta since the last cut, as
    /// drained — merged after the cut.
    Differential(Vec<ChurnDelta>),
}

/// A sharded, epoch-based fleet of attested devices.
///
/// # Example
///
/// ```
/// use fi_attest::{ChurnOp, TwoTierWeights};
/// use fi_fleet::ShardedFleet;
/// use fi_types::{sha256, ReplicaId, VotingPower};
///
/// let fleet = ShardedFleet::new(4, TwoTierWeights::flat());
/// let ops: Vec<ChurnOp> = (0..16u64)
///     .map(|i| ChurnOp::attest(
///         ReplicaId::new(i),
///         sha256(format!("cfg-{}", i % 4).as_bytes()),
///         VotingPower::new(100),
///     ))
///     .collect();
/// fleet.try_ingest_batch(&ops).unwrap();
/// let snapshot = fleet.try_seal_epoch().unwrap();
/// assert_eq!(snapshot.epoch(), 1);
/// assert_eq!(snapshot.device_count(), 16);
/// assert!((snapshot.entropy_bits(false)? - 2.0).abs() < 1e-12);
/// # Ok::<(), fi_entropy::DistributionError>(())
/// ```
#[derive(Debug)]
pub struct ShardedFleet {
    shards: Vec<Mutex<AttestedRegistry>>,
    weights: TwoTierWeights,
    /// Forced full-rebuild cadence: every `reanchor_interval`-th epoch
    /// rebuilds from scratch; `0` means never on a schedule.
    reanchor_interval: u64,
    /// The publication point: the served snapshot and its epoch stamp,
    /// which is also the fleet's epoch counter — a seal works on
    /// `current.stamp() + 1` and commits it by publishing. See
    /// [`crate::publish`] for the scheme and its monotonicity argument.
    current: SnapshotCell,
    /// Held shared by every ingest call for its whole batch, and
    /// exclusively by the sealer's cut, so a batch whose sub-batches land
    /// on different shards is atomic with respect to the epoch cut.
    batch_gate: RwLock<()>,
    /// Held by the one sealer at a time from its cut to its publication,
    /// so every delta is built onto the snapshot it was cut against and
    /// snapshots are published in epoch order.
    seal: Mutex<SealState>,
    /// Memoized committee selections keyed by fleet content — repeated
    /// quorum queries against one published epoch are O(1) `Arc` lookups.
    /// See [`SelectionCache`].
    selection_cache: SelectionCache,
    /// The durability layer, when this fleet was opened with
    /// [`open_durable`](Self::open_durable): the write-ahead churn log
    /// every batch tees into, and the checkpoint directory. `None` for
    /// in-memory fleets — every durability hook below is a no-op then.
    durability: Option<DurabilityState>,
    /// Running registered-device total, maintained with **one** atomic add
    /// of the batch's net roster delta after the batch has fully applied
    /// (still inside its gate hold). Readers therefore only ever observe
    /// batch-boundary values — the monitoring read
    /// ([`device_count`](Self::device_count)) is batch-atomic and takes no
    /// lock at all. Signed because a batch's net effect can be negative
    /// (deregistrations).
    device_total: AtomicI64,
}

/// A durable fleet's write-ahead state: the open churn log and the
/// directory checkpoints go to (see [`crate::recover::DurabilityConfig`]).
#[derive(Debug)]
pub(crate) struct DurabilityState {
    /// The open write-ahead log. Lock order: seal mutex → batch gate →
    /// this mutex. Ingest takes it under the gate for each batch's append,
    /// the sealer under the gate for the cut marker's append and then,
    /// with the gate dropped, under the seal mutex alone for the seal
    /// record and the epoch's one fsync; the WAL lock is always taken last,
    /// so it never participates in a cycle.
    pub(crate) log: Mutex<ChurnLog>,
    /// The durability directory, behind the checkpoint mutex: one
    /// [`checkpoint`](ShardedFleet::checkpoint) at a time, because a prune
    /// deletes every staged `.tmp`, another writer's included.
    pub(crate) checkpoint_dir: Mutex<PathBuf>,
}

/// How many of the newest checkpoints survive the prune that follows each
/// checkpoint write: the one just written, plus one to fall back to if it
/// turns out damaged.
const RETAIN_CHECKPOINTS: usize = 2;

/// What the seal mutex guards. The epoch counter is not here: it is the
/// publication cell's stamp, which only a holder of this mutex advances —
/// a seal works on `stamp + 1` and commits it by publishing, so a seal that
/// fails earlier consumes no epoch number.
#[derive(Debug)]
struct SealState {
    /// Whether the published snapshot lacks shard content, so the next
    /// seal rebuilds in full from the shards whatever the cadence: true at
    /// construction (the empty epoch-0 snapshot) and from a seal's first
    /// drain until its publication — a rejected
    /// ([`SealError::CorruptDelta`]), dead or unlogged ([`SealError::Wal`]
    /// from the seal record or its fsync) seal leaves it set; cleared by
    /// publication and by a checkpoint restore.
    reanchor_due: bool,
}

/// Lock acquisition with explicit poison recovery.
///
/// A panicking sealer cannot leave [`SealState`] in a state the seal path
/// does not account for: the epoch moves only at publication (it is the
/// publication cell's stamp), and `reanchor_due` is already set whenever a
/// delta has been drained, so the seal after a sealer's panic is a full
/// rebuild rather than a permanent failure. (The per-shard registry locks
/// deliberately keep their `expect`s: those guard real data a thread that
/// panics inside `apply_batch` *can* leave mid-batch.)
fn lock_recover<'a, T>(lock: &'a Mutex<T>) -> MutexGuard<'a, T> {
    lock.lock().unwrap_or_else(PoisonError::into_inner)
}

impl ShardedFleet {
    /// Creates a fleet with `shard_count` registry shards under the given
    /// tier weights, serving an empty epoch-zero snapshot. The first seal
    /// is a full build and every later one differential; a full rebuild
    /// happens again only to recover from a rejected or dead seal.
    ///
    /// A `shard_count` of zero is clamped to one: the fleet is guaranteed
    /// to be constructed with at least one shard and never panics on the
    /// shard count.
    #[must_use]
    pub fn new(shard_count: usize, weights: TwoTierWeights) -> Self {
        Self::with_reanchor_interval(shard_count, weights, 0)
    }

    /// [`new`](Self::new), but every `reanchor_interval`-th epoch is also
    /// forced through the full from-scratch rebuild the first seal gets;
    /// `1` makes every seal a full rebuild, `0` forces none and is what
    /// `new` passes.
    ///
    /// A forced full rebuild changes no bit of any snapshot — the
    /// differential patch already yields what a rebuild would. The cadence
    /// is a reference and measurement seam: `fleet_differential.rs` holds
    /// cadences 1, 0 and 3 against each other at every epoch, and the
    /// benchmark forces 8 so that it times both seal paths.
    ///
    /// A `shard_count` of zero is clamped to one, as in [`new`](Self::new).
    #[must_use]
    pub fn with_reanchor_interval(
        shard_count: usize,
        weights: TwoTierWeights,
        reanchor_interval: u64,
    ) -> Self {
        let shard_count = shard_count.max(1);
        ShardedFleet {
            shards: (0..shard_count)
                .map(|_| Mutex::new(AttestedRegistry::new(weights)))
                .collect(),
            weights,
            reanchor_interval,
            current: SnapshotCell::new(Arc::new(EpochSnapshot::empty(weights))),
            batch_gate: RwLock::new(()),
            seal: Mutex::new(SealState { reanchor_due: true }),
            selection_cache: SelectionCache::default(),
            durability: None,
            device_total: AtomicI64::new(0),
        }
    }

    /// Attaches an opened durability layer. Crate-private: recovery
    /// attaches it only *after* the restore + replay finished, so replayed
    /// batches are not re-logged.
    pub(crate) fn attach_durability(&mut self, state: DurabilityState) {
        self.durability = Some(state);
    }

    /// Whether this fleet tees its churn into a write-ahead log.
    #[cfg(test)]
    pub(crate) fn is_durable(&self) -> bool {
        self.durability.is_some()
    }

    /// Rewinds this (fresh, unshared) fleet onto a checkpointed epoch:
    /// the shards must already hold the checkpoint's devices (re-ingested
    /// by recovery); this drains their accumulated deltas and publishes
    /// the verified `snapshot` — which fast-forwards the epoch counter —
    /// so the next seal is differential and chains onto it.
    pub(crate) fn restore_published(&self, snapshot: Arc<EpochSnapshot>) {
        let mut st = lock_recover(&self.seal);
        for shard in &self.shards {
            lock_recover(shard).discard_delta();
        }
        st.reanchor_due = false;
        // relaxed: recovery runs single-threaded, before the fleet is
        // handed to any ingest or seal thread; nothing races this store.
        self.device_total
            .store(snapshot.device_count() as i64, Ordering::Relaxed);
        self.current.publish(&snapshot);
    }

    /// The sum of the shards' write-time roster aggregates — what the next
    /// re-anchor would seal over.
    #[cfg(test)]
    pub(crate) fn shard_roster_digest_sum(&self) -> SetDigest {
        let mut sum = SetDigest::EMPTY;
        for shard in &self.shards {
            sum.add(lock_recover(shard).roster_digest());
        }
        sum
    }

    /// Frames one batch into the write-ahead log of a durable fleet.
    ///
    /// Called *before* the batch touches any shard, so an `Err` means the
    /// batch can be rejected cleanly: durability is decided first, and the
    /// in-memory state only moves once the log accepted the bytes. No-op
    /// on in-memory fleets and for empty batches.
    fn wal_append_batch(&self, ops: &[ChurnOp]) -> Result<(), IngestError> {
        if let Some(dur) = &self.durability {
            if !ops.is_empty() {
                lock_recover(&dur.log).append_batch(ops)?;
            }
        }
        Ok(())
    }

    /// Applies `ops` (all routed to `shard`) under that shard's lock and
    /// returns the shard's net roster change. The caller holds the batch
    /// gate shared and folds the change into `device_total`.
    fn apply_to_shard(&self, shard: usize, ops: &[ChurnOp]) -> i64 {
        let mut guard = self.shards[shard]
            .lock()
            .expect("no thread panicked applying a batch under a shard lock");
        let before = guard.len() as i64;
        guard.apply_batch(ops);
        guard.len() as i64 - before
    }

    /// Number of registry shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The tier weights in force.
    #[must_use]
    pub fn weights(&self) -> TwoTierWeights {
        self.weights
    }

    /// Which shard owns `replica`: `replica mod shard_count`.
    ///
    /// **Stability contract:** the mapping is a pure function of the device
    /// id and this fleet's (fixed) shard count — it never changes over the
    /// fleet's lifetime, so a device's ops always serialise through the
    /// same shard. It is *not* stable across fleets with different shard
    /// counts; that is fine because sealed snapshots are canonical (pure
    /// functions of fleet content), so re-sharding a fleet by replaying its
    /// churn into a differently-sized one yields bit-identical epochs.
    #[must_use]
    fn shard_of(&self, replica: ReplicaId) -> usize {
        (replica.as_u64() % self.shards.len() as u64) as usize
    }

    /// Ingests one churn batch on the caller's thread: logged, split by
    /// shard, and applied one shard after another. Relative op order *per
    /// device* is preserved, which is the only order the end state depends
    /// on. The whole batch is atomic with respect to
    /// [`try_seal_epoch`](Self::try_seal_epoch): a concurrent seal observes
    /// either none or all of it.
    ///
    /// A failure is **clean**: the batch is framed into the log *before*
    /// it lands on any shard, so on `Err` no shard observed any op, the
    /// batch gate is released un-poisoned, and reads and seals keep
    /// working. The caller retries once the disk fault is repaired.
    ///
    /// # Errors
    ///
    /// Returns [`IngestError::WalAppend`] when the write-ahead log could
    /// not persist the batch (durable fleets only; an in-memory fleet
    /// never fails).
    pub fn try_ingest_batch(&self, ops: &[ChurnOp]) -> Result<(), IngestError> {
        // The gate guards no data (`()`): recover from poisoning rather
        // than letting one panicked holder refuse every future batch.
        let _gate = self
            .batch_gate
            .read()
            .unwrap_or_else(PoisonError::into_inner);
        // Write-ahead: the batch is framed into the log *before* it lands
        // on any shard, inside the same gate hold — so the epoch-cut
        // marker (written gate-exclusive) partitions the log into epochs
        // exactly as the shards observed them.
        self.wal_append_batch(ops)?;
        // The shards' net roster changes are folded into the fleet counter
        // as ONE atomic add after the whole batch applied (and before the
        // gate is released), so monitoring reads only ever see
        // batch-boundary counts.
        let mut batch_delta = 0;
        for (shard, shard_ops) in self.split_by_shard(ops).iter().enumerate() {
            if !shard_ops.is_empty() {
                batch_delta += self.apply_to_shard(shard, shard_ops);
            }
        }
        // relaxed: batch-boundary monitoring counter; the batch gate (held
        // shared here) orders it relative to seals, and readers tolerate a
        // stale count by design.
        self.device_total.fetch_add(batch_delta, Ordering::Relaxed);
        Ok(())
    }

    /// Splits `ops` into per-shard sub-batches by replica id modulo the
    /// shard count, preserving per-device op order (all of one device's ops land on one
    /// shard, in their original relative order). The returned vector always
    /// has exactly [`shard_count`](Self::shard_count) entries.
    ///
    /// The route step of [`try_ingest_batch`](Self::try_ingest_batch);
    /// public as a measurement and test seam (see
    /// [`log_batch`](Self::log_batch)).
    #[must_use]
    pub fn split_by_shard(&self, ops: &[ChurnOp]) -> Vec<Vec<ChurnOp>> {
        let mut per_shard: Vec<Vec<ChurnOp>> = vec![Vec::new(); self.shards.len()];
        for op in ops {
            // lint: allow(panic) shard_of maps into 0..shards.len() and
            // per_shard was built with exactly shards.len() entries.
            per_shard[self.shard_of(op.replica())].push(*op);
        }
        per_shard
    }

    /// Measurement and test seam: the log step of
    /// [`try_ingest_batch`](Self::try_ingest_batch) alone — frames one
    /// batch into the write-ahead log without touching any shard. No-op
    /// `Ok` on in-memory fleets and for empty batches.
    ///
    /// `try_ingest_batch` is the production path: it is this, then
    /// [`split_by_shard`](Self::split_by_shard), then the apply of
    /// [`apply_shard_batch`](Self::apply_shard_batch) per shard, under
    /// **one** gate hold, so no epoch cut can separate a batch's log record
    /// from its application. The three steps stay public only because the
    /// benchmark's stage replay (`crates/bench/src/bin/fibench`, "Pinned
    /// API surface") times them one by one and `fleet_differential.rs`
    /// pins their composition to `try_ingest_batch`. A caller that does
    /// run them separately takes a gate hold per step, and must itself
    /// keep a seal from cutting between a batch's `log_batch` and its last
    /// `apply_shard_batch` — otherwise the log's epoch partition and the
    /// shards' observed partition disagree and recovery replay will refuse
    /// the hash.
    ///
    /// # Errors
    ///
    /// Returns [`IngestError::WalAppend`] when the log rejects the bytes;
    /// nothing was applied, and the caller must **not** apply the batch.
    pub fn log_batch(&self, ops: &[ChurnOp]) -> Result<(), IngestError> {
        let _gate = self
            .batch_gate
            .read()
            .unwrap_or_else(PoisonError::into_inner);
        self.wal_append_batch(ops)
    }

    /// Measurement and test seam: the apply step of
    /// [`try_ingest_batch`](Self::try_ingest_batch) for one shard's
    /// sub-batch (as produced by [`split_by_shard`](Self::split_by_shard)),
    /// under its own shared gate hold. The counterpart of
    /// [`log_batch`](Self::log_batch); see there for why it is public and
    /// for the cut-ordering caveat. Called this way the device counter
    /// moves once per sub-batch; through `try_ingest_batch` it moves once
    /// per batch.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range. Debug builds also assert every
    /// op is routed to its owning shard.
    pub fn apply_shard_batch(&self, shard: usize, ops: &[ChurnOp]) {
        debug_assert!(ops.iter().all(|op| self.shard_of(op.replica()) == shard));
        let _gate = self
            .batch_gate
            .read()
            .unwrap_or_else(PoisonError::into_inner);
        // relaxed: batch-boundary monitoring counter (see try_ingest_batch).
        self.device_total
            .fetch_add(self.apply_to_shard(shard, ops), Ordering::Relaxed);
    }

    /// Number of registered devices across all shards, batch-atomic and
    /// lock-free: the count is a fleet-level counter updated with one
    /// atomic add per fully-applied batch, so this one load never observes
    /// a half-applied multi-shard batch and stalls nobody.
    #[must_use]
    pub fn device_count(&self) -> usize {
        // relaxed: monitoring read of a counter that only ever holds
        // batch-boundary values and publishes no other data.
        self.device_total.load(Ordering::Relaxed).max(0) as usize
    }

    /// The write→read barrier: waits for in-flight batches, takes one
    /// consistent cut across all shards (locking them in index order),
    /// and publishes the canonical [`EpochSnapshot`] for lock-free serving.
    /// Returns the sealed snapshot.
    ///
    /// Ordinary epochs are **differential**: the cut drains each shard's
    /// [`ChurnDelta`]; once the cut's locks are dropped they are merged
    /// into one [`CanonicalDelta`], which patches the previous snapshot in
    /// O(churn · log n) ([`EpochSnapshot::try_apply_delta`]) — bit-identical
    /// to a full rebuild. A fresh fleet's first seal, the seal after a
    /// rejected or dead one, and any epoch a cadence forces
    /// ([`with_reanchor_interval`](Self::with_reanchor_interval)) rebuild
    /// from a complete shard merge instead.
    ///
    /// One seal runs at a time, holding the seal mutex from its cut to its
    /// publication; the batch gate and the shard guards are dropped right
    /// after the cut, so snapshot construction stalls neither ingest nor
    /// reads. Concurrent callers serialise and seal consecutive epochs.
    /// Publication is a seal's last step; it writes no checkpoint.
    ///
    /// # Errors
    ///
    /// Every `Err` leaves `published_epoch()` and the served snapshot as
    /// they were before the call: the epoch was **not committed**, ingest
    /// and reads continue, and the next seal takes the same epoch number.
    /// [`SealError::CorruptDelta`] is a drained churn delta that does not
    /// chain onto the published snapshot (a corruption bug, not a usage
    /// error); the next seal re-anchors with a full rebuild from the
    /// authoritative shards, as after a sealer thread that died mid-seal.
    /// [`SealError::Wal`] is a cut marker, seal record or fsync the log
    /// refused: from the cut marker nothing was drained yet; after the
    /// drain, the next seal re-cuts the epoch with a full rebuild.
    pub fn try_seal_epoch(&self) -> Result<Arc<EpochSnapshot>, SealError> {
        // One sealer at a time, from here to the publication.
        let mut st = lock_recover(&self.seal);
        let epoch = self.current.stamp() + 1;

        // Phase 1 — the cut: exclude in-flight batches (so a batch whose
        // sub-batches land on different shards is observed either fully or
        // not at all), sweep the shard locks, frame the cut marker, and
        // drain the deltas or copy the full rows. On a differential epoch
        // the drain is all that happens to shard state under the gate: a
        // `mem::take` per shard, microseconds whatever the churn. Ingest
        // holds the gate shared and then locks one shard at a time; the
        // sealer takes the gate exclusively *before* any shard lock, so
        // the orderings cannot deadlock.
        let work = {
            // Held exclusively through the cut-marker write *and* the
            // drain: ingest appends its batch to the log and applies it to
            // the shards under one shared hold, so with the gate held
            // exclusively here the log's batch sequence and the shards'
            // applied sequence agree exactly — the cut marker partitions
            // both identically.
            let _gate = self
                .batch_gate
                .write()
                .unwrap_or_else(PoisonError::into_inner);
            let mut guards: Vec<_> = self
                .shards
                .iter()
                .map(|s| {
                    s.lock()
                        .expect("no thread panicked applying a batch under a shard lock")
                })
                .collect();
            // Frame the cut marker after every batch of this epoch, with no
            // sync: the seal record's fsync below covers it. On failure
            // nothing has been drained and no epoch committed, so the fleet
            // is exactly as before the call.
            if let Some(dur) = &self.durability {
                lock_recover(&dur.log).append(&WalRecord::EpochCut { epoch })?;
            }
            let full = st.reanchor_due
                || (self.reanchor_interval > 0 && epoch.is_multiple_of(self.reanchor_interval));
            // From the first drain until publication the drained churn
            // lives only in this call's locals.
            st.reanchor_due = true;
            if full {
                // The one copy of the device rows, sized once: it is what
                // lets the gate and the guards drop before construction.
                let mut devices = Vec::with_capacity(guards.iter().map(|shard| shard.len()).sum());
                let per_shard = guards
                    .iter_mut()
                    .map(|shard| {
                        // Re-baseline: the full copy captures everything,
                        // so the pending delta is drained and discarded —
                        // the *next* differential seal's delta must be
                        // relative to this cut.
                        shard.discard_delta();
                        devices.extend(shard.devices());
                        (
                            shard.bucket_rows().collect(),
                            shard.unattested_power(),
                            shard.roster_digest(),
                        )
                    })
                    .collect();
                SealWork::Full { per_shard, devices }
            } else {
                SealWork::Differential(guards.iter_mut().map(|shard| shard.take_delta()).collect())
            }
        };

        // Phase 2 — construction, with the gate and the shard guards
        // dropped: ingest proceeds on the shards while this merges the
        // drained deltas and builds.
        let snapshot = Arc::new(match work {
            SealWork::Full { per_shard, devices } => {
                let mut rows = BTreeMap::new();
                let mut opaque = VotingPower::ZERO;
                // Shards own disjoint devices, so the fleet's roster
                // aggregate is the sum of theirs: the re-anchor hashes no
                // roster row.
                let mut device_agg = SetDigest::EMPTY;
                for (shard_rows, shard_opaque, shard_agg) in per_shard {
                    for (m, p) in shard_rows {
                        *rows.entry(m).or_insert(VotingPower::ZERO) += p;
                    }
                    opaque += shard_opaque;
                    device_agg.add(shard_agg);
                }
                debug_assert_eq!(
                    device_agg,
                    roster_aggregate(&devices),
                    "shard write-time aggregates diverged from a from-scratch fold"
                );
                EpochSnapshot::build(epoch, self.weights, rows, opaque, &devices, device_agg)
            }
            SealWork::Differential(per_shard) => {
                // The deltas were cut on top of the published snapshot,
                // and only a sealer (this one) can replace that. A delta
                // that does not chain returns here with `reanchor_due` set.
                let prev = self.current.load();
                debug_assert_eq!(prev.epoch() + 1, epoch);
                prev.try_apply_delta(epoch, &CanonicalDelta::merge(per_shard))?
            }
        });

        // Phase 3 — record + fsync, the epoch's one durability point: log
        // the content hash the seal is about to serve (the recovery oracle
        // for this epoch) and fsync once, which makes the epoch's batches,
        // its cut marker and this record durable together. A failure
        // returns with nothing published and `reanchor_due` still set: the
        // previous snapshot keeps serving, and the next seal re-cuts this
        // epoch with a full rebuild.
        if let Some(dur) = &self.durability {
            let mut log = lock_recover(&dur.log);
            log.append(&WalRecord::EpochSeal {
                epoch,
                content_hash: snapshot.content_hash(),
            })?;
            log.sync()?;
        }

        // Phase 4 — publication, and with it the epoch commit.
        self.current.publish(&snapshot);
        st.reanchor_due = false;
        Ok(snapshot)
    }

    /// Writes the published snapshot as `ckpt-{epoch:016}.fic` under the
    /// durability directory, then prunes all but the two newest checkpoints
    /// and any staged `.tmp`. Recovery replays only the log after the
    /// newest checkpoint, so the caller's cadence bounds recovery time.
    /// Writes nothing on an in-memory fleet or at epoch 0, which has no cut
    /// marker to anchor it. Calls serialise on the checkpoint mutex, which
    /// no seal takes: call it with no lock held that a seal needs.
    ///
    /// # Errors
    ///
    /// [`CheckpointError`] when the write or the prune fails. The fleet is
    /// untouched, and only the checkpoint file is missing.
    pub fn checkpoint(&self) -> Result<(), CheckpointError> {
        let Some(dur) = &self.durability else {
            return Ok(());
        };
        let dir = lock_recover(&dur.checkpoint_dir);
        let published = self.current.load();
        if published.epoch() == 0 {
            return Ok(());
        }
        Checkpoint::from_snapshot(&published).write(&*dir)?;
        checkpoint::prune(&*dir, RETAIN_CHECKPOINTS)
    }

    /// The currently served snapshot, cloned off the publication cell under
    /// a guard held for the `Arc` clone alone — a racing seal builds outside
    /// it — and every query on the snapshot itself is lock-free.
    /// Query bursts and steady-state monitors should prefer a
    /// [`reader`](Self::reader) handle, which also skips the `Arc` clone.
    #[must_use]
    pub fn snapshot(&self) -> Arc<EpochSnapshot> {
        self.current.load()
    }

    /// A per-reader [`SnapshotHandle`]: the shared-nothing monitoring fast
    /// path. The handle caches the last snapshot and revalidates with one
    /// relaxed epoch-stamp load, so steady-state `entropy_bits` /
    /// `device_count` / report queries touch no shared cache line at all.
    /// Create one handle per reader thread.
    #[must_use]
    pub fn reader(&self) -> SnapshotHandle<'_> {
        SnapshotHandle::new(&self.current)
    }

    /// The epoch of the most recently *published* snapshot (what
    /// [`snapshot`](Self::snapshot) serves). A seal commits its epoch at
    /// publication, so this is also the last epoch the fleet sealed.
    #[must_use]
    pub fn published_epoch(&self) -> u64 {
        self.current.stamp()
    }

    /// The greedy committee of size `k` over the currently served
    /// snapshot, memoized in the fleet's [`SelectionCache`]: repeated
    /// queries against one published epoch are O(1) `Arc` lookups, and
    /// the first query of an epoch selects cold. Byte-identical member
    /// sequence to `self.snapshot().select_greedy(k)`.
    #[must_use]
    pub fn select_greedy_cached(&self, k: usize) -> Arc<fi_committee::Committee> {
        self.selection_cache.select_greedy(&self.snapshot(), k)
    }

    /// The fleet's selection memo (its stats).
    #[must_use]
    pub fn selection_cache(&self) -> &SelectionCache {
        &self.selection_cache
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fi_types::sha256;

    fn ops(n: u64) -> Vec<ChurnOp> {
        (0..n)
            .map(|i| {
                ChurnOp::attest(
                    ReplicaId::new(i),
                    sha256(format!("cfg-{}", i % 5).as_bytes()),
                    VotingPower::new(10 + i % 7),
                )
            })
            .collect()
    }

    #[test]
    fn fresh_fleet_serves_the_empty_epoch() {
        let fleet = ShardedFleet::new(4, TwoTierWeights::flat());
        let snap = fleet.snapshot();
        assert_eq!(snap.epoch(), 0);
        assert_eq!(snap.device_count(), 0);
        assert_eq!(fleet.device_count(), 0);
        assert_eq!(fleet.shard_count(), 4);
    }

    #[test]
    fn shard_counts_seal_bit_identical_snapshots() {
        let trace = ops(64);
        let mut hashes = Vec::new();
        for shards in [1usize, 2, 3, 4, 8] {
            let fleet = ShardedFleet::new(shards, TwoTierWeights::flat());
            for batch in trace.chunks(10) {
                fleet.try_ingest_batch(batch).unwrap();
            }
            let snap = fleet.try_seal_epoch().unwrap();
            assert_eq!(snap.device_count(), 64);
            hashes.push((
                snap.content_hash(),
                snap.entropy_bits(false).unwrap().to_bits(),
            ));
        }
        assert!(
            hashes.windows(2).all(|w| w[0] == w[1]),
            "snapshots diverged across shard counts: {hashes:?}"
        );
    }

    #[test]
    fn seal_publishes_and_increments_epochs() {
        let fleet = ShardedFleet::new(2, TwoTierWeights::flat());
        fleet.try_ingest_batch(&ops(8)).unwrap();
        let first = fleet.try_seal_epoch().unwrap();
        assert_eq!(first.epoch(), 1);
        assert_eq!(fleet.snapshot().epoch(), 1);
        fleet
            .try_ingest_batch(&[ChurnOp::Deregister {
                replica: ReplicaId::new(0),
            }])
            .unwrap();
        // Epoch 2 takes the differential path and must still observe the
        // departure.
        let second = fleet.try_seal_epoch().unwrap();
        assert_eq!(second.epoch(), 2);
        assert_eq!(second.device_count(), 7);
        // The first snapshot is immutable — readers holding it are unaffected.
        assert_eq!(first.device_count(), 8);
        assert_ne!(first.content_hash(), second.content_hash());
    }

    #[test]
    fn differential_and_full_seals_chain_to_identical_hashes() {
        // One fleet re-anchors every epoch (every seal is a full rebuild),
        // one never re-anchors (every seal after the first is a delta
        // patch), one re-anchors every 3rd epoch (both paths interleave).
        // All three must agree byte-for-byte at every epoch.
        let trace = ops(60);
        let full = ShardedFleet::with_reanchor_interval(4, TwoTierWeights::flat(), 1);
        let differential = ShardedFleet::with_reanchor_interval(4, TwoTierWeights::flat(), 0);
        let mixed = ShardedFleet::with_reanchor_interval(4, TwoTierWeights::flat(), 3);
        for batch in trace.chunks(7) {
            for fleet in [&full, &differential, &mixed] {
                fleet.try_ingest_batch(batch).unwrap();
            }
            let (a, b, c) = (
                full.try_seal_epoch().unwrap(),
                differential.try_seal_epoch().unwrap(),
                mixed.try_seal_epoch().unwrap(),
            );
            assert_eq!(a.content_hash(), b.content_hash());
            assert_eq!(a.content_hash(), c.content_hash());
            assert_eq!(a.buckets(), b.buckets());
            assert!(a.devices().eq(b.devices()));
            let bits = |s: &EpochSnapshot| s.entropy_bits(true).map(f64::to_bits);
            assert_eq!(bits(&a), bits(&b));
            assert_eq!(bits(&a), bits(&c));
        }
    }

    #[test]
    fn shard_of_is_stable_and_total() {
        let fleet = ShardedFleet::new(8, TwoTierWeights::flat());
        for i in 0..100u64 {
            let shard = fleet.shard_of(ReplicaId::new(i));
            assert!(shard < 8);
            assert_eq!(shard, fleet.shard_of(ReplicaId::new(i)));
            assert_eq!(shard, (i % 8) as usize, "documented modulo mapping");
        }
    }

    #[test]
    fn concurrent_ingest_while_sealing_is_safe() {
        // Smoke the lock discipline: batches land while another thread
        // seals repeatedly (differentially after the first). Every
        // device's ops live in one batch, so the final sealed state is
        // independent of the interleaving.
        let fleet = ShardedFleet::new(4, TwoTierWeights::flat());
        let trace = ops(200);
        std::thread::scope(|scope| {
            let fleet = &fleet;
            scope.spawn(move || {
                for batch in trace.chunks(20) {
                    fleet.try_ingest_batch(batch).unwrap();
                }
            });
            scope.spawn(move || {
                for _ in 0..10 {
                    let _ = fleet.try_seal_epoch().unwrap();
                }
            });
        });
        let final_snap = fleet.try_seal_epoch().unwrap();
        assert_eq!(final_snap.device_count(), 200);
        let oracle = ShardedFleet::new(1, TwoTierWeights::flat());
        oracle.try_ingest_batch(&ops(200)).unwrap();
        assert_eq!(
            final_snap.content_hash(),
            oracle.try_seal_epoch().unwrap().content_hash()
        );
    }

    #[test]
    fn concurrent_sealers_publish_in_epoch_order() {
        // Several threads seal while churn lands: every sealed epoch is
        // distinct, and the served snapshot ends on the *latest* epoch —
        // publication never goes backwards.
        let fleet = ShardedFleet::new(4, TwoTierWeights::flat());
        let trace = ops(120);
        let sealed_epochs = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            let fleet = &fleet;
            let sealed_epochs = &sealed_epochs;
            scope.spawn(move || {
                for batch in trace.chunks(12) {
                    fleet.try_ingest_batch(batch).unwrap();
                }
            });
            for _ in 0..3 {
                scope.spawn(move || {
                    for _ in 0..4 {
                        let epoch = fleet.try_seal_epoch().unwrap().epoch();
                        sealed_epochs.lock().unwrap().push(epoch);
                    }
                });
            }
        });
        let mut epochs = sealed_epochs.into_inner().unwrap();
        epochs.sort_unstable();
        assert_eq!(epochs, (1..=12).collect::<Vec<u64>>());
        assert_eq!(fleet.snapshot().epoch(), 12);
        // Sealing once more at quiescence observes everything.
        let final_snap = fleet.try_seal_epoch().unwrap();
        assert_eq!(final_snap.epoch(), 13);
        assert_eq!(final_snap.device_count(), 120);
    }

    #[test]
    fn served_epoch_is_monotone_under_concurrent_sealers() {
        // The `current` pointer must never move backwards: a reader
        // polling the served snapshot sees a non-decreasing epoch sequence
        // while several sealers race (differential sealers included).
        let fleet = ShardedFleet::with_reanchor_interval(4, TwoTierWeights::flat(), 3);
        let trace = ops(160);
        std::thread::scope(|scope| {
            let fleet = &fleet;
            scope.spawn(move || {
                for batch in trace.chunks(8) {
                    fleet.try_ingest_batch(batch).unwrap();
                }
            });
            for _ in 0..3 {
                scope.spawn(move || {
                    for _ in 0..6 {
                        let _ = fleet.try_seal_epoch().unwrap();
                    }
                });
            }
            scope.spawn(move || {
                let mut last = 0u64;
                for _ in 0..4_000 {
                    let epoch = fleet.snapshot().epoch();
                    assert!(
                        epoch >= last,
                        "served epoch went backwards: {last} → {epoch}"
                    );
                    last = epoch;
                }
            });
        });
        assert_eq!(fleet.snapshot().epoch(), 18);
    }

    #[test]
    fn device_count_is_batch_atomic_under_concurrent_ingest() {
        // Regression for the torn count: `device_count` used to sweep the
        // shard locks without the batch gate, so it could observe half of
        // a multi-shard batch. Every batch here registers 40 *fresh*
        // devices, so any consistent count is a multiple of 40.
        const BATCH: u64 = 40;
        const BATCHES: u64 = 25;
        let fleet = ShardedFleet::new(4, TwoTierWeights::flat());
        std::thread::scope(|scope| {
            let fleet = &fleet;
            scope.spawn(move || {
                for b in 0..BATCHES {
                    let batch: Vec<ChurnOp> = (0..BATCH)
                        .map(|i| {
                            ChurnOp::attest(
                                ReplicaId::new(b * BATCH + i),
                                sha256(format!("cfg-{}", i % 3).as_bytes()),
                                VotingPower::new(10),
                            )
                        })
                        .collect();
                    fleet.try_ingest_batch(&batch).unwrap();
                }
            });
            scope.spawn(move || {
                let mut last = 0;
                while last < (BATCH * BATCHES) as usize {
                    let count = fleet.device_count();
                    assert_eq!(
                        count % BATCH as usize,
                        0,
                        "torn device count {count} observed mid-batch"
                    );
                    assert!(count >= last, "device count went backwards");
                    last = count;
                }
            });
        });
        assert_eq!(fleet.device_count(), (BATCH * BATCHES) as usize);
    }

    /// Panics a scoped thread while it holds the guard `acquire` returns,
    /// leaving the underlying lock poisoned.
    fn poison_by_panic<G>(acquire: impl FnOnce() -> G + Send) {
        std::thread::scope(|scope| {
            let handle = scope.spawn(move || {
                let _guard = acquire();
                panic!("poison the lock under test");
            });
            assert!(handle.join().is_err(), "the poisoner must have panicked");
        });
    }

    #[test]
    fn reads_and_seals_survive_poisoned_handoff_locks() {
        // Regression: `snapshot()` used to `.read().unwrap()` a single
        // `RwLock` publication point, and the seal path `.expect`ed its
        // locks — one thread panicking while holding any of them bricked
        // every future read and seal. The publication slot, the seal mutex
        // and the batch gate all recover from poisoning explicitly.
        let fleet = ShardedFleet::new(4, TwoTierWeights::flat());
        fleet.try_ingest_batch(&ops(16)).unwrap();
        assert_eq!(fleet.try_seal_epoch().unwrap().epoch(), 1);

        poison_by_panic(|| fleet.seal.lock().unwrap());
        poison_by_panic(|| fleet.batch_gate.write().unwrap());
        assert!(fleet.seal.lock().is_err(), "seal mutex must be poisoned");
        assert!(
            fleet.batch_gate.write().is_err(),
            "batch gate must be poisoned"
        );

        // Reads, ingest, counting, and sealing all still work: no seal
        // was in progress, only the lock memory was poisoned.
        assert_eq!(fleet.snapshot().epoch(), 1);
        let mut reader = fleet.reader();
        assert_eq!(reader.get().epoch(), 1);
        fleet
            .try_ingest_batch(&[ChurnOp::Deregister {
                replica: ReplicaId::new(0),
            }])
            .unwrap();
        assert_eq!(fleet.device_count(), 15);
        let sealed = fleet.try_seal_epoch().unwrap();
        assert_eq!(sealed.epoch(), 2);
        assert_eq!(sealed.device_count(), 15);
        assert_eq!(reader.get().epoch(), 2);
        assert_eq!(fleet.published_epoch(), 2);
    }

    #[test]
    fn a_sealer_dying_between_cut_and_publish_leaves_the_next_seal_a_reanchor() {
        // The dying sealer does what `try_seal_epoch` does up to its first
        // drain — take the seal mutex, flag the re-anchor, drain a shard —
        // and then unwinds, so that shard's churn is in no snapshot and in
        // no pending delta. Cadence 0: only the flag can make epoch 2 a
        // full rebuild.
        let fleet = ShardedFleet::with_reanchor_interval(4, TwoTierWeights::flat(), 0);
        fleet.try_ingest_batch(&ops(16)).unwrap();
        assert_eq!(fleet.try_seal_epoch().unwrap().epoch(), 1);
        let late = [
            ChurnOp::attest(
                ReplicaId::new(9000),
                sha256(b"late-config"),
                VotingPower::new(30),
            ),
            ChurnOp::Deregister {
                replica: ReplicaId::new(3),
            },
        ];
        fleet.try_ingest_batch(&late).unwrap();

        poison_by_panic(|| {
            let mut st = fleet.seal.lock().unwrap();
            st.reanchor_due = true;
            let _lost = fleet.shards[fleet.shard_of(ReplicaId::new(9000))]
                .lock()
                .unwrap()
                .take_delta();
            st
        });
        assert_eq!(fleet.published_epoch(), 1, "no epoch was committed");

        let sealed = fleet.try_seal_epoch().expect("the next seal recovers");
        assert_eq!(sealed.epoch(), 2);
        assert_eq!(fleet.published_epoch(), 2);
        let oracle = ShardedFleet::new(1, TwoTierWeights::flat());
        oracle.try_ingest_batch(&ops(16)).unwrap();
        oracle.try_seal_epoch().unwrap();
        oracle.try_ingest_batch(&late).unwrap();
        assert_eq!(
            sealed.content_hash(),
            oracle.try_seal_epoch().unwrap().content_hash(),
            "the drained churn must come back from the shards"
        );
    }

    #[test]
    fn corrupt_delta_rejects_the_seal_and_the_fleet_keeps_serving() {
        // Regression: a delta that does not chain onto the published
        // snapshot used to panic inside `apply_delta` *after* the epoch
        // was assigned — poisoning the publish chain and bricking every
        // later seal. Now the seal is rejected as `CorruptDelta`, the
        // epoch rolls back, and the next seal re-anchors from the
        // authoritative shard state.
        let fleet = ShardedFleet::with_reanchor_interval(4, TwoTierWeights::flat(), 0);
        fleet.try_ingest_batch(&ops(16)).unwrap();
        assert_eq!(fleet.try_seal_epoch().unwrap().epoch(), 1);

        // Forge the corruption: register a device whose measurement opens
        // a brand-new bucket, steal the shard's pending delta (so the
        // registration is lost from the delta but not the registry), then
        // deregister it — the surviving delta edits a bucket the published
        // snapshot has never seen.
        let rogue = ReplicaId::new(7777);
        fleet
            .try_ingest_batch(&[ChurnOp::attest(
                rogue,
                sha256(b"rogue-config"),
                VotingPower::new(50),
            )])
            .unwrap();
        let _stolen = fleet.shards[fleet.shard_of(rogue)]
            .lock()
            .unwrap()
            .take_delta();
        fleet
            .try_ingest_batch(&[ChurnOp::Deregister { replica: rogue }])
            .unwrap();

        let err = fleet.try_seal_epoch().unwrap_err();
        assert!(
            matches!(&err, SealError::CorruptDelta { epoch: 2, .. }),
            "got {err}"
        );
        assert!(err.to_string().contains("not chained"), "got {err}");

        // No epoch was consumed and the fleet still serves epoch 1.
        assert_eq!(fleet.snapshot().epoch(), 1);
        assert_eq!(fleet.published_epoch(), 1);
        fleet
            .try_ingest_batch(&[ChurnOp::attest(
                ReplicaId::new(8888),
                sha256(b"late-config"),
                VotingPower::new(30),
            )])
            .unwrap();
        assert_eq!(fleet.device_count(), 17);

        // The next seal re-anchors (full rebuild) and matches an oracle
        // that saw the same surviving history.
        let sealed = fleet.try_seal_epoch().unwrap();
        assert_eq!(sealed.epoch(), 2);
        let oracle = ShardedFleet::new(1, TwoTierWeights::flat());
        oracle.try_ingest_batch(&ops(16)).unwrap();
        oracle
            .try_ingest_batch(&[ChurnOp::attest(
                ReplicaId::new(8888),
                sha256(b"late-config"),
                VotingPower::new(30),
            )])
            .unwrap();
        assert_eq!(
            sealed.content_hash(),
            oracle.try_seal_epoch().unwrap().content_hash(),
            "re-anchor must rebuild from the authoritative shard state"
        );
    }

    #[test]
    fn a_before_row_the_snapshot_never_held_rejects_the_seal_and_the_next_reanchors() {
        // A differential seal stages each touched device's departure from
        // the row its shard says it held at the last cut, not from the
        // published roster. When that row is not one the published snapshot
        // holds, the seal must be rejected, not patched around. Forged here
        // the way a lost delta would: write a row, steal the shard's
        // pending delta, touch the device again — the surviving delta's
        // `before` is the stolen row. In each case the bucket sums alone
        // would have chained.
        let cfg = |i: u64| sha256(format!("cfg-{i}").as_bytes());
        let attest =
            |id: u64, m: u64, power: u64| ChurnOp::attest(ReplicaId::new(id), cfg(m), power.into());
        // (the write whose delta is lost, the touch that survives)
        let forgeries = [
            // Device 0 is on cfg-0 at power 10: a `before` with the wrong
            // power, in the wrong bucket, …
            (attest(0, 0, 11), attest(0, 0, 12)),
            (attest(0, 1, 10), attest(0, 0, 10)),
            // … and for a replica the snapshot has never seen.
            (attest(500, 0, 10), attest(500, 0, 12)),
        ];
        for (lost, surviving) in forgeries {
            let fleet = ShardedFleet::with_reanchor_interval(4, TwoTierWeights::flat(), 0);
            fleet.try_ingest_batch(&ops(16)).unwrap();
            let served = fleet.try_seal_epoch().unwrap();
            fleet.try_ingest_batch(&[lost]).unwrap();
            let _stolen = fleet.shards[fleet.shard_of(lost.replica())]
                .lock()
                .unwrap()
                .take_delta();
            fleet.try_ingest_batch(&[surviving]).unwrap();

            let err = fleet.try_seal_epoch().unwrap_err();
            assert!(
                matches!(&err, SealError::CorruptDelta { epoch: 2, .. }),
                "{lost:?}: got {err}"
            );
            assert!(err.to_string().contains("matches no entry"), "got {err}");
            // The published snapshot keeps serving, bit for bit.
            assert_eq!(fleet.published_epoch(), 1);
            let still = fleet.snapshot();
            assert_eq!(still.content_hash(), served.content_hash());
            assert_eq!(
                fleet.select_greedy_cached(4).members(),
                served.select_greedy(4).members()
            );

            // The next seal re-anchors from the shards, which hold the
            // surviving row: bit-identical to a fleet that never lost one.
            let sealed = fleet.try_seal_epoch().unwrap();
            assert_eq!((sealed.epoch(), sealed.parent_hash()), (2, None));
            let oracle = ShardedFleet::new(1, TwoTierWeights::flat());
            oracle.try_ingest_batch(&ops(16)).unwrap();
            oracle.try_seal_epoch().unwrap();
            oracle.try_ingest_batch(&[lost, surviving]).unwrap();
            let expected = oracle.try_seal_epoch().unwrap();
            assert_eq!(sealed.content_hash(), expected.content_hash());
            assert!(sealed.devices().eq(expected.devices()));
        }
    }

    fn durable_fleet(tag: &str) -> (ShardedFleet, PathBuf) {
        let dir = std::env::temp_dir().join(format!("fi-fleet-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = crate::recover::DurabilityConfig::new(&dir);
        let (fleet, _) = ShardedFleet::open_durable(2, TwoTierWeights::flat(), 0, config).unwrap();
        (fleet, dir)
    }

    /// The `ckpt-*` files under `dir` whose names end in `suffix`.
    fn checkpoint_files(dir: &std::path::Path, suffix: &str) -> Vec<PathBuf> {
        let mut found: Vec<PathBuf> = std::fs::read_dir(dir)
            .unwrap()
            .map(|entry| entry.unwrap().path())
            .filter(|path| {
                let name = path.file_name().unwrap().to_string_lossy();
                name.starts_with("ckpt-") && name.ends_with(suffix)
            })
            .collect();
        found.sort();
        found
    }

    #[test]
    fn checkpoint_writes_nothing_before_the_first_seal_or_in_memory() {
        // A ckpt-0 would name an epoch with no cut marker, and the next
        // `open_durable` would refuse it as `MissingCut`.
        let (fleet, dir) = durable_fleet("ckpt-epoch0");
        fleet.checkpoint().unwrap();
        assert!(checkpoint_files(&dir, "").is_empty());
        let _ = std::fs::remove_dir_all(&dir);

        let fleet = ShardedFleet::new(2, TwoTierWeights::flat());
        fleet.checkpoint().unwrap();
        fleet.try_ingest_batch(&ops(8)).unwrap();
        fleet.try_seal_epoch().unwrap();
        fleet.checkpoint().unwrap();
    }

    #[test]
    fn checkpoints_written_beside_a_sealer_all_load_and_anchor_recovery() {
        const EPOCHS: u64 = 40;
        let (fleet, dir) = durable_fleet("ckpt-race");
        let sealing = std::sync::atomic::AtomicBool::new(true);
        let trace = ops(EPOCHS * 6);
        let last = std::thread::scope(|scope| {
            // Its last write starts after the last seal published.
            scope.spawn(|| loop {
                let last_round = !sealing.load(Ordering::Acquire);
                fleet.checkpoint().unwrap();
                if last_round {
                    break;
                }
            });
            let mut last = None;
            for batch in trace.chunks(6) {
                fleet.try_ingest_batch(batch).unwrap();
                last = Some(fleet.try_seal_epoch().unwrap());
            }
            sealing.store(false, Ordering::Release);
            last.unwrap()
        });
        assert_eq!(last.epoch(), EPOCHS);
        assert!(
            checkpoint_files(&dir, ".tmp").is_empty(),
            "a staged file leaked"
        );
        let written = checkpoint_files(&dir, ".fic");
        assert!((1..=2).contains(&written.len()), "{written:?}");
        for path in &written {
            Checkpoint::load(path).unwrap();
        }
        drop(fleet);
        let (reopened, report) = ShardedFleet::open_durable(
            1,
            TwoTierWeights::flat(),
            0,
            crate::recover::DurabilityConfig::new(&dir),
        )
        .unwrap();
        assert_eq!(
            (report.checkpoint_epoch, report.replayed_epochs),
            (Some(EPOCHS), 0)
        );
        let recovered = reopened.snapshot();
        assert_eq!(
            (recovered.epoch(), recovered.content_hash()),
            (last.epoch(), last.content_hash())
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_seal_completes_while_a_checkpoint_holds_its_mutex() {
        let (fleet, dir) = durable_fleet("ckpt-held");
        let fleet = Arc::new(fleet);
        fleet.try_ingest_batch(&ops(8)).unwrap();
        fleet.try_seal_epoch().unwrap();
        let writing = fleet
            .durability
            .as_ref()
            .unwrap()
            .checkpoint_dir
            .lock()
            .unwrap();
        let (done, sealed) = std::sync::mpsc::channel();
        let sealer = Arc::clone(&fleet);
        let handle = std::thread::spawn(move || {
            sealer.try_ingest_batch(&ops(16)).unwrap();
            done.send(sealer.try_seal_epoch().unwrap().epoch()).unwrap();
        });
        let epoch = sealed.recv_timeout(std::time::Duration::from_secs(60));
        assert_eq!(epoch, Ok(2), "the seal waited on the checkpoint mutex");
        drop(writing);
        handle.join().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reader_handle_tracks_seals_and_matches_snapshot() {
        let fleet = ShardedFleet::new(2, TwoTierWeights::flat());
        let mut reader = fleet.reader();
        assert_eq!(reader.get().epoch(), 0);
        assert_eq!(reader.cached_epoch(), 0);
        fleet.try_ingest_batch(&ops(12)).unwrap();
        let sealed = fleet.try_seal_epoch().unwrap();
        assert_eq!(reader.cached_epoch(), 0, "revalidation is on demand");
        assert_eq!(reader.get().content_hash(), sealed.content_hash());
        assert_eq!(reader.snapshot().epoch(), fleet.snapshot().epoch());
        assert_eq!(fleet.published_epoch(), 1);
    }

    #[test]
    fn zero_shards_clamps_to_one_and_open_durable_reports_zero_shards() {
        let fleet = ShardedFleet::new(0, TwoTierWeights::flat());
        assert_eq!(fleet.shard_count(), 1);
        fleet.try_ingest_batch(&ops(4)).unwrap();
        assert_eq!(fleet.try_seal_epoch().unwrap().device_count(), 4);
        // The durable constructor reports it instead, before any I/O.
        let durable = ShardedFleet::open_durable(
            0,
            TwoTierWeights::flat(),
            0,
            crate::recover::DurabilityConfig::new("never-opened"),
        );
        assert!(matches!(
            durable.err(),
            Some(crate::error::RecoveryError::Config(
                crate::error::FleetConfigError::ZeroShards
            ))
        ));
    }
}
