//! Differential concurrency suite for the publication path.
//!
//! A bare locked publication point (`RwLock<Arc<EpochSnapshot>>`) is easy
//! to trust: readers clone under a read guard, so a snapshot can never be
//! observed torn and the served epoch never moves backwards. The fleet's
//! [`SnapshotCell`] adds an epoch stamp beside such a slot, and
//! [`SnapshotHandle`] a per-reader cache revalidated by one relaxed load
//! of it; together they must earn the same trust. This suite runs real
//! reader threads against real concurrent sealers at shard counts
//! {1, 2, 4, 8} and proves, per observation:
//!
//! * **Byte-identity with the locked oracle.** Alongside the fleet's
//!   cell, the tests maintain the bare scheme — a
//!   `RwLock<Arc<EpochSnapshot>>` updated at every seal — and a committed
//!   ledger of every sealed epoch's content hash and greedy-committee
//!   selection. Every snapshot any reader obtains from the fleet
//!   (raw [`ShardedFleet::snapshot`] loads and cached
//!   [`SnapshotHandle`] reads alike) must match the ledger for its epoch
//!   on both content hash and selection — i.e. be byte-identical to what
//!   the locked path would have served for that epoch. A torn or
//!   half-published snapshot would hash to garbage and fail here.
//! * **Epoch monotonicity.** No reader ever observes the published epoch
//!   decreasing, through either the cell or a cached handle, while
//!   sealers race.
//! * **Selection-cache parity.** Readers also route selections through the
//!   fleet's shared [`SelectionCache`](fi_fleet::SelectionCache) — hits,
//!   warm-chained misses, and evictions all racing the sealers — and every
//!   memoized committee must be byte-identical to the ledger's committed
//!   cold selection for that snapshot's epoch.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use fi_attest::{ChurnOp, TwoTierWeights};
use fi_committee::Candidate;
use fi_fleet::{EpochSnapshot, ShardedFleet};
use fi_types::{sha256, Digest, ReplicaId, VotingPower};

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];
const SELECT_K: usize = 6;

fn ops(lo: u64, hi: u64) -> Vec<ChurnOp> {
    (lo..hi)
        .map(|i| {
            ChurnOp::attest(
                ReplicaId::new(i % 96),
                sha256(format!("stress-cfg-{}", i % 7).as_bytes()),
                VotingPower::new(5 + i % 11),
            )
        })
        .collect()
}

/// What the suite commits per sealed epoch and checks per observation:
/// content hash plus the greedy committee, so both the monitoring and the
/// selection read paths are pinned.
fn commitment(snap: &EpochSnapshot) -> (Digest, Vec<Candidate>) {
    (
        snap.content_hash(),
        snap.select_greedy(SELECT_K).members().to_vec(),
    )
}

/// One reader's record of a snapshot it observed: which epoch, through
/// which path, and what the snapshot's committed content looked like.
struct Observation {
    epoch: u64,
    hash: Digest,
    members: Option<Vec<Candidate>>,
}

/// Drives `readers` reader threads (each holding a cached handle and also
/// issuing raw `snapshot()` loads) against `sealers` sealer threads and one
/// ingest thread, then validates every observation against the sealed
/// ledger and the locked-oracle mirror.
fn run_stress(shards: usize, sealers: usize, readers: usize, seals_per_sealer: usize) {
    let fleet = ShardedFleet::with_reanchor_interval(shards, TwoTierWeights::flat(), 3);
    // The locked oracle: a bare publication slot, updated at every seal
    // (epoch-guarded, as `publish` asserts).
    let locked: RwLock<Arc<EpochSnapshot>> = RwLock::new(fleet.snapshot());
    // epoch → (content hash, greedy committee) for every snapshot any
    // reader could legitimately observe.
    let sealed: Mutex<BTreeMap<u64, (Digest, Vec<Candidate>)>> = Mutex::new(BTreeMap::new());
    sealed
        .lock()
        .unwrap()
        .insert(0, commitment(&fleet.snapshot()));
    let done = AtomicBool::new(false);

    let observations: Vec<Vec<Observation>> = std::thread::scope(|scope| {
        let fleet = &fleet;
        let locked = &locked;
        let sealed = &sealed;
        let done = &done;

        scope.spawn(move || {
            for i in 0..40u64 {
                fleet.try_ingest_batch(&ops(i * 12, i * 12 + 12)).unwrap();
            }
        });

        let seal_handles: Vec<_> = (0..sealers)
            .map(|_| {
                scope.spawn(move || {
                    for _ in 0..seals_per_sealer {
                        let snap = fleet.try_seal_epoch().unwrap();
                        sealed
                            .lock()
                            .unwrap()
                            .insert(snap.epoch(), commitment(&snap));
                        let mut current = locked.write().unwrap();
                        if snap.epoch() > current.epoch() {
                            *current = snap;
                        }
                    }
                })
            })
            .collect();

        let reader_handles: Vec<_> = (0..readers)
            .map(|_| {
                scope.spawn(move || {
                    let mut handle = fleet.reader();
                    let mut last_epoch = 0u64;
                    let mut seen = Vec::new();
                    let mut i = 0usize;
                    // Keep reading until every sealer is finished (so the
                    // tail epochs are observed too), with a floor that
                    // guarantees real overlap even on a fast run.
                    while i < 256 || !done.load(Ordering::Relaxed) {
                        // Alternate the cached fast path with raw loads —
                        // both ways to read the cell.
                        let snap = if i.is_multiple_of(3) {
                            fleet.snapshot()
                        } else {
                            handle.snapshot()
                        };
                        let epoch = snap.epoch();
                        assert!(
                            epoch >= last_epoch,
                            "reader observed the epoch move backwards: {last_epoch} → {epoch}"
                        );
                        last_epoch = epoch;
                        // Cheap internal-coherence probes on every read;
                        // the full committed-content check happens against
                        // the ledger after the run.
                        assert_eq!(snap.device_count(), snap.candidates().len());
                        seen.push(Observation {
                            epoch,
                            hash: snap.content_hash(),
                            members: if i.is_multiple_of(32) {
                                Some(snap.select_greedy(SELECT_K).members().to_vec())
                            } else if i.is_multiple_of(8) {
                                // The memoized path, racing sealers whose
                                // newer epochs concurrently insert (and
                                // evict) entries: whatever the cache state,
                                // the answer must be byte-identical to this
                                // snapshot's cold selection.
                                Some(
                                    fleet
                                        .selection_cache()
                                        .select_greedy(&snap, SELECT_K)
                                        .members()
                                        .to_vec(),
                                )
                            } else {
                                None
                            },
                        });
                        i += 1;
                    }
                    seen
                })
            })
            .collect();

        for handle in seal_handles {
            handle.join().expect("sealer thread");
        }
        done.store(true, Ordering::Relaxed);
        reader_handles
            .into_iter()
            .map(|h| h.join().expect("reader thread"))
            .collect()
    });

    // The fleet's cell and the locked oracle agree at quiescence…
    let final_epoch = (sealers * seals_per_sealer) as u64;
    let served = fleet.snapshot();
    let via_lock = locked.read().unwrap();
    assert_eq!(served.epoch(), final_epoch);
    assert_eq!(via_lock.epoch(), final_epoch);
    assert_eq!(served.content_hash(), via_lock.content_hash());
    assert_eq!(fleet.published_epoch(), final_epoch);

    // …and every snapshot every reader ever observed is byte-identical to
    // the ledger's committed content for that epoch: same hash, same
    // committee. Nothing torn, nothing unsealed, nothing reordered.
    let ledger = sealed.into_inner().unwrap();
    let mut checked = 0usize;
    for observation in observations.iter().flatten() {
        let (hash, members) = ledger.get(&observation.epoch).unwrap_or_else(|| {
            panic!(
                "reader observed epoch {} which no sealer committed",
                observation.epoch
            )
        });
        assert_eq!(
            &observation.hash, hash,
            "observed snapshot at epoch {} is not byte-identical to the sealed one",
            observation.epoch
        );
        if let Some(observed_members) = &observation.members {
            assert_eq!(
                observed_members, members,
                "selection parity broke at epoch {}",
                observation.epoch
            );
        }
        checked += 1;
    }
    assert!(
        checked >= readers * 64,
        "stress run produced implausibly few observations: {checked}"
    );

    // The memoized path actually served repeated queries from cache while
    // racing the sealers (readers share one fleet-level cache, and each
    // issues many queries per epoch).
    let stats = fleet.selection_cache().stats();
    assert!(
        stats.hits > 0 && stats.misses > 0,
        "cache saw no traffic under stress: {stats:?}"
    );
}

#[test]
fn wait_free_reads_are_byte_identical_to_the_locked_oracle() {
    for shards in SHARD_COUNTS {
        run_stress(shards, 2, 3, 4);
    }
}

#[test]
fn epoch_monotonicity_holds_under_heavy_reader_sealer_races() {
    // One shard count, turned up: more sealers than cores, re-anchor
    // cadence 3 so differential and full seals interleave while six
    // readers hammer both read paths.
    run_stress(4, 3, 6, 5);
}
