//! Regression: a write-ahead log I/O failure inside the ingest path must
//! fail the batch **cleanly** — typed [`IngestError::WalAppend`], no shard
//! mutated, no gate poisoned — while reads and (once the disk is back)
//! seals keep working. The pre-fix behaviour was an `.expect()` inside the
//! gate hold: one `ENOSPC` took down every ingester and poisoned the batch
//! gate for the fleet's lifetime. The same holds for a seal: a
//! [`SealError::Wal`] leaves the served epoch and snapshot as they were.
//!
//! Fault injection: the WAL's segment size is configured tiny, so every
//! append past the first rotates into a fresh segment file; deleting the
//! durability directory makes that `create_new` fail with a real
//! `io::Error` on exactly the append path (root can't be blocked by
//! permission bits, but a missing directory fails for anyone).

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use fi_attest::{ChurnOp, TwoTierWeights};
use fi_fleet::{DurabilityConfig, IngestError, SealError, ShardedFleet, WalError};
use fi_types::{sha256, ReplicaId, VotingPower};

fn tmpdir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("fi-ingest-err-{tag}-{}-{n}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn registrations(base: u64, n: u64) -> Vec<ChurnOp> {
    (0..n)
        .map(|i| {
            ChurnOp::attest(
                ReplicaId::new(base + i),
                sha256(format!("cfg-{}", (base + i) % 3).as_bytes()),
                VotingPower::new(50 + i),
            )
        })
        .collect()
}

/// Tiny segment limit (clamped up to header + frame overhead by the log):
/// every append after the first forces a segment rotation, which is the
/// injection point once the directory is gone.
fn rotating_config(dir: &PathBuf) -> DurabilityConfig {
    DurabilityConfig::new(dir).with_segment_bytes(1)
}

#[test]
fn wal_io_error_fails_the_batch_cleanly_and_reads_keep_serving() {
    let dir = tmpdir("clean-fail");
    let weights = TwoTierWeights::new(1.0, 0.5);
    let (fleet, _) = ShardedFleet::open_durable(2, weights, 4, rotating_config(&dir))
        .expect("cold start on an empty directory");

    let batch_a = registrations(0, 8);
    fleet
        .try_ingest_batch(&batch_a)
        .expect("disk is healthy: first batch must land");
    let sealed = fleet.try_seal_epoch().expect("healthy seal");
    assert_eq!(sealed.epoch(), 1);
    let served_hash = sealed.content_hash();
    assert_eq!(fleet.device_count(), 8);

    // Pull the disk out from under the log: the next append must rotate
    // into a directory that no longer exists.
    fs::remove_dir_all(&dir).expect("inject: drop the durability dir");

    let batch_b = registrations(100, 8);
    let err = fleet
        .try_ingest_batch(&batch_b)
        .expect_err("append into a missing directory must fail");
    assert!(
        matches!(err, IngestError::WalAppend(WalError::Io(_))),
        "typed io error expected, got: {err}"
    );
    // Clean rejection: nothing applied, nothing counted, reads serving.
    assert_eq!(
        fleet.device_count(),
        8,
        "failed batch must not touch shards"
    );
    assert_eq!(fleet.published_epoch(), 1);
    assert_eq!(fleet.snapshot().content_hash(), served_hash);
    assert_eq!(fleet.select_greedy_cached(3).len(), 3);

    // A seal attempt hits the same disk fault, reports it typed, and
    // commits no epoch — the fleet keeps serving epoch 1.
    let seal_err = fleet
        .try_seal_epoch()
        .expect_err("cut marker cannot be logged without a directory");
    assert!(matches!(seal_err, SealError::Wal(_)));
    assert_eq!(fleet.published_epoch(), 1);
    assert_eq!(fleet.snapshot().content_hash(), served_hash);

    // The serving hook reports the same typed failure.
    let hook_err = fleet
        .log_batch(&batch_b)
        .expect_err("log_batch shares the WAL");
    assert!(matches!(hook_err, IngestError::WalAppend(WalError::Io(_))));
    assert_eq!(fleet.device_count(), 8);

    // Repair the disk: the gate was never poisoned, so the same batch now
    // lands and the fleet seals on — end state identical to a run where
    // the rejected attempts never happened.
    fs::create_dir_all(&dir).expect("repair the durability dir");
    fleet
        .try_ingest_batch(&batch_b)
        .expect("retry after repair succeeds");
    assert_eq!(fleet.device_count(), 16);
    let resealed = fleet.try_seal_epoch().expect("seal after repair");
    assert_eq!(resealed.epoch(), 2);

    let control = ShardedFleet::with_reanchor_interval(2, weights, 4);
    control.try_ingest_batch(&batch_a).unwrap();
    let c1 = control.try_seal_epoch().expect("control seal 1");
    assert_eq!(c1.content_hash(), served_hash);
    control.try_ingest_batch(&batch_b).unwrap();
    let c2 = control.try_seal_epoch().expect("control seal 2");
    assert_eq!(
        resealed.content_hash(),
        c2.content_hash(),
        "rejected batches must leave no trace in the sealed state"
    );
}

/// Bytes under `dir`, all files summed.
fn dir_bytes(dir: &PathBuf) -> u64 {
    fs::read_dir(dir)
        .unwrap()
        .map(|entry| entry.unwrap().metadata().unwrap().len())
        .sum()
}

#[test]
fn a_seal_record_that_cannot_be_logged_publishes_nothing_and_the_epoch_is_re_cut() {
    // The seal's one fsync follows its record, and publication follows the
    // fsync: a record that cannot be logged must leave the epoch unserved.
    // Injection: the segment ends exactly where epoch 2's cut marker ends,
    // so the cut appends to the open file and the record must rotate —
    // into a directory that is gone.
    let weights = TwoTierWeights::new(1.0, 0.5);
    let (batch_a, batch_b) = (registrations(0, 8), registrations(100, 8));
    const CUT_FRAME: u64 = 4 + 9 + 4;

    // Probe: the log's length once epoch 1 is sealed and batch b logged.
    let probe = tmpdir("record-probe");
    let log_len = {
        let config = DurabilityConfig::new(&probe);
        let (fleet, _) = ShardedFleet::open_durable(2, weights, 0, config).unwrap();
        fleet.try_ingest_batch(&batch_a).unwrap();
        fleet.try_seal_epoch().unwrap();
        fleet.try_ingest_batch(&batch_b).unwrap();
        dir_bytes(&probe)
    };
    let _ = fs::remove_dir_all(&probe);

    let dir = tmpdir("record-fail");
    let config = DurabilityConfig::new(&dir).with_segment_bytes(log_len + CUT_FRAME);
    let (fleet, _) = ShardedFleet::open_durable(2, weights, 0, config).unwrap();
    fleet.try_ingest_batch(&batch_a).unwrap();
    let served = fleet.try_seal_epoch().expect("healthy seal");
    fleet.try_ingest_batch(&batch_b).unwrap();
    assert_eq!(dir_bytes(&dir), log_len, "no rotation yet");

    fs::remove_dir_all(&dir).expect("inject: drop the durability dir");
    let err = fleet
        .try_seal_epoch()
        .expect_err("the seal record cannot rotate into a missing directory");
    assert!(
        matches!(err, SealError::Wal(WalError::Io(_))),
        "typed io error expected, got: {err}"
    );
    // Nothing was published: epoch 1 keeps serving, bit for bit.
    assert_eq!(fleet.published_epoch(), 1);
    assert_eq!(fleet.snapshot().content_hash(), served.content_hash());
    assert_eq!(
        fleet.device_count(),
        16,
        "the drained batch stays in the shards"
    );

    // Repair: the next seal re-cuts epoch 2, in full, over both batches.
    fs::create_dir_all(&dir).expect("repair the durability dir");
    let resealed = fleet.try_seal_epoch().expect("seal after repair");
    assert_eq!((resealed.epoch(), resealed.parent_hash()), (2, None));
    assert_eq!(fleet.published_epoch(), 2);
    let control = ShardedFleet::new(2, weights);
    control.try_ingest_batch(&batch_a).unwrap();
    control.try_seal_epoch().unwrap();
    control.try_ingest_batch(&batch_b).unwrap();
    assert_eq!(
        resealed.content_hash(),
        control.try_seal_epoch().unwrap().content_hash()
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn serving_hooks_reject_unloggable_flushes_before_any_apply() {
    let dir = tmpdir("hooks");
    let weights = TwoTierWeights::new(1.0, 0.5);
    let (fleet, _) =
        ShardedFleet::open_durable(4, weights, 0, rotating_config(&dir)).expect("cold start");

    let warm = registrations(0, 6);
    fleet
        .log_batch(&warm)
        .expect("healthy log accepts the flush");
    for (shard, ops) in fleet.split_by_shard(&warm).iter().enumerate() {
        fleet.apply_shard_batch(shard, ops);
    }
    assert_eq!(fleet.device_count(), 6);

    fs::remove_dir_all(&dir).expect("inject: drop the durability dir");
    let flush = registrations(50, 6);
    let err = fleet
        .log_batch(&flush)
        .expect_err("flush must be rejected before any sub-batch is enqueued");
    assert!(matches!(err, IngestError::WalAppend(WalError::Io(_))));
    assert_eq!(fleet.device_count(), 6, "rejected flush applied nothing");
}
