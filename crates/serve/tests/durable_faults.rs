//! The serving path's failure story, end to end, on a durable fleet: a
//! disk fault rejects a flush and a seal as **typed** errors that the
//! counters record and that leave the served state untouched; once the
//! disk is back the server carries on, and what it sealed afterwards is
//! what a reopen of the directory recovers. A failed checkpoint is typed
//! apart from a failed seal: its epoch was sealed, and counts as sealed.
//!
//! Fault injection as in `fi-fleet`'s `ingest_errors.rs`: a one-byte
//! segment limit makes every append rotate into a fresh segment file, so
//! removing the durability directory fails the next append — a batch
//! record or a cut marker — with a real `io::Error`. A directory where a
//! checkpoint stages its file fails that checkpoint alone.

use std::fs;
use std::path::Path;
use std::sync::Arc;

use fi_attest::ChurnOp;
use fi_fleet::{DurabilityConfig, ShardedFleet};
use fi_serve::{scenario_weights, FleetServer, ServeConfig, ServeError};
use fi_types::{sha256, ReplicaId, VotingPower};

fn request(base: u64, n: u64) -> Vec<ChurnOp> {
    (0..n)
        .map(|i| {
            ChurnOp::attest(
                ReplicaId::new(base + i),
                sha256(format!("cfg-{}", (base + i) % 3).as_bytes()),
                VotingPower::new(10 + i),
            )
        })
        .collect()
}

fn durability(dir: &Path) -> DurabilityConfig {
    DurabilityConfig::new(dir).with_segment_bytes(1)
}

#[test]
fn a_disk_fault_is_typed_counted_and_leaves_no_trace_after_repair() {
    let dir = std::env::temp_dir().join(format!("fi-serve-durable-faults-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let (fleet, _) = ShardedFleet::open_durable(2, scenario_weights(), 4, durability(&dir))
        .expect("cold start on an empty directory");
    let fleet = Arc::new(fleet);
    let server = FleetServer::new(
        Arc::clone(&fleet),
        ServeConfig {
            epoch_ticks: 1,
            max_seal_lag_epochs: 0,
            ..ServeConfig::default()
        },
    );

    // Healthy: one request, one sealed epoch.
    server.submit(request(0, 8)).expect("admitted");
    let first = server.tick().expect("healthy seal").expect("seal tick");
    fleet.checkpoint().expect("healthy checkpoint");
    assert_eq!(first.epoch(), 1);
    let served = first.content_hash();
    assert_eq!(fleet.device_count(), 8);

    // The disk goes away. The next flush cannot be logged: typed error,
    // counted, and no shard saw any of it.
    fs::remove_dir_all(&dir).expect("inject: drop the durability dir");
    server.submit(request(100, 8)).expect("admitted");
    let err = server.drain().expect_err("the flush cannot be logged");
    assert!(matches!(err, ServeError::Ingest(_)), "got {err}");
    let stats = server.stats();
    assert_eq!(stats.wal_rejected_flushes, 1);
    assert_eq!((stats.flushes, stats.flushed_ops), (1, 8));
    assert_eq!(fleet.device_count(), 8);
    assert_eq!(fleet.snapshot().content_hash(), served);

    // The sealing tick has nothing left to flush and fails at the cut
    // marker: typed, counted, no epoch committed.
    let err = server.tick().expect_err("the cut marker cannot be logged");
    assert!(matches!(err, ServeError::Seal(_)), "got {err}");
    let stats = server.stats();
    assert_eq!((stats.seal_failures, stats.epochs_sealed), (1, 1));
    assert_eq!(fleet.published_epoch(), 1);
    assert_eq!(fleet.snapshot().content_hash(), served);

    // The disk comes back: later submits land and the next tick seals.
    fs::create_dir_all(&dir).expect("repair the durability dir");
    server.submit(request(200, 8)).expect("admitted");
    let second = server
        .tick()
        .expect("seal after repair")
        .expect("seal tick");
    fleet.checkpoint().expect("checkpoint after repair");
    assert_eq!(second.epoch(), 2);
    assert_eq!(fleet.device_count(), 16);
    let stats = server.stats();
    assert_eq!((stats.wal_rejected_flushes, stats.seal_failures), (1, 1));
    assert_eq!((stats.flushes, stats.epochs_sealed), (2, 2));
    assert_eq!(stats.applied_ops, stats.flushed_ops);

    // The rejected flush left no trace: the epoch equals a fleet that was
    // only ever given the two requests that landed.
    let control = ShardedFleet::with_reanchor_interval(2, scenario_weights(), 4);
    control.try_ingest_batch(&request(0, 8)).unwrap();
    control.try_seal_epoch().unwrap();
    control.try_ingest_batch(&request(200, 8)).unwrap();
    assert_eq!(
        second.content_hash(),
        control.try_seal_epoch().unwrap().content_hash()
    );

    // And a reopen of the directory recovers exactly that epoch.
    let sealed = second.content_hash();
    server.shutdown().expect("nothing pending");
    drop(fleet);
    let (reopened, report) = ShardedFleet::open_durable(2, scenario_weights(), 4, durability(&dir))
        .expect("the repaired directory recovers");
    assert_eq!(report.recovered_epoch, 2);
    assert_eq!(report.pending_ops, 0);
    assert_eq!(reopened.snapshot().content_hash(), sealed);
    assert_eq!(reopened.device_count(), 16);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn a_failed_checkpoint_is_not_a_failed_seal() {
    let dir = std::env::temp_dir().join(format!("fi-serve-ckpt-fault-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let open = || ShardedFleet::open_durable(2, scenario_weights(), 4, DurabilityConfig::new(&dir));
    let (fleet, _) = open().expect("cold start on an empty directory");
    let server = FleetServer::new(
        Arc::new(fleet),
        ServeConfig {
            epoch_ticks: 1,
            ..ServeConfig::default()
        },
    );
    // Epoch 8's checkpoint cannot open its staging file, which is a
    // directory; the log is untouched, so every seal succeeds.
    let staging = dir.join("ckpt-0000000000000008.tmp");
    fs::create_dir_all(&staging).expect("inject: block the staging file");
    let mut ticks = (0..16u64).map(|i| {
        server.submit(request(i * 10, 4)).expect("admitted");
        server.tick()
    });
    for epoch in 1..8 {
        let sealed = ticks.next().unwrap().expect("healthy tick");
        assert_eq!(sealed.map(|s| s.epoch()), Some(epoch));
    }
    let err = ticks
        .next()
        .unwrap()
        .expect_err("epoch 8's checkpoint fails");
    assert!(matches!(err, ServeError::Checkpoint(_)), "got {err}");
    assert_eq!(server.fleet().published_epoch(), 8);
    let stats = server.stats();
    assert_eq!((stats.epochs_sealed, stats.seal_failures), (8, 0));

    // Unblocked, the next due checkpoint lands and anchors a reopen.
    fs::remove_dir(&staging).expect("repair");
    for result in ticks {
        result.expect("healthy tick").expect("seal tick");
    }
    let sealed = server.fleet().snapshot();
    assert_eq!(sealed.epoch(), 16);
    assert!(dir.join("ckpt-0000000000000016.fic").exists());
    server.shutdown().expect("nothing pending");
    let (reopened, report) = open().expect("the directory recovers");
    assert_eq!(
        (report.recovered_epoch, report.checkpoint_epoch),
        (16, Some(16))
    );
    assert_eq!(reopened.snapshot().content_hash(), sealed.content_hash());
    let _ = fs::remove_dir_all(&dir);
}
