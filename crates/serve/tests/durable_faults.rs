//! The serving path's failure story, end to end, on a durable fleet: a
//! disk fault rejects a flush and a seal as **typed** errors that the
//! counters record and that leave the served state untouched; once the
//! disk is back the server carries on, and what it sealed afterwards is
//! what a reopen of the directory recovers.
//!
//! Fault injection as in `fi-fleet`'s `ingest_errors.rs`: a one-byte
//! segment limit makes every append rotate into a fresh segment file, so
//! removing the durability directory fails the next append — a batch
//! record or a cut marker — with a real `io::Error`.

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
    DurabilityConfig::new(dir)
        .with_segment_bytes(1)
        .with_checkpoint_interval(1)
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
