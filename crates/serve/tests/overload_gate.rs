//! The acceptance criterion for the overload gate: with admission
//! watermarks engaged, sustained ingest never deadlocks or panics —
//! injected WAL io-errors and queue-full paths both return **typed**
//! errors while reads keep serving.

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use fi_attest::ChurnOp;
use fi_fleet::{DurabilityConfig, ShardedFleet};
use fi_serve::{scenario_weights, FleetServer, Overloaded, ServeConfig, ServeError};
use fi_types::{sha256, ReplicaId, VotingPower};

fn tmpdir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("fi-serve-gate-{tag}-{}-{n}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn request(base: u64, n: u64) -> Vec<ChurnOp> {
    (0..n)
        .map(|i| {
            ChurnOp::attest(
                ReplicaId::new(base + i),
                sha256(b"gate-cfg"),
                VotingPower::new(64),
            )
        })
        .collect()
}

#[test]
fn queue_full_is_a_typed_shed_and_the_queue_recovers() {
    let fleet = Arc::new(ShardedFleet::new(2, scenario_weights()));
    let server = FleetServer::new(
        Arc::clone(&fleet),
        ServeConfig {
            queue_capacity: 2,
            ..ServeConfig::default()
        },
    );
    assert!(server.submit(request(0, 4)).is_ok());
    assert!(server.submit(request(10, 4)).is_ok());
    match server.submit(request(20, 4)) {
        Err(Overloaded::QueueFull { depth, limit }) => {
            assert_eq!((depth, limit), (2, 2));
        }
        other => panic!("expected QueueFull, got {other:?}"),
    }
    // Reads serve throughout, and a pump frees the bound.
    assert_eq!(fleet.snapshot().epoch(), 0);
    server.pump().expect("in-memory pump");
    assert!(server.submit(request(20, 4)).is_ok());
    server.drain().expect("in-memory drain");
    assert_eq!(fleet.device_count(), 12);
    server.shutdown().expect("clean shutdown");
}

#[test]
fn wal_fault_surfaces_typed_grows_seal_lag_and_heals_on_repair() {
    let dir = tmpdir("wal-fault");
    let (fleet, _) = ShardedFleet::open_durable(
        2,
        scenario_weights(),
        0,
        DurabilityConfig::new(&dir).with_segment_bytes(1), // every append past the first rotates
    )
    .expect("cold start");
    let fleet = Arc::new(fleet);
    let server = FleetServer::new(
        Arc::clone(&fleet),
        ServeConfig {
            queue_capacity: 64,
            flush_ops: usize::MAX,
            epoch_ticks: 1,
            max_seal_lag_epochs: 2,
        },
    );

    // Healthy warm-up: one sealed epoch.
    server.submit(request(0, 8)).expect("admitted");
    server.tick().expect("healthy seal");
    assert_eq!(fleet.published_epoch(), 1);
    let served = fleet.snapshot().content_hash();

    // Fault injection: the WAL directory disappears; every flush and
    // every cut marker now fails with a typed io error.
    fs::remove_dir_all(&dir).expect("inject");
    server
        .submit(request(50, 8))
        .expect("still admitted: lag is 0");
    let err = server.tick().expect_err("flush cannot be logged");
    assert!(
        matches!(err, ServeError::Ingest(_)),
        "typed ingest error expected, got {err}"
    );
    // The fleet never saw the unloggable flush; reads keep serving.
    assert_eq!(fleet.snapshot().content_hash(), served);
    assert_eq!(fleet.device_count(), 8);

    // Ticks keep failing (now at the seal, with nothing left to flush);
    // lag grows past the watermark and the admission gate engages.
    let mut lag_shed = None;
    for i in 0..6 {
        match server.submit(request(100 + i * 10, 4)) {
            Ok(()) | Err(Overloaded::QueueFull { .. }) => {}
            Err(shed @ Overloaded::SealLag { .. }) => {
                lag_shed = Some(shed);
                break;
            }
        }
        let tick_err = server.tick().expect_err("disk still gone");
        assert!(matches!(
            tick_err,
            ServeError::Ingest(_) | ServeError::Seal(_)
        ));
    }
    match lag_shed {
        Some(Overloaded::SealLag { lag_epochs, limit }) => {
            assert!(lag_epochs > limit, "shed fired past the watermark");
        }
        other => panic!("seal lag watermark never engaged: {other:?}"),
    }
    // Still no deadlock, no panic, reads still serving epoch 1.
    assert_eq!(fleet.published_epoch(), 1);
    assert_eq!(fleet.snapshot().content_hash(), served);

    // Repair the disk: the next tick seals whatever is queued and the
    // gate disengages (lag resets on the successful seal).
    fs::create_dir_all(&dir).expect("repair");
    let sealed = loop {
        match server.tick() {
            Ok(Some(snapshot)) => break snapshot,
            Ok(None) => {}
            Err(e) => panic!("post-repair tick must seal: {e}"),
        }
    };
    assert!(sealed.epoch() >= 2);
    server
        .submit(request(200, 4))
        .expect("admission gate disengaged after the seal");
    server.shutdown().expect("clean shutdown");
}
