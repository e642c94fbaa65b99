//! Dispatch from more than one thread — the deployment `FleetServer::new`
//! describes: a dispatcher looping [`FleetServer::pump`] beside a timer
//! looping [`FleetServer::tick`] — must stay equal to a single-threaded
//! replay of the admitted requests **in submit order**.
//!
//! Powers strictly increase in submit order and each device is written by
//! two consecutive requests and never again, so the replay's end state is
//! "each device at the last power admitted for it" and a swap of a
//! device's two requests anywhere in the run is still visible at the end:
//! two requests popped by two threads and windowed in the other order (the
//! coalescer keeps the later *arrival*), or — the three-op flush window
//! splits every other pair — two windows logged and mailed in the other
//! order (the shard applies the older one last). One dispatch lock, taken
//! before the pop and held through the mail, rules both out; with the pop
//! outside the lock and the flush under a second lock, this test fails.
//!
//! A stress test, not a forced interleaving: the server has no seam to
//! park a thread between its pop and its flush. The three threads start
//! together on a barrier and run with no sleeps; CI also runs it in
//! release, where the window is the width the deployment would see.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

use fi_attest::{AttestedRegistry, ChurnOp};
use fi_fleet::{EpochSnapshot, ShardedFleet};
use fi_serve::{scenario_weights, FleetServer, ServeConfig};
use fi_types::{sha256, ReplicaId, VotingPower};

const REQUESTS: u64 = 30_000;

#[test]
fn pump_and_tick_threads_keep_submit_order() {
    for shards in [1usize, 4] {
        let fleet = Arc::new(ShardedFleet::new(shards, scenario_weights()));
        let server = FleetServer::new(
            Arc::clone(&fleet),
            ServeConfig {
                queue_capacity: 256,
                // Odd against the pairs: a device's two requests share a
                // window or straddle two adjacent ones, alternately.
                flush_ops: 3,
                epoch_ticks: 3,
                max_seal_lag_epochs: 0,
            },
        );
        let start = Barrier::new(3);
        let done = AtomicBool::new(false);

        let admitted: Vec<ChurnOp> = std::thread::scope(|scope| {
            let submitter = scope.spawn(|| {
                start.wait();
                let mut admitted = Vec::new();
                for i in 1..=REQUESTS {
                    let op = ChurnOp::attest(
                        ReplicaId::new(i / 2),
                        sha256(format!("cfg-{}", i % 2).as_bytes()),
                        VotingPower::new(i),
                    );
                    // A shed request is simply absent from the replay.
                    if server.submit(vec![op]).is_ok() {
                        admitted.push(op);
                    }
                }
                done.store(true, Ordering::SeqCst);
                admitted
            });
            scope.spawn(|| {
                start.wait();
                while !done.load(Ordering::SeqCst) {
                    server.pump().expect("in-memory fleet: pump cannot fail");
                }
            });
            scope.spawn(|| {
                start.wait();
                while !done.load(Ordering::SeqCst) {
                    server.tick().expect("in-memory fleet: tick cannot fail");
                }
            });
            submitter.join().expect("submitter")
        });

        server.drain().expect("in-memory fleet: drain cannot fail");
        let sealed = fleet.try_seal_epoch().expect("in-memory seal");
        let stats = server.stats();
        server.shutdown().expect("clean shutdown");

        let mut oracle = AttestedRegistry::new(scenario_weights());
        oracle.apply_batch(&admitted);
        let expected = EpochSnapshot::from_registry(&oracle, sealed.epoch());
        let reordered = sealed
            .devices()
            .zip(expected.devices())
            .find(|(got, want)| got != want);
        assert_eq!(
            reordered, None,
            "a device did not end on the last op admitted for it ({shards} shards)"
        );
        assert_eq!(sealed.content_hash(), expected.content_hash());

        assert!(!admitted.is_empty());
        assert_eq!(stats.admitted_ops, admitted.len() as u64);
        assert_eq!(stats.admitted_ops, stats.flushed_ops + stats.coalesced_away);
        assert_eq!(stats.applied_ops, stats.flushed_ops);
    }
}
