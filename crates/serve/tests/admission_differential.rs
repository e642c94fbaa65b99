//! The overload-safety property the admission gate must provide:
//! **admission-rejected requests are never partially applied** — not to
//! the shards, not to the write-ahead log.
//!
//! Strategy: a durable [`FleetServer`] with a deliberately tiny ingress
//! bound runs random bursty traffic in lockstep, shedding whatever
//! crosses the bound. An oracle durable fleet (same WAL segment size, its
//! own directory) then ingests *only the admitted requests* — coalesced
//! through the same public [`Coalescer`] with the same per-tick windows —
//! and seals at the same ticks. If rejected requests leaked even one op
//! anywhere, either the sealed content hashes or the raw WAL bytes would
//! diverge; both must be **byte-identical**.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use fi_attest::ChurnOp;
use fi_fleet::{DurabilityConfig, ShardedFleet};
use fi_serve::{scenario_weights, Coalescer, FleetServer, ServeConfig};
use fi_types::{sha256, ReplicaId, VotingPower};
use proptest::prelude::*;

const SEGMENT_BYTES: u64 = 2048;

fn tmpdir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("fi-serve-adm-{tag}-{}-{n}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn durable(dir: &Path, shards: usize) -> ShardedFleet {
    let (fleet, _) = ShardedFleet::open_durable(
        shards,
        scenario_weights(),
        0,
        DurabilityConfig::new(dir).with_segment_bytes(SEGMENT_BYTES),
    )
    .expect("cold start");
    fleet
}

/// All WAL segment files under `dir`, as (name, bytes), name-sorted.
fn wal_bytes(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut segments: Vec<(String, Vec<u8>)> = fs::read_dir(dir)
        .expect("durability dir exists")
        .map(|e| e.expect("dir entry"))
        .filter(|e| e.file_name().to_string_lossy().starts_with("wal-"))
        .map(|e| {
            (
                e.file_name().to_string_lossy().into_owned(),
                fs::read(e.path()).expect("segment readable"),
            )
        })
        .collect();
    segments.sort();
    segments
}

fn op_strategy() -> impl Strategy<Value = ChurnOp> {
    (0u8..10, 0u64..30, 0usize..5, 1u64..400).prop_map(|(kind, device, m, power)| {
        let replica = ReplicaId::new(device);
        let measurement = sha256(format!("adm-cfg-{m}").as_bytes());
        match kind {
            0..=6 => ChurnOp::attest(replica, measurement, VotingPower::new(power)),
            7 => ChurnOp::Unattested {
                replica,
                power: VotingPower::new(power),
            },
            _ => ChurnOp::Deregister { replica },
        }
    })
}

/// A tick's burst: up to 12 requests of up to 8 ops each — often more
/// than the tiny ingress bound admits, so sheds are common.
fn tick_strategy() -> impl Strategy<Value = Vec<Vec<ChurnOp>>> {
    proptest::collection::vec(proptest::collection::vec(op_strategy(), 1..8), 0..12)
}

proptest! {
    // Pinned case count, as in the fleet differential suites; each case
    // does real file I/O so the count stays modest.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn rejected_requests_leave_no_trace_in_state_or_wal(
        ticks in proptest::collection::vec(tick_strategy(), 1..6),
        queue_capacity in 1usize..4,
        shards in 1usize..5,
    ) {
        let serve_dir = tmpdir("serve");
        let oracle_dir = tmpdir("oracle");

        // --- The server under test: tiny ingress bound, flush only at
        // the per-tick seal barrier (epoch_ticks = 1), so each tick is
        // one coalescing window.
        let fleet = Arc::new(durable(&serve_dir, shards));
        let server = FleetServer::new(Arc::clone(&fleet), ServeConfig {
            queue_capacity,
            flush_ops: usize::MAX,
            epoch_ticks: 1,
            max_seal_lag_epochs: 0,
        });
        let mut admitted_per_tick: Vec<Vec<Vec<ChurnOp>>> = Vec::new();
        for burst in &ticks {
            let mut admitted = Vec::new();
            for request in burst {
                if server.submit(request.clone()).is_ok() {
                    admitted.push(request.clone());
                }
            }
            // No pump between submits: the whole burst contends for the
            // bound at once, so the tail sheds deterministically.
            server.tick().expect("healthy disk: tick seals");
            admitted_per_tick.push(admitted);
        }
        let serve_hash = fleet.snapshot().content_hash();
        let serve_epoch = fleet.snapshot().epoch();
        let serve_count = fleet.device_count();
        server.shutdown().expect("clean shutdown");
        drop(fleet);

        // --- The oracle: the same admitted requests, same windows, same
        // coalescer, straight into a durable fleet. Rejected requests
        // simply do not exist here.
        let oracle = durable(&oracle_dir, shards);
        for admitted in &admitted_per_tick {
            let mut window = Coalescer::new();
            for request in admitted {
                window.extend(request.iter().copied());
            }
            oracle
                .try_ingest_batch(&window.take())
                .expect("healthy disk");
            oracle.try_seal_epoch().expect("healthy disk");
        }

        prop_assert_eq!(oracle.snapshot().epoch(), serve_epoch);
        prop_assert_eq!(oracle.snapshot().content_hash(), serve_hash);
        prop_assert_eq!(oracle.device_count(), serve_count);
        // Byte-level: the logs are identical, so no rejected op was ever
        // framed, and batch/cut interleaving matched exactly.
        prop_assert_eq!(wal_bytes(&oracle_dir), wal_bytes(&serve_dir));

        let _ = fs::remove_dir_all(&serve_dir);
        let _ = fs::remove_dir_all(&oracle_dir);
    }
}
