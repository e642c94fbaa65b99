//! A log written while `ChurnOp::Attest` still carried its quote's vote key
//! must still recover.
//!
//! `fixtures/keyed-attest/wal-00000000.log` is the one segment a durable
//! 2-shard fleet wrote from two batches of `ChurnOp::from_verified_quote`
//! ops, each record holding its quote's vote key, with a seal after each
//! batch. The op no longer carries a key, but the record layout kept the
//! slot: decoding reads a present key and drops it, so replay re-seals both
//! epochs to the hashes the writer logged, which are also the hashes of the
//! same ops built without keys.

use std::fs;
use std::path::{Path, PathBuf};

use fi_attest::{ChurnOp, TwoTierWeights};
use fi_fleet::{DurabilityConfig, ShardedFleet};
use fi_types::{sha256, KeyPair, ReplicaId, VotingPower};

const SEGMENT: &str = "wal-00000000.log";

/// The content hashes the fixture's writer sealed at epochs 1 and 2.
const SEALED: [&str; 2] = [
    "4ac39b9ee77749c9de7d65699819163059f4e6a4f767aa1c84b10a02f97037cd",
    "9d2d0cff87c8bf4727f3595fed48a0b2c3c50889e5773bf4f527e4186d443bc2",
];

/// `(replica, measurement label, power)` of the fixture's two batches. The
/// writer bound replica `r`'s quote to `KeyPair::from_seed(100 + r)`.
const BATCHES: [&[(u64, &str, u64)]; 2] = [
    &[
        (0, "cfg-0", 10),
        (1, "cfg-1", 11),
        (2, "cfg-2", 12),
        (3, "cfg-0", 13),
        (4, "cfg-1", 14),
        (5, "cfg-2", 15),
    ],
    &[(1, "cfg-3", 20), (6, "cfg-0", 30), (4, "cfg-3", 14)],
];

fn keyless(batch: &[(u64, &str, u64)]) -> Vec<ChurnOp> {
    batch
        .iter()
        .map(|&(replica, cfg, power)| {
            ChurnOp::attest(
                ReplicaId::new(replica),
                sha256(cfg.as_bytes()),
                VotingPower::new(power),
            )
        })
        .collect()
}

fn fixture() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/keyed-attest")
}

#[test]
fn a_log_of_keyed_attest_records_recovers_to_its_last_seal() {
    let logged = fs::read(fixture().join(SEGMENT)).expect("the fixture segment");
    // The fixture really holds keys: every op's quote key is in the bytes.
    for &(replica, _, _) in BATCHES.iter().copied().flatten() {
        let key = KeyPair::from_seed(100 + replica).public_key();
        assert!(
            logged.windows(32).any(|w| w == key.as_bytes()),
            "replica {replica}'s key is missing from the fixture"
        );
    }

    // Reopen a copy: recovery truncates and appends in its directory.
    let dir = std::env::temp_dir().join(format!("fi-keyed-attest-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    fs::write(dir.join(SEGMENT), &logged).unwrap();
    let (fleet, report) =
        ShardedFleet::open_durable(2, TwoTierWeights::default(), 0, DurabilityConfig::new(&dir))
            .expect("a keyed log recovers");
    assert_eq!(report.checkpoint_epoch, None);
    assert_eq!(report.recovered_epoch, 2);
    assert_eq!(report.replayed_epochs, 2);
    assert_eq!(report.replayed_ops, 9);
    assert_eq!(report.pending_ops, 0);
    assert_eq!(report.truncated_bytes, 0);
    assert_eq!(report.verified_seals, 2);
    assert_eq!(fleet.snapshot().content_hash().to_string(), SEALED[1]);
    assert_eq!(fleet.device_count(), 7);
    drop(fleet);
    let _ = fs::remove_dir_all(&dir);

    // The same ops built without keys seal to the same two hashes.
    let fresh = ShardedFleet::new(2, TwoTierWeights::default());
    for (batch, sealed) in BATCHES.iter().zip(SEALED) {
        fresh.try_ingest_batch(&keyless(batch)).unwrap();
        assert_eq!(
            fresh.try_seal_epoch().unwrap().content_hash().to_string(),
            sealed
        );
    }
}
