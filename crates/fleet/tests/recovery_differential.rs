//! Crash-point recovery differential: random churn traces are run through
//! a durable fleet, the process "dies" at a random point — cleanly, with a
//! torn WAL tail, with a corrupted final segment, or with its newest
//! checkpoint destroyed — and recovery must come back to a prefix of the
//! pre-crash epoch history **bit-identically**: the recovered epoch's
//! content hash equals the hash the pre-crash run sealed at that epoch,
//! for every recovery shard count.
//!
//! The damage modes map to the recovery contract:
//!
//! * **clean** — full history survives; recovery lands on the final epoch.
//! * **torn tail** — trailing bytes of the final segment vanish (frames
//!   that never reached the disk); recovery lands on an earlier epoch.
//! * **corrupt final segment** — a flipped byte truncates the log at the
//!   damaged frame, as a torn tail.
//! * **lost checkpoint** — the newest checkpoint is deleted; recovery
//!   falls back to an older one (or genesis) and replays a longer tail.
//!
//! Two more crash points need no random trace and have their own tests: a
//! crash *inside* the creation of the next WAL segment, which leaves a
//! final segment shorter than its header and loses nothing; and power
//! loss or a process crash right after each seal and after the batch that
//! follows it, which pins the durability contract stated in `wal.rs`.
//!
//! Damage can also swallow the cut marker of the newest *surviving*
//! checkpoint; recovery then refuses with [`RecoveryError::MissingCut`]
//! rather than serving state it cannot anchor — the only acceptable
//! failure in this suite.

use std::fs::{self, OpenOptions};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use fi_attest::{ChurnOp, TwoTierWeights};
use fi_fleet::{DurabilityConfig, RecoveryError, ShardedFleet};
use fi_types::{sha256, Digest, ReplicaId, VotingPower};
use proptest::prelude::*;

/// Recovery is exercised into these shard counts for every damage case —
/// re-sharding on restart must be invisible.
const RECOVERY_SHARDS: [usize; 2] = [1, 4];

/// WAL segment header bytes (magic + version + sequence). The random
/// damage modes stay above this offset: they model frames that never
/// reached the disk, and a header is on it before its first frame is
/// written.
const WAL_HEADER_LEN: u64 = 20;

fn tmpdir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("fi-recover-diff-{tag}-{}-{n}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn weights() -> TwoTierWeights {
    TwoTierWeights::new(1.0, 0.5)
}

/// Small device and measurement spaces, as in the fleet differential
/// suite: collisions and cross-shard bucket merges are the interesting
/// regime for replay too.
fn op_strategy() -> impl Strategy<Value = ChurnOp> {
    (0u8..10, 0u64..24, 0usize..6, 0u64..500).prop_map(|(kind, device, m, power)| {
        let replica = ReplicaId::new(device);
        let measurement = sha256(format!("rec-cfg-{m}").as_bytes());
        match kind {
            0..=5 => ChurnOp::attest(replica, measurement, VotingPower::new(power)),
            6..=7 => ChurnOp::Unattested {
                replica,
                power: VotingPower::new(power),
            },
            _ => ChurnOp::Deregister { replica },
        }
    })
}

/// How the pre-crash process dies.
#[derive(Debug, Clone, Copy)]
enum CrashMode {
    Clean,
    TornTail { bytes: u64 },
    CorruptFinalSegment { offset: u64 },
    LoseNewestCheckpoint,
}

fn crash_mode_strategy() -> impl Strategy<Value = CrashMode> {
    prop_oneof![
        Just(CrashMode::Clean),
        (1u64..200).prop_map(|bytes| CrashMode::TornTail { bytes }),
        (0u64..2_000).prop_map(|offset| CrashMode::CorruptFinalSegment { offset }),
        Just(CrashMode::LoseNewestCheckpoint),
    ]
}

/// The newest `wal-*.log` segment under `dir`.
fn final_segment(dir: &Path) -> Option<PathBuf> {
    let mut segments: Vec<PathBuf> = fs::read_dir(dir)
        .ok()?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("wal-") && n.ends_with(".log"))
        })
        .collect();
    segments.sort();
    segments.pop()
}

/// The newest `ckpt-*.fic` file under `dir`.
fn newest_checkpoint(dir: &Path) -> Option<PathBuf> {
    let mut found: Vec<PathBuf> = fs::read_dir(dir)
        .ok()?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("ckpt-") && n.ends_with(".fic"))
        })
        .collect();
    found.sort();
    found.pop()
}

fn inflict(dir: &Path, mode: CrashMode) {
    match mode {
        CrashMode::Clean => {}
        CrashMode::TornTail { bytes } => {
            if let Some(path) = final_segment(dir) {
                let len = fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
                // A tear that loses frames stops at the header: creation
                // fsynced it before any frame followed. (A final segment
                // *shorter* than its header holds no frame at all; see
                // `a_crash_inside_segment_creation_loses_nothing`.)
                let new_len = len.saturating_sub(bytes).max(WAL_HEADER_LEN.min(len));
                let f = OpenOptions::new().write(true).open(&path).unwrap();
                f.set_len(new_len).unwrap();
            }
        }
        CrashMode::CorruptFinalSegment { offset } => {
            if let Some(path) = final_segment(dir) {
                let mut bytes = fs::read(&path).unwrap();
                if bytes.len() as u64 > WAL_HEADER_LEN {
                    let span = bytes.len() as u64 - WAL_HEADER_LEN;
                    let idx = (WAL_HEADER_LEN + offset % span) as usize;
                    bytes[idx] ^= 0x5A;
                    fs::write(&path, &bytes).unwrap();
                }
            }
        }
        CrashMode::LoseNewestCheckpoint => {
            if let Some(path) = newest_checkpoint(dir) {
                fs::remove_file(path).unwrap();
            }
        }
    }
}

#[test]
fn a_crash_inside_segment_creation_loses_nothing() {
    // Six sealed epochs over 64-byte segments, then the process dies while
    // creating the next segment: `wal-<next>.log` exists with five of its
    // twenty header bytes. Rotation fsynced the outgoing segment first and
    // no frame can precede a header, so every acknowledged byte is on disk
    // and recovery must land on epoch 6, bit for bit.
    let dir = tmpdir("segment-creation");
    let config = DurabilityConfig::new(&dir)
        .with_segment_bytes(64)
        .with_checkpoint_interval(0);
    let sealed = {
        let (fleet, _) = ShardedFleet::open_durable(2, weights(), 0, config.clone()).unwrap();
        for epoch in 0..6u64 {
            let ops: Vec<ChurnOp> = (0..8u64)
                .map(|i| {
                    ChurnOp::attest(
                        ReplicaId::new(epoch * 4 + i),
                        sha256(format!("rec-cfg-{}", i % 3).as_bytes()),
                        VotingPower::new(10 + epoch + i),
                    )
                })
                .collect();
            fleet.try_ingest_batch(&ops).unwrap();
            fleet.try_seal_epoch().unwrap();
        }
        fleet.snapshot()
    };
    assert_eq!(sealed.epoch(), 6);
    let newest = final_segment(&dir).expect("the run wrote segments");
    let seq: u64 = newest.file_stem().unwrap().to_str().unwrap()["wal-".len()..]
        .parse()
        .unwrap();
    fs::write(dir.join(format!("wal-{:08}.log", seq + 1)), b"FIWAL").unwrap();

    for shards in RECOVERY_SHARDS {
        let (fleet, report) =
            ShardedFleet::open_durable(shards, weights(), 0, config.clone()).unwrap();
        let snap = fleet.snapshot();
        assert_eq!(report.recovered_epoch, 6);
        assert_eq!(snap.content_hash(), sealed.content_hash());
        assert_eq!(
            snap.entropy_bits(true).map(f64::to_bits),
            sealed.entropy_bits(true).map(f64::to_bits)
        );
        assert!(report.verified_seals > 0);
        // Only the first reopen finds the stub; it re-creates the segment.
        assert_eq!(report.truncated_bytes, if shards == 1 { 5 } else { 0 });
    }
    let _ = fs::remove_dir_all(&dir);
}

/// A copy of every file under `dir`, in a fresh directory.
fn copy_dir(dir: &Path, tag: &str) -> PathBuf {
    let copy = tmpdir(tag);
    fs::create_dir_all(&copy).unwrap();
    for entry in fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        fs::copy(&path, copy.join(path.file_name().unwrap())).unwrap();
    }
    copy
}

#[test]
fn power_loss_keeps_every_returned_seal_and_a_crash_every_acknowledged_batch() {
    // A seal fsyncs its epoch before it returns, so a copy of the
    // directory taken right then holds nothing unsynced: it is what power
    // loss could leave, and recovery must land on that seal with nothing
    // pending. The batch acknowledged next is written but not synced; a
    // copy with its bytes is what a process crash leaves, and recovery
    // must land on the same epoch with that batch pending. 256-byte
    // segments make every seal's cut open a new segment, and a checkpoint
    // every 3 seals moves the replay start along the way.
    let dir = tmpdir("power-loss");
    let config = DurabilityConfig::new(&dir)
        .with_segment_bytes(256)
        .with_checkpoint_interval(3);
    let ops = |from: u64, n: u64| -> Vec<ChurnOp> {
        (from..from + n)
            .map(|i| {
                ChurnOp::attest(
                    ReplicaId::new(i % 30),
                    sha256(format!("rec-cfg-{}", i % 4).as_bytes()),
                    VotingPower::new(5 + i),
                )
            })
            .collect()
    };
    let (fleet, _) = ShardedFleet::open_durable(2, weights(), 0, config.clone()).unwrap();
    let mut newest_at_last_seal = std::ffi::OsString::new();
    for epoch in 1..=7u64 {
        fleet.try_ingest_batch(&ops(epoch * 100, 12)).unwrap();
        let sealed = fleet.try_seal_epoch().unwrap();
        let expected = (sealed.epoch(), sealed.content_hash());
        assert_eq!(expected.0, epoch);
        let at_seal = copy_dir(&dir, "power-loss-at-seal");
        let unsealed = ops(epoch * 100 + 50, 5);
        fleet.try_ingest_batch(&unsealed).unwrap();
        let after_batch = copy_dir(&dir, "power-loss-after-batch");

        let newest = final_segment(&at_seal)
            .unwrap()
            .file_name()
            .unwrap()
            .to_owned();
        assert!(
            newest > newest_at_last_seal,
            "epoch {epoch}'s seal rotated no segment"
        );
        newest_at_last_seal = newest;
        for (copy, pending) in [(at_seal, 0), (after_batch, unsealed.len() as u64)] {
            for shards in RECOVERY_SHARDS {
                let config = DurabilityConfig {
                    dir: copy.clone(),
                    ..config.clone()
                };
                let (recovered, report) =
                    ShardedFleet::open_durable(shards, weights(), 0, config).unwrap();
                let snap = recovered.snapshot();
                assert_eq!((snap.epoch(), snap.content_hash()), expected, "{copy:?}");
                assert_eq!(report.pending_ops, pending, "{copy:?}");
                assert_eq!(
                    report.checkpoint_epoch,
                    (epoch >= 3).then_some(epoch / 3 * 3)
                );
            }
            let _ = fs::remove_dir_all(&copy);
        }
    }
    drop(fleet);
    let _ = fs::remove_dir_all(&dir);
}

proptest! {
    // Pinned case count: the vendored proptest runner derives every case
    // seed from the test name, so this suite is reproducible bit-for-bit.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The crash-point differential (see the module docs).
    #[test]
    fn recovery_lands_on_a_bit_identical_epoch_prefix(
        ops in proptest::collection::vec(op_strategy(), 1..160),
        batch in 1usize..40,
        wide_shards in proptest::bool::ANY,
        checkpoint_interval in prop_oneof![Just(0u64), Just(1u64), Just(3u64)],
        reanchor in prop_oneof![Just(0u64), Just(3u64)],
        mode in crash_mode_strategy(),
    ) {
        let dir = tmpdir("case");
        let pre_shards = if wide_shards { 4 } else { 1 };
        // Tiny segments force rotation so the damage modes hit a rotated
        // log, not always a single segment.
        let config = DurabilityConfig::new(&dir)
            .with_segment_bytes(2_048)
            .with_checkpoint_interval(checkpoint_interval);

        // Pre-crash run: seal after every batch, recording the per-epoch
        // content hashes — the oracle the recovered fleet is diffed against.
        let mut epoch_hashes: Vec<Digest> = Vec::new();
        {
            let (fleet, _) =
                ShardedFleet::open_durable(pre_shards, weights(), reanchor, config.clone())
                    .unwrap();
            for chunk in ops.chunks(batch) {
                fleet.try_ingest_batch(chunk).unwrap();
                epoch_hashes.push(fleet.try_seal_epoch().unwrap().content_hash());
            }
        }
        inflict(&dir, mode);

        let mut recovered_hashes = Vec::new();
        for shards in RECOVERY_SHARDS {
            match ShardedFleet::open_durable(shards, weights(), reanchor, config.clone()) {
                Ok((fleet, report)) => {
                    let snap = fleet.snapshot();
                    prop_assert_eq!(report.recovered_epoch, snap.epoch());
                    prop_assert!(
                        snap.epoch() as usize <= epoch_hashes.len(),
                        "recovered past the pre-crash history: epoch {}",
                        snap.epoch()
                    );
                    if matches!(mode, CrashMode::Clean | CrashMode::LoseNewestCheckpoint) {
                        // Nothing touched the log: recovery must reach the
                        // final pre-crash epoch exactly.
                        prop_assert_eq!(snap.epoch() as usize, epoch_hashes.len());
                    }
                    if snap.epoch() > 0 {
                        prop_assert_eq!(
                            snap.content_hash(),
                            epoch_hashes[snap.epoch() as usize - 1],
                            "epoch {} diverged from the pre-crash seal ({} recovery shards)",
                            snap.epoch(),
                            shards
                        );
                    }
                    recovered_hashes.push((snap.epoch(), snap.content_hash()));
                }
                // Damage that swallows the anchoring cut marker of the
                // newest surviving checkpoint is *refused*, never served.
                Err(RecoveryError::MissingCut { .. }) => {
                    prop_assert!(
                        !matches!(mode, CrashMode::Clean | CrashMode::LoseNewestCheckpoint),
                        "an undamaged log must never be missing a cut"
                    );
                }
                Err(other) => prop_assert!(false, "unexpected recovery failure: {}", other),
            }
        }
        // Every shard count that recovered at all recovered identically.
        prop_assert!(
            recovered_hashes.windows(2).all(|w| w[0] == w[1]),
            "recovery shard counts diverged: {:?}",
            recovered_hashes
        );
        let _ = fs::remove_dir_all(&dir);
    }

    /// Recover → serve → crash → recover again: durability survives its
    /// own round trip, with the second generation's churn appended to the
    /// same log and verified by the second recovery.
    #[test]
    fn recovery_chains_across_generations(
        first in proptest::collection::vec(op_strategy(), 1..80),
        second in proptest::collection::vec(op_strategy(), 1..80),
        checkpoint_interval in prop_oneof![Just(0u64), Just(2u64)],
    ) {
        let dir = tmpdir("chain");
        let config = DurabilityConfig::new(&dir)
            .with_segment_bytes(2_048)
            .with_checkpoint_interval(checkpoint_interval);
        let gen1_epoch;
        {
            let (fleet, _) = ShardedFleet::open_durable(4, weights(), 0, config.clone()).unwrap();
            fleet.try_ingest_batch(&first).unwrap();
            gen1_epoch = fleet.try_seal_epoch().unwrap().epoch();
        }
        let gen2_hash;
        {
            let (fleet, report) =
                ShardedFleet::open_durable(1, weights(), 0, config.clone()).unwrap();
            prop_assert_eq!(report.recovered_epoch, gen1_epoch);
            fleet.try_ingest_batch(&second).unwrap();
            let snap = fleet.try_seal_epoch().unwrap();
            prop_assert_eq!(snap.epoch(), gen1_epoch + 1);
            gen2_hash = snap.content_hash();
        }
        let (fleet, report) = ShardedFleet::open_durable(4, weights(), 0, config).unwrap();
        prop_assert_eq!(report.recovered_epoch, gen1_epoch + 1);
        prop_assert_eq!(fleet.snapshot().content_hash(), gen2_hash);
        // Oracle: both generations' churn through one in-memory fleet.
        let oracle = ShardedFleet::new(1, weights());
        oracle.try_ingest_batch(&first).unwrap();
        oracle.try_seal_epoch().unwrap();
        oracle.try_ingest_batch(&second).unwrap();
        prop_assert_eq!(oracle.try_seal_epoch().unwrap().content_hash(), gen2_hash);
        let _ = fs::remove_dir_all(&dir);
    }
}
