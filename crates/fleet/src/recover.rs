//! Crash recovery: checkpoint restore plus hash-verified log replay.
//!
//! [`ShardedFleet::open_durable`] is the single entry point for durable
//! fleets, both cold starts and post-crash restarts:
//!
//! 1. Open the write-ahead churn log ([`ChurnLog::open`] truncates any
//!    torn tail the crash left) and scan it in full — **pass 1**: every
//!    frame of every segment is checked (sequence, CRC, decode) and every
//!    batch decoded and dropped; only the cut markers and seal records
//!    are kept, with their positions. The superseded rule below runs on
//!    that index, leaving each epoch's kept cut and logged seal hash.
//! 2. Load the newest fully-verified checkpoint
//!    ([`checkpoint::latest_valid`] re-derives the content hash on load),
//!    find its epoch's kept cut in the index
//!    ([`RecoveryError::MissingCut`] if there is none), re-ingest its
//!    device roster into a fresh fleet in fixed-size chunks, and publish
//!    its verified snapshot so the next differential seal chains onto it.
//! 3. Replay the log tail after that cut — **pass 2**, which reads from
//!    the segment holding the cut on: batches are re-ingested, and at
//!    every kept cut marker the epoch is re-sealed. Wherever the pre-crash
//!    process logged an [`WalRecord::EpochSeal`], the replayed snapshot's
//!    content hash must equal the logged one — recovery refuses to serve
//!    state that differs from what was served before the crash
//!    ([`RecoveryError::HashMismatch`]).
//!
//! **Memory bound.** Both passes stream: recovery holds at most one
//! segment (at most `segment_bytes` plus one frame) and its decoded
//! records, the control-record index (two small records per epoch), the
//! checkpoint while it is restored, and the fleet being rebuilt — never
//! the whole log.
//!
//! ## Superseded cut markers and seal records
//!
//! A seal that fails before publication can leave records of an epoch it
//! never served: a seal rejected as
//! [`SealError::CorruptDelta`](crate::SealError) has already appended its
//! cut marker, and a seal whose record was appended but whose fsync failed
//! ([`SealError::Wal`](crate::SealError)) leaves a cut and a seal record.
//! The next successful seal then appends a cut for the *same* epoch.
//! Successful epochs are strictly increasing, so replay keeps only the
//! **last** cut per epoch and the seal records after it: walking the log
//! backwards, a cut *or a seal record* whose epoch is `>=` a later cut's
//! epoch was superseded and is skipped. The batches that preceded an
//! aborted cut simply merge into the next kept cut's epoch — exactly what
//! the pre-crash full-rebuild re-anchor did — and the content hash is
//! path-independent, so verification still holds against the kept record.
//! Only a failed seal's records are ever superseded. A log written while
//! the seal record still followed publication holds no superseded seal
//! record, since no later cut can name an epoch at or below a published
//! one, so such logs replay exactly as they did.
//!
//! ## What replay tolerates vs. refuses
//!
//! Tolerated: a torn tail in the final segment (frames that were never
//! fsynced, or a segment caught inside its creation, shorter than its
//! header), a trailing cut with no seal record (the seal's fsync never
//! returned, so that epoch was never served; replay rolls it forward over
//! whatever batches reached the disk), missing or damaged checkpoints (an
//! older checkpoint plus a longer replay is still correct). Refused:
//! corruption in a non-final segment, a sequence gap, a checkpointed epoch
//! with no surviving cut marker, and any replayed epoch whose hash
//! disagrees with its kept seal record.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use fi_attest::{ChurnOp, RegisteredDevice, TwoTierWeights};
use fi_types::Digest;

use crate::checkpoint;
use crate::error::{RecoveryError, WalError};
use crate::fleet::{DurabilityState, ShardedFleet};
use crate::wal::{self, ChurnLog, RecordPos, WalRecord, DEFAULT_SEGMENT_BYTES};

/// Checkpointed devices re-ingested per batch on restore, so the restore
/// holds one chunk of synthetic ops rather than a copy of the roster.
const RESTORE_CHUNK: usize = 4096;

/// Why recovery's ingests cannot fail: only a log append fails an
/// ingest, and the log is attached after replay.
const NO_LOG_YET: &str = "recovery ingests before the log is attached";

/// Where a durable fleet persists its state. When to checkpoint is the
/// caller's: [`ShardedFleet::checkpoint`] writes one.
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// The durability directory: WAL segments (`wal-*.log`) and
    /// checkpoints (`ckpt-*.fic`) live side by side here.
    pub dir: PathBuf,
    /// WAL segment rotation threshold in bytes.
    pub segment_bytes: u64,
}

impl DurabilityConfig {
    /// A config rooted at `dir` with the default segment size.
    #[must_use]
    pub fn new(dir: impl Into<PathBuf>) -> DurabilityConfig {
        DurabilityConfig {
            dir: dir.into(),
            segment_bytes: DEFAULT_SEGMENT_BYTES,
        }
    }

    /// Sets the WAL segment rotation threshold.
    #[must_use]
    pub fn with_segment_bytes(mut self, bytes: u64) -> DurabilityConfig {
        self.segment_bytes = bytes;
        self
    }
}

/// What [`ShardedFleet::open_durable`] found and rebuilt.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RecoveryReport {
    /// The epoch of the checkpoint recovery restored from, if any.
    pub checkpoint_epoch: Option<u64>,
    /// The epoch the recovered fleet serves (0 for a fresh directory).
    pub recovered_epoch: u64,
    /// Epochs re-sealed from the log tail.
    pub replayed_epochs: u64,
    /// Churn ops re-ingested from the log tail (sealed and pending).
    pub replayed_ops: u64,
    /// Replayed ops past the last cut: applied to the shards but not yet
    /// sealed — they land in the next epoch, as they would have pre-crash.
    pub pending_ops: u64,
    /// Torn bytes truncated from the final WAL segment.
    pub truncated_bytes: u64,
    /// Replayed epochs whose content hash was checked against a logged
    /// seal record (and matched — a mismatch fails recovery).
    pub verified_seals: u64,
}

/// The synthetic churn op that re-registers a checkpointed device.
///
/// It carries no vote key: the binding was checked where the quote was
/// verified and the key logged with its batch, and the registry keeps none
/// (see [`crate::checkpoint`]).
fn restore_op(d: &RegisteredDevice) -> ChurnOp {
    match d.measurement {
        Some(measurement) => ChurnOp::Attest {
            replica: d.replica,
            measurement,
            vote_key: None,
            power: d.power,
        },
        None => ChurnOp::Unattested {
            replica: d.replica,
            power: d.power,
        },
    }
}

impl ShardedFleet {
    /// Opens (or creates) a durable fleet rooted at `config.dir`,
    /// recovering whatever state the directory holds.
    ///
    /// On an empty directory this is a cold start: a fresh fleet at epoch
    /// zero whose churn is write-ahead logged from the first batch. On a
    /// directory left by a crash (or clean shutdown), the fleet is rebuilt
    /// from the newest valid checkpoint plus a replay of the log tail,
    /// with every replayed epoch's content hash verified against the seal
    /// records the pre-crash process logged. The shard count and cadences
    /// may differ from the pre-crash process — sealed snapshots are
    /// canonical, so re-sharding on recovery yields bit-identical epochs.
    /// `reanchor_interval` is
    /// [`with_reanchor_interval`](Self::with_reanchor_interval)'s: it
    /// forces full rebuilds as a reference and measurement seam and changes
    /// no bit of any snapshot; `0` forces none.
    ///
    /// # Errors
    ///
    /// Any [`RecoveryError`]; see the module docs for what replay
    /// tolerates versus refuses.
    pub fn open_durable(
        shard_count: usize,
        weights: TwoTierWeights,
        reanchor_interval: u64,
        config: DurabilityConfig,
    ) -> Result<(ShardedFleet, RecoveryReport), RecoveryError> {
        if shard_count == 0 {
            return Err(crate::error::FleetConfigError::ZeroShards.into());
        }
        let (mut log, truncated_bytes) = ChurnLog::open(&config.dir, config.segment_bytes)?;

        // Pass 1: check and decode every frame of every segment, keeping
        // only the cuts and seal records, with their positions.
        let mut controls: Vec<(RecordPos, WalRecord)> = Vec::new();
        let scan_torn = wal::scan(&config.dir, RecordPos::default(), |pos, record| {
            if !matches!(record, WalRecord::Batch(_)) {
                controls.push((pos, record));
            }
            Ok::<_, WalError>(())
        })?;
        let mut report = RecoveryReport {
            truncated_bytes: truncated_bytes + scan_torn,
            ..RecoveryReport::default()
        };

        // Superseded rule: walking backwards, a cut or seal record whose
        // epoch is at or above a later kept cut's was re-opened (see the
        // module docs). What is left is each epoch's kept cut and logged
        // seal hash; kept cuts' epochs strictly increase, so the epoch
        // names the cut.
        let mut cuts: BTreeMap<u64, RecordPos> = BTreeMap::new();
        let mut seal_hashes: BTreeMap<u64, Digest> = BTreeMap::new();
        let mut min_later_cut = u64::MAX;
        for (pos, record) in controls.into_iter().rev() {
            match record {
                WalRecord::EpochCut { epoch } if epoch < min_later_cut => {
                    min_later_cut = epoch;
                    cuts.insert(epoch, pos);
                }
                WalRecord::EpochSeal {
                    epoch,
                    content_hash,
                } if epoch < min_later_cut => {
                    seal_hashes.entry(epoch).or_insert(content_hash);
                }
                _ => {}
            }
        }

        let fleet = ShardedFleet::with_reanchor_interval(shard_count, weights, reanchor_interval);

        // Checkpoint restore: re-ingest the roster so the shards hold the
        // authoritative state, then publish the verified snapshot so the
        // first replayed differential seal chains onto it.
        let replay_from = match checkpoint::latest_valid(&config.dir)? {
            Some((ckpt, snapshot)) => {
                // The cut marker was fsynced before its epoch was served,
                // so before any checkpoint of it: a valid checkpoint with no
                // surviving cut means the log lost acknowledged history.
                let cut = *cuts
                    .get(&ckpt.epoch)
                    .ok_or(RecoveryError::MissingCut { epoch: ckpt.epoch })?;
                // Each device appears once, so chunking changes no end state.
                let mut roster = Vec::with_capacity(RESTORE_CHUNK);
                for devices in ckpt.devices.chunks(RESTORE_CHUNK) {
                    roster.clear();
                    roster.extend(devices.iter().map(restore_op));
                    fleet.try_ingest_batch(&roster).expect(NO_LOG_YET);
                }
                fleet.restore_published(Arc::new(snapshot));
                report.checkpoint_epoch = Some(ckpt.epoch);
                RecordPos {
                    frame: cut.frame + 1,
                    ..cut
                }
            }
            None => RecordPos::default(),
        };

        // Pass 2: replay the records after the checkpoint's cut, reading
        // from the segment that holds it. Durability is not attached yet,
        // so nothing here is re-logged — the records being replayed *are*
        // the log.
        wal::scan(&config.dir, replay_from, |pos, record| {
            match record {
                WalRecord::Batch(ops) => {
                    fleet.try_ingest_batch(&ops).expect(NO_LOG_YET);
                    report.replayed_ops += ops.len() as u64;
                    report.pending_ops += ops.len() as u64;
                }
                WalRecord::EpochCut { epoch } if cuts.get(&epoch) == Some(&pos) => {
                    let sealed = fleet.try_seal_epoch()?;
                    report.replayed_epochs += 1;
                    report.pending_ops = 0;
                    if sealed.epoch() != epoch {
                        return Err(RecoveryError::EpochMismatch {
                            logged: epoch,
                            replayed: sealed.epoch(),
                        });
                    }
                    if let Some(&logged) = seal_hashes.get(&epoch) {
                        if sealed.content_hash() != logged {
                            return Err(RecoveryError::HashMismatch {
                                epoch,
                                logged,
                                recovered: sealed.content_hash(),
                            });
                        }
                        report.verified_seals += 1;
                    }
                }
                // Superseded cuts and seal records replay as no-ops.
                WalRecord::EpochCut { .. } | WalRecord::EpochSeal { .. } => {}
            }
            Ok(())
        })?;

        report.recovered_epoch = fleet.published_epoch();
        // A replayed epoch whose seal never fsynced is about to be served,
        // and may be checkpointed: its cut must be on disk first.
        log.sync()?;
        let mut fleet = fleet;
        fleet.attach_durability(DurabilityState {
            log: Mutex::new(log),
            checkpoint_dir: Mutex::new(config.dir),
        });
        Ok((fleet, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{churn_trace, ChurnTraceConfig};
    use std::fs;
    use std::path::Path;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn tmpdir(tag: &str) -> PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("fi-recover-{tag}-{}-{n}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// Seals, then checkpoints if the sealed epoch is a multiple of
    /// `every` (`0`: never).
    fn seal(fleet: &ShardedFleet, every: u64) -> Arc<crate::EpochSnapshot> {
        let sealed = fleet.try_seal_epoch().unwrap();
        if every > 0 && sealed.epoch().is_multiple_of(every) {
            fleet.checkpoint().unwrap();
        }
        sealed
    }

    #[test]
    fn empty_directory_cold_starts_a_durable_fleet() {
        let dir = tmpdir("cold");
        let (fleet, report) =
            ShardedFleet::open_durable(4, TwoTierWeights::flat(), 0, DurabilityConfig::new(&dir))
                .unwrap();
        assert!(fleet.is_durable());
        assert_eq!(report, RecoveryReport::default());
        assert_eq!(fleet.snapshot().epoch(), 0);
        // Churn is logged from the very first batch.
        fleet
            .try_ingest_batch(&churn_trace(&ChurnTraceConfig::new(50, 80)))
            .unwrap();
        let sealed = fleet.try_seal_epoch().unwrap();
        assert_eq!(sealed.epoch(), 1);
        let scan = wal::tests::read_records(&dir).unwrap();
        assert!(scan
            .records
            .iter()
            .any(|r| matches!(r, WalRecord::EpochCut { epoch: 1 })));
        assert!(scan.records.iter().any(|r| matches!(
            r,
            WalRecord::EpochSeal { epoch: 1, content_hash } if *content_hash == sealed.content_hash()
        )));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_restores_the_pre_crash_epoch_and_hash() {
        let dir = tmpdir("restart");
        let trace = churn_trace(&ChurnTraceConfig::new(300, 700));
        // The trace is 1000 ops (300 registrations + 700 churn), sealed in
        // 90-op batches: 12 epochs. Interval 5 leaves the newest
        // checkpoint (epoch 10) trailing the final epoch, so recovery must
        // replay — and hash-verify — the epochs after it.
        let config = DurabilityConfig::new(&dir);
        let (pre_epoch, pre_hash, pre_count) = {
            let (fleet, _) =
                ShardedFleet::open_durable(4, TwoTierWeights::flat(), 3, config.clone()).unwrap();
            for batch in trace.chunks(90) {
                fleet.try_ingest_batch(batch).unwrap();
                seal(&fleet, 5);
            }
            let snap = fleet.snapshot();
            (snap.epoch(), snap.content_hash(), fleet.device_count())
        };
        assert!(pre_epoch >= 4);

        let (fleet, report) =
            ShardedFleet::open_durable(4, TwoTierWeights::flat(), 3, config.clone()).unwrap();
        assert_eq!(report.recovered_epoch, pre_epoch);
        assert_eq!(fleet.snapshot().epoch(), pre_epoch);
        assert_eq!(fleet.snapshot().content_hash(), pre_hash);
        assert_eq!(fleet.device_count(), pre_count);
        assert!(report.checkpoint_epoch.is_some());
        assert!(report.verified_seals > 0);

        // The recovered fleet keeps serving: new churn logs and seals, and
        // a second recovery finds the new epoch too.
        fleet
            .try_ingest_batch(&churn_trace(&ChurnTraceConfig::new(40, 60)))
            .unwrap();
        let next = seal(&fleet, 5);
        assert_eq!(next.epoch(), pre_epoch + 1);
        drop(fleet);
        let (again, report2) =
            ShardedFleet::open_durable(4, TwoTierWeights::flat(), 3, config).unwrap();
        assert_eq!(report2.recovered_epoch, pre_epoch + 1);
        assert_eq!(again.snapshot().content_hash(), next.content_hash());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_rehydrates_into_any_shard_count() {
        let dir = tmpdir("reshard");
        let trace = churn_trace(&ChurnTraceConfig::new(200, 400));
        let config = DurabilityConfig::new(&dir);
        {
            let (fleet, _) =
                ShardedFleet::open_durable(4, TwoTierWeights::flat(), 0, config.clone()).unwrap();
            for batch in trace.chunks(80) {
                fleet.try_ingest_batch(batch).unwrap();
                seal(&fleet, 3);
            }
        }
        let (one, r1) =
            ShardedFleet::open_durable(1, TwoTierWeights::flat(), 0, config.clone()).unwrap();
        let (eight, r8) = ShardedFleet::open_durable(8, TwoTierWeights::flat(), 5, config).unwrap();
        assert_eq!(r1.recovered_epoch, r8.recovered_epoch);
        assert_eq!(
            one.snapshot().content_hash(),
            eight.snapshot().content_hash()
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn without_checkpoints_recovery_replays_from_genesis() {
        let dir = tmpdir("genesis");
        let trace = churn_trace(&ChurnTraceConfig::new(150, 300));
        let config = DurabilityConfig::new(&dir);
        let pre_hash = {
            let (fleet, _) =
                ShardedFleet::open_durable(2, TwoTierWeights::flat(), 0, config.clone()).unwrap();
            for batch in trace.chunks(60) {
                fleet.try_ingest_batch(batch).unwrap();
                fleet.try_seal_epoch().unwrap();
            }
            fleet.snapshot().content_hash()
        };
        assert!(checkpoint::list_checkpoints(&dir).unwrap().is_empty());
        let (fleet, report) =
            ShardedFleet::open_durable(2, TwoTierWeights::flat(), 0, config).unwrap();
        assert_eq!(report.checkpoint_epoch, None);
        assert_eq!(report.replayed_epochs, report.recovered_epoch);
        assert_eq!(fleet.snapshot().content_hash(), pre_hash);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn shard_roster_aggregates_survive_checkpoint_restore() {
        // Restore re-ingests the checkpointed roster (hashing each row as
        // it is written) and then `restore_published` throws the replay
        // deltas away. The shards' *absolute* aggregates must come through
        // that: the next differential seal adds onto the checkpointed
        // snapshot's aggregate, and the next re-anchor seals over the
        // shard sums with no roster hashing to fall back on.
        use crate::snapshot::{roster_aggregate, EpochSnapshot};
        use fi_attest::AttestedRegistry;

        let dir = tmpdir("aggregate");
        let trace = churn_trace(&ChurnTraceConfig::new(300, 900));
        let config = DurabilityConfig::new(&dir);
        let mut oracle = AttestedRegistry::new(TwoTierWeights::flat());
        let (sealed, rest) = trace.split_at(800);
        {
            let (fleet, _) =
                ShardedFleet::open_durable(4, TwoTierWeights::flat(), 3, config.clone()).unwrap();
            for batch in sealed.chunks(200) {
                fleet.try_ingest_batch(batch).unwrap();
                oracle.apply_batch(batch);
                seal(&fleet, 4);
            }
        }

        let (fleet, report) =
            ShardedFleet::open_durable(4, TwoTierWeights::flat(), 3, config).unwrap();
        assert_eq!(report.checkpoint_epoch, Some(4));
        assert_eq!(
            report.replayed_epochs, 0,
            "the checkpoint is the newest epoch"
        );
        assert_eq!(
            fleet.shard_roster_digest_sum(),
            roster_aggregate(&fleet.snapshot().devices().collect::<Vec<_>>()),
            "restored shards must carry the checkpointed roster's aggregate"
        );

        let mut seal = |batch: &[ChurnOp]| {
            fleet.try_ingest_batch(batch).unwrap();
            oracle.apply_batch(batch);
            let snap = fleet.try_seal_epoch().unwrap();
            assert_eq!(
                snap.content_hash(),
                EpochSnapshot::from_registry(&oracle, snap.epoch()).content_hash(),
                "post-recovery epoch {} diverged from the oracle",
                snap.epoch()
            );
            snap
        };
        let (first, second) = rest.split_at(200);
        // The restore clears the full-rebuild flag a fresh fleet starts
        // with, so epoch 5 seals differentially onto the restored snapshot…
        assert!(
            seal(first).parent_hash().is_some(),
            "the first seal after a checkpoint restore must be differential"
        );
        // …and epoch 6 is a re-anchor, by cadence, over the shard aggregates.
        assert!(seal(second).parent_hash().is_none());
        assert_eq!(fleet.published_epoch(), 6);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_later_cut_supersedes_an_earlier_seal_record_of_its_epoch() {
        // What a seal whose fsync failed leaves behind: its cut and its
        // record for epoch 1 over {a}, then the batch b that arrived
        // meanwhile, then the next seal's cut for the same epoch 1. The
        // stale record must not be checked against the re-cut epoch.
        let dir = tmpdir("superseded-seal");
        let trace = churn_trace(&ChurnTraceConfig::new(40, 60));
        let (a, b) = trace.split_at(70);
        let hash_over = |batches: &[&[ChurnOp]]| {
            let fleet = ShardedFleet::new(1, TwoTierWeights::flat());
            for ops in batches {
                fleet.try_ingest_batch(ops).unwrap();
            }
            fleet.try_seal_epoch().unwrap().content_hash()
        };
        let (hash_a, hash_ab) = (hash_over(&[a]), hash_over(&[a, b]));
        assert_ne!(hash_a, hash_ab);
        let append = |records: &[WalRecord]| {
            let (mut log, _) = ChurnLog::open(&dir, DEFAULT_SEGMENT_BYTES).unwrap();
            for r in records {
                log.append(r).unwrap();
            }
            log.sync().unwrap();
        };
        append(&[
            WalRecord::Batch(a.to_vec()),
            WalRecord::EpochCut { epoch: 1 },
            WalRecord::EpochSeal {
                epoch: 1,
                content_hash: hash_a,
            },
            WalRecord::Batch(b.to_vec()),
            WalRecord::EpochCut { epoch: 1 },
        ]);
        let config = DurabilityConfig::new(&dir);
        let recover = || ShardedFleet::open_durable(2, TwoTierWeights::flat(), 0, config.clone());

        let (fleet, report) = recover().expect("the stale record is superseded");
        assert_eq!(report.recovered_epoch, 1);
        assert_eq!(report.replayed_epochs, 1);
        assert_eq!(report.verified_seals, 0);
        assert_eq!(fleet.snapshot().content_hash(), hash_ab);
        drop(fleet);

        // The re-cut epoch's own record is the one replay verifies.
        append(&[WalRecord::EpochSeal {
            epoch: 1,
            content_hash: hash_ab,
        }]);
        let (fleet, report) = recover().unwrap();
        assert_eq!((report.recovered_epoch, report.verified_seals), (1, 1));
        assert_eq!(fleet.snapshot().content_hash(), hash_ab);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn pending_tail_ops_land_in_the_next_epoch() {
        let dir = tmpdir("pending");
        let config = DurabilityConfig::new(&dir);
        let tail = churn_trace(&ChurnTraceConfig::new(30, 40));
        {
            let (fleet, _) =
                ShardedFleet::open_durable(2, TwoTierWeights::flat(), 0, config.clone()).unwrap();
            fleet
                .try_ingest_batch(&churn_trace(&ChurnTraceConfig::new(100, 150)))
                .unwrap();
            fleet.try_seal_epoch().unwrap();
            // Logged but never sealed: the crash comes before the next cut.
            fleet.try_ingest_batch(&tail).unwrap();
        }
        let (fleet, report) =
            ShardedFleet::open_durable(2, TwoTierWeights::flat(), 0, config).unwrap();
        assert_eq!(report.recovered_epoch, 1);
        assert_eq!(report.pending_ops, tail.len() as u64);
        // Oracle: the same history in one in-memory fleet.
        let oracle = ShardedFleet::new(1, TwoTierWeights::flat());
        oracle
            .try_ingest_batch(&churn_trace(&ChurnTraceConfig::new(100, 150)))
            .unwrap();
        oracle.try_seal_epoch().unwrap();
        oracle.try_ingest_batch(&tail).unwrap();
        assert_eq!(
            fleet.try_seal_epoch().unwrap().content_hash(),
            oracle.try_seal_epoch().unwrap().content_hash()
        );
        let _ = fs::remove_dir_all(&dir);
    }

    /// `epochs` sealed epochs of one 25-op batch each, over 256-byte
    /// segments with a checkpoint every 3 seals. Every batch frame
    /// outgrows a segment, so segment `e` holds epoch `e`'s cut and seal
    /// record and then epoch `e + 1`'s batch. Returns the config and the
    /// batches in order.
    fn tiny_segment_run(tag: &str, epochs: usize) -> (DurabilityConfig, Vec<Vec<ChurnOp>>) {
        let config = DurabilityConfig::new(tmpdir(tag)).with_segment_bytes(256);
        let trace = churn_trace(&ChurnTraceConfig::new(40, 25 * epochs - 40));
        let batches: Vec<Vec<ChurnOp>> = trace.chunks(25).map(<[ChurnOp]>::to_vec).collect();
        let (fleet, _) =
            ShardedFleet::open_durable(2, TwoTierWeights::flat(), 0, config.clone()).unwrap();
        for batch in &batches {
            fleet.try_ingest_batch(batch).unwrap();
            seal(&fleet, 3);
        }
        (config, batches)
    }

    /// Every record of the log under `dir`, with its position.
    fn positioned(dir: &Path) -> Vec<(RecordPos, WalRecord)> {
        let mut out = Vec::new();
        wal::scan(dir, RecordPos::default(), |pos, record| {
            out.push((pos, record));
            Ok::<_, WalError>(())
        })
        .unwrap();
        out
    }

    /// The positions of every cut of `epoch`, in log order.
    fn cuts_of(dir: &Path, epoch: u64) -> Vec<RecordPos> {
        positioned(dir)
            .into_iter()
            .filter(|(_, r)| *r == WalRecord::EpochCut { epoch })
            .map(|(pos, _)| pos)
            .collect()
    }

    fn reopen(config: &DurabilityConfig) -> Result<(ShardedFleet, RecoveryReport), RecoveryError> {
        ShardedFleet::open_durable(2, TwoTierWeights::flat(), 0, config.clone())
    }

    #[test]
    fn damage_before_the_checkpoint_cut_in_a_non_final_segment_is_refused() {
        // Replay reads from epoch 6's cut on, so only the full first pass
        // reads the segment of epoch 2's cut. Damage its first frame with a
        // flipped payload byte, then with a CRC-valid payload that does not
        // decode (tag 0xEE): either is corruption the scan must name.
        const HEADER: usize = 20;
        for undecodable in [false, true] {
            let (config, _) = tiny_segment_run("pre-checkpoint-damage", 8);
            let (_, report) = reopen(&config).unwrap();
            assert_eq!(report.checkpoint_epoch, Some(6));
            let victim = cuts_of(&config.dir, 2)[0];
            assert_eq!(victim.frame, 0);
            assert!(victim < cuts_of(&config.dir, 6)[0]);
            let path = config.dir.join(format!("wal-{:08}.log", victim.segment));
            let mut bytes = fs::read(&path).unwrap();
            let len = u32::from_le_bytes(bytes[HEADER..HEADER + 4].try_into().unwrap()) as usize;
            let payload = HEADER + 4..HEADER + 4 + len;
            if undecodable {
                bytes[payload.start] = 0xEE;
                let crc = fi_types::crc32(&bytes[payload.clone()]).to_le_bytes();
                bytes[payload.end..payload.end + 4].copy_from_slice(&crc);
            } else {
                bytes[payload.start + 1] ^= 0xFF;
            }
            fs::write(&path, &bytes).unwrap();

            let Err(err) = reopen(&config) else {
                panic!("pre-checkpoint damage must be refused");
            };
            match err {
                RecoveryError::Wal(WalError::Corrupt {
                    segment, detail, ..
                }) => {
                    assert_eq!(segment, path, "{detail}");
                    assert_eq!(detail.contains("does not decode"), undecodable, "{detail}");
                }
                other => panic!("expected WalError::Corrupt, got {other}"),
            }
            let _ = fs::remove_dir_all(&config.dir);
        }
    }

    #[test]
    fn a_re_cut_epoch_recovers_when_its_superseded_records_sit_segments_earlier() {
        // Four sealed epochs (checkpoint 3), then by hand what a failed
        // seal of epoch 5 leaves: batch a, a cut and a record of 5 over
        // {a}, batch b, and the re-cut of 5 with its record over {a, b}.
        let (config, batches) = tiny_segment_run("recut-segments", 4);
        let extra = churn_trace(&ChurnTraceConfig {
            seed: 7,
            ..ChurnTraceConfig::new(40, 20)
        });
        let (a, b) = extra.split_at(30);
        let control = |tail: &[&[ChurnOp]]| {
            let fleet = ShardedFleet::new(1, TwoTierWeights::flat());
            for batch in &batches {
                fleet.try_ingest_batch(batch).unwrap();
                fleet.try_seal_epoch().unwrap();
            }
            for ops in tail {
                fleet.try_ingest_batch(ops).unwrap();
            }
            fleet.try_seal_epoch().unwrap().content_hash()
        };
        let (hash_a, hash_ab) = (control(&[a]), control(&[a, b]));
        assert_ne!(hash_a, hash_ab);
        let (mut log, _) = ChurnLog::open(&config.dir, config.segment_bytes).unwrap();
        for record in [
            WalRecord::Batch(a.to_vec()),
            WalRecord::EpochCut { epoch: 5 },
            WalRecord::EpochSeal {
                epoch: 5,
                content_hash: hash_a,
            },
            WalRecord::Batch(b.to_vec()),
            WalRecord::EpochCut { epoch: 5 },
            WalRecord::EpochSeal {
                epoch: 5,
                content_hash: hash_ab,
            },
        ] {
            log.append(&record).unwrap();
        }
        log.sync().unwrap();
        drop(log);
        let cuts = cuts_of(&config.dir, 5);
        let stale = positioned(&config.dir)
            .into_iter()
            .find(|(_, r)| matches!(r, WalRecord::EpochSeal { content_hash, .. } if *content_hash == hash_a))
            .map(|(pos, _)| pos)
            .unwrap();
        assert_eq!(cuts.len(), 2);
        assert!(cuts[0].segment < cuts[1].segment && stale.segment < cuts[1].segment);

        let (fleet, report) = reopen(&config).unwrap();
        assert_eq!(report.checkpoint_epoch, Some(3));
        assert_eq!(
            (
                report.recovered_epoch,
                report.replayed_epochs,
                report.verified_seals
            ),
            (5, 2, 2)
        );
        assert_eq!(fleet.snapshot().content_hash(), hash_ab);
        let _ = fs::remove_dir_all(&config.dir);
    }

    #[test]
    fn replay_counts_exactly_the_ops_logged_after_the_checkpoint_cut() {
        let (config, batches) = tiny_segment_run("replayed-ops", 8);
        let pending = churn_trace(&ChurnTraceConfig {
            seed: 11,
            ..ChurnTraceConfig::new(40, 10)
        });
        {
            // Logged but never sealed.
            let (fleet, _) = reopen(&config).unwrap();
            fleet.try_ingest_batch(&pending).unwrap();
        }
        let cut = cuts_of(&config.dir, 6)[0];
        let logged_after: usize = positioned(&config.dir)
            .into_iter()
            .filter_map(|(pos, r)| match r {
                WalRecord::Batch(ops) if pos > cut => Some(ops.len()),
                _ => None,
            })
            .sum();
        let expected = batches[6].len() + batches[7].len() + pending.len();
        assert_eq!(logged_after, expected);

        let (_, report) = reopen(&config).unwrap();
        assert_eq!(report.checkpoint_epoch, Some(6));
        assert_eq!(report.replayed_ops, expected as u64);
        assert_eq!(report.pending_ops, pending.len() as u64);
        assert_eq!((report.recovered_epoch, report.replayed_epochs), (8, 2));
        let _ = fs::remove_dir_all(&config.dir);
    }
}
