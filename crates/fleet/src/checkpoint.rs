//! Checkpointed full snapshots.
//!
//! A checkpoint captures one sealed epoch completely — weights, bucket
//! rows, opaque power, device roster, and the published content hash —
//! so recovery can rebuild the serving snapshot directly and replay only
//! the write-ahead-log tail after it, instead of the whole history.
//!
//! ## On-disk format
//!
//! One file per checkpoint, `ckpt-{epoch:016}.fic`:
//!
//! ```text
//! [8B magic "FICKPT01"] [u32 version]
//! [u64 epoch] [TwoTierWeights] [Vec<(Digest, VotingPower)> buckets]
//! [VotingPower opaque] [Vec<RegisteredDevice> devices] [Digest content_hash]
//! [u32 crc32(everything above)]
//! ```
//!
//! all in the `fi_types::codec` encoding. Files are written to a
//! temporary name, fsynced, then atomically renamed — a crash mid-write
//! leaves at most a stray `.tmp`, never a half-checkpoint under the real
//! name; nothing loads a `.tmp`, and the next [`prune`] deletes it.
//! [`Checkpoint::load`] verifies the CRC, rebuilds the snapshot,
//! and re-derives the content hash; a checkpoint whose rebuilt hash
//! differs from the recorded one is rejected, so recovery can never
//! silently serve state that differs from what was sealed.
//!
//! **What a checkpoint does not capture:** vote keys. The binding of a
//! vote key to a configuration (Remark 3) is checked where the quote is
//! verified, and nothing downstream carries the key — not the churn op,
//! the log, the registry or the checkpoint — so there is none to restore.
//! The content hash covers measurements and powers only. See the README's
//! durability section.

use std::collections::BTreeMap;
use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

use fi_attest::{RegisteredDevice, TwoTierWeights};
use fi_types::codec::{read_header, write_header, Decode, Encode, Reader};
use fi_types::{crc32, Digest, VotingPower};

use crate::error::CheckpointError;
use crate::snapshot::{roster_aggregate, EpochSnapshot};

/// Magic prefix of every checkpoint file.
const CHECKPOINT_MAGIC: &[u8; 8] = b"FICKPT01";
/// Current checkpoint format version.
const CHECKPOINT_VERSION: u32 = 1;

/// A full, self-verifying capture of one sealed epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// The sealed epoch this checkpoint captures.
    pub epoch: u64,
    /// The fleet's tier weights at that epoch.
    pub weights: TwoTierWeights,
    /// The snapshot's measurement buckets (sorted, effective power).
    pub buckets: Vec<(Digest, VotingPower)>,
    /// Total effective unattested power.
    pub opaque: VotingPower,
    /// The full device roster (sorted by replica, raw power).
    pub devices: Vec<RegisteredDevice>,
    /// The content hash the sealed snapshot published — re-verified
    /// against the rebuilt snapshot on every load.
    pub content_hash: Digest,
}

impl Checkpoint {
    /// Captures a published snapshot. The file keeps the roster sorted by
    /// replica, which a snapshot does not: this is where that view is
    /// derived ([`EpochSnapshot::candidates`] — one sort of the roster, on
    /// the first checkpoint of a snapshot only).
    #[must_use]
    pub fn from_snapshot(snapshot: &EpochSnapshot) -> Checkpoint {
        Checkpoint {
            epoch: snapshot.epoch(),
            weights: snapshot.weights(),
            buckets: snapshot.buckets().to_vec(),
            opaque: snapshot.unattested_power(),
            devices: snapshot.devices().collect(),
            content_hash: snapshot.content_hash(),
        }
    }

    /// Rebuilds the full serving snapshot this checkpoint captured and
    /// verifies its content hash against the recorded one.
    fn rebuild(&self) -> Result<EpochSnapshot, CheckpointError> {
        let mut rows: BTreeMap<Digest, VotingPower> = BTreeMap::new();
        for &(m, p) in &self.buckets {
            if rows.insert(m, p).is_some() {
                return Err(CheckpointError::Inconsistent {
                    epoch: self.epoch,
                    detail: format!("duplicate bucket row for measurement {m}"),
                });
            }
        }
        for d in &self.devices {
            if let Some(m) = d.measurement {
                if !rows.contains_key(&m) {
                    return Err(CheckpointError::Inconsistent {
                        epoch: self.epoch,
                        detail: format!(
                            "device {} cites measurement {m} with no bucket row",
                            d.replica
                        ),
                    });
                }
            }
        }
        // Re-hashed from the stored rows, never read from a live registry:
        // the content-hash check below is only a check if it is independent
        // of the write-time aggregates that produced the recorded hash.
        let snapshot = EpochSnapshot::build(
            self.epoch,
            self.weights,
            rows,
            self.opaque,
            &self.devices,
            roster_aggregate(&self.devices),
        );
        if snapshot.content_hash() != self.content_hash {
            return Err(CheckpointError::HashMismatch {
                epoch: self.epoch,
                expected: self.content_hash,
                rebuilt: snapshot.content_hash(),
            });
        }
        Ok(snapshot)
    }

    /// Serializes, CRC-seals, and atomically installs this checkpoint
    /// under `dir`, returning its path.
    pub fn write(&self, dir: impl AsRef<Path>) -> Result<PathBuf, CheckpointError> {
        let dir = dir.as_ref();
        fs::create_dir_all(dir)?;
        let mut bytes = Vec::new();
        write_header(&mut bytes, CHECKPOINT_MAGIC, CHECKPOINT_VERSION);
        self.epoch.encode(&mut bytes);
        self.weights.encode(&mut bytes);
        self.buckets.encode(&mut bytes);
        self.opaque.encode(&mut bytes);
        self.devices.encode(&mut bytes);
        self.content_hash.encode(&mut bytes);
        crc32(&bytes).encode(&mut bytes);

        let path = checkpoint_path(dir, self.epoch);
        let tmp = path.with_extension("tmp");
        {
            let mut f = OpenOptions::new()
                .write(true)
                .create(true)
                .truncate(true)
                .open(&tmp)?;
            f.write_all(&bytes)?;
            f.sync_all()?;
        }
        fs::rename(&tmp, &path)?;
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_all();
        }
        Ok(path)
    }

    /// Loads and fully verifies the checkpoint at `path`: CRC, framing,
    /// and the rebuilt snapshot's content hash. Returns the checkpoint
    /// and the verified snapshot.
    pub fn load(path: impl AsRef<Path>) -> Result<(Checkpoint, EpochSnapshot), CheckpointError> {
        let path = path.as_ref();
        let bytes = fs::read(path)?;
        if bytes.len() < 4 {
            return Err(CheckpointError::BadCrc {
                path: path.to_path_buf(),
            });
        }
        let (body, crc_bytes) = bytes.split_at(bytes.len() - 4);
        let stored = u32::from_le_bytes(crc_bytes.try_into().expect("4 bytes"));
        if crc32(body) != stored {
            return Err(CheckpointError::BadCrc {
                path: path.to_path_buf(),
            });
        }
        let mut r = Reader::new(body);
        read_header(&mut r, CHECKPOINT_MAGIC, CHECKPOINT_VERSION)?;
        let checkpoint = Checkpoint {
            epoch: u64::decode(&mut r)?,
            weights: TwoTierWeights::decode(&mut r)?,
            buckets: Vec::<(Digest, VotingPower)>::decode(&mut r)?,
            opaque: VotingPower::decode(&mut r)?,
            devices: Vec::<RegisteredDevice>::decode(&mut r)?,
            content_hash: Digest::decode(&mut r)?,
        };
        r.finish()?;
        let snapshot = checkpoint.rebuild()?;
        Ok((checkpoint, snapshot))
    }
}

/// The canonical file name for the checkpoint of `epoch`.
#[must_use]
fn checkpoint_path(dir: &Path, epoch: u64) -> PathBuf {
    dir.join(format!("ckpt-{epoch:016}.fic"))
}

/// Lists checkpoint files under `dir`, sorted by epoch ascending.
pub(crate) fn list_checkpoints(
    dir: impl AsRef<Path>,
) -> Result<Vec<(u64, PathBuf)>, CheckpointError> {
    list_with_suffix(dir.as_ref(), ".fic")
}

/// The `ckpt-{epoch}{suffix}` files under `dir`, sorted by epoch ascending.
fn list_with_suffix(dir: &Path, suffix: &str) -> Result<Vec<(u64, PathBuf)>, CheckpointError> {
    let mut found = Vec::new();
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(found),
        Err(e) => return Err(e.into()),
    };
    for entry in entries {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(epoch) = name
            .strip_prefix("ckpt-")
            .and_then(|rest| rest.strip_suffix(suffix))
            .and_then(|digits| digits.parse::<u64>().ok())
        else {
            continue;
        };
        found.push((epoch, entry.path()));
    }
    found.sort_unstable();
    Ok(found)
}

/// Loads the newest checkpoint that passes full verification, skipping
/// (not deleting) damaged ones. `Ok(None)` when no usable checkpoint
/// exists — recovery then replays the log from genesis.
pub fn latest_valid(
    dir: impl AsRef<Path>,
) -> Result<Option<(Checkpoint, EpochSnapshot)>, CheckpointError> {
    let mut candidates = list_checkpoints(dir)?;
    candidates.reverse();
    for (_, path) in candidates {
        match Checkpoint::load(&path) {
            Ok(loaded) => return Ok(Some(loaded)),
            // Damaged checkpoints are skipped: an older valid one plus a
            // longer log replay is still a correct recovery.
            Err(CheckpointError::Io(e)) if e.kind() != std::io::ErrorKind::NotFound => {
                return Err(CheckpointError::Io(e))
            }
            Err(_) => continue,
        }
    }
    Ok(None)
}

/// Deletes all but the newest `retain` checkpoints, and every staged
/// `.tmp` that a crash between [`Checkpoint::write`]'s fsync and its rename
/// left behind. [`ShardedFleet::checkpoint`](crate::ShardedFleet::checkpoint)
/// prunes right after it writes, still under the fleet's checkpoint mutex,
/// so no live writer owns a `.tmp` here.
pub fn prune(dir: impl AsRef<Path>, retain: usize) -> Result<(), CheckpointError> {
    let dir = dir.as_ref();
    let checkpoints = list_with_suffix(dir, ".fic")?;
    let excess = checkpoints.len().saturating_sub(retain.max(1));
    let stale = list_with_suffix(dir, ".tmp")?;
    for (_, path) in checkpoints[..excess].iter().chain(&stale) {
        fs::remove_file(path)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::ShardedFleet;
    use crate::trace::{churn_trace, ChurnTraceConfig};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn tmpdir(tag: &str) -> PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("fi-ckpt-{tag}-{}-{n}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sealed_snapshot() -> std::sync::Arc<EpochSnapshot> {
        let fleet = ShardedFleet::new(4, TwoTierWeights::default());
        fleet
            .try_ingest_batch(&churn_trace(&ChurnTraceConfig::new(200, 500)))
            .unwrap();
        fleet.try_seal_epoch().unwrap()
    }

    #[test]
    fn checkpoint_round_trips_and_verifies() {
        let dir = tmpdir("roundtrip");
        let snapshot = sealed_snapshot();
        let ckpt = Checkpoint::from_snapshot(&snapshot);
        let path = ckpt.write(&dir).unwrap();
        assert!(path.ends_with(format!("ckpt-{:016}.fic", snapshot.epoch())));
        let (loaded, rebuilt) = Checkpoint::load(&path).unwrap();
        assert_eq!(loaded, ckpt);
        assert_eq!(rebuilt.content_hash(), snapshot.content_hash());
        assert_eq!(rebuilt.epoch(), snapshot.epoch());
        assert_eq!(rebuilt.device_count(), snapshot.device_count());
        // The rebuilt snapshot serves: selection works identically.
        assert_eq!(
            rebuilt.select_greedy(16).members(),
            snapshot.select_greedy(16).members()
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_checkpoint_fails_crc_and_is_skipped() {
        let dir = tmpdir("corrupt");
        let snapshot = sealed_snapshot();
        let ckpt = Checkpoint::from_snapshot(&snapshot);
        let path = ckpt.write(&dir).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            Checkpoint::load(&path),
            Err(CheckpointError::BadCrc { .. })
        ));
        // latest_valid skips it entirely.
        assert!(latest_valid(&dir).unwrap().is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn latest_valid_prefers_newest_and_falls_back() {
        let dir = tmpdir("fallback");
        let snapshot = sealed_snapshot();
        let old = Checkpoint {
            epoch: 1,
            ..Checkpoint::from_snapshot(&snapshot)
        };
        old.write(&dir).unwrap();
        let new = Checkpoint {
            epoch: 2,
            ..Checkpoint::from_snapshot(&snapshot)
        };
        let new_path = new.write(&dir).unwrap();
        assert_eq!(latest_valid(&dir).unwrap().unwrap().0.epoch, 2);
        // Damage the newest: recovery falls back to the older one.
        let mut bytes = fs::read(&new_path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        fs::write(&new_path, &bytes).unwrap();
        assert_eq!(latest_valid(&dir).unwrap().unwrap().0.epoch, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn prune_keeps_the_newest() {
        let dir = tmpdir("prune");
        let snapshot = sealed_snapshot();
        for epoch in 1..=5 {
            Checkpoint {
                epoch,
                ..Checkpoint::from_snapshot(&snapshot)
            }
            .write(&dir)
            .unwrap();
        }
        prune(&dir, 2).unwrap();
        let left: Vec<u64> = list_checkpoints(&dir)
            .unwrap()
            .into_iter()
            .map(|(e, _)| e)
            .collect();
        assert_eq!(left, vec![4, 5]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn prune_removes_a_stray_tmp_that_nothing_loaded() {
        let dir = tmpdir("stray-tmp");
        let snapshot = sealed_snapshot();
        for epoch in 1..=3 {
            Checkpoint {
                epoch,
                ..Checkpoint::from_snapshot(&snapshot)
            }
            .write(&dir)
            .unwrap();
        }
        // A crash between `write`'s fsync and rename: epoch 3's whole,
        // valid checkpoint, still under its staging name.
        let stray = checkpoint_path(&dir, 3).with_extension("tmp");
        fs::rename(checkpoint_path(&dir, 3), &stray).unwrap();
        let real = [checkpoint_path(&dir, 1), checkpoint_path(&dir, 2)];
        let before: Vec<Vec<u8>> = real.iter().map(|p| fs::read(p).unwrap()).collect();

        assert_eq!(latest_valid(&dir).unwrap().unwrap().0.epoch, 2);
        prune(&dir, 2).unwrap();
        assert!(!stray.exists(), "the stray .tmp survived prune");
        let after: Vec<Vec<u8>> = real.iter().map(|p| fs::read(p).unwrap()).collect();
        assert_eq!(after, before);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn inconsistent_sections_are_rejected_not_panicked() {
        let snapshot = sealed_snapshot();
        let mut ckpt = Checkpoint::from_snapshot(&snapshot);
        // Drop all bucket rows: every attested device now cites a missing
        // bucket. rebuild must error, not panic.
        ckpt.buckets.clear();
        assert!(matches!(
            ckpt.rebuild(),
            Err(CheckpointError::Inconsistent { .. })
        ));
    }

    #[test]
    fn a_tier_that_contradicts_the_measurement_is_rejected() {
        // A device value cannot hold the contradiction, so it can only come
        // in as bytes: flip the tier byte of the first attested row in an
        // otherwise valid file and re-seal the CRC. The rebuilt snapshot
        // would derive the tier from the measurement, so loading such a row
        // would silently change it.
        let dir = tmpdir("tier");
        let ckpt = Checkpoint::from_snapshot(&sealed_snapshot());
        let path = ckpt.write(&dir).unwrap();
        assert!(Checkpoint::load(&path).is_ok());

        let attested = ckpt
            .devices
            .iter()
            .position(|d| d.measurement.is_some())
            .expect("the trace attests devices");
        // The roster is the last section but the 32-byte content hash and
        // the 4-byte CRC; a row's tier byte follows its 8-byte replica id.
        let mut bytes = fs::read(&path).unwrap();
        let roster_len: usize = ckpt.devices.iter().map(|d| d.to_bytes().len()).sum();
        let before: usize = ckpt.devices[..attested]
            .iter()
            .map(|d| d.to_bytes().len())
            .sum();
        let tier_at = bytes.len() - 4 - 32 - roster_len + before + 8;
        assert_eq!(bytes[tier_at], 0, "an attested row's tier byte");
        bytes[tier_at] = 1;
        let body = bytes.len() - 4;
        let crc = crc32(&bytes[..body]);
        bytes[body..].copy_from_slice(&crc.to_le_bytes());
        fs::write(&path, &bytes).unwrap();

        match Checkpoint::load(&path) {
            Err(CheckpointError::Codec(e)) => {
                assert!(e.to_string().contains("tier"), "got {e}");
            }
            other => panic!("expected a codec error, got {other:?}"),
        }
        assert!(latest_valid(&dir).unwrap().is_none());
        let _ = fs::remove_dir_all(&dir);
    }
}
