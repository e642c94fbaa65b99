//! Error types for `fi-fleet`.

use core::fmt;
use std::io;
use std::path::PathBuf;

use fi_types::codec::CodecError;
use fi_types::Digest;

/// Why a fleet could not be configured.
///
/// [`ShardedFleet::open_durable`](crate::ShardedFleet::open_durable)
/// reports it (as [`RecoveryError::Config`]) for a shard count taken from
/// external configuration; [`ShardedFleet::new`](crate::ShardedFleet::new)
/// instead clamps a zero shard count to one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetConfigError {
    /// A fleet needs at least one registry shard.
    ZeroShards,
}

impl fmt::Display for FleetConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetConfigError::ZeroShards => {
                write!(f, "a sharded fleet needs at least one registry shard")
            }
        }
    }
}

impl std::error::Error for FleetConfigError {}

/// Why a churn batch could not be ingested.
///
/// Returned by [`ShardedFleet::try_ingest_batch`](crate::ShardedFleet::try_ingest_batch)
/// and the serving hooks. A failed ingest is **clean**: no shard observed
/// any op from the batch, the log holds none of it, the batch gate is
/// released un-poisoned, and reads and seals keep working.
#[derive(Debug)]
pub enum IngestError {
    /// The batch's registrations could carry the fleet's total effective
    /// power past `u64`, where a shard's or a seal's sums of it would
    /// overflow. The batch was neither logged nor applied; retrying it is
    /// refused again until a seal retires enough power.
    PowerOverflow,
    /// The write-ahead churn log could not persist the batch. The batch
    /// was not applied to any shard — durability is decided before the
    /// in-memory state moves. Callers retry once the underlying fault
    /// (full disk, missing directory…) is repaired.
    WalAppend(WalError),
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngestError::PowerOverflow => write!(
                f,
                "churn batch rejected before apply: it could carry the fleet's \
                 effective voting power past u64"
            ),
            IngestError::WalAppend(e) => {
                write!(f, "churn batch rejected before apply: {e}")
            }
        }
    }
}

impl std::error::Error for IngestError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IngestError::PowerOverflow => None,
            IngestError::WalAppend(e) => Some(e),
        }
    }
}

impl From<WalError> for IngestError {
    fn from(e: WalError) -> Self {
        IngestError::WalAppend(e)
    }
}

/// Why an epoch seal failed.
///
/// Returned by [`ShardedFleet::try_seal_epoch`](crate::ShardedFleet::try_seal_epoch).
/// Publication is a seal's last step, so a seal that fails does **not**
/// commit its epoch: the fleet keeps serving the last published snapshot,
/// ingest keeps working, and if a delta was already drained the next seal
/// re-anchors with a full rebuild from the authoritative shard state.
#[derive(Debug)]
pub enum SealError {
    /// The accumulated churn delta does not chain onto the previous
    /// published snapshot — a corrupt or misdirected delta. The message
    /// carries the first inconsistency found.
    CorruptDelta {
        /// The epoch whose seal was rejected (the epoch was not committed).
        epoch: u64,
        /// Which chain invariant the delta violated.
        detail: String,
    },
    /// The durability layer failed to append the epoch's cut marker or
    /// seal record, or to fsync them. The epoch was not committed, and the
    /// previous snapshot keeps serving.
    Wal(WalError),
}

impl fmt::Display for SealError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SealError::CorruptDelta { epoch, detail } => {
                write!(f, "epoch {epoch} seal rejected: {detail}")
            }
            SealError::Wal(e) => write!(f, "epoch seal could not be logged: {e}"),
        }
    }
}

impl std::error::Error for SealError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SealError::CorruptDelta { .. } => None,
            SealError::Wal(e) => Some(e),
        }
    }
}

impl From<WalError> for SealError {
    fn from(e: WalError) -> Self {
        SealError::Wal(e)
    }
}

/// Why the write-ahead churn log failed.
#[derive(Debug)]
pub enum WalError {
    /// The underlying file operation failed.
    Io(io::Error),
    /// A record in a *non-final* segment failed its frame check. A torn
    /// tail in the final segment is expected after a crash and silently
    /// truncated; corruption anywhere else means the log is untrustworthy.
    Corrupt {
        /// The segment file holding the bad frame.
        segment: PathBuf,
        /// Byte offset of the frame within the segment.
        offset: u64,
        /// What failed: bad CRC, bad tag, short payload…
        detail: String,
    },
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "churn log I/O failed: {e}"),
            WalError::Corrupt {
                segment,
                offset,
                detail,
            } => write!(
                f,
                "churn log corrupt at {}+{offset}: {detail}",
                segment.display()
            ),
        }
    }
}

impl std::error::Error for WalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WalError::Io(e) => Some(e),
            WalError::Corrupt { .. } => None,
        }
    }
}

impl From<io::Error> for WalError {
    fn from(e: io::Error) -> Self {
        WalError::Io(e)
    }
}

/// Why a checkpoint could not be written or loaded: returned by
/// [`ShardedFleet::checkpoint`](crate::ShardedFleet::checkpoint) and the
/// [`checkpoint`](crate::checkpoint) module's file operations.
#[derive(Debug)]
pub enum CheckpointError {
    /// The underlying file operation failed.
    Io(io::Error),
    /// The checkpoint bytes did not parse (bad magic, version, framing).
    Codec(CodecError),
    /// The trailing CRC-32 did not match the checkpoint body.
    BadCrc {
        /// The checkpoint file that failed the check.
        path: PathBuf,
    },
    /// The checkpoint parses and passes its CRC but its sections
    /// contradict each other (e.g. a device cites a measurement with no
    /// bucket row), so a snapshot cannot be rebuilt from it.
    Inconsistent {
        /// The epoch the checkpoint claims to capture.
        epoch: u64,
        /// The contradiction found.
        detail: String,
    },
    /// The snapshot rebuilt from the checkpoint roster hashes differently
    /// from the content hash recorded inside the checkpoint.
    HashMismatch {
        /// The epoch the checkpoint claims to capture.
        epoch: u64,
        /// The content hash recorded in the checkpoint.
        expected: Digest,
        /// The content hash of the rebuilt snapshot.
        rebuilt: Digest,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O failed: {e}"),
            CheckpointError::Codec(e) => write!(f, "checkpoint does not parse: {e}"),
            CheckpointError::BadCrc { path } => {
                write!(f, "checkpoint {} fails its CRC check", path.display())
            }
            CheckpointError::Inconsistent { epoch, detail } => {
                write!(f, "checkpoint for epoch {epoch} is inconsistent: {detail}")
            }
            CheckpointError::HashMismatch {
                epoch,
                expected,
                rebuilt,
            } => write!(
                f,
                "checkpoint for epoch {epoch} rebuilds to content hash {rebuilt} \
                 but records {expected}"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            CheckpointError::Codec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

impl From<CodecError> for CheckpointError {
    fn from(e: CodecError) -> Self {
        CheckpointError::Codec(e)
    }
}

/// Why crash recovery failed.
#[derive(Debug)]
pub enum RecoveryError {
    /// The write-ahead log could not be opened or scanned.
    Wal(WalError),
    /// Listing or reading the checkpoints failed with an I/O error other
    /// than a missing file. (A damaged checkpoint is not an error: recovery
    /// skips it for an older one, or replays the whole log.)
    Checkpoint(CheckpointError),
    /// Replaying a logged epoch produced a snapshot whose content hash
    /// differs from the hash the pre-crash process sealed and logged —
    /// the recovered state does not match what was served before the
    /// crash, so recovery refuses to continue.
    HashMismatch {
        /// The replayed epoch whose hash diverged.
        epoch: u64,
        /// The content hash the pre-crash seal logged.
        logged: Digest,
        /// The content hash replay produced.
        recovered: Digest,
    },
    /// A checkpoint exists for an epoch whose cut marker is missing from
    /// the log, so replay cannot locate where the checkpointed prefix
    /// ends. (Only a served epoch is checkpointed, and its cut marker was
    /// fsynced before it was served, so this indicates log corruption or
    /// manual tampering.)
    MissingCut {
        /// The checkpointed epoch with no surviving cut marker.
        epoch: u64,
    },
    /// Replay sealed a different epoch number than the logged cut — the
    /// log's cut sequence is inconsistent with the checkpoint base.
    EpochMismatch {
        /// The epoch the logged cut marker names.
        logged: u64,
        /// The epoch the replayed seal actually produced.
        replayed: u64,
    },
    /// A replayed seal failed (corrupt delta during replay).
    Seal(Box<SealError>),
    /// The durable fleet could not be configured.
    Config(FleetConfigError),
}

impl fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryError::Wal(e) => write!(f, "recovery failed reading the churn log: {e}"),
            RecoveryError::Checkpoint(e) => {
                write!(f, "recovery failed loading a checkpoint: {e}")
            }
            RecoveryError::HashMismatch {
                epoch,
                logged,
                recovered,
            } => write!(
                f,
                "replayed epoch {epoch} hashes to {recovered} but the pre-crash \
                 seal logged {logged}"
            ),
            RecoveryError::MissingCut { epoch } => write!(
                f,
                "checkpoint for epoch {epoch} has no surviving cut marker in the log"
            ),
            RecoveryError::EpochMismatch { logged, replayed } => write!(
                f,
                "log cut names epoch {logged} but replay sealed epoch {replayed}"
            ),
            RecoveryError::Seal(e) => write!(f, "replayed seal failed: {e}"),
            RecoveryError::Config(e) => write!(f, "durable fleet misconfigured: {e}"),
        }
    }
}

impl std::error::Error for RecoveryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RecoveryError::Wal(e) => Some(e),
            RecoveryError::Checkpoint(e) => Some(e),
            RecoveryError::Seal(e) => Some(e),
            RecoveryError::Config(e) => Some(e),
            _ => None,
        }
    }
}

impl From<WalError> for RecoveryError {
    fn from(e: WalError) -> Self {
        RecoveryError::Wal(e)
    }
}

impl From<CheckpointError> for RecoveryError {
    fn from(e: CheckpointError) -> Self {
        RecoveryError::Checkpoint(e)
    }
}

impl From<SealError> for RecoveryError {
    fn from(e: SealError) -> Self {
        RecoveryError::Seal(Box::new(e))
    }
}

impl From<FleetConfigError> for RecoveryError {
    fn from(e: FleetConfigError) -> Self {
        RecoveryError::Config(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn implements_std_error_with_message() {
        fn check<E: std::error::Error + Send + Sync + 'static>() {}
        check::<FleetConfigError>();
        check::<IngestError>();
        check::<SealError>();
        check::<WalError>();
        check::<CheckpointError>();
        check::<RecoveryError>();
        assert!(FleetConfigError::ZeroShards
            .to_string()
            .contains("at least one"));
    }

    #[test]
    fn corrupt_delta_keeps_the_chain_vocabulary() {
        let e = SealError::CorruptDelta {
            epoch: 9,
            detail: "churn delta underflows bucket x: delta not chained on this snapshot"
                .to_string(),
        };
        assert!(e.to_string().contains("not chained"));
        assert!(e.to_string().contains("epoch 9"));
    }

    #[test]
    fn error_conversions_compose() {
        let io = io::Error::other("disk gone");
        let seal: SealError = WalError::from(io).into();
        assert!(matches!(seal, SealError::Wal(_)));
        let rec: RecoveryError = seal.into();
        assert!(matches!(rec, RecoveryError::Seal(_)));
        assert!(rec.to_string().contains("disk gone"));
    }
}
