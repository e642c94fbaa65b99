//! The write-ahead churn log.
//!
//! Every churn batch a durable fleet applies is first framed and appended
//! here; every epoch seal appends a cut marker and then a seal record, and
//! fsyncs once after the record, before it publishes — one durability
//! point an epoch, covering its batches, its cut and its record. After a
//! crash, [`crate::recover`] replays the log on top of the latest
//! checkpoint and arrives at the exact pre-crash registry state — verified
//! hash-for-hash against the seal records the pre-crash process logged.
//!
//! ## On-disk format
//!
//! A log is a directory of segment files `wal-{seq:08}.log`. Each segment
//! starts with a 20-byte header — 8-byte magic `b"FIWALOG1"`, `u32`
//! format version, `u64` segment sequence number, all little-endian —
//! followed by frames:
//!
//! ```text
//! [u32 len] [len bytes payload] [u32 crc32(payload)]
//! ```
//!
//! The payload is a [`WalRecord`] in the `fi_types::codec` encoding.
//! Frames never span segments; when the active segment reaches the
//! configured size the log rotates to the next sequence number.
//!
//! ## Crash tolerance
//!
//! A crash can tear the last frame of the **final** segment (short frame,
//! bad CRC, or a CRC-valid prefix that does not decode). [`ChurnLog::open`]
//! detects the torn tail, truncates it, and resumes appending — losing at
//! most the frames that were never fsynced. The same tolerance in any
//! *earlier* segment is refused as [`WalError::Corrupt`]: rotation fsyncs
//! the outgoing segment, so a non-final segment can only be damaged by
//! external corruption, and replaying around it would silently drop
//! acknowledged history.
//!
//! A crash can also land inside segment *creation* — the file exists, its
//! 20-byte header is not all there yet. Such a **final** segment shorter
//! than its header is a torn tail too: no frame can precede a header, and
//! rotation fsynced the outgoing segment before it created this one, so
//! nothing acknowledged is in it. [`ChurnLog::open`] removes and re-creates
//! it; the recovery scan skips it. A full-length header that does not
//! parse, or a short segment that is not the last, is still `Corrupt`.
//!
//! ## What survives what
//!
//! A batch is written to its segment file before ingest acknowledges it,
//! but not fsynced; the epoch's seal fsyncs once, before it returns.
//!
//! * **Process crash** (the operating system survives, and with it every
//!   written byte): every acknowledged batch survives. Batches no seal
//!   covered replay into the next epoch, as
//!   [`RecoveryReport::pending_ops`](crate::RecoveryReport).
//! * **Power loss** (unsynced bytes may vanish): everything up to the
//!   fsync of the last seal that *returned* survives — its epoch's
//!   batches, cut and record, and every earlier epoch — and recovery lands
//!   on that seal's epoch and hash, or on a later seal whose fsync
//!   completed before it could return. Batches acknowledged after that
//!   seal may be lost, whole or as a torn tail.
//!
//! ## Reading the log back
//!
//! Recovery reads the log through a crate-private streaming scan: one
//! segment at a time, every frame in it checked and decoded, each record
//! handed over with its position (segment sequence number, frame index)
//! and then dropped — never the whole log at once.

use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

use fi_attest::ChurnOp;
use fi_types::codec::{read_header, write_header, CodecError, Decode, Encode, Reader};
use fi_types::{crc32, Digest};

use crate::error::WalError;

/// Magic prefix of every WAL segment.
const WAL_MAGIC: &[u8; 8] = b"FIWALOG1";
/// Current segment format version.
const WAL_VERSION: u32 = 1;
/// Bytes of segment header: magic + version + sequence number.
const HEADER_LEN: u64 = 8 + 4 + 8;
/// Frame overhead: length prefix + CRC suffix.
const FRAME_OVERHEAD: u64 = 4 + 4;
/// Default rotation threshold (8 MiB).
pub const DEFAULT_SEGMENT_BYTES: u64 = 8 * 1024 * 1024;

/// One durable log entry.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A churn batch, logged *before* it is applied to the shards.
    Batch(Vec<ChurnOp>),
    /// An epoch cut: every batch framed before this marker belongs to
    /// `epoch` or earlier; every batch after it to a later epoch. Appended
    /// while the ingest gate is held exclusively, and not synced on its
    /// own: the seal record's fsync makes it durable.
    EpochCut {
        /// The epoch the cut begins sealing.
        epoch: u64,
    },
    /// The content hash the seal of `epoch` is about to publish — the
    /// recovery oracle. Appended after the build and fsynced before
    /// publication, so a crash before that fsync returns can leave a cut
    /// with no seal record, for an epoch that was never served (replay still
    /// verifies every epoch that *does* have one). A record a later cut
    /// for the same epoch supersedes is skipped (see [`crate::recover`]).
    EpochSeal {
        /// The sealed epoch.
        epoch: u64,
        /// The published snapshot's content hash.
        content_hash: Digest,
    },
}

/// The payload of a [`WalRecord::Batch`] over `ops`, encoded from the
/// borrowed slice.
fn encode_batch(ops: &[ChurnOp], out: &mut Vec<u8>) {
    out.push(1);
    ops.encode(out);
}

impl Encode for WalRecord {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            WalRecord::Batch(ops) => encode_batch(ops, out),
            WalRecord::EpochCut { epoch } => {
                out.push(2);
                epoch.encode(out);
            }
            WalRecord::EpochSeal {
                epoch,
                content_hash,
            } => {
                out.push(3);
                epoch.encode(out);
                content_hash.encode(out);
            }
        }
    }
}

impl Decode for WalRecord {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match u8::decode(r)? {
            1 => Ok(WalRecord::Batch(Vec::<ChurnOp>::decode(r)?)),
            2 => Ok(WalRecord::EpochCut {
                epoch: u64::decode(r)?,
            }),
            3 => Ok(WalRecord::EpochSeal {
                epoch: u64::decode(r)?,
                content_hash: Digest::decode(r)?,
            }),
            tag => Err(CodecError::InvalidTag {
                context: "WalRecord",
                tag,
            }),
        }
    }
}

/// Where a record sits in the log: its segment's sequence number and its
/// frame's index within that segment. Orders as append order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct RecordPos {
    pub(crate) segment: u64,
    pub(crate) frame: usize,
}

/// An append-only, segment-rotated churn log rooted at a directory.
#[derive(Debug)]
pub struct ChurnLog {
    dir: PathBuf,
    segment_bytes: u64,
    active: File,
    active_seq: u64,
    active_len: u64,
}

impl ChurnLog {
    /// Opens (or creates) the log at `dir`, truncating any torn tail left
    /// by a crash. Returns the log and the number of torn bytes dropped.
    pub fn open(dir: impl Into<PathBuf>, segment_bytes: u64) -> Result<(Self, u64), WalError> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let segments = list_segments(&dir)?;
        let (active_seq, path, bytes) = match segments.last() {
            Some((seq, path)) => (*seq, path.clone(), fs::read(path)?),
            None => (0, segment_path(&dir, 0), Vec::new()),
        };
        let (active_len, torn_bytes) = if (bytes.len() as u64) < HEADER_LEN {
            // No segment yet, or a crash inside `create_segment` left the
            // newest one shorter than its header: (re-)create it.
            if !segments.is_empty() {
                fs::remove_file(&path)?;
            }
            create_segment(&path, active_seq)?;
            sync_dir(&dir);
            (HEADER_LEN, bytes.len() as u64)
        } else {
            let scan = scan_segment(&bytes, &path, active_seq, true, None)?;
            if scan.torn_bytes > 0 {
                // Drop the torn tail so new frames append onto a clean prefix.
                let f = OpenOptions::new().write(true).open(&path)?;
                f.set_len(scan.valid_len)?;
                f.sync_all()?;
            }
            (scan.valid_len, scan.torn_bytes)
        };
        let active = OpenOptions::new().append(true).open(&path)?;
        Ok((
            ChurnLog {
                dir,
                segment_bytes: segment_bytes.max(HEADER_LEN + FRAME_OVERHEAD),
                active,
                active_seq,
                active_len,
            },
            torn_bytes,
        ))
    }

    /// Appends one framed record (buffered — call [`sync`](Self::sync) to
    /// make it durable). Rotates to a fresh segment first if the active one
    /// has reached the configured size.
    pub fn append(&mut self, record: &WalRecord) -> Result<(), WalError> {
        self.append_frame(|out| record.encode(out))
    }

    /// [`append`](Self::append) of `WalRecord::Batch(ops.to_vec())`,
    /// byte for byte, without the copy: the ingest path logs every batch
    /// through here under the log mutex.
    pub fn append_batch(&mut self, ops: &[ChurnOp]) -> Result<(), WalError> {
        self.append_frame(|out| encode_batch(ops, out))
    }

    /// The one frame writer: rotates if due, then writes `payload`'s
    /// bytes as a length-prefixed, CRC-suffixed frame.
    fn append_frame(&mut self, payload: impl FnOnce(&mut Vec<u8>)) -> Result<(), WalError> {
        if self.active_len >= self.segment_bytes {
            self.rotate()?;
        }
        // Framed in one buffer: a length placeholder, the payload encoded
        // behind it, the length patched in, the payload's CRC appended.
        let mut frame = vec![0u8; 4];
        payload(&mut frame);
        let (len, payload) = frame.split_at_mut(4);
        len.copy_from_slice(&(payload.len() as u32).to_le_bytes());
        let crc = crc32(payload);
        crc.encode(&mut frame);
        self.active.write_all(&frame)?;
        self.active_len += frame.len() as u64;
        Ok(())
    }

    /// Forces everything appended so far to stable storage.
    pub fn sync(&mut self) -> Result<(), WalError> {
        self.active.sync_data()?;
        Ok(())
    }

    fn rotate(&mut self) -> Result<(), WalError> {
        // The outgoing segment must be durable before it becomes non-final:
        // the torn-tail tolerance only covers the last segment.
        self.active.sync_all()?;
        let next = self.active_seq + 1;
        let path = segment_path(&self.dir, next);
        create_segment(&path, next)?;
        sync_dir(&self.dir);
        self.active = OpenOptions::new().append(true).open(&path)?;
        self.active_seq = next;
        self.active_len = HEADER_LEN;
        Ok(())
    }
}

/// Streams the log under `dir` to `visit`, one segment at a time: every
/// intact record at or after `from`, in append order, with its position.
/// Returns the bytes of torn tail found (not repaired) in the final
/// segment — a final segment torn inside its header included, which holds
/// no record.
///
/// Every segment's sequence is checked, but segments before `from`'s are
/// not read. From `from`'s segment on, every frame is checked and decoded,
/// those before `from` in its segment included; corruption anywhere but
/// the final segment's tail is a hard [`WalError::Corrupt`]. One segment's
/// bytes and decoded records are held at a time.
pub(crate) fn scan<E: From<WalError>>(
    dir: &Path,
    from: RecordPos,
    mut visit: impl FnMut(RecordPos, WalRecord) -> Result<(), E>,
) -> Result<u64, E> {
    let segments = list_segments(dir)?;
    let first = segments.first().map_or(0, |(seq, _)| *seq);
    let mut torn_bytes = 0;
    for (i, (seq, path)) in segments.iter().enumerate() {
        let expected = first + i as u64;
        if *seq != expected {
            return Err(WalError::Corrupt {
                segment: path.clone(),
                offset: 0,
                detail: format!("segment sequence gap: expected {expected} next, found {seq}"),
            }
            .into());
        }
        if *seq < from.segment {
            continue;
        }
        let is_last = i + 1 == segments.len();
        let bytes = fs::read(path).map_err(WalError::from)?;
        if is_last && (bytes.len() as u64) < HEADER_LEN {
            torn_bytes += bytes.len() as u64;
            break;
        }
        let mut records = Vec::new();
        torn_bytes += scan_segment(&bytes, path, *seq, is_last, Some(&mut records))?.torn_bytes;
        drop(bytes);
        for (frame, record) in records.into_iter().enumerate() {
            let pos = RecordPos {
                segment: *seq,
                frame,
            };
            if pos >= from {
                visit(pos, record)?;
            }
        }
    }
    Ok(torn_bytes)
}

struct SegmentScan {
    valid_len: u64,
    torn_bytes: u64,
}

/// Walks one segment's frames. `is_last` turns frame damage into a torn
/// tail (scan stops, remaining bytes counted) instead of a hard error.
fn scan_segment(
    bytes: &[u8],
    path: &Path,
    expect_seq: u64,
    is_last: bool,
    mut records: Option<&mut Vec<WalRecord>>,
) -> Result<SegmentScan, WalError> {
    let fail = |offset: u64, detail: String| -> WalError {
        WalError::Corrupt {
            segment: path.to_path_buf(),
            offset,
            detail,
        }
    };
    // Header. Always hard: a final segment torn inside its header never
    // gets here (`ChurnLog::open` re-creates it, `scan` skips it),
    // so a header that fails is a short non-final segment or foreign bytes.
    let mut r = Reader::new(bytes);
    let version = read_header(&mut r, WAL_MAGIC, WAL_VERSION)
        .map_err(|e| fail(0, format!("bad segment header: {e}")))?;
    debug_assert!(version <= WAL_VERSION);
    let seq = u64::decode(&mut r).map_err(|e| fail(0, format!("bad segment header: {e}")))?;
    if seq != expect_seq {
        return Err(fail(
            0,
            format!("segment header names sequence {seq}, file name says {expect_seq}"),
        ));
    }

    let mut pos = HEADER_LEN as usize;
    loop {
        let start = pos as u64;
        // lint: allow(panic) `pos` starts at HEADER_LEN (validated against
        // the segment length) and advances by `total` only after the frame
        // was bounds-checked, so the range start never exceeds the buffer.
        let remaining = &bytes[pos..];
        if remaining.is_empty() {
            return Ok(SegmentScan {
                valid_len: start,
                torn_bytes: 0,
            });
        }
        let torn = |detail: String| -> Result<SegmentScan, WalError> {
            if is_last {
                Ok(SegmentScan {
                    valid_len: start,
                    torn_bytes: (bytes.len() - pos) as u64,
                })
            } else {
                Err(fail(start, detail))
            }
        };
        if remaining.len() < 4 {
            return torn("short frame length prefix".to_string());
        }
        // lint: allow(panic) guarded by the `remaining.len() < 4` torn
        // check just above; the 4-byte try_into is then infallible.
        let len = u32::from_le_bytes(remaining[..4].try_into().expect("4 bytes")) as usize;
        let total = 4 + len + 4;
        if remaining.len() < total {
            return torn(format!(
                "frame declares {len} payload bytes, only {} remain",
                remaining.len().saturating_sub(FRAME_OVERHEAD as usize)
            ));
        }
        // lint: allow(panic) guarded by the `remaining.len() < total`
        // torn check just above (total = 4 + len + 4).
        let payload = &remaining[4..4 + len];
        // lint: allow(panic) same bounds guarantee; the CRC slice is
        // exactly 4 bytes, so the try_into is infallible.
        let stored_crc = u32::from_le_bytes(remaining[4 + len..total].try_into().expect("4 bytes"));
        if crc32(payload) != stored_crc {
            return torn("frame CRC mismatch".to_string());
        }
        match WalRecord::from_bytes(payload) {
            Ok(record) => {
                if let Some(out) = records.as_deref_mut() {
                    out.push(record);
                }
            }
            Err(e) => return torn(format!("CRC-valid frame does not decode: {e}")),
        }
        pos += total;
    }
}

fn segment_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("wal-{seq:08}.log"))
}

fn create_segment(path: &Path, seq: u64) -> Result<(), WalError> {
    let mut header = Vec::with_capacity(HEADER_LEN as usize);
    write_header(&mut header, WAL_MAGIC, WAL_VERSION);
    seq.encode(&mut header);
    let mut f = OpenOptions::new().write(true).create_new(true).open(path)?;
    f.write_all(&header)?;
    f.sync_all()?;
    Ok(())
}

/// Lists `wal-*.log` segments sorted by sequence number.
fn list_segments(dir: &Path) -> Result<Vec<(u64, PathBuf)>, WalError> {
    let mut segments = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(seq) = name
            .strip_prefix("wal-")
            .and_then(|rest| rest.strip_suffix(".log"))
            .and_then(|digits| digits.parse::<u64>().ok())
        else {
            continue;
        };
        segments.push((seq, entry.path()));
    }
    segments.sort_unstable();
    Ok(segments)
}

/// Best-effort directory fsync so segment creation survives power loss.
fn sync_dir(dir: &Path) {
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use fi_types::{sha256, ReplicaId, VotingPower};
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Every intact record of a log and its torn-tail bytes.
    #[derive(Debug)]
    pub(crate) struct Collected {
        pub(crate) records: Vec<WalRecord>,
        pub(crate) truncated_bytes: u64,
    }

    /// The whole log under `dir`, collected through the streaming scan.
    pub(crate) fn read_records(dir: impl AsRef<Path>) -> Result<Collected, WalError> {
        let mut records = Vec::new();
        let truncated_bytes = scan(dir.as_ref(), RecordPos::default(), |_, record| {
            records.push(record);
            Ok::<_, WalError>(())
        })?;
        Ok(Collected {
            records,
            truncated_bytes,
        })
    }

    fn tmpdir(tag: &str) -> PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("fi-wal-{tag}-{}-{n}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample_records(n: u64) -> Vec<WalRecord> {
        (0..n)
            .map(|i| match i % 3 {
                0 => WalRecord::Batch(vec![
                    ChurnOp::attest(
                        ReplicaId::new(i),
                        sha256(i.to_le_bytes()),
                        VotingPower::new(i + 1),
                    ),
                    ChurnOp::Deregister {
                        replica: ReplicaId::new(i + 1000),
                    },
                ]),
                1 => WalRecord::EpochCut { epoch: i },
                _ => WalRecord::EpochSeal {
                    epoch: i,
                    content_hash: sha256(i.to_le_bytes()),
                },
            })
            .collect()
    }

    #[test]
    fn records_survive_append_and_reopen() {
        let dir = tmpdir("roundtrip");
        let records = sample_records(10);
        {
            let (mut log, torn) = ChurnLog::open(&dir, DEFAULT_SEGMENT_BYTES).unwrap();
            assert_eq!(torn, 0);
            for r in &records {
                log.append(r).unwrap();
            }
            log.sync().unwrap();
        }
        let scan = read_records(&dir).unwrap();
        assert_eq!(scan.records, records);
        assert_eq!(scan.truncated_bytes, 0);
        // Reopening finds a clean tail and appends after the existing data.
        let (mut log, torn) = ChurnLog::open(&dir, DEFAULT_SEGMENT_BYTES).unwrap();
        assert_eq!(torn, 0);
        log.append(&WalRecord::EpochCut { epoch: 99 }).unwrap();
        log.sync().unwrap();
        let scan = read_records(&dir).unwrap();
        assert_eq!(scan.records.len(), records.len() + 1);
        assert_eq!(
            *scan.records.last().unwrap(),
            WalRecord::EpochCut { epoch: 99 }
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn append_batch_writes_the_bytes_append_writes_for_a_batch_record() {
        // One op, a two-op batch, and a multi-KiB one; the empty batch is
        // the edge next to them (the fleet never logs it, the codec can).
        let op = |i: u64| {
            ChurnOp::attest(
                ReplicaId::new(i),
                sha256(i.to_le_bytes()),
                VotingPower::new(i + 1),
            )
        };
        let batches: Vec<Vec<ChurnOp>> = vec![
            Vec::new(),
            vec![op(7)],
            vec![
                op(1),
                ChurnOp::Deregister {
                    replica: ReplicaId::new(9),
                },
            ],
            (0..200).map(op).collect(),
        ];
        let segment = |tag: &str, write: &dyn Fn(&mut ChurnLog, &[ChurnOp])| {
            let dir = tmpdir(tag);
            let (mut log, _) = ChurnLog::open(&dir, DEFAULT_SEGMENT_BYTES).unwrap();
            for ops in &batches {
                write(&mut log, ops);
            }
            log.sync().unwrap();
            let bytes = fs::read(segment_path(&dir, log.active_seq)).unwrap();
            let records = read_records(&dir).unwrap().records;
            let _ = fs::remove_dir_all(&dir);
            (bytes, records)
        };
        let (borrowed, decoded) =
            segment("batch-borrowed", &|log, ops| log.append_batch(ops).unwrap());
        let (owned, _) = segment("batch-owned", &|log, ops| {
            log.append(&WalRecord::Batch(ops.to_vec())).unwrap();
        });
        assert!(borrowed.len() > 4096, "the large batch spans multiple KiB");
        assert_eq!(borrowed, owned);
        let expected: Vec<WalRecord> = batches.into_iter().map(WalRecord::Batch).collect();
        assert_eq!(decoded, expected);
    }

    #[test]
    fn torn_tail_is_truncated_on_open() {
        let dir = tmpdir("torn");
        let records = sample_records(6);
        let path = {
            let (mut log, _) = ChurnLog::open(&dir, DEFAULT_SEGMENT_BYTES).unwrap();
            for r in &records {
                log.append(r).unwrap();
            }
            log.sync().unwrap();
            segment_path(&dir, log.active_seq)
        };
        // Tear the last frame mid-payload.
        let full = fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(full - 3).unwrap();
        drop(f);
        // A pure scan tolerates the tear without repairing it.
        let scan = read_records(&dir).unwrap();
        assert_eq!(scan.records, records[..records.len() - 1]);
        assert!(scan.truncated_bytes > 0);
        // Open repairs it and appends cleanly where the tear was.
        let (mut log, torn) = ChurnLog::open(&dir, DEFAULT_SEGMENT_BYTES).unwrap();
        assert!(torn > 0);
        log.append(records.last().unwrap()).unwrap();
        log.sync().unwrap();
        let scan = read_records(&dir).unwrap();
        assert_eq!(scan.records, records);
        assert_eq!(scan.truncated_bytes, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_newest_segment_torn_inside_its_header_is_recreated_on_open() {
        // A crash between `create_segment`'s `create_new` and its fsync
        // leaves `wal-<next>.log` with 0..20 of its 20 header bytes.
        let records = sample_records(12);
        let mut header = Vec::new();
        write_header(&mut header, WAL_MAGIC, WAL_VERSION);
        for len in 0..HEADER_LEN as usize {
            let dir = tmpdir("torn-header");
            let next = {
                let (mut log, _) = ChurnLog::open(&dir, 64).unwrap();
                for r in &records {
                    log.append(r).unwrap();
                }
                log.sync().unwrap();
                log.active_seq + 1
            };
            let mut full = header.clone();
            next.encode(&mut full);
            fs::write(segment_path(&dir, next), &full[..len]).unwrap();

            // A pure scan skips the stub without repairing it.
            let scan = read_records(&dir).unwrap();
            assert_eq!(scan.records, records, "len {len}");
            assert_eq!(scan.truncated_bytes, len as u64);
            // Open re-creates it whole and appends into it.
            let (mut log, torn) = ChurnLog::open(&dir, 64).unwrap();
            assert_eq!(torn, len as u64);
            assert_eq!(log.active_seq, next);
            log.append(&WalRecord::EpochCut { epoch: 99 }).unwrap();
            log.sync().unwrap();
            drop(log);
            let scan = read_records(&dir).unwrap();
            assert_eq!(scan.records.len(), records.len() + 1, "len {len}");
            assert_eq!(
                scan.records.last(),
                Some(&WalRecord::EpochCut { epoch: 99 })
            );
            assert_eq!(scan.truncated_bytes, 0);
            assert_eq!(
                fs::read(segment_path(&dir, next)).unwrap()[..full.len()],
                full[..]
            );

            // What stays hard: the same stub once it is no longer the last
            // segment, and a full-length header that does not parse.
            fs::write(segment_path(&dir, next), &full[..len]).unwrap();
            fs::write(segment_path(&dir, next + 1), b"").unwrap();
            assert!(matches!(read_records(&dir), Err(WalError::Corrupt { .. })));
            fs::remove_file(segment_path(&dir, next + 1)).unwrap();
            fs::write(segment_path(&dir, next), [0xAB; HEADER_LEN as usize]).unwrap();
            assert!(matches!(
                ChurnLog::open(&dir, 64),
                Err(WalError::Corrupt { .. })
            ));
            let _ = fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn rotation_splits_segments_and_replays_in_order() {
        let dir = tmpdir("rotate");
        let records = sample_records(40);
        {
            // Tiny threshold: every record lands in (roughly) its own segment.
            let (mut log, _) = ChurnLog::open(&dir, 64).unwrap();
            for r in &records {
                log.append(r).unwrap();
            }
            log.sync().unwrap();
        }
        let segments = list_segments(&dir).unwrap();
        assert!(
            segments.len() >= 2,
            "expected rotation, got {} segment(s)",
            segments.len()
        );
        assert_eq!(read_records(&dir).unwrap().records, records);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_scan_from_a_position_streams_exactly_the_records_at_or_after_it() {
        let dir = tmpdir("scan-from");
        let records = sample_records(40);
        {
            let (mut log, _) = ChurnLog::open(&dir, 64).unwrap();
            for r in &records {
                log.append(r).unwrap();
            }
            log.sync().unwrap();
        }
        let from = |start: RecordPos| {
            let mut out = Vec::new();
            scan(&dir, start, |pos, record| {
                out.push((pos, record));
                Ok::<_, WalError>(())
            })
            .unwrap();
            out
        };
        let all = from(RecordPos::default());
        assert_eq!(
            all.iter().map(|(_, r)| r.clone()).collect::<Vec<_>>(),
            records
        );
        assert!(all.windows(2).all(|w| w[0].0 < w[1].0));
        assert!(all.last().unwrap().0.segment > 2, "expected rotation");
        for (i, (pos, _)) in all.iter().enumerate() {
            assert_eq!(from(*pos), all[i..]);
        }
        let past_end = RecordPos {
            segment: all.last().unwrap().0.segment + 1,
            frame: 0,
        };
        assert!(from(past_end).is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corruption_in_a_non_final_segment_is_a_hard_error() {
        let dir = tmpdir("corrupt");
        {
            let (mut log, _) = ChurnLog::open(&dir, 64).unwrap();
            for r in sample_records(40) {
                log.append(&r).unwrap();
            }
            log.sync().unwrap();
        }
        let segments = list_segments(&dir).unwrap();
        assert!(segments.len() >= 3);
        // Flip one payload byte in the middle segment.
        let victim = &segments[segments.len() / 2].1;
        let mut bytes = fs::read(victim).unwrap();
        let idx = HEADER_LEN as usize + 6;
        bytes[idx] ^= 0xFF;
        fs::write(victim, &bytes).unwrap();
        let err = read_records(&dir).unwrap_err();
        assert!(matches!(err, WalError::Corrupt { .. }), "got {err}");
        // The same damage in the final segment is tolerated as a torn tail.
        let last = segments.last().unwrap().1.clone();
        let mut bytes = fs::read(&last).unwrap();
        let idx = HEADER_LEN as usize + 6;
        bytes[idx] ^= 0xFF;
        fs::write(&last, &bytes).unwrap();
        fs::write(
            victim,
            fs::read(victim)
                .map(|mut b| {
                    b[HEADER_LEN as usize + 6] ^= 0xFF; // restore the middle segment
                    b
                })
                .unwrap(),
        )
        .unwrap();
        let scan = read_records(&dir).unwrap();
        assert!(scan.truncated_bytes > 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_middle_segment_is_a_hard_error() {
        let dir = tmpdir("gap");
        {
            let (mut log, _) = ChurnLog::open(&dir, 64).unwrap();
            for r in sample_records(40) {
                log.append(&r).unwrap();
            }
            log.sync().unwrap();
        }
        let segments = list_segments(&dir).unwrap();
        assert!(segments.len() >= 3);
        fs::remove_file(&segments[1].1).unwrap();
        let err = read_records(&dir).unwrap_err();
        assert!(err.to_string().contains("sequence gap"), "got {err}");
        let _ = fs::remove_dir_all(&dir);
    }
}
