//! What only `durable` does: disk accounting, the timed reopen, and the
//! power-loss check.
//!
//! Flush policy under test, as `fi-fleet` states it: the epoch-cut marker
//! and the seal record are fsynced, batch records are not. A process
//! crash keeps the operating system's cache, so the power-loss check
//! discards the unsynced bytes itself by cutting every WAL segment back
//! to the length it had when the last seal returned.
#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use fi_fleet::{DurabilityConfig, RecoveryReport, ShardedFleet};
use fi_serve::{FleetServer, ServeConfig};
use fi_types::Digest;

use crate::inputs::{Tick, REANCHOR_INTERVAL, SHARDS};

/// Bytes under a durability directory.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Usage {
    pub total_bytes: u64,
    pub wal_bytes: u64,
    pub segments: u64,
}

fn is_segment(path: &Path) -> bool {
    path.file_name()
        .and_then(|n| n.to_str())
        .is_some_and(|n| n.starts_with("wal-") && n.ends_with(".log"))
}

/// Every WAL segment under `dir` with its length, in name order.
pub fn segment_lengths(dir: &Path) -> std::io::Result<Vec<(PathBuf, u64)>> {
    let mut segments = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if is_segment(&path) {
            let len = std::fs::metadata(&path)?.len();
            segments.push((path, len));
        }
    }
    segments.sort();
    Ok(segments)
}

pub fn usage(dir: &Path) -> std::io::Result<Usage> {
    let mut usage = Usage::default();
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let len = std::fs::metadata(&path)?.len();
        usage.total_bytes += len;
        if is_segment(&path) {
            usage.wal_bytes += len;
            usage.segments += 1;
        }
    }
    Ok(usage)
}

/// Cuts the log back to `recorded`: longer segments are truncated, and
/// segments that did not exist then are removed.
pub fn rewind_segments(dir: &Path, recorded: &[(PathBuf, u64)]) -> std::io::Result<u64> {
    let mut discarded = 0;
    for (path, len) in segment_lengths(dir)? {
        match recorded.iter().find(|(p, _)| *p == path) {
            Some(&(_, kept)) if len > kept => {
                let file = std::fs::OpenOptions::new().write(true).open(&path)?;
                file.set_len(kept)?;
                file.sync_all()?;
                discarded += len - kept;
            }
            Some(_) => {}
            None => {
                std::fs::remove_file(&path)?;
                discarded += len;
            }
        }
    }
    Ok(discarded)
}

/// Opens the directory a fleet left behind and requires the recovered
/// fleet to publish `expected` with nothing pending. Returns the fleet,
/// what recovery did, and how long it took.
pub fn reopen(
    dir: &Path,
    expected: (u64, Digest),
    what: &str,
) -> Result<(ShardedFleet, RecoveryReport, f64), String> {
    let started = Instant::now();
    let (fleet, report) = ShardedFleet::open_durable(
        SHARDS,
        fi_serve::scenario_weights(),
        REANCHOR_INTERVAL,
        DurabilityConfig::new(dir),
    )
    .map_err(|e| format!("{what}: open_durable: {e}"))?;
    let seconds = started.elapsed().as_secs_f64();
    let published = fleet.snapshot();
    let got = (published.epoch(), published.content_hash());
    if got != expected {
        return Err(format!(
            "{what}: recovered epoch {} hash {}, expected epoch {} hash {}",
            got.0, got.1, expected.0, expected.1
        ));
    }
    if report.pending_ops != 0 {
        return Err(format!(
            "{what}: {} ops pending after recovery, expected none",
            report.pending_ops
        ));
    }
    Ok((fleet, report, seconds))
}

/// Power loss in the middle of an epoch: serve `partial` without sealing
/// it, drop the fleet, discard what was never fsynced, reopen, and
/// require the last sealed epoch back bit for bit. Returns the bytes the
/// rewind discarded.
pub fn power_loss_check(
    dir: &Path,
    fleet: ShardedFleet,
    sealed: (u64, Digest),
    recorded: &[(PathBuf, u64)],
    partial: &Tick,
) -> Result<u64, String> {
    let server = FleetServer::new(Arc::new(fleet), ServeConfig::default());
    for request in partial {
        server
            .submit(request.clone())
            .map_err(|e| format!("power-loss check: partial epoch shed: {e}"))?;
    }
    server
        .drain()
        .map_err(|e| format!("power-loss check: draining the partial epoch: {e}"))?;
    if server.fleet().published_epoch() != sealed.0 {
        return Err("power-loss check: the partial epoch was sealed".to_string());
    }
    server
        .shutdown()
        .map_err(|e| format!("power-loss check: shutdown: {e}"))?;
    let discarded =
        rewind_segments(dir, recorded).map_err(|e| format!("rewinding the WAL: {e}"))?;
    if discarded == 0 {
        return Err(
            "power-loss check: the partial epoch left no unsynced bytes to discard".to_string(),
        );
    }
    reopen(dir, sealed, "power-loss reopen")?;
    Ok(discarded)
}

/// What `durable` adds to a run's result.
#[derive(Debug)]
pub struct Facts {
    pub used: Usage,
    pub report: RecoveryReport,
    pub recovery_s: f64,
    /// Bytes the power-loss rewind discarded.
    pub discarded: u64,
}

/// After the measured phase ended on the seal of `sealed`: sizes the
/// directory, shuts `server` down and drops the fleet, times the reopen,
/// and runs the power-loss check with `partial` as the unsealed epoch.
pub fn close_and_recover(
    dir: &Path,
    server: FleetServer,
    sealed: (u64, Digest),
    partial: &Tick,
) -> Result<Facts, String> {
    let recorded = segment_lengths(dir).map_err(|e| format!("listing the WAL: {e}"))?;
    let used = usage(dir).map_err(|e| format!("sizing {}: {e}", dir.display()))?;
    server
        .shutdown()
        .map_err(|e| format!("server shutdown: {e}"))?;
    let (reopened, report, recovery_s) = reopen(dir, sealed, "reopen")?;
    let discarded = power_loss_check(dir, reopened, sealed, &recorded, partial)?;
    Ok(Facts {
        used,
        report,
        recovery_s,
        discarded,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rewind_truncates_grown_segments_and_removes_new_ones() {
        let dir = std::env::temp_dir().join(format!("fibench-rewind-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("wal-0000.log"), [1u8; 10]).unwrap();
        std::fs::write(dir.join("ckpt-0008.fic"), [2u8; 7]).unwrap();
        let recorded = segment_lengths(&dir).unwrap();
        assert_eq!(recorded, vec![(dir.join("wal-0000.log"), 10)]);

        std::fs::write(dir.join("wal-0000.log"), [1u8; 25]).unwrap();
        std::fs::write(dir.join("wal-0001.log"), [3u8; 5]).unwrap();
        assert_eq!(
            usage(&dir).unwrap(),
            Usage {
                total_bytes: 37,
                wal_bytes: 30,
                segments: 2
            }
        );
        assert_eq!(rewind_segments(&dir, &recorded).unwrap(), 20);
        assert_eq!(segment_lengths(&dir).unwrap(), recorded);
        assert_eq!(std::fs::read(dir.join("ckpt-0008.fic")).unwrap().len(), 7);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
