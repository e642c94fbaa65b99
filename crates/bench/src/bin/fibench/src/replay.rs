//! The stage replay: one thread feeds the generated inputs to each
//! layer's public function in the order `FleetServer` calls them, with a
//! span around every call, and probes the sealed snapshots.
//!
//! ```text
//! Coalescer::extend/take → log_batch → split_by_shard → apply_shard_batch
//!   (per shard) → try_seal_epoch → SnapshotHandle::get → select_greedy_cached
//! ```
//!
//! Because nothing runs beside it, a stage's span *is* that layer's self
//! time. The replay must seal the chain the real driver sealed, and its
//! stages must account for its wall time.
#![forbid(unsafe_code)]

use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;

use fault_independence::DiversityReport;
use fi_committee::{greedy_diverse, Committee, WarmReport};
use fi_fleet::{
    Checkpoint, ChurnLog, EpochSnapshot, ShardedFleet, WalRecord, DEFAULT_SEGMENT_BYTES,
};
use fi_serve::{Coalescer, ServeConfig};

use crate::common::{stand_up, Chain};
use crate::inputs::{Inputs, Tick, COMMITTEE_K, READ_BLOCK, REANCHOR_INTERVAL, SHARDS};
use crate::span::{self_times, Span, Tracer};

/// Share of the replay's wall time its stages may leave unaccounted.
pub const STAGE_SUM_TOLERANCE: f64 = 0.05;
/// Memoized selections timed as one block.
const CACHE_HIT_BLOCK: usize = 64;

/// How the real driver turns ticks into flushes and epochs.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Requests pass the coalescer and flush at the server's watermark
    /// (`steady`, `durable`, `paced`); otherwise every request is its own
    /// batch (`mixed`).
    pub coalesce: bool,
    pub ticks_per_epoch: usize,
}

/// What the replay measured.
#[derive(Debug)]
pub struct Replay {
    pub chain: Chain,
    pub spans: Vec<Span>,
    pub wall_s: f64,
    /// Share of `wall_s` inside stage spans.
    pub stage_sum_share: f64,
    pub shard_busy_ns: [u64; SHARDS],
    pub ops_in: u64,
    pub ops_flushed: u64,
    pub warm: Vec<WarmReport>,
    pub checkpoint_bytes: u64,
    pub last: Arc<EpochSnapshot>,
}

struct Stages<'a> {
    fleet: &'a ShardedFleet,
    tracer: Tracer,
    shard_busy_ns: [u64; SHARDS],
    ops_flushed: u64,
}

impl Stages<'_> {
    /// One flush, as `FleetServer::dispatch_flush` performs it.
    fn flush(&mut self, building: u64, batch: &[fi_attest::ChurnOp]) -> Result<(), String> {
        if batch.is_empty() {
            return Ok(());
        }
        let (fleet, tracer) = (self.fleet, &mut self.tracer);
        tracer
            .span("log_batch", building, || fleet.log_batch(batch))
            .map_err(|e| format!("replay log_batch: {e}"))?;
        let per_shard = tracer.span("split_by_shard", building, || fleet.split_by_shard(batch));
        for (index, ops) in per_shard
            .iter()
            .enumerate()
            .filter(|(_, ops)| !ops.is_empty())
        {
            let open = tracer.enter("apply_shard_batch", building);
            fleet.apply_shard_batch(index, ops);
            self.shard_busy_ns[index] += tracer.exit(open);
        }
        self.ops_flushed += batch.len() as u64;
        Ok(())
    }
}

/// Probes of one sealed snapshot; each is a stage of its own.
fn probe_snapshot(
    stages: &mut Stages<'_>,
    snapshot: &Arc<EpochSnapshot>,
    previous: Option<&Arc<Committee>>,
    warm: &mut Vec<WarmReport>,
) -> Result<(), String> {
    let epoch = snapshot.epoch();
    let (fleet, tracer) = (stages.fleet, &mut stages.tracer);
    tracer.span("probe.get_block", epoch, || {
        let mut reader = fleet.reader();
        for _ in 0..READ_BLOCK {
            black_box(reader.get());
        }
    });
    tracer.span("probe.entropy_block", epoch, || {
        for _ in 0..READ_BLOCK {
            black_box(black_box(snapshot).entropy_bits(false).ok());
        }
    });
    tracer.span("probe.cache_hit_block", epoch, || {
        for _ in 0..CACHE_HIT_BLOCK {
            black_box(fleet.select_greedy_cached(COMMITTEE_K));
        }
    });
    tracer
        .span("probe.report", epoch, || {
            DiversityReport::from_snapshot(snapshot, false)
        })
        .map_err(|e| format!("diversity report of epoch {epoch}: {e}"))?;
    let pruned = tracer.span("probe.select_greedy", epoch, || {
        snapshot.select_greedy(COMMITTEE_K)
    });
    if let (Some(previous), Some(_)) = (previous, snapshot.parent_hash()) {
        let (warmed, report) = tracer.span("probe.select_greedy_warm", epoch, || {
            snapshot.select_greedy_warm(COMMITTEE_K, previous.members())
        });
        if warmed.members() != pruned.members() {
            return Err(format!("epoch {epoch}: warm and pruned selections differ"));
        }
        warm.push(report);
    }
    Ok(())
}

/// Durable only: the checkpoint round trip of a re-anchor epoch and one
/// fsynced append of the size a cut marker has.
fn probe_durability(
    stages: &mut Stages<'_>,
    snapshot: &EpochSnapshot,
    probe_dir: &Path,
    probe_log: &mut ChurnLog,
) -> Result<u64, String> {
    let epoch = snapshot.epoch();
    let tracer = &mut stages.tracer;
    tracer
        .span("probe.wal_append_sync", epoch, || {
            probe_log
                .append(&WalRecord::EpochCut { epoch })
                .and_then(|()| probe_log.sync())
        })
        .map_err(|e| format!("WAL probe: {e}"))?;
    if !epoch.is_multiple_of(REANCHOR_INTERVAL) {
        return Ok(0);
    }
    let checkpoint = tracer.span("probe.checkpoint_from_snapshot", epoch, || {
        Checkpoint::from_snapshot(snapshot)
    });
    let path = tracer
        .span("probe.checkpoint_write", epoch, || {
            checkpoint.write(probe_dir)
        })
        .map_err(|e| format!("checkpoint probe write: {e}"))?;
    let bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
    let (_, loaded) = tracer
        .span("probe.checkpoint_load", epoch, || Checkpoint::load(&path))
        .map_err(|e| format!("checkpoint probe load: {e}"))?;
    let _ = std::fs::remove_file(&path);
    if loaded.content_hash() != snapshot.content_hash() {
        return Err(format!("checkpoint of epoch {epoch} loads to another hash"));
    }
    Ok(bytes)
}

/// Replays `ticks` on a fresh fleet stood up from `inputs` (durable when
/// `dir` is given; its probes then also write under `dir`).
pub fn run(
    inputs: &Inputs,
    ticks: &[Tick],
    shape: Shape,
    dir: Option<&Path>,
) -> Result<Replay, String> {
    let fleet_dir = dir.map(|d| d.join("fleet"));
    let fleet = stand_up(inputs, fleet_dir.as_deref())?;
    let mut durability = match dir {
        Some(dir) => {
            let probe_dir = dir.join("probe");
            let (log, _) = ChurnLog::open(&probe_dir, DEFAULT_SEGMENT_BYTES)
                .map_err(|e| format!("opening the WAL probe log: {e}"))?;
            Some((probe_dir, log))
        }
        None => None,
    };
    let flush_ops = ServeConfig::default().flush_ops;
    let mut stages = Stages {
        fleet: &fleet,
        tracer: Tracer::new(true),
        shard_busy_ns: [0; SHARDS],
        ops_flushed: 0,
    };
    let mut reader = fleet.reader();
    let mut chain: Chain = vec![(reader.get().epoch(), reader.get().content_hash())];
    let mut coalescer = Coalescer::new();
    let mut previous: Option<Arc<Committee>> = None;
    let mut warm = Vec::new();
    let mut ops_in = 0u64;
    let mut checkpoint_bytes = 0u64;

    let root = stages.tracer.enter("replay", 0);
    for (i, tick) in ticks.iter().enumerate() {
        let building = chain.len() as u64 + 1;
        for request in tick {
            ops_in += request.len() as u64;
            if !shape.coalesce {
                stages.flush(building, request)?;
                continue;
            }
            let full = stages.tracer.span("coalesce", building, || {
                coalescer.extend(request.iter().copied());
                (coalescer.len() >= flush_ops).then(|| coalescer.take())
            });
            if let Some(batch) = full {
                stages.flush(building, &batch)?;
            }
        }
        if (i + 1) % shape.ticks_per_epoch != 0 {
            continue;
        }
        if shape.coalesce {
            let rest = stages
                .tracer
                .span("coalesce", building, || coalescer.take());
            stages.flush(building, &rest)?;
        }
        let seal = if building.is_multiple_of(REANCHOR_INTERVAL) {
            "try_seal_epoch.full"
        } else {
            "try_seal_epoch.diff"
        };
        let sealed = stages
            .tracer
            .span(seal, building, || fleet.try_seal_epoch())
            .map_err(|e| format!("replay seal of epoch {building}: {e}"))?;
        let snapshot = stages
            .tracer
            .span("get", building, || Arc::clone(reader.get()));
        let committee = stages.tracer.span("select_greedy_cached", building, || {
            fleet.select_greedy_cached(COMMITTEE_K)
        });
        if snapshot.epoch() != sealed.epoch() {
            return Err(format!(
                "replay reader serves epoch {} after sealing {building}",
                snapshot.epoch()
            ));
        }
        chain.push((snapshot.epoch(), snapshot.content_hash()));
        probe_snapshot(&mut stages, &snapshot, previous.as_ref(), &mut warm)?;
        if let Some((probe_dir, log)) = durability.as_mut() {
            checkpoint_bytes =
                checkpoint_bytes.max(probe_durability(&mut stages, &snapshot, probe_dir, log)?);
        }
        previous = Some(committee);
    }
    let last = Arc::clone(reader.get());
    let cold = stages
        .tracer
        .span("probe.greedy_diverse", last.epoch(), || {
            greedy_diverse(last.candidates(), COMMITTEE_K)
        });
    stages.tracer.exit(root);
    if cold.members() != last.select_greedy(COMMITTEE_K).members() {
        return Err("cold greedy and pruned selections differ on the last epoch".to_string());
    }

    let spans = stages.tracer.spans().to_vec();
    let root_ns = spans[0].end_ns - spans[0].start_ns;
    let unaccounted_ns = self_times(&spans)[0];
    Ok(Replay {
        chain,
        wall_s: root_ns as f64 / 1e9,
        stage_sum_share: 1.0 - unaccounted_ns as f64 / root_ns.max(1) as f64,
        shard_busy_ns: stages.shard_busy_ns,
        ops_in,
        ops_flushed: stages.ops_flushed,
        warm,
        checkpoint_bytes,
        last,
        spans,
    })
}

/// The stages must account for the replay's wall time.
pub fn check_stage_sum(replay: &Replay) -> Result<(), String> {
    if replay.stage_sum_share < 1.0 - STAGE_SUM_TOLERANCE {
        return Err(format!(
            "replay stages cover {:.1} % of its {:.3} s wall time, less than {:.0} %",
            replay.stage_sum_share * 100.0,
            replay.wall_s,
            (1.0 - STAGE_SUM_TOLERANCE) * 100.0
        ));
    }
    Ok(())
}
