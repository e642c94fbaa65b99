//! What every workload shares: standing a fleet up, observing a sealed
//! epoch the way a reader would, and the scratch directory.
#![forbid(unsafe_code)]

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use fi_fleet::{DurabilityConfig, ShardedFleet, SnapshotHandle};
use fi_types::Digest;

use crate::inputs::{
    Inputs, COMMITTEE_K, READ_BLOCK, REANCHOR_INTERVAL, REGISTRATION_BATCH, SHARDS,
};
use crate::span::Tracer;

/// `(epoch, content_hash)` of every sealed epoch, in seal order.
pub type Chain = Vec<(u64, Digest)>;

/// Where a run keeps its durability directories and span files: under
/// the build's target directory, so nothing lands outside the checkout.
pub fn scratch_dir(label: &str) -> std::io::Result<PathBuf> {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), PathBuf::from);
    let dir = target
        .join("fibench-tmp")
        .join(format!("{label}-{}", std::process::id()));
    // A stale directory of a recycled process id would be recovered from.
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// Builds the workload's fleet (durable when `dir` is given), registers
/// every device and seals epoch 1.
pub fn stand_up(inputs: &Inputs, dir: Option<&Path>) -> Result<Arc<ShardedFleet>, String> {
    let weights = fi_serve::scenario_weights();
    let fleet = match dir {
        None => ShardedFleet::with_reanchor_interval(SHARDS, weights, REANCHOR_INTERVAL),
        Some(dir) => {
            ShardedFleet::open_durable(
                SHARDS,
                weights,
                REANCHOR_INTERVAL,
                DurabilityConfig::new(dir),
            )
            .map_err(|e| format!("open_durable on a fresh directory: {e}"))?
            .0
        }
    };
    for batch in inputs.registration.chunks(REGISTRATION_BATCH) {
        fleet
            .try_ingest_batch(batch)
            .map_err(|e| format!("registration ingest: {e}"))?;
    }
    let sealed = fleet
        .try_seal_epoch()
        .map_err(|e| format!("sealing epoch 1: {e}"))?;
    let devices = inputs.workload.sizes().devices as usize;
    if sealed.epoch() != 1 || sealed.device_count() != devices {
        return Err(format!(
            "set-up sealed epoch {} with {} devices, expected epoch 1 with {devices}",
            sealed.epoch(),
            sealed.device_count()
        ));
    }
    Ok(Arc::new(fleet))
}

/// A reader of sealed epochs: holds the per-reader snapshot handle and
/// records the chain it saw.
pub struct Observer<'a> {
    fleet: &'a ShardedFleet,
    reader: SnapshotHandle<'a>,
    pub chain: Chain,
    /// Nanoseconds per read, one sample per block of [`READ_BLOCK`].
    pub read_ns: Vec<f64>,
}

impl<'a> Observer<'a> {
    /// Starts from the fleet's published epoch, which opens the chain.
    pub fn new(fleet: &'a ShardedFleet) -> Self {
        let mut reader = fleet.reader();
        let first = (reader.get().epoch(), reader.get().content_hash());
        Observer {
            fleet,
            reader,
            chain: vec![first],
            read_ns: Vec::new(),
        }
    }

    /// The epoch the next seal will produce.
    pub fn building(&self) -> u64 {
        self.chain.last().map_or(1, |&(epoch, _)| epoch + 1)
    }

    /// After a seal returned `sealed`: fetches that epoch through the
    /// reader handle and selects its committee. Returns the moment the
    /// committee was in hand.
    pub fn committee_in_hand(
        &mut self,
        sealed: u64,
        tracer: &mut Tracer,
    ) -> Result<Instant, String> {
        let open = tracer.enter("get", sealed);
        let snapshot = self.reader.get();
        let seen = (snapshot.epoch(), snapshot.content_hash());
        tracer.exit(open);
        if seen.0 != sealed {
            return Err(format!(
                "reader handle serves epoch {} after epoch {sealed} was sealed",
                seen.0
            ));
        }
        let open = tracer.enter("select_greedy_cached", sealed);
        let committee = self.fleet.select_greedy_cached(COMMITTEE_K);
        tracer.exit(open);
        let in_hand = Instant::now();
        if committee.len() != COMMITTEE_K {
            return Err(format!(
                "committee of epoch {sealed} has {} members, expected {COMMITTEE_K}",
                committee.len()
            ));
        }
        self.chain.push(seen);
        Ok(in_hand)
    }

    /// One timed block of snapshot reads, each touching the device count
    /// and the entropy as a monitor would.
    pub fn read_block(&mut self, tracer: &mut Tracer) {
        let open = tracer.enter("read_block", self.building());
        let started = Instant::now();
        for _ in 0..READ_BLOCK {
            let snapshot = self.reader.get();
            black_box(snapshot.device_count());
            black_box(snapshot.entropy_bits(false).ok());
        }
        let ns = started.elapsed().as_nanos() as f64;
        tracer.exit(open);
        self.read_ns.push(ns / READ_BLOCK as f64);
    }
}

/// Milliseconds from `from` to `to`.
pub fn ms_between(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64() * 1e3
}
