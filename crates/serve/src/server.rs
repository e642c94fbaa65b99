//! The serving front-end: bounded ingress → coalescer → one
//! `try_ingest_batch` per flush → tick-driven seals.
//!
//! ```text
//!  clients ──try_push──▶ ingress (bounded) ══pump══▶ Coalescer
//!                │ full?                                 ║ flush
//!                ▼                                       ▼
//!          Overloaded::QueueFull          fleet.try_ingest_batch(&window)
//!                                          (WAL record → route → apply)
//!  ══ under the dispatch lock, on the calling thread; a sealing tick holds
//!     it on through `try_seal_epoch`
//! ```
//!
//! The server spawns no thread, and neither does `fi-fleet` beneath it:
//! every step runs on the thread that called [`FleetServer::pump`],
//! [`flush`](FleetServer::flush) or [`tick`](FleetServer::tick).
//! Concurrency is the caller's — any number of threads may submit, pump
//! and tick — and the one dispatch lock puts them in one order.
//!
//! * **Admission** happens at [`FleetServer::submit`]: a full ingress
//!   queue or a seal-lag watermark breach sheds the request with a typed
//!   [`Overloaded`] — the server never blocks a client and never drops
//!   silently.
//! * **Dispatch** ([`FleetServer::pump`]) drains the ingress into the
//!   [`Coalescer`] and, at the flush watermark, hands the coalesced window
//!   to [`ShardedFleet::try_ingest_batch`], which write-ahead logs it once
//!   and applies it shard after shard before returning. Every step — pop,
//!   window, ingest — happens under the one **dispatch lock**, taken
//!   before the pop, so however many threads call `pump`, `flush` and
//!   `tick`, requests enter windows in queue order and windows reach the
//!   log and the shards in window order.
//! * **Backpressure** is that same hold: dispatch does not pop the next
//!   request until the current flush has applied, so nothing queues
//!   behind the coalescing window and the ingress bound is the only queue
//!   in the server.
//! * **Sealing** is tick-driven: [`FleetServer::tick`] advances logical
//!   time and, every `epoch_ticks`, pumps the ingress dry, takes the
//!   dispatch lock, flushes the window and cuts the epoch via
//!   [`ShardedFleet::try_seal_epoch`] without letting go of it. A failed
//!   seal (e.g. the WAL disk fault the ingest path also surfaces) leaves
//!   the fleet serving and shows up as growing seal lag, which the
//!   admission gate turns into [`Overloaded::SealLag`] sheds. Every
//!   eighth sealed epoch is then checkpointed, with dispatch released.
//!
//! Lock order, outermost first: dispatch → (in `fi-fleet`) seal → batch
//! gate → shard registries → WAL, and the fleet's checkpoint mutex only
//! with none of them held; `LOCK_ORDER` declares it.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use fi_attest::ChurnOp;
use fi_fleet::{CheckpointError, EpochSnapshot, IngestError, SealError, ShardedFleet};

use crate::coalesce::Coalescer;
use crate::queue::Bounded;

/// Tuning for a [`FleetServer`]. Start from [`ServeConfig::default`] and
/// adjust; every knob is a watermark or a window, not a correctness
/// switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Ingress bound: requests queued beyond this are shed with
    /// [`Overloaded::QueueFull`].
    pub queue_capacity: usize,
    /// Coalescer flush watermark: a pump flushes once this many
    /// (post-coalescing) ops are pending. Seals always flush regardless.
    pub flush_ops: usize,
    /// Seal cadence in ticks; `0` disables tick-driven sealing.
    pub epoch_ticks: u64,
    /// Admission watermark: shed new requests once the fleet is more than
    /// this many epochs behind its seal cadence ([`Overloaded::SealLag`]).
    /// `0` disables the lag gate.
    pub max_seal_lag_epochs: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            queue_capacity: 4096,
            flush_ops: 1024,
            epoch_ticks: 10,
            max_seal_lag_epochs: 3,
        }
    }
}

/// Typed admission rejection: the request was **not** enqueued and will
/// never be applied; the client owns the retry policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Overloaded {
    /// The bounded ingress queue is at capacity.
    QueueFull {
        /// Requests queued when the submit was rejected.
        depth: usize,
        /// The configured ingress bound.
        limit: usize,
    },
    /// Sealing has fallen too far behind its tick cadence — admitting
    /// more churn would only grow the unsealed backlog.
    SealLag {
        /// Epochs of lag at rejection time.
        lag_epochs: u64,
        /// The configured watermark.
        limit: u64,
    },
}

impl std::fmt::Display for Overloaded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Overloaded::QueueFull { depth, limit } => {
                write!(f, "ingress queue full ({depth}/{limit}); request shed")
            }
            Overloaded::SealLag { lag_epochs, limit } => write!(
                f,
                "sealing {lag_epochs} epochs behind cadence (watermark {limit}); request shed"
            ),
        }
    }
}

impl std::error::Error for Overloaded {}

/// A serving-path failure that is *not* an admission shed: the durability
/// or seal machinery reported a typed error. The server survives these —
/// reads keep serving, later submits/seals retry — but the caller is
/// told.
#[derive(Debug)]
pub enum ServeError {
    /// A flush could not be write-ahead logged; its ops were dropped
    /// before touching any shard.
    Ingest(IngestError),
    /// A tick-driven seal failed; its epoch was not committed and the
    /// previous snapshot keeps serving.
    Seal(SealError),
    /// The checkpoint after a tick's seal failed; the epoch was sealed.
    Checkpoint(CheckpointError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Ingest(e) => write!(f, "serving flush rejected: {e}"),
            ServeError::Seal(e) => write!(f, "tick seal failed: {e}"),
            ServeError::Checkpoint(e) => write!(f, "epoch sealed, checkpoint failed: {e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Ingest(e) => Some(e),
            ServeError::Seal(e) => Some(e),
            ServeError::Checkpoint(e) => Some(e),
        }
    }
}

impl From<IngestError> for ServeError {
    fn from(e: IngestError) -> Self {
        ServeError::Ingest(e)
    }
}

impl From<SealError> for ServeError {
    fn from(e: SealError) -> Self {
        ServeError::Seal(e)
    }
}
/// A point-in-time copy of the server's counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Requests offered to [`FleetServer::submit`].
    pub submitted_requests: u64,
    /// Churn ops admitted past the watermarks.
    pub admitted_ops: u64,
    /// Requests shed with [`Overloaded::QueueFull`].
    pub shed_queue_full: u64,
    /// Requests shed with [`Overloaded::SealLag`].
    pub shed_seal_lag: u64,
    /// Ops collapsed away by the coalescer (admitted but never shipped —
    /// a newer same-device op superseded them within the flush window).
    pub coalesced_away: u64,
    /// Flushes applied to the shards.
    pub flushes: u64,
    /// Post-coalescing ops those flushes carried.
    pub flushed_ops: u64,
    /// Always equal to `flushed_ops`: a flush returns only once its ops
    /// are applied. Kept because the benchmark's output check reads it.
    pub applied_ops: u64,
    /// Flushes rejected by the write-ahead log (dropped cleanly).
    pub wal_rejected_flushes: u64,
    /// Epochs sealed by the tick driver.
    pub epochs_sealed: u64,
    /// Tick-driven seals that failed (epoch not committed).
    pub seal_failures: u64,
}

#[derive(Debug, Default)]
struct Counters {
    submitted_requests: AtomicU64,
    admitted_ops: AtomicU64,
    shed_queue_full: AtomicU64,
    shed_seal_lag: AtomicU64,
    coalesced_away: AtomicU64,
    flushes: AtomicU64,
    flushed_ops: AtomicU64,
    wal_rejected_flushes: AtomicU64,
    epochs_sealed: AtomicU64,
    seal_failures: AtomicU64,
}

/// How many flush-latency samples the server keeps: the most recent
/// ones, oldest evicted first.
const LATENCY_SAMPLES: usize = 65_536;

/// A tick that seals an epoch numbered a multiple of this checkpoints it.
const CHECKPOINT_EVERY: u64 = 8;

/// The backpressured serving front-end over a [`ShardedFleet`]. See the
/// module docs for the pipeline. It owns no thread: dropping it drops the
/// queue and the window, nothing more.
pub struct FleetServer {
    fleet: Arc<ShardedFleet>,
    config: ServeConfig,
    ingress: Bounded<Vec<ChurnOp>>,
    /// The dispatch lock, over the coalescing window. `pump` takes it
    /// before popping a request and holds it through extend → take →
    /// `try_ingest_batch`, so requests and windows keep their order across
    /// dispatching threads; the seal barrier holds it from its flush to
    /// the end of `try_seal_epoch`, so an epoch is cut over exactly the
    /// windows dispatched before the tick. Poison is recovered: the window
    /// is only mutated through complete operations, so a panicked
    /// dispatcher leaves it coherent.
    dispatch: Mutex<DispatchState>,
    /// Logical clock, advanced by [`tick`](Self::tick).
    tick: AtomicU64,
    /// Tick of the last *successful* seal — the seal-lag reference point.
    last_sealed_tick: AtomicU64,
    counters: Counters,
    /// The last [`LATENCY_SAMPLES`] flush latencies, oldest first.
    latencies_us: Mutex<VecDeque<u64>>,
}

#[derive(Debug)]
struct DispatchState {
    coalescer: Coalescer,
    /// When the oldest op of the current window entered the server.
    window_opened: Option<Instant>,
}

impl std::fmt::Debug for FleetServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetServer")
            .field("config", &self.config)
            .field("shards", &self.fleet.shard_count())
            .field("tick", &self.tick.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl FleetServer {
    /// Stands the front-end up over `fleet`. The caller drives the
    /// pipeline: [`submit`](Self::submit) from any thread,
    /// [`pump`](Self::pump)/[`tick`](Self::tick) from a driver loop (the
    /// load scenarios run this in deterministic lockstep; a wall-clock
    /// deployment runs them from dispatcher/timer threads, which the
    /// dispatch lock keeps in one order).
    #[must_use]
    pub fn new(fleet: Arc<ShardedFleet>, config: ServeConfig) -> Self {
        FleetServer {
            ingress: Bounded::new(config.queue_capacity),
            dispatch: Mutex::new(DispatchState {
                coalescer: Coalescer::new(),
                window_opened: None,
            }),
            tick: AtomicU64::new(0),
            last_sealed_tick: AtomicU64::new(0),
            counters: Counters::default(),
            latencies_us: Mutex::new(VecDeque::new()),
            config,
            fleet,
        }
    }

    /// Offers one client request (a batch of churn ops) to the server.
    ///
    /// # Errors
    ///
    /// [`Overloaded::SealLag`] when sealing is too far behind its
    /// cadence, [`Overloaded::QueueFull`] when the ingress bound is hit.
    /// Either way the request was **not** enqueued.
    pub fn submit(&self, request: Vec<ChurnOp>) -> Result<(), Overloaded> {
        // relaxed: monotonic stat counter, read only by monitoring.
        self.counters
            .submitted_requests
            .fetch_add(1, Ordering::Relaxed);
        if self.config.max_seal_lag_epochs > 0 && self.config.epoch_ticks > 0 {
            let now = self.tick.load(Ordering::Relaxed);
            let sealed = self.last_sealed_tick.load(Ordering::Relaxed);
            let lag_epochs = now.saturating_sub(sealed) / self.config.epoch_ticks;
            if lag_epochs > self.config.max_seal_lag_epochs {
                // relaxed: monotonic stat counter, read only by monitoring.
                self.counters.shed_seal_lag.fetch_add(1, Ordering::Relaxed);
                return Err(Overloaded::SealLag {
                    lag_epochs,
                    limit: self.config.max_seal_lag_epochs,
                });
            }
        }
        let ops = request.len() as u64;
        match self.ingress.try_push(request) {
            Ok(()) => {
                // relaxed: monotonic stat counter, read only by monitoring.
                self.counters.admitted_ops.fetch_add(ops, Ordering::Relaxed);
                Ok(())
            }
            Err(_) => {
                // relaxed: monotonic stat counter, read only by monitoring.
                self.counters
                    .shed_queue_full
                    .fetch_add(1, Ordering::Relaxed);
                Err(Overloaded::QueueFull {
                    depth: self.ingress.len(),
                    limit: self.ingress.capacity(),
                })
            }
        }
    }

    /// Drains the ingress queue into the coalescer, flushing to the
    /// shards whenever the flush watermark is crossed.
    ///
    /// # Errors
    ///
    /// [`ServeError::Ingest`] if a flush could not be write-ahead logged;
    /// that flush's ops are dropped cleanly (never applied), queued
    /// requests stay queued, and the server keeps serving.
    pub fn pump(&self) -> Result<(), ServeError> {
        loop {
            // Locked before the pop: whichever thread pops a request also
            // windows it before any other thread can pop the next one.
            let mut dispatch = self.dispatch.lock().unwrap_or_else(PoisonError::into_inner);
            let Some(request) = self.ingress.try_pop() else {
                return Ok(());
            };
            if dispatch.window_opened.is_none() {
                dispatch.window_opened = Some(Instant::now());
            }
            dispatch.coalescer.extend(request);
            // relaxed: monotonic stat counter with one writer at a time
            // (the dispatch lock is held), read only by monitoring.
            self.counters
                .coalesced_away
                .store(dispatch.coalescer.absorbed(), Ordering::Relaxed);
            if dispatch.coalescer.len() >= self.config.flush_ops.max(1) {
                self.flush_locked(&mut dispatch)?;
            }
        }
    }

    /// Flushes the current coalescing window to the shards even if the
    /// watermark has not been reached.
    ///
    /// # Errors
    ///
    /// As [`pump`](Self::pump).
    pub fn flush(&self) -> Result<(), ServeError> {
        self.flush_locked(&mut self.dispatch.lock().unwrap_or_else(PoisonError::into_inner))
    }

    /// Applies everything admitted so far to the shards: pumps the
    /// ingress dry, then flushes the coalescer.
    ///
    /// # Errors
    ///
    /// As [`pump`](Self::pump).
    pub fn drain(&self) -> Result<(), ServeError> {
        self.pump()?;
        self.flush()
    }

    /// Advances the logical clock one tick; on every `epoch_ticks`-th
    /// tick, dispatches what is queued and seals the epoch, then
    /// checkpoints it if its number is a multiple of 8. Returns the sealed
    /// snapshot when this tick cut one.
    ///
    /// # Errors
    ///
    /// [`ServeError::Ingest`] from the drain, or [`ServeError::Seal`]
    /// when the cut failed — no epoch was committed, the previous snapshot
    /// keeps serving, and the growing seal lag will engage the admission
    /// gate. [`ServeError::Checkpoint`] when a sealed epoch's checkpoint
    /// failed; the seal itself succeeded and is counted.
    pub fn tick(&self) -> Result<Option<Arc<EpochSnapshot>>, ServeError> {
        // relaxed: the logical clock has a single writer (the driver
        // loop calling tick()); concurrent readers only feed the advisory
        // seal-lag heuristic, never a data dependency.
        let now = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
        if self.config.epoch_ticks == 0 || !now.is_multiple_of(self.config.epoch_ticks) {
            return Ok(None);
        }
        let snapshot = self.seal_barrier()?;
        // relaxed: single-writer progress stamp for the seal-lag
        // heuristic; the sealed snapshot itself is published through the
        // fleet's publication path, not through this stamp.
        self.last_sealed_tick.store(now, Ordering::Relaxed);
        // Outside the seal barrier: pumps and flushes go on meanwhile.
        if snapshot.epoch().is_multiple_of(CHECKPOINT_EVERY) {
            self.fleet.checkpoint().map_err(ServeError::Checkpoint)?;
        }
        Ok(Some(snapshot))
    }

    /// The seal barrier: pump the ingress dry, then flush the window and
    /// cut the epoch under one hold of the dispatch lock, so no other
    /// thread's pump or flush lands a window between this one's and the
    /// cut.
    fn seal_barrier(&self) -> Result<Arc<EpochSnapshot>, ServeError> {
        self.pump()?;
        let mut dispatch = self.dispatch.lock().unwrap_or_else(PoisonError::into_inner);
        self.flush_locked(&mut dispatch)?;
        match self.fleet.try_seal_epoch() {
            Ok(snapshot) => {
                // relaxed: monotonic stat counter, read only by monitoring.
                self.counters.epochs_sealed.fetch_add(1, Ordering::Relaxed);
                Ok(snapshot)
            }
            Err(e) => {
                // relaxed: monotonic stat counter, read only by monitoring.
                self.counters.seal_failures.fetch_add(1, Ordering::Relaxed);
                Err(e.into())
            }
        }
    }

    /// Closes the current window: ingests the coalesced batch (logged,
    /// routed and applied before this returns) and records one latency
    /// sample. The caller holds the dispatch lock.
    fn flush_locked(&self, dispatch: &mut DispatchState) -> Result<(), ServeError> {
        let ops = dispatch.coalescer.take();
        let opened = dispatch.window_opened.take();
        if ops.is_empty() {
            return Ok(());
        }
        if let Err(e) = self.fleet.try_ingest_batch(&ops) {
            // relaxed: monotonic stat counter, read only by monitoring.
            self.counters
                .wal_rejected_flushes
                .fetch_add(1, Ordering::Relaxed);
            return Err(e.into());
        }
        // relaxed: monotonic stat counter, read only by monitoring.
        self.counters.flushes.fetch_add(1, Ordering::Relaxed);
        // relaxed: monotonic stat counter, read only by monitoring.
        self.counters
            .flushed_ops
            .fetch_add(ops.len() as u64, Ordering::Relaxed);
        let us = opened.map_or(0, |t| t.elapsed().as_micros() as u64);
        // A panicked recorder leaves a fully pushed (or fully absent)
        // sample; the latency log stays coherent, so recover.
        let mut log = self
            .latencies_us
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if log.len() == LATENCY_SAMPLES {
            log.pop_front();
        }
        log.push_back(us);
        Ok(())
    }

    /// The fleet this server fronts.
    #[must_use]
    pub fn fleet(&self) -> &Arc<ShardedFleet> {
        &self.fleet
    }

    /// The server's configuration.
    #[must_use]
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// The logical clock.
    #[must_use]
    pub fn current_tick(&self) -> u64 {
        self.tick.load(Ordering::Relaxed)
    }

    /// Current ingress queue depth.
    #[must_use]
    pub fn queue_depth(&self) -> usize {
        self.ingress.len()
    }

    /// A point-in-time copy of the counters. Takes no lock, so it answers
    /// while a seal holds the dispatch lock.
    #[must_use]
    pub fn stats(&self) -> ServeStats {
        let c = &self.counters;
        let flushed_ops = c.flushed_ops.load(Ordering::Relaxed);
        ServeStats {
            submitted_requests: c.submitted_requests.load(Ordering::Relaxed),
            admitted_ops: c.admitted_ops.load(Ordering::Relaxed),
            shed_queue_full: c.shed_queue_full.load(Ordering::Relaxed),
            shed_seal_lag: c.shed_seal_lag.load(Ordering::Relaxed),
            coalesced_away: c.coalesced_away.load(Ordering::Relaxed),
            flushes: c.flushes.load(Ordering::Relaxed),
            flushed_ops,
            applied_ops: flushed_ops,
            wal_rejected_flushes: c.wal_rejected_flushes.load(Ordering::Relaxed),
            epochs_sealed: c.epochs_sealed.load(Ordering::Relaxed),
            seal_failures: c.seal_failures.load(Ordering::Relaxed),
        }
    }

    /// The most recent flush latencies (at most 65 536 of them), oldest
    /// first, in microseconds — one sample per flush: oldest admitted op
    /// in the window popped → whole window applied.
    #[must_use]
    pub fn flush_latencies_us(&self) -> Vec<u64> {
        self.latencies_us
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .copied()
            .collect()
    }

    /// Consumes the server after a last [`drain`](Self::drain). There is
    /// nothing else to shut down.
    ///
    /// # Errors
    ///
    /// As [`drain`](Self::drain).
    pub fn shutdown(self) -> Result<(), ServeError> {
        self.drain()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fi_attest::TwoTierWeights;
    use fi_types::{sha256, ReplicaId, VotingPower};

    #[test]
    fn the_latency_log_keeps_only_the_most_recent_samples() {
        let fleet = Arc::new(ShardedFleet::new(2, TwoTierWeights::flat()));
        let server = FleetServer::new(
            fleet,
            ServeConfig {
                flush_ops: 1,
                epoch_ticks: 0,
                ..ServeConfig::default()
            },
        );
        let measurement = sha256(b"cfg");
        let one_op_flush = |i: u64| {
            let op = ChurnOp::attest(ReplicaId::new(i % 64), measurement, VotingPower::new(1 + i));
            server.submit(vec![op]).expect("the queue is pumped dry");
            server.pump().expect("in-memory flush");
        };
        let over = LATENCY_SAMPLES as u64 + 10;
        (0..over).for_each(one_op_flush);
        assert_eq!(server.stats().flushes, over);
        let before = server.flush_latencies_us();
        assert_eq!(before.len(), LATENCY_SAMPLES);
        // One more flush: its sample is the newest entry, the oldest is
        // evicted, everything between shifts down by one.
        one_op_flush(over);
        let after = server.flush_latencies_us();
        assert_eq!(after.len(), LATENCY_SAMPLES);
        assert_eq!(after[..LATENCY_SAMPLES - 1], before[1..]);
    }
}
