//! The serving front-end: bounded ingress → coalescer → per-shard
//! mailboxes → tick-driven seals.
//!
//! ```text
//!  clients ──try_push──▶ ingress (bounded) ══pump══▶ Coalescer
//!                │ full?                                 ║ flush
//!                ▼                                       ▼ log_batch (WAL)
//!          Overloaded::QueueFull              split_by_shard ═▶ mailbox[0] ─▶ worker 0
//!                                                             ═▶ mailbox[1] ─▶ worker 1
//!                                                             …   (apply_shard_batch)
//!  ══ under the dispatch lock, one thread at a time; a sealing tick holds
//!     it on through wait-for-workers and `try_seal_epoch`
//! ```
//!
//! * **Admission** happens at [`FleetServer::submit`]: a full ingress
//!   queue or a seal-lag watermark breach sheds the request with a typed
//!   [`Overloaded`] — the server never blocks a client and never drops
//!   silently.
//! * **Dispatch** ([`FleetServer::pump`]) drains the ingress into the
//!   [`Coalescer`] and, at the flush watermark, logs the coalesced batch
//!   once ([`ShardedFleet::log_batch`]) and mails each shard its
//!   sub-batch. Mailboxes are bounded with *blocking* pushes, so a slow
//!   shard backpressures dispatch instead of buffering unboundedly.
//!   Every step — pop, window, log, mail — happens under the one
//!   **dispatch lock**, taken before the pop, so however many threads
//!   call `pump`, `flush` and `tick`, requests enter windows in queue
//!   order and windows reach the log and the mailboxes in window order.
//! * **Application** runs on one persistent worker thread per shard
//!   ([`ShardedFleet::apply_shard_batch`]) — the only threads in the
//!   stack; `fi-fleet` spawns none. A shard's mailbox is FIFO, so
//!   per-device op order is preserved end to end and the fleet's end
//!   state is independent of worker scheduling.
//! * **Sealing** is tick-driven: [`FleetServer::tick`] advances logical
//!   time and, every `epoch_ticks`, takes the dispatch lock, flushes the
//!   window, waits for the in-flight sub-batches and cuts the epoch via
//!   [`ShardedFleet::try_seal_epoch`] without letting go of it — that
//!   hold is what keeps the WAL's epoch partition identical to what the
//!   shards observed (see `log_batch`'s contract). A failed seal (e.g.
//!   the WAL disk fault the ingest path also surfaces) leaves the fleet
//!   serving and shows up as growing seal lag, which the admission gate
//!   turns into [`Overloaded::SealLag`] sheds.
//!
//! Lock order, outermost first: dispatch → (in `fi-fleet`) seal → batch
//! gate → shard registries → WAL; `LOCK_ORDER` declares it.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

use fi_attest::ChurnOp;
use fi_fleet::{EpochSnapshot, IngestError, SealError, ShardedFleet};

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
    /// Per-shard mailbox bound (sub-batches); full mailboxes backpressure
    /// the dispatcher, never drop.
    pub mailbox_capacity: usize,
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
            mailbox_capacity: 64,
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
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Ingest(e) => write!(f, "serving flush rejected: {e}"),
            ServeError::Seal(e) => write!(f, "tick seal failed: {e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Ingest(e) => Some(e),
            ServeError::Seal(e) => Some(e),
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
    /// Flushes dispatched to the shards.
    pub flushes: u64,
    /// Post-coalescing ops those flushes carried.
    pub flushed_ops: u64,
    /// Ops the shard workers have applied.
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
    applied_ops: AtomicU64,
    wal_rejected_flushes: AtomicU64,
    epochs_sealed: AtomicU64,
    seal_failures: AtomicU64,
}

/// Tracks one flush until its last sub-batch applies, for the
/// enqueue-to-applied latency metric.
#[derive(Debug)]
struct FlushTracker {
    remaining: AtomicUsize,
    enqueued: Instant,
    latencies_us: Arc<Mutex<Vec<u64>>>,
}

/// One shard worker's unit of work.
struct ShardJob {
    ops: Vec<ChurnOp>,
    tracker: Arc<FlushTracker>,
}

/// The backpressured serving front-end over a [`ShardedFleet`]. See the
/// module docs for the pipeline; construction spawns one worker thread
/// per shard, and dropping the server shuts them down cleanly.
pub struct FleetServer {
    fleet: Arc<ShardedFleet>,
    config: ServeConfig,
    ingress: Bounded<Vec<ChurnOp>>,
    mailboxes: Vec<Arc<Bounded<ShardJob>>>,
    workers: Vec<JoinHandle<()>>,
    /// The dispatch lock, over the coalescing window. `pump` takes it
    /// before popping a request and holds it through extend → take →
    /// `log_batch` → mail, so requests and windows keep their order across
    /// dispatching threads; the seal barrier holds it from its flush to
    /// the end of `try_seal_epoch`, so no batch is logged between a
    /// flush's WAL record and the cut (the `log_batch` contract). Poison
    /// is recovered: the window is only mutated through complete
    /// operations, so a panicked dispatcher leaves it coherent.
    dispatch: Mutex<DispatchState>,
    /// Sub-batches enqueued but not yet applied, shared with the workers;
    /// the seal barrier waits for zero.
    shared_barrier: Arc<(Mutex<u64>, Condvar)>,
    /// Logical clock, advanced by [`tick`](Self::tick).
    tick: AtomicU64,
    /// Tick of the last *successful* seal — the seal-lag reference point.
    last_sealed_tick: AtomicU64,
    counters: Arc<Counters>,
    latencies_us: Arc<Mutex<Vec<u64>>>,
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
            .field("shards", &self.mailboxes.len())
            .field("tick", &self.tick.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl FleetServer {
    /// Stands the front-end up over `fleet`, spawning one mailbox worker
    /// thread per fleet shard. The caller drives the pipeline:
    /// [`submit`](Self::submit) from any thread,
    /// [`pump`](Self::pump)/[`tick`](Self::tick) from a driver loop (the
    /// load scenarios run this in deterministic lockstep; a wall-clock
    /// deployment runs them from dispatcher/timer threads, which the
    /// dispatch lock keeps in one order).
    #[must_use]
    pub fn new(fleet: Arc<ShardedFleet>, config: ServeConfig) -> Self {
        let latencies_us = Arc::new(Mutex::new(Vec::new()));
        let mailboxes: Vec<Arc<Bounded<ShardJob>>> = (0..fleet.shard_count())
            .map(|_| Arc::new(Bounded::new(config.mailbox_capacity)))
            .collect();
        let counters = Arc::new(Counters::default());
        let barrier = Arc::new((Mutex::new(0u64), Condvar::new()));
        // Workers own Arc clones of everything they touch (fleet, their
        // mailbox, the counters, the in-flight barrier), so the server
        // struct itself stays movable; completion flows back through the
        // flush tracker (latency) and the barrier (drain/seal).
        let workers = mailboxes
            .iter()
            .enumerate()
            .map(|(shard, mailbox)| {
                let mailbox = Arc::clone(mailbox);
                let fleet = Arc::clone(&fleet);
                let counters = Arc::clone(&counters);
                let barrier = Arc::clone(&barrier);
                std::thread::Builder::new()
                    .name(format!("fi-serve-shard-{shard}"))
                    .spawn(move || {
                        while let Some(job) = mailbox.pop_wait() {
                            fleet.apply_shard_batch(shard, &job.ops);
                            // relaxed: monotonic stat counter; the
                            // flush tracker's AcqRel decrement below is
                            // what orders completion.
                            counters
                                .applied_ops
                                .fetch_add(job.ops.len() as u64, Ordering::Relaxed);
                            if job.tracker.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                                let us = job.tracker.enqueued.elapsed().as_micros() as u64;
                                // A panicked recorder leaves a fully
                                // pushed (or fully absent) sample; the
                                // latency log stays coherent, so recover.
                                job.tracker
                                    .latencies_us
                                    .lock()
                                    .unwrap_or_else(PoisonError::into_inner)
                                    .push(us);
                            }
                            let mut inflight =
                                barrier.0.lock().unwrap_or_else(PoisonError::into_inner);
                            *inflight -= 1;
                            drop(inflight);
                            barrier.1.notify_all();
                        }
                    })
                    .expect("spawning a shard worker thread")
            })
            .collect();
        FleetServer {
            ingress: Bounded::new(config.queue_capacity),
            workers,
            dispatch: Mutex::new(DispatchState {
                coalescer: Coalescer::new(),
                window_opened: None,
            }),
            shared_barrier: barrier,
            tick: AtomicU64::new(0),
            last_sealed_tick: AtomicU64::new(0),
            counters,
            latencies_us,
            mailboxes,
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

    /// Blocks until everything admitted so far has been applied to the
    /// shards: pumps the ingress dry, flushes the coalescer, and waits
    /// for the in-flight sub-batches to hit zero.
    ///
    /// # Errors
    ///
    /// As [`pump`](Self::pump).
    pub fn drain(&self) -> Result<(), ServeError> {
        self.pump()?;
        self.flush()?;
        self.wait_applied();
        Ok(())
    }

    /// Advances the logical clock one tick; on every `epoch_ticks`-th
    /// tick, drains in-flight work and seals the epoch. Returns the
    /// sealed snapshot when this tick cut one.
    ///
    /// # Errors
    ///
    /// [`ServeError::Ingest`] from the drain, or [`ServeError::Seal`]
    /// when the cut failed — no epoch was committed, the previous snapshot
    /// keeps serving, and the growing seal lag will engage the admission
    /// gate.
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
        Ok(Some(snapshot))
    }

    /// The seal barrier: quiesce dispatch, drain in-flight sub-batches,
    /// cut the epoch. Holding the dispatch lock from the flush to the end
    /// of the cut keeps any concurrent pump/flush from logging a new batch
    /// in between, which is what keeps the WAL's epoch partition identical
    /// to the shards' observed partition.
    fn seal_barrier(&self) -> Result<Arc<EpochSnapshot>, ServeError> {
        self.pump()?;
        let mut dispatch = self.dispatch.lock().unwrap_or_else(PoisonError::into_inner);
        self.flush_locked(&mut dispatch)?;
        self.wait_applied();
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

    /// Closes the current window: logs the coalesced batch and mails the
    /// per-shard sub-batches. The caller holds the dispatch lock.
    fn flush_locked(&self, dispatch: &mut DispatchState) -> Result<(), ServeError> {
        let ops = dispatch.coalescer.take();
        let opened = dispatch.window_opened.take();
        if ops.is_empty() {
            return Ok(());
        }
        if let Err(e) = self.fleet.log_batch(&ops) {
            // relaxed: monotonic stat counter, read only by monitoring.
            self.counters
                .wal_rejected_flushes
                .fetch_add(1, Ordering::Relaxed);
            return Err(e.into());
        }
        let per_shard = self.fleet.split_by_shard(&ops);
        let sub_batches = per_shard.iter().filter(|s| !s.is_empty()).count();
        // relaxed: monotonic stat counters, read only by monitoring.
        self.counters.flushes.fetch_add(1, Ordering::Relaxed);
        // relaxed: monotonic stat counter, read only by monitoring.
        self.counters
            .flushed_ops
            .fetch_add(ops.len() as u64, Ordering::Relaxed);
        if sub_batches == 0 {
            return Ok(());
        }
        let tracker = Arc::new(FlushTracker {
            remaining: AtomicUsize::new(sub_batches),
            enqueued: opened.unwrap_or_else(Instant::now),
            latencies_us: Arc::clone(&self.latencies_us),
        });
        let barrier = &self.shared_barrier;
        {
            // The barrier count is adjusted in single `+=`/`-=` steps under
            // the guard, so an inherited poisoned count is still coherent.
            let mut inflight = barrier.0.lock().unwrap_or_else(PoisonError::into_inner);
            *inflight += sub_batches as u64;
        }
        for (shard, shard_ops) in per_shard.into_iter().enumerate() {
            if shard_ops.is_empty() {
                continue;
            }
            let job = ShardJob {
                ops: shard_ops,
                tracker: Arc::clone(&tracker),
            };
            // lint: allow(panic) `shard` enumerates `split_by_shard`, whose
            // length is the fleet's shard count == `mailboxes.len()`.
            if self.mailboxes[shard].push_wait(job).is_err() {
                // Closed mailbox: shutdown is in progress; account the
                // sub-batch as done so the barrier cannot hang.
                let mut inflight = barrier.0.lock().unwrap_or_else(PoisonError::into_inner);
                *inflight -= 1;
                drop(inflight);
                barrier.1.notify_all();
            }
        }
        Ok(())
    }

    /// Waits until no sub-batch is enqueued-but-unapplied.
    fn wait_applied(&self) {
        let barrier = &self.shared_barrier;
        let mut inflight = barrier.0.lock().unwrap_or_else(PoisonError::into_inner);
        while *inflight > 0 {
            inflight = barrier
                .1
                .wait(inflight)
                .unwrap_or_else(PoisonError::into_inner);
        }
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
        ServeStats {
            submitted_requests: c.submitted_requests.load(Ordering::Relaxed),
            admitted_ops: c.admitted_ops.load(Ordering::Relaxed),
            shed_queue_full: c.shed_queue_full.load(Ordering::Relaxed),
            shed_seal_lag: c.shed_seal_lag.load(Ordering::Relaxed),
            coalesced_away: c.coalesced_away.load(Ordering::Relaxed),
            flushes: c.flushes.load(Ordering::Relaxed),
            flushed_ops: c.flushed_ops.load(Ordering::Relaxed),
            applied_ops: c.applied_ops.load(Ordering::Relaxed),
            wal_rejected_flushes: c.wal_rejected_flushes.load(Ordering::Relaxed),
            epochs_sealed: c.epochs_sealed.load(Ordering::Relaxed),
            seal_failures: c.seal_failures.load(Ordering::Relaxed),
        }
    }

    /// Flush enqueue-to-applied latencies recorded so far, in
    /// microseconds (one sample per flush: oldest admitted op in the
    /// window → last sub-batch applied).
    #[must_use]
    pub fn flush_latencies_us(&self) -> Vec<u64> {
        self.latencies_us
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Shuts the pipeline down: drains what was admitted, closes the
    /// queues, joins the workers. Called by `Drop` if not called
    /// explicitly; explicit callers get the drain errors.
    ///
    /// # Errors
    ///
    /// As [`drain`](Self::drain); shutdown proceeds regardless.
    pub fn shutdown(mut self) -> Result<(), ServeError> {
        let result = self.drain();
        self.close_and_join();
        result
    }

    fn close_and_join(&mut self) {
        self.ingress.close();
        for mailbox in &self.mailboxes {
            mailbox.close();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for FleetServer {
    fn drop(&mut self) {
        self.close_and_join();
    }
}
