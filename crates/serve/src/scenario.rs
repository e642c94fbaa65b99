//! Deterministic load scenarios: a [`ClientPopulation`] driven through a
//! [`FleetServer`] in lockstep, with a differential oracle.
//!
//! "2 million devices, Zipf churn, epoch every 10 ticks" must be a
//! *reproducible* claim, so the scenario runner is a discrete-event loop:
//! per tick it submits the tick's generated requests (admission decisions
//! depend only on logical queue state — burst size vs. the ingress bound
//! — so sheds are deterministic), pumps the dispatcher, and advances the
//! server clock; on seal ticks the server flushes its window and cuts
//! the epoch. Every step runs on this one thread, and shards share no
//! state, so the same config yields the byte-identical
//! [`ScenarioReport`] on every run and at **any shard count**.
//!
//! The oracle ([`direct_ingest_report`]) replays the recorded *admitted*
//! requests straight into a plain [`ShardedFleet`] via
//! `try_ingest_batch` — no queue, no coalescing — sealing at the same
//! ticks. Matching epoch hashes prove the whole serving pipeline (bounded
//! ingress + last-op-wins coalescing + flush-then-seal barriers) is
//! semantically invisible: it collapses work, never changes what an epoch
//! means.

use std::sync::Arc;

use fi_attest::{ChurnOp, TwoTierWeights};
use fi_fleet::ShardedFleet;
use fi_simnet::{ClientPopulation, PopulationConfig};
use fi_types::{sha256, Digest};

use crate::server::{FleetServer, ServeConfig, ServeError, ServeStats};

/// A full load-scenario description: the synthetic population, the server
/// tuning, and the fleet shape.
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    /// The synthetic client population (devices, skew, diurnal curve…).
    pub population: PopulationConfig,
    /// Server tuning (bounds, watermarks, seal cadence).
    pub serve: ServeConfig,
    /// Fleet shard count. Changing it must not change the report hash.
    pub shards: usize,
    /// Ticks of churn traffic to run after the registration wave.
    pub ticks: u64,
}

/// The scenario fleet forces a full rebuild every this many seals
/// (`ShardedFleet::with_reanchor_interval`), so a scenario run through the
/// front-end crosses both sealing paths; the oracle fleet forces none.
const FULL_REBUILD_EVERY: u64 = 8;

impl ScenarioConfig {
    /// A scenario over `devices` devices running `ticks` ticks with the
    /// default population mix, server tuning, and 4 shards.
    #[must_use]
    pub fn new(devices: u64, mean_ops_per_tick: u64, ticks: u64) -> Self {
        ScenarioConfig {
            population: PopulationConfig::new(devices, mean_ops_per_tick),
            serve: ServeConfig::default(),
            shards: 4,
            ticks,
        }
    }

    /// Replaces the shard count.
    #[must_use]
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Replaces the server tuning.
    #[must_use]
    pub fn with_serve(mut self, serve: ServeConfig) -> Self {
        self.serve = serve;
        self
    }
}

/// What one scenario run produced, reduced to its deterministic facts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioReport {
    /// The final sealed epoch.
    pub final_epoch: u64,
    /// The final sealed snapshot's content hash — the headline
    /// determinism fact.
    pub final_hash: Digest,
    /// Every sealed epoch's `(epoch, content_hash)`, in seal order.
    pub epoch_hashes: Vec<(u64, Digest)>,
    /// Registered devices at the end of the run.
    pub device_count: usize,
    /// Server counters at the end of the run (deterministic in lockstep).
    pub stats: ServeStats,
}

impl ScenarioReport {
    /// One digest over every deterministic fact in the report: equal
    /// report hashes mean equal epoch histories, end states, admission
    /// decisions, and coalescing behaviour. This is what the CI gate
    /// compares across runs and shard counts.
    #[must_use]
    pub fn report_hash(&self) -> Digest {
        let mut text = String::new();
        text.push_str(&format!(
            "final:{}:{}\ndevices:{}\n",
            self.final_epoch, self.final_hash, self.device_count
        ));
        for (epoch, hash) in &self.epoch_hashes {
            text.push_str(&format!("epoch:{epoch}:{hash}\n"));
        }
        let s = &self.stats;
        text.push_str(&format!(
            "submitted:{} admitted_ops:{} shed_q:{} shed_lag:{} coalesced:{} \
             flushes:{} flushed_ops:{} applied_ops:{} wal_rej:{} sealed:{} seal_fail:{}",
            s.submitted_requests,
            s.admitted_ops,
            s.shed_queue_full,
            s.shed_seal_lag,
            s.coalesced_away,
            s.flushes,
            s.flushed_ops,
            s.applied_ops,
            s.wal_rejected_flushes,
            s.epochs_sealed,
            s.seal_failures,
        ));
        sha256(text.as_bytes())
    }
}

/// The admitted-request trace a scenario run recorded, for the
/// differential oracle: exactly the requests that passed admission, in
/// submission order, with the seal tick positions.
#[derive(Debug, Clone, Default)]
pub struct AdmittedTrace {
    /// Admitted requests, in admission order. The registration wave comes
    /// first, then churn ticks in order (sheds are absent — that is the
    /// point).
    pub requests: Vec<Vec<ChurnOp>>,
    /// After how many admitted requests each seal happened (prefix
    /// lengths into `requests`).
    pub seal_points: Vec<usize>,
}

/// A scenario run plus (optionally) the trace needed to differentially
/// verify it.
#[derive(Debug)]
pub struct ScenarioOutcome {
    /// The deterministic report.
    pub report: ScenarioReport,
    /// The admitted trace, when recording was requested. Full-scale runs
    /// skip recording to stay in memory budget.
    pub trace: Option<AdmittedTrace>,
}

/// The tier weights every scenario runs under (two-tier, attested weight
/// double the unattested weight — the representative deployment shape).
#[must_use]
pub fn scenario_weights() -> TwoTierWeights {
    TwoTierWeights::new(1.0, 0.5)
}

/// Runs `config` in deterministic lockstep. Clients retry
/// registration-wave sheds after a pump (cold-start registration must
/// complete); churn-tick sheds are final (that is the overload model).
///
/// # Errors
///
/// Propagates [`ServeError`] from flushes and seals — an in-memory
/// scenario never produces one; durable scenarios surface disk faults.
///
/// # Panics
///
/// Panics if a registration-wave request cannot be admitted after a pump
/// (the pump must free ingress capacity in lockstep).
pub fn run_scenario(
    config: &ScenarioConfig,
    record_trace: bool,
) -> Result<ScenarioOutcome, ServeError> {
    let fleet = Arc::new(ShardedFleet::with_reanchor_interval(
        config.shards,
        scenario_weights(),
        FULL_REBUILD_EVERY,
    ));
    let server = FleetServer::new(Arc::clone(&fleet), config.serve);
    let mut population = ClientPopulation::new(config.population.clone());
    let mut trace = record_trace.then(AdmittedTrace::default);

    // Cold start: every device registers; backpressure-aware clients
    // pump-and-retry on shed, so the wave always completes.
    for request in population.registration_wave() {
        loop {
            match server.submit(request.clone()) {
                Ok(()) => break,
                Err(_) => server.pump()?,
            }
        }
        if let Some(t) = trace.as_mut() {
            t.requests.push(request);
        }
    }

    let mut epoch_hashes = Vec::new();
    for _ in 0..config.ticks {
        let traffic = population.next_tick();
        for request in traffic.requests {
            let recorded = trace.as_mut().map(|_| request.clone());
            if server.submit(request).is_ok() {
                if let (Some(t), Some(r)) = (trace.as_mut(), recorded) {
                    t.requests.push(r);
                }
            }
        }
        // The tick's burst contends for the ingress bound as a whole
        // (sheds are a pure function of burst size vs. capacity); the
        // server then processes the tick's admissions before the next
        // burst arrives.
        server.pump()?;
        if let Some(snapshot) = server.tick()? {
            epoch_hashes.push((snapshot.epoch(), snapshot.content_hash()));
            if let Some(t) = trace.as_mut() {
                t.seal_points.push(t.requests.len());
            }
        }
    }
    server.drain()?;
    let stats = server.stats();
    let snapshot = fleet.snapshot();
    let report = ScenarioReport {
        final_epoch: snapshot.epoch(),
        final_hash: snapshot.content_hash(),
        epoch_hashes,
        device_count: fleet.device_count(),
        stats,
    };
    server.shutdown()?;
    Ok(ScenarioOutcome { report, trace })
}

/// The differential oracle: replays an [`AdmittedTrace`] straight into a
/// plain [`ShardedFleet`] (no serving layer at all), sealing at the
/// recorded points. Returns the oracle's `(epoch, hash)` history and
/// final state for comparison against the serve-path report.
///
/// # Errors
///
/// Propagates [`ServeError`] from ingest and seals — the oracle fleet is
/// in-memory, so like [`run_scenario`] it never produces one.
pub fn direct_ingest_report(
    trace: &AdmittedTrace,
    shards: usize,
) -> Result<ScenarioReport, ServeError> {
    let fleet = ShardedFleet::new(shards, scenario_weights());
    let mut epoch_hashes = Vec::new();
    let mut next_seal = trace.seal_points.iter().copied().peekable();
    for (i, request) in trace.requests.iter().enumerate() {
        fleet.try_ingest_batch(request)?;
        while next_seal.peek() == Some(&(i + 1)) {
            next_seal.next();
            let snapshot = fleet.try_seal_epoch()?;
            epoch_hashes.push((snapshot.epoch(), snapshot.content_hash()));
        }
    }
    // Seals recorded at a point past the last admitted request (an empty
    // tail epoch) replay here.
    for _ in next_seal {
        let snapshot = fleet.try_seal_epoch()?;
        epoch_hashes.push((snapshot.epoch(), snapshot.content_hash()));
    }
    let snapshot = fleet.snapshot();
    Ok(ScenarioReport {
        final_epoch: snapshot.epoch(),
        final_hash: snapshot.content_hash(),
        epoch_hashes,
        device_count: fleet.device_count(),
        stats: ServeStats::default(),
    })
}
