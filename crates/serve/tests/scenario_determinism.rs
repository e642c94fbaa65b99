//! The tentpole claim, pinned as a test: a simnet load scenario's
//! end-state content hash is **byte-identical across runs, thread
//! schedules, and shard counts {1, 4, 8}**, and equal to direct
//! `ShardedFleet` ingest of the same logical trace.
//!
//! Every run is single-threaded (the stack spawns no thread), so what
//! these tests vary is the shard count and the run. The report hash covers
//! every sealed epoch's content hash plus every admission, coalescing,
//! and application counter, so any run- or shard-dependence anywhere in
//! the pipeline would show up as a hash mismatch.
//!
//! The scenario runner ([`run_scenario`]) is a [`ClientPopulation`] driven
//! through a [`FleetServer`] in lockstep, a discrete-event loop: per tick
//! it submits the tick's generated requests (admission decisions depend
//! only on logical queue state — burst size vs. the ingress bound — so
//! sheds are deterministic), pumps the dispatcher, and advances the server
//! clock; on seal ticks the server flushes its window and cuts the epoch.
//! The oracle ([`direct_ingest_report`]) replays the recorded *admitted*
//! requests straight into a plain [`ShardedFleet`] via `try_ingest_batch`
//! — no queue, no coalescing — sealing at the same ticks. Matching epoch
//! hashes prove the whole serving pipeline (bounded ingress + last-op-wins
//! coalescing + flush-then-seal barriers) is semantically invisible: it
//! collapses work, never changes what an epoch means.

use std::sync::Arc;

use fi_attest::ChurnOp;
use fi_fleet::ShardedFleet;
use fi_serve::{scenario_weights, FleetServer, ServeConfig, ServeError, ServeStats};
use fi_simnet::{ClientPopulation, PopulationConfig};
use fi_types::{sha256, Digest};

/// A full load-scenario description: the synthetic population, the server
/// tuning, and the fleet shape.
#[derive(Debug, Clone)]
struct ScenarioConfig {
    /// The synthetic client population (devices, skew, diurnal curve…).
    population: PopulationConfig,
    /// Server tuning (bounds, watermarks, seal cadence).
    serve: ServeConfig,
    /// Fleet shard count. Changing it must not change the report hash.
    shards: usize,
    /// Ticks of churn traffic to run after the registration wave.
    ticks: u64,
}

/// The scenario fleet forces a full rebuild every this many seals
/// (`ShardedFleet::with_reanchor_interval`), so a scenario run through the
/// front-end crosses both sealing paths; the oracle fleet forces none.
const FULL_REBUILD_EVERY: u64 = 8;

impl ScenarioConfig {
    /// A scenario over `devices` devices running `ticks` ticks with the
    /// default population mix, server tuning, and 4 shards.
    fn new(devices: u64, mean_ops_per_tick: u64, ticks: u64) -> Self {
        ScenarioConfig {
            population: PopulationConfig::new(devices, mean_ops_per_tick),
            serve: ServeConfig::default(),
            shards: 4,
            ticks,
        }
    }

    /// Replaces the shard count.
    fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Replaces the server tuning.
    fn with_serve(mut self, serve: ServeConfig) -> Self {
        self.serve = serve;
        self
    }
}

/// What one scenario run produced, reduced to its deterministic facts.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ScenarioReport {
    /// The final sealed epoch.
    final_epoch: u64,
    /// The final sealed snapshot's content hash — the headline
    /// determinism fact.
    final_hash: Digest,
    /// Every sealed epoch's `(epoch, content_hash)`, in seal order.
    epoch_hashes: Vec<(u64, Digest)>,
    /// Registered devices at the end of the run.
    device_count: usize,
    /// Server counters at the end of the run (deterministic in lockstep).
    stats: ServeStats,
}

impl ScenarioReport {
    /// One digest over every deterministic fact in the report: equal
    /// report hashes mean equal epoch histories, end states, admission
    /// decisions, and coalescing behaviour.
    fn report_hash(&self) -> Digest {
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
             flushes:{} flushed_ops:{} applied_ops:{} rej:{} sealed:{} seal_fail:{}",
            s.submitted_requests,
            s.admitted_ops,
            s.shed_queue_full,
            s.shed_seal_lag,
            s.coalesced_away,
            s.flushes,
            s.flushed_ops,
            s.applied_ops,
            s.rejected_flushes,
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
struct AdmittedTrace {
    /// Admitted requests, in admission order. The registration wave comes
    /// first, then churn ticks in order (sheds are absent — that is the
    /// point).
    requests: Vec<Vec<ChurnOp>>,
    /// After how many admitted requests each seal happened (prefix
    /// lengths into `requests`).
    seal_points: Vec<usize>,
}

/// A scenario run plus (optionally) the trace needed to differentially
/// verify it.
#[derive(Debug)]
struct ScenarioOutcome {
    /// The deterministic report.
    report: ScenarioReport,
    /// The admitted trace, when recording was requested.
    trace: Option<AdmittedTrace>,
}

/// Runs `config` in deterministic lockstep. Clients retry
/// registration-wave sheds after a pump (cold-start registration must
/// complete); churn-tick sheds are final (that is the overload model).
fn run_scenario(
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
fn direct_ingest_report(
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

/// A scenario small enough for CI but busy enough to exercise multi-tick
/// coalescing windows, diurnal load swings, and several epochs.
fn scenario() -> ScenarioConfig {
    ScenarioConfig::new(1_200, 400, 30)
}

/// The same scenario with the ingress bound squeezed until it sheds: the
/// overload path (typed rejections) must be as deterministic as the
/// happy path.
fn overloaded_scenario() -> ScenarioConfig {
    scenario().with_serve(ServeConfig {
        queue_capacity: 8,
        flush_ops: 256,
        epoch_ticks: 10,
        max_seal_lag_epochs: 3,
    })
}

/// After the final drain every admitted op was coalesced away at the edge
/// or flushed to a shard, and every flushed op was applied.
fn assert_accounted(stats: &ServeStats) {
    assert_eq!(stats.admitted_ops, stats.flushed_ops + stats.coalesced_away);
    assert_eq!(stats.applied_ops, stats.flushed_ops);
}

#[test]
fn report_hash_is_invariant_across_runs_and_shard_counts() {
    let baseline = run_scenario(&scenario().with_shards(1), false)
        .expect("in-memory scenario")
        .report;
    assert!(baseline.final_epoch >= 3, "scenario seals several epochs");
    assert!(baseline.stats.coalesced_away > 0, "Zipf skew coalesces");
    assert_accounted(&baseline.stats);
    for shards in [1usize, 4, 8] {
        for run in 0..2 {
            let report = run_scenario(&scenario().with_shards(shards), false)
                .expect("in-memory scenario")
                .report;
            assert_eq!(
                report.report_hash(),
                baseline.report_hash(),
                "shards={shards} run={run} diverged from the 1-shard baseline"
            );
            assert_eq!(report.final_hash, baseline.final_hash);
            assert_eq!(report.epoch_hashes, baseline.epoch_hashes);
        }
    }
}

#[test]
fn serve_path_equals_direct_ingest_of_the_admitted_trace() {
    let config = scenario().with_shards(4);
    let outcome = run_scenario(&config, true).expect("in-memory scenario");
    let trace = outcome.trace.expect("recording requested");
    assert_eq!(
        outcome.report.stats.shed_queue_full + outcome.report.stats.shed_seal_lag,
        0,
        "default bounds admit everything at this scale"
    );
    // The oracle re-shards too: direct ingest at 1, 4, and 8 shards all
    // seal the identical history the serving pipeline sealed.
    for shards in [1usize, 4, 8] {
        let oracle = direct_ingest_report(&trace, shards).unwrap();
        assert_eq!(oracle.epoch_hashes, outcome.report.epoch_hashes);
        assert_eq!(oracle.final_hash, outcome.report.final_hash);
        assert_eq!(oracle.device_count, outcome.report.device_count);
    }
}

#[test]
fn overload_sheds_are_deterministic_and_accounted() {
    let baseline = run_scenario(&overloaded_scenario().with_shards(1), false)
        .expect("scenario under overload")
        .report;
    assert!(
        baseline.stats.shed_queue_full > 0,
        "the squeezed ingress bound must shed at peak load"
    );
    // Shed + admitted requests account for every submission past the
    // registration wave retries.
    assert!(baseline.stats.submitted_requests > baseline.stats.shed_queue_full);
    assert_accounted(&baseline.stats);
    for shards in [4usize, 8] {
        let report = run_scenario(&overloaded_scenario().with_shards(shards), false)
            .expect("scenario under overload")
            .report;
        assert_eq!(
            report.report_hash(),
            baseline.report_hash(),
            "admission decisions must not depend on the shard count"
        );
    }
    // And the admitted trace still matches direct ingest under overload.
    let outcome =
        run_scenario(&overloaded_scenario().with_shards(4), true).expect("scenario under overload");
    assert_accounted(&outcome.report.stats);
    let trace = outcome.trace.expect("recording requested");
    let oracle = direct_ingest_report(&trace, 4).unwrap();
    assert_eq!(oracle.final_hash, outcome.report.final_hash);
    assert_eq!(oracle.epoch_hashes, outcome.report.epoch_hashes);
}
