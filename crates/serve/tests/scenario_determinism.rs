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

use fi_serve::{direct_ingest_report, run_scenario, ScenarioConfig, ServeConfig, ServeStats};

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
