//! The metric tables, and how a run's result is printed.
//!
//! `BENCHMARK.json` at the repository root lists the same names and
//! units; a unit test keeps the two in step.
#![forbid(unsafe_code)]

use std::collections::BTreeMap;

/// `(name, unit)` of every end-to-end metric. Every workload reports
/// every one of them on an untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("epoch_turnaround_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// `(name, unit)` of every per-layer metric, `<layer>.<metric>`. A traced
/// run reports all of them; one a workload does not exercise reads zero.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("serve.queue.depth_max", "count"),
    ("serve.queue.shed_queue_full", "count"),
    ("serve.queue.shed_seal_lag", "count"),
    ("serve.coalesce.ns_per_op", "ns"),
    ("serve.coalesce.absorbed_share", "share"),
    ("serve.server.submit_ns_per_req", "ns"),
    ("serve.server.pump_busy_share", "share"),
    ("serve.server.tick_seal_ms_p50", "ms"),
    ("serve.server.tick_seal_ms_max", "ms"),
    ("serve.server.drain_s", "s"),
    ("serve.server.flushes", "count"),
    ("serve.server.ops_per_flush", "count"),
    ("serve.server.flush_us_p50", "us"),
    ("serve.server.flush_us_p99", "us"),
    ("fleet.fleet.route_ns_per_op", "ns"),
    ("fleet.fleet.apply_ns_per_op", "ns"),
    ("fleet.fleet.shard_skew", "ratio"),
    ("fleet.fleet.ingest_batch_us_p50", "us"),
    ("fleet.fleet.seal_diff_ms_p50", "ms"),
    ("fleet.fleet.seal_full_ms_p50", "ms"),
    ("fleet.fleet.seal_diff_count", "count"),
    ("fleet.fleet.seal_full_count", "count"),
    ("fleet.wal.log_batch_us_p50", "us"),
    ("fleet.wal.bytes_per_op", "B"),
    ("fleet.wal.segments", "count"),
    ("fleet.wal.sync_ms_p50", "ms"),
    ("fleet.wal.disk_bytes_per_op", "B"),
    ("fleet.checkpoint.write_ms_p50", "ms"),
    ("fleet.checkpoint.bytes", "B"),
    ("fleet.checkpoint.load_ms_p50", "ms"),
    ("fleet.recover.recovery_s", "s"),
    ("fleet.recover.replayed_ops", "count"),
    ("fleet.recover.replayed_epochs", "count"),
    ("fleet.recover.verified_seals", "count"),
    ("fleet.recover.power_loss_discarded", "B"),
    ("fleet.publish.get_ns_per_op", "ns"),
    ("fleet.snapshot.entropy_ns", "ns"),
    ("fleet.snapshot.devices", "count"),
    ("fleet.snapshot.buckets", "count"),
    ("fleet.cache.hit_share", "share"),
    ("fleet.cache.hit_select_ns", "ns"),
    ("fleet.cache.miss_select_ms_p50", "ms"),
    ("fleet.cache.warm_starts", "count"),
    ("fleet.cache.cold_selections", "count"),
    ("fleet.cache.evictions", "count"),
    ("committee.cold_select_ms", "ms"),
    ("committee.pruned_select_ms", "ms"),
    ("committee.warm_select_ms", "ms"),
    ("committee.warm_fell_back_share", "share"),
    ("committee.warm_replayed_mean", "count"),
    ("core.monitor.report_ns", "ns"),
    ("paper.entropy_bits", "bits"),
    ("paper.top_bucket_share", "share"),
    ("paper.devices", "count"),
    ("simnet.population.gen_s", "s"),
    ("simnet.population.gen_late_ms_max", "ms"),
    ("paced.sustainable_ops_per_s", "1/s"),
    ("paced.fresh_tail_ms_at_50k", "ms"),
    ("paced.fresh_tail_ms_at_100k", "ms"),
    ("paced.fresh_tail_ms_at_200k", "ms"),
    ("paced.shed_share", "share"),
    ("trace.overhead_share", "share"),
    ("trace.replay_stage_sum_share", "share"),
    ("run.churn_ops_per_s", "1/s"),
    ("run.cpu_us_per_op", "us"),
    ("run.epoch_turnaround_p95_ms", "ms"),
    ("run.fresh_p50_ms", "ms"),
    ("run.fresh_p99_ms", "ms"),
    ("run.read_ns_per_op", "ns"),
    ("run.epochs", "count"),
    ("run.failed_share", "share"),
    ("run.pool_exhausted", "count"),
];

/// Metric values of one run, by name.
#[derive(Debug, Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|&(n, _)| n == name),
            "{name} is in neither metric table"
        );
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// What one run hands back.
#[derive(Debug, Default)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub values: Values,
    /// Failed output checks; empty means the run is correct.
    pub errors: Vec<String>,
    /// Lines for the reader: provenance, sample counts, percentiles used.
    pub notes: Vec<String>,
}

impl RunResult {
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Records a failed check and carries on, so one run reports them all.
    pub fn check(&mut self, outcome: Result<(), String>) {
        if let Err(e) = outcome {
            self.errors.push(e);
        }
    }
}

/// The metrics a run of this kind must print, with their values. An
/// end-to-end metric that is missing, zero or not finite is an error; a
/// per-layer metric the workload did not set reads zero.
fn collect(result: &mut RunResult, traced: bool) -> Vec<(&'static str, &'static str, f64)> {
    let table = if traced { PER_LAYER } else { END_TO_END };
    let mut rows = Vec::with_capacity(table.len());
    for &(name, unit) in table {
        let value = result.values.get(name).unwrap_or(0.0);
        if !value.is_finite() {
            result.errors.push(format!("{name} is not a finite number"));
            rows.push((name, unit, 0.0));
            continue;
        }
        if !traced && value == 0.0 {
            result
                .errors
                .push(format!("end-to-end metric {name} was not measured"));
        }
        rows.push((name, unit, value));
    }
    rows
}

/// The last line of a run's standard output.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    rows: &[(&str, &str, f64)],
) -> String {
    let metrics: Vec<String> = rows
        .iter()
        .map(|(name, unit, value)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

/// Prints notes, failed checks, one `metric <name> <value> <unit>` line
/// per metric, and the result line. Returns whether the run was correct.
pub fn print(mut result: RunResult, traced: bool) -> bool {
    let rows = collect(&mut result, traced);
    for note in &result.notes {
        println!("# {note}");
    }
    for (name, unit, value) in &rows {
        println!("metric {name} {value} {unit}");
    }
    for error in &result.errors {
        println!("FAILED CHECK: {error}");
    }
    let correct = result.errors.is_empty();
    println!(
        "{}",
        result_line(correct, result.attempted.max(1), result.failed, &rows)
    );
    correct
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(name), "{name} is listed twice");
            assert!(name.len() <= 64 && unit.len() <= 16, "{name} {unit}");
            assert!(name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(END_TO_END.contains(&("setup_s", "s")));
    }

    #[test]
    fn benchmark_json_lists_the_same_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": ");
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = text.matches("\"better\": ").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
        assert_eq!(text.matches("\"bound\": ").count(), END_TO_END.len());
    }

    #[test]
    fn the_result_line_has_exactly_the_contract_keys() {
        let line = result_line(true, 7, 0, &[("a_ms", "ms", 1.25), ("b", "count", 3.0)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 7, \"failed\": 0, \"metrics\": \
             {\"a_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \"b\": {\"value\": 3, \"unit\": \"count\"}}}"
        );
    }

    #[test]
    fn a_missing_end_to_end_metric_makes_the_run_incorrect() {
        let mut result = RunResult::default();
        for &(name, _) in END_TO_END {
            result.values.set(name, 1.0);
        }
        assert_eq!(collect(&mut result, false).len(), END_TO_END.len());
        assert!(result.errors.is_empty());
        result.values.set("epoch_turnaround_p50_ms", 0.0);
        collect(&mut result, false);
        assert_eq!(result.errors.len(), 1);
        // Per-layer metrics may read zero, but not NaN.
        let mut traced = RunResult::default();
        collect(&mut traced, true);
        assert!(traced.errors.is_empty());
        traced.values.set("fleet.fleet.shard_skew", f64::NAN);
        collect(&mut traced, true);
        assert_eq!(traced.errors.len(), 1);
    }
}
