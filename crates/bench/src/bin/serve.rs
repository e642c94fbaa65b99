//! `serve` — the request front-end harness: deterministic simnet load
//! through [`fi_serve::FleetServer`].
//!
//! Drives synthetic client populations ([`fi_simnet::ClientPopulation`])
//! through the backpressured serving pipeline (bounded ingress queue,
//! last-op-wins coalescing, one `try_ingest_batch` per flush on the
//! driver's thread, flush-then-seal barriers) and appends a `serve` section to `BENCH_perf.json` at the
//! repo root:
//!
//! * **headline** — the sustained serving rate of a large population
//!   (full: 2M devices, smoke: 100k) over a long churn run: admitted
//!   ops/sec wall-clock through the whole pipeline, the p50/p99
//!   enqueue-to-applied flush latency, and how much of the offered load
//!   the coalescer absorbed before it ever reached a shard;
//! * **determinism** — the tentpole claim as a gate: the same scenario
//!   run twice at every swept shard count must produce the byte-identical
//!   [`fi_serve::ScenarioReport`] hash (covering every sealed epoch's
//!   content hash and every admission/coalescing/application counter),
//!   and the serve-path epoch history must equal a direct
//!   `ShardedFleet::ingest_batch` replay of the admitted trace — the
//!   serving layer must be semantically invisible;
//! * **overload** — the same population squeezed through a deliberately
//!   tiny ingress bound: the shed rate under sustained overload, with the
//!   gates that sheds actually happen, that they are typed (never a panic
//!   or a deadlock — the run completing *is* the evidence), and that the
//!   admission decisions are themselves deterministic across runs and
//!   shard counts.
//!
//! Doubles as a correctness gate: exits non-zero if any report hash
//! differs across runs or shard counts, if the differential oracle
//! diverges, if the overload run fails to shed (the bound would be
//! untested), or if the counter accounting breaks (admitted ops must
//! equal flushed + coalesced-away, and every flushed op must be applied
//! after the final drain).
//!
//! ```text
//! cargo run --release -p fi-bench --bin serve              # full workload
//! cargo run --release -p fi-bench --bin serve -- --smoke   # reduced n, shards {1, 4} (CI)
//! ```
#![forbid(unsafe_code)]

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use fi_bench::repo_root;
use fi_serve::{direct_ingest_report, run_scenario, ScenarioConfig, ScenarioReport, ServeConfig};
use fi_types::Digest;

/// Shard counts the full run sweeps for the determinism matrix.
const SHARD_COUNTS: [usize; 3] = [1, 4, 8];
/// Shard counts the smoke (CI) run sweeps — the two ends the issue's
/// determinism gate names, in one invocation so the gate can fire.
const SMOKE_SHARD_COUNTS: [usize; 2] = [1, 4];
/// Runs per shard count in the determinism matrix. Two is the minimum
/// that can catch run-to-run (schedule) nondeterminism.
const RUNS_PER_SHARD: usize = 2;

struct Workload {
    /// Headline population size (sustained-rate section).
    headline_devices: u64,
    headline_mean_ops: u64,
    headline_ticks: u64,
    /// Determinism-matrix population (smaller: it runs 2×|shards| times
    /// plus an oracle replay, and records the full admitted trace).
    matrix_devices: u64,
    matrix_mean_ops: u64,
    matrix_ticks: u64,
    /// Overload population (small fleet, squeezed bound).
    overload_devices: u64,
    overload_mean_ops: u64,
    overload_ticks: u64,
}

const FULL: Workload = Workload {
    headline_devices: 2_000_000,
    headline_mean_ops: 20_000,
    headline_ticks: 100,
    matrix_devices: 200_000,
    matrix_mean_ops: 5_000,
    matrix_ticks: 40,
    overload_devices: 5_000,
    overload_mean_ops: 2_000,
    overload_ticks: 20,
};

const SMOKE: Workload = Workload {
    headline_devices: 100_000,
    headline_mean_ops: 5_000,
    headline_ticks: 40,
    matrix_devices: 100_000,
    matrix_mean_ops: 2_000,
    matrix_ticks: 30,
    overload_devices: 5_000,
    overload_mean_ops: 2_000,
    overload_ticks: 20,
};

/// The squeezed server tuning for the overload section: an ingress bound
/// far below the per-tick burst, so sustained load must shed.
fn overload_serve() -> ServeConfig {
    ServeConfig {
        queue_capacity: 8,
        flush_ops: 256,
        epoch_ticks: 10,
        max_seal_lag_epochs: 3,
    }
}

struct Headline {
    devices: u64,
    admitted_ops: u64,
    coalesced_away: u64,
    epochs_sealed: u64,
    wall_ms: f64,
    ops_per_sec: f64,
    p50_flush_us: u64,
    p99_flush_us: u64,
}

struct DeterminismRow {
    shards: usize,
    runs: usize,
    report_hash: Digest,
    matches_baseline: bool,
}

struct Overload {
    submitted_requests: u64,
    shed_requests: u64,
    shed_rate: f64,
    admitted_ops: u64,
    hash_invariant: bool,
}

struct Gates {
    determinism: bool,
    oracle_match: bool,
    overload_sheds: bool,
    accounting: bool,
}

/// `p`-th percentile (nearest-rank) of an unsorted latency sample.
fn percentile_us(samples: &[u64], p: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.saturating_sub(1).min(sorted.len() - 1)]
}

/// Counter accounting that must hold after every drained run: every
/// admitted op was either coalesced away at the edge or flushed to a
/// shard, and every flushed op was applied.
fn accounting_holds(report: &ScenarioReport) -> bool {
    let s = &report.stats;
    s.admitted_ops == s.flushed_ops + s.coalesced_away && s.applied_ops == s.flushed_ops
}

fn render_serve_json(
    mode: &str,
    headline: &Headline,
    matrix: &[DeterminismRow],
    oracle_match: bool,
    overload: &Overload,
    gates: &Gates,
) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "    \"mode\": \"{mode}\",");
    let _ = writeln!(out, "    \"headline\": {{");
    let _ = writeln!(out, "      \"devices\": {},", headline.devices);
    let _ = writeln!(out, "      \"admitted_ops\": {},", headline.admitted_ops);
    let _ = writeln!(
        out,
        "      \"coalesced_away\": {},",
        headline.coalesced_away
    );
    let _ = writeln!(out, "      \"epochs_sealed\": {},", headline.epochs_sealed);
    let _ = writeln!(out, "      \"wall_ms\": {:.1},", headline.wall_ms);
    let _ = writeln!(
        out,
        "      \"sustained_ops_per_sec\": {:.0},",
        headline.ops_per_sec
    );
    let _ = writeln!(
        out,
        "      \"p50_flush_latency_us\": {},",
        headline.p50_flush_us
    );
    let _ = writeln!(
        out,
        "      \"p99_flush_latency_us\": {}",
        headline.p99_flush_us
    );
    let _ = writeln!(out, "    }},");
    let _ = writeln!(out, "    \"determinism\": [");
    for (i, row) in matrix.iter().enumerate() {
        let comma = if i + 1 == matrix.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "      {{\"shards\": {}, \"runs\": {}, \"report_hash\": \"{}\", \
             \"matches_baseline\": {}}}{comma}",
            row.shards, row.runs, row.report_hash, row.matches_baseline
        );
    }
    let _ = writeln!(out, "    ],");
    let _ = writeln!(out, "    \"oracle_match\": {oracle_match},");
    let _ = writeln!(out, "    \"overload\": {{");
    let _ = writeln!(
        out,
        "      \"queue_capacity\": {},",
        overload_serve().queue_capacity
    );
    let _ = writeln!(
        out,
        "      \"submitted_requests\": {},",
        overload.submitted_requests
    );
    let _ = writeln!(out, "      \"shed_requests\": {},", overload.shed_requests);
    let _ = writeln!(out, "      \"shed_rate\": {:.4},", overload.shed_rate);
    let _ = writeln!(out, "      \"admitted_ops\": {},", overload.admitted_ops);
    let _ = writeln!(out, "      \"hash_invariant\": {}", overload.hash_invariant);
    let _ = writeln!(out, "    }},");
    let _ = writeln!(out, "    \"gates\": {{");
    let _ = writeln!(out, "      \"determinism\": {},", gates.determinism);
    let _ = writeln!(out, "      \"oracle_match\": {},", gates.oracle_match);
    let _ = writeln!(out, "      \"overload_sheds\": {},", gates.overload_sheds);
    let _ = writeln!(out, "      \"accounting\": {}", gates.accounting);
    let _ = writeln!(out, "    }}");
    let _ = write!(out, "  }}");
    out
}

/// Splices the serve section into `BENCH_perf.json` (replacing any
/// earlier serve section, so re-runs are idempotent). The serve section
/// is by construction the file's *last* key — `perf` rewrites the file
/// wholesale, `fleet` truncates from its own key to the end (dropping a
/// stale serve section, which this binary then regenerates — CI runs
/// them in that order), and this binary always appends at the end — so
/// everything from the `"serve"` key on is ours to replace.
fn splice_serve_section(existing: &str, serve_json: &str) -> String {
    let base = match existing.find("\"serve\"") {
        Some(key) => match existing[..key].rfind(',') {
            Some(comma) => format!("{}\n}}\n", existing[..comma].trim_end()),
            None => existing.to_string(),
        },
        None => existing.to_string(),
    };
    let trimmed = base.trim_end();
    let without_brace = trimmed
        .strip_suffix('}')
        .expect("BENCH_perf.json ends with a JSON object");
    format!(
        "{},\n  \"serve\": {}\n}}\n",
        without_brace.trim_end(),
        serve_json
    )
}

fn main() -> ExitCode {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let mode = if smoke { "smoke" } else { "full" };
    let workload = if smoke { SMOKE } else { FULL };
    let shard_counts: &[usize] = if smoke {
        &SMOKE_SHARD_COUNTS
    } else {
        &SHARD_COUNTS
    };

    // --- Headline: sustained serving rate at full population scale.
    println!(
        "serve headline: {} devices, {} mean ops/tick, {} ticks",
        workload.headline_devices, workload.headline_mean_ops, workload.headline_ticks
    );
    let headline_config = ScenarioConfig::new(
        workload.headline_devices,
        workload.headline_mean_ops,
        workload.headline_ticks,
    );
    let started = Instant::now();
    let outcome = run_scenario(&headline_config, false).expect("in-memory headline scenario");
    let wall = started.elapsed();
    let stats = &outcome.report.stats;
    let headline = Headline {
        devices: workload.headline_devices,
        admitted_ops: stats.admitted_ops,
        coalesced_away: stats.coalesced_away,
        epochs_sealed: stats.epochs_sealed,
        wall_ms: wall.as_secs_f64() * 1e3,
        ops_per_sec: stats.admitted_ops as f64 / wall.as_secs_f64(),
        p50_flush_us: percentile_us(&outcome.flush_latencies_us, 50.0),
        p99_flush_us: percentile_us(&outcome.flush_latencies_us, 99.0),
    };
    println!(
        "  {:.0} ops/s sustained, flush latency p50 {} us / p99 {} us, {} epochs",
        headline.ops_per_sec, headline.p50_flush_us, headline.p99_flush_us, headline.epochs_sealed
    );

    // --- Determinism matrix: every shard count, twice, against the
    // 1-shard baseline; plus the differential oracle on a recorded trace.
    println!(
        "serve determinism: {} devices x shards {:?} x {} runs",
        workload.matrix_devices, shard_counts, RUNS_PER_SHARD
    );
    let matrix_config = ScenarioConfig::new(
        workload.matrix_devices,
        workload.matrix_mean_ops,
        workload.matrix_ticks,
    );
    let baseline = run_scenario(&matrix_config.clone().with_shards(shard_counts[0]), true)
        .expect("in-memory matrix scenario");
    let baseline_hash = baseline.report.report_hash();
    let mut matrix = Vec::new();
    let mut determinism = true;
    for &shards in shard_counts {
        let mut row_hash = None;
        let mut matches_baseline = true;
        for _ in 0..RUNS_PER_SHARD {
            let report = run_scenario(&matrix_config.clone().with_shards(shards), false)
                .expect("in-memory matrix scenario")
                .report;
            let hash = report.report_hash();
            matches_baseline &= hash == baseline_hash;
            row_hash = Some(hash);
        }
        let report_hash = row_hash.expect("at least one run per shard count");
        determinism &= matches_baseline;
        println!(
            "  shards={shards}: report hash {report_hash} ({})",
            if matches_baseline { "ok" } else { "DIVERGED" }
        );
        matrix.push(DeterminismRow {
            shards,
            runs: RUNS_PER_SHARD,
            report_hash,
            matches_baseline,
        });
    }
    let trace = baseline.trace.expect("baseline records the trace");
    let mut oracle_match = true;
    for &shards in shard_counts {
        let oracle = direct_ingest_report(&trace, shards, matrix_config.reanchor_interval);
        oracle_match &= oracle.epoch_hashes == baseline.report.epoch_hashes
            && oracle.final_hash == baseline.report.final_hash
            && oracle.device_count == baseline.report.device_count;
    }
    println!(
        "  direct-ingest oracle: {}",
        if oracle_match { "match" } else { "DIVERGED" }
    );

    // --- Overload: squeezed ingress bound; sheds must happen, be typed
    // (the run completing without panic is the evidence), and be
    // deterministic across shard counts.
    let overload_config = ScenarioConfig::new(
        workload.overload_devices,
        workload.overload_mean_ops,
        workload.overload_ticks,
    )
    .with_serve(overload_serve());
    let overload_baseline =
        run_scenario(&overload_config.clone().with_shards(shard_counts[0]), false)
            .expect("overload scenario")
            .report;
    let mut overload_invariant = true;
    for &shards in shard_counts {
        let report = run_scenario(&overload_config.clone().with_shards(shards), false)
            .expect("overload scenario")
            .report;
        overload_invariant &= report.report_hash() == overload_baseline.report_hash();
    }
    let s = &overload_baseline.stats;
    let shed = s.shed_queue_full + s.shed_seal_lag;
    let overload = Overload {
        submitted_requests: s.submitted_requests,
        shed_requests: shed,
        shed_rate: shed as f64 / s.submitted_requests.max(1) as f64,
        admitted_ops: s.admitted_ops,
        hash_invariant: overload_invariant,
    };
    println!(
        "serve overload: {} of {} requests shed ({:.1}%), deterministic: {}",
        overload.shed_requests,
        overload.submitted_requests,
        overload.shed_rate * 100.0,
        overload.hash_invariant
    );

    let gates = Gates {
        determinism,
        oracle_match,
        overload_sheds: overload.shed_requests > 0 && overload.hash_invariant,
        accounting: accounting_holds(&outcome.report)
            && accounting_holds(&baseline.report)
            && accounting_holds(&overload_baseline),
    };

    let serve_json = render_serve_json(mode, &headline, &matrix, oracle_match, &overload, &gates);
    let path = repo_root().join("BENCH_perf.json");
    let existing = std::fs::read_to_string(&path).unwrap_or_else(|_| {
        format!("{{\n  \"schema\": \"fi-bench/perf/v1\",\n  \"mode\": \"{mode}\"\n}}\n")
    });
    match std::fs::write(&path, splice_serve_section(&existing, &serve_json)) {
        Ok(()) => println!("appended serve section to {}", path.display()),
        Err(e) => {
            eprintln!("failed to write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }

    if !gates.determinism {
        eprintln!("FAIL: scenario report hash differs across runs or shard counts");
        return ExitCode::FAILURE;
    }
    if !gates.oracle_match {
        eprintln!("FAIL: serve path diverged from direct ingest of the admitted trace");
        return ExitCode::FAILURE;
    }
    if !gates.overload_sheds {
        eprintln!("FAIL: overload run shed nothing, or sheds were nondeterministic");
        return ExitCode::FAILURE;
    }
    if !gates.accounting {
        eprintln!(
            "FAIL: op accounting broke (admitted != flushed + coalesced, or applied != flushed)"
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
