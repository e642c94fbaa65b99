//! One run of one workload: set-up, the measured phase, the output
//! checks, and the metrics.
//!
//! An untraced run reports the end-to-end metrics. A traced run spends
//! half the time budget in the real driver, recording spans on every
//! other re-anchor cycle, and the rest in the stage replay; it reports
//! the per-layer metrics.
#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fi_fleet::{CacheStats, ShardedFleet};
use fi_serve::{FleetServer, ServeConfig, ServeStats};

use crate::checks::{self, Paper};
use crate::closed::{self, cycle_rate};
use crate::common::{scratch_dir, stand_up};
use crate::durable;
use crate::host;
use crate::inputs::{generate, Inputs, Tick, Workload, PACED_HEADLINE_STEP, TICKS_PER_EPOCH};
use crate::paced;
use crate::replay::{self, Replay, Shape};
use crate::report::{RunResult, Values};
use crate::span::{by_name, write_spans, Layer, Span, Tracer};
use crate::stats::{median, percentile_sorted, summarize, Summary};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

#[derive(Debug, Clone, Copy)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub traced: bool,
}

struct SetUp {
    inputs: Inputs,
    fleet: Arc<ShardedFleet>,
    /// The durability directory, for `durable`.
    dir: Option<PathBuf>,
    setup_s: f64,
}

/// Generates the inputs and stands the fleet up, keeping the last of
/// [`SETUP_REPEATS`] rounds: `setup_s` covers generation, registration
/// and the first seal (and `open_durable`'s cold start). A traced run
/// reports no `setup_s` and drives for half the time, so it sets up once
/// with inputs for half the time.
fn set_up(args: &Args, scratch: &Path) -> Result<SetUp, String> {
    let (repeats, gen_seconds) = if args.traced {
        (1, args.seconds.div_ceil(2))
    } else {
        (SETUP_REPEATS, args.seconds)
    };
    let mut times = Vec::with_capacity(repeats);
    let mut kept: Option<SetUp> = None;
    for round in 0..repeats {
        if let Some(previous) = kept.take() {
            drop(previous.fleet);
            if let Some(dir) = previous.dir {
                let _ = std::fs::remove_dir_all(dir);
            }
        }
        let dir =
            (args.workload == Workload::Durable).then(|| scratch.join(format!("fleet-{round}")));
        let started = Instant::now();
        let inputs = generate(args.workload, args.seed, gen_seconds);
        let fleet = stand_up(&inputs, dir.as_deref())?;
        times.push(started.elapsed().as_secs_f64());
        kept = Some(SetUp {
            inputs,
            fleet,
            dir,
            setup_s: 0.0,
        });
    }
    let mut kept = kept.ok_or("no set-up was run")?;
    kept.setup_s = median(&mut times);
    Ok(kept)
}

/// Runs the workload and returns its result; a failed step or check is
/// recorded in the result, never panicked on.
pub fn run(args: &Args) -> RunResult {
    let mut result = RunResult::default();
    let label = format!("{}-{:x}", args.workload.name(), args.seed);
    let scratch = match scratch_dir(&label) {
        Ok(dir) => dir,
        Err(e) => {
            result
                .errors
                .push(format!("creating the scratch directory: {e}"));
            return result;
        }
    };
    result.notes = host::provenance(&scratch);
    result.note(format!(
        "run: workload {} seed {:#x} seconds {} traced {} sizes {:?}",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.traced,
        args.workload.sizes()
    ));
    let outcome = match args.workload {
        Workload::Paced => run_paced(args, &scratch, &mut result),
        _ => run_closed(args, &scratch, &mut result),
    };
    result.check(outcome);
    let _ = std::fs::remove_dir_all(&scratch);
    result
}

fn note_summary(result: &mut RunResult, what: &str, unit: &str, s: &Summary) {
    result.note(format!(
        "{what}: n {} p50 {:.3} {unit}, p{} {:.3} {unit}, max {:.3} {unit}",
        s.n, s.p50, s.tail_pct, s.tail, s.max
    ));
}

/// What both kinds of run measure beside the layers. Only the median
/// turnaround is steady enough on a shared host to carry a bound; the
/// rest is reported per layer (see the README's "Demoted" section).
struct Measured {
    turnaround: Summary,
    fresh: Summary,
    read_ns: f64,
    ops_per_s: f64,
    cpu_us_per_op: f64,
}

impl Measured {
    fn note(&self, result: &mut RunResult) {
        note_summary(result, "epoch turnaround", "ms", &self.turnaround);
        note_summary(result, "fresh", "ms", &self.fresh);
        result.note(format!(
            "throughput {:.0} ops/s, {:.3} CPU us per op, {:.2} ns per snapshot read",
            self.ops_per_s, self.cpu_us_per_op, self.read_ns
        ));
    }

    fn set_end_to_end(&self, v: &mut Values, setup_s: f64) {
        v.set("setup_s", setup_s);
        v.set("epoch_turnaround_p50_ms", self.turnaround.p50);
        v.set("peak_rss_mb", host::peak_rss_mb());
    }

    fn set_demoted(&self, v: &mut Values) {
        v.set("run.churn_ops_per_s", self.ops_per_s);
        v.set("run.cpu_us_per_op", self.cpu_us_per_op);
        v.set("run.epoch_turnaround_p95_ms", self.turnaround.tail);
        v.set("run.fresh_p50_ms", self.fresh.p50);
        v.set("run.fresh_p99_ms", self.fresh.tail);
        v.set("run.read_ns_per_op", self.read_ns);
    }
}

fn set_paper(v: &mut Values, paper: Paper) {
    v.set("paper.entropy_bits", paper.entropy_bits);
    v.set("paper.top_bucket_share", paper.top_bucket_share);
    v.set("paper.devices", paper.devices as f64);
    v.set("fleet.snapshot.devices", paper.devices as f64);
    v.set("fleet.snapshot.buckets", paper.buckets as f64);
}

fn set_served(v: &mut Values, stats: &ServeStats, flush_us: &[u64], depth_max: usize) {
    v.set("serve.queue.depth_max", depth_max as f64);
    v.set("serve.queue.shed_queue_full", stats.shed_queue_full as f64);
    v.set("serve.queue.shed_seal_lag", stats.shed_seal_lag as f64);
    v.set(
        "serve.coalesce.absorbed_share",
        stats.coalesced_away as f64 / stats.admitted_ops.max(1) as f64,
    );
    v.set("serve.server.flushes", stats.flushes as f64);
    v.set(
        "serve.server.ops_per_flush",
        stats.flushed_ops as f64 / stats.flushes.max(1) as f64,
    );
    let mut flush: Vec<f64> = flush_us.iter().map(|&us| us as f64).collect();
    flush.sort_by(f64::total_cmp);
    v.set("serve.server.flush_us_p50", percentile_sorted(&flush, 50.0));
    v.set("serve.server.flush_us_p99", percentile_sorted(&flush, 99.0));
}

fn set_cache(v: &mut Values, cache: CacheStats) {
    v.set(
        "fleet.cache.hit_share",
        cache.hits as f64 / (cache.hits + cache.misses).max(1) as f64,
    );
    v.set("fleet.cache.warm_starts", cache.warm_starts as f64);
    v.set("fleet.cache.cold_selections", cache.cold_selections as f64);
    v.set("fleet.cache.evictions", cache.evictions as f64);
}

fn p50_ms(layers: &BTreeMap<&'static str, Layer>, name: &str) -> f64 {
    layers
        .get(name)
        .map_or(0.0, |l| median(&mut l.durations_ms.clone()))
}

fn total_ns(layers: &BTreeMap<&'static str, Layer>, name: &str) -> f64 {
    layers
        .get(name)
        .map_or(0.0, |l| l.durations_ms.iter().sum::<f64>() * 1e6)
}

fn count(layers: &BTreeMap<&'static str, Layer>, name: &str) -> f64 {
    layers.get(name).map_or(0.0, |l| l.count as f64)
}

/// Per-layer metrics taken from the real driver's spans.
fn set_driver_layers(v: &mut Values, spans: &[Span], traced_wall_s: f64) {
    let layers = by_name(spans);
    v.set(
        "serve.server.submit_ns_per_req",
        total_ns(&layers, "submit") / count(&layers, "submit").max(1.0),
    );
    v.set(
        "serve.server.pump_busy_share",
        total_ns(&layers, "pump") / 1e9 / traced_wall_s.max(f64::MIN_POSITIVE),
    );
    v.set("serve.server.drain_s", total_ns(&layers, "drain") / 1e9);
    v.set(
        "serve.server.tick_seal_ms_p50",
        p50_ms(&layers, "tick.seal"),
    );
    let seal_max = layers
        .get("tick.seal")
        .and_then(|l| l.durations_ms.iter().copied().max_by(f64::total_cmp));
    v.set("serve.server.tick_seal_ms_max", seal_max.unwrap_or(0.0));
    v.set(
        "fleet.fleet.ingest_batch_us_p50",
        p50_ms(&layers, "try_ingest_batch") * 1e3,
    );
    v.set(
        "fleet.cache.miss_select_ms_p50",
        p50_ms(&layers, "select_greedy_cached"),
    );
}

/// Per-layer metrics taken from the stage replay.
fn set_replay_layers(v: &mut Values, replay: &Replay) {
    let layers = by_name(&replay.spans);
    let flushed = replay.ops_flushed.max(1) as f64;
    v.set(
        "serve.coalesce.ns_per_op",
        total_ns(&layers, "coalesce") / replay.ops_in.max(1) as f64,
    );
    v.set(
        "fleet.fleet.route_ns_per_op",
        total_ns(&layers, "split_by_shard") / flushed,
    );
    v.set(
        "fleet.fleet.apply_ns_per_op",
        total_ns(&layers, "apply_shard_batch") / flushed,
    );
    let busiest = replay.shard_busy_ns.iter().copied().max().unwrap_or(0) as f64;
    let mean = replay.shard_busy_ns.iter().sum::<u64>() as f64 / replay.shard_busy_ns.len() as f64;
    v.set("fleet.fleet.shard_skew", busiest / mean.max(1.0));
    v.set(
        "fleet.fleet.seal_diff_ms_p50",
        p50_ms(&layers, "try_seal_epoch.diff"),
    );
    v.set(
        "fleet.fleet.seal_full_ms_p50",
        p50_ms(&layers, "try_seal_epoch.full"),
    );
    v.set(
        "fleet.fleet.seal_diff_count",
        count(&layers, "try_seal_epoch.diff"),
    );
    v.set(
        "fleet.fleet.seal_full_count",
        count(&layers, "try_seal_epoch.full"),
    );
    v.set(
        "fleet.wal.log_batch_us_p50",
        p50_ms(&layers, "log_batch") * 1e3,
    );
    v.set(
        "fleet.wal.sync_ms_p50",
        p50_ms(&layers, "probe.wal_append_sync"),
    );
    v.set(
        "fleet.checkpoint.write_ms_p50",
        p50_ms(&layers, "probe.checkpoint_write"),
    );
    v.set(
        "fleet.checkpoint.load_ms_p50",
        p50_ms(&layers, "probe.checkpoint_load"),
    );
    v.set("fleet.checkpoint.bytes", replay.checkpoint_bytes as f64);
    let per_read = 1e6 / crate::inputs::READ_BLOCK as f64;
    v.set(
        "fleet.publish.get_ns_per_op",
        p50_ms(&layers, "probe.get_block") * per_read,
    );
    v.set(
        "fleet.snapshot.entropy_ns",
        p50_ms(&layers, "probe.entropy_block") * per_read,
    );
    v.set(
        "fleet.cache.hit_select_ns",
        p50_ms(&layers, "probe.cache_hit_block") * 1e6 / 64.0,
    );
    v.set(
        "core.monitor.report_ns",
        p50_ms(&layers, "probe.report") * 1e6,
    );
    v.set(
        "committee.cold_select_ms",
        p50_ms(&layers, "probe.greedy_diverse"),
    );
    v.set(
        "committee.pruned_select_ms",
        p50_ms(&layers, "probe.select_greedy"),
    );
    v.set(
        "committee.warm_select_ms",
        p50_ms(&layers, "probe.select_greedy_warm"),
    );
    let warm = replay.warm.len().max(1) as f64;
    v.set(
        "committee.warm_fell_back_share",
        replay.warm.iter().filter(|w| w.fell_back).count() as f64 / warm,
    );
    v.set(
        "committee.warm_replayed_mean",
        replay.warm.iter().map(|w| w.replayed as f64).sum::<f64>() / warm,
    );
    v.set("trace.replay_stage_sum_share", replay.stage_sum_share);
}

/// Where a traced run leaves its spans: beside the scratch directory,
/// which is removed when the run ends.
fn keep_spans(result: &mut RunResult, scratch: &Path, args: &Args, spans: &[Span]) {
    let Some(parent) = scratch.parent() else {
        return;
    };
    let path = parent.join(format!("spans-{}.tsv", args.workload.name()));
    match write_spans(&path, spans) {
        Ok(()) => result.note(format!(
            "spans: {} written to {}",
            spans.len(),
            path.display()
        )),
        Err(e) => result
            .errors
            .push(format!("writing {}: {e}", path.display())),
    }
}

/// The ops a single-threaded replay of the whole run applies.
fn all_ops<'a>(
    inputs: &'a Inputs,
    ticks: &'a [Tick],
) -> impl Iterator<Item = &'a [fi_attest::ChurnOp]> {
    std::iter::once(inputs.registration.as_slice()).chain(ticks.iter().flatten().map(Vec::as_slice))
}

/// `steady`, `durable` and `mixed`.
fn run_closed(args: &Args, scratch: &Path, result: &mut RunResult) -> Result<(), String> {
    let library = args.workload == Workload::Mixed;
    let SetUp {
        inputs,
        fleet,
        dir,
        setup_s,
    } = set_up(args, scratch)?;
    let ticks = &inputs.phases[0].ticks;
    let budget = Duration::from_secs(args.seconds) / if args.traced { 2 } else { 1 };
    let mut tracer = Tracer::new(args.traced);
    let server = (!library).then(|| FleetServer::new(Arc::clone(&fleet), ServeConfig::default()));
    let mut out = match &server {
        Some(server) => closed::run_served(server, ticks, budget, args.traced, &mut tracer)?,
        None => closed::run_library(&fleet, ticks, budget, args.traced, &mut tracer)?,
    };
    let served = server.as_ref().map(|s| (s.stats(), s.flush_latencies_us()));
    let cache = fleet.selection_cache().stats();
    let last = fleet.snapshot();
    let sealed = *out.chain.last().ok_or("the driver sealed nothing")?;
    let fed = &ticks[..out.ticks_run];

    result.attempted = out.attempted;
    result.failed = out.failed;
    result.note(format!(
        "measured phase: {:.2} s, {} epochs in {} whole cycles, {} ops offered{}",
        out.wall_s,
        out.chain.len() - 1,
        out.cycles.len(),
        out.ops_offered,
        if out.pool_exhausted {
            ", input pool exhausted"
        } else {
            ""
        }
    ));
    if out.cycles.is_empty() {
        return Err("the measured phase closed no re-anchor cycle".to_string());
    }
    let mut rates: Vec<f64> = out.cycles.iter().map(|c| c.ops as f64 / c.wall_s).collect();
    rates.sort_by(f64::total_cmp);
    result.note(format!(
        "cycle ops/s: min {:.0} p10 {:.0} p25 {:.0} p50 {:.0} p75 {:.0} p90 {:.0} max {:.0}",
        rates[0],
        percentile_sorted(&rates, 10.0),
        percentile_sorted(&rates, 25.0),
        percentile_sorted(&rates, 50.0),
        percentile_sorted(&rates, 75.0),
        percentile_sorted(&rates, 90.0),
        rates[rates.len() - 1]
    ));
    if let Some((stats, _)) = &served {
        result.check(checks::check_accounting(stats));
    }
    result.check(checks::check_pinned(
        args.seed,
        &out.chain,
        checks::pinned_chain(args.workload),
    ));
    result.note(format!(
        "chain: first {} epochs hash to {}",
        checks::PINNED_EPOCHS,
        checks::chain_digest(&out.chain[..checks::PINNED_EPOCHS.min(out.chain.len())])
    ));
    result.check(checks::check_final_state(&last, all_ops(&inputs, fed)));
    let paper = checks::check_entropy(&last);

    // Durable: disk use, the timed reopen, and the power-loss reopen. The
    // fleet must be gone before its directory is opened again.
    let mut durable_facts = None;
    if let Some(dir) = &dir {
        let server = server.ok_or("durable runs through the server")?;
        drop(fleet);
        let partial = ticks.get(out.ticks_run).unwrap_or(&ticks[0]);
        let facts = durable::close_and_recover(dir, server, sealed, partial)?;
        result.note(format!(
            "durable: {} bytes on {}, recovery {:.3} s ({:?}), power loss discarded {} bytes and recovered epoch {}",
            facts.used.total_bytes,
            host::filesystem_of(dir),
            facts.recovery_s,
            facts.report,
            facts.discarded,
            sealed.0
        ));
        durable_facts = Some(facts);
    }

    let measured = Measured {
        turnaround: summarize(&mut out.turnaround_ms, 95.0),
        fresh: summarize(&mut out.fresh_ms, 99.0),
        read_ns: median(&mut out.read_ns),
        ops_per_s: cycle_rate(&out.cycles, false),
        cpu_us_per_op: out.cpu_s * 1e6 / out.ops_offered.max(1) as f64,
    };
    measured.note(result);
    if !args.traced {
        measured.set_end_to_end(&mut result.values, setup_s);
        return paper.map(|_| ());
    }

    // Traced: the stage replay of the ticks the driver consumed.
    let shape = Shape {
        coalesce: !library,
        ticks_per_epoch: if library { 1 } else { TICKS_PER_EPOCH },
    };
    let replay_dir = dir.as_ref().map(|_| scratch.join("replay"));
    let replayed = replay::run(&inputs, fed, shape, replay_dir.as_deref())?;
    result.check(checks::check_same_chain(
        "real driver against stage replay",
        &out.chain,
        &replayed.chain,
    ));
    result.check(replay::check_stage_sum(&replayed));
    result.note(format!(
        "stage replay: {:.2} s wall, stages cover {:.2} % of it, {} epochs",
        replayed.wall_s,
        replayed.stage_sum_share * 100.0,
        replayed.chain.len() - 1
    ));

    let traced_wall_s: f64 = out
        .cycles
        .iter()
        .filter(|c| c.traced)
        .map(|c| c.wall_s)
        .sum();
    let (traced_rate, plain_rate) = (
        cycle_rate(&out.cycles, true),
        cycle_rate(&out.cycles, false),
    );
    let v = &mut result.values;
    measured.set_demoted(v);
    if let Some((stats, flush_us)) = &served {
        set_served(v, stats, flush_us, out.depth_max);
    }
    set_cache(v, cache);
    set_driver_layers(v, tracer.spans(), traced_wall_s);
    set_replay_layers(v, &replayed);
    if plain_rate > 0.0 {
        v.set("trace.overhead_share", 1.0 - traced_rate / plain_rate);
    }
    if let Some(facts) = durable_facts {
        let flushed = served.as_ref().map_or(1, |(s, _)| s.flushed_ops.max(1)) as f64;
        v.set(
            "fleet.wal.bytes_per_op",
            facts.used.wal_bytes as f64 / flushed,
        );
        v.set(
            "fleet.wal.disk_bytes_per_op",
            facts.used.total_bytes as f64 / flushed,
        );
        v.set("fleet.wal.segments", facts.used.segments as f64);
        v.set("fleet.recover.recovery_s", facts.recovery_s);
        v.set(
            "fleet.recover.replayed_ops",
            facts.report.replayed_ops as f64,
        );
        v.set(
            "fleet.recover.replayed_epochs",
            facts.report.replayed_epochs as f64,
        );
        v.set(
            "fleet.recover.verified_seals",
            facts.report.verified_seals as f64,
        );
        v.set("fleet.recover.power_loss_discarded", facts.discarded as f64);
    }
    v.set("simnet.population.gen_s", inputs.gen_s);
    v.set("run.epochs", (out.chain.len() - 1) as f64);
    v.set(
        "run.failed_share",
        out.failed as f64 / out.attempted.max(1) as f64,
    );
    v.set(
        "run.pool_exhausted",
        f64::from(u8::from(out.pool_exhausted)),
    );
    set_paper(v, paper?);
    keep_spans(result, scratch, args, tracer.spans());
    Ok(())
}

/// `paced`.
fn run_paced(args: &Args, scratch: &Path, result: &mut RunResult) -> Result<(), String> {
    let SetUp {
        inputs,
        fleet,
        setup_s,
        ..
    } = set_up(args, scratch)?;
    let server = FleetServer::new(Arc::clone(&fleet), ServeConfig::default());
    let mut tracer = Tracer::new(args.traced);
    let mut submit_tracer = Tracer::new(args.traced);
    let mut out = paced::run(&server, &inputs.phases, &mut tracer, &mut submit_tracer)?;
    let flush_us = server.flush_latencies_us();
    let cache = fleet.selection_cache().stats();
    let last = fleet.snapshot();

    result.attempted = out.steps.iter().map(|s| s.requests).sum();
    result.failed = out.steps.iter().map(|s| s.shed + s.errors).sum();
    for step in &out.steps {
        note_summary(
            result,
            &format!("step {} ops/s fresh", step.rate),
            "ms",
            &step.fresh,
        );
        result.note(format!(
            "step {} ops/s: {} requests, {} shed, depth max {} growth {:.1}, generator late by at most {:.3} ms, sustained {}",
            step.rate,
            step.requests,
            step.shed,
            step.depth_max,
            step.depth_growth,
            step.late_ms_max,
            step.sustained()
        ));
    }
    result.check(checks::check_accounting(&out.stats));
    // The admitted requests, replayed on one thread, give the final state.
    let admitted: Vec<&[fi_attest::ChurnOp]> = inputs
        .phases
        .iter()
        .zip(&out.steps)
        .flat_map(|(phase, step)| phase.ticks.iter().flatten().zip(&step.admitted))
        .filter(|(_, &ok)| ok)
        .map(|(request, _)| request.as_slice())
        .collect();
    result.check(checks::check_final_state(
        &last,
        std::iter::once(inputs.registration.as_slice()).chain(admitted),
    ));
    let paper = checks::check_entropy(&last);

    let headline = &mut out.steps[PACED_HEADLINE_STEP];
    let measured = Measured {
        turnaround: summarize(&mut headline.turnaround_ms, 95.0),
        fresh: headline.fresh,
        read_ns: median(&mut out.read_ns),
        ops_per_s: headline.ops_per_s,
        cpu_us_per_op: headline.cpu_s * 1e6 / headline.admitted_ops.max(1) as f64,
    };
    measured.note(result);
    if !args.traced {
        measured.set_end_to_end(&mut result.values, setup_s);
        return paper.map(|_| ());
    }

    // Traced: the stage replay cuts an epoch every ten ticks of the
    // schedule; the real run cut them by wall clock, so only the final
    // state is comparable, and only when nothing was shed.
    let schedule: Vec<Tick> = inputs.phases.iter().flat_map(|p| p.ticks.clone()).collect();
    let shape = Shape {
        coalesce: true,
        ticks_per_epoch: TICKS_PER_EPOCH,
    };
    let replayed = replay::run(&inputs, &schedule, shape, None)?;
    result.check(replay::check_stage_sum(&replayed));
    if result.failed == 0 && replayed.last.content_hash() != last.content_hash() {
        result
            .errors
            .push("the stage replay of the schedule ends in another state".to_string());
    }
    let mut spans = tracer.spans().to_vec();
    spans.extend_from_slice(submit_tracer.spans());
    let wall_s = tracer.spans().last().map_or(0.0, |s| s.end_ns as f64 / 1e9);
    let sustainable = out
        .steps
        .iter()
        .filter(|s| s.sustained())
        .map(|s| s.rate)
        .max()
        .unwrap_or(0);
    let v = &mut result.values;
    let depth_max = out.steps.iter().map(|s| s.depth_max).max().unwrap_or(0);
    measured.set_demoted(v);
    set_served(v, &out.stats, &flush_us, depth_max);
    set_cache(v, cache);
    set_driver_layers(v, &spans, wall_s);
    set_replay_layers(v, &replayed);
    v.set("paced.sustainable_ops_per_s", sustainable as f64);
    for (step, name) in out.steps.iter().zip([
        "paced.fresh_tail_ms_at_50k",
        "paced.fresh_tail_ms_at_100k",
        "paced.fresh_tail_ms_at_200k",
    ]) {
        v.set(name, step.fresh.tail);
    }
    v.set(
        "paced.shed_share",
        out.steps.iter().map(|s| s.shed).sum::<u64>() as f64 / result.attempted.max(1) as f64,
    );
    let late = out.steps.iter().map(|s| s.late_ms_max).fold(0.0, f64::max);
    v.set("simnet.population.gen_late_ms_max", late);
    v.set("simnet.population.gen_s", inputs.gen_s);
    v.set("run.epochs", (out.chain.len() - 1) as f64);
    v.set(
        "run.failed_share",
        result.failed as f64 / result.attempted.max(1) as f64,
    );
    set_paper(v, paper?);
    keep_spans(result, scratch, args, &spans);
    Ok(())
}
