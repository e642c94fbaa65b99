//! The closed-loop drivers: `steady` and `durable` go through
//! `FleetServer` in lockstep, `mixed` calls the fleet as a library.
//!
//! Both stop on a re-anchor cycle boundary once the time budget is
//! spent, so every run holds whole cycles of seven differential seals and
//! one full one, and throughput is the median over those cycles.
#![forbid(unsafe_code)]

use std::time::{Duration, Instant};

use fi_fleet::ShardedFleet;
use fi_serve::FleetServer;

use crate::common::{ms_between, Chain, Observer};
use crate::inputs::{Tick, REANCHOR_INTERVAL, TICKS_PER_EPOCH};
use crate::span::Tracer;

/// One re-anchor cycle of the timed phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cycle {
    pub ops: u64,
    pub wall_s: f64,
    /// Whether spans were recorded during it.
    pub traced: bool,
}

/// What a closed-loop driver measured.
#[derive(Debug, Default)]
pub struct Outcome {
    pub chain: Chain,
    /// Ticks consumed; the inputs a replay must feed.
    pub ticks_run: usize,
    pub cycles: Vec<Cycle>,
    pub turnaround_ms: Vec<f64>,
    pub fresh_ms: Vec<f64>,
    pub read_ns: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub ops_offered: u64,
    pub depth_max: usize,
    pub wall_s: f64,
    /// CPU seconds the process spent in the measured phase.
    pub cpu_s: f64,
    /// The input pool ran dry before the time budget did.
    pub pool_exhausted: bool,
}

/// Tracks cycle boundaries and the stop condition for both drivers.
struct Cycles {
    started: Instant,
    cpu_at_start: f64,
    budget: Duration,
    alternate_tracing: bool,
    cycle_started: Instant,
    cycle_ops: u64,
    epochs_in_cycle: u64,
    done: Vec<Cycle>,
}

impl Cycles {
    fn new(budget: Duration, alternate_tracing: bool) -> Self {
        let now = Instant::now();
        Cycles {
            started: now,
            cpu_at_start: crate::host::cpu_seconds(),
            budget,
            alternate_tracing,
            cycle_started: now,
            cycle_ops: 0,
            epochs_in_cycle: 0,
            done: Vec::new(),
        }
    }

    /// Accounts one sealed epoch of `ops`; returns `true` when the run
    /// should stop (a cycle just closed and the budget is spent).
    fn epoch_sealed(&mut self, ops: u64, tracer: &mut Tracer) -> bool {
        self.cycle_ops += ops;
        self.epochs_in_cycle += 1;
        if self.epochs_in_cycle < REANCHOR_INTERVAL {
            return false;
        }
        let now = Instant::now();
        self.done.push(Cycle {
            ops: self.cycle_ops,
            wall_s: now.duration_since(self.cycle_started).as_secs_f64(),
            traced: tracer.enabled,
        });
        self.cycle_started = now;
        self.cycle_ops = 0;
        self.epochs_in_cycle = 0;
        if self.alternate_tracing {
            tracer.enabled = !tracer.enabled;
        }
        self.started.elapsed() >= self.budget
    }
}

/// Drives `ticks` through `server` in lockstep — submit a tick's
/// requests, pump, tick — and after every sealed tick fetches the epoch
/// through a reader handle and selects its committee.
pub fn run_served(
    server: &FleetServer,
    ticks: &[Tick],
    budget: Duration,
    alternate_tracing: bool,
    tracer: &mut Tracer,
) -> Result<Outcome, String> {
    let fleet = server.fleet().as_ref();
    let mut observer = Observer::new(fleet);
    let mut out = Outcome::default();
    // Whole epochs only: the run must end on a seal.
    let ticks = &ticks[..ticks.len() - ticks.len() % TICKS_PER_EPOCH];
    let mut cycles = Cycles::new(budget, alternate_tracing);
    let mut submitted_at: Vec<Instant> = Vec::new();
    let mut epoch_ops = 0u64;
    out.pool_exhausted = true;
    for tick in ticks {
        let building = observer.building();
        for request in tick {
            let owned = request.clone();
            let open = tracer.enter("submit", building);
            let at = Instant::now();
            let admitted = server.submit(owned);
            tracer.exit(open);
            out.attempted += 1;
            match admitted {
                Ok(()) => {
                    submitted_at.push(at);
                    epoch_ops += request.len() as u64;
                }
                Err(_) => out.failed += 1,
            }
        }
        let last_submit_returned = Instant::now();
        out.depth_max = out.depth_max.max(server.queue_depth());
        let open = tracer.enter("pump", building);
        let pumped = server.pump();
        tracer.exit(open);
        out.failed += u64::from(pumped.is_err());
        out.ticks_run += 1;
        let seals = out.ticks_run % TICKS_PER_EPOCH == 0;
        let open = tracer.enter(if seals { "tick.seal" } else { "tick" }, building);
        let ticked = server.tick();
        tracer.exit(open);
        let sealed = match ticked {
            Ok(Some(snapshot)) => snapshot.epoch(),
            Ok(None) => continue,
            Err(e) => return Err(format!("tick-driven seal of epoch {building}: {e}")),
        };
        let in_hand = observer.committee_in_hand(sealed, tracer)?;
        out.turnaround_ms
            .push(ms_between(last_submit_returned, in_hand));
        out.fresh_ms
            .extend(submitted_at.drain(..).map(|at| ms_between(at, in_hand)));
        observer.read_block(tracer);
        out.ops_offered += epoch_ops;
        let stop = cycles.epoch_sealed(epoch_ops, tracer);
        epoch_ops = 0;
        if stop {
            out.pool_exhausted = false;
            break;
        }
    }
    // The closing drain is always traced on a traced run, whichever
    // state the last cycle left the switch in.
    tracer.enabled = alternate_tracing;
    let open = tracer.enter("drain", observer.building());
    let drained = server.drain();
    tracer.exit(open);
    out.failed += u64::from(drained.is_err());
    out.wall_s = cycles.started.elapsed().as_secs_f64();
    out.cpu_s = crate::host::cpu_seconds() - cycles.cpu_at_start;
    out.cycles = cycles.done;
    out.chain = observer.chain;
    out.read_ns = observer.read_ns;
    Ok(out)
}

/// Drives `epochs` into `fleet` as a library caller on one thread: per
/// batch one `try_ingest_batch` and one block of snapshot reads, then
/// `try_seal_epoch` and the committee.
pub fn run_library(
    fleet: &ShardedFleet,
    epochs: &[Tick],
    budget: Duration,
    alternate_tracing: bool,
    tracer: &mut Tracer,
) -> Result<Outcome, String> {
    let mut observer = Observer::new(fleet);
    let mut out = Outcome::default();
    let mut cycles = Cycles::new(budget, alternate_tracing);
    let mut ingested_at: Vec<Instant> = Vec::new();
    out.pool_exhausted = true;
    for batches in epochs {
        let building = observer.building();
        let mut epoch_ops = 0u64;
        let mut last_ingest_returned = Instant::now();
        for batch in batches {
            let open = tracer.enter("try_ingest_batch", building);
            let at = Instant::now();
            let ingested = fleet.try_ingest_batch(batch);
            tracer.exit(open);
            last_ingest_returned = Instant::now();
            out.attempted += 1;
            match ingested {
                Ok(()) => {
                    ingested_at.push(at);
                    epoch_ops += batch.len() as u64;
                }
                Err(_) => out.failed += 1,
            }
            observer.read_block(tracer);
        }
        let open = tracer.enter("try_seal_epoch", building);
        let sealed = fleet.try_seal_epoch();
        tracer.exit(open);
        out.ticks_run += 1;
        let sealed = sealed.map_err(|e| format!("sealing epoch {building}: {e}"))?;
        let in_hand = observer.committee_in_hand(sealed.epoch(), tracer)?;
        out.turnaround_ms
            .push(ms_between(last_ingest_returned, in_hand));
        out.fresh_ms
            .extend(ingested_at.drain(..).map(|at| ms_between(at, in_hand)));
        out.ops_offered += epoch_ops;
        if cycles.epoch_sealed(epoch_ops, tracer) {
            out.pool_exhausted = false;
            break;
        }
    }
    out.wall_s = cycles.started.elapsed().as_secs_f64();
    out.cpu_s = crate::host::cpu_seconds() - cycles.cpu_at_start;
    out.cycles = cycles.done;
    out.chain = observer.chain;
    out.read_ns = observer.read_ns;
    Ok(out)
}

/// Median over whole cycles of ops per second, for the cycles whose
/// tracing state is `traced`.
pub fn cycle_rate(cycles: &[Cycle], traced: bool) -> f64 {
    let mut rates: Vec<f64> = cycles
        .iter()
        .filter(|c| c.traced == traced && c.wall_s > 0.0)
        .map(|c| c.ops as f64 / c.wall_s)
        .collect();
    crate::stats::median(&mut rates)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_rate_is_the_median_of_the_matching_cycles() {
        let cycle = |ops, wall_s, traced| Cycle {
            ops,
            wall_s,
            traced,
        };
        let cycles = [
            cycle(100, 1.0, false),
            cycle(100, 0.5, true),
            cycle(300, 1.0, false),
            cycle(900, 1.0, false),
        ];
        assert_eq!(cycle_rate(&cycles, false), 300.0);
        assert_eq!(cycle_rate(&cycles, true), 200.0);
        assert_eq!(cycle_rate(&[], true), 0.0);
    }

    #[test]
    fn a_cycle_closes_every_eighth_epoch_and_toggles_tracing() {
        let mut tracer = Tracer::new(true);
        let mut cycles = Cycles::new(Duration::ZERO, true);
        for epoch in 1..=8 {
            let stop = cycles.epoch_sealed(10, &mut tracer);
            assert_eq!(
                stop,
                epoch == 8,
                "the spent budget stops only on a boundary"
            );
        }
        assert_eq!(cycles.done.len(), 1);
        assert_eq!((cycles.done[0].ops, cycles.done[0].traced), (80, true));
        assert!(!tracer.enabled);
    }
}
