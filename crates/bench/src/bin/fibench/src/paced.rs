//! The open-loop driver: a submitter thread sends requests on a
//! wall-clock schedule while the driver thread pumps every millisecond
//! and ticks every ten.
//!
//! Arrival does not slow when a seal stalls, so admission, shedding and
//! the re-anchor stall show up as latency. Every request is timed from
//! the moment it was *due*, not from when the submitter got round to it,
//! and how late the submitter ran is reported.
#![forbid(unsafe_code)]

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use fi_serve::{FleetServer, ServeStats};

use crate::common::{ms_between, Chain, Observer};
use crate::inputs::{Phase, Tick, PACED_TICKS_PER_SECOND, TICKS_PER_EPOCH};
use crate::span::Tracer;
use crate::stats::{summarize, Summary};

const TICK: Duration = Duration::from_micros(1_000_000 / PACED_TICKS_PER_SECOND);
const PUMP_EVERY: Duration = Duration::from_millis(1);

/// Latency limit on the tail of `fresh` for a rate to count as sustained.
pub const FRESH_LIMIT_MS: f64 = 1_000.0;
/// Share of requests a sustained rate may shed.
pub const SHED_LIMIT: f64 = 0.01;
/// Requests by which the ingress depth of a step's last third may exceed
/// its first third before the backlog counts as growing.
pub const DEPTH_GROWTH_LIMIT: f64 = 400.0;

/// One request as the submitter saw it, nanoseconds since the step began.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sent {
    pub due_ns: u64,
    pub returned_ns: u64,
    pub admitted: bool,
}

/// One seal as the driver saw it, nanoseconds since the step began.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Seal {
    /// When the sealing `tick` was called: everything admitted before
    /// this moment is inside the epoch.
    pub started_ns: u64,
    /// When the epoch's committee was in hand.
    pub in_hand_ns: u64,
}

/// When request `index` of `count` in tick `tick` is due: requests are
/// spread evenly over their tick.
pub fn due_ns(tick: usize, index: usize, count: usize) -> u64 {
    let tick_ns = TICK.as_nanos() as u64;
    tick as u64 * tick_ns + index as u64 * tick_ns / count.max(1) as u64
}

/// Request-due to committee-in-hand, milliseconds, for every request: a
/// request belongs to the first seal that *started* after its submit
/// returned. A shed request, or one no seal covered, never became fresh
/// inside the step and is charged the whole step.
pub fn fresh_ms(sent: &[Sent], seals: &[Seal], step_ns: u64) -> Vec<f64> {
    sent.iter()
        .map(|s| {
            let seal = seals.partition_point(|seal| seal.started_ns <= s.returned_ns);
            let fresh_ns = match seals.get(seal) {
                Some(seal) if s.admitted => seal.in_hand_ns.saturating_sub(s.due_ns),
                _ => step_ns.saturating_sub(s.due_ns),
            };
            fresh_ns as f64 / 1e6
        })
        .collect()
}

/// What one rate step measured.
#[derive(Debug)]
pub struct Step {
    pub rate: u64,
    pub requests: u64,
    pub shed: u64,
    pub errors: u64,
    pub fresh: Summary,
    pub turnaround_ms: Vec<f64>,
    /// Admitted ops over the time to the last seal's committee.
    pub ops_per_s: f64,
    /// CPU seconds the process spent on the step.
    pub cpu_s: f64,
    pub admitted_ops: u64,
    pub depth_max: usize,
    pub depth_growth: f64,
    pub late_ms_max: f64,
    /// Admitted requests in submit order, for the final-state replay.
    pub admitted: Vec<bool>,
}

impl Step {
    pub fn shed_share(&self) -> f64 {
        self.shed as f64 / self.requests.max(1) as f64
    }

    /// The rate met the latency limit without shedding or a growing queue.
    pub fn sustained(&self) -> bool {
        self.fresh.tail <= FRESH_LIMIT_MS
            && self.shed_share() <= SHED_LIMIT
            && self.depth_growth <= DEPTH_GROWTH_LIMIT
    }
}

/// What the whole workload measured.
#[derive(Debug)]
pub struct Outcome {
    pub steps: Vec<Step>,
    pub chain: Chain,
    pub read_ns: Vec<f64>,
    pub stats: ServeStats,
}

fn submitter(
    server: &FleetServer,
    ticks: &[Tick],
    origin: Instant,
    tracer: &mut Tracer,
) -> Vec<Sent> {
    let mut sent = Vec::with_capacity(ticks.iter().map(Vec::len).sum());
    for (t, tick) in ticks.iter().enumerate() {
        for (i, request) in tick.iter().enumerate() {
            let due_ns = due_ns(t, i, tick.len());
            let due = origin + Duration::from_nanos(due_ns);
            let owned = request.clone();
            // Sleeping, never spinning: on two cores a spinning submitter
            // takes half the machine from the system it is loading. The
            // overshoot of the sleep is part of the reported lateness.
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let open = tracer.enter("submit", 0);
            let admitted = server.submit(owned).is_ok();
            tracer.exit(open);
            sent.push(Sent {
                due_ns,
                returned_ns: origin.elapsed().as_nanos() as u64,
                admitted,
            });
        }
    }
    sent
}

struct Driven {
    seals: Vec<Seal>,
    turnaround_ms: Vec<f64>,
    depths: Vec<usize>,
    errors: u64,
}

/// Pumps every millisecond and ticks every ten (catching up after a
/// stall) until the schedule's ticks are done and the submitter has
/// finished, then drains and ticks one more epoch for the stragglers.
fn driver(
    server: &FleetServer,
    observer: &mut Observer<'_>,
    ticks: usize,
    origin: Instant,
    submitter_done: &AtomicBool,
    tracer: &mut Tracer,
) -> Result<Driven, String> {
    let mut out = Driven {
        seals: Vec::new(),
        turnaround_ms: Vec::new(),
        depths: Vec::new(),
        errors: 0,
    };
    let mut ticked = 0usize;
    let tick_once = |out: &mut Driven, observer: &mut Observer<'_>, tracer: &mut Tracer| {
        let seals = (server.current_tick() + 1).is_multiple_of(TICKS_PER_EPOCH as u64);
        let started = Instant::now();
        let open = tracer.enter(
            if seals { "tick.seal" } else { "tick" },
            observer.building(),
        );
        let result = server.tick();
        tracer.exit(open);
        match result {
            Ok(Some(snapshot)) => {
                let in_hand = observer.committee_in_hand(snapshot.epoch(), tracer)?;
                out.seals.push(Seal {
                    started_ns: started.saturating_duration_since(origin).as_nanos() as u64,
                    in_hand_ns: in_hand.saturating_duration_since(origin).as_nanos() as u64,
                });
                out.turnaround_ms.push(ms_between(started, in_hand));
                observer.read_block(tracer);
            }
            Ok(None) => {}
            Err(_) => out.errors += 1,
        }
        Ok::<(), String>(())
    };
    loop {
        let woke = Instant::now();
        out.depths.push(server.queue_depth());
        let open = tracer.enter("pump", observer.building());
        let pumped = server.pump();
        tracer.exit(open);
        out.errors += u64::from(pumped.is_err());
        while ticked < ticks && Instant::now() >= origin + TICK * (ticked as u32 + 1) {
            tick_once(&mut out, observer, tracer)?;
            ticked += 1;
        }
        // Acquire pairs with the submitter's Release store: its last
        // submit is visible before the final drain below.
        if ticked == ticks && submitter_done.load(Ordering::Acquire) {
            break;
        }
        if let Some(rest) = PUMP_EVERY.checked_sub(woke.elapsed()) {
            std::thread::sleep(rest);
        }
    }
    let open = tracer.enter("drain", observer.building());
    let drained = server.drain();
    tracer.exit(open);
    out.errors += u64::from(drained.is_err());
    for _ in 0..TICKS_PER_EPOCH {
        tick_once(&mut out, observer, tracer)?;
    }
    Ok(out)
}

/// Mean depth of the last third of `depths` minus that of the first.
fn depth_growth(depths: &[usize]) -> f64 {
    let third = depths.len() / 3;
    if third == 0 {
        return 0.0;
    }
    let mean = |s: &[usize]| s.iter().sum::<usize>() as f64 / s.len() as f64;
    mean(&depths[depths.len() - third..]) - mean(&depths[..third])
}

/// Runs every rate step of `phases` against `server`. The submitter's
/// spans are appended to `submit_tracer`, the driver's to `tracer`.
pub fn run(
    server: &FleetServer,
    phases: &[Phase],
    tracer: &mut Tracer,
    submit_tracer: &mut Tracer,
) -> Result<Outcome, String> {
    let fleet = server.fleet().as_ref();
    let mut observer = Observer::new(fleet);
    let mut steps = Vec::new();
    for phase in phases {
        let rate = phase.rate.ok_or("paced phases carry a rate")?;
        let ticks = &phase.ticks;
        let submitter_done = AtomicBool::new(false);
        let cpu_at_start = crate::host::cpu_seconds();
        let origin = Instant::now() + Duration::from_millis(5);
        let (sent, driven) = std::thread::scope(|scope| {
            let handle = scope.spawn(|| {
                let sent = submitter(server, ticks, origin, submit_tracer);
                submitter_done.store(true, Ordering::Release);
                sent
            });
            let driven = driver(
                server,
                &mut observer,
                ticks.len(),
                origin,
                &submitter_done,
                tracer,
            );
            // If the driver failed early the submitter still runs its
            // schedule out; its result is only needed on success.
            let sent = handle
                .join()
                .map_err(|_| "the submitter thread panicked".to_string());
            (sent, driven)
        });
        let (sent, driven) = (sent?, driven?);
        let step_ns = driven.seals.last().map_or(0, |s| s.in_hand_ns);
        let mut fresh = fresh_ms(&sent, &driven.seals, step_ns);
        let admitted: Vec<bool> = sent.iter().map(|s| s.admitted).collect();
        let admitted_ops: u64 = ticks
            .iter()
            .flatten()
            .zip(&admitted)
            .filter(|(_, &ok)| ok)
            .map(|(r, _)| r.len() as u64)
            .sum();
        let late_ns = sent
            .iter()
            .map(|s| s.returned_ns.saturating_sub(s.due_ns))
            .max()
            .unwrap_or(0);
        steps.push(Step {
            rate,
            requests: sent.len() as u64,
            shed: admitted.iter().filter(|&&ok| !ok).count() as u64,
            errors: driven.errors,
            fresh: summarize(&mut fresh, 99.0),
            turnaround_ms: driven.turnaround_ms,
            ops_per_s: admitted_ops as f64 / (step_ns.max(1) as f64 / 1e9),
            cpu_s: crate::host::cpu_seconds() - cpu_at_start,
            admitted_ops,
            depth_max: driven.depths.iter().copied().max().unwrap_or(0),
            depth_growth: depth_growth(&driven.depths),
            late_ms_max: late_ns as f64 / 1e6,
            admitted,
        });
    }
    Ok(Outcome {
        steps,
        chain: observer.chain,
        read_ns: observer.read_ns,
        stats: server.stats(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sent(due_ns: u64, returned_ns: u64, admitted: bool) -> Sent {
        Sent {
            due_ns,
            returned_ns,
            admitted,
        }
    }

    #[test]
    fn requests_are_spread_evenly_over_their_tick() {
        assert_eq!(due_ns(0, 0, 4), 0);
        assert_eq!(due_ns(0, 3, 4), 7_500_000);
        assert_eq!(due_ns(2, 1, 4), 22_500_000);
    }

    #[test]
    fn a_late_generator_is_charged_from_the_due_time() {
        let seals = [
            Seal {
                started_ns: 100_000_000,
                in_hand_ns: 130_000_000,
            },
            Seal {
                started_ns: 200_000_000,
                in_hand_ns: 260_000_000,
            },
        ];
        let sent = [
            // On time: inside the first seal, 130 - 10 = 120 ms.
            sent(10_000_000, 10_100_000, true),
            // Due before the first seal started but submitted 50 ms late,
            // after it: it rides the second seal and is still timed from
            // when it was due, 260 - 90 = 170 ms (not 260 - 140).
            sent(90_000_000, 140_000_000, true),
            // Returned exactly when a seal started: not inside it.
            sent(95_000_000, 100_000_000, true),
        ];
        assert_eq!(
            fresh_ms(&sent, &seals, 300_000_000),
            vec![120.0, 170.0, 165.0]
        );
    }

    #[test]
    fn shed_and_uncovered_requests_are_charged_the_whole_step() {
        let seals = [Seal {
            started_ns: 100_000_000,
            in_hand_ns: 130_000_000,
        }];
        let sent = [
            sent(10_000_000, 10_100_000, false),
            sent(150_000_000, 150_100_000, true),
        ];
        assert_eq!(fresh_ms(&sent, &seals, 400_000_000), vec![390.0, 250.0]);
    }

    #[test]
    fn depth_growth_compares_the_last_third_with_the_first() {
        assert_eq!(depth_growth(&[0, 0, 5, 5, 10, 10]), 10.0);
        assert_eq!(depth_growth(&[4, 4, 4]), 0.0);
        assert_eq!(depth_growth(&[1]), 0.0);
    }
}
