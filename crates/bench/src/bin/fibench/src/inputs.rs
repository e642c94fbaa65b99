//! The four workloads' fixed sizes and their seeded inputs.
//!
//! Everything a workload feeds the system is generated here, during
//! set-up, from `fi_simnet::ClientPopulation` and the `--seed` argument:
//! the timed phase receives only these generated requests.
#![forbid(unsafe_code)]

use std::time::Instant;

use fi_attest::ChurnOp;
use fi_simnet::{ClientPopulation, PopulationConfig};

/// Seed used when `--seed` is not given; the pinned chains are for it.
pub const DEFAULT_SEED: u64 = 0xF1EE7;
/// Fleet shard count of every workload.
pub const SHARDS: usize = 4;
/// Every eighth epoch seals with a full rebuild.
pub const REANCHOR_INTERVAL: u64 = 8;
/// Committee size selected after every seal.
pub const COMMITTEE_K: usize = 64;
/// Snapshot reads timed as one block.
pub const READ_BLOCK: usize = 576;
/// Server ticks per epoch (`ServeConfig::default().epoch_ticks`).
pub const TICKS_PER_EPOCH: usize = 10;
/// Registration is ingested in batches of this many ops.
pub const REGISTRATION_BATCH: usize = 8192;

/// One client request: a batch of churn ops.
pub type Request = Vec<ChurnOp>;
/// The requests of one server tick (served workloads) or of one epoch
/// (`mixed`), in submission order.
pub type Tick = Vec<Request>;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Steady,
    Durable,
    Mixed,
    Paced,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Steady,
        Workload::Durable,
        Workload::Mixed,
        Workload::Paced,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Steady => "steady",
            Workload::Durable => "durable",
            Workload::Mixed => "mixed",
            Workload::Paced => "paced",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn sizes(self) -> Sizes {
        match self {
            // 10 ticks of 1000 Zipf ops per epoch: 4 % of the fleet offered,
            // part of it absorbed by the coalescer.
            Workload::Steady | Workload::Durable => Sizes {
                devices: 250_000,
                ops_per_tick: 1_000,
                ops_per_request: 32,
                zipf_s: 1.1,
                ticks_per_second: 400,
            },
            // One "tick" is one epoch: 256 uniform 64-op batches, 8 % churn.
            Workload::Mixed => Sizes {
                devices: 200_000,
                ops_per_tick: 256 * 64,
                ops_per_request: 64,
                zipf_s: 0.0,
                ticks_per_second: 16,
            },
            // `ops_per_tick` is set per rate step; a tick is 10 ms.
            Workload::Paced => Sizes {
                devices: 250_000,
                ops_per_tick: 0,
                ops_per_request: 32,
                zipf_s: 1.1,
                ticks_per_second: PACED_TICKS_PER_SECOND,
            },
        }
    }
}

/// Sizes that define a workload; frozen with the baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sizes {
    pub devices: u64,
    pub ops_per_tick: u64,
    pub ops_per_request: usize,
    pub zipf_s: f64,
    /// Ticks generated per second of `--seconds`. For the closed loops
    /// this is the size of the input pool, about twice what this host
    /// consumes; a run that empties the pool ends early and says so.
    pub ticks_per_second: u64,
}

/// `paced` ticks every 10 ms of wall clock.
pub const PACED_TICKS_PER_SECOND: u64 = 100;
/// Offered rates of `paced`'s three steps, ops per second.
pub const PACED_RATES: [u64; 3] = [50_000, 100_000, 200_000];
/// The step whose latencies are the end-to-end metrics.
pub const PACED_HEADLINE_STEP: usize = 1;
/// Share of `--seconds` each step runs for, in twentieths.
pub const PACED_STEP_TWENTIETHS: [u64; 3] = [3, 14, 3];

/// One stretch of traffic at one offered rate.
#[derive(Debug, Clone)]
pub struct Phase {
    /// Offered ops per second; `None` for closed loops.
    pub rate: Option<u64>,
    pub ticks: Vec<Tick>,
}

/// Everything generated for one run.
#[derive(Debug, Clone)]
pub struct Inputs {
    pub workload: Workload,
    /// Every device registers once, in id order.
    pub registration: Vec<ChurnOp>,
    pub phases: Vec<Phase>,
    /// Wall time generation took; part of `setup_s` only.
    pub gen_s: f64,
}

fn population(sizes: Sizes, ops_per_tick: u64, seed: u64) -> PopulationConfig {
    PopulationConfig::new(sizes.devices, ops_per_tick)
        .with_zipf(sizes.zipf_s)
        .with_diurnal(0.0, 0)
        .with_ops_per_request(sizes.ops_per_request)
        .with_seed(seed)
}

/// Generates the inputs of `workload` for a measured phase of `seconds`.
/// The same seed gives the same inputs; the tick streams of runs with
/// different `seconds` share their common prefix.
pub fn generate(workload: Workload, seed: u64, seconds: u64) -> Inputs {
    let started = Instant::now();
    let sizes = workload.sizes();
    let (registration, phases) = match workload {
        Workload::Steady | Workload::Durable | Workload::Mixed => {
            let mut pop = ClientPopulation::new(population(sizes, sizes.ops_per_tick, seed));
            let registration = pop.registration_wave().concat();
            let ticks = (0..seconds * sizes.ticks_per_second)
                .map(|_| pop.next_tick().requests)
                .collect();
            (registration, vec![Phase { rate: None, ticks }])
        }
        Workload::Paced => {
            let mut registration = Vec::new();
            let mut phases = Vec::new();
            for (step, (&rate, &share)) in
                PACED_RATES.iter().zip(&PACED_STEP_TWENTIETHS).enumerate()
            {
                let config = population(sizes, rate / PACED_TICKS_PER_SECOND, seed + step as u64)
                    .with_diurnal(0.3, 100);
                let mut pop = ClientPopulation::new(config);
                if step == 0 {
                    registration = pop.registration_wave().concat();
                }
                // Whole epochs only, so a step ends on a seal.
                let epochs = (seconds * share * PACED_TICKS_PER_SECOND / 20)
                    .div_ceil(TICKS_PER_EPOCH as u64)
                    .max(1);
                let ticks = (0..epochs * TICKS_PER_EPOCH as u64)
                    .map(|_| pop.next_tick().requests)
                    .collect();
                phases.push(Phase {
                    rate: Some(rate),
                    ticks,
                });
            }
            (registration, phases)
        }
    };
    Inputs {
        workload,
        registration,
        phases,
        gen_s: started.elapsed().as_secs_f64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_inputs_and_another_seed_does_not() {
        let a = generate(Workload::Mixed, 7, 1);
        let b = generate(Workload::Mixed, 7, 1);
        let c = generate(Workload::Mixed, 8, 1);
        assert_eq!(a.registration, b.registration);
        assert_eq!(a.phases[0].ticks, b.phases[0].ticks);
        assert_ne!(a.phases[0].ticks, c.phases[0].ticks);
        assert_eq!(a.registration.len() as u64, Workload::Mixed.sizes().devices);
        assert_eq!(a.phases[0].ticks[0].len(), 256);
        assert!(a.phases[0].ticks[0].iter().all(|r| r.len() == 64));
    }

    #[test]
    fn a_longer_run_extends_the_shorter_runs_ticks() {
        let short = generate(Workload::Mixed, 7, 1);
        let long = generate(Workload::Mixed, 7, 2);
        let n = short.phases[0].ticks.len();
        assert_eq!(long.phases[0].ticks.len(), 2 * n);
        assert_eq!(long.phases[0].ticks[..n], short.phases[0].ticks[..]);
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
