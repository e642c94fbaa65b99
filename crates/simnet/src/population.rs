//! A deterministic synthetic client population: the fleet-scale traffic
//! model that drives the serving layer.
//!
//! Real attestation fleets are not uniform — a small set of busy devices
//! (flaky hardware, CI farms, devices behind aggressive power management)
//! produces most of the churn, and load swings with the day. This module
//! models both with a **seeded, sequential** generator so a scenario like
//! "2 million devices, Zipf churn, epoch every 10 s" is a pure function of
//! its [`PopulationConfig`]: every run of the same config emits the
//! byte-identical request stream, which is what lets the serving layer's
//! end-state hash be compared across runs, thread schedules, and shard
//! counts.
//!
//! * **Zipf device skew** — churn picks devices by rank-`s` Zipf: device
//!   rank `r` is drawn with probability ∝ `1/r^s`. The sampler walks a
//!   precomputed cumulative table with a binary search, so a draw is
//!   O(log n) with no floating-point accumulation order dependence.
//! * **Diurnal load curve** — the per-tick op budget is the configured
//!   mean modulated by a sinusoid: `mean · (1 + A·sin(2π·t/period))`,
//!   rounded to an integer op count. Amplitude `A = 0` (or period `0`)
//!   gives flat load.
//! * **Op mix** — per-mille thresholds split churn into re-attestations,
//!   attestation failures ([`ChurnOp::Unattested`]) and departures
//!   ([`ChurnOp::Deregister`]); deregistering an absent device is
//!   idempotent in the registry, so the mix needs no per-device state.
//!
//! The generator is a *stream*: call [`ClientPopulation::registration_wave`]
//! once, then [`ClientPopulation::next_tick`] in tick order. Determinism is
//! per call sequence — two populations with the same config that make the
//! same calls in the same order see identical traffic.

use fi_attest::ChurnOp;
use fi_types::{sha256, Digest, ReplicaId, VotingPower};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Shape of a synthetic fleet's traffic. See the module docs for the
/// model; construct with [`PopulationConfig::new`] and refine with the
/// builder methods.
#[derive(Debug, Clone, PartialEq)]
pub struct PopulationConfig {
    /// Fleet size: device ids `0..devices`.
    pub devices: u64,
    /// Distinct firmware/config measurements across the fleet (devices
    /// attest to `measurement(id % measurements)`-style small pools, as
    /// real fleets run few firmware versions).
    pub measurements: usize,
    /// Zipf exponent `s` for device selection; `0.0` = uniform.
    pub zipf_s: f64,
    /// Mean churn ops per tick (the flat-load baseline).
    pub mean_ops_per_tick: u64,
    /// Diurnal amplitude `A` in `[0, 1]`: peak load is `(1+A)·mean`,
    /// trough `(1-A)·mean`.
    pub diurnal_amplitude: f64,
    /// Ticks per diurnal cycle; `0` disables the curve.
    pub diurnal_period: u64,
    /// Ops per submitted request (client-side batch size).
    pub ops_per_request: usize,
    /// Per-mille of churn ops that are [`ChurnOp::Unattested`] reports.
    pub unattested_permille: u32,
    /// Per-mille of churn ops that are [`ChurnOp::Deregister`]s; the
    /// remainder (to 1000) are re-attestations.
    pub deregister_permille: u32,
    /// Upper bound (exclusive) for per-device voting power draws.
    pub max_power: u64,
    /// RNG seed; the entire stream is a pure function of this config.
    pub seed: u64,
}

impl PopulationConfig {
    /// A population of `devices` devices emitting `mean_ops_per_tick`
    /// churn ops per tick, with the default skew (Zipf `s = 1.1`), a
    /// ±30 % diurnal curve over 100 ticks, 32-op requests, and a
    /// 10 % / 20 % unattested/deregister mix.
    #[must_use]
    pub fn new(devices: u64, mean_ops_per_tick: u64) -> Self {
        PopulationConfig {
            devices,
            measurements: 12,
            zipf_s: 1.1,
            mean_ops_per_tick,
            diurnal_amplitude: 0.3,
            diurnal_period: 100,
            ops_per_request: 32,
            unattested_permille: 100,
            deregister_permille: 200,
            max_power: 1_000,
            seed: 0xF1EE7,
        }
    }

    /// Sets the Zipf exponent.
    #[must_use]
    pub fn with_zipf(mut self, s: f64) -> Self {
        self.zipf_s = s;
        self
    }

    /// Sets the diurnal curve (`amplitude` in `[0,1]`, `period` in ticks).
    #[must_use]
    pub fn with_diurnal(mut self, amplitude: f64, period: u64) -> Self {
        self.diurnal_amplitude = amplitude;
        self.diurnal_period = period;
        self
    }

    /// Sets the client-side request batch size.
    #[must_use]
    pub fn with_ops_per_request(mut self, ops: usize) -> Self {
        self.ops_per_request = ops.max(1);
        self
    }

    /// Sets the RNG seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// One tick's generated traffic: the requests clients submitted, in
/// submission order.
#[derive(Debug, Clone)]
pub struct TickTraffic {
    /// The tick this traffic belongs to (0-based, in call order).
    pub tick: u64,
    /// Client requests: each is one batch of churn ops.
    pub requests: Vec<Vec<ChurnOp>>,
}

/// The deterministic client population stream. See the module docs.
#[derive(Debug)]
pub struct ClientPopulation {
    config: PopulationConfig,
    /// `zipf_cum[r]` = Σ_{k=1..=r+1} 1/k^s — cumulative unnormalised Zipf
    /// mass for device rank `r+1`; sampled by binary search.
    zipf_cum: Vec<f64>,
    measurements: Vec<Digest>,
    rng: StdRng,
    next_tick: u64,
}

impl ClientPopulation {
    /// Builds the population (precomputing the Zipf table — O(devices))
    /// and seeds its RNG from the config.
    #[must_use]
    pub fn new(config: PopulationConfig) -> Self {
        let devices = config.devices.max(1);
        let mut zipf_cum = Vec::with_capacity(devices as usize);
        let mut total = 0.0f64;
        for rank in 1..=devices {
            total += 1.0 / (rank as f64).powf(config.zipf_s);
            zipf_cum.push(total);
        }
        let measurements = (0..config.measurements.max(1))
            .map(|m| sha256(format!("population-cfg-{m}").as_bytes()))
            .collect();
        let rng = StdRng::seed_from_u64(config.seed);
        ClientPopulation {
            config,
            zipf_cum,
            measurements,
            rng,
            next_tick: 0,
        }
    }

    /// The config this population was built from.
    #[must_use]
    pub fn config(&self) -> &PopulationConfig {
        &self.config
    }

    /// The cold-start traffic: every device registers once, in id order,
    /// chunked into requests of the configured size. Call once, before
    /// the first [`next_tick`](Self::next_tick).
    #[must_use]
    pub fn registration_wave(&mut self) -> Vec<Vec<ChurnOp>> {
        let per_request = self.config.ops_per_request.max(1);
        let mut requests = Vec::new();
        let mut current = Vec::with_capacity(per_request);
        for id in 0..self.config.devices {
            current.push(self.attest_op(id));
            if current.len() == per_request {
                requests.push(std::mem::take(&mut current));
            }
        }
        if !current.is_empty() {
            requests.push(current);
        }
        requests
    }

    /// Generates the next tick's traffic. Ticks must be consumed in
    /// order; the stream is deterministic per config and call sequence.
    pub fn next_tick(&mut self) -> TickTraffic {
        let tick = self.next_tick;
        self.next_tick += 1;
        let ops = self.ops_at(tick);
        let per_request = self.config.ops_per_request.max(1);
        let mut requests = Vec::with_capacity(ops as usize / per_request + 1);
        let mut current = Vec::with_capacity(per_request);
        for _ in 0..ops {
            current.push(self.churn_op());
            if current.len() == per_request {
                requests.push(std::mem::take(&mut current));
            }
        }
        if !current.is_empty() {
            requests.push(current);
        }
        TickTraffic { tick, requests }
    }

    /// The diurnal op budget for `tick`:
    /// `round(mean · (1 + A·sin(2π·tick/period)))`.
    #[must_use]
    pub fn ops_at(&self, tick: u64) -> u64 {
        let mean = self.config.mean_ops_per_tick as f64;
        if self.config.diurnal_period == 0 || self.config.diurnal_amplitude == 0.0 {
            return self.config.mean_ops_per_tick;
        }
        let phase = (tick % self.config.diurnal_period) as f64 / self.config.diurnal_period as f64;
        let factor =
            1.0 + self.config.diurnal_amplitude * (2.0 * std::f64::consts::PI * phase).sin();
        (mean * factor).round().max(0.0) as u64
    }

    /// One Zipf device draw: rank `r` with probability ∝ `1/r^s`, mapped
    /// to device id `r - 1`.
    fn sample_device(&mut self) -> u64 {
        let total = *self
            .zipf_cum
            .last()
            .expect("population has at least one device");
        let u: f64 = self.rng.gen::<f64>() * total;
        self.zipf_cum.partition_point(|&c| c < u) as u64
    }

    fn attest_op(&mut self, device: u64) -> ChurnOp {
        let m = self.rng.gen_range(0..self.measurements.len());
        let power = self.rng.gen_range(1..self.config.max_power.max(2));
        ChurnOp::attest(
            ReplicaId::new(device),
            self.measurements[m],
            VotingPower::new(power),
        )
    }

    fn churn_op(&mut self) -> ChurnOp {
        let device = self.sample_device();
        let roll: u32 = self.rng.gen_range(0..1000);
        if roll < self.config.deregister_permille {
            ChurnOp::Deregister {
                replica: ReplicaId::new(device),
            }
        } else if roll < self.config.deregister_permille + self.config.unattested_permille {
            let power = self.rng.gen_range(1..self.config.max_power.max(2));
            ChurnOp::Unattested {
                replica: ReplicaId::new(device),
                power: VotingPower::new(power),
            }
        } else {
            self.attest_op(device)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> PopulationConfig {
        PopulationConfig::new(500, 200).with_seed(7)
    }

    #[test]
    fn identical_configs_emit_identical_streams() {
        let mut a = ClientPopulation::new(small());
        let mut b = ClientPopulation::new(small());
        assert_eq!(a.registration_wave(), b.registration_wave());
        for _ in 0..20 {
            let (ta, tb) = (a.next_tick(), b.next_tick());
            assert_eq!(ta.tick, tb.tick);
            assert_eq!(ta.requests, tb.requests);
        }
    }

    #[test]
    fn registration_wave_covers_every_device_once() {
        let mut p = ClientPopulation::new(small());
        let wave = p.registration_wave();
        let mut seen: Vec<u64> = wave
            .iter()
            .flatten()
            .map(|op| op.replica().as_u64())
            .collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..500).collect::<Vec<_>>());
        assert!(wave.iter().all(|r| r.len() <= 32));
    }

    #[test]
    fn diurnal_curve_modulates_the_op_budget() {
        let p = ClientPopulation::new(small().with_diurnal(0.5, 100));
        // Peak of sin at a quarter period, trough at three quarters.
        assert_eq!(p.ops_at(25), 300);
        assert_eq!(p.ops_at(75), 100);
        let flat = ClientPopulation::new(small().with_diurnal(0.0, 100));
        assert_eq!(flat.ops_at(25), 200);
    }

    #[test]
    fn zipf_skew_concentrates_churn_on_low_ranks() {
        let mut p = ClientPopulation::new(small().with_zipf(1.2));
        let mut hot = 0u64;
        let mut total = 0u64;
        for _ in 0..50 {
            for op in p.next_tick().requests.iter().flatten() {
                total += 1;
                if op.replica().as_u64() < 25 {
                    hot += 1;
                }
            }
        }
        // The top 5 % of ranks must draw far more than 5 % of the churn.
        assert!(
            hot * 4 > total,
            "expected >25% of churn on the hottest 5% of devices, got {hot}/{total}"
        );
    }

    #[test]
    fn op_mix_respects_the_permille_thresholds() {
        let mut p = ClientPopulation::new(small());
        let (mut att, mut unatt, mut dereg) = (0u64, 0u64, 0u64);
        for _ in 0..100 {
            for op in p.next_tick().requests.iter().flatten() {
                match op {
                    ChurnOp::Attest { .. } => att += 1,
                    ChurnOp::Unattested { .. } => unatt += 1,
                    ChurnOp::Deregister { .. } => dereg += 1,
                }
            }
        }
        let total = att + unatt + dereg;
        assert!(att > total / 2, "re-attestations dominate: {att}/{total}");
        assert!(unatt > 0 && dereg > unatt);
    }
}
