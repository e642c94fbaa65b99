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
//!   rank `r` is drawn with probability ∝ `1/r^s`. A draw `u` lands in a
//!   precomputed cumulative table through a guide table: `G` equal-mass
//!   cells (`G` = a quarter of the devices, rounded up to a power of two)
//!   each record where their lower bound `b_j = j·total/G` falls in the
//!   table, so a draw binary-searches only the three cells around its
//!   own. That is O(1) expected probes under any skew, since a cell
//!   holds at most four entries on average, where a search of the whole
//!   table costs ⌈log₂ n⌉ cache-missing ones; the guide adds one to two
//!   bytes a device to the table's eight. The answer is the whole-table
//!   search's, bit for bit: the cell `⌊u/total·G⌋` is off by at most one
//!   under rounding, so `b_{j−1} ≤ u ≤ b_{j+2}` always holds, and every
//!   table entry below `b_{j−1}` is below `u` and every one from
//!   `b_{j+2}` on is not.
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
    /// mass for device rank `r+1`; its last entry is the total mass. A
    /// draw is the first entry not below it, found through `guide`.
    zipf_cum: Vec<f64>,
    /// `guide[j]` = how many `zipf_cum` entries lie below the cell bound
    /// `b_j` (`cell_bound`), for `j` in `0..=G` with `G = guide.len() − 1`
    /// a power of two; a draw in cell `j` searches only
    /// `zipf_cum[guide[j−1]..guide[j+2]]`.
    guide: Vec<u32>,
    measurements: Vec<Digest>,
    rng: StdRng,
    next_tick: u64,
}

impl ClientPopulation {
    /// Builds the population (precomputing the Zipf table and its guide —
    /// O(devices)) and seeds its RNG from the config.
    #[must_use]
    pub fn new(config: PopulationConfig) -> Self {
        let devices = config.devices.max(1);
        let mut zipf_cum = Vec::with_capacity(devices as usize);
        let mut total = 0.0f64;
        for rank in 1..=devices {
            total += 1.0 / (rank as f64).powf(config.zipf_s);
            zipf_cum.push(total);
        }
        let guide = guide_for(&zipf_cum);
        let measurements = (0..config.measurements.max(1))
            .map(|m| sha256(format!("population-cfg-{m}").as_bytes()))
            .collect();
        let rng = StdRng::seed_from_u64(config.seed);
        ClientPopulation {
            config,
            zipf_cum,
            guide,
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
        self.requests(self.config.devices, Self::attest_op)
    }

    /// Generates the next tick's traffic. Ticks must be consumed in
    /// order; the stream is deterministic per config and call sequence.
    pub fn next_tick(&mut self) -> TickTraffic {
        let tick = self.next_tick;
        self.next_tick += 1;
        let requests = self.requests(self.ops_at(tick), |p, _| p.churn_op());
        TickTraffic { tick, requests }
    }

    /// `ops` generated ops, op `i` from `op(self, i)` in order, chunked
    /// into requests of the configured size. Each request is allocated
    /// once, at its final length.
    fn requests(
        &mut self,
        ops: u64,
        mut op: impl FnMut(&mut Self, u64) -> ChurnOp,
    ) -> Vec<Vec<ChurnOp>> {
        let per_request = self.config.ops_per_request.max(1);
        let mut requests = Vec::with_capacity(ops.div_ceil(per_request as u64) as usize);
        for first in (0..ops).step_by(per_request) {
            let end = ops.min(first + per_request as u64);
            let mut request = Vec::with_capacity((end - first) as usize);
            for i in first..end {
                request.push(op(self, i));
            }
            requests.push(request);
        }
        requests
    }

    /// The diurnal op budget for `tick`:
    /// `round(mean · (1 + A·sin(2π·tick/period)))`.
    #[must_use]
    fn ops_at(&self, tick: u64) -> u64 {
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
        let u: f64 = self.rng.gen::<f64>() * self.total();
        self.rank_at(u) as u64
    }

    /// The total Zipf mass: the last cumulative entry.
    fn total(&self) -> f64 {
        *self
            .zipf_cum
            .last()
            .expect("population has at least one device")
    }

    /// The first rank whose cumulative mass is not below `u`, for `u` in
    /// `[0, total]`: the whole-table `partition_point(|&c| c < u)`, found
    /// inside the three guide cells around `u`'s.
    fn rank_at(&self, u: f64) -> usize {
        let cells = self.guide.len() - 1;
        let cell = ((u / self.total() * cells as f64) as usize).min(cells - 1);
        let lo = self.guide[cell.saturating_sub(1)] as usize;
        let hi = self.guide[(cell + 2).min(cells)] as usize;
        let rank = lo + self.zipf_cum[lo..hi].partition_point(|&c| c < u);
        debug_assert_eq!(rank, self.zipf_cum.partition_point(|&c| c < u));
        rank
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

/// The guide table over a non-empty cumulative table: for `G` = a quarter
/// of its length rounded up to a power of two, entry `j` in `0..=G` counts
/// the entries below `cell_bound(total, j, G)`, in one merge walk.
fn guide_for(cum: &[f64]) -> Vec<u32> {
    let total = cum[cum.len() - 1];
    let cells = (cum.len() / 4).next_power_of_two();
    let mut guide = Vec::with_capacity(cells + 1);
    let mut below = 0;
    for j in 0..=cells {
        let bound = cell_bound(total, j, cells);
        while below < cum.len() && cum[below] < bound {
            below += 1;
        }
        guide.push(u32::try_from(below).expect("a population has at most 2^32 devices"));
    }
    guide
}

/// The lower bound of guide cell `j` of `cells`: `j·total/cells`, with
/// `cells` a power of two so the division is exact and the bound is
/// rounded once.
fn cell_bound(total: f64, j: usize, cells: usize) -> f64 {
    total * (j as f64 / cells as f64)
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

    /// The whole-table search the guide replaces: the oracle every guided
    /// draw is held to.
    fn oracle(p: &ClientPopulation, u: f64) -> usize {
        p.zipf_cum.partition_point(|&c| c < u)
    }

    /// Every skew and size the exactness tests cover: a one-device
    /// population, tables smaller than one cell, and one of 70 000 rows.
    fn tables() -> impl Iterator<Item = ClientPopulation> {
        [0.0, 0.5, 1.1, 2.0].into_iter().flat_map(|zipf_s| {
            [1, 2, 3, 17, 1000, 70_000].into_iter().map(move |devices| {
                ClientPopulation::new(PopulationConfig::new(devices, 0).with_zipf(zipf_s))
            })
        })
    }

    /// Holds the guided draw to the oracle at each `u` in `[0, total]`.
    fn assert_exact(p: &ClientPopulation, us: impl IntoIterator<Item = f64>) {
        let total = p.total();
        for u in us.into_iter().filter(|u| (0.0..=total).contains(u)) {
            assert_eq!(
                p.rank_at(u),
                oracle(p, u),
                "u = {u:e} of {total:e}, {} devices, s = {}",
                p.zipf_cum.len(),
                p.config.zipf_s
            );
        }
    }

    #[test]
    fn guide_entries_are_the_partition_points_of_their_bounds() {
        for p in tables() {
            let cells = p.guide.len() - 1;
            assert!(cells.is_power_of_two());
            for (j, &below) in p.guide.iter().enumerate() {
                let bound = cell_bound(p.total(), j, cells);
                assert_eq!(below as usize, oracle(&p, bound), "guide[{j}] of {cells}");
            }
        }
    }

    #[test]
    fn guided_draw_is_exact_at_cell_bounds_and_table_entries() {
        for p in tables() {
            let cells = p.guide.len() - 1;
            for j in 0..=cells {
                let b = cell_bound(p.total(), j, cells);
                assert_exact(&p, [b.next_down(), b, b.next_up()]);
            }
            if p.zipf_cum.len() <= 1000 {
                for &c in &p.zipf_cum {
                    assert_exact(&p, [c.next_down(), c, c.next_up()]);
                }
            }
        }
    }

    /// A table with an entry on and beside every bound of its 256 cells:
    /// where rounding files a draw one cell off its bound, an entry sits
    /// on the other side, so a search without the one-cell margin answers
    /// one rank off.
    #[test]
    fn guided_draw_is_exact_on_entries_at_every_cell_bound() {
        for total in [1000.3, 7.7, 1.6449] {
            let mut cum: Vec<f64> = (1..256)
                .flat_map(|j| {
                    let b = cell_bound(total, j, 256);
                    [b.next_down(), b, b.next_up()]
                })
                .collect();
            cum.extend([total.next_down(), total]);
            let mut p = ClientPopulation::new(PopulationConfig::new(1, 0));
            p.guide = guide_for(&cum);
            p.zipf_cum = cum;
            assert_eq!(p.guide.len(), 257);
            for &c in &p.zipf_cum {
                assert_exact(&p, [c.next_down(), c, c.next_up()]);
            }
        }
    }

    #[test]
    fn guided_draw_is_exact_at_random_and_extreme_draws() {
        let mut rng = StdRng::seed_from_u64(40);
        for p in tables() {
            let total = p.total();
            // The vendored `rand`'s largest `f64` is `1 − 2⁻⁵³`.
            let largest = (u64::MAX >> 11) as f64 / (1u64 << 53) as f64 * total;
            assert_exact(&p, [0.0, largest, total]);
            assert_exact(&p, (0..100_000).map(|_| rng.gen::<f64>() * total));
        }
    }

    /// Feeds one population's traffic into `hasher`: the registration
    /// wave, then the first 200 ticks. Each request is its op count, then
    /// per op a kind byte, the replica, the power (0 for a departure) and,
    /// for a re-attestation, the measurement.
    fn hash_stream(config: PopulationConfig, hasher: &mut fi_types::hash::Sha256) {
        let mut p = ClientPopulation::new(config);
        let mut requests = p.registration_wave();
        for _ in 0..200 {
            requests.extend(p.next_tick().requests);
        }
        for request in &requests {
            hasher.update((request.len() as u64).to_le_bytes());
            for op in request {
                let (kind, power, measurement) = match *op {
                    ChurnOp::Attest {
                        measurement, power, ..
                    } => (0u8, power, Some(measurement)),
                    ChurnOp::Unattested { power, .. } => (1, power, None),
                    ChurnOp::Deregister { .. } => (2, VotingPower::ZERO, None),
                };
                hasher.update([kind]);
                hasher.update(op.replica().as_u64().to_le_bytes());
                hasher.update(power.as_units().to_le_bytes());
                if let Some(m) = measurement {
                    hasher.update(m.0);
                }
            }
        }
    }

    /// The raw request stream, pinned: one digest over a Zipf 1.1 and a
    /// uniform population. The literal was recorded from the whole-table
    /// binary-search sampler, before the guide table replaced it, so any
    /// draw the guide gets wrong, or any change to request chunking,
    /// shows here.
    #[test]
    fn stream_golden() {
        let mut hasher = fi_types::hash::Sha256::new();
        hash_stream(
            PopulationConfig::new(20_000, 400).with_seed(11),
            &mut hasher,
        );
        hash_stream(
            PopulationConfig::new(5_000, 400)
                .with_zipf(0.0)
                .with_seed(12),
            &mut hasher,
        );
        assert_eq!(
            hasher.finalize().to_string(),
            "0705d0bcea8fc03243f8401d91fb4685534a63b1d40e5dc3c5ad1613356ef0c1"
        );
    }
}
