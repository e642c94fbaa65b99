//! Deterministic synthetic churn traces for tests, goldens, and the
//! `fleet_seal` bench.
//!
//! A trace is a pure function of its [`ChurnTraceConfig`] (including the
//! seed): a registration wave for every device followed by a churn phase of
//! re-attestations (configuration rotation), departures, and re-joins, with
//! a configurable unattested share and a mildly skewed measurement
//! popularity (a "default image" every fleet has). The fixed-seed 10k
//! trace behind `tests/goldens/fleet_snapshot.json` comes from here.

use fi_attest::ChurnOp;
use fi_types::{sha256, Digest, ReplicaId, VotingPower};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters of a synthetic churn trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChurnTraceConfig {
    /// Number of distinct devices (ids `0..devices`).
    pub devices: u64,
    /// Size of the measurement pool (distinct attestable configurations).
    pub measurements: usize,
    /// Churn operations after the initial registration wave.
    pub churn_ops: usize,
    /// Per-mille of devices registering on the unattested tier.
    pub unattested_permille: u32,
    /// RNG seed; the trace is bit-reproducible per seed.
    pub seed: u64,
}

impl ChurnTraceConfig {
    /// A trace with `devices` devices and `churn_ops` churn operations,
    /// with the defaults the goldens and the `fleet_seal` bench share: 64
    /// measurements, 10% unattested, seed 2023.
    #[must_use]
    pub fn new(devices: u64, churn_ops: usize) -> Self {
        ChurnTraceConfig {
            devices,
            measurements: 64,
            churn_ops,
            unattested_permille: 100,
            seed: 2023,
        }
    }

    /// Total ops the generated trace will contain.
    #[must_use]
    fn total_ops(&self) -> usize {
        self.devices as usize + self.churn_ops
    }
}

/// The measurement pool: `n` distinct configuration digests.
#[must_use]
pub fn measurement_pool(n: usize) -> Vec<Digest> {
    (0..n)
        .map(|i| sha256(format!("fleet-cfg-{i}").as_bytes()))
        .collect()
}

/// Generates the trace: one registration op per device, then `churn_ops`
/// operations mixing re-attestation (~60%), departure (~20%), and re-join
/// (~20%).
///
/// # Panics
///
/// Panics if the config names zero devices or zero measurements.
#[must_use]
pub fn churn_trace(cfg: &ChurnTraceConfig) -> Vec<ChurnOp> {
    assert!(cfg.devices > 0, "a churn trace needs at least one device");
    assert!(
        cfg.measurements > 0,
        "a churn trace needs at least one measurement"
    );
    let pool = measurement_pool(cfg.measurements);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let pick_measurement = |rng: &mut StdRng| {
        // Mild skew: a third of attestations land on the fleet's default
        // image, the rest spread uniformly.
        if rng.gen_bool(1.0 / 3.0) {
            pool[0]
        } else {
            pool[rng.gen_range(0..pool.len())]
        }
    };
    let mut ops = Vec::with_capacity(cfg.total_ops());

    for id in 0..cfg.devices {
        let replica = ReplicaId::new(id);
        let power = VotingPower::new(rng.gen_range(1u64..1_000));
        if rng.gen_range(0u32..1_000) < cfg.unattested_permille {
            ops.push(ChurnOp::Unattested { replica, power });
        } else {
            let m = pick_measurement(&mut rng);
            ops.push(ChurnOp::attest(replica, m, power));
        }
    }

    for _ in 0..cfg.churn_ops {
        let replica = ReplicaId::new(rng.gen_range(0..cfg.devices));
        let op = match rng.gen_range(0u32..10) {
            // Re-attest after a configuration rotation.
            0..=5 => {
                let m = pick_measurement(&mut rng);
                ChurnOp::attest(replica, m, VotingPower::new(rng.gen_range(1u64..1_000)))
            }
            // Churn out.
            6..=7 => ChurnOp::Deregister { replica },
            // Re-join (sometimes on the unattested tier).
            _ => {
                let power = VotingPower::new(rng.gen_range(1u64..1_000));
                if rng.gen_range(0u32..1_000) < cfg.unattested_permille {
                    ChurnOp::Unattested { replica, power }
                } else {
                    ChurnOp::attest(replica, pick_measurement(&mut rng), power)
                }
            }
        };
        ops.push(op);
    }
    ops
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_is_seed_deterministic() {
        let cfg = ChurnTraceConfig::new(100, 300);
        assert_eq!(churn_trace(&cfg), churn_trace(&cfg));
        let other = ChurnTraceConfig {
            seed: cfg.seed + 1,
            ..cfg
        };
        assert_ne!(churn_trace(&cfg), churn_trace(&other));
    }

    #[test]
    fn trace_has_expected_shape() {
        let cfg = ChurnTraceConfig::new(200, 500);
        let ops = churn_trace(&cfg);
        assert_eq!(ops.len(), cfg.total_ops());
        // The registration wave covers every device exactly once, in order.
        for (i, op) in ops[..200].iter().enumerate() {
            assert_eq!(op.replica(), ReplicaId::new(i as u64));
        }
        // Churn ops reference known devices only.
        assert!(ops[200..].iter().all(|op| op.replica().as_u64() < 200));
        // All three op kinds occur.
        assert!(ops.iter().any(|op| matches!(op, ChurnOp::Attest { .. })));
        assert!(ops
            .iter()
            .any(|op| matches!(op, ChurnOp::Unattested { .. })));
        assert!(ops
            .iter()
            .any(|op| matches!(op, ChurnOp::Deregister { .. })));
    }

    #[test]
    fn measurement_pool_is_distinct() {
        let pool = measurement_pool(64);
        let mut dedup = pool.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 64);
    }

    #[test]
    #[should_panic(expected = "at least one device")]
    fn zero_devices_rejected() {
        let _ = churn_trace(&ChurnTraceConfig::new(0, 10));
    }
}
