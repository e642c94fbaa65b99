//! Diversity monitoring (paper §III-B + §IV): the report a sealed epoch
//! snapshot yields.
//!
//! A configuration claim reaches a fleet one way. A
//! [`Verifier`](fi_attest::Verifier) issues the replica a challenge
//! ([`Verifier::challenge`](fi_attest::Verifier::challenge)) and checks the
//! quote that answers it ([`Verifier::verify`](fi_attest::Verifier::verify));
//! the verified facts travel as a churn op
//! ([`ChurnOp::from_verified_quote`](fi_attest::ChurnOp::from_verified_quote)),
//! which `fi-serve`'s `FleetServer` or a [`ShardedFleet`](fi_fleet::ShardedFleet)
//! ingests and seals. A [`DiversityReport`] is read off the sealed
//! [`EpochSnapshot`].

use fi_entropy::optimal::KappaOptimality;
use fi_entropy::renyi::min_entropy_bits;
use fi_entropy::shannon::{effective_configurations, evenness};
use fi_fleet::EpochSnapshot;
use fi_types::VotingPower;

use crate::error::CoreError;

impl DiversityReport {
    /// Derives the full diversity report from a sealed [`EpochSnapshot`],
    /// lock-free: entropy off the snapshot's canonical accumulator, the
    /// batch metrics (Rényi, evenness, κ-optimality) from its
    /// distribution. With `include_unattested`, all unattested power is
    /// counted as one opaque configuration (the pessimistic reading).
    /// Every report comes from here — a fleet reader passes what its handle
    /// serves — so a report is a function of fleet content alone.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Entropy`] when the snapshot holds no power.
    pub fn from_snapshot(
        snapshot: &EpochSnapshot,
        include_unattested: bool,
    ) -> Result<DiversityReport, CoreError> {
        let dist = snapshot.distribution(include_unattested)?;
        let optimality = KappaOptimality::check(&dist, 1e-9);
        Ok(DiversityReport {
            replicas: snapshot.device_count(),
            total_effective_power: snapshot.total_effective_power(),
            entropy_bits: snapshot.entropy_bits(include_unattested)?,
            min_entropy_bits: min_entropy_bits(&dist),
            effective_configurations: effective_configurations(&dist),
            evenness: evenness(&dist),
            kappa: optimality.kappa(),
            kappa_optimal: optimality.is_optimal(),
            entropy_deficit_bits: optimality.entropy_deficit_bits(),
            worst_configuration_share: dist.max_probability(),
        })
    }
}

/// A snapshot of the system's measured diversity (§IV quantities).
#[derive(Debug, Clone, PartialEq)]
pub struct DiversityReport {
    /// Registered replicas (both tiers).
    pub replicas: usize,
    /// Total effective (tier-weighted) voting power.
    pub total_effective_power: VotingPower,
    /// Shannon entropy `H(p)` in bits.
    pub entropy_bits: f64,
    /// Min-entropy `H_∞(p)` in bits (worst-case single configuration).
    pub min_entropy_bits: f64,
    /// Effective number of configurations `2^H`.
    pub effective_configurations: f64,
    /// Evenness `H / log2 κ ∈ [0, 1]`.
    pub evenness: f64,
    /// Realised κ (support size).
    pub kappa: usize,
    /// Whether Definition 1 (κ-optimal fault independence) holds.
    pub kappa_optimal: bool,
    /// `log2 κ − H`: how far from κ-optimal.
    pub entropy_deficit_bits: f64,
    /// The dominant configuration's power share (what one zero-day takes).
    pub worst_configuration_share: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use fi_attest::{
        AttestError, AttestationPolicy, AttestedRegistry, ChurnOp, DeviceKind, TrustedDevice,
        TwoTierWeights, Verifier,
    };
    use fi_fleet::ShardedFleet;
    use fi_types::{sha256, KeyPair, ReplicaId, SimTime};
    use proptest::prelude::*;
    use std::sync::Arc;

    fn verifier_trusting(device: &TrustedDevice) -> Verifier {
        let mut verifier = Verifier::new(AttestationPolicy::discovery());
        verifier.trust_endorsement(device.endorsement_key());
        verifier
    }

    /// One attestation round trip: the verifier challenges, the device
    /// quotes `measurement` in answer, the verifier checks the quote, and
    /// the verified facts become the op a fleet ingests.
    fn attest_cycle(
        verifier: &mut Verifier,
        device: &TrustedDevice,
        replica: u64,
        measurement: &[u8],
        power: u64,
    ) -> ChurnOp {
        let nonce = verifier.challenge();
        let aik = device.create_aik(&format!("aik-{replica}"));
        let quote = aik.quote(
            sha256(measurement),
            nonce,
            KeyPair::from_seed(replica).public_key(),
            SimTime::ZERO,
        );
        verifier.verify(&quote, SimTime::ZERO, Some(nonce)).unwrap();
        ChurnOp::from_verified_quote(ReplicaId::new(replica), &quote, VotingPower::new(power))
    }

    fn unattested(replica: u64, power: u64) -> ChurnOp {
        ChurnOp::Unattested {
            replica: ReplicaId::new(replica),
            power: VotingPower::new(power),
        }
    }

    /// `ops` ingested by a one-shard fleet and sealed.
    fn sealed(weights: TwoTierWeights, ops: &[ChurnOp]) -> Arc<EpochSnapshot> {
        let fleet = ShardedFleet::new(1, weights);
        fleet.try_ingest_batch(ops).unwrap();
        fleet.try_seal_epoch().unwrap()
    }

    #[test]
    fn full_pipeline_uniform_is_kappa_optimal() {
        let device = TrustedDevice::new(DeviceKind::Tpm20, 0);
        let mut verifier = verifier_trusting(&device);
        let ops: Vec<ChurnOp> = (0..4u64)
            .map(|i| {
                attest_cycle(
                    &mut verifier,
                    &device,
                    i,
                    format!("cfg-{i}").as_bytes(),
                    100,
                )
            })
            .collect();
        let report =
            DiversityReport::from_snapshot(&sealed(TwoTierWeights::flat(), &ops), false).unwrap();
        assert_eq!(report.replicas, 4);
        assert_eq!(report.kappa, 4);
        assert!(report.kappa_optimal);
        assert!((report.entropy_bits - 2.0).abs() < 1e-12);
        assert!((report.effective_configurations - 4.0).abs() < 1e-9);
        assert!((report.evenness - 1.0).abs() < 1e-12);
        assert!((report.worst_configuration_share - 0.25).abs() < 1e-12);
        assert!(report.entropy_deficit_bits < 1e-12);
    }

    #[test]
    fn skewed_power_reduces_entropy() {
        let device = TrustedDevice::new(DeviceKind::Tpm20, 0);
        let mut verifier = verifier_trusting(&device);
        let ops = [
            attest_cycle(&mut verifier, &device, 0, b"cfg-a", 900),
            attest_cycle(&mut verifier, &device, 1, b"cfg-b", 100),
        ];
        let report =
            DiversityReport::from_snapshot(&sealed(TwoTierWeights::flat(), &ops), false).unwrap();
        assert!(!report.kappa_optimal);
        assert!(report.entropy_bits < 1.0);
        assert!(report.entropy_deficit_bits > 0.0);
        assert!((report.worst_configuration_share - 0.9).abs() < 1e-12);
    }

    #[test]
    fn wrong_nonce_is_rejected() {
        // A quote that answers another challenge is refused, so no op is
        // built and the fleet seals with nothing registered.
        let device = TrustedDevice::new(DeviceKind::Tpm20, 0);
        let mut verifier = verifier_trusting(&device);
        let nonce = verifier.challenge();
        let aik = device.create_aik("aik");
        let quote = aik.quote(
            sha256(b"cfg"),
            nonce + 999,
            KeyPair::from_seed(0).public_key(),
            SimTime::ZERO,
        );
        assert_eq!(
            verifier.verify(&quote, SimTime::ZERO, Some(nonce)),
            Err(AttestError::NonceMismatch {
                expected: nonce,
                actual: nonce + 999
            })
        );
        let snapshot = sealed(TwoTierWeights::flat(), &[]);
        assert!(
            DiversityReport::from_snapshot(&snapshot, false).is_err(),
            "nothing registered"
        );
    }

    #[test]
    fn fast_entropy_matches_report_entropy() {
        // The O(1) read a fleet reader polls — a sealed snapshot's
        // `entropy_bits` — is the report's entropy, bit for bit.
        let device = TrustedDevice::new(DeviceKind::Tpm20, 0);
        let mut verifier = verifier_trusting(&device);
        let ops = [
            attest_cycle(&mut verifier, &device, 0, b"cfg-a", 700),
            attest_cycle(&mut verifier, &device, 1, b"cfg-b", 200),
            unattested(2, 100),
        ];
        let snapshot = sealed(TwoTierWeights::flat(), &ops);
        for include in [false, true] {
            let fast = snapshot.entropy_bits(include).unwrap();
            let report = DiversityReport::from_snapshot(&snapshot, include).unwrap();
            assert_eq!(fast.to_bits(), report.entropy_bits.to_bits());
            assert!(!fast.is_sign_negative());
        }
        let empty = sealed(TwoTierWeights::flat(), &[]);
        assert!(empty.entropy_bits(false).is_err());
        assert!(DiversityReport::from_snapshot(&empty, false).is_err());
    }

    #[test]
    fn unattested_bucket_changes_report() {
        let device = TrustedDevice::new(DeviceKind::Tpm20, 0);
        let mut verifier = verifier_trusting(&device);
        let ops = [
            attest_cycle(&mut verifier, &device, 0, b"cfg-a", 100),
            unattested(1, 100),
        ];
        let snapshot = sealed(TwoTierWeights::flat(), &ops);
        let without = DiversityReport::from_snapshot(&snapshot, false).unwrap();
        let with = DiversityReport::from_snapshot(&snapshot, true).unwrap();
        assert_eq!(without.kappa, 1);
        assert_eq!(with.kappa, 2);
        assert!(with.entropy_bits > without.entropy_bits);
        assert_eq!(with.replicas, 2);
    }

    #[test]
    fn snapshot_report_matches_registry_report() {
        // The report over a fleet's sealed snapshot is the report over a
        // plain registry fed the same ops and sealed in full, every field
        // bit for bit, whatever the epoch stamp.
        let device = TrustedDevice::new(DeviceKind::Tpm20, 0);
        let mut verifier = verifier_trusting(&device);
        let ops = [
            attest_cycle(&mut verifier, &device, 0, b"cfg-a", 700),
            attest_cycle(&mut verifier, &device, 1, b"cfg-b", 200),
            attest_cycle(&mut verifier, &device, 2, b"cfg-a", 50),
            unattested(3, 100),
        ];
        let mut registry = AttestedRegistry::new(TwoTierWeights::flat());
        registry.apply_batch(&ops);
        let reference = EpochSnapshot::from_registry(&registry, 0);
        let snapshot = sealed(TwoTierWeights::flat(), &ops);
        for include in [false, true] {
            assert_eq!(
                outcome(DiversityReport::from_snapshot(&reference, include)),
                outcome(DiversityReport::from_snapshot(&snapshot, include)),
                "include={include}"
            );
        }
        let empty = EpochSnapshot::empty(TwoTierWeights::flat());
        assert!(DiversityReport::from_snapshot(&empty, false).is_err());
    }

    #[test]
    fn handle_report_matches_snapshot_report_across_seals() {
        // Reports through a cached reader handle are bit-identical to
        // reports over the fleet's served snapshot, and the handle tracks
        // each seal without being recreated.
        let fleet = ShardedFleet::new(4, TwoTierWeights::flat());
        let mut handle = fleet.reader();
        assert!(DiversityReport::from_snapshot(handle.get(), true).is_err());
        for round in 0..3u64 {
            let batch: Vec<ChurnOp> = (0..12)
                .map(|i| {
                    ChurnOp::attest(
                        ReplicaId::new(round * 12 + i),
                        sha256(format!("cfg-{}", i % 4).as_bytes()),
                        VotingPower::new(50 + i),
                    )
                })
                .collect();
            fleet.try_ingest_batch(&batch).unwrap();
            fleet.try_seal_epoch().unwrap();
            for include in [false, true] {
                assert_eq!(
                    outcome(DiversityReport::from_snapshot(handle.get(), include)),
                    outcome(DiversityReport::from_snapshot(&fleet.snapshot(), include)),
                    "epoch {}, include={include}",
                    round + 1
                );
            }
            assert_eq!(handle.cached_epoch(), round + 1);
        }
    }

    /// Every field of a report, floats as their bits.
    type Bits = (usize, VotingPower, usize, bool, [u64; 6]);

    fn bits(r: &DiversityReport) -> Bits {
        let floats = [
            r.entropy_bits,
            r.min_entropy_bits,
            r.effective_configurations,
            r.evenness,
            r.entropy_deficit_bits,
            r.worst_configuration_share,
        ];
        (
            r.replicas,
            r.total_effective_power,
            r.kappa,
            r.kappa_optimal,
            floats.map(f64::to_bits),
        )
    }

    /// A report's fields as bits, or its error's variant.
    fn outcome(report: Result<DiversityReport, CoreError>) -> Result<Bits, String> {
        report.map(|r| bits(&r)).map_err(|e| format!("{e:?}"))
    }

    proptest! {
        // Pinned case count: the vendored runner seeds each case from the
        // test name, so the traces are the same on every run.
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The cross-path oracle. Verified quotes and unattested
        /// registrations — re-attestations to another measurement, tier
        /// flips and zero power included — reach a plain `AttestedRegistry`
        /// and a `ShardedFleet` at 1 and 4 shards as the same `ChurnOp`s.
        /// After every chunk, the report over the registry sealed in full
        /// equals the report the fleet serves once sealed (differentially
        /// after the first seal), read through a cached reader handle:
        /// every field bit for bit, with and without the opaque row,
        /// errors included — an empty registry errs as an empty fleet's
        /// snapshot does.
        #[test]
        fn monitor_report_equals_the_sealed_fleet_report(
            steps in proptest::collection::vec((0u64..10, 0u8..5, 0u64..200), 0..40),
            chunk in 1usize..8,
            unattested_pct in 0u32..=100,
        ) {
            let weights = TwoTierWeights::new(1.0, f64::from(unattested_pct) / 100.0);
            let device = TrustedDevice::new(DeviceKind::Tpm20, 0);
            for shards in [1usize, 4] {
                let mut verifier = verifier_trusting(&device);
                let mut registry = AttestedRegistry::new(weights);
                let fleet = ShardedFleet::new(shards, weights);
                let mut handle = fleet.reader();
                let reference = |registry: &AttestedRegistry, include| {
                    outcome(DiversityReport::from_snapshot(
                        &EpochSnapshot::from_registry(registry, 0),
                        include,
                    ))
                };
                for include in [false, true] {
                    prop_assert_eq!(
                        reference(&registry, include),
                        outcome(DiversityReport::from_snapshot(handle.get(), include)),
                        "empty, include={}", include
                    );
                }
                for (round, ops) in steps.chunks(chunk).enumerate() {
                    let batch: Vec<ChurnOp> = ops
                        .iter()
                        .map(|&(id, kind, units)| {
                            if kind < 4 {
                                let cfg = format!("cfg-{kind}");
                                attest_cycle(&mut verifier, &device, id, cfg.as_bytes(), units)
                            } else {
                                unattested(id, units)
                            }
                        })
                        .collect();
                    registry.apply_batch(&batch);
                    fleet.try_ingest_batch(&batch).unwrap();
                    let sealed = fleet.try_seal_epoch().unwrap();
                    prop_assert_eq!(sealed.parent_hash().is_some(), round > 0, "differential");
                    for include in [false, true] {
                        prop_assert_eq!(
                            reference(&registry, include),
                            outcome(DiversityReport::from_snapshot(handle.get(), include)),
                            "{} shards, epoch {}, include={}", shards, round + 1, include
                        );
                    }
                    prop_assert_eq!(handle.cached_epoch(), round as u64 + 1);
                }
            }
        }
    }
}
