//! The diversity monitor: configuration discovery → entropy report.

use fi_attest::{AttestedRegistry, Quote, TwoTierWeights, Verifier};
use fi_entropy::optimal::KappaOptimality;
use fi_entropy::renyi::min_entropy_bits;
use fi_entropy::shannon::{effective_configurations, evenness};
use fi_fleet::EpochSnapshot;
use fi_types::{ReplicaId, SimTime, VotingPower};

use crate::error::CoreError;

/// Discovers and quantifies replica diversity from attestation quotes
/// (paper §III-B + §IV in one object).
///
/// The monitor issues per-replica challenge nonces, verifies quotes through
/// its [`Verifier`], and keeps an [`AttestedRegistry`]; its diversity report
/// is read from an epoch snapshot sealed from that registry in full. It
/// never drains the registry's churn delta, so every replica it ever
/// registered keeps a 24-byte delta row there
/// ([`AttestedRegistry::heap_bytes`] counts it).
#[derive(Debug)]
pub struct DiversityMonitor {
    verifier: Verifier,
    registry: AttestedRegistry,
    next_nonce: u64,
}

impl DiversityMonitor {
    /// Creates a monitor with the given verifier and tier weights.
    #[must_use]
    pub fn new(verifier: Verifier, weights: TwoTierWeights) -> Self {
        DiversityMonitor {
            verifier,
            registry: AttestedRegistry::new(weights),
            next_nonce: 1,
        }
    }

    /// Issues a fresh challenge nonce for a replica's next attestation.
    pub fn challenge(&mut self) -> u64 {
        let nonce = self.next_nonce;
        self.next_nonce += 1;
        nonce
    }

    /// Ingests a quote answering `nonce`, registering the replica as
    /// attested with `power`.
    ///
    /// # Errors
    ///
    /// Propagates verification failures ([`fi_attest::AttestError`]).
    pub fn ingest_quote(
        &mut self,
        replica: ReplicaId,
        quote: &Quote,
        nonce: u64,
        now: SimTime,
        power: VotingPower,
    ) -> Result<(), CoreError> {
        self.registry
            .register_attested(replica, quote, &self.verifier, now, Some(nonce), power)?;
        Ok(())
    }

    /// Registers a replica that declined attestation (unattested tier).
    pub fn ingest_unattested(&mut self, replica: ReplicaId, power: VotingPower) {
        self.registry.register_unattested(replica, power);
    }

    /// The underlying registry.
    #[must_use]
    pub fn registry(&self) -> &AttestedRegistry {
        &self.registry
    }

    /// Produces the diversity report. With `include_unattested`, all
    /// unattested power is counted as one opaque configuration (the
    /// pessimistic reading).
    ///
    /// The registry answers no diversity query, so this seals it into an
    /// [`EpochSnapshot`] — one full build, O(n log n) in registered
    /// replicas — and reads the report there, as a fleet reader does.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Entropy`] when no power is registered.
    pub fn report(&self, include_unattested: bool) -> Result<DiversityReport, CoreError> {
        DiversityReport::from_snapshot(
            &EpochSnapshot::from_registry(&self.registry, 0),
            include_unattested,
        )
    }
}

impl DiversityReport {
    /// Derives the full diversity report from a sealed [`EpochSnapshot`],
    /// lock-free: entropy off the snapshot's canonical accumulator, the
    /// batch metrics (Rényi, evenness, κ-optimality) from its
    /// distribution. Every report comes from here — the monitor seals its
    /// registry first, a fleet reader passes what its handle serves —
    /// so a report is a function of fleet content alone.
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
            configurations: dist.support_size(),
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
    /// Distinct configurations in use.
    pub configurations: usize,
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
    use fi_attest::{AttestationPolicy, DeviceKind, TrustedDevice};
    use fi_types::{sha256, KeyPair};
    use proptest::prelude::*;

    fn monitor_with_roots(devices: &[&TrustedDevice]) -> DiversityMonitor {
        let mut verifier = Verifier::new(AttestationPolicy::discovery());
        for d in devices {
            verifier.trust_endorsement(d.endorsement_key());
        }
        DiversityMonitor::new(verifier, TwoTierWeights::flat())
    }

    fn attest_cycle(
        monitor: &mut DiversityMonitor,
        device: &TrustedDevice,
        replica: u64,
        measurement: &[u8],
        power: u64,
    ) {
        let nonce = monitor.challenge();
        let aik = device.create_aik(&format!("aik-{replica}"));
        let quote = aik.quote(
            sha256(measurement),
            nonce,
            KeyPair::from_seed(replica).public_key(),
            SimTime::ZERO,
        );
        monitor
            .ingest_quote(
                ReplicaId::new(replica),
                &quote,
                nonce,
                SimTime::ZERO,
                VotingPower::new(power),
            )
            .unwrap();
    }

    #[test]
    fn challenges_are_unique() {
        let device = TrustedDevice::new(DeviceKind::Tpm20, 0);
        let mut m = monitor_with_roots(&[&device]);
        let a = m.challenge();
        let b = m.challenge();
        assert_ne!(a, b);
    }

    #[test]
    fn full_pipeline_uniform_is_kappa_optimal() {
        let device = TrustedDevice::new(DeviceKind::Tpm20, 0);
        let mut m = monitor_with_roots(&[&device]);
        for i in 0..4u64 {
            attest_cycle(&mut m, &device, i, format!("cfg-{i}").as_bytes(), 100);
        }
        let report = m.report(false).unwrap();
        assert_eq!(report.replicas, 4);
        assert_eq!(report.configurations, 4);
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
        let mut m = monitor_with_roots(&[&device]);
        attest_cycle(&mut m, &device, 0, b"cfg-a", 900);
        attest_cycle(&mut m, &device, 1, b"cfg-b", 100);
        let report = m.report(false).unwrap();
        assert!(!report.kappa_optimal);
        assert!(report.entropy_bits < 1.0);
        assert!(report.entropy_deficit_bits > 0.0);
        assert!((report.worst_configuration_share - 0.9).abs() < 1e-12);
    }

    #[test]
    fn wrong_nonce_is_rejected() {
        let device = TrustedDevice::new(DeviceKind::Tpm20, 0);
        let mut m = monitor_with_roots(&[&device]);
        let nonce = m.challenge();
        let aik = device.create_aik("aik");
        let quote = aik.quote(
            sha256(b"cfg"),
            nonce + 999,
            KeyPair::from_seed(0).public_key(),
            SimTime::ZERO,
        );
        let err = m
            .ingest_quote(
                ReplicaId::new(0),
                &quote,
                nonce,
                SimTime::ZERO,
                VotingPower::new(1),
            )
            .unwrap_err();
        assert!(matches!(err, CoreError::Attest(_)));
        assert!(m.report(false).is_err(), "nothing registered");
    }

    #[test]
    fn fast_entropy_matches_report_entropy() {
        // The O(1) read a fleet reader polls — a sealed snapshot's
        // `entropy_bits` — is the report's entropy, bit for bit.
        let device = TrustedDevice::new(DeviceKind::Tpm20, 0);
        let mut m = monitor_with_roots(&[&device]);
        attest_cycle(&mut m, &device, 0, b"cfg-a", 700);
        attest_cycle(&mut m, &device, 1, b"cfg-b", 200);
        m.ingest_unattested(ReplicaId::new(2), VotingPower::new(100));
        let snapshot = EpochSnapshot::from_registry(m.registry(), 1);
        for include in [false, true] {
            let fast = snapshot.entropy_bits(include).unwrap();
            let report = m.report(include).unwrap();
            assert_eq!(fast.to_bits(), report.entropy_bits.to_bits());
            assert!(!fast.is_sign_negative());
        }
        let empty = monitor_with_roots(&[&device]);
        assert!(EpochSnapshot::from_registry(empty.registry(), 0)
            .entropy_bits(false)
            .is_err());
        assert!(empty.report(false).is_err());
    }

    #[test]
    fn unattested_bucket_changes_report() {
        let device = TrustedDevice::new(DeviceKind::Tpm20, 0);
        let mut m = monitor_with_roots(&[&device]);
        attest_cycle(&mut m, &device, 0, b"cfg-a", 100);
        m.ingest_unattested(ReplicaId::new(1), VotingPower::new(100));
        let without = m.report(false).unwrap();
        let with = m.report(true).unwrap();
        assert_eq!(without.configurations, 1);
        assert_eq!(with.configurations, 2);
        assert!(with.entropy_bits > without.entropy_bits);
        assert_eq!(with.replicas, 2);
    }

    #[test]
    fn snapshot_report_matches_registry_report() {
        // The monitor's report is the report over a sealed snapshot of its
        // registry, every field bit for bit, whatever the epoch stamp.
        let device = TrustedDevice::new(DeviceKind::Tpm20, 0);
        let mut m = monitor_with_roots(&[&device]);
        attest_cycle(&mut m, &device, 0, b"cfg-a", 700);
        attest_cycle(&mut m, &device, 1, b"cfg-b", 200);
        attest_cycle(&mut m, &device, 2, b"cfg-a", 50);
        m.ingest_unattested(ReplicaId::new(3), VotingPower::new(100));
        let snapshot = EpochSnapshot::from_registry(m.registry(), 1);
        for include in [false, true] {
            assert_eq!(
                outcome(m.report(include)),
                outcome(DiversityReport::from_snapshot(&snapshot, include)),
                "include={include}"
            );
        }
        let empty = EpochSnapshot::empty(TwoTierWeights::flat());
        assert!(DiversityReport::from_snapshot(&empty, false).is_err());
    }

    #[test]
    fn handle_report_matches_snapshot_report_across_seals() {
        use fi_attest::ChurnOp;
        use fi_fleet::ShardedFleet;
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
    type Bits = (usize, usize, VotingPower, usize, bool, [u64; 6]);

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
            r.configurations,
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

        /// The cross-path oracle. A monitor fed quotes and unattested
        /// registrations — re-attestations to another measurement, tier
        /// flips and zero power included — reports, after every chunk,
        /// exactly what a `ShardedFleet` at 1 and 4 shards fed the same
        /// churn as `ChurnOp`s serves once sealed (differentially after the
        /// first seal), read through a cached reader handle: every field
        /// bit for bit, with and without the opaque row, errors included —
        /// an empty monitor errs as an empty fleet's snapshot does.
        #[test]
        fn monitor_report_equals_the_sealed_fleet_report(
            steps in proptest::collection::vec((0u64..10, 0u8..5, 0u64..200), 0..40),
            chunk in 1usize..8,
            unattested_pct in 0u32..=100,
        ) {
            use fi_attest::ChurnOp;
            use fi_fleet::ShardedFleet;
            let weights = TwoTierWeights::new(1.0, f64::from(unattested_pct) / 100.0);
            let device = TrustedDevice::new(DeviceKind::Tpm20, 0);
            for shards in [1usize, 4] {
                let mut verifier = Verifier::new(AttestationPolicy::discovery());
                verifier.trust_endorsement(device.endorsement_key());
                let mut monitor = DiversityMonitor::new(verifier, weights);
                let fleet = ShardedFleet::new(shards, weights);
                let mut handle = fleet.reader();
                for include in [false, true] {
                    prop_assert_eq!(
                        outcome(monitor.report(include)),
                        outcome(DiversityReport::from_snapshot(handle.get(), include)),
                        "empty, include={}", include
                    );
                }
                for (round, ops) in steps.chunks(chunk).enumerate() {
                    let mut batch = Vec::with_capacity(ops.len());
                    for &(id, kind, units) in ops {
                        let (replica, power) = (ReplicaId::new(id), VotingPower::new(units));
                        if kind < 4 {
                            let cfg = format!("cfg-{kind}");
                            attest_cycle(&mut monitor, &device, id, cfg.as_bytes(), units);
                            batch.push(ChurnOp::attest(replica, sha256(cfg.as_bytes()), power));
                        } else {
                            monitor.ingest_unattested(replica, power);
                            batch.push(ChurnOp::Unattested { replica, power });
                        }
                    }
                    fleet.try_ingest_batch(&batch).unwrap();
                    let sealed = fleet.try_seal_epoch().unwrap();
                    prop_assert_eq!(sealed.parent_hash().is_some(), round > 0, "differential");
                    for include in [false, true] {
                        prop_assert_eq!(
                            outcome(monitor.report(include)),
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
