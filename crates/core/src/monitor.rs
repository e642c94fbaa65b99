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
/// its [`Verifier`], and keeps an [`AttestedRegistry`] from which it derives
/// the diversity report.
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

    /// The Shannon entropy (bits) of the current configuration
    /// distribution, folded from the registry's incrementally maintained
    /// integer buckets — O(distinct measurements), no distribution rebuild,
    /// and the bits a snapshot sealed from the same content reports. This is
    /// the continuous-monitoring path; use [`report`](Self::report) for the
    /// full metric set.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Entropy`] when no power is registered.
    pub fn entropy_bits(&self, include_unattested: bool) -> Result<f64, CoreError> {
        Ok(self.registry.entropy_bits(include_unattested)?)
    }

    /// Produces the diversity report. With `include_unattested`, all
    /// unattested power is counted as one opaque configuration (the
    /// pessimistic reading).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Entropy`] when no power is registered.
    pub fn report(&self, include_unattested: bool) -> Result<DiversityReport, CoreError> {
        let dist = self.registry.distribution(include_unattested)?;
        Ok(DiversityReport::from_parts(
            &dist,
            self.registry.len(),
            self.registry.total_effective_power(),
            self.registry.entropy_bits(include_unattested)?,
        ))
    }
}

impl DiversityReport {
    /// Derives the full diversity report from a sealed fleet snapshot —
    /// the serving-layer counterpart of [`DiversityMonitor::report`]: same
    /// metric set, computed lock-free from an immutable [`EpochSnapshot`]
    /// instead of the live registry. Because the snapshot's distribution
    /// mirrors the registry's row order exactly, a report taken through
    /// either path over the same fleet content agrees on every batch
    /// metric bit-for-bit.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Entropy`] when the snapshot holds no power.
    pub fn from_snapshot(
        snapshot: &EpochSnapshot,
        include_unattested: bool,
    ) -> Result<DiversityReport, CoreError> {
        let dist = snapshot.distribution(include_unattested)?;
        Ok(DiversityReport::from_parts(
            &dist,
            snapshot.device_count(),
            snapshot.total_effective_power(),
            snapshot.entropy_bits(include_unattested)?,
        ))
    }

    /// [`from_snapshot`](Self::from_snapshot) over a fleet reader's cached
    /// [`SnapshotHandle`](fi_fleet::SnapshotHandle) — the shared-nothing
    /// monitoring entry point. The handle revalidates against the fleet's
    /// epoch stamp with one relaxed load (no lock, no `Arc` clone in
    /// steady state), so a monitoring thread polling reports between
    /// seals touches no shared cache line at all; the report itself is
    /// derived from whichever snapshot the handle currently serves, with
    /// metrics bit-identical to `from_snapshot` on that same snapshot.
    ///
    /// # Errors
    ///
    /// As [`from_snapshot`](Self::from_snapshot).
    pub fn from_handle(
        handle: &mut fi_fleet::SnapshotHandle<'_>,
        include_unattested: bool,
    ) -> Result<DiversityReport, CoreError> {
        Self::from_snapshot(handle.get(), include_unattested)
    }

    /// The shared constructor both report paths use: every distribution-
    /// derived metric comes from one place, so the registry and snapshot
    /// paths cannot drift.
    fn from_parts(
        dist: &fi_entropy::Distribution,
        replicas: usize,
        total_effective_power: VotingPower,
        entropy_bits: f64,
    ) -> DiversityReport {
        let optimality = KappaOptimality::check(dist, 1e-9);
        DiversityReport {
            replicas,
            configurations: dist.support_size(),
            total_effective_power,
            entropy_bits,
            min_entropy_bits: min_entropy_bits(dist),
            effective_configurations: effective_configurations(dist),
            evenness: evenness(dist),
            kappa: optimality.kappa(),
            kappa_optimal: optimality.is_optimal(),
            entropy_deficit_bits: optimality.entropy_deficit_bits(),
            worst_configuration_share: dist.max_probability(),
        }
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
        let device = TrustedDevice::new(DeviceKind::Tpm20, 0);
        let mut m = monitor_with_roots(&[&device]);
        attest_cycle(&mut m, &device, 0, b"cfg-a", 700);
        attest_cycle(&mut m, &device, 1, b"cfg-b", 200);
        m.ingest_unattested(ReplicaId::new(2), VotingPower::new(100));
        for include in [false, true] {
            let fast = m.entropy_bits(include).unwrap();
            let report = m.report(include).unwrap();
            assert_eq!(fast.to_bits(), report.entropy_bits.to_bits());
            assert!(!fast.is_sign_negative());
        }
        let empty = monitor_with_roots(&[&device]);
        assert!(empty.entropy_bits(false).is_err());
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
        let device = TrustedDevice::new(DeviceKind::Tpm20, 0);
        let mut m = monitor_with_roots(&[&device]);
        attest_cycle(&mut m, &device, 0, b"cfg-a", 700);
        attest_cycle(&mut m, &device, 1, b"cfg-b", 200);
        attest_cycle(&mut m, &device, 2, b"cfg-a", 50);
        m.ingest_unattested(ReplicaId::new(3), VotingPower::new(100));
        let snapshot = fi_fleet::EpochSnapshot::from_registry(m.registry(), 1);
        for include in [false, true] {
            let via_registry = m.report(include).unwrap();
            let via_snapshot = DiversityReport::from_snapshot(&snapshot, include).unwrap();
            // Batch metrics come from bit-identical distributions, and the
            // entropy read is the same fold over the same buckets.
            assert_eq!(
                via_registry.entropy_bits.to_bits(),
                via_snapshot.entropy_bits.to_bits(),
                "include={include}"
            );
            assert_eq!(via_registry.replicas, via_snapshot.replicas);
            assert_eq!(via_registry.configurations, via_snapshot.configurations);
            assert_eq!(
                via_registry.total_effective_power,
                via_snapshot.total_effective_power
            );
            assert_eq!(
                via_registry.min_entropy_bits.to_bits(),
                via_snapshot.min_entropy_bits.to_bits()
            );
            assert_eq!(
                via_registry.evenness.to_bits(),
                via_snapshot.evenness.to_bits()
            );
            assert_eq!(via_registry.kappa, via_snapshot.kappa);
            assert_eq!(via_registry.kappa_optimal, via_snapshot.kappa_optimal);
            assert_eq!(
                via_registry.worst_configuration_share.to_bits(),
                via_snapshot.worst_configuration_share.to_bits()
            );
        }
        let empty = fi_fleet::EpochSnapshot::empty(TwoTierWeights::flat());
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
        assert!(DiversityReport::from_handle(&mut handle, true).is_err());
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
                let via_handle = DiversityReport::from_handle(&mut handle, include).unwrap();
                let via_snapshot =
                    DiversityReport::from_snapshot(&fleet.snapshot(), include).unwrap();
                assert_eq!(via_handle, via_snapshot);
            }
            assert_eq!(handle.cached_epoch(), round + 1);
        }
    }
}
