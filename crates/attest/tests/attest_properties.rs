//! Property-based tests for attestation: quote tamper-evidence across all
//! fields, commitment binding/hiding, and registry accounting.

use fi_attest::prelude::*;
use fi_types::{sha256, KeyPair, ReplicaId, SimTime, VotingPower};
use proptest::prelude::*;

fn any_device_kind() -> impl Strategy<Value = DeviceKind> {
    prop_oneof![
        Just(DeviceKind::Tpm20),
        Just(DeviceKind::IntelSgx),
        Just(DeviceKind::ArmTrustZone),
        Just(DeviceKind::AmdPsp),
        Just(DeviceKind::IbmSsc),
    ]
}

proptest! {
    // Pinned case count: the vendored proptest runner derives every case
    // seed from the test name, so this suite is reproducible bit-for-bit.
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A freshly produced quote always passes signature checks, for any
    /// device kind, seed, nonce, timestamp, and payload.
    #[test]
    fn honest_quotes_verify(
        kind in any_device_kind(),
        device_seed in 0u64..10_000,
        vote_seed in 0u64..10_000,
        nonce in any::<u64>(),
        at_us in 0u64..1_000_000_000,
        payload in any::<[u8; 24]>(),
    ) {
        let device = TrustedDevice::new(kind, device_seed);
        let aik = device.create_aik("prop");
        let quote = aik.quote(
            sha256(payload),
            nonce,
            KeyPair::from_seed(vote_seed).public_key(),
            SimTime::from_micros(at_us),
        );
        prop_assert!(quote.signatures_valid());

        let mut verifier = Verifier::new(AttestationPolicy::discovery());
        verifier.trust_endorsement(device.endorsement_key());
        prop_assert!(verifier
            .verify(&quote, SimTime::from_micros(at_us), Some(nonce))
            .is_ok());
    }

    /// Any measurement substitution is detected.
    #[test]
    fn tampered_measurement_detected(
        payload in any::<[u8; 24]>(),
        tamper in any::<[u8; 24]>(),
        seed in 0u64..1_000,
    ) {
        prop_assume!(payload != tamper);
        let device = TrustedDevice::new(DeviceKind::Tpm20, seed);
        let aik = device.create_aik("prop");
        let quote = aik.quote(
            sha256(payload),
            0,
            KeyPair::from_seed(seed).public_key(),
            SimTime::ZERO,
        );
        let tampered = quote.with_measurement(sha256(tamper));
        prop_assert!(!tampered.signatures_valid());
    }

    /// Commitments bind (different openings rejected) and hide (different
    /// salts give different digests).
    #[test]
    fn commitment_binding_and_hiding(
        m1 in any::<[u8; 16]>(),
        m2 in any::<[u8; 16]>(),
        s1 in any::<u64>(),
        s2 in any::<u64>(),
    ) {
        let c = ConfigCommitment::commit(sha256(m1), s1);
        prop_assert!(c.open(sha256(m1), s1).is_ok());
        if m1 != m2 {
            prop_assert!(c.open(sha256(m2), s1).is_err());
        }
        if s1 != s2 {
            prop_assert!(c.open(sha256(m1), s2).is_err());
            prop_assert_ne!(
                c.digest(),
                ConfigCommitment::commit(sha256(m1), s2).digest()
            );
        }
    }

    /// Registry accounting: the bucket rows and the opaque power equal the
    /// sums of per-replica effective powers on each tier, for arbitrary
    /// tier mixes and weights.
    #[test]
    fn registry_power_accounting(
        powers in proptest::collection::vec(1u64..10_000, 1..20),
        attested_mask in proptest::collection::vec(any::<bool>(), 20),
        unattested_weight_pct in 0u32..=100,
    ) {
        let weights = TwoTierWeights::new(1.0, f64::from(unattested_weight_pct) / 100.0);
        let mut registry = AttestedRegistry::new(weights);
        let device = TrustedDevice::new(DeviceKind::Tpm20, 0);
        let mut verifier = Verifier::new(AttestationPolicy::discovery());
        verifier.trust_endorsement(device.endorsement_key());

        for (i, &power) in powers.iter().enumerate() {
            let replica = ReplicaId::new(i as u64);
            if attested_mask[i] {
                let aik = device.create_aik(&format!("aik-{i}"));
                let quote = aik.quote(
                    sha256(format!("cfg-{}", i % 3).as_bytes()),
                    0,
                    KeyPair::from_seed(i as u64).public_key(),
                    SimTime::ZERO,
                );
                verifier.verify(&quote, SimTime::ZERO, Some(0)).unwrap();
                registry.apply(&ChurnOp::from_verified_quote(
                    replica,
                    &quote,
                    VotingPower::new(power),
                ));
            } else {
                registry.apply(&ChurnOp::Unattested {
                    replica,
                    power: VotingPower::new(power),
                });
            }
        }
        // Per-replica effective powers, summed per tier.
        let (mut attested, mut unattested) = (VotingPower::ZERO, VotingPower::ZERO);
        for d in registry.devices() {
            let i = d.replica.as_u64() as usize;
            prop_assert_eq!(d.power, VotingPower::new(powers[i]));
            if d.tier() == ReplicaTier::Attested {
                prop_assert!(attested_mask[i]);
                attested += d.power.scaled(weights.attested());
            } else {
                prop_assert!(!attested_mask[i]);
                unattested += d.power.scaled(weights.unattested());
            }
        }
        prop_assert_eq!(registry.len(), powers.len());
        // The rows a seal reads carry exactly the effective power.
        let row_total: VotingPower = registry.bucket_rows().map(|(_, p)| p).sum();
        prop_assert_eq!(row_total, attested);
        prop_assert_eq!(registry.unattested_power(), unattested);
    }
}
