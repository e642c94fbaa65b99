//! Integration: attestation devices → quotes → verifier → fleet → diversity
//! report → recommender, across `fi-attest`, `fi-fleet`, `fi-config`,
//! `fi-entropy`, and the facade — and the admission gate: a quote the
//! verifier rejects changes nothing a seal serves.

use fault_independence::fi_attest::{
    AttestError, AttestationKey, AttestationPolicy, DeviceKind, Quote, TrustedDevice,
    TwoTierWeights, Verifier,
};
use fault_independence::fi_types::{sha256, KeyPair};
use fault_independence::prelude::*;

/// Verifies `quote` as the answer to `nonce` and, only if it passes, ships
/// the verified facts to `fleet` as one churn op registering `replica` at
/// `power`.
fn admit(
    verifier: &Verifier,
    fleet: &ShardedFleet,
    (replica, power): (u64, u64),
    quote: &Quote,
    nonce: u64,
    now: SimTime,
) -> Result<(), AttestError> {
    verifier.verify(quote, now, Some(nonce))?;
    let op = ChurnOp::from_verified_quote(ReplicaId::new(replica), quote, VotingPower::new(power));
    fleet.try_ingest_batch(&[op]).expect("in-memory ingest");
    Ok(())
}

struct Pipeline {
    verifier: Verifier,
    devices: Vec<TrustedDevice>,
    fleet: ShardedFleet,
}

fn pipeline(n: u64, weights: TwoTierWeights) -> Pipeline {
    let mut verifier = Verifier::new(AttestationPolicy::discovery());
    let devices: Vec<TrustedDevice> = (0..n)
        .map(|i| {
            let kind = DeviceKind::ALL[(i % 5) as usize];
            let d = TrustedDevice::new(kind, i);
            verifier.trust_endorsement(d.endorsement_key());
            d
        })
        .collect();
    Pipeline {
        verifier,
        devices,
        fleet: ShardedFleet::new(2, weights),
    }
}

fn attest(p: &mut Pipeline, replica: u64, config: &Configuration, power: u64) {
    let nonce = p.verifier.challenge();
    let aik = p.devices[replica as usize].create_aik("aik");
    let quote = aik.quote(
        config.measurement(),
        nonce,
        KeyPair::from_seed(replica).public_key(),
        SimTime::from_secs(1),
    );
    admit(
        &p.verifier,
        &p.fleet,
        (replica, power),
        &quote,
        nonce,
        SimTime::from_secs(1),
    )
    .expect("verified quote accepted");
}

fn unattested(p: &Pipeline, replica: u64, power: u64) {
    let op = ChurnOp::Unattested {
        replica: ReplicaId::new(replica),
        power: VotingPower::new(power),
    };
    p.fleet.try_ingest_batch(&[op]).expect("in-memory ingest");
}

/// Seals the fleet and reads its diversity report.
fn report(p: &Pipeline, include_unattested: bool) -> DiversityReport {
    let snapshot = p.fleet.try_seal_epoch().expect("in-memory seal");
    DiversityReport::from_snapshot(&snapshot, include_unattested).expect("fleet holds power")
}

#[test]
fn attested_fleet_reports_real_configuration_entropy() {
    let space = ConfigurationSpace::cartesian(&[
        catalog::operating_systems()[..4].to_vec(),
        catalog::crypto_libraries()[..2].to_vec(),
    ])
    .unwrap();
    let assignment = Assignment::round_robin(&space, 16, VotingPower::new(50)).unwrap();
    let mut p = pipeline(16, TwoTierWeights::flat());
    for i in 0..16u64 {
        let config = assignment.configuration_of(ReplicaId::new(i)).unwrap();
        attest(&mut p, i, config, 50);
    }
    let report = report(&p, false);
    // 16 replicas round-robin over 8 configurations: kappa-optimal, 3 bits.
    assert_eq!(report.replicas, 16);
    assert_eq!(report.kappa, 8);
    assert!(report.kappa_optimal);
    assert!((report.entropy_bits - 3.0).abs() < 1e-9);
    // The sealed fleet's view agrees with the assignment's own entropy.
    assert!((report.entropy_bits - assignment.entropy_bits().unwrap()).abs() < 1e-9);
}

#[test]
fn monitor_report_feeds_recommender_to_optimality() {
    let space =
        ConfigurationSpace::cartesian(&[catalog::operating_systems()[..4].to_vec()]).unwrap();
    // Skewed assignment: 5 replicas on config 0, one each on 1..3.
    let mut entries = Vec::new();
    for i in 0..8u64 {
        entries.push(fault_independence::fi_config::generator::AssignmentEntry {
            replica: ReplicaId::new(i),
            config: if i < 5 { 0 } else { (i - 4) as usize },
            power: VotingPower::new(100),
        });
    }
    let assignment = Assignment::new(space, entries).unwrap();
    let before = assignment.entropy_bits().unwrap();

    let plan = Recommender::default().plan(&assignment).unwrap();
    assert!(!plan.is_empty());
    let mut fixed = assignment.clone();
    Recommender::apply(&mut fixed, &plan).unwrap();
    let after = fixed.entropy_bits().unwrap();
    assert!(after > before);
    // 8 replicas over 4 configs can reach exactly 2 bits.
    assert!((after - 2.0).abs() < 1e-9, "after = {after}");
}

#[test]
fn two_tier_weights_discount_unattested_power_end_to_end() {
    let space =
        ConfigurationSpace::cartesian(&[catalog::operating_systems()[..2].to_vec()]).unwrap();
    let config = space.get(0).unwrap().clone();
    let mut p = pipeline(4, TwoTierWeights::new(1.0, 0.25));
    // Two attested replicas on the same config, two unattested whales.
    attest(&mut p, 0, &config, 100);
    attest(&mut p, 1, &config, 100);
    unattested(&p, 2, 400);
    unattested(&p, 3, 400);
    let report = report(&p, true);
    // Unattested raw power 800 is discounted to 200; attested 200 at full
    // weight: the opaque bucket is half, not 80%.
    assert_eq!(report.total_effective_power, VotingPower::new(400));
    assert!((report.worst_configuration_share - 0.5).abs() < 1e-9);
}

#[test]
fn analyzer_and_monitor_agree_on_worst_share() {
    let space =
        ConfigurationSpace::cartesian(&[catalog::crypto_libraries()[..3].to_vec()]).unwrap();
    let assignment = Assignment::round_robin(&space, 9, VotingPower::new(10)).unwrap();
    let ranking = fault_independence::fi_config::closure::component_exposure_ranking(&assignment);
    let dist = assignment.distribution().unwrap();
    let worst_structural = ranking[0].power.share_of(assignment.total_power());
    assert!((worst_structural - dist.max_probability()).abs() < 1e-9);
}

/// A bad quote answering the given challenge, and the error it must get.
type BadQuote<'a> = dyn Fn(u64) -> (Quote, AttestError) + 'a;

#[test]
fn rejected_quotes_leave_the_fleet_untouched() {
    // One verifier whose policy every bad quote below fails in exactly one
    // way: TPMs only, quotes at most a minute old, one AIK revoked.
    let max_age = SimTime::from_secs(60);
    let now = SimTime::from_secs(100);
    let tpm = TrustedDevice::new(DeviceKind::Tpm20, 1);
    let sgx = TrustedDevice::new(DeviceKind::IntelSgx, 2);
    let rogue = TrustedDevice::new(DeviceKind::Tpm20, 3);
    let mut verifier = Verifier::new(
        AttestationPolicy::builder()
            .allow_device(DeviceKind::Tpm20)
            .max_age(max_age)
            .build(),
    );
    verifier.trust_endorsement(tpm.endorsement_key());
    verifier.trust_endorsement(sgx.endorsement_key());
    let (aik, revoked) = (tpm.create_aik("aik"), tpm.create_aik("revoked"));
    verifier.revoke(revoked.public_key());
    let (rogue_aik, sgx_aik) = (rogue.create_aik("aik"), sgx.create_aik("aik"));
    let vote_key = KeyPair::from_seed(9).public_key();
    let quote = |key: &AttestationKey, nonce: u64, at: SimTime| {
        key.quote(sha256(b"cfg-b"), nonce, vote_key, at)
    };

    // Two replicas admitted on cfg-a and sealed.
    let fleet = ShardedFleet::new(2, TwoTierWeights::default());
    for replica in 0..2 {
        let nonce = verifier.challenge();
        let good = aik.quote(sha256(b"cfg-a"), nonce, vote_key, now);
        admit(&verifier, &fleet, (replica, 100), &good, nonce, now).unwrap();
    }
    let sealed = fleet.try_seal_epoch().unwrap();
    let before = (sealed.content_hash(), sealed.device_count());
    assert_eq!(before.1, 2);

    let long_ago = SimTime::from_secs(10);
    let cases: [(&str, &BadQuote); 6] = [
        ("bad signature", &|n| {
            let forged = quote(&aik, n, now).with_measurement(sha256(b"cfg-c"));
            (forged, AttestError::BadSignature)
        }),
        ("untrusted endorsement", &|n| {
            (quote(&rogue_aik, n, now), AttestError::UntrustedEndorsement)
        }),
        ("stale", &|n| {
            let stale = AttestError::StaleQuote {
                quoted_at: long_ago,
                now,
                max_age,
            };
            (quote(&aik, n, long_ago), stale)
        }),
        ("wrong nonce", &|n| {
            let wrong = AttestError::NonceMismatch {
                expected: n,
                actual: n + 1,
            };
            (quote(&aik, n + 1, now), wrong)
        }),
        ("revoked AIK", &|n| {
            (quote(&revoked, n, now), AttestError::RevokedKey)
        }),
        ("disallowed device", &|n| {
            (quote(&sgx_aik, n, now), AttestError::DeviceNotAllowed)
        }),
    ];
    for (i, (name, case)) in (0u64..).zip(cases) {
        let nonce = verifier.challenge();
        let (bad, expected) = case(nonce);
        // Each quote would both move an admitted replica to cfg-b and add
        // a new one, so any op that got through would show in the seal.
        for replica in [0, 10 + i] {
            let refused = admit(&verifier, &fleet, (replica, 100), &bad, nonce, now);
            assert_eq!(refused, Err(expected.clone()), "{name}");
        }
        let after = fleet.try_seal_epoch().unwrap();
        assert_eq!(
            (after.content_hash(), after.device_count()),
            before,
            "{name}"
        );
    }
}
