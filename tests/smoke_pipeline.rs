//! Workspace smoke test: the paper's end-to-end pipeline on a 12-replica
//! toy deployment.
//!
//! attest (§III-B) → sealed fleet → entropy report (§IV) → resilience
//! analysis against the §II-C safety condition `f ≥ Σ_i f^i_t` →
//! recommendation (§III-A). If this passes, every layer of the workspace
//! is wired together correctly.

use fault_independence::fi_attest::{
    AttestationPolicy, DeviceKind, TrustedDevice, TwoTierWeights, Verifier,
};
use fault_independence::fi_types::KeyPair;
use fault_independence::prelude::*;

const REPLICAS: u64 = 12;
const POWER_EACH: u64 = 100;

/// 4 operating systems x 3 crypto libraries = 12 configurations, so the
/// round-robin assignment puts exactly one replica on each.
fn toy_space() -> ConfigurationSpace {
    ConfigurationSpace::cartesian(&[
        catalog::operating_systems()[..4].to_vec(),
        catalog::crypto_libraries()[..3].to_vec(),
    ])
    .expect("toy space is well-formed")
}

#[test]
fn end_to_end_pipeline_on_toy_assignment() {
    // --- Configuration discovery: every replica attests its stack. ---
    let space = toy_space();
    let assignment =
        Assignment::round_robin(&space, REPLICAS as usize, VotingPower::new(POWER_EACH))
            .expect("12 replicas over 12 configurations");

    let mut verifier = Verifier::new(AttestationPolicy::discovery());
    let devices: Vec<TrustedDevice> = (0..REPLICAS)
        .map(|i| {
            let device = TrustedDevice::new(DeviceKind::ALL[(i % 5) as usize], i);
            verifier.trust_endorsement(device.endorsement_key());
            device
        })
        .collect();
    let fleet = ShardedFleet::new(1, TwoTierWeights::flat());
    let mut ops = Vec::new();
    for i in 0..REPLICAS {
        let replica = ReplicaId::new(i);
        let config = assignment
            .configuration_of(replica)
            .expect("replica is assigned");
        let nonce = verifier.challenge();
        let quote = devices[i as usize].create_aik("aik").quote(
            config.measurement(),
            nonce,
            KeyPair::from_seed(i).public_key(),
            SimTime::from_secs(1),
        );
        verifier
            .verify(&quote, SimTime::from_secs(1), Some(nonce))
            .expect("fresh quote from a trusted device verifies");
        ops.push(ChurnOp::from_verified_quote(
            replica,
            &quote,
            VotingPower::new(POWER_EACH),
        ));
    }
    fleet.try_ingest_batch(&ops).expect("in-memory ingest");

    // --- Diversity quantification: 12 replicas on 12 distinct configs is
    // kappa-optimal with log2(12) bits of configuration entropy. ---
    let snapshot = fleet.try_seal_epoch().expect("in-memory seal");
    let diversity = DiversityReport::from_snapshot(&snapshot, false).expect("fleet is non-empty");
    assert_eq!(diversity.replicas, REPLICAS as usize);
    assert_eq!(diversity.kappa, 12);
    assert!(
        diversity.kappa_optimal,
        "uniform assignment must be kappa-optimal"
    );
    assert!((diversity.entropy_bits - 12f64.log2()).abs() < 1e-9);
    assert!((diversity.entropy_bits - assignment.entropy_bits().unwrap()).abs() < 1e-9);

    // --- Resilience analysis: one critical OS zero-day, disclosed at t=0,
    // patched at t=1h. It touches 3 of 12 configurations (one OS x three
    // crypto libraries) = 300 power units, under f = (1200 - 1) / 3 = 399,
    // so the §II-C safety condition f >= sum_i f^i_t must HOLD inside the
    // window. ---
    let vulnerable_os = &catalog::operating_systems()[0];
    let mut db = VulnerabilityDb::new();
    db.add(
        Vulnerability::new(
            VulnId::new(0),
            "CVE-2038-0001",
            ComponentSelector::product(vulnerable_os.kind(), vulnerable_os.name()),
        )
        .with_window(SimTime::ZERO, SimTime::from_secs(3600)),
    );
    let analyzer = ResilienceAnalyzer::new(assignment.clone(), db);

    let in_window = analyzer.analyze_at(SimTime::from_secs(10));
    assert_eq!(in_window.active_vulnerabilities, 1);
    assert_eq!(
        in_window.total_power,
        VotingPower::new(REPLICAS * POWER_EACH)
    );
    assert_eq!(in_window.sum_compromised, VotingPower::new(3 * POWER_EACH));
    assert_eq!(
        in_window.f_bound,
        VotingPower::new((REPLICAS * POWER_EACH - 1) / 3)
    );
    assert!(
        in_window.safety_condition_holds,
        "3 of 12 replicas compromised stays within f: {in_window:?}"
    );
    assert_eq!(
        in_window.union_compromised,
        VotingPower::new(3 * POWER_EACH)
    );

    // After the patch window closes nothing is compromised.
    let after_patch = analyzer.analyze_at(SimTime::from_secs(2 * 3600));
    assert_eq!(after_patch.active_vulnerabilities, 0);
    assert_eq!(after_patch.union_compromised, VotingPower::new(0));
    assert!(after_patch.safety_condition_holds);

    // --- Diversity management: a skewed variant of the same deployment
    // (everything piled on one configuration) must trigger recommendations
    // that provably raise entropy back up. ---
    let mut skewed =
        Assignment::monoculture(&space, 0, REPLICAS as usize, VotingPower::new(POWER_EACH))
            .expect("monoculture builds");
    let before_bits = skewed.entropy_bits().unwrap();
    let plan = Recommender::default()
        .plan(&skewed)
        .expect("planning succeeds");
    assert!(!plan.is_empty(), "a monoculture must yield moves");
    Recommender::apply(&mut skewed, &plan).expect("plan applies cleanly");
    let after_bits = skewed.entropy_bits().unwrap();
    assert!(
        after_bits > before_bits + 1.0,
        "recommendations must raise entropy: {before_bits} -> {after_bits}"
    );
    assert_eq!(
        skewed.total_power(),
        VotingPower::new(REPLICAS * POWER_EACH)
    );
}
