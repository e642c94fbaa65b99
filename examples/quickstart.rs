//! Quickstart: the full fault-independence pipeline in one file.
//!
//! Builds a configuration space, attests replicas through simulated TPMs
//! into a fleet, measures diversity on the sealed epoch (paper §IV),
//! analyzes correlated-fault resilience (§II-C), and prints a
//! reconfiguration plan.
//!
//! Run with: `cargo run --example quickstart`

use fault_independence::fi_attest::{
    AttestationPolicy, DeviceKind, TrustedDevice, TwoTierWeights, Verifier,
};
use fault_independence::prelude::*;
use fi_types::KeyPair;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. The attestable configuration space D: 4 OSes x 2 crypto libraries.
    let space = ConfigurationSpace::cartesian(&[
        catalog::operating_systems()[..4].to_vec(),
        catalog::crypto_libraries()[..2].to_vec(),
    ])?;
    println!("configuration space |D| = {}", space.len());

    // 2. Twelve replicas, skewed onto the first two configurations (a
    //    realistic near-monoculture), equal voting power.
    let mut entries = Vec::new();
    for i in 0..12u64 {
        let config = if i < 8 {
            (i % 2) as usize
        } else {
            (i % 8) as usize
        };
        entries.push(fi_config::generator::AssignmentEntry {
            replica: ReplicaId::new(i),
            config,
            power: VotingPower::new(100),
        });
    }
    let assignment = Assignment::new(space.clone(), entries)?;

    // 3. Configuration discovery via remote attestation (§III-B): the
    //    verifier challenges each replica and checks the quote answering
    //    it, and only the verified facts reach the fleet, as churn ops.
    let mut verifier = Verifier::new(AttestationPolicy::discovery());
    let mut devices = Vec::new();
    for i in 0..12u64 {
        let device = TrustedDevice::new(DeviceKind::Tpm20, i);
        verifier.trust_endorsement(device.endorsement_key());
        devices.push(device);
    }
    let mut ops = Vec::new();
    for (i, device) in devices.iter().enumerate() {
        let replica = ReplicaId::new(i as u64);
        let config = assignment.configuration_of(replica).expect("assigned");
        let nonce = verifier.challenge();
        let aik = device.create_aik(&format!("aik-{i}"));
        let vote_key = KeyPair::from_seed(i as u64).public_key();
        let quote = aik.quote(config.measurement(), nonce, vote_key, SimTime::ZERO);
        verifier.verify(&quote, SimTime::ZERO, Some(nonce))?;
        ops.push(ChurnOp::from_verified_quote(
            replica,
            &quote,
            VotingPower::new(100),
        ));
    }
    let fleet = ShardedFleet::new(1, TwoTierWeights::default());
    fleet.try_ingest_batch(&ops)?;

    // 4. Quantify diversity (§IV) on the sealed epoch.
    let snapshot = fleet.try_seal_epoch()?;
    let report = DiversityReport::from_snapshot(&snapshot, false)?;
    println!("\n{report}");

    // 5. Resilience against a real vulnerability window (§II-C):
    //    a critical bug in the most popular OS, patched after one hour.
    let os = &catalog::operating_systems()[0];
    let mut db = VulnerabilityDb::new();
    db.add(
        Vulnerability::new(
            VulnId::new(0),
            "CVE-2038-0001",
            ComponentSelector::product(os.kind(), os.name()),
        )
        .with_window(SimTime::ZERO, SimTime::from_secs(3600)),
    );
    let analyzer = ResilienceAnalyzer::new(assignment.clone(), db);
    let resilience = analyzer.analyze_at(SimTime::from_secs(60));
    println!("\n{resilience}");

    // 6. Fix it: greedy reconfiguration toward kappa-optimality.
    let plan = Recommender::default().plan(&assignment)?;
    println!("\nreconfiguration plan ({} moves):", plan.len());
    for rec in &plan {
        println!(
            "  move {} from config {} to {} (+{:.3} bits -> {:.3})",
            rec.replica, rec.from_config, rec.to_config, rec.gain_bits, rec.entropy_after
        );
    }
    let mut improved = assignment.clone();
    Recommender::apply(&mut improved, &plan)?;
    println!(
        "\nentropy: {:.3} -> {:.3} bits (max possible {:.3})",
        assignment.entropy_bits()?,
        improved.entropy_bits()?,
        fi_entropy::max_entropy_bits(space.len()),
    );
    Ok(())
}

use fault_independence::fi_config;
use fault_independence::fi_entropy;
use fault_independence::fi_types;
