//! Integration: end-to-end resilience scenarios the paper's discussion
//! implies but does not evaluate — network partitions healing under BFT,
//! and device-family revocation (the SGX.Fail story of §III-A) — and the
//! stack oracle: the safety verdict on a sealed epoch equals the offline
//! analyzer's on the same population.

use std::collections::BTreeMap;
use std::sync::Arc;

use fault_independence::fi_attest::{
    AttestError, AttestationPolicy, DeviceKind, TrustedDevice, TwoTierWeights, Verifier,
};
use fault_independence::fi_bft::harness::{run_cluster, ClusterConfig};
use fault_independence::fi_config::generator::AssignmentEntry;
use fault_independence::fi_serve::{FleetServer, ServeConfig};
use fault_independence::fi_simnet::partition::PartitionWindow;
use fault_independence::fi_simnet::{NetworkConfig, Partition};
use fault_independence::fi_types::KeyPair;
use fault_independence::prelude::*;
use proptest::prelude::*;

#[test]
fn bft_survives_a_healing_partition() {
    // A 2/2 split for two seconds: no quorum on either side, so nothing
    // commits during the partition; after healing, the workload completes
    // and no fork exists.
    let network = NetworkConfig::default().partition(PartitionWindow {
        from: SimTime::from_millis(100),
        until: SimTime::from_secs(2),
        partition: Partition::split_at(5, 2), // replicas 0,1 | 2,3 + client
    });
    let config = ClusterConfig::new(4)
        .requests(6)
        .network(network)
        .max_time(SimTime::from_secs(30));
    let report = run_cluster(&config, 77, &[]);
    assert!(report.safety.holds(), "{report:?}");
    assert!(
        report.liveness.all_executed(),
        "requests must complete after the partition heals: {report:?}"
    );
}

#[test]
fn minority_partition_does_not_stall_the_majority() {
    // Isolating one replica leaves n − 1 = 3 = quorum: progress continues
    // during the partition.
    let network = NetworkConfig::default().partition(PartitionWindow {
        from: SimTime::ZERO,
        until: SimTime::MAX,
        partition: Partition::isolate(5, fault_independence::fi_simnet::NodeId::new(3)),
    });
    let config = ClusterConfig::new(4)
        .requests(6)
        .network(network)
        .max_time(SimTime::from_secs(20));
    let report = run_cluster(&config, 78, &[]);
    assert!(report.safety.holds());
    assert!(report.liveness.all_executed(), "{report:?}");
}

#[test]
fn device_family_revocation_sgx_fail_scenario() {
    // §III-A cites "SoK: SGX.Fail" — a whole device family becomes
    // untrustworthy. The verifier's policy drops the family; replicas on
    // that family can no longer attest and fall to the unattested tier,
    // shifting effective power toward provable configurations. One fleet
    // serves both phases, and the second seals differentially.
    let sgx = TrustedDevice::new(DeviceKind::IntelSgx, 1);
    let tpm = TrustedDevice::new(DeviceKind::Tpm20, 2);
    let fleet = Arc::new(ShardedFleet::new(2, TwoTierWeights::new(1.0, 0.25)));
    let serve = ServeConfig {
        epoch_ticks: 1,
        ..ServeConfig::default()
    };
    let server = FleetServer::new(Arc::clone(&fleet), serve);

    // Verifies a fresh quote over `m` and builds the op it admits.
    let attest = |verifier: &mut Verifier, device: &TrustedDevice, id: u64, m: &[u8]| {
        let nonce = verifier.challenge();
        let aik = device.create_aik(&format!("aik-{id}"));
        let quote = aik.quote(
            fault_independence::fi_types::sha256(m),
            nonce,
            KeyPair::from_seed(id).public_key(),
            SimTime::ZERO,
        );
        verifier.verify(&quote, SimTime::ZERO, Some(nonce))?;
        Ok::<_, AttestError>(ChurnOp::from_verified_quote(
            ReplicaId::new(id),
            &quote,
            VotingPower::new(100),
        ))
    };

    // Phase 1: both families trusted.
    let mut verifier = Verifier::new(AttestationPolicy::discovery());
    verifier.trust_endorsement(sgx.endorsement_key());
    verifier.trust_endorsement(tpm.endorsement_key());
    let ops = vec![
        attest(&mut verifier, &sgx, 0, b"cfg-sgx").unwrap(),
        attest(&mut verifier, &tpm, 1, b"cfg-tpm").unwrap(),
    ];
    server.submit(ops).unwrap();
    let first = server.tick().unwrap().expect("every tick seals");
    let before = DiversityReport::from_snapshot(&first, true).unwrap();
    assert_eq!(before.kappa, 2);
    assert_eq!(before.total_effective_power, VotingPower::new(200));

    // Phase 2: SGX.Fail drops. The policy now allows TPMs only.
    let mut strict = Verifier::new(
        AttestationPolicy::builder()
            .allow_device(DeviceKind::Tpm20)
            .build(),
    );
    strict.trust_endorsement(sgx.endorsement_key());
    strict.trust_endorsement(tpm.endorsement_key());
    // The SGX replica's fresh quote is rejected...
    let err = attest(&mut strict, &sgx, 0, b"cfg-sgx").unwrap_err();
    assert_eq!(err, AttestError::DeviceNotAllowed);
    // ...so it re-registers unattested at discounted weight, on the same
    // fleet, and its row flips tier in place.
    let ops = vec![
        ChurnOp::Unattested {
            replica: ReplicaId::new(0),
            power: VotingPower::new(100),
        },
        attest(&mut strict, &tpm, 1, b"cfg-tpm").unwrap(),
    ];
    server.submit(ops).unwrap();
    let second = server.tick().unwrap().expect("every tick seals");
    assert_eq!(
        second.parent_hash(),
        Some(first.content_hash()),
        "differential"
    );

    let after = DiversityReport::from_snapshot(&second, true).unwrap();
    // Effective power: 100 (TPM, full) + 25 (SGX, discounted) = 125;
    // the attested TPM replica now dominates the distribution.
    assert_eq!(after.total_effective_power, VotingPower::new(125));
    assert!(after.worst_configuration_share > 0.79);
    let served = fleet.snapshot();
    let sgx_row = served.devices().find(|d| d.replica == ReplicaId::new(0));
    assert_eq!(
        sgx_row.map(|d| d.tier()),
        Some(fault_independence::fi_attest::ReplicaTier::Unattested)
    );
}

#[test]
fn recommender_fixes_what_the_analyzer_flags() {
    // Close the loop: analyzer flags a violation, recommender replans,
    // analyzer confirms the fix.
    let space =
        ConfigurationSpace::cartesian(&[catalog::operating_systems()[..4].to_vec()]).unwrap();
    let assignment = Assignment::monoculture(&space, 0, 8, VotingPower::new(100)).unwrap();
    let os = &catalog::operating_systems()[0];
    let mut db = VulnerabilityDb::new();
    db.add(Vulnerability::new(
        VulnId::new(0),
        "flagged",
        ComponentSelector::product(os.kind(), os.name()),
    ));

    let analyzer = ResilienceAnalyzer::new(assignment.clone(), db.clone());
    assert!(!analyzer.analyze_at(SimTime::ZERO).safety_condition_holds);

    let plan = Recommender::default().plan(&assignment).unwrap();
    let mut fixed = assignment.clone();
    Recommender::apply(&mut fixed, &plan).unwrap();
    let analyzer = ResilienceAnalyzer::new(fixed, db);
    let verdict = analyzer.analyze_at(SimTime::ZERO);
    assert!(
        verdict.safety_condition_holds,
        "recommendation must restore the safety margin: {verdict:?}"
    );
}

/// Three OSes × two crypto libraries, and four vulnerabilities whose
/// windows overlap: a product on an OS, a product on a library, a whole
/// layer, and a product no configuration runs.
fn oracle_catalogue() -> (ConfigurationSpace, VulnerabilityDb) {
    let (oses, libs) = (catalog::operating_systems(), catalog::crypto_libraries());
    let space = ConfigurationSpace::cartesian(&[oses[..3].to_vec(), libs[..2].to_vec()]).unwrap();
    let selectors = [
        ComponentSelector::product(oses[0].kind(), oses[0].name()),
        ComponentSelector::product(libs[1].kind(), libs[1].name()),
        ComponentSelector::layer(ComponentKind::OperatingSystem),
        ComponentSelector::product(oses[5].kind(), oses[5].name()),
    ];
    let windows = [(10, 20), (15, 40), (30, 31), (5, 50)];
    let db = selectors
        .into_iter()
        .zip(windows)
        .enumerate()
        .map(|(i, (selector, (from, to)))| {
            Vulnerability::new(VulnId::new(i as u64), "v", selector)
                .with_window(SimTime::from_secs(from), SimTime::from_secs(to))
        })
        .collect();
    (space, db)
}

proptest! {
    // Pinned case count: the vendored runner seeds each case from the
    // test name, so the chains are the same on every run.
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The stack oracle. A random population — zero-power replicas
    /// included — is registered through `FleetServer` → `ShardedFleet`
    /// and sealed; churn chunks of re-attestations to other configurations
    /// and departures follow, each sealed (differentially after the
    /// first). At every sealed epoch the verdict on the snapshot equals
    /// `analyze_at` on the mirrored assignment, field for field, at every
    /// vulnerability's window edges.
    #[test]
    fn sealed_verdict_equals_the_analyzer_across_a_churn_chain(
        population in proptest::collection::vec((0usize..6, 0u64..40), 1..30),
        churn in proptest::collection::vec((0usize..30, 0usize..7), 0..48),
        chunk in 1usize..8,
        shards in 1usize..4,
    ) {
        let (space, db) = oracle_catalogue();
        let fleet = Arc::new(ShardedFleet::new(shards, TwoTierWeights::new(1.0, 0.5)));
        let serve = ServeConfig { epoch_ticks: 1, ..ServeConfig::default() };
        let server = FleetServer::new(Arc::clone(&fleet), serve);
        let mut instants = Vec::new();
        for v in db.all() {
            for edge in [v.disclosed_at(), v.patched_at()] {
                instants.extend([SimTime::from_micros(edge.as_micros() - 1), edge]);
            }
        }

        // Step 0 registers the population; each later step is one chunk
        // of the churn, `None` for a departure.
        let n = population.len();
        let first: Vec<(usize, Option<usize>)> =
            population.iter().enumerate().map(|(i, &(config, _))| (i, Some(config))).collect();
        let later = churn.chunks(chunk).map(|c| {
            c.iter().map(|&(who, to)| (who % n, (to < space.len()).then_some(to))).collect()
        });
        let mut mirror = BTreeMap::new();
        for (epoch, step) in std::iter::once(first).chain(later).enumerate() {
            let mut ops = Vec::with_capacity(step.len());
            for (i, to) in step {
                let replica = ReplicaId::new(i as u64);
                let power = VotingPower::new(population[i].1);
                if let Some(config) = to {
                    mirror.insert(replica, (config, power));
                    let m = space.get(config).unwrap().measurement();
                    ops.push(ChurnOp::attest(replica, m, power));
                } else {
                    mirror.remove(&replica);
                    ops.push(ChurnOp::Deregister { replica });
                }
            }
            server.submit(ops).unwrap();
            let snapshot = server.tick().unwrap().expect("every tick seals");
            prop_assert_eq!(snapshot.epoch(), epoch as u64 + 1);
            prop_assert_eq!(snapshot.parent_hash().is_some(), epoch > 0, "differential");

            let entries: Vec<AssignmentEntry> = mirror
                .iter()
                .map(|(&replica, &(config, power))| AssignmentEntry { replica, config, power })
                .collect();
            let Ok(assignment) = Assignment::new(space.clone(), entries) else {
                prop_assert_eq!(snapshot.device_count(), 0);
                continue;
            };
            let analyzer = ResilienceAnalyzer::new(assignment, db.clone());
            for &t in &instants {
                let sealed = ResilienceReport::from_snapshot(&snapshot, &space, &db, t);
                prop_assert_eq!(sealed, analyzer.analyze_at(t), "epoch {} at {}", epoch + 1, t);
            }
        }
    }
}
