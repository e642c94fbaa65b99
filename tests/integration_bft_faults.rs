//! Integration: the paper's §II-C safety condition checked operationally —
//! vulnerability database → correlated fault sets → PBFT fault injection →
//! safety audit, across `fi-config`, `fi-simnet`, `fi-bft`, and the facade.

use fault_independence::fi_bft::harness::{
    faults_from_vulnerability, run_cluster, ClusterConfig, ClusterReport, ScheduledFault,
};
use fault_independence::fi_bft::Behavior;
use fault_independence::prelude::*;

/// A zero-day in `product`, live from 1 ms and never patched.
fn zero_day(product: &Component) -> Vulnerability {
    Vulnerability::new(
        VulnId::new(0),
        format!("zero-day-{}", product.name()),
        ComponentSelector::product(product.kind(), product.name()),
    )
    .with_window(SimTime::from_millis(1), SimTime::MAX)
}

#[test]
fn analyzer_predicts_bft_outcome_diverse_vs_monoculture() {
    let space =
        ConfigurationSpace::cartesian(&[catalog::operating_systems()[..4].to_vec()]).unwrap();
    let vuln = zero_day(&catalog::operating_systems()[0]);
    let mut db = VulnerabilityDb::new();
    db.add(vuln.clone());

    // Diverse: 1 of 4 replicas affected -> analyzer says safe -> BFT safe.
    let diverse = Assignment::round_robin(&space, 4, VotingPower::new(100)).unwrap();
    let analyzer = ResilienceAnalyzer::new(diverse.clone(), db.clone());
    let prediction = analyzer.analyze_at(SimTime::from_secs(1));
    assert!(prediction.safety_condition_holds);

    let faults = faults_from_vulnerability(&diverse, &vuln, Behavior::Equivocate);
    assert_eq!(faults.len(), 1);
    let report = run_cluster(
        &ClusterConfig::for_assignment(&diverse)
            .requests(8)
            .max_time(SimTime::from_secs(30)),
        3,
        &faults,
    );
    assert!(report.safety.holds());
    assert!(report.liveness.all_executed(), "{report:?}");

    // Monoculture: all 4 replicas affected -> analyzer predicts violation
    // -> the cluster live-forks or stalls (here: nothing honest remains, so
    // the audit trivially holds but liveness for honest clients is gone; we
    // use a 2-of-4 shared stack to get the observable fork).
    let shared_two = Assignment::new(
        space.clone(),
        vec![
            fault_independence::fi_config::generator::AssignmentEntry {
                replica: ReplicaId::new(0),
                config: 0,
                power: VotingPower::new(100),
            },
            fault_independence::fi_config::generator::AssignmentEntry {
                replica: ReplicaId::new(1),
                config: 0,
                power: VotingPower::new(100),
            },
            fault_independence::fi_config::generator::AssignmentEntry {
                replica: ReplicaId::new(2),
                config: 1,
                power: VotingPower::new(100),
            },
            fault_independence::fi_config::generator::AssignmentEntry {
                replica: ReplicaId::new(3),
                config: 2,
                power: VotingPower::new(100),
            },
        ],
    )
    .unwrap();
    let analyzer = ResilienceAnalyzer::new(shared_two.clone(), db);
    let prediction = analyzer.analyze_at(SimTime::from_secs(1));
    // 200 of 400 units compromised > f = 133.
    assert!(!prediction.safety_condition_holds);

    let faults = faults_from_vulnerability(&shared_two, &vuln, Behavior::Equivocate);
    assert_eq!(faults.len(), 2);
    let report = run_cluster(
        &ClusterConfig::for_assignment(&shared_two)
            .requests(6)
            .max_time(SimTime::from_secs(30)),
        11,
        &faults,
    );
    assert!(
        !report.safety.holds(),
        "2 > f = 1 colluding equivocators must fork: {report:?}"
    );
}

#[test]
fn vulnerability_window_gates_the_compromise() {
    // A vulnerability disclosed long after the workload finishes changes
    // nothing.
    let space =
        ConfigurationSpace::cartesian(&[catalog::operating_systems()[..2].to_vec()]).unwrap();
    let assignment = Assignment::round_robin(&space, 4, VotingPower::new(100)).unwrap();
    let late = Vulnerability::new(
        VulnId::new(1),
        "too-late",
        ComponentSelector::layer(fault_independence::fi_config::ComponentKind::OperatingSystem),
    )
    .with_window(SimTime::from_secs(3_000), SimTime::from_secs(4_000));
    let faults = faults_from_vulnerability(&assignment, &late, Behavior::Equivocate);
    // Faults are scheduled at disclosure (t = 3000s), beyond max_time.
    let report = run_cluster(
        &ClusterConfig::for_assignment(&assignment)
            .requests(6)
            .max_time(SimTime::from_secs(10)),
        5,
        &faults,
    );
    assert!(report.safety.holds());
    assert!(report.liveness.all_executed());
}

#[test]
fn crash_flavor_from_vulnerability_degrades_liveness_not_safety() {
    let space =
        ConfigurationSpace::cartesian(&[catalog::operating_systems()[..2].to_vec()]).unwrap();
    // 4 replicas over 2 OSes: one OS bug crashes 2 > f = 1.
    let assignment = Assignment::round_robin(&space, 4, VotingPower::new(100)).unwrap();
    let vuln = zero_day(&catalog::operating_systems()[0]);
    let faults = faults_from_vulnerability(&assignment, &vuln, Behavior::Crashed);
    assert_eq!(faults.len(), 2);
    let report = run_cluster(
        &ClusterConfig::for_assignment(&assignment)
            .requests(6)
            .max_time(SimTime::from_secs(8)),
        7,
        &faults,
    );
    assert!(report.safety.holds());
    assert!(
        !report.liveness.all_executed(),
        "2 crashed replicas of 4 cannot form quorums: {report:?}"
    );
}

/// Quorums count power, not heads. Five replicas carrying 3, 1, 1, 1 and 1
/// units total 7, so `f` is 2 units and a quorum is 5. The 3-unit replica
/// is replica 1, so view 0's primary stays up and only the tallies decide.
#[test]
fn quorums_count_power_not_heads() {
    let space = os_space(4);
    let powers = [1, 3, 1, 1, 1].map(VotingPower::new);
    let assignment = Assignment::with_powers(&space, &powers).unwrap();
    let config = ClusterConfig::for_assignment(&assignment)
        .requests(4)
        .max_time(SimTime::from_secs(5));
    assert_eq!(config.quorum().f_power(), VotingPower::new(2));
    assert_eq!(config.quorum().quorum_power(), VotingPower::new(5));
    let crash = |replica| ScheduledFault {
        at: SimTime::from_millis(1),
        replica,
        behavior: Behavior::Crashed,
    };

    // The 3-unit replica crashed: the other four are a head-count quorum
    // of five, but hold 4 units, one short of 5. Nothing executes, and
    // nothing forks.
    let report = run_cluster(&config, 31, &[crash(1)]);
    assert!(report.safety.holds(), "{report:?}");
    assert_eq!(report.liveness.executed_requests, 0, "{report:?}");

    // One 1-unit replica crashed: 6 units remain, and every request
    // executes.
    let report = run_cluster(&config, 32, &[crash(4)]);
    assert!(report.safety.holds(), "{report:?}");
    assert!(report.liveness.all_executed(), "{report:?}");
}

#[test]
fn message_overhead_grows_quadratically_with_n() {
    // The Proposition-3 trade-off's cost side, measured on the real
    // protocol: messages per request grow ~n^2.
    let per_request = |n: usize| {
        let config = ClusterConfig::new(n)
            .requests(5)
            .max_time(SimTime::from_secs(20));
        let report = run_cluster(&config, 9, &[]);
        assert!(report.liveness.all_executed());
        report.messages_sent as f64 / 5.0
    };
    let small = per_request(4);
    let large = per_request(10);
    let ratio = large / small;
    // (10/4)^2 = 6.25; allow protocol constants to blur it.
    assert!(
        ratio > 3.0,
        "expected superlinear message growth, got {small} -> {large}"
    );
}

// Cells no experiment table sweeps: a monoculture, a zero-day in the
// crypto-library layer, and rotation under a live zero-day. Each reads the
// verdict as §II-C states it: safe only if `Σ_i f^i_t ≤ f` and, with every
// replica the zero-day reaches equivocating, the audit finds no fork.

/// The verdict on `assignment` under `vuln` at `at`, and the run behind it.
fn zero_day_verdict(
    assignment: &Assignment,
    vuln: &Vulnerability,
    at: SimTime,
    seed: u64,
) -> (bool, ClusterReport) {
    let mut db = VulnerabilityDb::new();
    db.add(vuln.clone());
    let prediction = ResilienceAnalyzer::new(assignment.clone(), db).analyze_at(at);
    let faults = faults_from_vulnerability(assignment, vuln, Behavior::Equivocate);
    let config = ClusterConfig::for_assignment(assignment)
        .requests(4)
        .max_time(SimTime::from_secs(10));
    let report = run_cluster(&config, seed, &faults);
    (
        prediction.safety_condition_holds && report.safety.holds(),
        report,
    )
}

fn os_space(oses: usize) -> ConfigurationSpace {
    ConfigurationSpace::cartesian(&[catalog::operating_systems()[..oses].to_vec()]).unwrap()
}

/// A monoculture has zero entropy, and one zero-day reaches every
/// replica: no honest replica is left to fork, or to execute a request.
#[test]
fn monoculture_zero_day_is_unsafe() {
    let mono = Assignment::monoculture(&os_space(2), 0, 4, VotingPower::new(100)).unwrap();
    assert_eq!(mono.entropy_accumulator().entropy_bits(), 0.0);
    let vuln = zero_day(&catalog::operating_systems()[0]);
    let (safe, report) = zero_day_verdict(&mono, &vuln, SimTime::from_millis(2), 101);
    assert!(!safe, "{report:?}");
    assert_eq!(report.liveness.executed_requests, 0, "{report:?}");
}

/// Eight replicas spread evenly over two OSes still share one of two
/// crypto libraries: a bug in it reaches half the cluster, on both OSes.
#[test]
fn crypto_library_zero_day_cuts_across_os_diversity() {
    let space = ConfigurationSpace::cartesian(&[
        catalog::operating_systems()[..2].to_vec(),
        catalog::crypto_libraries()[..2].to_vec(),
    ])
    .unwrap();
    let spread = Assignment::round_robin(&space, 8, VotingPower::new(100)).unwrap();
    let vuln = zero_day(&catalog::crypto_libraries()[0]);
    let hit: std::collections::BTreeSet<usize> =
        faults_from_vulnerability(&spread, &vuln, Behavior::Equivocate)
            .iter()
            .map(|fault| spread.entries()[fault.replica].config)
            .collect();
    assert_eq!(hit.len(), 2, "one configuration per OS: {hit:?}");
    let (safe, report) = zero_day_verdict(&spread, &vuln, SimTime::from_millis(2), 104);
    assert!(!safe, "{report:?}");
}

/// Rotating every replica one configuration an hour under a live OS
/// zero-day changes which replicas it reaches, never how many: each round
/// stays within `f`, its run holds, and the entropy never moves.
#[test]
fn rotation_under_a_live_zero_day_stays_within_f() {
    let mut assignment = Assignment::round_robin(&os_space(4), 8, VotingPower::new(100)).unwrap();
    let entropy = assignment.entropy_accumulator().entropy_bits();
    let vuln = zero_day(&catalog::operating_systems()[0]);
    let hour = SimTime::from_secs(3_600);
    let steps = RotationPlanner::new(hour, 1).plan(&assignment, SimTime::from_secs(3 * 3_600));
    for round in 0..=3 {
        let at = SimTime::from_secs(round * 3_600).max(SimTime::from_millis(2));
        RotationPlanner::apply_due(&mut assignment, &steps, at).unwrap();
        let h = assignment.entropy_accumulator().entropy_bits();
        assert!(
            (h - entropy).abs() < 1e-9,
            "round {round}: {h} vs {entropy}"
        );
        let (safe, report) = zero_day_verdict(&assignment, &vuln, at, 106);
        assert!(safe, "round {round}: {report:?}");
    }
}
