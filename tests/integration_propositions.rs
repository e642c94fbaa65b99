//! Integration: the paper's Propositions 1–3 checked against the *systems*
//! (not just the entropy algebra) — abundance vs entropy vs BFT/Nakamoto
//! outcomes.

use fault_independence::fi_bft::harness::{run_cluster, ClusterConfig, ScheduledFault};
use fault_independence::fi_bft::Behavior;
use fault_independence::fi_entropy::propositions::{
    check_proposition1, check_proposition2, proposition3_tradeoff,
};
use fault_independence::fi_entropy::{bitcoin, AbundanceVector};
use fault_independence::fi_types::SimTime;

#[test]
fn proposition1_on_bitcoin_like_abundances() {
    // Start kappa-optimal with 17 configurations at abundance 4.
    let base = AbundanceVector::uniform(17, 4).unwrap();
    // Foundry-style skew: all growth lands on configuration 0.
    let mut skew = vec![0u64; 17];
    skew[0] = 30;
    let out = check_proposition1(&base, &skew).unwrap();
    assert!(out.holds);
    assert!(out.entropy_after < out.entropy_before);
    // Proportional growth: entropy invariant.
    let out = check_proposition1(&base, &[4; 17]).unwrap();
    assert!(out.holds && out.relative_unchanged);
}

#[test]
fn proposition2_is_exactly_figure1() {
    // Prop 2's "more replicas do not help" is Figure 1 in numbers: adding
    // 1000 dust miners to the 17-pool oligopoly never reaches log2(1017).
    let base: Vec<f64> = bitcoin::top17_units().iter().map(|&u| u as f64).collect();
    // Build the dust exactly as the Figure-1 generator does: integer power
    // units split as evenly as the unit granularity allows.
    let dust: Vec<f64> = fault_independence::fi_types::VotingPower::new(bitcoin::residual_units())
        .split_even(1000)
        .iter()
        .map(|p| p.as_units() as f64)
        .collect();
    let out = check_proposition2(&base, &dust).unwrap();
    assert!(out.holds);
    assert!(!out.equalized);
    assert!(out.entropy_after < 3.0, "paper: entropy stays below 3 bits");
    // At milli-percent granularity only 855 of the 1000 dust miners get a
    // whole unit, so the realised support is 17 + 855 = 872 configurations.
    assert!(out.uniform_bound > 9.7, "log2(872) ≈ 9.77");
    // And the measured entropy matches the Figure-1 generator.
    let fig1 = bitcoin::figure1_curve(1000).unwrap();
    let last = fig1.last().unwrap();
    assert!((out.entropy_after - last.entropy_bits).abs() < 1e-9);
}

#[test]
fn proposition3_abundance_helps_against_operators_not_vulnerabilities() {
    let rows = proposition3_tradeoff(4, 8).unwrap();
    // Malicious-operator share falls as 1/(kappa*omega)...
    assert!((rows[7].operator_share - 1.0 / 32.0).abs() < 1e-12);
    // ...while the vulnerability share is pinned at 1/kappa.
    assert!(rows
        .iter()
        .all(|r| (r.vulnerability_share - 0.25).abs() < 1e-12));
    // ...and message cost grows with (kappa*omega)^2.
    assert_eq!(rows[0].messages_per_round, 16);
    assert_eq!(rows[7].messages_per_round, 1024);
}

#[test]
fn proposition3_operational_omega_absorbs_malicious_operator() {
    // kappa = 4 configurations. omega = 1: 4 replicas, f = 1; one malicious
    // OPERATOR controls one replica = f -> safe. Now a VULNERABILITY in one
    // configuration at omega = 2 (8 replicas, f = 2) still controls only
    // omega replicas = 2 = f -> safe; but at omega = 1 with a SHARED
    // configuration between two replicas (abundance misconfigured), the
    // same vulnerability exceeds f. The BFT runs make the distinction
    // operational.
    // omega = 2, one malicious operator (1 replica < f = 2): safe + live.
    let config = ClusterConfig::new(8)
        .requests(6)
        .max_time(SimTime::from_secs(20));
    let one_operator = vec![ScheduledFault {
        at: SimTime::from_millis(1),
        replica: 0,
        behavior: Behavior::Equivocate,
    }];
    let report = run_cluster(&config, 21, &one_operator);
    assert!(report.safety.holds());
    assert!(report.liveness.all_executed(), "{report:?}");

    // Same cluster, one configuration-level vulnerability hitting omega = 2
    // replicas (still = f = 2): safety holds.
    let one_vuln_two_replicas: Vec<ScheduledFault> = (0..2)
        .map(|i| ScheduledFault {
            at: SimTime::from_millis(1),
            replica: i,
            behavior: Behavior::Equivocate,
        })
        .collect();
    let report = run_cluster(&config, 22, &one_vuln_two_replicas);
    assert!(report.safety.holds(), "{report:?}");

    // A nuance worth recording: with n = 8 our quorum is n − f = 6 (not the
    // minimal 2f + 1 = 5), so two conflicting quorums intersect in
    // 2·6 − 8 = 4 replicas. A fork therefore needs ≥ 4 colluders — three
    // equivocators (already > f = 2) break the *resilience accounting* but
    // not this deployment's safety. Four colluders, including the primary,
    // do fork it.
    let three: Vec<ScheduledFault> = (0..3)
        .map(|i| ScheduledFault {
            at: SimTime::ZERO,
            replica: i,
            behavior: Behavior::Equivocate,
        })
        .collect();
    let report = run_cluster(
        &ClusterConfig::new(8)
            .requests(6)
            .max_time(SimTime::from_secs(20)),
        23,
        &three,
    );
    assert!(
        report.safety.holds(),
        "3 colluders are below the 2·quorum − n = 4 fork bound: {report:?}"
    );

    let four: Vec<ScheduledFault> = (0..4)
        .map(|i| ScheduledFault {
            at: SimTime::ZERO,
            replica: i,
            behavior: Behavior::Equivocate,
        })
        .collect();
    let report = run_cluster(
        &ClusterConfig::new(8)
            .requests(6)
            .max_time(SimTime::from_secs(20)),
        23,
        &four,
    );
    assert!(
        !report.safety.holds() || !report.liveness.all_executed(),
        "4 colluding equivocators reach two disjoint-enough quorums: {report:?}"
    );
}
