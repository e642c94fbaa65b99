//! Integration: the scenario campaign engine through the facade.
//!
//! Exercises `fault_independence::fi_scenarios` end to end and cross-checks
//! a campaign's verdicts against the facade's own `ResilienceAnalyzer` on
//! independently rebuilt assignments — the scenario engine and the
//! analyzer must tell the same §II-C story.

use fault_independence::prelude::*;
use fault_independence::ResilienceAnalyzer;

/// Rebuilds the `bft/zeroday-os/rr-n7` scenario's world by hand and checks
/// the campaign verdict against the analyzer's safety condition.
#[test]
fn scenario_verdict_agrees_with_resilience_analyzer() {
    let scenario = standard_grid()
        .into_iter()
        .find(|s| s.name == "bft/zeroday-os/rr-n7")
        .expect("grid names are stable");
    let report = run_scenario(&scenario);

    // Independent reconstruction through the facade's own types.
    let space = ConfigurationSpace::cartesian(&[catalog::operating_systems()[..4].to_vec()])
        .expect("space builds");
    let assignment = Assignment::round_robin(&space, 7, VotingPower::new(100)).expect("assigns");
    let os = &catalog::operating_systems()[0];
    let mut db = VulnerabilityDb::new();
    db.add(
        Vulnerability::new(
            VulnId::new(0),
            "zero-day-debian",
            ComponentSelector::product(os.kind(), os.name()),
            Severity::Critical,
        )
        .with_window(SimTime::from_millis(1), SimTime::MAX),
    );
    let analyzer = ResilienceAnalyzer::new(assignment, db);
    let analysis = analyzer.analyze_at(SimTime::from_millis(2));

    assert_eq!(analysis.active_vulnerabilities, 1);
    // 2 of 7 replicas share the vulnerable OS: Σ f^i_t = 200 of 700.
    assert_eq!(analysis.sum_compromised, VotingPower::new(200));
    assert_eq!(
        report.compromised_permille,
        u32::try_from(analysis.sum_compromised.as_units() * 1000 / 700).unwrap()
    );
    assert!(report.safe && report.predicted_safe);
}

#[test]
fn smoke_campaign_runs_through_the_facade_prelude() {
    let campaign = run_campaign(&smoke_grid());
    assert_eq!(campaign.len(), 6);
    assert!(
        campaign.regressions().is_empty(),
        "{:?}",
        campaign.regressions()
    );
    // Every substrate appears, and every report carries a trajectory.
    for substrate in [Substrate::Bft, Substrate::Nakamoto, Substrate::Committee] {
        assert!(
            campaign.reports.iter().any(|r| r.substrate == substrate),
            "missing {substrate:?}"
        );
    }
    for report in &campaign.reports {
        assert!(
            !report.entropy_trajectory.is_empty(),
            "{} has no entropy trajectory",
            report.name
        );
    }
}

#[test]
fn campaign_json_names_every_scenario() {
    let grid = smoke_grid();
    let campaign = run_campaign(&grid);
    let json = campaign.to_json("smoke");
    for scenario in &grid {
        assert!(
            json.contains(&format!("\"name\": \"{}\"", scenario.name)),
            "{} missing from the rendered summary",
            scenario.name
        );
    }
}

#[test]
fn monoculture_scenarios_are_never_reported_safe() {
    // The paper's degenerate case must stay degenerate on every substrate
    // that models it: zero entropy, full compromise, unsafe verdict.
    for scenario in standard_grid() {
        if scenario.spread != Spread::Monoculture {
            continue;
        }
        let report = run_scenario(&scenario);
        assert!(!report.safe, "{}: monoculture reported safe", scenario.name);
        assert_eq!(report.compromised_permille, 1_000, "{}", scenario.name);
        // BFT/committee trajectories start at configuration entropy 0; the
        // Nakamoto trajectory starts at pool-level entropy and collapses
        // once the shared configuration merges every pool — either way the
        // adversary ends facing a single bucket.
        assert_eq!(
            report.entropy_trajectory.last().copied().unwrap(),
            0.0,
            "{}: monoculture must end at zero entropy",
            scenario.name
        );
    }
}
