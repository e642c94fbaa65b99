//! Golden-fixture regression tests: the campaign summaries must match the
//! committed fixtures byte for byte.
//!
//! These fixtures are the drift detector for *all three* consensus
//! substrates at once: any change to the simnet scheduler, the BFT
//! protocol, the mining race, the selection policies, the entropy engine,
//! or the RNG stream shows up as a diff here. If a change is intentional,
//! regenerate with:
//!
//! ```text
//! cargo run --release -p fi-bench --bin scenarios            # writes SCENARIOS_report.json (full)
//! cp SCENARIOS_report.json crates/scenarios/goldens/campaign_full.json
//! cargo run --release -p fi-bench --bin scenarios -- --smoke
//! cp SCENARIOS_report.json crates/scenarios/goldens/campaign_smoke.json
//! ```

use fi_scenarios::{run_campaign, smoke_grid, standard_grid};

fn assert_matches_golden(actual: &str, golden: &str, which: &str) {
    if actual == golden {
        return;
    }
    for (line_no, (a, g)) in actual.lines().zip(golden.lines()).enumerate() {
        assert_eq!(
            a,
            g,
            "campaign summary drifted from goldens/campaign_{which}.json at line {} — \
             if intentional, regenerate the fixture (see this file's module docs)",
            line_no + 1
        );
    }
    assert_eq!(
        actual.lines().count(),
        golden.lines().count(),
        "campaign summary and goldens/campaign_{which}.json differ in length"
    );
    // The per-line pass above gives a readable diff; this is the real
    // contract — byte-for-byte equality (catches line-terminator and
    // trailing-newline drift the line iterator would forgive).
    assert_eq!(
        actual, golden,
        "campaign summary differs from goldens/campaign_{which}.json at the byte level"
    );
}

#[test]
fn smoke_campaign_matches_committed_golden() {
    let campaign = run_campaign(&smoke_grid());
    assert_matches_golden(
        &campaign.to_json("smoke"),
        include_str!("../goldens/campaign_smoke.json"),
        "smoke",
    );
}

#[test]
fn full_campaign_matches_committed_golden() {
    let campaign = run_campaign(&standard_grid());
    assert_matches_golden(
        &campaign.to_json("full"),
        include_str!("../goldens/campaign_full.json"),
        "full",
    );
}

#[test]
fn goldens_cover_the_advertised_grid_width() {
    // The acceptance bar for the campaign engine: at least 12 distinct
    // scenario configurations, across all three substrates, all committed.
    let golden = include_str!("../goldens/campaign_full.json");
    let scenario_lines = golden.matches("\"name\": ").count();
    assert!(
        scenario_lines >= 12,
        "full golden holds only {scenario_lines} scenarios"
    );
    for substrate in [
        "\"substrate\": \"bft\"",
        "\"substrate\": \"nakamoto\"",
        "\"substrate\": \"committee\"",
    ] {
        assert!(golden.contains(substrate), "golden misses {substrate}");
    }
    assert!(golden.contains("\"regressions\": 0"));
}
