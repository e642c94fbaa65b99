//! The campaign runner.
//!
//! A campaign sweeps a scenario grid in grid order on the caller's thread
//! (all 17 scenarios of the standard grid take ≈ 0.02 s in release). Every
//! scenario is deterministic given its seed and fully independent of the
//! others, and nothing timing-dependent enters a report.

use crate::report::CampaignReport;
use crate::run::run_scenario;
use crate::scenario::Scenario;

/// Runs every scenario in `grid` and collects the reports in grid order.
///
/// # Panics
///
/// Panics (before running anything) if any scenario fails
/// [`Scenario::validate`], and propagates any panic raised inside a
/// scenario run.
#[must_use]
pub fn run_campaign(grid: &[Scenario]) -> CampaignReport {
    for scenario in grid {
        if let Err(reason) = scenario.validate() {
            panic!("invalid campaign grid: {reason}");
        }
    }
    CampaignReport {
        reports: grid.iter().map(run_scenario).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::smoke_grid;

    #[test]
    fn campaign_reports_land_in_grid_order() {
        let grid = smoke_grid();
        let campaign = run_campaign(&grid);
        assert_eq!(campaign.len(), grid.len());
        for (scenario, report) in grid.iter().zip(&campaign.reports) {
            assert_eq!(scenario.name, report.name);
            assert_eq!(scenario.seed, report.seed);
        }
    }

    #[test]
    fn smoke_campaign_has_no_regressions() {
        let campaign = run_campaign(&smoke_grid());
        assert!(
            campaign.regressions().is_empty(),
            "smoke grid verdicts drifted: {:?}",
            campaign.regressions()
        );
    }

    #[test]
    #[should_panic(expected = "invalid campaign grid")]
    fn invalid_grid_is_rejected_up_front() {
        let mut grid = smoke_grid();
        grid[0].replicas = 0;
        let _ = run_campaign(&grid);
    }

    #[test]
    fn empty_grid_yields_empty_report() {
        let campaign = run_campaign(&[]);
        assert!(campaign.is_empty());
        assert_eq!(campaign.safe_count(), 0);
    }
}
