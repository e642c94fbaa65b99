//! `scenarios` — the resilience scenario campaign runner.
//!
//! Sweeps the `fi-scenarios` grid — shared zero-days, pool compromise,
//! patch-window exploitation, churn + rotation — across all three consensus
//! substrates (`fi-bft` on `fi-simnet`, `fi-nakamoto` double-spend races,
//! `fi-committee` selection), prints a verdict table, and writes the
//! byte-stable campaign summary to `SCENARIOS_report.json` at the repo
//! root.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p fi-bench --bin scenarios            # full grid
//! cargo run --release -p fi-bench --bin scenarios -- --smoke # CI subset
//! ```
//!
//! The output contains nothing timing- or scheduling-dependent, so two
//! consecutive runs are byte-identical and CI can diff the report against
//! the committed golden fixture
//! (`crates/scenarios/goldens/campaign_{smoke,full}.json`). Exits non-zero
//! if any scenario's observed verdict contradicts the grid's expectation —
//! a behavioral regression in one of the substrates.
#![forbid(unsafe_code)]

use std::process::ExitCode;

use fi_bench::repo_root;
use fi_scenarios::{run_campaign, smoke_grid, standard_grid};

fn main() -> ExitCode {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (mode, grid) = if smoke {
        ("smoke", smoke_grid())
    } else {
        ("full", standard_grid())
    };

    println!("fi-bench scenarios ({mode} grid: {} scenarios)", grid.len());
    let campaign = run_campaign(&grid);

    for report in &campaign.reports {
        let verdict = if report.safe { "safe    " } else { "VIOLATED" };
        let drift = if report.regressed() {
            "  << REGRESSION"
        } else {
            ""
        };
        println!(
            "  {verdict}  {:<44} compromised {:>4}‰  violations {:>2}  H {:.4} -> {:.4}{drift}",
            report.name,
            report.compromised_permille,
            report.violations,
            report.entropy_trajectory.first().copied().unwrap_or(0.0),
            report.entropy_trajectory.last().copied().unwrap_or(0.0),
        );
    }
    println!(
        "{} scenarios: {} safe, {} violated, {} regressions",
        campaign.len(),
        campaign.safe_count(),
        campaign.len() - campaign.safe_count(),
        campaign.regressions().len()
    );

    let json = campaign.to_json(mode);
    let path = repo_root().join("SCENARIOS_report.json");
    match std::fs::write(&path, &json) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("failed to write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }

    if !campaign.regressions().is_empty() {
        eprintln!("FAIL: scenario verdicts drifted from the grid's expectations");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
