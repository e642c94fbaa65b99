//! Structured per-scenario and per-campaign reports, plus the byte-stable
//! JSON rendering the golden fixtures and CI artifacts are built from.
//!
//! Everything rendered here is a pure function of the scenario grid and its
//! seeds — no wall-clock time, no thread counts — so two renders of the
//! same campaign are byte-identical and can be `diff`ed against the
//! committed goldens.

use crate::scenario::Substrate;

/// What one scenario run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioReport {
    /// The scenario's stable name.
    pub name: String,
    /// Substrate that ran.
    pub substrate: Substrate,
    /// Root seed used.
    pub seed: u64,
    /// The observed safety verdict (substrate-level: no fork, no majority
    /// takeover, committee within budget).
    pub safe: bool,
    /// The verdict the scenario grid expects — regression contract.
    pub expect_safe: bool,
    /// The analytic prediction from the paper's condition `f ≥ Σ_i f^i_t`
    /// evaluated *before* any countermeasure (selection, recovery) acts.
    pub predicted_safe: bool,
    /// Substrate-level violation count (forked sequence pairs, successful
    /// private-branch races, compromised committee members, rounds over
    /// budget).
    pub violations: u64,
    /// Compromised share of total power, in permille (integer, exact).
    pub compromised_permille: u32,
    /// Entropy trajectory (bits) across the scenario's phases, maintained
    /// through an [`fi_entropy::EntropyAccumulator`].
    pub entropy_trajectory: Vec<f64>,
    /// Extra substrate-specific metrics, pre-rendered to stable strings.
    pub notes: Vec<(&'static str, String)>,
}

impl ScenarioReport {
    /// Whether the observed verdict contradicts the grid's expectation —
    /// a behavioral regression in one of the substrates.
    #[must_use]
    pub fn regressed(&self) -> bool {
        self.safe != self.expect_safe
    }
}

/// Everything a campaign produced, in grid order.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// Per-scenario reports, in the order the grid listed them.
    pub reports: Vec<ScenarioReport>,
}

impl CampaignReport {
    /// Number of scenarios run.
    #[must_use]
    pub fn len(&self) -> usize {
        self.reports.len()
    }

    /// Whether the campaign ran nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.reports.is_empty()
    }

    /// Scenarios whose observed verdict was safe.
    #[must_use]
    pub fn safe_count(&self) -> usize {
        self.reports.iter().filter(|r| r.safe).count()
    }

    /// Scenarios that contradicted their expected verdict.
    #[must_use]
    pub fn regressions(&self) -> Vec<&ScenarioReport> {
        self.reports.iter().filter(|r| r.regressed()).collect()
    }

    /// Renders the campaign as deterministic, pretty-stable JSON. `mode`
    /// names the grid that ran (`"full"` / `"smoke"`); it is part of the
    /// golden fixture so a smoke report can never be mistaken for a full
    /// one.
    #[must_use]
    pub fn to_json(&self, mode: &str) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "{{");
        let _ = writeln!(out, "  \"schema\": \"fi-scenarios/campaign/v1\",");
        let _ = writeln!(out, "  \"mode\": \"{mode}\",");
        let _ = writeln!(out, "  \"scenarios\": [");
        for (i, r) in self.reports.iter().enumerate() {
            let comma = if i + 1 < self.reports.len() { "," } else { "" };
            let trajectory = r
                .entropy_trajectory
                .iter()
                .map(|h| format!("{h:.4}"))
                .collect::<Vec<_>>()
                .join(", ");
            let notes = r
                .notes
                .iter()
                .map(|(k, v)| format!("\"{k}\": \"{}\"", escape(v)))
                .collect::<Vec<_>>()
                .join(", ");
            let _ = writeln!(
                out,
                "    {{\"name\": \"{}\", \"substrate\": \"{}\", \"seed\": {}, \"safe\": {}, \
                 \"expected_safe\": {}, \"predicted_safe\": {}, \"violations\": {}, \
                 \"compromised_permille\": {}, \"entropy_bits\": [{}], \"notes\": {{{}}}}}{comma}",
                escape(&r.name),
                r.substrate.label(),
                r.seed,
                r.safe,
                r.expect_safe,
                r.predicted_safe,
                r.violations,
                r.compromised_permille,
                trajectory,
                notes,
            );
        }
        let _ = writeln!(out, "  ],");
        let _ = writeln!(out, "  \"total\": {},", self.len());
        let _ = writeln!(out, "  \"safe\": {},", self.safe_count());
        let _ = writeln!(out, "  \"violated\": {},", self.len() - self.safe_count());
        let _ = writeln!(out, "  \"regressions\": {}", self.regressions().len());
        let _ = writeln!(out, "}}");
        out
    }
}

/// JSON string escaping for the fields we render: backslash, quote, and
/// control characters (user-authored scenario names are arbitrary strings).
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                use std::fmt::Write as _;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(safe: bool, expect_safe: bool) -> ScenarioReport {
        ScenarioReport {
            name: "test/sample".into(),
            substrate: Substrate::Bft,
            seed: 9,
            safe,
            expect_safe,
            predicted_safe: safe,
            violations: u64::from(!safe),
            compromised_permille: 250,
            entropy_trajectory: vec![2.0, 1.5849],
            notes: vec![("k", "v".into())],
        }
    }

    #[test]
    fn regression_flag_matches_expectation() {
        assert!(!sample(true, true).regressed());
        assert!(sample(false, true).regressed());
        assert!(sample(true, false).regressed());
    }

    #[test]
    fn campaign_counts_add_up() {
        let campaign = CampaignReport {
            reports: vec![
                sample(true, true),
                sample(false, false),
                sample(false, true),
            ],
        };
        assert_eq!(campaign.len(), 3);
        assert!(!campaign.is_empty());
        assert_eq!(campaign.safe_count(), 1);
        assert_eq!(campaign.regressions().len(), 1);
    }

    #[test]
    fn json_is_deterministic_and_well_formed() {
        let campaign = CampaignReport {
            reports: vec![sample(true, true), sample(false, false)],
        };
        let a = campaign.to_json("full");
        let b = campaign.to_json("full");
        assert_eq!(a, b, "rendering must be byte-stable");
        assert!(a.contains("\"schema\": \"fi-scenarios/campaign/v1\""));
        assert!(a.contains("\"mode\": \"full\""));
        assert!(a.contains("\"entropy_bits\": [2.0000, 1.5849]"));
        assert!(a.contains("\"total\": 2"));
        // Balanced braces/brackets — a cheap well-formedness check.
        assert_eq!(a.matches('{').count(), a.matches('}').count());
        assert_eq!(a.matches('[').count(), a.matches(']').count());
    }

    #[test]
    fn escape_handles_quotes_backslashes_and_control_chars() {
        assert_eq!(escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escape("a\nb\tc\r"), "a\\nb\\tc\\r");
        assert_eq!(escape("x\u{1}y"), "x\\u0001y");
    }
}
