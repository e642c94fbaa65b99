//! Findings and the text report.
//!
//! The report is byte-stable for a given tree: findings are sorted by
//! `(file, line, rule)` and nothing time- or environment-dependent is
//! included. The exit code and [`Report::to_text`] are the gate.

use std::fmt;

/// One rule violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative file (forward slashes).
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Stable rule id (`panic`, `thread`, `poison`, `lock-order`,
    /// `determinism`, `relaxed`, `hygiene`, `stale-allow`,
    /// `stale-module`).
    pub rule: String,
    /// What was found.
    pub message: String,
    /// The offending source line, trimmed.
    pub snippet: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}\n    {}",
            self.file, self.line, self.rule, self.message, self.snippet
        )
    }
}

/// A whole lint run, ready to render.
#[derive(Debug, Default)]
pub struct Report {
    /// All findings, sorted by `(file, line, rule)`.
    pub findings: Vec<Finding>,
    /// Files scanned (count only).
    pub files_scanned: usize,
    /// Suppressions actually used (marker or allowlist), for the summary.
    pub suppressions_used: usize,
}

impl Report {
    /// Sorts findings into the stable report order.
    pub fn finalize(&mut self) {
        self.findings
            .sort_by(|a, b| (&a.file, a.line, &a.rule).cmp(&(&b.file, b.line, &b.rule)));
    }

    /// Whether the tree is clean.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// The human-readable summary printed to stdout.
    #[must_use]
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&f.to_string());
            out.push('\n');
        }
        out.push_str(&format!(
            "fi-lint: {} finding(s) across {} file(s) scanned ({} suppression(s) in use)\n",
            self.findings.len(),
            self.files_scanned,
            self.suppressions_used
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finalize_sorts_findings_by_file() {
        let mut report = Report {
            findings: vec![
                Finding {
                    file: "b.rs".into(),
                    line: 2,
                    rule: "panic".into(),
                    message: "x".into(),
                    snippet: "say \"hi\"\\".into(),
                },
                Finding {
                    file: "a.rs".into(),
                    line: 9,
                    rule: "poison".into(),
                    message: "y".into(),
                    snippet: "s".into(),
                },
            ],
            files_scanned: 2,
            suppressions_used: 0,
        };
        report.finalize();
        assert_eq!(report.findings[0].file, "a.rs", "sorted by file");
    }
}
