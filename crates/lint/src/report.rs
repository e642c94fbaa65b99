//! Findings and the stable machine-readable report.
//!
//! The JSON emitted here is byte-stable for a given tree: findings are
//! sorted by `(file, line, rule)`, keys are emitted in a fixed order, and
//! nothing time- or environment-dependent is included — so CI can diff
//! reports and the artifact is reproducible.

use std::fmt;

/// One rule violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative file (forward slashes).
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Stable rule id (`panic`, `thread`, `poison`, `lock-order`,
    /// `determinism`, `relaxed`, `hygiene`, `stale-allow`).
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
    /// Files scanned (count only; the list would bloat the artifact).
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

    /// The stable JSON document.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n  \"version\": 1,\n");
        out.push_str(&format!("  \"files_scanned\": {},\n", self.files_scanned));
        out.push_str(&format!(
            "  \"suppressions_used\": {},\n",
            self.suppressions_used
        ));
        out.push_str(&format!("  \"finding_count\": {},\n", self.findings.len()));
        out.push_str("  \"findings\": [");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {");
            out.push_str(&format!("\"file\": {}, ", json_str(&f.file)));
            out.push_str(&format!("\"line\": {}, ", f.line));
            out.push_str(&format!("\"rule\": {}, ", json_str(&f.rule)));
            out.push_str(&format!("\"message\": {}, ", json_str(&f.message)));
            out.push_str(&format!("\"snippet\": {}", json_str(&f.snippet)));
            out.push('}');
        }
        if !self.findings.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
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

/// JSON string escaping (the subset the report needs: control chars,
/// quotes, backslashes; source is UTF-8 already).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_is_stable_and_escaped() {
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
        let json = report.to_json();
        assert!(json.contains("\\\"hi\\\"\\\\"));
        assert_eq!(json, report.to_json(), "byte-stable");
    }

    #[test]
    fn clean_report_renders_empty_array() {
        let report = Report::default();
        assert!(report.is_clean());
        assert!(report.to_json().contains("\"findings\": []"));
    }
}
