//! Integration tests: fi-lint against the pinned fixture workspaces and
//! against the committed workspace itself.
//!
//! The fixture trees under `tests/fixtures/` are miniature workspaces
//! (root `Cargo.toml` + `LOCK_ORDER` + member crates). `dirty` trips
//! every rule at least once; `clean` contains the same code shapes with
//! every contract satisfied; `unused_pub` holds one public item per case
//! of the cross-file `unused-pub` rule, and `unread_field` one struct
//! field per case of `unread-field`. The final test is the self-check the CI
//! gate depends on: the committed tree must lint clean, with no stale
//! suppressions (stale markers and stale allow entries are findings, so
//! `is_clean()` covers both).

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};

use fi_lint::report::Report;
use fi_lint::run_lint;

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn rule_count(report: &Report, rule: &str) -> usize {
    report.findings.iter().filter(|f| f.rule == rule).count()
}

#[test]
fn dirty_fixture_reports_every_rule() {
    let report = run_lint(&fixture("dirty")).expect("dirty fixture lints");

    assert_eq!(report.findings.len(), 14, "report:\n{}", report.to_text());
    assert_eq!(rule_count(&report, "hygiene"), 1);
    assert_eq!(rule_count(&report, "panic"), 2);
    assert_eq!(rule_count(&report, "thread"), 1);
    assert_eq!(rule_count(&report, "poison"), 1);
    assert_eq!(rule_count(&report, "lock-order"), 1);
    assert_eq!(rule_count(&report, "determinism"), 4);
    assert_eq!(rule_count(&report, "relaxed"), 1);
    assert_eq!(rule_count(&report, "unused-pub"), 1);
    // Both flavours of staleness: an unused `// lint:` marker and an
    // `[allow]` manifest entry whose needle matches nothing.
    assert_eq!(rule_count(&report, "stale-allow"), 2);
    assert!(report
        .findings
        .iter()
        .any(|f| f.rule == "stale-allow" && f.file == "LOCK_ORDER"));

    // The vendored member is outside the lint's jurisdiction: its
    // blatant violations must not surface, and it is not even scanned.
    assert_eq!(report.files_scanned, 3);
    assert!(report
        .findings
        .iter()
        .all(|f| !f.file.starts_with("vendor/")));
    assert_eq!(report.suppressions_used, 0);
}

#[test]
fn dirty_fixture_findings_anchor_to_exact_lines() {
    let report = run_lint(&fixture("dirty")).expect("dirty fixture lints");
    let has = |file: &str, line: usize, rule: &str| {
        report
            .findings
            .iter()
            .any(|f| f.file == file && f.line == line && f.rule == rule)
    };
    assert!(has("crates/app/src/lib.rs", 11, "poison"));
    assert!(has("crates/app/src/lib.rs", 16, "lock-order"));
    assert!(has("crates/app/src/lib.rs", 17, "relaxed"));
    assert!(has("crates/app/src/lib.rs", 20, "stale-allow"));
    assert!(has("crates/app/src/lib.rs", 21, "unused-pub"));
    assert!(has("crates/app/src/serve.rs", 4, "panic"));
    assert!(has("crates/app/src/serve.rs", 8, "panic"));
    assert!(has("crates/app/src/serve.rs", 12, "thread"));
    assert!(has("crates/app/src/hash.rs", 7, "determinism"));
}

#[test]
fn dirty_fixture_report_is_sorted_and_text_stable() {
    let report = run_lint(&fixture("dirty")).expect("dirty fixture lints");
    let keys: Vec<(&str, usize, &str)> = report
        .findings
        .iter()
        .map(|f| (f.file.as_str(), f.line, f.rule.as_str()))
        .collect();
    let mut sorted = keys.clone();
    sorted.sort();
    assert_eq!(keys, sorted, "findings must be sorted for a stable report");

    assert_eq!(report.files_scanned, 3);
    // Byte-stable across runs: same tree, same report.
    let again = run_lint(&fixture("dirty")).expect("dirty fixture lints");
    assert_eq!(report.to_text(), again.to_text());
}

#[test]
fn clean_fixture_is_clean_and_uses_its_suppressions() {
    let report = run_lint(&fixture("clean")).expect("clean fixture lints");
    assert!(
        report.is_clean(),
        "unexpected findings:\n{}",
        report.to_text()
    );
    assert_eq!(report.files_scanned, 3);
    // Two `// lint: allow(panic)` markers, one `// relaxed:` comment,
    // and one manifest `[allow]` entry — all live, none stale.
    assert_eq!(report.suppressions_used, 4);
}

#[test]
fn unused_pub_fixture_reports_only_items_no_other_file_names() {
    let report = run_lint(&fixture("unused_pub")).expect("unused_pub fixture lints");
    let found: Vec<(&str, usize, &str)> = report
        .findings
        .iter()
        .map(|f| (f.file.as_str(), f.line, f.rule.as_str()))
        .collect();
    let items = "crates/lib/src/items.rs";
    assert_eq!(
        found,
        [
            // Named by nothing, or only by its own file.
            (items, 12, "unused-pub"),
            (items, 15, "unused-pub"),
            (items, 18, "unused-pub"),
            // Named only by the crate root's `pub use`.
            (items, 27, "unused-pub"),
            // Named only by `tests/` and a `#[cfg(test)]` module.
            (items, 30, "unused-pub"),
            // A marker on an item another file calls is stale.
            (items, 44, "stale-allow"),
        ],
        "report:\n{}",
        report.to_text()
    );
    // Used from another library file, an example, a bin or a bench; the
    // marked oracle; the `pub(crate)` item; test-module and bin items:
    // none is a finding, and the oracle's marker is the one suppression.
    assert_eq!(report.suppressions_used, 1);
    // Examples and benches are read for names only, never linted.
    assert_eq!(report.files_scanned, 4);
}

#[test]
fn unread_field_fixture_reports_only_fields_no_non_test_code_reads() {
    let report = run_lint(&fixture("unread_field")).expect("unread_field fixture lints");
    let found: Vec<(&str, usize, &str)> = report
        .findings
        .iter()
        .map(|f| (f.file.as_str(), f.line, f.rule.as_str()))
        .collect();
    let fields = "crates/lib/src/fields.rs";
    assert_eq!(
        found,
        [
            // Assigned with `=` and `+=`, never read.
            (fields, 14, "unread-field"),
            // Set only by a struct literal.
            (fields, 16, "unread-field"),
            // Read only by `tests/` and a `#[cfg(test)]` module.
            (fields, 18, "unread-field"),
            // A marker on a field another file reads is stale.
            (fields, 29, "stale-allow"),
            // The field of a struct whose `where` clause defers its body.
            (fields, 49, "unread-field"),
        ],
        "report:\n{}",
        report.to_text()
    );
    // Read through `.`, `==` or a struct pattern, by library code, an
    // example, a bin or a bench; the private struct read in its own file;
    // the marked field; the bin's own struct: none is a finding, and the
    // marked field's marker is the one suppression.
    assert_eq!(report.suppressions_used, 1);
    assert_eq!(report.files_scanned, 4);
}

#[test]
fn committed_workspace_is_clean() {
    // The self-check the CI gate enforces: the tree this test ran from
    // must carry zero findings and zero stale suppressions. If this
    // fails, either fix the flagged code or add an audited marker /
    // `[allow]` entry with a reason.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves");
    let report = run_lint(&root).expect("workspace lints");
    assert!(
        report.is_clean(),
        "committed workspace has lint findings:\n{}",
        report.to_text()
    );
    assert!(
        report.files_scanned > 100,
        "walked {}",
        report.files_scanned
    );
}
