//! fi-lint: the workspace invariant checker.
//!
//! Mechanically enforces the contracts the fleet's serving story depends
//! on — panic-free serving paths, poison recovery on every lock, the
//! `LOCK_ORDER` acquisition hierarchy, deterministic hash/report modules,
//! justified relaxed atomics, `#![forbid(unsafe_code)]` crate roots, a
//! library `pub fn`/`pub const` that some other file's non-test code
//! names, and a library struct field that some non-test code reads — so
//! they hold by construction instead of by review vigilance.
//!
//! Offline and dependency-free by design: a hand-rolled line scanner
//! ([`scan`]) feeds token-level rules ([`rules`]) configured by the
//! checked-in manifest ([`manifest`]); [`report`] renders the sorted
//! findings as text.

#![forbid(unsafe_code)]

pub mod manifest;
pub mod report;
pub mod rules;
pub mod scan;

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

use manifest::{Manifest, ManifestError};
use report::Report;
use scan::ScannedFile;

/// Name of the manifest file at the workspace root.
const MANIFEST_FILE: &str = "LOCK_ORDER";

/// A configuration or IO failure (distinct from findings: findings are
/// the *product*, these abort the run).
#[derive(Debug)]
pub enum LintError {
    /// Reading a file failed.
    Io(PathBuf, String),
    /// The `LOCK_ORDER` manifest is malformed.
    Manifest(ManifestError),
    /// The root `Cargo.toml` has no parsable `members` list.
    NoMembers(PathBuf),
}

impl fmt::Display for LintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LintError::Io(path, err) => write!(f, "{}: {err}", path.display()),
            LintError::Manifest(err) => write!(f, "{}: {err}", MANIFEST_FILE),
            LintError::NoMembers(path) => {
                write!(f, "{}: no workspace members list found", path.display())
            }
        }
    }
}

impl std::error::Error for LintError {}

impl From<ManifestError> for LintError {
    fn from(err: ManifestError) -> Self {
        LintError::Manifest(err)
    }
}

/// Lints the workspace rooted at `root`: loads the manifest, walks every
/// first-party member's `src/` tree, and runs all rules.
///
/// Vendored shims (`vendor/…`) are skipped — they are frozen third-party
/// stand-ins, not code under the serving contracts. Integration-test and
/// fixture trees are skipped by construction (only `src/` is walked).
/// The root `examples/` and each first-party member's `benches/` are read
/// as callers only: they count as naming a library item for `unused-pub`
/// and as reading a field for `unread-field`, and no rule runs on them.
///
/// # Errors
///
/// Returns [`LintError`] on IO failure or a malformed manifest; findings
/// are never an `Err`.
pub fn run_lint(root: &Path) -> Result<Report, LintError> {
    let manifest_path = root.join(MANIFEST_FILE);
    let manifest_text = read(&manifest_path)?;
    let manifest = Manifest::parse(&manifest_text)?;

    let cargo_path = root.join("Cargo.toml");
    let cargo_text = read(&cargo_path)?;
    let members = parse_members(&cargo_text).ok_or(LintError::NoMembers(cargo_path))?;

    let mut files = Vec::new();
    let mut callers = Vec::new();
    for member in members.iter().filter(|m| !m.starts_with("vendor/")) {
        scan_dir(root, &root.join(member).join("src"), &mut files)?;
        scan_dir(root, &root.join(member).join("benches"), &mut callers)?;
    }
    scan_dir(root, &root.join("examples"), &mut callers)?;
    Ok(rules::check(&files, &callers, &manifest))
}

/// Scans every `.rs` file under `dir` (if it exists), in path order.
fn scan_dir(root: &Path, dir: &Path, out: &mut Vec<ScannedFile>) -> Result<(), LintError> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut paths = Vec::new();
    collect_rs(dir, &mut paths)?;
    paths.sort();
    for path in paths {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let source = read(&path)?;
        out.push(scan::scan(&rel, &source));
    }
    Ok(())
}

fn read(path: &Path) -> Result<String, LintError> {
    fs::read_to_string(path).map_err(|e| LintError::Io(path.to_path_buf(), e.to_string()))
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), LintError> {
    let entries = fs::read_dir(dir).map_err(|e| LintError::Io(dir.to_path_buf(), e.to_string()))?;
    for entry in entries {
        let entry = entry.map_err(|e| LintError::Io(dir.to_path_buf(), e.to_string()))?;
        let path = entry.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Extracts the `members` array from the workspace `Cargo.toml` — a
/// line-oriented parse, matching how the file is actually formatted.
fn parse_members(cargo_toml: &str) -> Option<Vec<String>> {
    let mut members = Vec::new();
    let mut in_members = false;
    for line in cargo_toml.lines() {
        let trimmed = line.trim();
        if !in_members {
            if trimmed.starts_with("members") && trimmed.contains('[') {
                in_members = true;
                if trimmed.contains(']') {
                    // Single-line form: members = ["a", "b"]
                    collect_quoted(trimmed, &mut members);
                    return Some(members);
                }
            }
            continue;
        }
        if trimmed.starts_with(']') {
            return Some(members);
        }
        collect_quoted(trimmed, &mut members);
    }
    None
}

fn collect_quoted(line: &str, out: &mut Vec<String>) {
    let mut rest = line;
    while let Some(start) = rest.find('"') {
        let Some(len) = rest[start + 1..].find('"') else {
            return;
        };
        out.push(rest[start + 1..start + 1 + len].to_string());
        rest = &rest[start + 1 + len + 1..];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn members_parse_multi_line() {
        let toml = "[workspace]\nmembers = [\n    \"crates/a\",\n    \"vendor/b\",\n]\n";
        assert_eq!(
            parse_members(toml).unwrap(),
            vec!["crates/a".to_string(), "vendor/b".to_string()]
        );
    }

    #[test]
    fn members_parse_single_line() {
        let toml = "members = [\"a\", \"b\"]\n";
        assert_eq!(parse_members(toml).unwrap(), vec!["a", "b"]);
    }

    #[test]
    fn missing_members_is_none() {
        assert!(parse_members("[package]\nname = \"x\"\n").is_none());
    }
}
