//! The checked-in invariant manifest (`LOCK_ORDER` at the workspace
//! root): the single place the enforced contracts are *declared*, so the
//! hierarchy and the module sets are reviewed like code.
//!
//! Format (hand-parsed, line-oriented; `#` starts a comment):
//!
//! ```text
//! [order]
//! 1 seal_lock: seal_lock
//! 2 batch_gate: batch_gate
//! 3 shard_registry: shards, shard
//! 4 publish_state: publish_state
//!
//! [serving]
//! crates/fleet/src/fleet.rs
//! crates/serve/src/            # a trailing slash covers the whole dir
//!
//! [determinism]
//! crates/fleet/src/snapshot.rs
//!
//! [allow]
//! poison crates/fleet/src/fleet.rs "shard lock" -- per-shard registry locks fail fast
//! ```
//!
//! `[order]` declares the lock hierarchy, outermost first: rank, class
//! name, then the identifier tokens whose acquisition marks the class.
//! `[serving]` and `[determinism]` list the modules under the panic-free
//! and determinism contracts; an entry that covers no scanned file is
//! reported as stale. `[allow]` entries are the file-scoped
//! allowlist: rule, file, a quoted statement substring, and a mandatory
//! reason after `--`. Every entry must match at least one suppressed
//! finding or the checker reports it as stale.

use std::fmt;

/// One lock class in the declared hierarchy.
#[derive(Debug, Clone)]
pub struct LockClass {
    /// Position in the hierarchy (lower acquires first).
    pub rank: u32,
    /// Human name used in findings.
    pub name: String,
    /// Identifier tokens whose acquisition statements mark this class.
    pub patterns: Vec<String>,
}

/// One `[allow]` entry. Its reason is checked to be present when the
/// manifest is parsed, and read by reviewers, not by the rules.
#[derive(Debug, Clone)]
pub struct AllowEntry {
    /// The rule id the entry suppresses.
    pub rule: String,
    /// Workspace-relative file the entry applies to.
    pub file: String,
    /// Substring the finding's statement must contain.
    pub needle: String,
    /// 1-based manifest line, for stale-entry reporting.
    pub line: usize,
}

/// One `[serving]` or `[determinism]` entry: an exact file path or a `…/`
/// directory prefix.
#[derive(Debug, Clone)]
pub struct ModuleEntry {
    /// Workspace-relative path or directory prefix.
    pub path: String,
    /// 1-based manifest line, for stale-entry reporting.
    pub line: usize,
}

impl ModuleEntry {
    /// Whether this entry covers `path` (workspace-relative, forward
    /// slashes).
    #[must_use]
    pub(crate) fn covers(&self, path: &str) -> bool {
        let m = self.path.as_str();
        path == m || (m.ends_with('/') && path.starts_with(m))
    }
}

/// The parsed manifest.
#[derive(Debug, Clone, Default)]
pub struct Manifest {
    /// The lock hierarchy, outermost first.
    pub order: Vec<LockClass>,
    /// Panic-free serving modules.
    pub serving: Vec<ModuleEntry>,
    /// Determinism-contract modules.
    pub determinism: Vec<ModuleEntry>,
    /// File-scoped allowlist.
    pub allows: Vec<AllowEntry>,
}

/// A manifest syntax error (line + message).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestError {
    /// 1-based line the error is on.
    pub line: usize,
    /// What was wrong.
    pub message: String,
}

impl fmt::Display for ManifestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "manifest line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ManifestError {}

impl Manifest {
    /// Parses the manifest text.
    ///
    /// # Errors
    ///
    /// Returns the first [`ManifestError`] encountered: unknown section,
    /// malformed entry, missing reason, or a hierarchy whose ranks are
    /// not strictly increasing.
    pub fn parse(text: &str) -> Result<Self, ManifestError> {
        let mut manifest = Manifest::default();
        let mut section = String::new();
        for (idx, raw) in text.lines().enumerate() {
            let line_no = idx + 1;
            let line = strip_comment(raw).trim().to_string();
            if line.is_empty() {
                continue;
            }
            if let Some(name) = line.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
                match name {
                    "order" | "serving" | "determinism" | "allow" => {
                        section = name.to_string();
                    }
                    other => {
                        return Err(ManifestError {
                            line: line_no,
                            message: format!("unknown section [{other}]"),
                        })
                    }
                }
                continue;
            }
            match section.as_str() {
                "order" => manifest.order.push(parse_order(&line, line_no)?),
                "serving" => manifest.serving.push(ModuleEntry {
                    path: line,
                    line: line_no,
                }),
                "determinism" => manifest.determinism.push(ModuleEntry {
                    path: line,
                    line: line_no,
                }),
                "allow" => manifest.allows.push(parse_allow(&line, line_no)?),
                _ => {
                    return Err(ManifestError {
                        line: line_no,
                        message: "entry before any [section] header".to_string(),
                    })
                }
            }
        }
        let mut last_rank = 0u32;
        for class in &manifest.order {
            if class.rank <= last_rank {
                return Err(ManifestError {
                    line: 0,
                    message: format!(
                        "[order] ranks must be strictly increasing (class {} has rank {})",
                        class.name, class.rank
                    ),
                });
            }
            last_rank = class.rank;
        }
        Ok(manifest)
    }

    /// Whether any entry of `set` covers `path`.
    #[must_use]
    pub fn covers(set: &[ModuleEntry], path: &str) -> bool {
        set.iter().any(|m| m.covers(path))
    }
}

fn strip_comment(line: &str) -> &str {
    // A `#` outside quotes starts a comment.
    let mut in_quote = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_quote = !in_quote,
            '#' if !in_quote => return &line[..i],
            _ => {}
        }
    }
    line
}

fn parse_order(line: &str, line_no: usize) -> Result<LockClass, ManifestError> {
    let err = |message: String| ManifestError {
        line: line_no,
        message,
    };
    let (rank_s, rest) = line
        .split_once(char::is_whitespace)
        .ok_or_else(|| err("expected `<rank> <name>: <patterns…>`".to_string()))?;
    let rank: u32 = rank_s
        .parse()
        .map_err(|_| err(format!("bad rank `{rank_s}`")))?;
    let (name, patterns) = rest
        .split_once(':')
        .ok_or_else(|| err("expected `<name>: <patterns…>`".to_string()))?;
    let patterns: Vec<String> = patterns
        .split(',')
        .map(|p| p.trim().to_string())
        .filter(|p| !p.is_empty())
        .collect();
    if patterns.is_empty() {
        return Err(err(format!("lock class {name} has no patterns")));
    }
    Ok(LockClass {
        rank,
        name: name.trim().to_string(),
        patterns,
    })
}

fn parse_allow(line: &str, line_no: usize) -> Result<AllowEntry, ManifestError> {
    let err = |message: String| ManifestError {
        line: line_no,
        message,
    };
    let (head, reason) = line
        .split_once("--")
        .ok_or_else(|| err("allow entry needs a `-- <reason>`".to_string()))?;
    if reason.trim().is_empty() {
        return Err(err("allow entry has an empty reason".to_string()));
    }
    let head = head.trim();
    let (rule, rest) = head
        .split_once(char::is_whitespace)
        .ok_or_else(|| err("expected `<rule> <file> \"<needle>\"`".to_string()))?;
    let (file, quoted) = rest
        .trim()
        .split_once(char::is_whitespace)
        .ok_or_else(|| err("expected `<file> \"<needle>\"`".to_string()))?;
    let quoted = quoted.trim();
    let needle = quoted
        .strip_prefix('"')
        .and_then(|s| s.strip_suffix('"'))
        .ok_or_else(|| err("needle must be double-quoted".to_string()))?;
    if needle.is_empty() {
        return Err(err("needle must be non-empty".to_string()));
    }
    Ok(AllowEntry {
        rule: rule.to_string(),
        file: file.to_string(),
        needle: needle.to_string(),
        line: line_no,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
# comment
[order]
1 seal_lock: seal_lock
2 batch_gate: batch_gate
3 shard_registry: shards, shard

[serving]
crates/fleet/src/fleet.rs
crates/serve/src/

[determinism]
crates/types/src/hash.rs

[allow]
poison crates/fleet/src/fleet.rs "shard lock" -- registry locks fail fast
"#;

    #[test]
    fn parses_all_sections() {
        let m = Manifest::parse(SAMPLE).unwrap();
        assert_eq!(m.order.len(), 3);
        assert_eq!(m.order[2].patterns, vec!["shards", "shard"]);
        assert_eq!(m.serving.len(), 2);
        assert_eq!(m.allows.len(), 1);
        assert_eq!(m.allows[0].needle, "shard lock");
    }

    #[test]
    fn dir_prefixes_cover_files() {
        let m = Manifest::parse(SAMPLE).unwrap();
        assert!(Manifest::covers(&m.serving, "crates/serve/src/server.rs"));
        assert!(Manifest::covers(&m.serving, "crates/fleet/src/fleet.rs"));
        assert!(!Manifest::covers(
            &m.serving,
            "crates/fleet/src/snapshot.rs"
        ));
    }

    #[test]
    fn rejects_malformed_entries() {
        assert!(Manifest::parse("[order]\nxyz").is_err());
        assert!(
            Manifest::parse("[allow]\npoison f \"x\"").is_err(),
            "missing reason"
        );
        assert!(
            Manifest::parse("[allow]\npoison f \"x\" --  ").is_err(),
            "empty reason"
        );
        assert!(Manifest::parse("[bogus]\n").is_err());
        assert!(
            Manifest::parse("[order]\n2 a: a\n1 b: b").is_err(),
            "ranks must increase"
        );
    }
}
