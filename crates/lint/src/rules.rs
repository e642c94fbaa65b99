//! The seven invariant rules, plus the suppression machinery that keeps
//! every exception written down.
//!
//! Suppressions come in two shapes, and *both* are audited:
//!
//! * an inline marker comment whose text starts with `lint:` — e.g. a
//!   trailing `allow(panic) length checked above` — applies to the
//!   statement it shares a line with (or the next statement, when the
//!   marker is a comment line of its own). A marker whose target never
//!   produced a finding is reported as `stale-allow`: suppressions must
//!   not outlive the code they excuse.
//! * a manifest `[allow]` entry, matched against the statement's *raw*
//!   text (so needles can quote `.expect("…")` messages). Unused entries
//!   are reported as `stale-allow` against the manifest itself.
//!
//! `Ordering::Relaxed` justifications use a comment starting with
//! `relaxed:` and the same staleness accounting. A `[serving]` or
//! `[determinism]` entry that covers no scanned file is reported as
//! `stale-module`: a contract over nothing would silently stop applying.

use crate::manifest::Manifest;
use crate::report::{Finding, Report};
use crate::scan::{token_match, ScannedFile};

/// Panic-family tokens denied on serving paths.
const PANIC_TOKENS: &[&str] = &[
    ".unwrap()",
    ".expect(",
    "panic!",
    "unreachable!",
    "todo!",
    "unimplemented!",
];

/// Ways to start a thread, denied on serving paths.
const THREAD_TOKENS: &[&str] = &["thread::spawn", "thread::scope", "thread::Builder"];

/// Type/value names that make hashing or reporting nondeterministic.
const DETERMINISM_TOKENS: &[&str] = &[
    "HashMap",
    "HashSet",
    "RandomState",
    "Instant",
    "SystemTime",
    "ThreadId",
];

/// An inline suppression marker collected from the comment channel.
#[derive(Debug)]
struct Marker {
    /// Rule id it suppresses (`relaxed:` comments get rule `relaxed`).
    rule: String,
    /// 1-based line the marker sits on.
    line: usize,
    /// Index of the statement the marker applies to, if any.
    target: Option<usize>,
}

/// Runs every rule over the scanned files and returns the finalized
/// report. Pure: all IO happens in the caller.
#[must_use]
pub fn check(files: &[ScannedFile], manifest: &Manifest) -> Report {
    let mut report = Report {
        findings: Vec::new(),
        files_scanned: files.len(),
        suppressions_used: 0,
    };
    let mut allow_used = vec![false; manifest.allows.len()];
    for file in files {
        let markers = collect_markers(file, &mut report.findings);
        let mut marker_used = vec![false; markers.len()];
        let mut ctx = RuleCtx {
            file,
            manifest,
            markers: &markers,
            marker_used: &mut marker_used,
            allow_used: &mut allow_used,
            findings: &mut report.findings,
            suppressions_used: &mut report.suppressions_used,
        };
        ctx.hygiene();
        ctx.panic_rule();
        ctx.thread_rule();
        ctx.poison_rule();
        ctx.lock_order_rule();
        ctx.determinism_rule();
        ctx.relaxed_rule();
        for (marker, used) in markers.iter().zip(marker_used.iter()) {
            if !used {
                report.findings.push(Finding {
                    file: file.path.clone(),
                    line: marker.line,
                    rule: "stale-allow".to_string(),
                    message: format!(
                        "suppression marker for `{}` matches no finding — remove it",
                        marker.rule
                    ),
                    snippet: snippet_at(file, marker.line),
                });
            }
        }
    }
    for (entry, used) in manifest.allows.iter().zip(allow_used.iter()) {
        if !used {
            report.findings.push(Finding {
                file: "LOCK_ORDER".to_string(),
                line: entry.line,
                rule: "stale-allow".to_string(),
                message: format!(
                    "[allow] entry for `{}` in {} matches no finding — remove it",
                    entry.rule, entry.file
                ),
                snippet: format!("{} {} \"{}\"", entry.rule, entry.file, entry.needle),
            });
        }
    }
    for (section, set) in [
        ("serving", &manifest.serving),
        ("determinism", &manifest.determinism),
    ] {
        for entry in set
            .iter()
            .filter(|m| !files.iter().any(|f| m.covers(&f.path)))
        {
            report.findings.push(Finding {
                file: "LOCK_ORDER".to_string(),
                line: entry.line,
                rule: "stale-module".to_string(),
                message: format!("[{section}] entry matches no file — remove it"),
                snippet: entry.path.clone(),
            });
        }
    }
    report.finalize();
    report
}

/// Everything one file's rule pass needs; keeps the per-rule signatures
/// from sprawling.
struct RuleCtx<'a> {
    file: &'a ScannedFile,
    manifest: &'a Manifest,
    markers: &'a [Marker],
    marker_used: &'a mut [bool],
    allow_used: &'a mut [bool],
    findings: &'a mut Vec<Finding>,
    suppressions_used: &'a mut usize,
}

impl RuleCtx<'_> {
    /// Whether a finding of `rule` on statement `stmt_idx` is suppressed
    /// by a marker or an `[allow]` entry. Marks what it consumes.
    fn suppressed(&mut self, rule: &str, stmt_idx: usize) -> bool {
        let mut hit = false;
        for (i, marker) in self.markers.iter().enumerate() {
            if marker.rule == rule && marker.target == Some(stmt_idx) {
                self.marker_used[i] = true;
                hit = true;
            }
        }
        let raw = &self.file.statements[stmt_idx].raw;
        for (j, entry) in self.manifest.allows.iter().enumerate() {
            if entry.rule == rule && entry.file == self.file.path && raw.contains(&entry.needle) {
                self.allow_used[j] = true;
                hit = true;
            }
        }
        if hit {
            *self.suppressions_used += 1;
        }
        hit
    }

    fn emit(&mut self, line: usize, rule: &str, message: String) {
        self.findings.push(Finding {
            file: self.file.path.clone(),
            line,
            rule: rule.to_string(),
            message,
            snippet: snippet_at(self.file, line),
        });
    }

    /// Rule `hygiene`: every crate root carries `#![forbid(unsafe_code)]`.
    fn hygiene(&mut self) {
        let path = &self.file.path;
        let is_root = path.ends_with("/src/lib.rs")
            || path.ends_with("/src/main.rs")
            || path.contains("/src/bin/");
        if !is_root {
            return;
        }
        let has = self
            .file
            .lines
            .iter()
            .any(|l| l.code.contains("#![forbid(unsafe_code)]"));
        if !has {
            self.emit(
                1,
                "hygiene",
                "crate root is missing `#![forbid(unsafe_code)]`".to_string(),
            );
        }
    }

    /// Rule `panic`: no panic-family calls or unchecked indexing on
    /// serving paths. Lock-acquisition statements are the poison rule's
    /// jurisdiction and are skipped here, so `m.lock().expect(…)` yields
    /// exactly one finding (the right one).
    fn panic_rule(&mut self) {
        if !Manifest::covers(&self.manifest.serving, &self.file.path) {
            return;
        }
        for (idx, line) in self.file.lines.iter().enumerate() {
            if line.in_test || line.code.trim().is_empty() {
                continue;
            }
            let stmt_idx = self.file.statement_of[idx];
            if is_lock_statement(&self.file.statements[stmt_idx].code) {
                continue;
            }
            let mut hits: Vec<&str> = PANIC_TOKENS
                .iter()
                .filter(|tok| line.code.contains(*tok))
                .copied()
                .collect();
            if has_slice_index(&line.code) {
                hits.push("slice/array indexing");
            }
            if hits.is_empty() || self.suppressed("panic", stmt_idx) {
                continue;
            }
            self.emit(
                idx + 1,
                "panic",
                format!("{} on a serving path can panic", hits.join(", ")),
            );
        }
    }

    /// Rule `thread`: serving modules run on their callers' threads and
    /// start none of their own — no `thread::spawn`, `thread::scope` or
    /// `thread::Builder` outside test code.
    fn thread_rule(&mut self) {
        if !Manifest::covers(&self.manifest.serving, &self.file.path) {
            return;
        }
        for (idx, line) in self.file.lines.iter().enumerate() {
            if line.in_test {
                continue;
            }
            let hits: Vec<&str> = THREAD_TOKENS
                .iter()
                .filter(|tok| token_match(&line.code, tok))
                .copied()
                .collect();
            if hits.is_empty() || self.suppressed("thread", self.file.statement_of[idx]) {
                continue;
            }
            self.emit(
                idx + 1,
                "thread",
                format!("{} starts a thread in a serving module", hits.join(", ")),
            );
        }
    }

    /// Rule `poison`: every lock acquisition recovers from poisoning via
    /// `PoisonError::into_inner` (a panicking peer must not cascade), or
    /// carries a written exception.
    fn poison_rule(&mut self) {
        for (stmt_idx, stmt) in self.file.statements.iter().enumerate() {
            if stmt.in_test || !is_lock_statement(&stmt.code) {
                continue;
            }
            if stmt.code.contains("into_inner") {
                continue;
            }
            if self.suppressed("poison", stmt_idx) {
                continue;
            }
            self.emit(
                stmt.first_line,
                "poison",
                "lock acquisition without PoisonError::into_inner recovery".to_string(),
            );
        }
    }

    /// Rule `lock-order`: acquisitions must follow the manifest `[order]`
    /// hierarchy. Scope-aware — a guard taken inside an inner block is
    /// considered dropped once statements fall back below its depth, so
    /// the two-phase seal (shard guards released at inner-block end, then
    /// `seal_lock`) is legal while the reverse nesting is not.
    fn lock_order_rule(&mut self) {
        if self.manifest.order.is_empty() {
            return;
        }
        // (rank, class name, acquisition depth, line)
        let mut held: Vec<(u32, String, i32, usize)> = Vec::new();
        for (stmt_idx, stmt) in self.file.statements.iter().enumerate() {
            if stmt.code.trim().is_empty() {
                continue;
            }
            held.retain(|h| h.2 <= stmt.depth);
            if stmt.in_test || !acquires_lock(&stmt.code) {
                continue;
            }
            for class in &self.manifest.order {
                if !class.patterns.iter().any(|p| token_match(&stmt.code, p)) {
                    continue;
                }
                let worst = held
                    .iter()
                    .filter(|h| h.0 > class.rank)
                    .max_by_key(|h| h.0)
                    .cloned();
                if let Some((_, inner_name, _, inner_line)) = worst {
                    if !self.suppressed("lock-order", stmt_idx) {
                        self.emit(
                            stmt.first_line,
                            "lock-order",
                            format!(
                                "acquired `{}` while holding `{}` (line {}) — violates LOCK_ORDER",
                                class.name, inner_name, inner_line
                            ),
                        );
                    }
                }
                held.push((class.rank, class.name.clone(), stmt.depth, stmt.first_line));
            }
        }
    }

    /// Rule `determinism`: hash-, report-, and golden-feeding modules must
    /// not use unordered containers or wall-clock/thread identity.
    fn determinism_rule(&mut self) {
        if !Manifest::covers(&self.manifest.determinism, &self.file.path) {
            return;
        }
        for (idx, line) in self.file.lines.iter().enumerate() {
            if line.in_test || line.code.trim().is_empty() {
                continue;
            }
            let mut hits: Vec<&str> = DETERMINISM_TOKENS
                .iter()
                .filter(|tok| token_match(&line.code, tok))
                .copied()
                .collect();
            if line.code.contains("thread::current") {
                hits.push("thread::current");
            }
            if hits.is_empty() {
                continue;
            }
            let stmt_idx = self.file.statement_of[idx];
            if self.suppressed("determinism", stmt_idx) {
                continue;
            }
            self.emit(
                idx + 1,
                "determinism",
                format!("{} in a determinism-contract module", hits.join(", ")),
            );
        }
    }

    /// Rule `relaxed`: every `Ordering::Relaxed` carries a `relaxed:`
    /// justification comment explaining why no cross-thread ordering is
    /// needed.
    fn relaxed_rule(&mut self) {
        for (idx, line) in self.file.lines.iter().enumerate() {
            if line.in_test || !token_match(&line.code, "Relaxed") {
                continue;
            }
            let stmt_idx = self.file.statement_of[idx];
            let stmt = &self.file.statements[stmt_idx];
            if stmt.code.trim_start().starts_with("use ") {
                continue;
            }
            if self.suppressed("relaxed", stmt_idx) {
                continue;
            }
            self.emit(
                idx + 1,
                "relaxed",
                "Ordering::Relaxed without a `relaxed:` justification comment".to_string(),
            );
        }
    }
}

/// Whether the statement acquires a lock: `.lock()`, zero-argument
/// `.read()`/`.write()` (the `RwLock` signatures — `io::Read::read` and
/// `io::Write::write` always take a buffer), or their `try_` variants.
fn is_lock_statement(code: &str) -> bool {
    code.contains(".lock()")
        || code.contains(".read()")
        || code.contains(".write()")
        || code.contains(".try_lock()")
        || code.contains(".try_read()")
        || code.contains(".try_write()")
}

/// Broader predicate for the lock-order rule: raw acquisitions *plus*
/// calls through the workspace's `*_recover` poison-recovery helpers,
/// which are how the ordered fleet locks are actually taken.
fn acquires_lock(code: &str) -> bool {
    is_lock_statement(code)
        || code.contains("lock_recover(")
        || code.contains("read_recover(")
        || code.contains("write_recover(")
}

/// Whether the (already comment-stripped, literal-blanked) line contains a
/// slice/array index: a `[` immediately after an identifier char, `)`,
/// `]`, or `?`. Excludes attributes (`#[`), macros (`vec![`), and type
/// positions (`: [u8; 4]`).
fn has_slice_index(code: &str) -> bool {
    let chars: Vec<char> = code.chars().collect();
    for (i, &c) in chars.iter().enumerate() {
        if c != '[' || i == 0 {
            continue;
        }
        let prev = chars[i - 1];
        if prev.is_alphanumeric() || prev == '_' || prev == ')' || prev == ']' || prev == '?' {
            return true;
        }
    }
    false
}

/// Collects inline markers (`lint: allow(<rule>) <reason>` and
/// `relaxed: <reason>` comments) and reports malformed ones directly.
fn collect_markers(file: &ScannedFile, findings: &mut Vec<Finding>) -> Vec<Marker> {
    let mut markers = Vec::new();
    for (idx, line) in file.lines.iter().enumerate() {
        let comment = line.comment.trim_start();
        let (rule, rest) = if let Some(rest) = comment.strip_prefix("lint:") {
            let rest = rest.trim_start();
            let Some(inner) = rest.strip_prefix("allow(") else {
                findings.push(Finding {
                    file: file.path.clone(),
                    line: idx + 1,
                    rule: "stale-allow".to_string(),
                    message: "malformed marker — expected `lint: allow(<rule>) <reason>`"
                        .to_string(),
                    snippet: snippet_at(file, idx + 1),
                });
                continue;
            };
            let Some(close) = inner.find(')') else {
                findings.push(Finding {
                    file: file.path.clone(),
                    line: idx + 1,
                    rule: "stale-allow".to_string(),
                    message: "malformed marker — unclosed `allow(`".to_string(),
                    snippet: snippet_at(file, idx + 1),
                });
                continue;
            };
            (inner[..close].trim().to_string(), inner[close + 1..].trim())
        } else if let Some(rest) = comment.strip_prefix("relaxed:") {
            ("relaxed".to_string(), rest.trim())
        } else {
            continue;
        };
        if rest.is_empty() {
            findings.push(Finding {
                file: file.path.clone(),
                line: idx + 1,
                rule: "stale-allow".to_string(),
                message: format!("suppression marker for `{rule}` has no written reason"),
                snippet: snippet_at(file, idx + 1),
            });
            continue;
        }
        markers.push(Marker {
            rule,
            line: idx + 1,
            target: target_statement(file, idx),
        });
    }
    markers
}

/// The statement a marker on 0-based line `idx` applies to: the statement
/// sharing the line if it has code, else the next statement with code
/// (the marker-on-its-own-line form).
fn target_statement(file: &ScannedFile, idx: usize) -> Option<usize> {
    let s = file.statement_of.get(idx).copied()?;
    if !file.statements[s].code.trim().is_empty() {
        return Some(s);
    }
    ((s + 1)..file.statements.len()).find(|&n| !file.statements[n].code.trim().is_empty())
}

/// The raw source line, trimmed and bounded, for the finding snippet.
fn snippet_at(file: &ScannedFile, line: usize) -> String {
    let raw = file
        .lines
        .get(line.saturating_sub(1))
        .map_or("", |l| l.raw.trim());
    let mut s: String = raw.chars().take(160).collect();
    if raw.chars().count() > 160 {
        s.push('…');
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::scan;

    fn manifest() -> Manifest {
        Manifest::parse(
            "[order]\n\
             1 seal_lock: seal_lock\n\
             2 batch_gate: batch_gate\n\
             3 shard_registry: shards\n\
             [serving]\n\
             crates/x/src/\n\
             [determinism]\n\
             crates/x/src/hash.rs\n",
        )
        .unwrap()
    }

    /// Lints `src` at `path` beside an empty `hash.rs`, so every module
    /// the manifest names exists and only `path`'s findings show.
    fn run(path: &str, src: &str) -> Report {
        check(&with_hash_rs(scan(path, src)), &manifest())
    }

    fn with_hash_rs(file: ScannedFile) -> Vec<ScannedFile> {
        let hash = "crates/x/src/hash.rs";
        if file.path == hash {
            vec![file]
        } else {
            vec![file, scan(hash, "")]
        }
    }

    #[test]
    fn panic_rule_fires_and_markers_suppress() {
        let bad = run(
            "crates/x/src/a.rs",
            "fn f(v: &[u8]) { v.first().unwrap(); }\n",
        );
        assert_eq!(bad.findings.len(), 1);
        assert_eq!(bad.findings[0].rule, "panic");
        let ok = run(
            "crates/x/src/a.rs",
            "fn f(v: &[u8]) { v.first().unwrap(); } // lint: allow(panic) caller guarantees nonempty\n",
        );
        assert!(ok.is_clean(), "{:?}", ok.findings);
        assert_eq!(ok.suppressions_used, 1);
    }

    #[test]
    fn indexing_is_a_panic_finding_but_attrs_are_not() {
        let bad = run("crates/x/src/a.rs", "fn f(v: &[u8]) -> u8 { v[0] }\n");
        assert_eq!(bad.findings.len(), 1, "{:?}", bad.findings);
        let ok = run(
            "crates/x/src/a.rs",
            "#[derive(Clone)]\nstruct S { b: [u8; 4] }\nfn g() -> Vec<u8> { vec![1, 2] }\n",
        );
        assert!(ok.is_clean(), "{:?}", ok.findings);
    }

    #[test]
    fn thread_rule_fires_in_serving_modules_only() {
        let spawn = "fn f() { std::thread::spawn(|| ()); }\n";
        let bad = run("crates/x/src/a.rs", spawn);
        assert_eq!(bad.findings.len(), 1, "{:?}", bad.findings);
        assert_eq!(bad.findings[0].rule, "thread");
        let builder = run(
            "crates/x/src/a.rs",
            "fn f() {\n    let _ = std::thread::Builder::new()\n        .spawn(|| ());\n}\n",
        );
        assert_eq!(builder.findings.len(), 1, "{:?}", builder.findings);
        assert_eq!(
            (builder.findings[0].rule.as_str(), builder.findings[0].line),
            ("thread", 2)
        );
        let scoped = run("crates/x/src/a.rs", "fn f() { thread::scope(|_| ()); }\n");
        assert_eq!(scoped.findings.len(), 1, "{:?}", scoped.findings);
        // Outside [serving], in test code, or merely naming a handle: fine.
        assert!(run("crates/y/src/a.rs", spawn).is_clean());
        let in_test = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { std::thread::spawn(|| ()); }\n}\n";
        assert!(run("crates/x/src/a.rs", in_test).is_clean());
        assert!(run("crates/x/src/a.rs", "use std::thread::JoinHandle;\n").is_clean());
    }

    #[test]
    fn poison_rule_owns_lock_statements() {
        // `.lock().expect(…)` is a poison finding, never a panic one.
        let bad = run(
            "crates/x/src/a.rs",
            "fn f(m: &std::sync::Mutex<u8>) { let _g = m.lock().expect(\"x\"); }\n",
        );
        assert_eq!(bad.findings.len(), 1, "{:?}", bad.findings);
        assert_eq!(bad.findings[0].rule, "poison");
        let ok = run(
            "crates/x/src/a.rs",
            "fn f(m: &std::sync::Mutex<u8>) { let _g = m.lock().unwrap_or_else(std::sync::PoisonError::into_inner); }\n",
        );
        assert!(ok.is_clean(), "{:?}", ok.findings);
    }

    #[test]
    fn lock_order_violation_detected_and_scoping_respected() {
        let bad = "fn f(&self) {\n\
                   \x20   let _s = self.shards[0].lock().unwrap_or_else(PoisonError::into_inner);\n\
                   \x20   let _g = self.seal_lock.lock().unwrap_or_else(PoisonError::into_inner);\n\
                   }\n";
        let r = run("crates/x/src/a.rs", bad);
        assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
        assert_eq!(r.findings[0].rule, "lock-order");
        // Same pair is legal when the inner guard dies in an inner block.
        let ok = "fn f(&self) {\n\
                  \x20   {\n\
                  \x20       let _s = self.shards[0].lock().unwrap_or_else(PoisonError::into_inner);\n\
                  \x20   }\n\
                  \x20   let _g = self.seal_lock.lock().unwrap_or_else(PoisonError::into_inner);\n\
                  }\n";
        let r = run("crates/x/src/a.rs", ok);
        assert!(r.is_clean(), "{:?}", r.findings);
    }

    #[test]
    fn determinism_rule_scoped_to_manifest_modules() {
        let bad = run(
            "crates/x/src/hash.rs",
            "use std::collections::HashMap;\nfn f() { let _m: HashMap<u8, u8> = HashMap::new(); }\n",
        );
        assert!(bad.findings.iter().all(|f| f.rule == "determinism"));
        assert_eq!(bad.findings.len(), 2, "{:?}", bad.findings);
        // Same tokens outside the determinism set: no findings.
        let ok = run(
            "crates/x/src/other.rs",
            "use std::collections::HashMap;\nfn f() { let _m: HashMap<u8, u8> = HashMap::new(); }\n",
        );
        assert!(ok.is_clean(), "{:?}", ok.findings);
    }

    #[test]
    fn relaxed_requires_justification() {
        let bad = run(
            "crates/y/src/a.rs",
            "fn f(c: &std::sync::atomic::AtomicU64) { c.fetch_add(1, std::sync::atomic::Ordering::Relaxed); }\n",
        );
        assert_eq!(bad.findings.len(), 1);
        assert_eq!(bad.findings[0].rule, "relaxed");
        let ok = run(
            "crates/y/src/a.rs",
            "fn f(c: &std::sync::atomic::AtomicU64) {\n\
             \x20   // relaxed: monotonic stat counter, read only by the same thread's report\n\
             \x20   c.fetch_add(1, std::sync::atomic::Ordering::Relaxed);\n\
             }\n",
        );
        assert!(ok.is_clean(), "{:?}", ok.findings);
    }

    #[test]
    fn stale_markers_are_findings() {
        let r = run(
            "crates/y/src/a.rs",
            "// lint: allow(panic) nothing here actually panics\nfn f() {}\n",
        );
        assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
        assert_eq!(r.findings[0].rule, "stale-allow");
        let no_reason = run(
            "crates/x/src/a.rs",
            "fn f() { g(); } // lint: allow(panic)\n",
        );
        assert_eq!(no_reason.findings.len(), 1);
        assert!(no_reason.findings[0].message.contains("no written reason"));
    }

    #[test]
    fn stale_manifest_allows_are_findings() {
        let mut m = manifest();
        m.allows.push(crate::manifest::AllowEntry {
            rule: "poison".to_string(),
            file: "crates/x/src/a.rs".to_string(),
            needle: "never present".to_string(),
            reason: "r".to_string(),
            line: 9,
        });
        let files = with_hash_rs(scan("crates/x/src/a.rs", "fn f() {}\n"));
        let r = check(&files, &m);
        assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
        assert_eq!(r.findings[0].rule, "stale-allow");
        assert_eq!(r.findings[0].file, "LOCK_ORDER");
    }

    #[test]
    fn module_entries_over_no_file_are_findings() {
        let mut m = manifest();
        m.determinism.push(crate::manifest::ModuleEntry {
            path: "crates/x/src/gone.rs".to_string(),
            line: 9,
        });
        let files = with_hash_rs(scan("crates/x/src/a.rs", "fn f() {}\n"));
        let r = check(&files, &m);
        assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
        assert_eq!(r.findings[0].rule, "stale-module");
        assert_eq!(
            (r.findings[0].file.as_str(), r.findings[0].line),
            ("LOCK_ORDER", 9)
        );
    }

    #[test]
    fn hygiene_requires_forbid_unsafe() {
        let bad = run("crates/y/src/lib.rs", "pub fn f() {}\n");
        assert_eq!(bad.findings.len(), 1);
        assert_eq!(bad.findings[0].rule, "hygiene");
        let ok = run(
            "crates/y/src/lib.rs",
            "#![forbid(unsafe_code)]\npub fn f() {}\n",
        );
        assert!(ok.is_clean());
        let non_root = run("crates/y/src/util.rs", "pub fn f() {}\n");
        assert!(non_root.is_clean(), "only crate roots are checked");
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { x().unwrap(); m.lock().expect(\"poisoned\"); }\n}\n";
        let r = run("crates/x/src/a.rs", src);
        assert!(r.is_clean(), "{:?}", r.findings);
    }
}
