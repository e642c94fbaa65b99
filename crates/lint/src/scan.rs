//! A hand-rolled Rust line scanner: splits source into per-line *code*
//! and *comment* channels so the rules never fire on text inside string
//! literals or doc comments, and never miss a marker because it shares a
//! line with code.
//!
//! This is deliberately **not** a parser. The rules it feeds are
//! substring/token checks over three derived views:
//!
//! * [`Line::code`] — the line with comments stripped and the *contents*
//!   of string/char literals blanked to spaces (delimiters kept, so
//!   bracket depth still balances);
//! * [`Line::comment`] — the text of any `//` comment on the line
//!   (block-comment text is folded in too), where suppression markers and
//!   `relaxed:` justifications live;
//! * [`Statement`]s — physical lines joined until brackets balance and a
//!   terminator is seen, so a method chain split across six lines is
//!   matched as one unit (poison recovery, lock classification).
//!
//! The scanner also tracks `#[cfg(test)]` module regions and `#[test]`
//! functions by brace depth: every rule skips them, because the contracts
//! under enforcement are *serving-path* contracts and tests deliberately
//! panic, lock-unwrap, and iterate hash maps.

/// One physical source line, split into channels.
#[derive(Debug, Clone, Default)]
pub struct Line {
    /// The original source line, untouched (snippets, allow-needle match).
    pub raw: String,
    /// Code with comments stripped and literal contents blanked.
    pub code: String,
    /// Comment text on this line (line + block comments, concatenated).
    pub comment: String,
    /// Whether any part of the line is inside a `#[cfg(test)]` module or
    /// `#[test]` function body.
    pub in_test: bool,
    /// Brace depth at the *start* of the line.
    pub depth: i32,
}

/// A logical statement: one or more physical lines joined until brackets
/// balanced and a `;`/`{`/`}` terminator was seen.
#[derive(Debug, Clone)]
pub struct Statement {
    /// Joined code text of the statement (single-space separated).
    pub code: String,
    /// Joined raw text (trimmed lines, single-space separated) — what
    /// manifest allow-needles match against, since `code` blanks string
    /// literals such as `.expect("…")` messages.
    pub raw: String,
    /// 1-based first physical line.
    pub first_line: usize,
    /// Brace depth at the statement's first line.
    pub depth: i32,
    /// Whether the statement lies in a test region.
    pub in_test: bool,
}

/// A scanned file: lines, statements, and the line→statement index.
#[derive(Debug)]
pub struct ScannedFile {
    /// Workspace-relative path (forward slashes).
    pub path: String,
    /// 0-based vector of physical lines.
    pub lines: Vec<Line>,
    /// Logical statements in order.
    pub statements: Vec<Statement>,
    /// For each 0-based line, the index into `statements` covering it.
    pub statement_of: Vec<usize>,
}

/// Lexer state that survives across lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Code,
    /// Inside a (possibly nested) block comment; the payload is nesting depth.
    Block(u32),
    /// Inside a normal `"…"` string literal.
    Str,
    /// Inside a raw string with this many `#` marks.
    RawStr(u32),
}

/// Splits `source` into per-line code/comment channels and statements.
#[must_use]
pub fn scan(path: &str, source: &str) -> ScannedFile {
    let mut lines = Vec::new();
    let mut mode = Mode::Code;
    for raw in source.lines() {
        let (mut line, next) = scan_line(raw, mode);
        line.raw = raw.to_string();
        mode = next;
        lines.push(line);
    }
    mark_depths_and_tests(&mut lines);
    let (statements, statement_of) = join_statements(&lines);
    ScannedFile {
        path: path.to_string(),
        lines,
        statements,
        statement_of,
    }
}

/// Lexes one physical line starting in `mode`, returning the split line
/// and the mode the next line starts in.
fn scan_line(raw: &str, mut mode: Mode) -> (Line, Mode) {
    let mut code = String::with_capacity(raw.len());
    let mut comment = String::new();
    let chars: Vec<char> = raw.chars().collect();
    let mut i = 0usize;
    while i < chars.len() {
        let c = chars[i];
        match mode {
            Mode::Block(depth) => {
                if c == '*' && chars.get(i + 1) == Some(&'/') {
                    mode = if depth > 1 {
                        Mode::Block(depth - 1)
                    } else {
                        Mode::Code
                    };
                    i += 2;
                } else if c == '/' && chars.get(i + 1) == Some(&'*') {
                    mode = Mode::Block(depth + 1);
                    i += 2;
                } else {
                    comment.push(c);
                    i += 1;
                }
            }
            Mode::Str => {
                if c == '\\' {
                    // Escape: consume the next char blindly (covers \" and \\).
                    code.push(' ');
                    if i + 1 < chars.len() {
                        code.push(' ');
                    }
                    i += 2;
                } else if c == '"' {
                    code.push('"');
                    mode = Mode::Code;
                    i += 1;
                } else {
                    code.push(' ');
                    i += 1;
                }
            }
            Mode::RawStr(hashes) => {
                if c == '"' && closes_raw(&chars, i, hashes) {
                    code.push('"');
                    for _ in 0..hashes {
                        code.push(' ');
                    }
                    mode = Mode::Code;
                    i += 1 + hashes as usize;
                } else {
                    code.push(' ');
                    i += 1;
                }
            }
            Mode::Code => {
                if c == '/' && chars.get(i + 1) == Some(&'/') {
                    // Line comment: the rest of the line is comment text.
                    comment.push_str(&chars[i + 2..].iter().collect::<String>());
                    break;
                } else if c == '/' && chars.get(i + 1) == Some(&'*') {
                    mode = Mode::Block(1);
                    i += 2;
                } else if c == '"' {
                    code.push('"');
                    mode = Mode::Str;
                    i += 1;
                } else if let Some(hashes) = raw_string_open(&chars, i) {
                    // r"…", r#"…"#, br#"…"# — skip past the opening quote.
                    let quote_at = chars[i..].iter().position(|&ch| ch == '"').unwrap_or(0);
                    for _ in 0..=quote_at {
                        code.push(' ');
                    }
                    mode = Mode::RawStr(hashes);
                    i += quote_at + 1;
                } else if c == '\'' {
                    // Char literal vs lifetime.
                    if let Some(len) = char_literal_len(&chars, i) {
                        code.push('\'');
                        for _ in 1..len {
                            code.push(' ');
                        }
                        i += len;
                    } else {
                        // A lifetime: keep the tick, scan on.
                        code.push('\'');
                        i += 1;
                    }
                } else {
                    code.push(c);
                    i += 1;
                }
            }
        }
    }
    (
        Line {
            raw: String::new(),
            code,
            comment,
            in_test: false,
            depth: 0,
        },
        // Block comments, raw strings and plain strings all carry into the
        // next line; a char literal never spans one.
        mode,
    )
}

/// Does position `i` (a `"`) close a raw string with `hashes` marks?
fn closes_raw(chars: &[char], i: usize, hashes: u32) -> bool {
    let mut n = 0u32;
    while n < hashes {
        if chars.get(i + 1 + n as usize) != Some(&'#') {
            return false;
        }
        n += 1;
    }
    true
}

/// Detects a raw-string opener (`r"`, `r#"`, `br##"` …) at `i`; returns
/// the hash count.
fn raw_string_open(chars: &[char], i: usize) -> Option<u32> {
    // Must not be the tail of an identifier (e.g. `for r in …` vs `var`).
    if i > 0 && is_ident(chars[i - 1]) {
        return None;
    }
    let mut j = i;
    if chars.get(j) == Some(&'b') {
        j += 1;
    }
    if chars.get(j) != Some(&'r') {
        return None;
    }
    j += 1;
    let mut hashes = 0u32;
    while chars.get(j) == Some(&'#') {
        hashes += 1;
        j += 1;
    }
    if chars.get(j) == Some(&'"') {
        Some(hashes)
    } else {
        None
    }
}

/// Length of a char literal starting at the `'` at `i`, or `None` if the
/// tick starts a lifetime.
fn char_literal_len(chars: &[char], i: usize) -> Option<usize> {
    match chars.get(i + 1) {
        // Escape: scan to the closing tick ('\n', '\u{1F600}', '\'').
        Some('\\') => {
            let mut j = i + 3; // first candidate closer (skip the escaped char)
            while j < chars.len() && j < i + 12 {
                if chars[j] == '\'' {
                    return Some(j - i + 1);
                }
                j += 1;
            }
            None
        }
        // 'x' — a closing tick two ahead makes it a literal; otherwise
        // it's a lifetime ('a, 'static) or a loop label.
        Some(_) if chars.get(i + 2) == Some(&'\'') => Some(3),
        _ => None,
    }
}

pub(crate) fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Second pass: record per-line brace depth and mark `#[cfg(test)]` mod /
/// `#[test]` fn regions.
fn mark_depths_and_tests(lines: &mut [Line]) {
    let mut depth = 0i32;
    // (close_depth) stack of test regions: the region ends when depth
    // returns to the recorded value after having entered the block.
    let mut test_regions: Vec<i32> = Vec::new();
    // Pending attribute state: Some(depth) once `#[cfg(test)]` / `#[test]`
    // was seen and we are waiting for the item's opening brace.
    let mut pending_attr: Option<i32> = None;
    for line in lines.iter_mut() {
        line.depth = depth;
        let code = line.code.clone();
        let trimmed = code.trim();
        if trimmed.contains("#[cfg(test)]") || trimmed.contains("#[test]") {
            pending_attr = Some(depth);
        }
        line.in_test = !test_regions.is_empty() || pending_attr.is_some();
        for c in code.chars() {
            match c {
                '{' => {
                    if let Some(d) = pending_attr {
                        if depth == d {
                            // The attributed item's body opens here.
                            test_regions.push(d);
                            pending_attr = None;
                        }
                    }
                    depth += 1;
                }
                '}' => {
                    depth -= 1;
                    if let Some(&d) = test_regions.last() {
                        if depth <= d {
                            test_regions.pop();
                        }
                    }
                }
                _ => {}
            }
        }
        // An attributed item that never opened a brace on its line (e.g.
        // `#[cfg(test)] use …;`) only shields its own line — clear the
        // pending attr once a terminated statement passed.
        if let Some(d) = pending_attr {
            if depth == d && trimmed.ends_with(';') {
                pending_attr = None;
            }
        }
    }
}

/// Third pass: join physical lines into statements.
fn join_statements(lines: &[Line]) -> (Vec<Statement>, Vec<usize>) {
    let mut statements = Vec::new();
    let mut statement_of = vec![0usize; lines.len()];
    let mut buf = String::new();
    let mut raw_buf = String::new();
    let mut first: Option<usize> = None;
    let mut rel: i32 = 0; // bracket depth relative to statement start
    for (idx, line) in lines.iter().enumerate() {
        let code = line.code.trim();
        if first.is_none() {
            if code.is_empty() {
                // Blank / pure-comment line outside any statement: give it
                // its own empty statement slot.
                statement_of[idx] = statements.len();
                statements.push(Statement {
                    code: String::new(),
                    raw: String::new(),
                    first_line: idx + 1,
                    depth: line.depth,
                    in_test: line.in_test,
                });
                continue;
            }
            first = Some(idx);
        }
        if !buf.is_empty() {
            buf.push(' ');
        }
        buf.push_str(code);
        if !raw_buf.is_empty() {
            raw_buf.push(' ');
        }
        raw_buf.push_str(line.raw.trim());
        // Only parens/brackets force joining: braces *terminate*
        // statements (a `fn f() {` opener ends its own statement), while
        // an unbalanced `(` — e.g. `.map(|s| {` — keeps the closure body
        // inside the chain statement that owns it.
        for c in code.chars() {
            match c {
                '(' | '[' => rel += 1,
                ')' | ']' => rel -= 1,
                _ => {}
            }
        }
        let terminated = rel <= 0
            && (code.ends_with(';')
                || code.ends_with('{')
                || code.ends_with('}')
                || code.ends_with(','));
        if terminated {
            let start = first.unwrap_or(idx);
            let stmt = Statement {
                code: std::mem::take(&mut buf),
                raw: std::mem::take(&mut raw_buf),
                first_line: start + 1,
                depth: lines[start].depth,
                in_test: lines[start].in_test,
            };
            for s in statement_of.iter_mut().take(idx + 1).skip(start) {
                *s = statements.len();
            }
            statements.push(stmt);
            first = None;
            rel = 0;
        }
    }
    if let Some(start) = first {
        let stmt = Statement {
            code: buf,
            raw: raw_buf,
            first_line: start + 1,
            depth: lines[start].depth,
            in_test: lines[start].in_test,
        };
        for s in statement_of.iter_mut().take(lines.len()).skip(start) {
            *s = statements.len();
        }
        statements.push(stmt);
    }
    (statements, statement_of)
}

/// Whether `needle` occurs in `haystack` as a whole token (not embedded in
/// a longer identifier on either side).
#[must_use]
pub fn token_match(haystack: &str, needle: &str) -> bool {
    let mut from = 0usize;
    while let Some(pos) = haystack[from..].find(needle) {
        let at = from + pos;
        let before_ok = at == 0 || !haystack[..at].chars().next_back().is_some_and(is_ident);
        let after = at + needle.len();
        let after_ok =
            after >= haystack.len() || !haystack[after..].chars().next().is_some_and(is_ident);
        if before_ok && after_ok {
            return true;
        }
        from = at + needle.len().max(1);
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_and_strings_are_split_out() {
        let f = scan(
            "t.rs",
            "let x = \"a.unwrap() // not code\"; // real comment unwrap()\n",
        );
        assert!(!f.lines[0].code.contains("unwrap"));
        assert!(f.lines[0].comment.contains("real comment unwrap()"));
        assert!(f.lines[0].code.contains("let x ="));
    }

    #[test]
    fn raw_strings_and_escapes_are_blanked() {
        let f = scan(
            "t.rs",
            "let a = r#\"panic!(\"x\")\"#;\nlet b = \"esc \\\" .lock()\";\n",
        );
        assert!(!f.lines[0].code.contains("panic!"));
        assert!(!f.lines[1].code.contains(".lock()"));
    }

    #[test]
    fn an_unterminated_string_carries_into_the_next_line() {
        let (_, next) = scan_line("let s = \"first line", Mode::Code);
        assert_eq!(next, Mode::Str);
        let f = scan("t.rs", "let s = \"a\n.unwrap() b\";\nx.lock();\n");
        assert!(!f.lines[1].code.contains("unwrap"));
        assert!(f.lines[2].code.contains("x.lock();"));
    }

    #[test]
    fn nested_block_comments_close_correctly() {
        let f = scan("t.rs", "/* a /* b */ still comment */ let x = 1;\n");
        assert!(f.lines[0].code.contains("let x = 1;"));
        assert!(f.lines[0].comment.contains("still comment"));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let f = scan("t.rs", "fn f<'a>(x: &'a str) -> &'a str { x }\n");
        assert!(f.lines[0].code.contains("fn f<'a>(x: &'a str)"));
        let g = scan("t.rs", "let c = 'x'; let nl = '\\n';\n");
        assert!(!g.lines[0].code.contains('x'));
    }

    #[test]
    fn cfg_test_modules_are_marked() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\nfn after() {}\n";
        let f = scan("t.rs", src);
        assert!(!f.lines[0].in_test);
        assert!(f.lines[3].in_test, "inside the test mod");
        assert!(!f.lines[5].in_test, "after the test mod");
    }

    #[test]
    fn statements_join_across_lines() {
        let src = "let _gate = self\n    .batch_gate\n    .read()\n    .unwrap_or_else(PoisonError::into_inner);\n";
        let f = scan("t.rs", src);
        let stmt = &f.statements[f.statement_of[0]];
        assert!(stmt.code.contains(".read()"));
        assert!(stmt.code.contains("PoisonError::into_inner"));
        assert_eq!(stmt.first_line, 1);
        assert!(f.statement_of.iter().all(|&s| s == f.statement_of[0]));
    }

    #[test]
    fn token_match_respects_boundaries() {
        assert!(token_match("self.batch_gate.read()", "batch_gate"));
        assert!(!token_match("self.dispatch_gate.lock()", "batch_gate"));
        assert!(!token_match("shards_total", "shards"));
        assert!(token_match("self.shards[0].lock()", "shards"));
    }
}
