//! A lexer-level static-analysis pass over the workspace source.
//!
//! The rules encode the serving stack's panic-safety contract (see
//! DESIGN.md §11) without any external parser dependency: the source is
//! *masked* — comments, strings and char literals blanked out, newlines
//! kept — so token scans cannot be fooled by `"unwrap()"` inside a string
//! or a commented-out `panic!`. Four rules run over the masked text:
//!
//! | rule | scope | violation |
//! |------|-------|-----------|
//! | `no-unwrap`    | `crates/serve`, `crates/index` non-test code | `.unwrap()`, `.expect(...)`, `panic!` |
//! | `safety-comment` | every crate | an `unsafe {` block or `unsafe impl` without a `// SAFETY:` comment directly above |
//! | `no-lossy-as`  | codec/decoder modules | `as` casts to a narrower type (`u8`/`u16`/`u32`/`i8`/`i16`/`i32`/`f32`) |
//! | `no-todo`      | every crate | `todo!` or `dbg!` |
//!
//! Grandfathered sites live in `crates/audit/allowlist.txt` as
//! `rule path max_count` lines — a count-based ratchet: the build fails
//! when a file *exceeds* its allowance (a regression) and when a file
//! comes in *under* it (a stale allowance: tighten the number, so the
//! ratchet only ever moves down).

use std::fmt;
use std::path::{Path, PathBuf};

/// Decoder/codec modules where lossy `as` casts are flagged: these parse
/// attacker-controlled bytes, so a silent truncation is a correctness
/// (and occasionally a memory-safety) hazard rather than a style issue.
const CODEC_MODULES: &[&str] = &[
    "crates/core/src/persist.rs",
    "crates/nn/src/store.rs",
    "crates/index/src/ivf.rs",
    "crates/index/src/storage.rs",
    "crates/engine/src/engine.rs",
    "crates/serve/src/proto.rs",
    "crates/serve/src/json.rs",
];

/// Crates whose non-test code must be panic-free (the serving stack).
const NO_PANIC_SCOPES: &[&str] = &["crates/serve/src/", "crates/index/src/"];

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Rule identifier (`no-unwrap`, `safety-comment`, ...).
    pub rule: &'static str,
    /// Repo-relative path with forward slashes.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// The offending source line, trimmed.
    pub snippet: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.snippet
        )
    }
}

/// Outcome of a lint run over the tree.
#[derive(Debug, Default)]
pub struct LintReport {
    /// Violations NOT covered by the allowlist (each one fails the run).
    pub new_violations: Vec<Violation>,
    /// Violations absorbed by allowlist allowances.
    pub grandfathered: usize,
    /// `rule path` entries whose allowance exceeds the current count —
    /// each one fails the run until the number is tightened.
    pub stale_allowances: Vec<String>,
    /// Files scanned.
    pub files: usize,
}

impl LintReport {
    /// Whether the tree passes: no violations beyond the allowlist, and
    /// no allowance left above its file's current count.
    pub fn passed(&self) -> bool {
        self.new_violations.is_empty() && self.stale_allowances.is_empty()
    }
}

/// Runs the lint over `<root>/crates/*/src`, reading the allowlist from
/// `<root>/crates/audit/allowlist.txt` (a missing allowlist means no
/// allowances).
///
/// # Errors
/// Propagates I/O errors from walking or reading the tree.
pub fn run_lint(root: &Path) -> std::io::Result<LintReport> {
    let mut files = Vec::new();
    let crates_dir = root.join("crates");
    for entry in std::fs::read_dir(&crates_dir)? {
        let src = entry?.path().join("src");
        if src.is_dir() {
            collect_rs_files(&src, &mut files)?;
        }
    }
    files.sort();
    let mut violations = Vec::new();
    for file in &files {
        let text = std::fs::read_to_string(file)?;
        let rel = file
            .strip_prefix(root)
            .unwrap_or(file)
            .to_string_lossy()
            .replace('\\', "/");
        violations.extend(lint_source(&rel, &text));
    }
    let allowlist = load_allowlist(&root.join("crates/audit/allowlist.txt"));
    Ok(apply_allowlist(violations, &allowlist, files.len()))
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// One allowlist entry: up to `max` violations of `rule` in `path`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allowance {
    /// Rule identifier the allowance applies to.
    pub rule: String,
    /// Repo-relative file path.
    pub path: String,
    /// Maximum tolerated count (the ratchet).
    pub max: usize,
}

fn load_allowlist(path: &Path) -> Vec<Allowance> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    parse_allowlist(&text)
}

/// Parses `rule path max_count` lines (`#` comments and blanks skipped);
/// malformed lines are ignored rather than failing the run.
pub fn parse_allowlist(text: &str) -> Vec<Allowance> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|l| {
            let mut parts = l.split_whitespace();
            Some(Allowance {
                rule: parts.next()?.to_string(),
                path: parts.next()?.to_string(),
                max: parts.next()?.parse().ok()?,
            })
        })
        .collect()
}

fn apply_allowlist(
    violations: Vec<Violation>,
    allowlist: &[Allowance],
    files: usize,
) -> LintReport {
    let mut report = LintReport {
        files,
        ..LintReport::default()
    };
    // Group counts per (rule, path); within a group, allowances absorb the
    // first `max` hits — the ratchet cares about counts, not line numbers,
    // so unrelated edits shifting lines never break the build.
    let mut absorbed: Vec<(String, String, usize)> = allowlist
        .iter()
        .map(|a| (a.rule.clone(), a.path.clone(), a.max))
        .collect();
    for v in violations {
        let slot = absorbed
            .iter_mut()
            .find(|(r, p, left)| *left > 0 && r == v.rule && *p == v.path);
        match slot {
            Some((_, _, left)) => {
                *left -= 1;
                report.grandfathered += 1;
            }
            None => report.new_violations.push(v),
        }
    }
    for (rule, path, left) in absorbed {
        if left > 0 {
            report
                .stale_allowances
                .push(format!("{rule} {path} (allowance exceeds count by {left})"));
        }
    }
    report
}

/// Lints one file's source text; `path` is the repo-relative label used
/// for scoping rules and reporting.
pub fn lint_source(path: &str, text: &str) -> Vec<Violation> {
    let masked = mask_source(text);
    let test_lines = test_line_mask(&masked);
    let lines: Vec<&str> = text.lines().collect();
    let masked_bytes = masked.as_bytes();
    let line_of = line_index(masked_bytes);
    let mut out = Vec::new();

    let in_tests =
        |byte: usize| -> bool { test_lines.get(line_of[byte]).copied().unwrap_or(false) };
    let mut push = |rule: &'static str, byte: usize| {
        let line = line_of[byte];
        out.push(Violation {
            rule,
            path: path.to_string(),
            line: line + 1,
            snippet: lines.get(line).map_or("", |l| l.trim()).to_string(),
        });
    };

    let no_panic_scope = NO_PANIC_SCOPES.iter().any(|s| path.starts_with(s));
    let codec_scope = CODEC_MODULES.contains(&path);

    for (start, word) in idents(masked_bytes) {
        match word {
            "unwrap" | "expect" if no_panic_scope && !in_tests(start) => {
                // Only the postfix-call form: `.unwrap()` / `.expect(`.
                let before = prev_non_ws(masked_bytes, start);
                let after = next_non_ws(masked_bytes, start + word.len());
                if before == Some(b'.') && after == Some(b'(') {
                    push("no-unwrap", start);
                }
            }
            "panic"
                if no_panic_scope
                    && !in_tests(start)
                    && next_non_ws(masked_bytes, start + word.len()) == Some(b'!') =>
            {
                push("no-unwrap", start);
            }
            "todo" | "dbg"
                if !in_tests(start)
                    && next_non_ws(masked_bytes, start + word.len()) == Some(b'!') =>
            {
                push("no-todo", start);
            }
            "unsafe" if !in_tests(start) => {
                let rest = &masked[start + word.len()..];
                let next = rest.trim_start();
                // `unsafe {` performs operations; `unsafe impl` asserts a
                // whole-type contract. Both need a written justification.
                // `unsafe fn` merely declares (its body operations carry
                // their own blocks under `deny(unsafe_op_in_unsafe_fn)`).
                let needs = next.starts_with('{') || next.starts_with("impl");
                if needs && !has_safety_comment(&lines, line_of[start]) {
                    push("safety-comment", start);
                }
            }
            "as" if codec_scope && !in_tests(start) => {
                let rest = &masked[start + word.len()..];
                let target: String = rest
                    .trim_start()
                    .chars()
                    .take_while(|c| c.is_ascii_alphanumeric())
                    .collect();
                if matches!(
                    target.as_str(),
                    "u8" | "u16" | "u32" | "i8" | "i16" | "i32" | "f32"
                ) {
                    push("no-lossy-as", start);
                }
            }
            _ => {}
        }
    }
    out
}

/// Whether the contiguous `//` comment block directly above `line`
/// mentions `SAFETY:`.
fn has_safety_comment(lines: &[&str], line: usize) -> bool {
    // The `unsafe` token may sit on a continuation line of a multi-line
    // expression; accept a SAFETY marker earlier on the same line too.
    if lines.get(line).is_some_and(|l| l.contains("SAFETY:")) {
        return true;
    }
    let mut i = line;
    while i > 0 {
        i -= 1;
        let trimmed = lines[i].trim_start();
        if trimmed.starts_with("//") {
            if trimmed.contains("SAFETY:") {
                return true;
            }
        } else {
            break;
        }
    }
    false
}

/// Byte index → 0-based line number, for every byte of `text`.
fn line_index(text: &[u8]) -> Vec<usize> {
    let mut out = Vec::with_capacity(text.len() + 1);
    let mut line = 0usize;
    for &b in text {
        out.push(line);
        if b == b'\n' {
            line += 1;
        }
    }
    out.push(line);
    out
}

fn prev_non_ws(b: &[u8], mut i: usize) -> Option<u8> {
    while i > 0 {
        i -= 1;
        if !b[i].is_ascii_whitespace() {
            return Some(b[i]);
        }
    }
    None
}

fn next_non_ws(b: &[u8], mut i: usize) -> Option<u8> {
    while i < b.len() {
        if !b[i].is_ascii_whitespace() {
            return Some(b[i]);
        }
        i += 1;
    }
    None
}

/// Iterates `(start, word)` over identifier tokens of masked source.
fn idents(b: &[u8]) -> Vec<(usize, &str)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < b.len() {
        if b[i].is_ascii_alphabetic() || b[i] == b'_' {
            let start = i;
            while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                i += 1;
            }
            // Masked source is ASCII-safe in ident positions.
            if let Ok(w) = std::str::from_utf8(&b[start..i]) {
                out.push((start, w));
            }
        } else {
            i += 1;
        }
    }
    out
}

/// Replaces comment bodies, string/char literal contents and their
/// delimiters with spaces, preserving byte offsets and newlines, so the
/// token scans above cannot match inside non-code text.
pub fn mask_source(src: &str) -> String {
    let b = src.as_bytes();
    let mut out = b.to_vec();
    let mut i = 0usize;
    let blank = |out: &mut [u8], from: usize, to: usize| {
        for slot in &mut out[from..to] {
            if *slot != b'\n' {
                *slot = b' ';
            }
        }
    };
    while i < b.len() {
        let prev_ident = i > 0 && (b[i - 1].is_ascii_alphanumeric() || b[i - 1] == b'_');
        match b[i] {
            b'/' if b.get(i + 1) == Some(&b'/') => {
                let end = memchr_newline(b, i);
                blank(&mut out, i, end);
                i = end;
            }
            b'/' if b.get(i + 1) == Some(&b'*') => {
                let mut depth = 1usize;
                let mut j = i + 2;
                while j < b.len() && depth > 0 {
                    if b[j] == b'/' && b.get(j + 1) == Some(&b'*') {
                        depth += 1;
                        j += 2;
                    } else if b[j] == b'*' && b.get(j + 1) == Some(&b'/') {
                        depth -= 1;
                        j += 2;
                    } else {
                        j += 1;
                    }
                }
                blank(&mut out, i, j);
                i = j;
            }
            b'r' | b'b' if !prev_ident && is_raw_string_start(b, i) => {
                let end = skip_raw_string(b, i);
                blank(&mut out, i, end);
                i = end;
            }
            b'b' if !prev_ident && b.get(i + 1) == Some(&b'"') => {
                let end = skip_quoted(b, i + 1);
                blank(&mut out, i, end);
                i = end;
            }
            b'"' => {
                let end = skip_quoted(b, i);
                blank(&mut out, i, end);
                i = end;
            }
            b'\'' => {
                if let Some(end) = char_literal_end(b, i) {
                    blank(&mut out, i, end);
                    i = end;
                } else {
                    // A lifetime: leave it (it can't contain rule tokens
                    // because `unsafe`/`as`/... are reserved words).
                    i += 1;
                }
            }
            _ => i += 1,
        }
    }
    // Masking only writes ASCII spaces over existing bytes, so the result
    // is still valid UTF-8.
    String::from_utf8(out).unwrap_or_else(|_| src.to_string())
}

fn memchr_newline(b: &[u8], from: usize) -> usize {
    b[from..]
        .iter()
        .position(|&c| c == b'\n')
        .map_or(b.len(), |p| from + p)
}

/// Past-the-end of a `"..."` literal starting at the opening quote.
fn skip_quoted(b: &[u8], open: usize) -> usize {
    let mut i = open + 1;
    while i < b.len() {
        match b[i] {
            b'\\' => i += 2,
            b'"' => return i + 1,
            _ => i += 1,
        }
    }
    b.len()
}

/// Whether `r"`, `r#"`, `br"` or `br#"` starts at `i`.
fn is_raw_string_start(b: &[u8], i: usize) -> bool {
    let mut j = i;
    if b[j] == b'b' {
        j += 1;
    }
    if b.get(j) != Some(&b'r') {
        return false;
    }
    j += 1;
    while b.get(j) == Some(&b'#') {
        j += 1;
    }
    b.get(j) == Some(&b'"')
}

fn skip_raw_string(b: &[u8], i: usize) -> usize {
    let mut j = i;
    if b[j] == b'b' {
        j += 1;
    }
    j += 1; // 'r'
    let mut hashes = 0usize;
    while b.get(j) == Some(&b'#') {
        hashes += 1;
        j += 1;
    }
    j += 1; // opening quote
    while j < b.len() {
        if b[j] == b'"'
            && b[j + 1..]
                .iter()
                .take(hashes)
                .filter(|&&c| c == b'#')
                .count()
                == hashes
        {
            return j + 1 + hashes;
        }
        j += 1;
    }
    b.len()
}

/// Past-the-end of a char literal at `open`, or `None` for a lifetime.
fn char_literal_end(b: &[u8], open: usize) -> Option<usize> {
    let next = *b.get(open + 1)?;
    if next == b'\\' {
        // Escaped char: find the closing quote.
        let mut j = open + 2;
        while j < b.len() {
            match b[j] {
                b'\\' => j += 2,
                b'\'' => return Some(j + 1),
                _ => j += 1,
            }
        }
        return None;
    }
    // Unescaped: one char (possibly multi-byte) then a closing quote.
    let width = match next {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    };
    if b.get(open + 1 + width) == Some(&b'\'') {
        Some(open + 2 + width)
    } else {
        None // `'a` in `<'a>` or `&'a` — a lifetime.
    }
}

/// Marks the lines belonging to `#[cfg(test)]` / `#[test]` items so the
/// panic rules skip test code (tests are *supposed* to unwrap).
fn test_line_mask(masked: &str) -> Vec<bool> {
    let b = masked.as_bytes();
    let line_of = line_index(b);
    let total_lines = line_of.last().map_or(0, |&l| l + 1);
    let mut is_test = vec![false; total_lines];
    let mut search = 0usize;
    while let Some(found) = find_test_attr(masked, search) {
        let (attr_start, attr_end) = found;
        // Skip any further attributes stacked after this one.
        let mut item = attr_end;
        loop {
            let rest = &b[item..];
            let skipped = rest.iter().take_while(|c| c.is_ascii_whitespace()).count();
            item += skipped;
            if b.get(item) == Some(&b'#') && b.get(item + 1) == Some(&b'[') {
                item = skip_bracketed(b, item + 1);
            } else {
                break;
            }
        }
        // The item body: everything to the matching `}` of its first
        // brace (or to the `;` of a braceless item).
        let mut j = item;
        let end = loop {
            match b.get(j) {
                None => break b.len(),
                Some(b';') => break j + 1,
                Some(b'{') => break skip_braced(b, j),
                _ => j += 1,
            }
        };
        for line in is_test
            .iter_mut()
            .take(line_of[end.min(b.len())] + 1)
            .skip(line_of[attr_start])
        {
            *line = true;
        }
        search = end.max(attr_end);
    }
    is_test
}

/// Finds the next `#[cfg(test)]` or `#[test]` attribute at or after
/// `from`; returns its byte span.
fn find_test_attr(masked: &str, from: usize) -> Option<(usize, usize)> {
    let hit = ["#[cfg(test)]", "#[test]"]
        .iter()
        .filter_map(|pat| masked[from..].find(pat).map(|p| (from + p, pat.len())))
        .min()?;
    Some((hit.0, hit.0 + hit.1))
}

/// Past-the-end of a `[...]` starting at `open`.
fn skip_bracketed(b: &[u8], open: usize) -> usize {
    let mut depth = 0usize;
    let mut i = open;
    while i < b.len() {
        match b[i] {
            b'[' => depth += 1,
            b']' => {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    b.len()
}

/// Past-the-end of a `{...}` starting at `open`.
fn skip_braced(b: &[u8], open: usize) -> usize {
    let mut depth = 0usize;
    let mut i = open;
    while i < b.len() {
        match b[i] {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    b.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masking_blanks_comments_and_strings() {
        let src = "let x = \"unwrap()\"; // panic!\n/* dbg! */ let y = 1;";
        let masked = mask_source(src);
        assert!(!masked.contains("unwrap"));
        assert!(!masked.contains("panic"));
        assert!(!masked.contains("dbg"));
        assert!(masked.contains("let y = 1;"));
        assert_eq!(masked.len(), src.len());
    }

    #[test]
    fn masking_handles_raw_strings_and_chars() {
        let src = "let s = r#\"a \" panic! \"#; let c = '\\''; let l: &'static str = \"x\";";
        let masked = mask_source(src);
        assert!(!masked.contains("panic"));
        assert!(masked.contains("'static"), "lifetimes survive: {masked}");
    }

    #[test]
    fn flags_unwrap_in_serve_scope_only() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }";
        assert_eq!(lint_source("crates/serve/src/server.rs", src).len(), 1);
        assert_eq!(lint_source("crates/core/src/model.rs", src).len(), 0);
    }

    #[test]
    fn skips_test_code() {
        let src = "fn ok() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { None::<u32>.unwrap(); panic!(); }\n}\n";
        assert!(lint_source("crates/serve/src/server.rs", src).is_empty());
    }

    #[test]
    fn unsafe_needs_safety_comment() {
        let bad = "fn f() { unsafe { g() } }";
        let good = "fn f() {\n    // SAFETY: g has no preconditions here.\n    unsafe { g() }\n}";
        let v = lint_source("crates/tensor/src/pool.rs", bad);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "safety-comment");
        assert!(lint_source("crates/tensor/src/pool.rs", good).is_empty());
        // `unsafe fn` declarations and fn-pointer types are exempt.
        let decl = "unsafe fn f() {} struct S { call: unsafe fn(usize) }";
        assert!(lint_source("crates/tensor/src/pool.rs", decl).is_empty());
    }

    #[test]
    fn lossy_as_only_in_codec_modules() {
        let src = "fn f(x: usize) -> u32 { x as u32 }";
        assert_eq!(lint_source("crates/serve/src/json.rs", src).len(), 1);
        assert_eq!(lint_source("crates/serve/src/server.rs", src).len(), 0);
        // Widening casts are fine even in codecs.
        let widen = "fn f(x: u32) -> usize { x as usize }";
        assert!(lint_source("crates/serve/src/json.rs", widen).is_empty());
    }

    #[test]
    fn todo_and_dbg_flagged_everywhere() {
        let src = "fn f() { todo!() }\nfn g() { dbg!(1); }";
        let v = lint_source("crates/core/src/model.rs", src);
        assert_eq!(v.len(), 2);
        assert!(v.iter().all(|v| v.rule == "no-todo"));
    }

    #[test]
    fn allowlist_absorbs_exact_count_and_flags_excess() {
        let violations = vec![
            Violation {
                rule: "no-unwrap",
                path: "crates/serve/src/a.rs".into(),
                line: 1,
                snippet: "x.unwrap()".into(),
            };
            3
        ];
        let allow = parse_allowlist("no-unwrap crates/serve/src/a.rs 2\n# comment\n");
        let report = apply_allowlist(violations, &allow, 1);
        assert_eq!(report.grandfathered, 2);
        assert_eq!(report.new_violations.len(), 1);
        assert!(!report.passed());
        assert!(report.stale_allowances.is_empty());
    }

    #[test]
    fn stale_allowances_fail_the_run() {
        let allow = parse_allowlist("no-unwrap crates/serve/src/a.rs 5");
        let report = apply_allowlist(Vec::new(), &allow, 1);
        assert!(report.new_violations.is_empty());
        assert_eq!(report.stale_allowances.len(), 1);
        assert!(!report.passed(), "the ratchet only moves down");
    }
}
