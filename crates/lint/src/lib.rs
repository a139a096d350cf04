//! `omx-lint`: a self-contained static-analysis pass over the
//! workspace sources enforcing the determinism and lifecycle
//! invariants the simulation's reproducibility rests on.
//!
//! The container build environment is offline, so this is not a
//! rustc/clippy driver: it is a small hand-rolled Rust tokenizer plus
//! token-pattern rules. That limits it to syntactic checks — which is
//! exactly what the rules need:
//!
//! * **D1 `wall-clock` / `thread` / `ad-hoc-rng`** — no
//!   `std::time::Instant`/`SystemTime`, no `std::thread`, and no
//!   ad-hoc RNG construction (`SplitMix64::new`) outside `crates/sim`.
//!   All randomness must flow from the cluster's root seed through
//!   `SplitMix64::derive`.
//! * **D2 `unordered-iter`** — no `HashMap`/`HashSet` in the
//!   simulation crates (`core`, `ethernet`, `hw`, `mpi`): iteration
//!   order feeds event ordering, so only sorted collections
//!   (`BTreeMap`/`BTreeSet`) are deterministic. Waivable per site.
//! * **D4 `lifecycle-ctor`** — the four `SimSanitizer` lifecycle types
//!   (`Skbuff`, `Region`, `CopyHandle`, `PullState`) must be
//!   constructed through their checked constructors: a struct-literal
//!   expression of one of these types outside its home module
//!   bypasses token minting, and each home module must actually thread
//!   the sanitizer.
//!
//! Violations can be waived per site with
//! `// omx-lint: allow(<rule>) <reason>` on the same or the previous
//! line; every waiver is surfaced in the report so reviews see them.
//!
//! Exemptions: `compat/` (offline stand-ins for external crates, not
//! simulation code), `target/`, `.git/`, test fixtures, and test code
//! (`tests/`/`benches/`/`examples/` directories and `#[cfg(test)]`
//! modules — libtest itself runs tests on threads, and test-local
//! collections never feed event ordering).

pub mod callgraph;
pub mod parse;
pub mod resolve;
pub mod rules_v2;

use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

// ---------------------------------------------------------------------
// tokens
// ---------------------------------------------------------------------

/// Kind of one lexed token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword.
    Ident,
    /// Single punctuation character.
    Punct,
    /// String literal (regular, raw or byte), contents included.
    Str,
    /// Character or lifetime literal.
    CharOrLifetime,
    /// Numeric literal.
    Num,
}

/// One token with its 1-based source line.
#[derive(Debug, Clone)]
pub struct Token {
    /// What kind of token this is.
    pub kind: TokKind,
    /// The token's text (for `Str`, the unquoted contents).
    pub text: String,
    /// 1-based line the token starts on.
    pub line: u32,
}

/// A waiver comment: `// omx-lint: allow(<rule>) <reason>`.
#[derive(Debug, Clone)]
pub struct Waiver {
    /// File the waiver appears in (relative to the checked root).
    pub file: String,
    /// 1-based line of the comment.
    pub line: u32,
    /// Rule slug being waived.
    pub rule: String,
    /// Free-form justification following the directive.
    pub reason: String,
}

/// Tokenize Rust source, collecting waiver directives from comments.
///
/// The lexer understands line/block comments (nested), regular, raw
/// and byte string literals, character literals vs. lifetimes, and
/// identifiers — enough to make token-pattern rules immune to matches
/// inside strings or comments.
pub fn tokenize(src: &str) -> (Vec<Token>, Vec<(u32, String, String)>) {
    let b: Vec<char> = src.chars().collect();
    let mut toks = Vec::new();
    let mut waivers = Vec::new();
    let mut i = 0usize;
    let mut line = 1u32;
    while i < b.len() {
        let c = b[i];
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_whitespace() => i += 1,
            '/' if i + 1 < b.len() && b[i + 1] == '/' => {
                let start = i;
                while i < b.len() && b[i] != '\n' {
                    i += 1;
                }
                let text: String = b[start..i].iter().collect();
                if let Some((rule, reason)) = parse_waiver(&text) {
                    waivers.push((line, rule, reason));
                }
            }
            '/' if i + 1 < b.len() && b[i + 1] == '*' => {
                // Nested block comments, as in Rust proper.
                let mut depth = 1;
                i += 2;
                while i < b.len() && depth > 0 {
                    if b[i] == '\n' {
                        line += 1;
                        i += 1;
                    } else if b[i] == '/' && i + 1 < b.len() && b[i + 1] == '*' {
                        depth += 1;
                        i += 2;
                    } else if b[i] == '*' && i + 1 < b.len() && b[i + 1] == '/' {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
            }
            '"' => {
                let start_line = line;
                i += 1;
                let s = lex_string_body(&b, &mut i, &mut line);
                toks.push(Token {
                    kind: TokKind::Str,
                    text: s,
                    line: start_line,
                });
            }
            'r' if starts_raw_string(&b, i) => {
                let start_line = line;
                i += 1; // past 'r'
                let mut hashes = 0;
                while i < b.len() && b[i] == '#' {
                    hashes += 1;
                    i += 1;
                }
                i += 1; // past opening quote
                let mut s = String::new();
                'raw: while i < b.len() {
                    if b[i] == '"' {
                        let mut ok = true;
                        for k in 0..hashes {
                            if b.get(i + 1 + k) != Some(&'#') {
                                ok = false;
                                break;
                            }
                        }
                        if ok {
                            i += 1 + hashes;
                            break 'raw;
                        }
                    }
                    if b[i] == '\n' {
                        line += 1;
                    }
                    s.push(b[i]);
                    i += 1;
                }
                toks.push(Token {
                    kind: TokKind::Str,
                    text: s,
                    line: start_line,
                });
            }
            '\'' => {
                // Lifetime ('a) or char literal ('x', '\n', '\'').
                let start_line = line;
                if i + 2 < b.len()
                    && (b[i + 1].is_alphabetic() || b[i + 1] == '_')
                    && b[i + 2] != '\''
                {
                    // Lifetime: consume the identifier.
                    let mut j = i + 1;
                    while j < b.len() && (b[j].is_alphanumeric() || b[j] == '_') {
                        j += 1;
                    }
                    toks.push(Token {
                        kind: TokKind::CharOrLifetime,
                        text: b[i..j].iter().collect(),
                        line: start_line,
                    });
                    i = j;
                } else {
                    // Char literal: consume to closing quote, honoring
                    // escapes.
                    let start = i;
                    i += 1;
                    while i < b.len() {
                        if b[i] == '\\' {
                            i += 2;
                        } else if b[i] == '\'' {
                            i += 1;
                            break;
                        } else {
                            if b[i] == '\n' {
                                line += 1;
                            }
                            i += 1;
                        }
                    }
                    toks.push(Token {
                        kind: TokKind::CharOrLifetime,
                        text: b[start..i.min(b.len())].iter().collect(),
                        line: start_line,
                    });
                }
            }
            c if c.is_alphabetic() || c == '_' => {
                let start = i;
                while i < b.len() && (b[i].is_alphanumeric() || b[i] == '_') {
                    i += 1;
                }
                let text: String = b[start..i].iter().collect();
                // Byte string b"..." / raw byte string br"...".
                if (text == "b" || text == "br") && i < b.len() && (b[i] == '"' || b[i] == '#') {
                    continue; // let the string arms handle the quote
                }
                toks.push(Token {
                    kind: TokKind::Ident,
                    text,
                    line,
                });
            }
            c if c.is_ascii_digit() => {
                let start = i;
                while i < b.len() && (b[i].is_alphanumeric() || b[i] == '_' || b[i] == '.') {
                    // Stop a range expression `0..n` from being eaten.
                    if b[i] == '.' && b.get(i + 1) == Some(&'.') {
                        break;
                    }
                    i += 1;
                }
                toks.push(Token {
                    kind: TokKind::Num,
                    text: b[start..i].iter().collect(),
                    line,
                });
            }
            _ => {
                toks.push(Token {
                    kind: TokKind::Punct,
                    text: c.to_string(),
                    line,
                });
                i += 1;
            }
        }
    }
    (toks, waivers)
}

fn starts_raw_string(b: &[char], i: usize) -> bool {
    let mut j = i + 1;
    while j < b.len() && b[j] == '#' {
        j += 1;
    }
    j < b.len() && b[j] == '"' && (j > i + 1 || b[i + 1] == '"')
}

fn lex_string_body(b: &[char], i: &mut usize, line: &mut u32) -> String {
    let mut s = String::new();
    while *i < b.len() {
        match b[*i] {
            '\\' => {
                if let Some(&e) = b.get(*i + 1) {
                    s.push(e);
                }
                *i += 2;
            }
            '"' => {
                *i += 1;
                break;
            }
            c => {
                if c == '\n' {
                    *line += 1;
                }
                s.push(c);
                *i += 1;
            }
        }
    }
    s
}

fn parse_waiver(comment: &str) -> Option<(String, String)> {
    let idx = comment.find("omx-lint:")?;
    let rest = comment[idx + "omx-lint:".len()..].trim_start();
    let rest = rest.strip_prefix("allow")?.trim_start();
    let rest = rest.strip_prefix('(')?;
    let close = rest.find(')')?;
    let rule = rest[..close].trim().to_string();
    let reason = rest[close + 1..].trim().to_string();
    // Only kebab-case slugs are directives — this keeps prose like
    // `allow(<rule>)` in documentation from registering as a waiver.
    if rule.is_empty() || !rule.chars().all(|c| c.is_ascii_lowercase() || c == '-') {
        return None;
    }
    Some((rule, reason))
}

// ---------------------------------------------------------------------
// test-module exclusion
// ---------------------------------------------------------------------

/// Line ranges (inclusive) covered by `#[cfg(test)] mod` (or
/// `#[cfg(all(test, ...))] mod`) items — unit-test code is exempt from
/// every rule.
pub fn test_mod_ranges(toks: &[Token]) -> Vec<(u32, u32)> {
    let mut ranges = Vec::new();
    let mut i = 0;
    while i + 3 < toks.len() {
        // Match `# [ cfg ( ... test ... ) ]` then `mod name {`.
        if toks[i].text == "#" && toks[i + 1].text == "[" && toks[i + 2].text == "cfg" {
            if let Some(close) = matching(toks, i + 3, "(", ")") {
                let has_test = toks[i + 3..close].iter().any(|t| t.text == "test");
                let mut j = close + 1;
                if has_test && toks.get(j).map(|t| t.text.as_str()) == Some("]") {
                    j += 1;
                    // Skip further attributes between the cfg and the item.
                    while toks.get(j).map(|t| t.text.as_str()) == Some("#") {
                        if toks.get(j + 1).map(|t| t.text.as_str()) == Some("[") {
                            match matching(toks, j + 1, "[", "]") {
                                Some(c) => j = c + 1,
                                None => break,
                            }
                        } else {
                            break;
                        }
                    }
                    if toks.get(j).map(|t| t.text.as_str()) == Some("mod") {
                        // Find the `{` after the module name.
                        let mut k = j + 1;
                        while k < toks.len() && toks[k].text != "{" && toks[k].text != ";" {
                            k += 1;
                        }
                        if k < toks.len() && toks[k].text == "{" {
                            if let Some(end) = matching(toks, k, "{", "}") {
                                ranges.push((toks[i].line, toks[end].line));
                                i = end;
                            }
                        }
                    }
                }
            }
        }
        i += 1;
    }
    ranges
}

/// Index of the token closing the bracket opened at `open_idx` (which
/// must hold `open`).
pub(crate) fn matching(toks: &[Token], open_idx: usize, open: &str, close: &str) -> Option<usize> {
    if toks.get(open_idx)?.text != open {
        return None;
    }
    let mut depth = 0usize;
    for (k, t) in toks.iter().enumerate().skip(open_idx) {
        if t.kind == TokKind::Punct || t.kind == TokKind::Ident {
            if t.text == open {
                depth += 1;
            } else if t.text == close {
                depth -= 1;
                if depth == 0 {
                    return Some(k);
                }
            }
        }
    }
    None
}

pub(crate) fn in_ranges(line: u32, ranges: &[(u32, u32)]) -> bool {
    ranges.iter().any(|&(a, b)| line >= a && line <= b)
}

// ---------------------------------------------------------------------
// report
// ---------------------------------------------------------------------

/// One rule violation.
#[derive(Debug, Clone)]
pub struct Violation {
    /// File, relative to the checked root.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Rule slug (`wall-clock`, `thread`, `ad-hoc-rng`,
    /// `unordered-iter`, `lifecycle-ctor`, `hot-path-alloc`,
    /// `fast-path-panic`, `config-knob`, `waiver-citation`).
    pub rule: String,
    /// Human-readable description of the finding.
    pub message: String,
    /// Stable finding id: fnv1a64 over `rule|file|message` (line-free,
    /// so findings keep their identity as unrelated code moves), with a
    /// `-N` occurrence suffix for repeats. Assigned at finalize.
    pub id: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Outcome of a full check: violations plus every waiver in effect.
#[derive(Debug, Default)]
pub struct Report {
    /// Unwaived violations; a non-empty list fails the check.
    pub violations: Vec<Violation>,
    /// All waiver directives found (used or not) — surfaced so code
    /// review sees each escape hatch and its justification.
    pub waivers: Vec<Waiver>,
    /// Number of files scanned.
    pub files_scanned: usize,
    /// Configured rule anchors (D5/D6 entry fns, D7 knob structs) the
    /// resolver could not find. A non-empty list fails the check: a
    /// rule whose entry point silently vanished checks nothing.
    pub entries_missing: Vec<String>,
}

impl Report {
    /// Whether the workspace is clean.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty() && self.entries_missing.is_empty()
    }

    /// Machine-readable report. Byte-deterministic: everything is
    /// sorted, ids are content hashes, and volatile fields (scan
    /// counts, waiver line numbers) are omitted so the committed
    /// baseline only churns when findings or waivers actually change.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n  \"version\": 2,\n");
        s.push_str(&format!("  \"clean\": {},\n", self.is_clean()));
        s.push_str("  \"violations\": [");
        for (i, v) in self.violations.iter().enumerate() {
            s.push_str(if i == 0 { "\n" } else { ",\n" });
            s.push_str(&format!(
                "    {{\"id\": \"{}\", \"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \
                 \"message\": \"{}\"}}",
                json_escape(&v.id),
                json_escape(&v.rule),
                json_escape(&v.file),
                v.line,
                json_escape(&v.message)
            ));
        }
        s.push_str(if self.violations.is_empty() {
            "],\n"
        } else {
            "\n  ],\n"
        });
        let mut waivers: Vec<&Waiver> = self.waivers.iter().collect();
        waivers.sort_by(|a, b| (&a.file, &a.rule, &a.reason).cmp(&(&b.file, &b.rule, &b.reason)));
        s.push_str("  \"waivers\": [");
        for (i, w) in waivers.iter().enumerate() {
            s.push_str(if i == 0 { "\n" } else { ",\n" });
            s.push_str(&format!(
                "    {{\"rule\": \"{}\", \"file\": \"{}\", \"reason\": \"{}\"}}",
                json_escape(&w.rule),
                json_escape(&w.file),
                json_escape(&w.reason)
            ));
        }
        s.push_str(if waivers.is_empty() {
            "],\n"
        } else {
            "\n  ],\n"
        });
        s.push_str("  \"entries_missing\": [");
        for (i, e) in self.entries_missing.iter().enumerate() {
            s.push_str(if i == 0 { "\n" } else { ",\n" });
            s.push_str(&format!("    \"{}\"", json_escape(e)));
        }
        s.push_str(if self.entries_missing.is_empty() {
            "]\n"
        } else {
            "\n  ]\n"
        });
        s.push_str("}\n");
        s
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// 64-bit FNV-1a — the finding-id hash. Stable across runs and
/// platforms by construction.
fn fnv1a64(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

// ---------------------------------------------------------------------
// the rules
// ---------------------------------------------------------------------

/// A lifecycle type checked by rule D4.
struct LifecycleType {
    /// Type name whose struct-literal construction is restricted.
    name: &'static str,
    /// Home file (relative path, `/`-separated) that owns the checked
    /// constructor and may build the literal.
    home: &'static str,
}

const LIFECYCLE_TYPES: &[LifecycleType] = &[
    LifecycleType {
        name: "Skbuff",
        home: "crates/ethernet/src/skbuff.rs",
    },
    LifecycleType {
        name: "Region",
        home: "crates/core/src/region.rs",
    },
    LifecycleType {
        name: "CopyHandle",
        home: "crates/hw/src/ioat.rs",
    },
    LifecycleType {
        name: "PullState",
        home: "crates/core/src/driver/mod.rs",
    },
];

/// Crates whose iteration order feeds event ordering (rule D2).
pub(crate) const SIM_PATH_CRATES: &[&str] = &[
    "crates/core/",
    "crates/ethernet/",
    "crates/hw/",
    "crates/mpi/",
];

/// Tokens that, when directly preceding `Name {`, make the brace part
/// of a declaration/pattern rather than a struct-literal expression.
const NON_LITERAL_PRECEDERS: &[&str] = &[
    "struct", "enum", "union", "impl", "for", "trait", "mod", "fn", "dyn", ">", ":",
];

pub(crate) fn is_waived(rule: &str, line: u32, waivers: &[(u32, String, String)]) -> bool {
    waivers
        .iter()
        .any(|(l, r, _)| r == rule && (*l == line || *l + 1 == line))
}

/// Run the per-file token rules over one source file.
fn check_file_tokens(
    rel: &str,
    toks: &[Token],
    waivers: &[(u32, String, String)],
    out: &mut Report,
) {
    let excluded = test_mod_ranges(toks);
    let in_sim = rel.starts_with("crates/sim/");
    let in_sim_path_crate = SIM_PATH_CRATES.iter().any(|p| rel.starts_with(p));
    let push = |rule: &str, line: u32, message: String, out: &mut Report| {
        if !in_ranges(line, &excluded) && !is_waived(rule, line, waivers) {
            out.violations.push(Violation {
                file: rel.to_string(),
                line,
                rule: rule.to_string(),
                message,
                id: String::new(),
            });
        }
    };
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        // D1: wall-clock time sources.
        if !in_sim && (t.text == "Instant" || t.text == "SystemTime") {
            push(
                "wall-clock",
                t.line,
                format!(
                    "`{}` is wall-clock time; simulation time comes from `Sim::now()` (Ps)",
                    t.text
                ),
                out,
            );
        }
        // D1: std::thread.
        if !in_sim
            && t.text == "thread"
            && i >= 3
            && toks[i - 1].text == ":"
            && toks[i - 2].text == ":"
            && toks[i - 3].text == "std"
        {
            push(
                "thread",
                t.line,
                "`std::thread` breaks single-threaded determinism; the event loop is the only \
                 scheduler"
                    .to_string(),
                out,
            );
        }
        // D1: ad-hoc RNG construction.
        if !in_sim
            && t.text == "SplitMix64"
            && toks.get(i + 1).map(|t| t.text.as_str()) == Some(":")
            && toks.get(i + 2).map(|t| t.text.as_str()) == Some(":")
            && toks.get(i + 3).map(|t| t.text.as_str()) == Some("new")
        {
            push(
                "ad-hoc-rng",
                t.line,
                "ad-hoc RNG construction; derive a stream from the run's root seed with \
                 `SplitMix64::derive` instead"
                    .to_string(),
                out,
            );
        }
        // D2: unordered collections in simulation crates.
        if in_sim_path_crate && (t.text == "HashMap" || t.text == "HashSet") {
            push(
                "unordered-iter",
                t.line,
                format!(
                    "`{}` iteration order is nondeterministic; use BTreeMap/BTreeSet (or waive \
                     with a reason if iteration order provably never escapes)",
                    t.text
                ),
                out,
            );
        }
        // D4: struct-literal construction of lifecycle types outside
        // their home module bypasses the checked constructor.
        for lt in LIFECYCLE_TYPES {
            if t.text == lt.name
                && rel != lt.home
                && toks.get(i + 1).map(|t| t.text.as_str()) == Some("{")
            {
                let prev_ok = i
                    .checked_sub(1)
                    .map(|p| NON_LITERAL_PRECEDERS.contains(&toks[p].text.as_str()))
                    .unwrap_or(true);
                if !prev_ok {
                    push(
                        "lifecycle-ctor",
                        t.line,
                        format!(
                            "struct-literal construction of `{}` outside {}; use the checked \
                             constructor so the SimSanitizer token is minted",
                            lt.name, lt.home
                        ),
                        out,
                    );
                }
            }
        }
    }
    // Surface the file's waivers.
    for (line, rule, reason) in waivers {
        out.waivers.push(Waiver {
            file: rel.to_string(),
            line: *line,
            rule: rule.clone(),
            reason: reason.clone(),
        });
    }
}

/// Rule D4's cross-file half: each lifecycle home module must actually
/// thread the sanitizer (reference the `sanitize` module).
fn check_lifecycle_homes(root: &Path, out: &mut Report) {
    for lt in LIFECYCLE_TYPES {
        let path = root.join(lt.home);
        let Ok(src) = std::fs::read_to_string(&path) else {
            continue;
        };
        let (toks, _) = tokenize(&src);
        let threads_sanitizer = toks.iter().any(|t| {
            t.kind == TokKind::Ident && (t.text == "sanitize" || t.text == "SimSanitizer")
        });
        if !threads_sanitizer {
            out.violations.push(Violation {
                file: lt.home.to_string(),
                line: 1,
                rule: "lifecycle-ctor".to_string(),
                message: format!(
                    "home module of lifecycle type `{}` never references the SimSanitizer; its \
                     checked constructor must mint a lifecycle token",
                    lt.name
                ),
                id: String::new(),
            });
        }
    }
}

// ---------------------------------------------------------------------
// walking + entry point
// ---------------------------------------------------------------------

/// Directory names never descended into.
const SKIP_DIRS: &[&str] = &[
    "target", ".git", "compat", "fixtures", "tests", "benches", "examples",
];

fn collect_sources(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        let mut entries: Vec<_> = entries.flatten().map(|e| e.path()).collect();
        entries.sort();
        for path in entries {
            if path.is_dir() {
                let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
                if !SKIP_DIRS.contains(&name) {
                    stack.push(path);
                }
            } else if path.extension().and_then(|e| e.to_str()) == Some("rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    out
}

/// Check the workspace rooted at `root` with the default (real
/// workspace) rule configuration; returns the full report.
pub fn check(root: &Path) -> Report {
    check_with(root, &rules_v2::RulesConfig::default())
}

/// Check with an explicit v2 rule configuration (fixture suites pin
/// their own entry points and knob structs).
pub fn check_with(root: &Path, cfg: &rules_v2::RulesConfig) -> Report {
    let mut report = Report::default();
    // Tokenize + parse every source once; both the token rules and the
    // resolution layer run off this map.
    let mut files: BTreeMap<String, resolve::FileData> = BTreeMap::new();
    for path in collect_sources(root) {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let Ok(src) = std::fs::read_to_string(&path) else {
            continue;
        };
        files.insert(rel, resolve::load_file(&src));
        report.files_scanned += 1;
    }
    for (rel, data) in &files {
        check_file_tokens(rel, &data.toks, &data.waivers, &mut report);
    }
    check_lifecycle_homes(root, &mut report);
    // v2: module graph, import resolution, call graph, resolved rules.
    let ws = resolve::Workspace::build(root, &files);
    let cg = callgraph::CallGraph::build(&ws, &files);
    rules_v2::run(root, &ws, &cg, &files, cfg, &mut report);
    finalize(&mut report);
    report
}

/// Sort, dedup (token rules and resolved rules can flag the same site)
/// and assign stable finding ids.
fn finalize(report: &mut Report) {
    report.violations.sort_by(|a, b| {
        (&a.file, a.line, &a.rule, &a.message).cmp(&(&b.file, b.line, &b.rule, &b.message))
    });
    report
        .violations
        .dedup_by(|a, b| a.file == b.file && a.line == b.line && a.rule == b.rule);
    let mut seen: BTreeMap<String, u32> = BTreeMap::new();
    for v in &mut report.violations {
        let base = format!(
            "{:016x}",
            fnv1a64(&format!("{}|{}|{}", v.rule, v.file, v.message))
        );
        let n = seen.entry(base.clone()).or_insert(0);
        *n += 1;
        v.id = if *n == 1 { base } else { format!("{base}-{n}") };
    }
    report.entries_missing.sort();
    report.entries_missing.dedup();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenizer_skips_strings_and_comments() {
        let src = concat!(
            "// HashMap in a comment\n",
            "/* HashMap in /* a nested */ block */\n",
            "let s = \"HashMap in a string\";\n",
            "let raw = r\"HashMap raw\";\n",
            "let m = BTreeMap::new();\n",
        );
        let (toks, _) = tokenize(src);
        assert!(!toks
            .iter()
            .any(|t| t.kind == TokKind::Ident && t.text == "HashMap"));
        assert!(toks
            .iter()
            .any(|t| t.kind == TokKind::Ident && t.text == "BTreeMap"));
    }

    #[test]
    fn tokenizer_handles_lifetimes_and_chars() {
        let (toks, _) = tokenize("fn f<'a>(x: &'a str) -> char { 'x' }");
        let lifetimes: Vec<_> = toks
            .iter()
            .filter(|t| t.kind == TokKind::CharOrLifetime)
            .collect();
        assert_eq!(lifetimes.len(), 3); // 'a, 'a, 'x'
        assert!(toks.iter().any(|t| t.text == "str"));
    }

    #[test]
    fn waiver_directive_parses() {
        let (_, w) = tokenize("// omx-lint: allow(unordered-iter) keys are never iterated\n");
        assert_eq!(w.len(), 1);
        assert_eq!(w[0].1, "unordered-iter");
        assert!(w[0].2.contains("never iterated"));
    }

    #[test]
    fn test_mod_ranges_cover_cfg_test() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n fn b() {}\n}\nfn c() {}\n";
        let (toks, _) = tokenize(src);
        let r = test_mod_ranges(&toks);
        assert_eq!(r.len(), 1);
        assert!(in_ranges(3, &r) && in_ranges(4, &r));
        assert!(!in_ranges(1, &r) && !in_ranges(6, &r));
    }

    #[test]
    fn cfg_all_test_also_excluded() {
        let src = "#[cfg(all(test, debug_assertions))]\nmod tests {\n use std::thread;\n}\n";
        let (toks, _) = tokenize(src);
        let r = test_mod_ranges(&toks);
        assert_eq!(r.len(), 1);
        assert!(in_ranges(3, &r));
    }

    #[test]
    fn line_numbers_survive_multiline_strings() {
        let src = "let a = \"line\nline\nline\";\nlet m = HashMap::new();\n";
        let (toks, _) = tokenize(src);
        let hm = toks.iter().find(|t| t.text == "HashMap").unwrap();
        assert_eq!(hm.line, 4);
    }
}
