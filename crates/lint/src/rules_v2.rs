//! Resolved rules (v2): checks that need the module graph, import
//! resolution and the call graph rather than raw tokens.
//!
//! * **D1/D2 resolved** — the token rules only fire where a name
//!   literally spells `HashMap` or `Instant`. Here every `use` is
//!   canonicalised through aliases, groups, globs and `pub use`
//!   re-export chains, so `use std::collections::HashMap as M` and
//!   `use helpers::Map` (where `helpers` re-exports the hash map) are
//!   caught at the import site.
//! * **D5 `hot-path-alloc`** — no allocating construct (`Box::new`,
//!   `Vec::new`, `vec!`, `format!`, `.to_vec()`, `.collect()`)
//!   reachable within `d5_hops` call-graph hops from the timing-wheel
//!   schedule/fire and BH drain entry points. This statically pins the
//!   zero-steady-state-allocation property that
//!   `crates/sim/tests/alloc_count.rs` checks dynamically, on the same
//!   entry points.
//! * **D6 `fast-path-panic`** — no `unwrap`/`expect`/`panic!`/
//!   slice-index-without-`get` reachable from the NIC deliver → BH →
//!   driver receive chain, outside `debug_assert!` arguments,
//!   `#[cfg(debug_assertions)]` functions and the sanitizer module.
//! * **D7 `config-knob`** — every field of the configured knob structs
//!   (`OmxConfig`, `NicParams`) must be covered by a `Default` arm and
//!   mentioned in README.md or DESIGN.md.
//! * **`waiver-citation`** — waivers must carry a reason *and* cite a
//!   test proving the exemption safe (`[test: <file>::<fn>]`, where
//!   the file exists and defines that fn). Not itself waivable.
//!
//! When a configured anchor (entry fn, knob struct) cannot be found
//! the rule reports it via [`crate::Report::entries_missing`] instead
//! of silently checking nothing.

use crate::callgraph::CallGraph;
use crate::resolve::{FileData, Workspace};
use crate::{
    in_ranges, is_waived, matching, test_mod_ranges, Report, TokKind, Token, Violation,
    SIM_PATH_CRATES,
};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// One struct whose fields are configuration knobs (rule D7).
#[derive(Debug, Clone)]
pub struct KnobStruct {
    /// Struct name (e.g. `OmxConfig`).
    pub name: String,
    /// File (relative to the checked root) that must define it.
    pub file: String,
}

/// Configuration for the resolved rules. [`Default`] pins the real
/// workspace's entry points; fixture suites build their own.
#[derive(Debug, Clone)]
pub struct RulesConfig {
    /// D5 entry points (canonical fn ids): timing-wheel schedule/fire
    /// and BH drain.
    pub d5_entries: Vec<String>,
    /// Call-graph hop budget for D5.
    pub d5_hops: usize,
    /// D6 entry points: the NIC deliver → BH → driver receive chain.
    pub d6_entries: Vec<String>,
    /// Call-graph hop budget for D6.
    pub d6_hops: usize,
    /// D7 knob structs.
    pub knobs: Vec<KnobStruct>,
    /// Files (relative to root) where knob fields must be documented.
    pub doc_files: Vec<String>,
    /// Whether waivers must cite a proving test.
    pub require_citation: bool,
}

impl Default for RulesConfig {
    fn default() -> Self {
        let own = |s: &str| s.to_string();
        RulesConfig {
            d5_entries: vec![
                own("omx_sim::engine::Sim::schedule_at"),
                own("omx_sim::engine::Sim::schedule_in"),
                own("omx_sim::engine::Sim::step"),
                own("omx_sim::engine::Sim::run_until"),
                own("open_mx::cluster::Cluster::run_bh"),
                own("omx_ethernet::bh::BottomHalfQueue::pop_next"),
                // Driver/library data paths: the zero-steady-state-alloc
                // guarantee extends past the engine into fragment
                // receive, pull, shared-memory offload and library
                // assembly (dynamic pin: the driver_paths cases in
                // crates/sim/tests/alloc_count.rs).
                own("open_mx::driver::recv::Cluster::rx_medium_frag"),
                own("open_mx::driver::pull::Cluster::rx_large_frag"),
                own("open_mx::driver::pull::Cluster::start_pull"),
                own("open_mx::driver::shm::Cluster::shm_send"),
                own("open_mx::libproc::Cluster::lib_apply_medium_frag"),
            ],
            d5_hops: 2,
            d6_entries: vec![
                own("omx_ethernet::nic::Nic::deliver"),
                own("omx_ethernet::bh::BottomHalfQueue::pop_next"),
                own("open_mx::cluster::Cluster::run_bh"),
            ],
            d6_hops: 2,
            knobs: vec![
                KnobStruct {
                    name: "OmxConfig".to_string(),
                    file: "crates/core/src/config.rs".to_string(),
                },
                KnobStruct {
                    name: "NicParams".to_string(),
                    file: "crates/ethernet/src/nic.rs".to_string(),
                },
            ],
            doc_files: vec!["README.md".to_string(), "DESIGN.md".to_string()],
            require_citation: true,
        }
    }
}

/// Run every resolved rule, appending findings to `out`.
pub fn run(
    root: &Path,
    ws: &Workspace,
    cg: &CallGraph,
    files: &BTreeMap<String, FileData>,
    cfg: &RulesConfig,
    out: &mut Report,
) {
    check_resolved_imports(ws, files, out);
    check_hot_path(ws, cg, files, cfg, out, HotRule::Alloc);
    check_hot_path(ws, cg, files, cfg, out, HotRule::Panic);
    check_config_knobs(root, ws, files, cfg, out);
    check_waiver_citations(root, files, cfg, out);
}

// ---------------------------------------------------------------------
// D1/D2 resolved: imports canonicalised through aliases + re-exports
// ---------------------------------------------------------------------

fn check_resolved_imports(ws: &Workspace, files: &BTreeMap<String, FileData>, out: &mut Report) {
    for (mid, module) in ws.modules.iter().enumerate() {
        if module.cfg_test {
            continue;
        }
        let Some(data) = files.get(&module.file) else {
            continue;
        };
        let excluded = test_mod_ranges(&data.toks);
        let in_sim = module.file.starts_with("crates/sim/");
        let in_sim_path = SIM_PATH_CRATES.iter().any(|p| module.file.starts_with(p));
        for imp in &module.imports {
            if in_ranges(imp.line, &excluded) {
                continue;
            }
            // Resolve the import's own target. Resolving through the
            // *declaring* module follows local aliases and, for
            // workspace paths, `pub use` chains in other modules.
            let canon = ws.resolve(mid, &imp.path);
            if in_sim_path
                && (canon == "std::collections::HashMap" || canon == "std::collections::HashSet")
            {
                let ty = canon.rsplit("::").next().unwrap_or(&canon);
                push(
                    out,
                    &module.file,
                    imp.line,
                    "unordered-iter",
                    format!(
                        "import binds `{}` to `{canon}`; {ty} iteration order is \
                         nondeterministic — use BTreeMap/BTreeSet",
                        imp.name
                    ),
                    &data.waivers,
                );
            }
            if !in_sim && (canon == "std::time::Instant" || canon == "std::time::SystemTime") {
                push(
                    out,
                    &module.file,
                    imp.line,
                    "wall-clock",
                    format!(
                        "import binds `{}` to `{canon}` (wall-clock time); simulation time \
                         comes from `Sim::now()`",
                        imp.name
                    ),
                    &data.waivers,
                );
            }
            if !in_sim && (canon == "std::thread" || canon.starts_with("std::thread::")) {
                push(
                    out,
                    &module.file,
                    imp.line,
                    "thread",
                    format!(
                        "import binds `{}` to `{canon}`; `std::thread` breaks \
                         single-threaded determinism",
                        imp.name
                    ),
                    &data.waivers,
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// D5/D6: hot-path reachability rules
// ---------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq)]
enum HotRule {
    Alloc,
    Panic,
}

impl HotRule {
    fn slug(self) -> &'static str {
        match self {
            HotRule::Alloc => "hot-path-alloc",
            HotRule::Panic => "fast-path-panic",
        }
    }
}

fn check_hot_path(
    ws: &Workspace,
    cg: &CallGraph,
    files: &BTreeMap<String, FileData>,
    cfg: &RulesConfig,
    out: &mut Report,
    rule: HotRule,
) {
    let (entries, hops) = match rule {
        HotRule::Alloc => (&cfg.d5_entries, cfg.d5_hops),
        HotRule::Panic => (&cfg.d6_entries, cfg.d6_hops),
    };
    if entries.is_empty() {
        return;
    }
    for e in entries {
        if ws.fn_info(e).is_none() {
            out.entries_missing.push(format!(
                "{} entry `{e}` not found in the workspace",
                rule.slug()
            ));
        }
    }
    let reach = cg.reachable(entries, hops);
    for (canon, _) in reach.iter() {
        let Some(fi) = ws.fn_info(canon) else {
            continue;
        };
        if fi.cfg_test || fi.cfg_debug || fi.file.ends_with("sanitize.rs") {
            continue;
        }
        let Some((start, end)) = fi.body else {
            continue;
        };
        let Some(data) = files.get(&fi.file) else {
            continue;
        };
        let findings = match rule {
            HotRule::Alloc => scan_alloc(ws, fi.module, &data.toks, start, end),
            HotRule::Panic => scan_panic(&data.toks, start, end),
        };
        for (line, what) in findings {
            let chain = cg.chain_to(&reach, canon);
            let msg = match rule {
                HotRule::Alloc => format!(
                    "`{what}` allocates on a hot path (reachable: {chain}); steady state \
                     must stay allocation-free (see crates/sim/tests/alloc_count.rs)"
                ),
                HotRule::Panic => format!(
                    "`{what}` can panic on the receive fast path (reachable: {chain}); \
                     use a checked form or waive with a proving test"
                ),
            };
            push(out, &fi.file, line, rule.slug(), msg, &data.waivers);
        }
    }
}

/// Allocating constructs inside one fn body: `Box::new`/`Vec::new`
/// (alias-resolved), `vec!`/`format!`, `.to_vec()`/`.collect()`.
fn scan_alloc(
    ws: &Workspace,
    module: usize,
    toks: &[Token],
    start: usize,
    end: usize,
) -> Vec<(u32, String)> {
    let mut found = Vec::new();
    let mut i = start;
    while i <= end && i < toks.len() {
        let t = &toks[i];
        if t.kind != TokKind::Ident {
            i += 1;
            continue;
        }
        let next = toks.get(i + 1).map(|n| n.text.as_str());
        // Allocating macros.
        if (t.text == "vec" || t.text == "format") && next == Some("!") {
            found.push((t.line, format!("{}!", t.text)));
            i += 1;
            continue;
        }
        if next == Some("(") {
            let prev = i.checked_sub(1).map(|p| toks[p].text.as_str());
            // Allocating methods.
            if prev == Some(".") && (t.text == "to_vec" || t.text == "collect") {
                found.push((t.line, format!(".{}()", t.text)));
                i += 1;
                continue;
            }
            // `Box::new` / `Vec::new` through any alias.
            if t.text == "new" && prev == Some(":") {
                let mut segs = vec![t.text.clone()];
                let mut j = i;
                while j >= 3
                    && toks[j - 1].text == ":"
                    && toks[j - 2].text == ":"
                    && toks[j - 3].kind == TokKind::Ident
                {
                    segs.insert(0, toks[j - 3].text.clone());
                    j -= 3;
                }
                if segs.len() >= 2 {
                    let ty = ws.resolve(module, &segs[..segs.len() - 1]);
                    let hit = match ty.as_str() {
                        "Box" | "std::boxed::Box" | "alloc::boxed::Box" => Some("Box::new"),
                        "Vec" | "std::vec::Vec" | "alloc::vec::Vec" => Some("Vec::new"),
                        _ => None,
                    };
                    if let Some(h) = hit {
                        found.push((t.line, h.to_string()));
                    }
                }
            }
        }
        i += 1;
    }
    found
}

/// Identifier-like tokens that precede `[` without making it an index
/// expression (`&mut [T]`, `x as [u8; 4]`, `return [..]`, ...).
const NON_INDEX_PRECEDERS: &[&str] = &[
    "mut", "ref", "dyn", "as", "in", "return", "break", "else", "match", "if", "while", "loop",
    "for", "move", "impl", "where", "unsafe", "let", "const", "static", "box", "await", "async",
    "yield", "use", "pub", "crate", "super", "type", "fn", "extern",
];

/// Panicking constructs inside one fn body: `.unwrap()`, `.expect()`,
/// `panic!`, and slice indexing (`x[i]` where a checked `get` would be
/// the total form). Tokens inside `debug_assert*!(...)` arguments are
/// exempt — debug assertions are the sanctioned place for panics.
fn scan_panic(toks: &[Token], start: usize, end: usize) -> Vec<(u32, String)> {
    // Token-index ranges covered by debug_assert!/debug_assert_eq!/...
    let mut exempt: Vec<(usize, usize)> = Vec::new();
    let mut i = start;
    while i <= end && i < toks.len() {
        if toks[i].kind == TokKind::Ident
            && toks[i].text.starts_with("debug_assert")
            && toks.get(i + 1).map(|t| t.text.as_str()) == Some("!")
        {
            if let Some(close) = matching(toks, i + 2, "(", ")") {
                exempt.push((i, close));
                i = close + 1;
                continue;
            }
        }
        i += 1;
    }
    let exempted = |idx: usize| exempt.iter().any(|&(a, b)| idx >= a && idx <= b);
    let mut found = Vec::new();
    let mut i = start;
    while i <= end && i < toks.len() {
        let t = &toks[i];
        if exempted(i) {
            i += 1;
            continue;
        }
        let next = toks.get(i + 1).map(|n| n.text.as_str());
        let prev = i.checked_sub(1).map(|p| &toks[p]);
        if t.kind == TokKind::Ident {
            if (t.text == "unwrap" || t.text == "expect")
                && next == Some("(")
                && prev.map(|p| p.text.as_str()) == Some(".")
            {
                found.push((t.line, format!(".{}()", t.text)));
            }
            if t.text == "panic" && next == Some("!") {
                found.push((t.line, "panic!".to_string()));
            }
        } else if t.text == "[" {
            // Index expression: `expr[..]` — previous token ends an
            // expression (identifier, `)`, or `]`).
            let is_index = prev
                .map(|p| {
                    (p.kind == TokKind::Ident && !NON_INDEX_PRECEDERS.contains(&p.text.as_str()))
                        || p.text == ")"
                        || p.text == "]"
                })
                .unwrap_or(false);
            if is_index {
                found.push((t.line, "slice index (use .get())".to_string()));
                // One finding per bracketed expression.
                if let Some(close) = matching(toks, i, "[", "]") {
                    i = close + 1;
                    continue;
                }
            }
        }
        i += 1;
    }
    found
}

// ---------------------------------------------------------------------
// D7: config-knob hygiene
// ---------------------------------------------------------------------

fn check_config_knobs(
    root: &Path,
    ws: &Workspace,
    files: &BTreeMap<String, FileData>,
    cfg: &RulesConfig,
    out: &mut Report,
) {
    if cfg.knobs.is_empty() {
        return;
    }
    let docs: String = cfg
        .doc_files
        .iter()
        .filter_map(|f| std::fs::read_to_string(root.join(f)).ok())
        .collect::<Vec<_>>()
        .join("\n");
    let doc_names = cfg.doc_files.join(" or ");
    for knob in &cfg.knobs {
        let Some(data) = files.get(&knob.file) else {
            out.entries_missing.push(format!(
                "config-knob file `{}` not found in the workspace",
                knob.file
            ));
            continue;
        };
        let found = ws
            .modules
            .iter()
            .filter(|m| m.file == knob.file)
            .find_map(|m| m.structs.get(&knob.name));
        let Some(item) = found else {
            out.entries_missing.push(format!(
                "config-knob struct `{}` not found in `{}`",
                knob.name, knob.file
            ));
            continue;
        };
        let covered = default_covered_fields(&data.toks, &knob.name);
        for (field, line) in &item.fields {
            if !covered.all && !covered.fields.contains(field) {
                push(
                    out,
                    &knob.file,
                    *line,
                    "config-knob",
                    format!(
                        "config knob `{}.{field}` has no `Default` arm; every knob needs a \
                         documented default",
                        knob.name
                    ),
                    &data.waivers,
                );
            }
            if !word_mentioned(&docs, field) {
                push(
                    out,
                    &knob.file,
                    *line,
                    "config-knob",
                    format!(
                        "config knob `{}.{field}` is not documented in {doc_names}",
                        knob.name
                    ),
                    &data.waivers,
                );
            }
        }
    }
}

struct DefaultCoverage {
    /// `#[derive(Default)]` or a `..base` functional-update tail: every
    /// field is covered.
    all: bool,
    /// Fields explicitly assigned in `impl Default`.
    fields: BTreeSet<String>,
}

/// Which fields of `name` get a value in its `Default` (derive or
/// `impl Default for <name>`), scanning the defining file's tokens.
fn default_covered_fields(toks: &[Token], name: &str) -> DefaultCoverage {
    let mut cov = DefaultCoverage {
        all: false,
        fields: BTreeSet::new(),
    };
    let mut i = 0;
    while i + 1 < toks.len() {
        // `derive ( .. Default .. )` with the next `struct` being ours.
        if toks[i].text == "derive" && toks[i + 1].text == "(" {
            if let Some(close) = matching(toks, i + 1, "(", ")") {
                let has_default = toks[i + 1..close].iter().any(|t| t.text == "Default");
                if has_default {
                    let mut j = close + 1;
                    while j < toks.len() && toks[j].text != "struct" && toks[j].text != "enum" {
                        j += 1;
                    }
                    if toks.get(j + 1).map(|t| t.text.as_str()) == Some(name) {
                        cov.all = true;
                        return cov;
                    }
                }
                i = close;
            }
        }
        // `impl Default for <name> { .. }`.
        if toks[i].text == "impl"
            && toks[i + 1].text == "Default"
            && toks.get(i + 2).map(|t| t.text.as_str()) == Some("for")
            && toks.get(i + 3).map(|t| t.text.as_str()) == Some(name)
        {
            let mut j = i + 4;
            while j < toks.len() && toks[j].text != "{" {
                j += 1;
            }
            if let Some(end) = matching(toks, j, "{", "}") {
                let mut k = j + 1;
                while k + 1 < end {
                    if toks[k].kind == TokKind::Ident
                        && toks[k + 1].text == ":"
                        && toks.get(k + 2).map(|t| t.text.as_str()) != Some(":")
                        && toks
                            .get(k.wrapping_sub(1))
                            .map(|t| t.text != ":")
                            .unwrap_or(true)
                    {
                        cov.fields.insert(toks[k].text.clone());
                    }
                    // `..base` functional update covers the rest.
                    if toks[k].text == "." && toks[k + 1].text == "." {
                        cov.all = true;
                    }
                    k += 1;
                }
                return cov;
            }
        }
        i += 1;
    }
    cov
}

/// Whether `word` appears in `text` bounded by non-identifier chars.
fn word_mentioned(text: &str, word: &str) -> bool {
    let bytes = text.as_bytes();
    let mut from = 0;
    while let Some(pos) = text[from..].find(word) {
        let start = from + pos;
        let end = start + word.len();
        let pre_ok =
            start == 0 || !(bytes[start - 1].is_ascii_alphanumeric() || bytes[start - 1] == b'_');
        let post_ok =
            end >= bytes.len() || !(bytes[end].is_ascii_alphanumeric() || bytes[end] == b'_');
        if pre_ok && post_ok {
            return true;
        }
        from = end;
    }
    false
}

// ---------------------------------------------------------------------
// waiver hygiene: reasons + test citations
// ---------------------------------------------------------------------

fn check_waiver_citations(
    root: &Path,
    files: &BTreeMap<String, FileData>,
    cfg: &RulesConfig,
    out: &mut Report,
) {
    for (rel, data) in files {
        let excluded = test_mod_ranges(&data.toks);
        for (line, rule, reason) in &data.waivers {
            if in_ranges(*line, &excluded) {
                continue; // test code is rule-exempt; its waivers are inert
            }
            let mut fail = |msg: String| {
                // Deliberately not waivable: a waiver cannot vouch for
                // itself.
                out.violations.push(Violation {
                    file: rel.clone(),
                    line: *line,
                    rule: "waiver-citation".to_string(),
                    message: msg,
                    id: String::new(),
                });
            };
            if reason.trim().is_empty() {
                fail(format!(
                    "waiver for `{rule}` carries no reason; every waiver must say why the \
                     exemption is safe"
                ));
                continue;
            }
            if !cfg.require_citation {
                continue;
            }
            let Some((cite_file, cite_fn)) = parse_citation(reason) else {
                fail(format!(
                    "waiver for `{rule}` cites no proving test; append `[test: <file>::<fn>]` \
                     naming the test that covers the exemption"
                ));
                continue;
            };
            let Ok(src) = std::fs::read_to_string(root.join(&cite_file)) else {
                fail(format!(
                    "waiver for `{rule}` cites missing test file `{cite_file}`"
                ));
                continue;
            };
            if !word_mentioned(&src, &format!("fn {cite_fn}"))
                && !src.contains(&format!("fn {cite_fn}"))
            {
                fail(format!(
                    "waiver for `{rule}` cites `{cite_file}::{cite_fn}`, but that file defines \
                     no `fn {cite_fn}`"
                ));
            }
        }
    }
}

/// Extract `[test: <file>::<fn>]` from a waiver reason.
pub fn parse_citation(reason: &str) -> Option<(String, String)> {
    let start = reason.find("[test:")?;
    let rest = &reason[start + "[test:".len()..];
    let end = rest.find(']')?;
    let body = rest[..end].trim();
    let (file, func) = body.rsplit_once("::")?;
    if file.is_empty() || func.is_empty() {
        return None;
    }
    Some((file.trim().to_string(), func.trim().to_string()))
}

// ---------------------------------------------------------------------

fn push(
    out: &mut Report,
    file: &str,
    line: u32,
    rule: &str,
    message: String,
    waivers: &[(u32, String, String)],
) {
    if !is_waived(rule, line, waivers) {
        out.violations.push(Violation {
            file: file.to_string(),
            line,
            rule: rule.to_string(),
            message,
            id: String::new(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn citation_parses() {
        let r = parse_citation(
            "root seeding point [test: crates/core/tests/determinism.rs::same_seed_same_digest]",
        );
        assert_eq!(
            r,
            Some((
                "crates/core/tests/determinism.rs".to_string(),
                "same_seed_same_digest".to_string()
            ))
        );
        assert_eq!(parse_citation("no citation here"), None);
        assert_eq!(parse_citation("[test: broken]"), None);
    }

    #[test]
    fn word_boundaries_respected() {
        assert!(word_mentioned("the `mtu` knob", "mtu"));
        assert!(!word_mentioned("the mtu_bytes knob", "mtu"));
        assert!(word_mentioned("mtu", "mtu"));
    }
}
