//! Recursive-descent *item* parser on top of the [`crate::tokenize`]
//! token stream.
//!
//! The v1 lint rules are token-pattern matches; the v2 rules (resolved
//! D2, hot-path D5/D6, config-knob D7) need to know *what an
//! identifier means* — which requires item structure: which `mod`s a
//! file declares, what every `use` binds (aliases, globs, nested
//! groups), where each `fn` body starts and ends, what types an `impl`
//! block attaches methods to. This module recovers exactly that much
//! structure and no more: bodies stay token ranges (scanned later by
//! the rules), types are skimmed, expressions are never parsed.
//!
//! The parser is *total*: it never fails. Anything it does not
//! understand is attributed to an [`Item::Other`] and skimmed with
//! balanced-bracket matching. Every token index is marked in a
//! consumption map, and `tests/parser_roundtrip.rs` property-tests
//! that the map has no holes — the "round-trips without loss"
//! guarantee that makes skim-on-confusion safe: confusion can hide an
//! item from the resolver, but it can never silently eat half a file.

use crate::{TokKind, Token};

/// One `use` binding after flattening nested groups.
///
/// `use a::{b, c as d, e::*};` flattens to three imports. For a glob,
/// `name` is empty and `glob` is set; the `path` is the glob's prefix.
#[derive(Debug, Clone)]
pub struct Import {
    /// Path segments as written (`["std", "collections", "HashMap"]`).
    /// For `use a::b::{self}` the path is `["a", "b"]`.
    pub path: Vec<String>,
    /// Local binding name: the alias if `as` was used, else the last
    /// path segment. Empty for globs.
    pub name: String,
    /// Whether this is a `::*` glob import.
    pub glob: bool,
    /// Whether the binding is re-exported (`pub use`).
    pub is_pub: bool,
    /// 1-based line of the binding.
    pub line: u32,
}

/// A parsed function (free or associated).
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Function name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Token-index range `[start, end]` of the body including both
    /// braces; `None` for bodiless declarations (trait methods).
    pub body: Option<(usize, usize)>,
    /// Whether the item carries `#[cfg(test)]`-style gating.
    pub cfg_test: bool,
    /// Whether the item carries `#[cfg(debug_assertions)]` gating.
    pub cfg_debug: bool,
}

/// A parsed struct and its named fields.
#[derive(Debug, Clone)]
pub struct StructItem {
    /// Struct name.
    pub name: String,
    /// 1-based line of the `struct` keyword.
    pub line: u32,
    /// Named fields `(name, line)` in declaration order (empty for
    /// tuple/unit structs).
    pub fields: Vec<(String, u32)>,
}

/// A parsed inline or out-of-line module declaration.
#[derive(Debug)]
pub struct ModItem {
    /// Module name.
    pub name: String,
    /// Inline items, or `None` for `mod foo;` (lives in another file).
    pub inline: Option<Vec<Item>>,
    /// Whether the module is `#[cfg(test)]`-gated.
    pub cfg_test: bool,
    /// 1-based line of the `mod` keyword.
    pub line: u32,
    /// 1-based line of the closing brace for inline modules (equal to
    /// `line` for `mod foo;`) — used to map a source line back to its
    /// innermost module.
    pub end_line: u32,
}

/// An `impl` block: the self type's final name plus its methods.
#[derive(Debug)]
pub struct ImplItem {
    /// Last path segment of the implementing type (`Sim` for
    /// `impl<W> Sim<W>`, `Nic` for `impl Foo for Nic`).
    pub self_ty: String,
    /// Methods with bodies declared in the block.
    pub fns: Vec<FnItem>,
    /// Whether the block is `#[cfg(test)]`-gated.
    pub cfg_test: bool,
    /// Whether the block is `#[cfg(debug_assertions)]`-gated.
    pub cfg_debug: bool,
    /// 1-based line of the `impl` keyword.
    pub line: u32,
}

/// One parsed top-level or module-level item.
#[derive(Debug)]
pub enum Item {
    /// `mod name;` or `mod name { ... }`.
    Mod(ModItem),
    /// One `use` declaration, flattened.
    Use(Vec<Import>),
    /// A function with optional body.
    Fn(FnItem),
    /// A struct with named fields.
    Struct(StructItem),
    /// An enum (name only; variants are not needed by any rule).
    Enum { name: String, line: u32 },
    /// An impl block and its methods.
    Impl(ImplItem),
    /// A trait and its default-bodied methods.
    Trait {
        name: String,
        fns: Vec<FnItem>,
        line: u32,
    },
    /// Anything else (consts, statics, type aliases, macros, extern
    /// blocks): skimmed, attributed, ignored by the resolver.
    Other,
}

/// Result of parsing one file's token stream.
#[derive(Debug)]
pub struct ParsedFile {
    /// The item tree.
    pub items: Vec<Item>,
    /// Per-token consumption map — `consumed[i]` is true iff token `i`
    /// was attributed to some item (including skims). The round-trip
    /// property test asserts this has no holes.
    pub consumed: Vec<bool>,
}

/// Attribute facts gathered ahead of an item.
#[derive(Debug, Default, Clone, Copy)]
struct Attrs {
    cfg_test: bool,
    cfg_debug: bool,
}

struct Parser<'t> {
    toks: &'t [Token],
    pos: usize,
    consumed: Vec<bool>,
}

/// Parse a token stream into an item tree.
pub fn parse(toks: &[Token]) -> ParsedFile {
    let mut p = Parser {
        toks,
        pos: 0,
        consumed: vec![false; toks.len()],
    };
    let items = p.items(None);
    // Anything after a stray closing brace at top level: skim it so
    // the consumption map still closes.
    while p.pos < p.toks.len() {
        p.bump();
    }
    ParsedFile {
        items,
        consumed: p.consumed,
    }
}

impl<'t> Parser<'t> {
    fn peek(&self) -> Option<&'t Token> {
        self.toks.get(self.pos)
    }

    fn peek_at(&self, off: usize) -> Option<&'t Token> {
        self.toks.get(self.pos + off)
    }

    fn is(&self, text: &str) -> bool {
        self.peek().map(|t| t.text == text).unwrap_or(false)
    }

    fn bump(&mut self) -> Option<&'t Token> {
        let t = self.toks.get(self.pos)?;
        self.consumed[self.pos] = true;
        self.pos += 1;
        Some(t)
    }

    fn eat(&mut self, text: &str) -> bool {
        if self.is(text) {
            self.bump();
            true
        } else {
            false
        }
    }

    /// Skim tokens up to (and including) the next `;` at bracket depth
    /// zero, or a balanced brace block if one opens first (covers
    /// `const X: T = { .. };` and `static`).
    fn skim_to_semi(&mut self) {
        let mut depth = 0i32;
        while let Some(t) = self.peek() {
            match t.text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => {
                    if depth == 0 {
                        return; // stray closer belongs to the caller
                    }
                    depth -= 1;
                }
                ";" if depth == 0 => {
                    self.bump();
                    return;
                }
                _ => {}
            }
            self.bump();
        }
    }

    /// Skim a balanced `{ ... }` block (the opener must be next);
    /// returns the inclusive token range, or `None` at EOF.
    fn skim_braces(&mut self) -> Option<(usize, usize)> {
        if !self.is("{") {
            return None;
        }
        let start = self.pos;
        let mut depth = 0i32;
        while let Some(t) = self.peek() {
            match t.text.as_str() {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    if depth == 0 {
                        let end = self.pos;
                        self.bump();
                        return Some((start, end));
                    }
                }
                _ => {}
            }
            self.bump();
        }
        Some((start, self.toks.len().saturating_sub(1)))
    }

    /// Skim a generic-parameter list `<...>`, tolerating `->`/`=>`
    /// (whose `>` must not close the list) and shift operators inside
    /// braced const-generic expressions.
    fn skim_angles(&mut self) {
        if !self.is("<") {
            return;
        }
        let mut depth = 0i32;
        let mut prev = String::new();
        while let Some(t) = self.peek() {
            match t.text.as_str() {
                "<" => depth += 1,
                ">" if prev != "-" && prev != "=" => {
                    depth -= 1;
                    if depth == 0 {
                        self.bump();
                        return;
                    }
                }
                "(" | "[" | "{" => {
                    // Balanced sub-groups (Fn(..), const-generic
                    // blocks) are opaque to angle counting.
                    let open = t.text.clone();
                    let close = match open.as_str() {
                        "(" => ")",
                        "[" => "]",
                        _ => "}",
                    };
                    let mut d = 0i32;
                    while let Some(u) = self.peek() {
                        if u.text == open {
                            d += 1;
                        } else if u.text == close {
                            d -= 1;
                            if d == 0 {
                                break;
                            }
                        }
                        self.bump();
                    }
                }
                _ => {}
            }
            prev = self.peek().map(|t| t.text.clone()).unwrap_or_default();
            self.bump();
        }
    }

    /// Collect leading attributes (`#[...]` / `#![...]`), recording
    /// `cfg(test)` / `cfg(all(test, ..))` and `cfg(debug_assertions)`.
    fn attrs(&mut self) -> Attrs {
        let mut out = Attrs::default();
        while self.is("#") {
            let save = self.pos;
            self.bump();
            self.eat("!");
            if !self.is("[") {
                self.pos = save;
                // A stray `#`: consume it as unknown and stop.
                self.bump();
                break;
            }
            // Balanced `[ ... ]`, scanning for cfg facts.
            let mut depth = 0i32;
            let mut saw_cfg = false;
            while let Some(t) = self.peek() {
                match t.text.as_str() {
                    "[" => depth += 1,
                    "]" => {
                        depth -= 1;
                        if depth == 0 {
                            self.bump();
                            break;
                        }
                    }
                    "cfg" | "cfg_attr" => saw_cfg = true,
                    "test" if saw_cfg => out.cfg_test = true,
                    "debug_assertions" if saw_cfg => out.cfg_debug = true,
                    _ => {}
                }
                self.bump();
            }
        }
        out
    }

    /// Skip a visibility qualifier (`pub`, `pub(crate)`, `pub(in a)`).
    /// Returns whether the item is `pub`.
    fn visibility(&mut self) -> bool {
        if !self.is("pub") {
            return false;
        }
        self.bump();
        if self.is("(") {
            let mut depth = 0i32;
            while let Some(t) = self.peek() {
                match t.text.as_str() {
                    "(" => depth += 1,
                    ")" => {
                        depth -= 1;
                        if depth == 0 {
                            self.bump();
                            break;
                        }
                    }
                    _ => {}
                }
                self.bump();
            }
        }
        true
    }

    /// Parse items until EOF or an unmatched `}` (which is left for
    /// the caller when `stop_at_brace`).
    fn items(&mut self, stop_at_brace: Option<()>) -> Vec<Item> {
        let mut out = Vec::new();
        while let Some(t) = self.peek() {
            if t.text == "}" && stop_at_brace.is_some() {
                break;
            }
            let attrs = self.attrs();
            let is_pub = self.visibility();
            let Some(head) = self.peek() else { break };
            let line = head.line;
            let item = match (head.kind, head.text.as_str()) {
                (TokKind::Ident, "mod") => self.item_mod(attrs, line),
                (TokKind::Ident, "use") => self.item_use(is_pub),
                (TokKind::Ident, "fn") => self
                    .item_fn(attrs, line)
                    .map(Item::Fn)
                    .unwrap_or(Item::Other),
                (TokKind::Ident, "unsafe")
                | (TokKind::Ident, "async")
                | (TokKind::Ident, "extern") => {
                    // Possible fn modifiers; otherwise an unsafe/extern
                    // block or extern crate — skim.
                    let save = self.pos;
                    while matches!(
                        self.peek().map(|t| t.text.as_str()),
                        Some("unsafe") | Some("async") | Some("extern") | Some("const")
                    ) || self.peek().map(|t| t.kind) == Some(TokKind::Str)
                    {
                        self.bump();
                    }
                    if self.is("fn") {
                        self.item_fn(attrs, line)
                            .map(Item::Fn)
                            .unwrap_or(Item::Other)
                    } else {
                        self.pos = save;
                        self.skim_item()
                    }
                }
                (TokKind::Ident, "const") => {
                    // `const fn` vs `const NAME: ...;`.
                    if self.peek_at(1).map(|t| t.text.as_str()) == Some("fn") {
                        self.bump(); // const
                        self.item_fn(attrs, line)
                            .map(Item::Fn)
                            .unwrap_or(Item::Other)
                    } else {
                        self.skim_to_semi();
                        Item::Other
                    }
                }
                (TokKind::Ident, "struct") => self.item_struct(line),
                (TokKind::Ident, "enum") => {
                    self.bump();
                    let name = self.ident().unwrap_or_default();
                    self.skim_angles();
                    // `enum X { .. }` or (never in practice) `;`.
                    if self.is("{") {
                        self.skim_braces();
                    } else {
                        self.skim_to_semi();
                    }
                    Item::Enum { name, line }
                }
                (TokKind::Ident, "impl") => self.item_impl(attrs, line),
                (TokKind::Ident, "trait") => self.item_trait(attrs, line),
                (TokKind::Ident, "macro_rules") => {
                    self.bump();
                    self.eat("!");
                    self.ident();
                    self.skim_braces();
                    Item::Other
                }
                (TokKind::Ident, "type") | (TokKind::Ident, "static") => {
                    self.skim_to_semi();
                    Item::Other
                }
                _ => self.skim_item(),
            };
            out.push(item);
        }
        out
    }

    fn ident(&mut self) -> Option<String> {
        match self.peek() {
            Some(t) if t.kind == TokKind::Ident => {
                let s = t.text.clone();
                self.bump();
                Some(s)
            }
            _ => None,
        }
    }

    /// Consume one unknown construct: a balanced brace block if one
    /// opens before a `;`, else through the `;`. Guarantees progress.
    fn skim_item(&mut self) -> Item {
        let start = self.pos;
        let mut depth = 0i32;
        while let Some(t) = self.peek() {
            match t.text.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" => {
                    if depth == 0 {
                        break; // caller's closer
                    }
                    depth -= 1;
                }
                "{" if depth == 0 => {
                    self.skim_braces();
                    return Item::Other;
                }
                "{" => depth += 1,
                "}" => {
                    if depth == 0 {
                        break;
                    }
                    depth -= 1;
                }
                ";" if depth == 0 => {
                    self.bump();
                    return Item::Other;
                }
                _ => {}
            }
            self.bump();
        }
        if self.pos == start {
            self.bump(); // stray closer or EOF straggler
        }
        Item::Other
    }

    fn item_mod(&mut self, attrs: Attrs, line: u32) -> Item {
        self.bump(); // mod
        let name = self.ident().unwrap_or_default();
        if self.eat(";") {
            return Item::Mod(ModItem {
                name,
                inline: None,
                cfg_test: attrs.cfg_test,
                line,
                end_line: line,
            });
        }
        if self.is("{") {
            self.bump(); // {
            let items = self.items(Some(()));
            let end_line = self.peek().map(|t| t.line).unwrap_or(u32::MAX);
            self.eat("}");
            return Item::Mod(ModItem {
                name,
                inline: Some(items),
                cfg_test: attrs.cfg_test,
                line,
                end_line,
            });
        }
        Item::Other
    }

    fn item_use(&mut self, is_pub: bool) -> Item {
        self.bump(); // use
        let mut imports = Vec::new();
        // Leading `::` (2015-style absolute path).
        self.eat(":");
        self.eat(":");
        self.use_tree(Vec::new(), is_pub, &mut imports);
        self.eat(";");
        Item::Use(imports)
    }

    /// Parse one use-tree with `prefix` already accumulated.
    fn use_tree(&mut self, prefix: Vec<String>, is_pub: bool, out: &mut Vec<Import>) {
        let mut path = prefix;
        loop {
            match self.peek() {
                Some(t) if t.kind == TokKind::Ident && t.text == "as" => {
                    self.bump();
                    let line = self.peek().map(|t| t.line).unwrap_or(0);
                    let alias = self.ident().unwrap_or_default();
                    out.push(Import {
                        path,
                        name: alias,
                        glob: false,
                        is_pub,
                        line,
                    });
                    return;
                }
                Some(t) if t.kind == TokKind::Ident => {
                    let seg = t.text.clone();
                    let line = t.line;
                    self.bump();
                    if seg == "self" && !path.is_empty() {
                        // `a::b::{self, ..}`: bind the prefix itself.
                        let name = path.last().cloned().unwrap_or_default();
                        // Optional `as` rename of self.
                        if self.peek().map(|t| t.text.as_str()) == Some("as") {
                            self.bump();
                            let alias = self.ident().unwrap_or_default();
                            out.push(Import {
                                path,
                                name: alias,
                                glob: false,
                                is_pub,
                                line,
                            });
                        } else {
                            out.push(Import {
                                path,
                                name,
                                glob: false,
                                is_pub,
                                line,
                            });
                        }
                        return;
                    }
                    path.push(seg);
                    if self.is(":") && self.peek_at(1).map(|t| t.text.as_str()) == Some(":") {
                        self.bump();
                        self.bump();
                        continue;
                    }
                    // Terminal segment without alias.
                    let name = path.last().cloned().unwrap_or_default();
                    if self.peek().map(|t| t.text.as_str()) == Some("as") {
                        continue; // handled by the `as` arm above
                    }
                    out.push(Import {
                        path,
                        name,
                        glob: false,
                        is_pub,
                        line,
                    });
                    return;
                }
                Some(t) if t.text == "*" => {
                    let line = t.line;
                    self.bump();
                    out.push(Import {
                        path,
                        name: String::new(),
                        glob: true,
                        is_pub,
                        line,
                    });
                    return;
                }
                Some(t) if t.text == "{" => {
                    self.bump();
                    loop {
                        if self.eat("}") {
                            return;
                        }
                        if self.peek().is_none() {
                            return;
                        }
                        self.use_tree(path.clone(), is_pub, out);
                        if !self.eat(",") && self.eat("}") {
                            return;
                        }
                    }
                }
                _ => return,
            }
        }
    }

    fn item_fn(&mut self, attrs: Attrs, line: u32) -> Option<FnItem> {
        self.bump(); // fn
        let name = self.ident().unwrap_or_default();
        self.skim_angles();
        // Parameters.
        if self.is("(") {
            let mut depth = 0i32;
            while let Some(t) = self.peek() {
                match t.text.as_str() {
                    "(" => depth += 1,
                    ")" => {
                        depth -= 1;
                        if depth == 0 {
                            self.bump();
                            break;
                        }
                    }
                    _ => {}
                }
                self.bump();
            }
        }
        // Return type / where clause: scan to the body `{` or `;` at
        // group depth zero.
        let mut depth = 0i32;
        loop {
            match self.peek() {
                None => {
                    return Some(FnItem {
                        name,
                        line,
                        body: None,
                        cfg_test: attrs.cfg_test,
                        cfg_debug: attrs.cfg_debug,
                    })
                }
                Some(t) => match t.text.as_str() {
                    "(" | "[" => {
                        depth += 1;
                        self.bump();
                    }
                    ")" | "]" => {
                        depth -= 1;
                        self.bump();
                    }
                    ";" if depth == 0 => {
                        self.bump();
                        return Some(FnItem {
                            name,
                            line,
                            body: None,
                            cfg_test: attrs.cfg_test,
                            cfg_debug: attrs.cfg_debug,
                        });
                    }
                    "{" if depth == 0 => {
                        let body = self.skim_braces();
                        return Some(FnItem {
                            name,
                            line,
                            body,
                            cfg_test: attrs.cfg_test,
                            cfg_debug: attrs.cfg_debug,
                        });
                    }
                    _ => {
                        self.bump();
                    }
                },
            }
        }
    }

    fn item_struct(&mut self, line: u32) -> Item {
        self.bump(); // struct
        let name = self.ident().unwrap_or_default();
        self.skim_angles();
        // `where` clause before the brace.
        let mut depth = 0i32;
        loop {
            match self.peek() {
                None => {
                    return Item::Struct(StructItem {
                        name,
                        line,
                        fields: Vec::new(),
                    })
                }
                Some(t) => match t.text.as_str() {
                    "(" | "[" => {
                        depth += 1;
                        self.bump();
                    }
                    ")" | "]" => {
                        depth -= 1;
                        self.bump();
                    }
                    ";" if depth == 0 => {
                        // Unit struct or tuple struct terminator.
                        self.bump();
                        return Item::Struct(StructItem {
                            name,
                            line,
                            fields: Vec::new(),
                        });
                    }
                    "{" if depth == 0 => break,
                    _ => {
                        self.bump();
                    }
                },
            }
        }
        // Named fields.
        self.bump(); // {
        let mut fields = Vec::new();
        loop {
            if self.eat("}") || self.peek().is_none() {
                break;
            }
            self.attrs();
            self.visibility();
            let Some(t) = self.peek() else { break };
            if t.kind == TokKind::Ident && self.peek_at(1).map(|t| t.text.as_str()) == Some(":") {
                fields.push((t.text.clone(), t.line));
                self.bump(); // name
                self.bump(); // :
                             // Skim the type to `,` or `}` at depth 0.
                let mut depth = 0i32;
                let mut prev = String::new();
                while let Some(t) = self.peek() {
                    match t.text.as_str() {
                        "(" | "[" | "{" => depth += 1,
                        ")" | "]" => depth -= 1,
                        "<" => depth += 1,
                        ">" if prev != "-" && prev != "=" => depth -= 1,
                        "}" => {
                            if depth == 0 {
                                break;
                            }
                            depth -= 1;
                        }
                        "," if depth == 0 => {
                            self.bump();
                            break;
                        }
                        _ => {}
                    }
                    prev = t.text.clone();
                    self.bump();
                }
            } else {
                // Confused: skim one token and keep going.
                self.bump();
            }
        }
        Item::Struct(StructItem { name, line, fields })
    }

    /// `impl [generics] Type [for Type] [where ...] { items }`.
    fn item_impl(&mut self, attrs: Attrs, line: u32) -> Item {
        self.bump(); // impl
        self.skim_angles();
        // Collect the type path (possibly twice: `Trait for Type`).
        let mut last_ident = String::new();
        let mut depth = 0i32;
        let mut prev = String::new();
        loop {
            match self.peek() {
                None => return Item::Other,
                Some(t) => match t.text.as_str() {
                    "for" if depth == 0 => {
                        last_ident.clear(); // the self type follows
                        self.bump();
                    }
                    "where" if depth == 0 => {
                        self.bump();
                    }
                    "{" if depth == 0 => break,
                    "(" | "[" => {
                        depth += 1;
                        self.bump();
                    }
                    ")" | "]" => {
                        depth -= 1;
                        self.bump();
                    }
                    "<" => {
                        depth += 1;
                        self.bump();
                    }
                    ">" if prev != "-" && prev != "=" => {
                        depth -= 1;
                        self.bump();
                    }
                    _ => {
                        if t.kind == TokKind::Ident && depth == 0 && t.text != "dyn" {
                            last_ident = t.text.clone();
                        }
                        prev = t.text.clone();
                        self.bump();
                    }
                },
            }
        }
        // Body: parse inner items, keeping the fns.
        self.bump(); // {
        let items = self.items(Some(()));
        self.eat("}");
        let fns = items
            .into_iter()
            .filter_map(|i| match i {
                Item::Fn(f) => Some(f),
                _ => None,
            })
            .collect();
        Item::Impl(ImplItem {
            self_ty: last_ident,
            fns,
            cfg_test: attrs.cfg_test,
            cfg_debug: attrs.cfg_debug,
            line,
        })
    }

    fn item_trait(&mut self, _attrs: Attrs, line: u32) -> Item {
        self.bump(); // trait
        let name = self.ident().unwrap_or_default();
        self.skim_angles();
        // Supertraits / where clause up to the brace.
        while let Some(t) = self.peek() {
            if t.text == "{" {
                break;
            }
            if t.text == ";" {
                self.bump();
                return Item::Trait {
                    name,
                    fns: Vec::new(),
                    line,
                };
            }
            self.bump();
        }
        if !self.is("{") {
            return Item::Trait {
                name,
                fns: Vec::new(),
                line,
            };
        }
        self.bump(); // {
        let items = self.items(Some(()));
        self.eat("}");
        let fns = items
            .into_iter()
            .filter_map(|i| match i {
                Item::Fn(f) => Some(f),
                _ => None,
            })
            .collect();
        Item::Trait { name, fns, line }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenize;

    fn parsed(src: &str) -> ParsedFile {
        let (toks, _) = tokenize(src);
        parse(&toks)
    }

    #[test]
    fn parses_use_aliases_and_groups() {
        let f = parsed(
            "use std::collections::HashMap as Map;\n\
             use a::b::{c, d as e, f::*, g::{self, h}};\n",
        );
        let mut imports = Vec::new();
        for i in &f.items {
            if let Item::Use(v) = i {
                imports.extend(v.iter().cloned());
            }
        }
        assert_eq!(imports.len(), 6);
        assert_eq!(imports[0].name, "Map");
        assert_eq!(imports[0].path, vec!["std", "collections", "HashMap"]);
        assert_eq!(imports[1].name, "c");
        assert_eq!(imports[2].name, "e");
        assert_eq!(imports[2].path, vec!["a", "b", "d"]);
        assert!(imports[3].glob);
        assert_eq!(imports[3].path, vec!["a", "b", "f"]);
        assert_eq!(imports[4].name, "g", "use ...::{{self}} binds the prefix");
        assert_eq!(imports[4].path, vec!["a", "b", "g"]);
        assert_eq!(imports[5].name, "h");
    }

    #[test]
    fn parses_fns_structs_impls() {
        let f = parsed(
            "pub struct S<T> { pub a: u32, b: Vec<T>, }\n\
             impl<T> S<T> { pub fn m(&self) -> u32 { self.a } }\n\
             impl Clone for S<u8> { fn clone(&self) -> Self { todo!() } }\n\
             fn free<F: Fn(u32) -> u32>(f: F) -> u32 { f(1) }\n",
        );
        let mut names = Vec::new();
        for i in &f.items {
            match i {
                Item::Struct(s) => {
                    assert_eq!(s.name, "S");
                    let fields: Vec<_> = s.fields.iter().map(|(n, _)| n.as_str()).collect();
                    assert_eq!(fields, vec!["a", "b"]);
                }
                Item::Impl(im) => {
                    assert_eq!(im.self_ty, "S");
                    names.extend(im.fns.iter().map(|f| f.name.clone()));
                }
                Item::Fn(fun) => names.push(fun.name.clone()),
                _ => {}
            }
        }
        assert_eq!(names, vec!["m", "clone", "free"]);
        assert!(f.consumed.iter().all(|&c| c), "no token left behind");
    }

    #[test]
    fn parses_mods_inline_and_file() {
        let f = parsed(
            "mod wire;\n\
             #[cfg(test)]\nmod tests { fn t() {} }\n\
             pub mod outer { pub mod inner { pub fn g() {} } }\n",
        );
        let mods: Vec<&ModItem> = f
            .items
            .iter()
            .filter_map(|i| match i {
                Item::Mod(m) => Some(m),
                _ => None,
            })
            .collect();
        assert_eq!(mods.len(), 3);
        assert!(mods[0].inline.is_none());
        assert!(mods[1].cfg_test);
        assert!(mods[2].inline.is_some());
    }

    #[test]
    fn cfg_debug_assertions_is_recorded() {
        let f = parsed("#[cfg(debug_assertions)]\nfn dbg_only() { panic!(\"x\") }\n");
        match &f.items[0] {
            Item::Fn(fun) => assert!(fun.cfg_debug),
            other => panic!("expected fn, got {other:?}"),
        }
    }

    #[test]
    fn unknown_items_are_skimmed_without_loss() {
        let f = parsed(
            "const X: [u8; 2] = { [0, 1] };\n\
             static Y: u32 = 7;\n\
             type Z = Vec<u32>;\n\
             macro_rules! m { () => {}; }\n\
             extern crate alloc;\n\
             fn after() {}\n",
        );
        assert!(f.consumed.iter().all(|&c| c));
        assert!(f
            .items
            .iter()
            .any(|i| matches!(i, Item::Fn(fun) if fun.name == "after")));
    }
}
