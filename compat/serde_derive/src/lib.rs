//! The `Serialize` derive for the offline `serde` stub.
//!
//! Implemented without `syn`/`quote` (the build environment has no
//! registry access): the input item is parsed directly from the
//! `proc_macro` token stream. Supported shapes — named-field structs,
//! tuple structs and unit-variant enums, all without generics — cover
//! every type this workspace derives on.

use proc_macro::{Delimiter, TokenStream, TokenTree};

enum Shape {
    NamedStruct(Vec<String>),
    TupleStruct(usize),
    UnitStruct,
    UnitEnum(Vec<String>),
}

/// Skip one attribute (`#` already consumed → consume the `[...]`).
fn skip_attr(iter: &mut impl Iterator<Item = TokenTree>) {
    match iter.next() {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Bracket => {}
        other => panic!("serde stub derive: malformed attribute, got {other:?}"),
    }
}

fn parse_item(input: TokenStream) -> (String, Shape) {
    let mut iter = input.into_iter().peekable();
    let mut kind: Option<&'static str> = None;
    // Header: attributes / visibility up to `struct` or `enum`.
    while let Some(tok) = iter.next() {
        match tok {
            TokenTree::Punct(p) if p.as_char() == '#' => skip_attr(&mut iter),
            TokenTree::Ident(id) => {
                let s = id.to_string();
                if s == "struct" {
                    kind = Some("struct");
                    break;
                } else if s == "enum" {
                    kind = Some("enum");
                    break;
                }
                // `pub` or similar visibility keyword: ignore (a
                // following `(crate)` group is ignored by the Group arm).
            }
            TokenTree::Group(_) => {}
            other => panic!("serde stub derive: unexpected token {other}"),
        }
    }
    let kind = kind.expect("serde stub derive: no struct/enum keyword");
    let name = match iter.next() {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("serde stub derive: expected type name, got {other:?}"),
    };
    if let Some(TokenTree::Punct(p)) = iter.peek() {
        if p.as_char() == '<' {
            panic!("serde stub derive: generic type `{name}` is not supported");
        }
    }
    let shape = if kind == "struct" {
        match iter.next() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Shape::NamedStruct(parse_named_fields(g.stream()))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                Shape::TupleStruct(count_tuple_fields(g.stream()))
            }
            Some(TokenTree::Punct(p)) if p.as_char() == ';' => Shape::UnitStruct,
            other => panic!("serde stub derive: unexpected struct body {other:?}"),
        }
    } else {
        match iter.next() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Shape::UnitEnum(parse_unit_variants(&name, g.stream()))
            }
            other => panic!("serde stub derive: unexpected enum body {other:?}"),
        }
    };
    (name, shape)
}

/// Field names of a named-field struct body.
fn parse_named_fields(stream: TokenStream) -> Vec<String> {
    let mut fields = Vec::new();
    let mut iter = stream.into_iter().peekable();
    loop {
        // Skip attributes and visibility before the field name.
        let name = loop {
            match iter.next() {
                None => return fields,
                Some(TokenTree::Punct(p)) if p.as_char() == '#' => skip_attr(&mut iter),
                Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                    if let Some(TokenTree::Group(_)) = iter.peek() {
                        iter.next(); // pub(crate) etc.
                    }
                }
                Some(TokenTree::Ident(id)) => break id.to_string(),
                Some(other) => panic!("serde stub derive: unexpected field token {other}"),
            }
        };
        match iter.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => {}
            other => panic!("serde stub derive: expected `:` after field `{name}`, got {other:?}"),
        }
        fields.push(name);
        // Consume the type up to the next field-separating comma. Angle
        // brackets are not token groups, so track their depth manually.
        let mut angle = 0i32;
        for tok in iter.by_ref() {
            match tok {
                TokenTree::Punct(p) if p.as_char() == '<' => angle += 1,
                TokenTree::Punct(p) if p.as_char() == '>' => angle -= 1,
                TokenTree::Punct(p) if p.as_char() == ',' && angle == 0 => break,
                _ => {}
            }
        }
    }
}

/// Number of fields in a tuple-struct body.
fn count_tuple_fields(stream: TokenStream) -> usize {
    let mut count = 0usize;
    let mut saw_tokens = false;
    let mut angle = 0i32;
    for tok in stream {
        match tok {
            TokenTree::Punct(p) if p.as_char() == '<' => angle += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => angle -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && angle == 0 => {
                count += 1;
                saw_tokens = false;
                continue;
            }
            _ => {}
        }
        saw_tokens = true;
    }
    if saw_tokens {
        count += 1; // no trailing comma
    }
    count
}

/// Variant names of a unit-variant enum body.
fn parse_unit_variants(enum_name: &str, stream: TokenStream) -> Vec<String> {
    let mut variants = Vec::new();
    let mut iter = stream.into_iter().peekable();
    while let Some(tok) = iter.next() {
        match tok {
            TokenTree::Punct(p) if p.as_char() == '#' => skip_attr(&mut iter),
            TokenTree::Ident(id) => {
                let v = id.to_string();
                // Payload or discriminant would need real serde.
                if let Some(TokenTree::Group(_)) = iter.peek() {
                    panic!(
                        "serde stub derive: enum `{enum_name}` variant `{v}` carries data, \
                         which the stub does not support"
                    );
                }
                variants.push(v);
                // Skip to the comma (covers `= discriminant`).
                for t in iter.by_ref() {
                    if let TokenTree::Punct(p) = t {
                        if p.as_char() == ',' {
                            break;
                        }
                    }
                }
            }
            TokenTree::Punct(p) if p.as_char() == ',' => {}
            other => panic!("serde stub derive: unexpected enum token {other}"),
        }
    }
    variants
}

/// Derive `serde::Serialize` (stub data model).
#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let (name, shape) = parse_item(input);
    let body = match &shape {
        Shape::NamedStruct(fields) => {
            let entries: Vec<String> = fields
                .iter()
                .map(|f| {
                    format!(
                        "(::std::string::String::from(\"{f}\"), \
                         ::serde::Serialize::to_value(&self.{f}))"
                    )
                })
                .collect();
            format!("::serde::Value::Object(vec![{}])", entries.join(", "))
        }
        Shape::TupleStruct(1) => "::serde::Serialize::to_value(&self.0)".to_string(),
        Shape::TupleStruct(n) => {
            let entries: Vec<String> = (0..*n)
                .map(|i| format!("::serde::Serialize::to_value(&self.{i})"))
                .collect();
            format!("::serde::Value::Array(vec![{}])", entries.join(", "))
        }
        Shape::UnitStruct => "::serde::Value::Null".to_string(),
        Shape::UnitEnum(variants) => {
            let arms: Vec<String> = variants
                .iter()
                .map(|v| {
                    format!(
                        "{name}::{v} => ::serde::Value::Str(::std::string::String::from(\"{v}\"))"
                    )
                })
                .collect();
            format!("match self {{ {} }}", arms.join(", "))
        }
    };
    format!(
        "impl ::serde::Serialize for {name} {{\n\
             fn to_value(&self) -> ::serde::Value {{ {body} }}\n\
         }}"
    )
    .parse()
    .expect("serde stub derive: generated impl parses")
}
