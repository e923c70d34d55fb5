//! Offline stand-in for `serde_derive`.
//!
//! Hand-rolled over `proc_macro::TokenStream` (no `syn`/`quote` available in
//! this container). Supports the shapes this workspace actually derives:
//!
//! - named-field structs, with `#[serde(default)]` and
//!   `#[serde(default = "path")]` field attributes; missing `Option<T>`
//!   fields deserialize to `None`; unknown input fields are ignored
//! - enums with unit and newtype variants (externally tagged), with the
//!   `#[serde(rename_all = "snake_case")]` container attribute
//!
//! Generated impls target the `Serialize`/`Deserialize` traits of the
//! sibling `serde` shim (`to_value`/`from_value` over `serde::Value`).
//! `Serialize` also gets `write_json`, which appends the JSON text of
//! `to_value` straight to a `String`, fields in the same order.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// Derives `serde::Serialize` (shim).
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    expand(input, Which::Serialize)
}

/// Derives `serde::Deserialize` (shim).
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    expand(input, Which::Deserialize)
}

#[derive(Clone, Copy, PartialEq)]
enum Which {
    Serialize,
    Deserialize,
}

struct Field {
    name: String,
    ty: String,
    has_default: bool,
    default_path: Option<String>,
}

struct Variant {
    name: String,
    newtype: bool,
}

fn expand(input: TokenStream, which: Which) -> TokenStream {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;
    let mut container_attrs = Vec::new();

    // Leading attributes (docs, #[serde(...)], other derives' helpers).
    while i < tokens.len() {
        match &tokens[i] {
            TokenTree::Punct(p) if p.as_char() == '#' => {
                if let Some(TokenTree::Group(g)) = tokens.get(i + 1) {
                    if let Some(inner) = serde_attr_body(&g.stream()) {
                        container_attrs.push(inner);
                    }
                    i += 2;
                } else {
                    i += 1;
                }
            }
            TokenTree::Ident(id) if id.to_string() == "pub" => {
                i += 1;
                // pub(crate) / pub(super)
                if let Some(TokenTree::Group(g)) = tokens.get(i) {
                    if g.delimiter() == Delimiter::Parenthesis {
                        i += 1;
                    }
                }
            }
            TokenTree::Ident(id) if id.to_string() == "struct" || id.to_string() == "enum" => break,
            _ => i += 1,
        }
    }

    let is_enum = matches!(&tokens[i], TokenTree::Ident(id) if id.to_string() == "enum");
    i += 1;
    let name = match &tokens[i] {
        TokenTree::Ident(id) => id.to_string(),
        other => panic!("serde_derive shim: expected type name, got {other}"),
    };
    // Skip ahead to the body brace group (no generics in this workspace).
    let body = loop {
        i += 1;
        match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => break g.stream(),
            Some(_) => continue,
            None => panic!(
                "serde_derive shim: `{name}` has no braced body (tuple/unit types unsupported)"
            ),
        }
    };

    let rename_snake = container_attrs
        .iter()
        .any(|a| a.contains("rename_all") && a.contains("snake_case"));

    let src = if is_enum {
        let variants = parse_variants(&body);
        match which {
            Which::Serialize => enum_serialize(&name, &variants, rename_snake),
            Which::Deserialize => enum_deserialize(&name, &variants, rename_snake),
        }
    } else {
        let fields = parse_fields(&body);
        match which {
            Which::Serialize => struct_serialize(&name, &fields),
            Which::Deserialize => struct_deserialize(&name, &fields),
        }
    };

    src.parse()
        .unwrap_or_else(|e| panic!("serde_derive shim: generated invalid code for `{name}`: {e}"))
}

/// If `stream` is the inside of a `#[...]` attribute and it is a
/// `serde(...)` attribute, returns the `...` body as a string.
fn serde_attr_body(stream: &TokenStream) -> Option<String> {
    let mut it = stream.clone().into_iter();
    match it.next() {
        Some(TokenTree::Ident(id)) if id.to_string() == "serde" => {}
        _ => return None,
    }
    match it.next() {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
            Some(g.stream().to_string())
        }
        _ => None,
    }
}

/// Splits a brace-group body at top-level commas (tracking `<...>` depth;
/// parenthesized groups are single token trees, so their commas never show).
fn split_top_level(body: &TokenStream) -> Vec<Vec<TokenTree>> {
    let mut chunks = Vec::new();
    let mut current = Vec::new();
    let mut angle: i32 = 0;
    for tt in body.clone().into_iter() {
        match &tt {
            TokenTree::Punct(p) if p.as_char() == '<' => angle += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => angle -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && angle == 0 => {
                chunks.push(std::mem::take(&mut current));
                continue;
            }
            _ => {}
        }
        current.push(tt);
    }
    if !current.is_empty() {
        chunks.push(current);
    }
    chunks
}

/// Consumes leading `#[...]` attributes from `toks[*i..]`, returning the
/// bodies of any `serde(...)` attributes among them.
fn take_attrs(toks: &[TokenTree], i: &mut usize) -> Vec<String> {
    let mut serde_attrs = Vec::new();
    while let Some(TokenTree::Punct(p)) = toks.get(*i) {
        if p.as_char() != '#' {
            break;
        }
        if let Some(TokenTree::Group(g)) = toks.get(*i + 1) {
            if let Some(body) = serde_attr_body(&g.stream()) {
                serde_attrs.push(body);
            }
            *i += 2;
        } else {
            break;
        }
    }
    serde_attrs
}

fn parse_fields(body: &TokenStream) -> Vec<Field> {
    let mut fields = Vec::new();
    for chunk in split_top_level(body) {
        let mut i = 0;
        let attrs = take_attrs(&chunk, &mut i);
        if let Some(TokenTree::Ident(id)) = chunk.get(i) {
            if id.to_string() == "pub" {
                i += 1;
                if let Some(TokenTree::Group(g)) = chunk.get(i) {
                    if g.delimiter() == Delimiter::Parenthesis {
                        i += 1;
                    }
                }
            }
        }
        let name = match chunk.get(i) {
            Some(TokenTree::Ident(id)) => id.to_string(),
            _ => continue, // trailing comma artifact
        };
        i += 1;
        match chunk.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => i += 1,
            other => panic!("serde_derive shim: field `{name}` missing `:` (got {other:?})"),
        }
        let ty = chunk[i..]
            .iter()
            .map(|tt| tt.to_string())
            .collect::<Vec<_>>()
            .join(" ");
        let mut has_default = false;
        let mut default_path = None;
        for a in &attrs {
            let a = a.trim();
            if a == "default" {
                has_default = true;
            } else if let Some(rest) = a.strip_prefix("default") {
                let rest = rest.trim_start();
                if let Some(path) = rest.strip_prefix('=') {
                    default_path = Some(path.trim().trim_matches('"').to_string());
                }
            }
        }
        fields.push(Field {
            name,
            ty,
            has_default,
            default_path,
        });
    }
    fields
}

fn parse_variants(body: &TokenStream) -> Vec<Variant> {
    let mut variants = Vec::new();
    for chunk in split_top_level(body) {
        let mut i = 0;
        let _ = take_attrs(&chunk, &mut i); // skips #[default], docs, etc.
        let name = match chunk.get(i) {
            Some(TokenTree::Ident(id)) => id.to_string(),
            _ => continue,
        };
        i += 1;
        let newtype = matches!(
            chunk.get(i),
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis
        );
        variants.push(Variant { name, newtype });
    }
    variants
}

fn snake_case(name: &str) -> String {
    let mut out = String::new();
    for (i, c) in name.chars().enumerate() {
        if c.is_ascii_uppercase() {
            if i > 0 {
                out.push('_');
            }
            out.push(c.to_ascii_lowercase());
        } else {
            out.push(c);
        }
    }
    out
}

fn wire_name(name: &str, rename_snake: bool) -> String {
    if rename_snake {
        snake_case(name)
    } else {
        name.to_string()
    }
}

/// A Rust string literal holding `json`, quotes and backslashes escaped.
fn str_literal(json: &str) -> String {
    format!("{json:?}")
}

fn struct_serialize(name: &str, fields: &[Field]) -> String {
    let mut pushes = String::new();
    let mut writes = String::new();
    for (i, f) in fields.iter().enumerate() {
        pushes.push_str(&format!(
            "fields.push((\"{n}\".to_string(), ::serde::Serialize::to_value(&self.{n})));\n",
            n = f.name
        ));
        // Field names are identifiers: nothing in them needs escaping.
        let key = format!("{}\"{}\":", if i == 0 { "" } else { "," }, f.name);
        writes.push_str(&format!(
            "out.push_str({});\n::serde::Serialize::write_json(&self.{}, out);\n",
            str_literal(&key),
            f.name
        ));
    }
    format!(
        "impl ::serde::Serialize for {name} {{\n\
         fn to_value(&self) -> ::serde::Value {{\n\
         let mut fields: Vec<(String, ::serde::Value)> = Vec::new();\n\
         {pushes}\
         ::serde::Value::Object(fields)\n\
         }}\n\
         fn write_json(&self, out: &mut String) {{\n\
         out.push('{{');\n\
         {writes}\
         out.push('}}');\n\
         }}\n}}\n"
    )
}

fn struct_deserialize(name: &str, fields: &[Field]) -> String {
    let mut lets = String::new();
    let mut inits = String::new();
    for f in fields {
        let missing = if let Some(path) = &f.default_path {
            format!("{path}()")
        } else if f.has_default || f.ty.starts_with("Option") {
            "::std::default::Default::default()".to_string()
        } else {
            format!(
                "return Err(::serde::DeError::missing_field(\"{}\"))",
                f.name
            )
        };
        lets.push_str(&format!(
            "let field_{n}: {ty} = match v.get(\"{n}\") {{\n\
             Some(x) => ::serde::Deserialize::from_value(x)?,\n\
             None => {missing},\n\
             }};\n",
            n = f.name,
            ty = f.ty
        ));
        inits.push_str(&format!("{n}: field_{n},\n", n = f.name));
    }
    format!(
        "impl ::serde::Deserialize for {name} {{\n\
         fn from_value(v: &::serde::Value) -> Result<Self, ::serde::DeError> {{\n\
         if v.as_object().is_none() {{\n\
         return Err(::serde::DeError::new(concat!(\"expected object for \", stringify!({name}))));\n\
         }}\n\
         {lets}\
         Ok({name} {{ {inits} }})\n\
         }}\n}}\n"
    )
}

fn enum_serialize(name: &str, variants: &[Variant], rename_snake: bool) -> String {
    let mut arms = String::new();
    let mut write_arms = String::new();
    for v in variants {
        let wire = wire_name(&v.name, rename_snake);
        if v.newtype {
            arms.push_str(&format!(
                "{name}::{v_name}(inner) => ::serde::Value::Object(vec![(\"{wire}\".to_string(), ::serde::Serialize::to_value(inner))]),\n",
                v_name = v.name
            ));
            write_arms.push_str(&format!(
                "{name}::{v_name}(inner) => {{\n\
                 out.push_str({open});\n\
                 ::serde::Serialize::write_json(inner, out);\n\
                 out.push('}}');\n\
                 }}\n",
                v_name = v.name,
                open = str_literal(&format!("{{\"{wire}\":")),
            ));
        } else {
            arms.push_str(&format!(
                "{name}::{v_name} => ::serde::Value::String(\"{wire}\".to_string()),\n",
                v_name = v.name
            ));
            write_arms.push_str(&format!(
                "{name}::{v_name} => out.push_str({}),\n",
                str_literal(&format!("\"{wire}\"")),
                v_name = v.name
            ));
        }
    }
    format!(
        "impl ::serde::Serialize for {name} {{\n\
         fn to_value(&self) -> ::serde::Value {{\n\
         match self {{\n{arms}}}\n\
         }}\n\
         fn write_json(&self, out: &mut String) {{\n\
         match self {{\n{write_arms}}}\n\
         }}\n}}\n"
    )
}

fn enum_deserialize(name: &str, variants: &[Variant], rename_snake: bool) -> String {
    let mut unit_arms = String::new();
    let mut newtype_arms = String::new();
    for v in variants {
        let wire = wire_name(&v.name, rename_snake);
        if v.newtype {
            newtype_arms.push_str(&format!(
                "\"{wire}\" => Ok({name}::{v_name}(::serde::Deserialize::from_value(val)?)),\n",
                v_name = v.name
            ));
        } else {
            unit_arms.push_str(&format!(
                "\"{wire}\" => Ok({name}::{v_name}),\n",
                v_name = v.name
            ));
        }
    }
    format!(
        "impl ::serde::Deserialize for {name} {{\n\
         fn from_value(v: &::serde::Value) -> Result<Self, ::serde::DeError> {{\n\
         match v {{\n\
         ::serde::Value::String(s) => match s.as_str() {{\n\
         {unit_arms}\
         other => Err(::serde::DeError::new(format!(\"unknown variant `{{other}}` of {name}\"))),\n\
         }},\n\
         ::serde::Value::Object(entries) if entries.len() == 1 => {{\n\
         let (key, val) = &entries[0];\n\
         let _ = val;\n\
         match key.as_str() {{\n\
         {newtype_arms}\
         other => Err(::serde::DeError::new(format!(\"unknown variant `{{other}}` of {name}\"))),\n\
         }}\n\
         }},\n\
         _ => Err(::serde::DeError::new(concat!(\"expected string or single-key object for \", stringify!({name})))),\n\
         }}\n\
         }}\n}}\n"
    )
}
