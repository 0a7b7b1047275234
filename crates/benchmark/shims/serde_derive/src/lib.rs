//! Offline stand-in for `serde_derive`: `#[derive(Serialize, Deserialize)]`
//! for the item shapes this repository uses, written against `proc_macro`
//! alone (no `syn`/`quote` offline).
//!
//! Supported: structs with named fields, tuple structs, unit structs, and
//! enums whose variants are unit, tuple or struct-like — all without
//! generics. Field attributes `#[serde(default)]` and
//! `#[serde(skip_serializing_if = "path")]` are honoured; any other
//! `#[serde(..)]` attribute is a compile error, so an unsupported use fails
//! the build rather than silently changing the wire format. The generated
//! impls target the stand-in `serde` crate's JSON-only traits and produce
//! the published crates' externally-tagged JSON layout.

use proc_macro::{Delimiter, TokenStream, TokenTree};

struct Field {
    /// Rust identifier (may be raw: `r#type`).
    ident: String,
    default: bool,
    skip_if: Option<String>,
}

impl Field {
    /// The JSON key: the identifier without a raw prefix.
    fn key(&self) -> &str {
        self.ident.strip_prefix("r#").unwrap_or(&self.ident)
    }
}

enum Shape {
    Unit,
    Tuple(usize),
    Named(Vec<Field>),
}

struct Variant {
    name: String,
    shape: Shape,
}

enum Body {
    Struct(Shape),
    Enum(Vec<Variant>),
}

struct Item {
    name: String,
    body: Body,
}

type Parsed<T> = Result<T, String>;

/// What one `#[..]` attribute said, as far as the derive cares.
#[derive(Default)]
struct SerdeAttrs {
    default: bool,
    skip_if: Option<String>,
}

/// Reads the inside of one `#[..]`: ignores everything but `serde(..)`.
fn parse_attr(stream: TokenStream, out: &mut SerdeAttrs, allow_field_attrs: bool) -> Parsed<()> {
    let mut tokens = stream.into_iter();
    match tokens.next() {
        Some(TokenTree::Ident(id)) if id.to_string() == "serde" => {}
        _ => return Ok(()),
    }
    let Some(TokenTree::Group(args)) = tokens.next() else {
        return Err("malformed #[serde] attribute".into());
    };
    if !allow_field_attrs {
        return Err(format!(
            "the offline serde stand-in supports #[serde(..)] on named fields only, found #[serde{args}]"
        ));
    }
    let args: Vec<TokenTree> = args.stream().into_iter().collect();
    let mut i = 0;
    while i < args.len() {
        let TokenTree::Ident(key) = &args[i] else {
            return Err(format!("unexpected token `{}` in #[serde(..)]", args[i]));
        };
        match key.to_string().as_str() {
            "default" => {
                if matches!(args.get(i + 1), Some(TokenTree::Punct(p)) if p.as_char() == '=') {
                    return Err("#[serde(default = ..)] is not supported offline".into());
                }
                out.default = true;
                i += 1;
            }
            "skip_serializing_if" => {
                let path = match (args.get(i + 1), args.get(i + 2)) {
                    (Some(TokenTree::Punct(p)), Some(TokenTree::Literal(lit)))
                        if p.as_char() == '=' =>
                    {
                        lit.to_string()
                    }
                    _ => return Err("expected skip_serializing_if = \"path\"".into()),
                };
                let path = path
                    .strip_prefix('"')
                    .and_then(|p| p.strip_suffix('"'))
                    .ok_or("skip_serializing_if takes a string literal")?;
                out.skip_if = Some(path.to_string());
                i += 3;
            }
            other => {
                return Err(format!(
                    "#[serde({other})] is not supported by the offline serde stand-in"
                ))
            }
        }
        match args.get(i) {
            None => {}
            Some(TokenTree::Punct(p)) if p.as_char() == ',' => i += 1,
            Some(t) => return Err(format!("unexpected token `{t}` in #[serde(..)]")),
        }
    }
    Ok(())
}

/// Consumes leading attributes and a visibility from `tokens[*i..]`.
fn skip_attrs_and_vis(
    tokens: &[TokenTree],
    i: &mut usize,
    allow_field_attrs: bool,
) -> Parsed<SerdeAttrs> {
    let mut attrs = SerdeAttrs::default();
    loop {
        match (tokens.get(*i), tokens.get(*i + 1)) {
            (Some(TokenTree::Punct(p)), Some(TokenTree::Group(g)))
                if p.as_char() == '#' && g.delimiter() == Delimiter::Bracket =>
            {
                parse_attr(g.stream(), &mut attrs, allow_field_attrs)?;
                *i += 2;
            }
            _ => break,
        }
    }
    if matches!(tokens.get(*i), Some(TokenTree::Ident(id)) if id.to_string() == "pub") {
        *i += 1;
        if matches!(tokens.get(*i), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
        {
            *i += 1;
        }
    }
    Ok(attrs)
}

/// Advances past one type (or discriminant) to just after the next
/// top-level comma, tracking `<..>` nesting.
fn skip_to_next_comma(tokens: &[TokenTree], i: &mut usize) {
    let mut depth = 0i32;
    let mut prev_dash = false;
    while let Some(t) = tokens.get(*i) {
        *i += 1;
        let TokenTree::Punct(p) = t else {
            prev_dash = false;
            continue;
        };
        match p.as_char() {
            '<' => depth += 1,
            '>' if !prev_dash => depth -= 1,
            ',' if depth <= 0 => return,
            _ => {}
        }
        prev_dash = p.as_char() == '-';
    }
}

fn parse_named(stream: TokenStream) -> Parsed<Vec<Field>> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut fields = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        let attrs = skip_attrs_and_vis(&tokens, &mut i, true)?;
        let Some(TokenTree::Ident(ident)) = tokens.get(i) else {
            return Err(format!("expected a field name, found `{}`", tokens[i]));
        };
        i += 1;
        if !matches!(tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == ':') {
            return Err(format!("expected `:` after field `{ident}`"));
        }
        i += 1;
        skip_to_next_comma(&tokens, &mut i);
        fields.push(Field {
            ident: ident.to_string(),
            default: attrs.default,
            skip_if: attrs.skip_if,
        });
    }
    Ok(fields)
}

fn parse_tuple(stream: TokenStream) -> Parsed<usize> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut count = 0;
    let mut i = 0;
    while i < tokens.len() {
        skip_attrs_and_vis(&tokens, &mut i, false)?;
        if i >= tokens.len() {
            break;
        }
        skip_to_next_comma(&tokens, &mut i);
        count += 1;
    }
    Ok(count)
}

fn parse_variants(stream: TokenStream) -> Parsed<Vec<Variant>> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut variants = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        skip_attrs_and_vis(&tokens, &mut i, false)?;
        let Some(TokenTree::Ident(name)) = tokens.get(i) else {
            return Err(format!("expected a variant name, found `{}`", tokens[i]));
        };
        i += 1;
        let shape = match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                i += 1;
                Shape::Named(parse_named(g.stream())?)
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                i += 1;
                Shape::Tuple(parse_tuple(g.stream())?)
            }
            _ => Shape::Unit,
        };
        // An explicit discriminant, then the separating comma.
        skip_to_next_comma(&tokens, &mut i);
        variants.push(Variant {
            name: name.to_string(),
            shape,
        });
    }
    Ok(variants)
}

fn parse_item(input: TokenStream) -> Parsed<Item> {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;
    skip_attrs_and_vis(&tokens, &mut i, false)?;
    let kind = match tokens.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        _ => return Err("expected `struct` or `enum`".into()),
    };
    i += 1;
    let Some(TokenTree::Ident(name)) = tokens.get(i) else {
        return Err("expected the item's name".into());
    };
    let name = name.to_string();
    i += 1;
    if matches!(tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        return Err(format!(
            "the offline serde stand-in cannot derive for generic item `{name}`"
        ));
    }
    let body = match (kind.as_str(), tokens.get(i)) {
        ("struct", Some(TokenTree::Group(g))) if g.delimiter() == Delimiter::Brace => {
            Body::Struct(Shape::Named(parse_named(g.stream())?))
        }
        ("struct", Some(TokenTree::Group(g))) if g.delimiter() == Delimiter::Parenthesis => {
            Body::Struct(Shape::Tuple(parse_tuple(g.stream())?))
        }
        ("struct", Some(TokenTree::Punct(p))) if p.as_char() == ';' => Body::Struct(Shape::Unit),
        ("enum", Some(TokenTree::Group(g))) if g.delimiter() == Delimiter::Brace => {
            Body::Enum(parse_variants(g.stream())?)
        }
        _ => {
            return Err(format!(
                "cannot derive for `{kind} {name}`: unsupported item shape"
            ))
        }
    };
    Ok(Item { name, body })
}

fn finish(code: Parsed<String>) -> TokenStream {
    let code = code.unwrap_or_else(|msg| format!("compile_error!({msg:?});"));
    code.parse()
        .unwrap_or_else(|e| panic!("serde stand-in generated unparsable code: {e}\n{code}"))
}

// ---------------------------------------------------------------------------
// Serialize
// ---------------------------------------------------------------------------

/// Statements writing `{"k":v,..}` for named fields; `access(field)` is the
/// expression that borrows a field.
fn ser_named(fields: &[Field], access: impl Fn(&Field) -> String) -> String {
    let mut s = String::from("__w.begin_object(); let mut __first = true; ");
    for f in fields {
        let value = access(f);
        let write = format!(
            "__w.key(&mut __first, {:?}); ::serde::Serialize::serialize({value}, __w); ",
            f.key()
        );
        match &f.skip_if {
            Some(path) => s += &format!("if !{path}({value}) {{ {write} }} "),
            None => s += &write,
        }
    }
    s + "let _ = __first; __w.end_object(); "
}

/// Statements writing `[a,b,..]` (or the bare value for one element).
fn ser_tuple(exprs: &[String]) -> String {
    if let [only] = exprs {
        return format!("::serde::Serialize::serialize({only}, __w); ");
    }
    let mut s = String::from("__w.begin_array(); let mut __first = true; ");
    for e in exprs {
        s += &format!("__w.element(&mut __first); ::serde::Serialize::serialize({e}, __w); ");
    }
    s + "let _ = __first; __w.end_array(); "
}

fn gen_serialize(item: &Item) -> String {
    let body = match &item.body {
        Body::Struct(Shape::Unit) => "__w.null(); ".to_string(),
        Body::Struct(Shape::Tuple(n)) => {
            ser_tuple(&(0..*n).map(|i| format!("&self.{i}")).collect::<Vec<_>>())
        }
        Body::Struct(Shape::Named(fields)) => ser_named(fields, |f| format!("&self.{}", f.ident)),
        Body::Enum(variants) if variants.is_empty() => "match *self {} ".to_string(),
        Body::Enum(variants) => {
            let mut arms = String::new();
            for v in variants {
                let (name, tag) = (&item.name, &v.name);
                let open = format!(
                    "__w.begin_object(); let mut __outer = true; __w.key(&mut __outer, {tag:?}); "
                );
                match &v.shape {
                    Shape::Unit => arms += &format!("{name}::{tag} => __w.string({tag:?}), "),
                    Shape::Tuple(n) => {
                        let binds: Vec<String> = (0..*n).map(|i| format!("f{i}")).collect();
                        arms += &format!(
                            "{name}::{tag}({}) => {{ {open}{} __w.end_object(); }} ",
                            binds.join(", "),
                            ser_tuple(&binds)
                        );
                    }
                    Shape::Named(fields) => {
                        let binds: Vec<&str> = fields.iter().map(|f| f.ident.as_str()).collect();
                        arms += &format!(
                            "{name}::{tag} {{ {} }} => {{ {open}{} __w.end_object(); }} ",
                            binds.join(", "),
                            ser_named(fields, |f| f.ident.clone())
                        );
                    }
                }
            }
            format!("match self {{ {arms} }} ")
        }
    };
    format!(
        "#[automatically_derived] impl ::serde::Serialize for {} {{ \
           fn serialize(&self, __w: &mut ::serde::json::Writer) {{ {body} }} }}",
        item.name
    )
}

// ---------------------------------------------------------------------------
// Deserialize
// ---------------------------------------------------------------------------

/// Expression building `path { f: .., .. }` from the object slice `obj`.
fn de_named(path: &str, fields: &[Field]) -> String {
    let mut s = format!("{path} {{ ");
    for f in fields {
        let helper = if f.default {
            "field_or_default"
        } else {
            "field"
        };
        s += &format!(
            "{}: ::serde::json::{helper}(obj, {:?})?, ",
            f.ident,
            f.key()
        );
    }
    s + "}"
}

/// Expression building `path(a, b, ..)` from the value `v`.
fn de_tuple(path: &str, n: usize, what: &str) -> String {
    if n == 1 {
        return format!("{path}(::serde::Deserialize::deserialize(v)?)");
    }
    let elems: Vec<String> = (0..n)
        .map(|i| format!("::serde::Deserialize::deserialize(&arr[{i}])?"))
        .collect();
    format!(
        "{{ let arr = v.as_tuple({n}, {what:?})?; {path}({}) }}",
        elems.join(", ")
    )
}

fn gen_deserialize(item: &Item) -> String {
    let name = &item.name;
    let body = match &item.body {
        Body::Struct(Shape::Unit) => format!("v.as_null({name:?})?; Ok({name})"),
        Body::Struct(Shape::Tuple(n)) => format!("Ok({})", de_tuple(name, *n, name)),
        Body::Struct(Shape::Named(fields)) => format!(
            "let obj = v.as_object({name:?})?; Ok({})",
            de_named(name, fields)
        ),
        Body::Enum(variants) => {
            let mut unit_arms = String::new();
            let mut data_arms = String::new();
            for v in variants {
                let tag = &v.name;
                let path = format!("{name}::{tag}");
                match &v.shape {
                    Shape::Unit => {
                        unit_arms += &format!("{tag:?} => Ok({path}), ");
                        data_arms += &format!("{tag:?} => {{ v.as_null({tag:?})?; Ok({path}) }} ");
                    }
                    Shape::Tuple(n) => {
                        data_arms += &format!("{tag:?} => Ok({}), ", de_tuple(&path, *n, tag));
                    }
                    Shape::Named(fields) => {
                        data_arms += &format!(
                            "{tag:?} => {{ let obj = v.as_object({tag:?})?; Ok({}) }} ",
                            de_named(&path, fields)
                        );
                    }
                }
            }
            format!(
                "match v.as_enum({name:?})? {{ \
                   (tag, None) => match tag {{ {unit_arms} \
                     other => Err(::serde::json::Error::unknown_variant({name:?}, other)), }}, \
                   (tag, Some(v)) => match tag {{ {data_arms} \
                     other => Err(::serde::json::Error::unknown_variant({name:?}, other)), }}, \
                 }}"
            )
        }
    };
    format!(
        "#[automatically_derived] impl ::serde::Deserialize for {name} {{ \
           #[allow(unused_variables)] \
           fn deserialize(v: &::serde::json::Value) -> ::core::result::Result<Self, ::serde::json::Error> {{ {body} }} }}"
    )
}

/// Derives the stand-in `serde::Serialize`.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    finish(parse_item(input).map(|item| gen_serialize(&item)))
}

/// Derives the stand-in `serde::Deserialize`.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    finish(parse_item(input).map(|item| gen_deserialize(&item)))
}
