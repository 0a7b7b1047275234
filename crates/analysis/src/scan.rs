//! Lexical source model: the v2 token engine.
//!
//! A `.rs` file is scanned three ways, all kept on [`SourceFile`]:
//!
//! 1. **Line views** — the raw text (for allowlist comments) and a *code
//!    view* with comments and string/char literals blanked to spaces, so
//!    line-oriented helpers can match words without tripping over doc
//!    prose or string contents. Column positions are preserved:
//!    `code[i]` has the same length as `raw[i]`.
//! 2. **Token stream** — a spanned token list ([`Token`]) over the whole
//!    file: identifiers, multi-character punctuation (`::`, `=>`, `+=`…),
//!    number/string/char literals, lifetimes, raw strings, and comment /
//!    doc-comment regions as their own token kinds. Passes that need
//!    structure (guard scopes, match arms, attribute lookback) work here.
//! 3. **Item tree** — a lightweight structural index ([`ItemTree`]):
//!    functions (with the `&mut self` fact and body token range), enums
//!    with their variants, and impl blocks. `#[cfg(test)]` regions are
//!    tracked per line in `is_test`.
//!
//! This is still a deliberate non-parser: no expressions, no types, no
//! name resolution — and no dependencies, because the lint gate must
//! build anywhere the toolchain does. But the facts it does extract are
//! scope-accurate (brace depth from real tokens, not per-line brace
//! counting), which kills the false-positive classes the line scanner
//! had around multi-line statements and strings containing braces.

use std::fs;
use std::io;
use std::path::Path;

/// What a [`Token`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (`fn`, `self`, `controller`).
    Ident,
    /// Lifetime (`'a`) — distinguished from char literals.
    Lifetime,
    /// Numeric literal (`1.0`, `0x40`, `64_usize`).
    Number,
    /// String literal, including byte and raw strings.
    Str,
    /// Char literal (`'\n'`).
    Char,
    /// Punctuation; multi-char operators are one token (`::`, `=>`).
    Punct,
    /// Plain comment (`// …`, `/* … */`).
    Comment,
    /// Doc comment (`/// …`, `//! …`, `/** … */`).
    DocComment,
}

impl TokenKind {
    /// True for tokens that participate in code structure (everything
    /// except comments).
    pub fn is_code(self) -> bool {
        !matches!(self, TokenKind::Comment | TokenKind::DocComment)
    }
}

/// One spanned token.
#[derive(Debug, Clone)]
pub struct Token {
    /// Kind tag.
    pub kind: TokenKind,
    /// Verbatim text (comments keep their full body).
    pub text: String,
    /// 0-based line of the first byte.
    pub line: usize,
    /// 0-based byte column of the first byte.
    pub col: usize,
}

/// A function item.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Function name.
    pub name: String,
    /// 0-based line of the `fn` keyword.
    pub start: usize,
    /// 0-based line of the body's closing brace (or of the `;` for a
    /// bodiless trait declaration).
    pub end: usize,
    /// Body extent as an inclusive range of *code-token positions*
    /// (indices into [`SourceFile::code_tokens`]), from the opening to
    /// the closing brace. `None` for bodiless declarations.
    pub body: Option<(usize, usize)>,
    /// Takes `&mut self` (possibly with a lifetime).
    pub takes_mut_self: bool,
}

/// An enum definition with its variants.
#[derive(Debug, Clone)]
pub struct EnumItem {
    /// Enum name.
    pub name: String,
    /// 0-based line of the `enum` keyword.
    pub start: usize,
    /// `(variant name, 0-based definition line)` in order.
    pub variants: Vec<(String, usize)>,
}

/// An impl block.
#[derive(Debug, Clone)]
pub struct ImplItem {
    /// The implemented-on type's name (`impl Trait for Type` → `Type`).
    pub type_name: String,
    /// 0-based line of the `impl` keyword.
    pub start: usize,
}

/// The structural index of one file.
#[derive(Debug, Clone, Default)]
pub struct ItemTree {
    /// Every `fn` item, outer before nested.
    pub fns: Vec<FnItem>,
    /// Every enum with its variants.
    pub enums: Vec<EnumItem>,
    /// Every impl block.
    pub impls: Vec<ImplItem>,
}

/// One `Base::Variant` path reference, classified by position.
#[derive(Debug, Clone)]
pub struct PathRef {
    /// The segment after `::` (must start uppercase to be collected).
    pub variant: String,
    /// 0-based line.
    pub line: usize,
    /// True when the reference sits in *pattern* position — a match-arm
    /// pattern, an `if let`/`while let`/`let` pattern, or the pattern
    /// argument of `matches!`. False means expression (construction)
    /// position.
    pub pattern: bool,
    /// True when the line is inside `#[cfg(test)]`.
    pub test: bool,
}

/// A scanned source file.
pub struct SourceFile {
    /// Workspace-relative path with `/` separators (display + scoping).
    pub path: String,
    /// Original lines, verbatim.
    pub raw: Vec<String>,
    /// Lines with comments and string/char literals blanked to spaces.
    pub code: Vec<String>,
    /// `is_test[i]`: line `i` is inside a `#[cfg(test)]` item.
    pub is_test: Vec<bool>,
    /// Full token stream, comments included.
    pub tokens: Vec<Token>,
    /// Indices into `tokens` of the non-comment tokens, in order.
    pub code_tokens: Vec<usize>,
    /// Structural index built from the code tokens.
    pub items: ItemTree,
}

impl SourceFile {
    /// Reads and scans the file at `abs`, recording it under the
    /// workspace-relative `rel` path.
    pub fn load(abs: &Path, rel: &str) -> io::Result<SourceFile> {
        Ok(SourceFile::from_source(rel, &fs::read_to_string(abs)?))
    }

    /// Scans in-memory source (fixture tests use this directly).
    pub fn from_source(rel: &str, source: &str) -> SourceFile {
        let blanked = blank_non_code(source);
        let raw: Vec<String> = source.lines().map(str::to_string).collect();
        let code: Vec<String> = blanked.lines().map(str::to_string).collect();
        debug_assert_eq!(raw.len(), code.len());
        let is_test = mark_test_regions(&code);
        let tokens = tokenize(source);
        let code_tokens: Vec<usize> = tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| t.kind.is_code())
            .map(|(i, _)| i)
            .collect();
        let items = build_items(&tokens, &code_tokens);
        SourceFile {
            path: rel.to_string(),
            raw,
            code,
            is_test,
            tokens,
            code_tokens,
            items,
        }
    }

    /// Number of lines.
    pub fn len(&self) -> usize {
        self.code.len()
    }

    /// True when the file has no lines.
    pub fn is_empty(&self) -> bool {
        self.code.is_empty()
    }

    /// Code lines that are not inside `#[cfg(test)]`, with 0-based index.
    pub fn non_test_lines(&self) -> impl Iterator<Item = (usize, &str)> {
        self.code
            .iter()
            .enumerate()
            .filter(|(i, _)| !self.is_test[*i])
            .map(|(i, l)| (i, l.as_str()))
    }

    /// The code token at code-token position `k` (panics on bad `k`;
    /// positions come from this file's own item tree).
    pub fn ct(&self, k: usize) -> &Token {
        &self.tokens[self.code_tokens[k]]
    }

    /// Number of code tokens.
    pub fn ct_len(&self) -> usize {
        self.code_tokens.len()
    }

    /// All `base::Variant` references (uppercase-initial segment after a
    /// `::` following `base`), classified as pattern vs expression
    /// position. Comment and string mentions never appear here — they
    /// are not code tokens.
    pub fn path_refs(&self, base: &str) -> Vec<PathRef> {
        path_refs_impl(self, base)
    }
}

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

/// Multi-char operators, longest first within each arity.
const PUNCTS3: &[&str] = &["<<=", ">>=", "..=", "..."];
const PUNCTS2: &[&str] = &[
    "::", "->", "=>", "==", "!=", "<=", ">=", "&&", "||", "+=", "-=", "*=", "/=", "%=", "&=", "|=",
    "^=", "<<", ">>", "..",
];

/// Lexes `source` into a spanned token stream. Never fails: bytes that
/// fit no rule become single-char punct tokens, so the stream always
/// covers the file.
pub fn tokenize(source: &str) -> Vec<Token> {
    let b = source.as_bytes();
    let mut toks = Vec::new();
    let (mut line, mut col) = (0usize, 0usize);
    let mut i = 0usize;
    while i < b.len() {
        let c = b[i];
        if c == b'\n' {
            line += 1;
            col = 0;
            i += 1;
            continue;
        }
        if c.is_ascii_whitespace() {
            col += 1;
            i += 1;
            continue;
        }
        let (tline, tcol) = (line, col);
        // Line comment (`///`/`//!` are doc comments).
        if c == b'/' && b.get(i + 1) == Some(&b'/') {
            let s = i;
            while i < b.len() && b[i] != b'\n' {
                i += 1;
                col += 1;
            }
            let text = &source[s..i];
            let kind = if text.starts_with("///") || text.starts_with("//!") {
                TokenKind::DocComment
            } else {
                TokenKind::Comment
            };
            toks.push(token(kind, text, tline, tcol));
            continue;
        }
        // Block comment, nested (`/** */`, `/*! */` are doc comments).
        if c == b'/' && b.get(i + 1) == Some(&b'*') {
            let s = i;
            let doc = (b.get(i + 2) == Some(&b'*') && b.get(i + 3) != Some(&b'/'))
                || b.get(i + 2) == Some(&b'!');
            let mut depth = 0usize;
            while i < b.len() {
                if b[i] == b'/' && b.get(i + 1) == Some(&b'*') {
                    depth += 1;
                    i += 2;
                    col += 2;
                } else if b[i] == b'*' && b.get(i + 1) == Some(&b'/') {
                    depth -= 1;
                    i += 2;
                    col += 2;
                    if depth == 0 {
                        break;
                    }
                } else if b[i] == b'\n' {
                    i += 1;
                    line += 1;
                    col = 0;
                } else {
                    i += 1;
                    col += 1;
                }
            }
            let kind = if doc {
                TokenKind::DocComment
            } else {
                TokenKind::Comment
            };
            toks.push(token(kind, &source[s..i], tline, tcol));
            continue;
        }
        // Raw (and byte-raw) string literal.
        if let Some(len) = raw_string_len(b, i) {
            let s = i;
            for _ in 0..len {
                if b[i] == b'\n' {
                    line += 1;
                    col = 0;
                } else {
                    col += 1;
                }
                i += 1;
            }
            toks.push(token(TokenKind::Str, &source[s..i], tline, tcol));
            continue;
        }
        // Plain or byte string literal.
        if c == b'"' || (c == b'b' && b.get(i + 1) == Some(&b'"') && !prev_is_ident(b, i)) {
            let s = i;
            if c == b'b' {
                i += 1;
                col += 1;
            }
            i += 1;
            col += 1;
            while i < b.len() {
                if b[i] == b'\\' && i + 1 < b.len() {
                    if b[i + 1] == b'\n' {
                        i += 2;
                        line += 1;
                        col = 0;
                    } else {
                        i += 2;
                        col += 2;
                    }
                } else if b[i] == b'"' {
                    i += 1;
                    col += 1;
                    break;
                } else if b[i] == b'\n' {
                    i += 1;
                    line += 1;
                    col = 0;
                } else {
                    i += 1;
                    col += 1;
                }
            }
            toks.push(token(TokenKind::Str, &source[s..i], tline, tcol));
            continue;
        }
        // Char literal vs lifetime.
        if c == b'\'' && !prev_is_ident(b, i) {
            let is_char = match b.get(i + 1) {
                Some(b'\\') => true,
                Some(_) => b.get(i + 2) == Some(&b'\''),
                None => false,
            };
            let s = i;
            if is_char {
                i += 1;
                col += 1;
                while i < b.len() {
                    if b[i] == b'\\' && i + 1 < b.len() {
                        i += 2;
                        col += 2;
                    } else if b[i] == b'\'' {
                        i += 1;
                        col += 1;
                        break;
                    } else {
                        i += 1;
                        col += 1;
                    }
                }
                toks.push(token(TokenKind::Char, &source[s..i], tline, tcol));
            } else {
                i += 1;
                col += 1;
                while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                    i += 1;
                    col += 1;
                }
                toks.push(token(TokenKind::Lifetime, &source[s..i], tline, tcol));
            }
            continue;
        }
        // Number literal. A `.` joins only when it is not a range (`..`)
        // and not a method call (`1.max(2)`); `1e-3` exponents join.
        if c.is_ascii_digit() {
            let s = i;
            i += 1;
            col += 1;
            while i < b.len() {
                let d = b[i];
                let joins = d.is_ascii_alphanumeric()
                    || d == b'_'
                    || (d == b'.'
                        && b.get(i + 1) != Some(&b'.')
                        && !b
                            .get(i + 1)
                            .map(|n| n.is_ascii_alphabetic() || *n == b'_')
                            .unwrap_or(false))
                    || ((d == b'+' || d == b'-')
                        && matches!(b[i - 1], b'e' | b'E')
                        && !source[s..i].starts_with("0x")
                        && b.get(i + 1).map(|n| n.is_ascii_digit()).unwrap_or(false));
                if joins {
                    i += 1;
                    col += 1;
                } else {
                    break;
                }
            }
            toks.push(token(TokenKind::Number, &source[s..i], tline, tcol));
            continue;
        }
        // Identifier / keyword (including `r#ident` raw identifiers).
        if c.is_ascii_alphabetic() || c == b'_' {
            let s = i;
            while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                i += 1;
                col += 1;
            }
            toks.push(token(TokenKind::Ident, &source[s..i], tline, tcol));
            continue;
        }
        // Punctuation: longest multi-char operator wins.
        let rest = &source[i..];
        let mc = PUNCTS3
            .iter()
            .chain(PUNCTS2.iter())
            .find(|p| rest.starts_with(**p));
        if let Some(p) = mc {
            toks.push(token(TokenKind::Punct, p, tline, tcol));
            i += p.len();
            col += p.len();
            continue;
        }
        // Single char; consume a whole UTF-8 scalar to stay on char
        // boundaries (non-ASCII outside comments/strings is rare but legal).
        let w = rest.chars().next().map(char::len_utf8).unwrap_or(1);
        toks.push(token(TokenKind::Punct, &source[i..i + w], tline, tcol));
        i += w;
        col += w;
    }
    toks
}

fn token(kind: TokenKind, text: &str, line: usize, col: usize) -> Token {
    Token {
        kind,
        text: text.to_string(),
        line,
        col,
    }
}

// ---------------------------------------------------------------------------
// Item tree
// ---------------------------------------------------------------------------

/// Builds the structural index from the token stream. `ct` holds the
/// indices of non-comment tokens.
fn build_items(tokens: &[Token], ct: &[usize]) -> ItemTree {
    let t = |k: usize| -> &Token { &tokens[ct[k]] };
    let n = ct.len();
    let mut items = ItemTree::default();
    let mut k = 0usize;
    while k < n {
        let tok = t(k);
        if tok.kind != TokenKind::Ident {
            k += 1;
            continue;
        }
        match tok.text.as_str() {
            "fn" => {
                if let Some(f) = parse_fn(tokens, ct, k) {
                    items.fns.push(f);
                }
            }
            "enum" => {
                if let Some(e) = parse_enum(tokens, ct, k) {
                    items.enums.push(e);
                }
            }
            "impl" => {
                if let Some(im) = parse_impl(tokens, ct, k) {
                    items.impls.push(im);
                }
            }
            _ => {}
        }
        k += 1;
    }
    items
}

/// Position of the `}` matching the `{` at code-token position `open`.
fn ct_matching_brace(tokens: &[Token], ct: &[usize], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (off, idx) in ct[open..].iter().enumerate() {
        match tokens[*idx].text.as_str() {
            "{" => depth += 1,
            "}" => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return Some(open + off);
                }
            }
            _ => {}
        }
    }
    None
}

/// Parses the `fn` item whose keyword sits at code-token position `k`.
fn parse_fn(tokens: &[Token], ct: &[usize], k: usize) -> Option<FnItem> {
    let t = |p: usize| -> &Token { &tokens[ct[p]] };
    let n = ct.len();
    // `fn(` is a function-pointer type, not an item.
    if k + 1 >= n || t(k + 1).kind != TokenKind::Ident {
        return None;
    }
    let name_tok = t(k + 1);
    let name = name_tok.text.clone();
    // Scan to the body `{` (paren/bracket depth 0) or a `;` (no body).
    let mut pd = 0usize;
    let mut bd = 0usize;
    let mut body_open: Option<usize> = None;
    let mut end_line = name_tok.line;
    let mut p = k;
    while p < n {
        let tok = t(p);
        match tok.text.as_str() {
            "(" => pd += 1,
            ")" => pd = pd.saturating_sub(1),
            "[" => bd += 1,
            "]" => bd = bd.saturating_sub(1),
            "{" if pd == 0 && bd == 0 => {
                body_open = Some(p);
                break;
            }
            ";" if pd == 0 && bd == 0 => {
                end_line = tok.line;
                break;
            }
            _ => {}
        }
        p += 1;
    }
    let body = body_open.and_then(|open| {
        ct_matching_brace(tokens, ct, open).map(|close| {
            end_line = t(close).line;
            (open, close)
        })
    });
    let takes_mut_self = header_takes_mut_self(tokens, ct, k, body_open.unwrap_or(p));
    Some(FnItem {
        name,
        start: t(k).line,
        end: end_line,
        body,
        takes_mut_self,
    })
}

/// True when the header tokens between `fn` and the body contain the
/// receiver `&mut self` (optionally with a lifetime between `&` and
/// `mut`).
fn header_takes_mut_self(tokens: &[Token], ct: &[usize], k_fn: usize, k_end: usize) -> bool {
    let t = |p: usize| -> &Token { &tokens[ct[p]] };
    let hi = k_end.min(ct.len());
    for p in k_fn..hi {
        if t(p).text != "&" {
            continue;
        }
        let mut q = p + 1;
        if q < hi && t(q).kind == TokenKind::Lifetime {
            q += 1;
        }
        if q + 1 < hi && t(q).text == "mut" && t(q + 1).text == "self" {
            return true;
        }
    }
    false
}

/// Parses the enum at code-token position `k`, extracting variant names
/// and their lines.
fn parse_enum(tokens: &[Token], ct: &[usize], k: usize) -> Option<EnumItem> {
    let t = |p: usize| -> &Token { &tokens[ct[p]] };
    let n = ct.len();
    if k + 1 >= n || t(k + 1).kind != TokenKind::Ident {
        return None;
    }
    let name = t(k + 1).text.clone();
    let open = (k + 1..n).find(|&p| t(p).text == "{")?;
    let close = ct_matching_brace(tokens, ct, open)?;
    let mut variants = Vec::new();
    let mut p = open + 1;
    while p < close {
        // Skip attribute groups on the variant.
        if t(p).text == "#" && p + 1 < close && t(p + 1).text == "[" {
            let mut depth = 0usize;
            while p < close {
                match t(p).text.as_str() {
                    "[" => depth += 1,
                    "]" => {
                        depth -= 1;
                        if depth == 0 {
                            p += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                p += 1;
            }
            continue;
        }
        if t(p).kind == TokenKind::Ident {
            variants.push((t(p).text.clone(), t(p).line));
            // Skip to the `,` terminating this variant (depth 0 relative
            // to the enum body) or the enum's closing brace.
            let mut depth = 0usize;
            while p < close {
                match t(p).text.as_str() {
                    "{" | "(" | "[" => depth += 1,
                    "}" | ")" | "]" => depth = depth.saturating_sub(1),
                    "," if depth == 0 => {
                        break;
                    }
                    _ => {}
                }
                p += 1;
            }
        }
        p += 1;
    }
    Some(EnumItem {
        name,
        start: t(k).line,
        variants,
    })
}

/// Parses the impl block at code-token position `k`, naming the type it
/// implements on.
fn parse_impl(tokens: &[Token], ct: &[usize], k: usize) -> Option<ImplItem> {
    let t = |p: usize| -> &Token { &tokens[ct[p]] };
    let n = ct.len();
    let mut p = k + 1;
    // Skip the generic parameter list, honoring `>>` closing two levels.
    if p < n && t(p).text == "<" {
        let mut depth = 0isize;
        while p < n {
            match t(p).text.as_str() {
                "<" => depth += 1,
                ">" => depth -= 1,
                ">>" => depth -= 2,
                _ => {}
            }
            p += 1;
            if depth <= 0 {
                break;
            }
        }
    }
    let open = (p..n).find(|&q| {
        let tok = t(q);
        tok.text == "{" || tok.text == ";"
    })?;
    if t(open).text == ";" {
        return None; // `impl Trait for Type;` does not exist; bail safely.
    }
    // The type is after `for` when present, else right after the generics.
    let type_start = (p..open)
        .find(|&q| t(q).text == "for")
        .map(|f| f + 1)
        .unwrap_or(p);
    let mut type_name = None;
    for q in type_start..open {
        let tok = t(q);
        if tok.kind == TokenKind::Ident && !matches!(tok.text.as_str(), "dyn" | "mut" | "const") {
            // Skip path prefixes (`fmt::Display` → `Display`).
            if q + 1 < open && t(q + 1).text == "::" {
                continue;
            }
            type_name = Some(tok.text.clone());
            break;
        }
    }
    Some(ImplItem {
        type_name: type_name?,
        start: t(k).line,
    })
}

// ---------------------------------------------------------------------------
// Pattern-position classification (match arms, let patterns, matches!)
// ---------------------------------------------------------------------------

/// Implements [`SourceFile::path_refs`]: one forward walk over the code
/// tokens tracking, at every position, whether it lies in a match-arm
/// pattern (before the arm's `=>`), a `let`/`if let`/`while let`
/// pattern (before the `=`), or the pattern argument of `matches!`.
fn path_refs_impl(file: &SourceFile, base: &str) -> Vec<PathRef> {
    struct MatchCtx {
        body_depth: usize,
        in_pattern: bool,
    }
    let n = file.ct_len();
    // Pre-compute which `{` positions open a `match` body: the first `{`
    // after the `match` keyword at paren/bracket depth 0.
    let mut match_opens = vec![false; n];
    for k in 0..n {
        let tok = file.ct(k);
        if tok.kind != TokenKind::Ident || tok.text != "match" {
            continue;
        }
        // `.match(…)` method or a path segment cannot follow `.`/`::`.
        if k > 0 && matches!(file.ct(k - 1).text.as_str(), "." | "::") {
            continue;
        }
        let mut pd = 0usize;
        for (p, open) in match_opens.iter_mut().enumerate().skip(k + 1) {
            match file.ct(p).text.as_str() {
                "(" | "[" => pd += 1,
                ")" | "]" => pd = pd.saturating_sub(1),
                "{" if pd == 0 => {
                    *open = true;
                    break;
                }
                ";" if pd == 0 => break,
                _ => {}
            }
        }
    }

    let mut refs = Vec::new();
    let mut depth = 0usize;
    let mut pdepth = 0usize;
    let mut matches_stack: Vec<MatchCtx> = Vec::new();
    // `let` pattern: Some((brace depth, paren depth)) while active.
    let mut let_pat: Option<(usize, usize)> = None;
    // `matches!(expr, PATTERN)` contexts: (paren depth of the group, armed).
    let mut macro_stack: Vec<(usize, bool)> = Vec::new();

    let mut k = 0usize;
    while k < n {
        let tok = file.ct(k);
        match (tok.kind, tok.text.as_str()) {
            (TokenKind::Punct, "{") => {
                depth += 1;
                if match_opens[k] {
                    matches_stack.push(MatchCtx {
                        body_depth: depth,
                        in_pattern: true,
                    });
                }
            }
            (TokenKind::Punct, "}") => {
                if let Some(top) = matches_stack.last() {
                    if depth == top.body_depth {
                        matches_stack.pop();
                    }
                }
                depth = depth.saturating_sub(1);
                if let Some(top) = matches_stack.last_mut() {
                    if depth == top.body_depth {
                        top.in_pattern = true;
                    }
                }
            }
            (TokenKind::Punct, "(") => pdepth += 1,
            (TokenKind::Punct, ")") => {
                pdepth = pdepth.saturating_sub(1);
                if let Some(&(pd_open, _)) = macro_stack.last() {
                    if pdepth < pd_open {
                        macro_stack.pop();
                    }
                }
            }
            (TokenKind::Punct, "=>") => {
                if let Some(top) = matches_stack.last_mut() {
                    if depth == top.body_depth && pdepth == 0 {
                        top.in_pattern = false;
                    }
                }
            }
            (TokenKind::Punct, ",") => {
                if let Some(top) = matches_stack.last_mut() {
                    if depth == top.body_depth && pdepth == 0 {
                        top.in_pattern = true;
                    }
                }
                if let Some((pd_open, armed)) = macro_stack.last_mut() {
                    if pdepth == *pd_open {
                        *armed = true;
                    }
                }
            }
            (TokenKind::Ident, "let") => {
                let_pat = Some((depth, pdepth));
            }
            (TokenKind::Punct, "=" | ":" | ";") => {
                if let Some((bd, pd)) = let_pat {
                    if depth == bd && pdepth == pd {
                        let_pat = None;
                    }
                }
            }
            (TokenKind::Ident, "matches")
                if k + 2 < n && file.ct(k + 1).text == "!" && file.ct(k + 2).text == "(" =>
            {
                macro_stack.push((pdepth + 1, false));
            }
            (TokenKind::Ident, name)
                if name == base
                    && k + 2 < n
                    && file.ct(k + 1).text == "::"
                    && file.ct(k + 2).kind == TokenKind::Ident =>
            {
                let seg = &file.ct(k + 2).text;
                if seg.chars().next().map(char::is_uppercase).unwrap_or(false) {
                    let pattern = matches_stack.last().map(|m| m.in_pattern).unwrap_or(false)
                        || let_pat.is_some()
                        || macro_stack.last().map(|&(_, armed)| armed).unwrap_or(false);
                    let line = tok.line;
                    refs.push(PathRef {
                        variant: seg.clone(),
                        line,
                        pattern,
                        test: file.is_test.get(line).copied().unwrap_or(false),
                    });
                }
            }
            _ => {}
        }
        k += 1;
    }
    refs
}

// ---------------------------------------------------------------------------
// Line views (code blanking, cfg(test) regions)
// ---------------------------------------------------------------------------

/// Replaces comments and string/char literal contents with spaces,
/// preserving line structure and column positions.
fn blank_non_code(source: &str) -> String {
    let b = source.as_bytes();
    let mut out = Vec::with_capacity(b.len());
    let mut i = 0;
    while i < b.len() {
        let c = b[i];
        // Line comment.
        if c == b'/' && b.get(i + 1) == Some(&b'/') {
            while i < b.len() && b[i] != b'\n' {
                out.push(b' ');
                i += 1;
            }
            continue;
        }
        // Block comment (nested).
        if c == b'/' && b.get(i + 1) == Some(&b'*') {
            let mut depth = 0usize;
            while i < b.len() {
                if b[i] == b'/' && b.get(i + 1) == Some(&b'*') {
                    depth += 1;
                    out.extend_from_slice(b"  ");
                    i += 2;
                } else if b[i] == b'*' && b.get(i + 1) == Some(&b'/') {
                    depth -= 1;
                    out.extend_from_slice(b"  ");
                    i += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    out.push(if b[i] == b'\n' { b'\n' } else { b' ' });
                    i += 1;
                }
            }
            continue;
        }
        // Raw (and byte-raw) string literal: r"..." / r#"..."# / br#"..."#.
        if let Some(skip) = raw_string_len(b, i) {
            for k in 0..skip {
                out.push(if b[i + k] == b'\n' { b'\n' } else { b' ' });
            }
            i += skip;
            continue;
        }
        // Plain or byte string literal.
        if c == b'"' || (c == b'b' && b.get(i + 1) == Some(&b'"') && !prev_is_ident(b, i)) {
            if c == b'b' {
                out.push(b' ');
                i += 1;
            }
            out.push(b' '); // opening quote
            i += 1;
            while i < b.len() {
                if b[i] == b'\\' && i + 1 < b.len() {
                    // An escaped newline (string continuation) must keep
                    // the line structure intact.
                    out.push(b' ');
                    out.push(if b[i + 1] == b'\n' { b'\n' } else { b' ' });
                    i += 2;
                } else if b[i] == b'"' {
                    out.push(b' ');
                    i += 1;
                    break;
                } else {
                    out.push(if b[i] == b'\n' { b'\n' } else { b' ' });
                    i += 1;
                }
            }
            continue;
        }
        // Char literal vs lifetime: 'x' or '\n' is a literal; 'a (no
        // closing quote right after) is a lifetime and stays as code.
        if c == b'\'' && !prev_is_ident(b, i) {
            let is_char = match b.get(i + 1) {
                Some(b'\\') => true,
                Some(_) => b.get(i + 2) == Some(&b'\''),
                None => false,
            };
            if is_char {
                out.push(b' ');
                i += 1;
                while i < b.len() {
                    if b[i] == b'\\' && i + 1 < b.len() {
                        out.extend_from_slice(b"  ");
                        i += 2;
                    } else if b[i] == b'\'' {
                        out.push(b' ');
                        i += 1;
                        break;
                    } else {
                        out.push(b' ');
                        i += 1;
                    }
                }
                continue;
            }
        }
        out.push(c);
        i += 1;
    }
    // The scanner only ever sees ASCII-relevant tokens; non-ASCII bytes
    // pass through untouched, so this round-trips valid UTF-8.
    String::from_utf8_lossy(&out).into_owned()
}

/// If a raw string literal starts at `i`, returns its total byte length.
fn raw_string_len(b: &[u8], i: usize) -> Option<usize> {
    let mut j = i;
    if b.get(j) == Some(&b'b') {
        j += 1;
    }
    if b.get(j) != Some(&b'r') || prev_is_ident(b, i) {
        return None;
    }
    j += 1;
    let mut hashes = 0usize;
    while b.get(j) == Some(&b'#') {
        hashes += 1;
        j += 1;
    }
    if b.get(j) != Some(&b'"') {
        return None;
    }
    j += 1;
    // Find closing `"` followed by `hashes` hash marks.
    while j < b.len() {
        if b[j] == b'"'
            && b[j + 1..].len() >= hashes
            && b[j + 1..j + 1 + hashes].iter().all(|&h| h == b'#')
        {
            return Some(j + 1 + hashes - i);
        }
        j += 1;
    }
    Some(b.len() - i)
}

/// True when the byte before `i` continues an identifier (so `r`/`b`
/// here is the tail of a name, not a literal prefix).
fn prev_is_ident(b: &[u8], i: usize) -> bool {
    i > 0 && (b[i - 1].is_ascii_alphanumeric() || b[i - 1] == b'_')
}

/// Marks every line belonging to a `#[cfg(test)]` item (attribute line
/// through the matching close brace, or the terminating `;` for
/// braceless items).
fn mark_test_regions(code: &[String]) -> Vec<bool> {
    let mut is_test = vec![false; code.len()];
    let mut line = 0;
    while line < code.len() {
        if let Some(col) = code[line].find("#[cfg(test)]") {
            let end = item_end(code, line, col);
            for t in is_test.iter_mut().take(end + 1).skip(line) {
                *t = true;
            }
            line = end + 1;
        } else {
            line += 1;
        }
    }
    is_test
}

/// Finds the last line of the item starting at (`line`, `col`): scans
/// forward for either a `;` at brace depth 0 (braceless item) or the
/// close of the first `{`.
fn item_end(code: &[String], line: usize, col: usize) -> usize {
    let mut depth = 0usize;
    let mut seen_brace = false;
    let mut l = line;
    let mut c = col;
    while l < code.len() {
        let bytes = code[l].as_bytes();
        while c < bytes.len() {
            match bytes[c] {
                b'{' => {
                    depth += 1;
                    seen_brace = true;
                }
                b'}' => {
                    depth = depth.saturating_sub(1);
                    if seen_brace && depth == 0 {
                        return l;
                    }
                }
                b';' if !seen_brace => {
                    // Skip the attribute's own `]` line; a `;` before any
                    // brace ends a braceless item like `#[cfg(test)] use x;`.
                    return l;
                }
                _ => {}
            }
            c += 1;
        }
        l += 1;
        c = 0;
    }
    code.len() - 1
}

/// True when `token` appears in `line` as a whole word (not as a
/// fragment of a longer identifier).
pub fn has_word(line: &str, token: &str) -> bool {
    let b = line.as_bytes();
    let mut from = 0;
    while let Some(pos) = line[from..].find(token) {
        let i = from + pos;
        let j = i + token.len();
        let before_ok = i == 0 || !(b[i - 1].is_ascii_alphanumeric() || b[i - 1] == b'_');
        let after_ok = j >= b.len() || !(b[j].is_ascii_alphanumeric() || b[j] == b'_');
        if before_ok && after_ok {
            return true;
        }
        from = j;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blanks_comments_and_strings() {
        let f = SourceFile::from_source(
            "t.rs",
            "let x = \"a.unwrap()\"; // .expect(\nlet y = 1; /* panic! */ let z = 2;\n",
        );
        assert!(!f.code[0].contains("unwrap"));
        assert!(!f.code[0].contains("expect"));
        assert!(f.code[0].contains("let x ="));
        assert!(!f.code[1].contains("panic"));
        assert!(f.code[1].contains("let z = 2;"));
        assert_eq!(f.code[0].len(), f.raw[0].len());
    }

    #[test]
    fn raw_strings_and_chars_blank_lifetimes_survive() {
        let f = SourceFile::from_source(
            "t.rs",
            "let s = r#\"no .unwrap() here\"#;\nlet c = '\\n'; fn f<'a>(x: &'a str) {}\n",
        );
        assert!(!f.code[0].contains("unwrap"));
        assert!(f.code[1].contains("'a"));
        // The token stream agrees: the raw string is one Str token, the
        // lifetime is a Lifetime token, the char literal a Char token.
        assert!(f
            .tokens
            .iter()
            .any(|t| t.kind == TokenKind::Str && t.text.starts_with("r#")));
        assert!(f
            .tokens
            .iter()
            .any(|t| t.kind == TokenKind::Lifetime && t.text == "'a"));
        assert!(f
            .tokens
            .iter()
            .any(|t| t.kind == TokenKind::Char && t.text == "'\\n'"));
    }

    #[test]
    fn cfg_test_regions_marked() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn after() {}\n";
        let f = SourceFile::from_source("t.rs", src);
        assert_eq!(f.is_test, vec![false, true, true, true, true, false]);
    }

    #[test]
    fn fn_items_cover_bodies() {
        let src = "fn a() {\n    inner();\n}\n\nfn b(x: u8) -> u8 {\n    x\n}\n";
        let f = SourceFile::from_source("t.rs", src);
        let spans = &f.items.fns;
        assert_eq!(spans.len(), 2);
        assert_eq!(
            (spans[0].name.as_str(), spans[0].start, spans[0].end),
            ("a", 0, 2)
        );
        assert_eq!(
            (spans[1].name.as_str(), spans[1].start, spans[1].end),
            ("b", 4, 6)
        );
    }

    #[test]
    fn word_matching_is_bounded() {
        assert!(has_word("let weights = x;", "weights"));
        assert!(!has_word("let raw_weights = x;", "weights"));
        assert!(!has_word("weightsum", "weights"));
    }

    #[test]
    fn lexer_spans_and_multichar_puncts() {
        let toks = tokenize("a += b::c;\nx => y..=z\n");
        let texts: Vec<(&str, usize)> = toks.iter().map(|t| (t.text.as_str(), t.line)).collect();
        assert_eq!(
            texts,
            vec![
                ("a", 0),
                ("+=", 0),
                ("b", 0),
                ("::", 0),
                ("c", 0),
                (";", 0),
                ("x", 1),
                ("=>", 1),
                ("y", 1),
                ("..=", 1),
                ("z", 1),
            ]
        );
        assert_eq!(toks[1].col, 2);
    }

    #[test]
    fn lexer_numbers_and_doc_comments() {
        let toks = tokenize("/// doc\n// plain\nlet x = 1.0 / 2; let r = 0..n; let e = 1e-3;\n");
        assert_eq!(toks[0].kind, TokenKind::DocComment);
        assert_eq!(toks[1].kind, TokenKind::Comment);
        let nums: Vec<&str> = toks
            .iter()
            .filter(|t| t.kind == TokenKind::Number)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(nums, vec!["1.0", "2", "0", "1e-3"]);
        assert!(toks.iter().any(|t| t.text == ".."));
    }

    #[test]
    fn item_tree_fn_facts() {
        let src = "\
#[inline]\n\
pub(crate) fn k(&mut self, v: &[f32]) {\n\
    body();\n\
}\n\
fn plain(x: u8) -> u8 { x }\n\
fn decl(x: u8) -> u8;\n";
        let f = SourceFile::from_source("t.rs", src);
        assert_eq!(f.items.fns.len(), 3);
        let k = &f.items.fns[0];
        assert_eq!(k.name, "k");
        assert!(k.takes_mut_self);
        assert_eq!((k.start, k.end), (1, 3));
        let plain = &f.items.fns[1];
        assert!(!plain.takes_mut_self);
        assert!(plain.body.is_some());
        assert!(f.items.fns[2].body.is_none());
    }

    #[test]
    fn item_tree_enum_and_impl() {
        let src = "\
mod inner {\n\
    pub enum Ev {\n\
        A,\n\
        B { n: usize },\n\
        C(u8),\n\
    }\n\
}\n\
impl fmt::Display for Ev {\n\
    fn fmt(&self) {}\n\
}\n";
        let f = SourceFile::from_source("t.rs", src);
        assert_eq!(f.items.enums.len(), 1);
        let vars: Vec<&str> = f.items.enums[0]
            .variants
            .iter()
            .map(|(n, _)| n.as_str())
            .collect();
        assert_eq!(vars, vec!["A", "B", "C"]);
        assert_eq!(f.items.impls.len(), 1);
        assert_eq!(f.items.impls[0].type_name, "Ev");
    }

    #[test]
    fn path_refs_classify_pattern_vs_expression() {
        let src = "\
fn emit(sink: &S) {\n\
    sink.record(Ev::Made { n: 1 });\n\
}\n\
fn check(e: &Ev) -> bool {\n\
    match e {\n\
        Ev::Made { n, .. } => *n > 0,\n\
        Ev::Other(_) if true => false,\n\
        _ => matches!(e, Ev::Third { .. }),\n\
    }\n\
}\n\
fn take(e: Ev) {\n\
    if let Ev::Made { n, .. } = e {\n\
        let _ = n;\n\
    }\n\
}\n\
/// Doc prose about [`Ev::Ignored`].\n\
fn doc_mention() {}\n";
        let f = SourceFile::from_source("t.rs", src);
        let refs = f.path_refs("Ev");
        let by = |v: &str| -> Vec<bool> {
            refs.iter()
                .filter(|r| r.variant == v)
                .map(|r| r.pattern)
                .collect()
        };
        assert_eq!(by("Made"), vec![false, true, true]); // emit, match arm, if-let
        assert_eq!(by("Other"), vec![true]);
        assert_eq!(by("Third"), vec![true]); // matches! pattern arg
        assert!(by("Ignored").is_empty(), "doc comments are not code");
    }

    #[test]
    fn path_refs_expression_after_arrow_is_not_pattern() {
        let src = "\
fn rewrite(e: Ev) -> Ev {\n\
    match e {\n\
        Ev::A => Ev::B,\n\
        other => other,\n\
    }\n\
}\n";
        let f = SourceFile::from_source("t.rs", src);
        let refs = f.path_refs("Ev");
        assert_eq!(refs.len(), 2);
        assert!(refs[0].pattern, "arm pattern");
        assert!(!refs[1].pattern, "arm body is expression position");
    }
}
