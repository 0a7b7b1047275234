//! The one data format of this stand-in: a JSON writer, a parsed tree, a
//! recursive-descent parser, and the helpers the derive macros call.

use std::fmt;

use crate::Deserialize;

/// Nesting beyond this is refused while parsing, so hostile input cannot
/// overflow the stack (the published parser's limit).
const MAX_DEPTH: usize = 128;

/// A serialization or deserialization failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(String);

impl Error {
    /// An error with a free-form message.
    pub fn custom(msg: impl fmt::Display) -> Self {
        Error(msg.to_string())
    }

    /// A struct field was absent.
    pub fn missing_field(field: &str) -> Self {
        Error(format!("missing field `{field}`"))
    }

    /// An enum tag named no variant.
    pub fn unknown_variant(ty: &str, tag: &str) -> Self {
        Error(format!("unknown variant `{tag}` of enum {ty}"))
    }

    /// A value had the wrong JSON type.
    pub fn invalid_type(found: &Value, expected: &str) -> Self {
        Error(format!(
            "invalid type: {}, expected {expected}",
            found.kind()
        ))
    }

    fn syntax(msg: &str, at: usize) -> Self {
        Error(format!("{msg} at byte {at}"))
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

/// A JSON number, kept in the narrowest of three representations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Number {
    /// A non-negative integer.
    U(u64),
    /// A negative integer.
    I(i64),
    /// Anything with a fraction or exponent, or too large for 64 bits.
    F(f64),
}

impl Number {
    /// The number as `f64` (integers beyond 2⁵³ round).
    pub fn as_f64(self) -> f64 {
        match self {
            Number::U(u) => u as f64,
            Number::I(i) => i as f64,
            Number::F(f) => f,
        }
    }
}

/// A parsed JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number.
    Number(Number),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, in document order (a later duplicate key wins on lookup).
    Object(Vec<(String, Value)>),
}

impl Value {
    fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "a boolean",
            Value::Number(Number::F(_)) => "a floating point number",
            Value::Number(_) => "an integer",
            Value::String(_) => "a string",
            Value::Array(_) => "a sequence",
            Value::Object(_) => "a map",
        }
    }

    /// The entries of an object.
    ///
    /// # Errors
    /// Fails if this is not an object; `what` names the expected type.
    pub fn as_object(&self, what: &str) -> Result<&[(String, Value)], Error> {
        match self {
            Value::Object(entries) => Ok(entries),
            other => Err(Error::invalid_type(other, &format!("struct {what}"))),
        }
    }

    /// The elements of an array.
    ///
    /// # Errors
    /// Fails if this is not an array.
    pub fn as_array(&self) -> Result<&[Value], Error> {
        match self {
            Value::Array(elems) => Ok(elems),
            other => Err(Error::invalid_type(other, "a sequence")),
        }
    }

    /// The elements of an array of exactly `n` elements.
    ///
    /// # Errors
    /// Fails on a non-array or a different length.
    pub fn as_tuple(&self, n: usize, what: &str) -> Result<&[Value], Error> {
        let elems = self.as_array()?;
        if elems.len() == n {
            Ok(elems)
        } else {
            Err(Error(format!(
                "invalid length {}, expected {what} with {n} elements",
                elems.len()
            )))
        }
    }

    /// Accepts only `null` (unit structs and unit variants written as maps).
    ///
    /// # Errors
    /// Fails on anything else.
    pub fn as_null(&self, what: &str) -> Result<(), Error> {
        match self {
            Value::Null => Ok(()),
            other => Err(Error::invalid_type(other, &format!("unit {what}"))),
        }
    }

    /// Splits an externally tagged enum: `"Tag"` gives `(tag, None)`,
    /// `{"Tag": content}` gives `(tag, Some(content))`.
    ///
    /// # Errors
    /// Fails on any other shape.
    pub fn as_enum(&self, what: &str) -> Result<(&str, Option<&Value>), Error> {
        match self {
            Value::String(tag) => Ok((tag, None)),
            Value::Object(entries) if entries.len() == 1 => {
                Ok((&entries[0].0, Some(&entries[0].1)))
            }
            other => Err(Error::invalid_type(
                other,
                &format!("enum {what} as a string or a single-key map"),
            )),
        }
    }
}

fn lookup<'a>(obj: &'a [(String, Value)], name: &str) -> Option<&'a Value> {
    obj.iter().rev().find(|(k, _)| k == name).map(|(_, v)| v)
}

/// Reads struct field `name` from `obj`; an absent field goes to
/// [`Deserialize::missing`]. Unknown keys in `obj` are ignored.
///
/// # Errors
/// Propagates the field's own failure, prefixed with its name.
pub fn field<T: Deserialize>(obj: &[(String, Value)], name: &'static str) -> Result<T, Error> {
    match lookup(obj, name) {
        Some(v) => T::deserialize(v).map_err(|e| Error(format!("field `{name}`: {e}"))),
        None => T::missing(name),
    }
}

/// Reads a `#[serde(default)]` field: absent means `T::default()`.
///
/// # Errors
/// Propagates the field's own failure, prefixed with its name.
pub fn field_or_default<T: Deserialize + Default>(
    obj: &[(String, Value)],
    name: &'static str,
) -> Result<T, Error> {
    match lookup(obj, name) {
        Some(v) => T::deserialize(v).map_err(|e| Error(format!("field `{name}`: {e}"))),
        None => Ok(T::default()),
    }
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Appends compact JSON text to a byte buffer.
#[derive(Debug, Default)]
pub struct Writer {
    out: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Self {
        Writer::default()
    }

    /// The bytes written so far (always valid UTF-8).
    pub fn into_bytes(self) -> Vec<u8> {
        self.out
    }

    /// Writes `null`.
    pub fn null(&mut self) {
        self.out.extend_from_slice(b"null");
    }

    /// Writes `true` or `false`.
    pub fn bool(&mut self, b: bool) {
        self.out
            .extend_from_slice(if b { b"true" } else { b"false" });
    }

    /// Writes a non-negative integer.
    pub fn u64(&mut self, mut n: u64) {
        let mut digits = [0u8; 20];
        let mut i = digits.len();
        loop {
            i -= 1;
            digits[i] = b'0' + (n % 10) as u8;
            n /= 10;
            if n == 0 {
                break;
            }
        }
        self.out.extend_from_slice(&digits[i..]);
    }

    /// Writes a signed integer.
    pub fn i64(&mut self, n: i64) {
        if n < 0 {
            self.out.push(b'-');
        }
        self.u64(n.unsigned_abs());
    }

    /// Writes a float in its shortest round-tripping form, `null` if it
    /// is not finite.
    pub fn float(&mut self, f: impl fmt::Display + Copy + Into<f64>) {
        use std::io::Write;
        if !f.into().is_finite() {
            return self.null();
        }
        let start = self.out.len();
        // Writing to a Vec cannot fail.
        let _ = write!(self.out, "{f}");
        if !self.out[start..]
            .iter()
            .any(|b| matches!(b, b'.' | b'e' | b'E'))
        {
            self.out.extend_from_slice(b".0");
        }
    }

    /// Writes an escaped string.
    pub fn string(&mut self, s: &str) {
        self.out.push(b'"');
        let bytes = s.as_bytes();
        let mut clean_from = 0;
        for (i, &b) in bytes.iter().enumerate() {
            let escape: &[u8] = match b {
                b'"' => b"\\\"",
                b'\\' => b"\\\\",
                b'\n' => b"\\n",
                b'\r' => b"\\r",
                b'\t' => b"\\t",
                0x08 => b"\\b",
                0x0c => b"\\f",
                0..=0x1f => b"",
                _ => continue,
            };
            self.out.extend_from_slice(&bytes[clean_from..i]);
            clean_from = i + 1;
            if escape.is_empty() {
                const HEX: &[u8; 16] = b"0123456789abcdef";
                self.out.extend_from_slice(b"\\u00");
                self.out.push(HEX[usize::from(b >> 4)]);
                self.out.push(HEX[usize::from(b & 0xf)]);
            } else {
                self.out.extend_from_slice(escape);
            }
        }
        self.out.extend_from_slice(&bytes[clean_from..]);
        self.out.push(b'"');
    }

    /// Opens an object.
    pub fn begin_object(&mut self) {
        self.out.push(b'{');
    }

    /// Closes an object.
    pub fn end_object(&mut self) {
        self.out.push(b'}');
    }

    /// Opens an array.
    pub fn begin_array(&mut self) {
        self.out.push(b'[');
    }

    /// Closes an array.
    pub fn end_array(&mut self) {
        self.out.push(b']');
    }

    /// Starts the next array element: a comma unless it is the first.
    pub fn element(&mut self, first: &mut bool) {
        if !std::mem::replace(first, false) {
            self.out.push(b',');
        }
    }

    /// Starts the next object entry: separator, key, colon.
    pub fn key(&mut self, first: &mut bool, key: &str) {
        self.element(first);
        self.string(key);
        self.out.push(b':');
    }
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

struct Parser<'a> {
    src: &'a [u8],
    pos: usize,
}

/// Parses one JSON document; trailing non-whitespace is an error.
///
/// # Errors
/// Fails on malformed JSON, invalid UTF-8 in strings, or nesting deeper
/// than 128 levels.
pub fn parse(src: &[u8]) -> Result<Value, Error> {
    let mut p = Parser { src, pos: 0 };
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != src.len() {
        return Err(Error::syntax("trailing characters", p.pos));
    }
    Ok(value)
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.src.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, byte: u8) -> bool {
        let hit = self.src.get(self.pos) == Some(&byte);
        if hit {
            self.pos += 1;
        }
        hit
    }

    fn literal(&mut self, text: &[u8], value: Value) -> Result<Value, Error> {
        if self.src[self.pos..].starts_with(text) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(Error::syntax("expected value", self.pos))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, Error> {
        if depth > MAX_DEPTH {
            return Err(Error::syntax("recursion limit exceeded", self.pos));
        }
        self.skip_ws();
        match self.src.get(self.pos) {
            None => Err(Error::syntax("EOF while parsing a value", self.pos)),
            Some(b'n') => self.literal(b"null", Value::Null),
            Some(b't') => self.literal(b"true", Value::Bool(true)),
            Some(b'f') => self.literal(b"false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::String),
            Some(b'[') => {
                self.pos += 1;
                let mut elems = Vec::new();
                self.skip_ws();
                if self.eat(b']') {
                    return Ok(Value::Array(elems));
                }
                loop {
                    elems.push(self.value(depth + 1)?);
                    self.skip_ws();
                    if self.eat(b']') {
                        return Ok(Value::Array(elems));
                    }
                    if !self.eat(b',') {
                        return Err(Error::syntax("expected `,` or `]`", self.pos));
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut entries = Vec::new();
                self.skip_ws();
                if self.eat(b'}') {
                    return Ok(Value::Object(entries));
                }
                loop {
                    self.skip_ws();
                    if self.src.get(self.pos) != Some(&b'"') {
                        return Err(Error::syntax("key must be a string", self.pos));
                    }
                    let key = self.string()?;
                    self.skip_ws();
                    if !self.eat(b':') {
                        return Err(Error::syntax("expected `:`", self.pos));
                    }
                    entries.push((key, self.value(depth + 1)?));
                    self.skip_ws();
                    if self.eat(b'}') {
                        return Ok(Value::Object(entries));
                    }
                    if !self.eat(b',') {
                        return Err(Error::syntax("expected `,` or `}`", self.pos));
                    }
                }
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(Error::syntax("expected value", self.pos)),
        }
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        let negative = self.eat(b'-');
        let int_start = self.pos;
        while matches!(self.src.get(self.pos), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let int_len = self.pos - int_start;
        if int_len == 0 || (int_len > 1 && self.src[int_start] == b'0') {
            return Err(Error::syntax("invalid number", start));
        }
        let mut integral = true;
        if self.eat(b'.') {
            integral = false;
            let frac_start = self.pos;
            while matches!(self.src.get(self.pos), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == frac_start {
                return Err(Error::syntax("invalid number", start));
            }
        }
        if matches!(self.src.get(self.pos), Some(b'e' | b'E')) {
            integral = false;
            self.pos += 1;
            if !self.eat(b'+') {
                self.eat(b'-');
            }
            let exp_start = self.pos;
            while matches!(self.src.get(self.pos), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == exp_start {
                return Err(Error::syntax("invalid number", start));
            }
        }
        // The scanned bytes are ASCII digits, sign, dot and exponent.
        let text = std::str::from_utf8(&self.src[start..self.pos])
            .map_err(|_| Error::syntax("invalid number", start))?;
        if integral {
            if negative {
                if let Ok(i) = text.parse::<i64>() {
                    return Ok(Value::Number(Number::I(i)));
                }
            } else if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::Number(Number::U(u)));
            }
        }
        text.parse::<f64>()
            .map(|f| Value::Number(Number::F(f)))
            .map_err(|_| Error::syntax("invalid number", start))
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let digits = self
            .src
            .get(self.pos..self.pos + 4)
            .and_then(|d| std::str::from_utf8(d).ok())
            .and_then(|d| u32::from_str_radix(d, 16).ok())
            .ok_or_else(|| Error::syntax("invalid unicode escape", self.pos))?;
        self.pos += 4;
        Ok(digits)
    }

    fn string(&mut self) -> Result<String, Error> {
        let open = self.pos;
        self.pos += 1; // the opening quote
        let mut out: Vec<u8> = Vec::new();
        loop {
            let run_start = self.pos;
            while !matches!(self.src.get(self.pos), None | Some(b'"' | b'\\' | 0..=0x1f)) {
                self.pos += 1;
            }
            out.extend_from_slice(&self.src[run_start..self.pos]);
            match self.src.get(self.pos) {
                None => return Err(Error::syntax("EOF while parsing a string", open)),
                Some(b'"') => {
                    self.pos += 1;
                    return String::from_utf8(out)
                        .map_err(|_| Error::syntax("invalid UTF-8 in string", open));
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = *self
                        .src
                        .get(self.pos)
                        .ok_or_else(|| Error::syntax("EOF while parsing a string", open))?;
                    self.pos += 1;
                    let ch = match esc {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'u' => {
                            let hi = self.hex4()?;
                            let code = if (0xd800..0xdc00).contains(&hi) {
                                if !(self.eat(b'\\') && self.eat(b'u')) {
                                    return Err(Error::syntax("lone surrogate", self.pos));
                                }
                                let lo = self.hex4()?;
                                if !(0xdc00..0xe000).contains(&lo) {
                                    return Err(Error::syntax("lone surrogate", self.pos));
                                }
                                0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00)
                            } else {
                                hi
                            };
                            char::from_u32(code)
                                .ok_or_else(|| Error::syntax("lone surrogate", self.pos))?
                        }
                        _ => return Err(Error::syntax("invalid escape", self.pos - 1)),
                    };
                    out.extend_from_slice(ch.encode_utf8(&mut [0; 4]).as_bytes());
                }
                Some(_) => return Err(Error::syntax("control character in string", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_value_kind() {
        let v = parse(br#" {"a":[1,-2,3.5e2,true,null],"b":"x\n\u00e9\ud83d\ude00","a2":{}} "#)
            .unwrap();
        let obj = v.as_object("t").unwrap();
        assert_eq!(
            lookup(obj, "a").unwrap(),
            &Value::Array(vec![
                Value::Number(Number::U(1)),
                Value::Number(Number::I(-2)),
                Value::Number(Number::F(350.0)),
                Value::Bool(true),
                Value::Null,
            ])
        );
        assert_eq!(lookup(obj, "b").unwrap(), &Value::String("x\né😀".into()));
        assert_eq!(lookup(obj, "a2").unwrap(), &Value::Object(vec![]));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\"}",
            "01",
            "1.",
            "-",
            "nul",
            "\"abc",
            "\"\\x\"",
            "[1] 2",
            "\"\\ud800\"",
            "{\"a\":1,}",
            "\"\u{1}\"",
        ] {
            assert!(parse(bad.as_bytes()).is_err(), "accepted {bad:?}");
        }
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(parse(deep.as_bytes()).is_err());
    }

    #[test]
    fn writer_escapes_and_formats() {
        let mut w = Writer::new();
        w.begin_array();
        let mut first = true;
        w.element(&mut first);
        w.string("a\"b\\c\n\u{1}é");
        w.element(&mut first);
        w.float(1.0f64);
        w.element(&mut first);
        w.float(0.1f32);
        w.element(&mut first);
        w.float(f64::NAN);
        w.element(&mut first);
        w.i64(i64::MIN);
        w.element(&mut first);
        w.u64(u64::MAX);
        w.end_array();
        let text = String::from_utf8(w.into_bytes()).unwrap();
        assert_eq!(
            text,
            "[\"a\\\"b\\\\c\\n\\u0001é\",1.0,0.1,null,-9223372036854775808,18446744073709551615]"
        );
        assert!(parse(text.as_bytes()).is_ok());
    }
}
