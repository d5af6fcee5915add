//! Minimal JSON: the string and number writers every exporter shares,
//! and a parser for validating and round-tripping exported artifacts.
//!
//! The workspace is dependency-free, so the trace, telemetry and manifest
//! exporters hand-roll JSON around [`json_escape`] and [`json_f64`] — and
//! tests and the `greencell trace --check` gate need an independent reader
//! to prove the bytes actually parse and carry the right values. [`parse`]
//! is a strict recursive-descent parser for the JSON the exporters emit
//! (no comments, no trailing commas); numbers are parsed as `f64`.

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt::{self, Write as _};

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Number(f64),
    /// A string, with escapes decoded.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object. Key order is normalized (sorted); exporters never emit
    /// duplicate keys.
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// Member `key` of an object, if present.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(m) => m.get(key),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(v) => Some(v),
            _ => None,
        }
    }

    /// The number, if this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean, if this is a boolean.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// A parse failure, with the byte offset where it happened.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl Error for JsonError {}

/// The deepest array/object nesting [`parse`] accepts. The parser
/// recurses once per level, so an unbounded depth lets one line of
/// `[[[…` overflow the stack; everything the program writes nests a few
/// levels deep, far below this.
pub const MAX_DEPTH: usize = 128;

/// Parses a complete JSON document (rejecting trailing garbage).
///
/// # Errors
///
/// Returns [`JsonError`] with the failing byte offset on malformed input,
/// including nesting deeper than [`MAX_DEPTH`].
pub fn parse(input: &str) -> Result<Value, JsonError> {
    Parser::new(input).document()
}

/// [`parse`] with the per-character string reader the run-scanning one
/// must match: the lockstep oracle of the tests.
#[cfg(test)]
fn parse_per_char(input: &str) -> Result<Value, JsonError> {
    let mut p = Parser::new(input);
    p.per_char_strings = true;
    p.document()
}

/// Escapes `s` for use between the quotes of a JSON string.
#[must_use]
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    json_escape_into(&mut out, s);
    out
}

/// Appends [`json_escape`]`(s)` to `out`.
pub fn json_escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Formats a finite `f64` as a JSON number (shortest round-trip form);
/// NaN and the infinities become `null`, since JSON has no literal for
/// them.
#[must_use]
pub fn json_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

struct Parser<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Open arrays and objects enclosing the current position.
    depth: usize,
    /// Read strings with [`Parser::string_per_char`], the oracle.
    #[cfg(test)]
    per_char_strings: bool,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Self {
        Parser {
            input,
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
            #[cfg(test)]
            per_char_strings: false,
        }
    }

    /// One complete document: a value, optionally surrounded by
    /// whitespace, and nothing else.
    fn document(&mut self) -> Result<Value, JsonError> {
        self.skip_ws();
        let v = self.value()?;
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(self.err("trailing characters after top-level value"));
        }
        Ok(v)
    }

    fn err(&self, message: &str) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn value(&mut self) -> Result<Value, JsonError> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// Parses one array or object one level deeper, refusing to go past
    /// [`MAX_DEPTH`].
    fn nested(
        &mut self,
        container: fn(&mut Self) -> Result<Value, JsonError>,
    ) -> Result<Value, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let v = container(self);
        self.depth -= 1;
        v
    }

    fn object(&mut self) -> Result<Value, JsonError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            if map.insert(key, val).is_some() {
                return Err(self.err("duplicate object key"));
            }
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(map));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, JsonError> {
        self.expect(b'[')?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(out));
        }
        loop {
            self.skip_ws();
            out.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(out));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    /// Reads a string. Each run of plain bytes up to the next `"`, `\` or
    /// control byte is copied as one slice; every stop byte is ASCII, so
    /// each run starts and ends on a character boundary of the input.
    fn string(&mut self) -> Result<String, JsonError> {
        #[cfg(test)]
        if self.per_char_strings {
            return self.string_per_char();
        }
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            let run = self.bytes[start..]
                .iter()
                .position(|&c| c == b'"' || c == b'\\' || c < 0x20)
                .unwrap_or(self.bytes.len() - start);
            self.pos += run;
            let chunk = self
                .input
                .get(start..self.pos)
                .ok_or_else(|| self.err("invalid UTF-8 in string"))?;
            out.push_str(chunk);
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => self.escape(&mut out)?,
                Some(_) => return Err(self.err("raw control character in string")),
            }
        }
    }

    /// Decodes the escape at the current `\` into `out`.
    fn escape(&mut self, out: &mut String) -> Result<(), JsonError> {
        self.pos += 1;
        let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
        self.pos += 1;
        match esc {
            b'"' => out.push('"'),
            b'\\' => out.push('\\'),
            b'/' => out.push('/'),
            b'b' => out.push('\u{8}'),
            b'f' => out.push('\u{c}'),
            b'n' => out.push('\n'),
            b'r' => out.push('\r'),
            b't' => out.push('\t'),
            b'u' => {
                let hex = self
                    .bytes
                    .get(self.pos..self.pos + 4)
                    .and_then(|h| std::str::from_utf8(h).ok())
                    .ok_or_else(|| self.err("truncated \\u escape"))?;
                let code =
                    u32::from_str_radix(hex, 16).map_err(|_| self.err("invalid \\u escape"))?;
                self.pos += 4;
                // Exporters only escape control characters, so surrogate
                // pairs never appear.
                let ch = char::from_u32(code)
                    .ok_or_else(|| self.err("\\u escape is not a scalar value"))?;
                out.push(ch);
            }
            _ => return Err(self.err("unknown escape")),
        }
        Ok(())
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number spans ASCII bytes");
        text.parse::<f64>()
            .map(Value::Number)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
impl Parser<'_> {
    /// The oracle of [`Parser::string`]: the same reader, one character
    /// at a time.
    fn string_per_char(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            self.pos += 4;
                            // Exporters only escape control characters, so
                            // surrogate pairs never appear.
                            let ch = char::from_u32(code)
                                .ok_or_else(|| self.err("\\u escape is not a scalar value"))?;
                            out.push(ch);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(c) if c < 0x20 => return Err(self.err("raw control character in string")),
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a valid &str).
                    let s = &self.bytes[self.pos..];
                    let ch_len = match s[0] {
                        c if c < 0x80 => 1,
                        c if c >= 0xF0 => 4,
                        c if c >= 0xE0 => 3,
                        _ => 2,
                    };
                    let chunk = std::str::from_utf8(&s[..ch_len])
                        .map_err(|_| self.err("invalid UTF-8 in string"))?;
                    out.push_str(chunk);
                    self.pos += ch_len;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse("true").unwrap(), Value::Bool(true));
        assert_eq!(parse("-1.5e3").unwrap(), Value::Number(-1500.0));
        assert_eq!(
            parse("\"a\\nb\\u0041\"").unwrap(),
            Value::String("a\nbA".into())
        );
    }

    #[test]
    fn written_strings_and_numbers_parse_back() {
        let s = "q\"b\\n\nr\rt\tc\u{1}é";
        let quoted = format!("\"{}\"", json_escape(s));
        assert_eq!(parse(&quoted).unwrap(), Value::String(s.into()));
        assert_eq!(json_escape("\u{1f}"), "\\u001f");
        assert_eq!(parse(&json_f64(0.1)).unwrap(), Value::Number(0.1));
        assert_eq!(json_f64(-3.0), "-3");
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(json_f64(x), "null");
        }
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"a": [1, 2, {"b": false}], "c": "x"}"#).unwrap();
        assert_eq!(v.get("c").and_then(Value::as_str), Some("x"));
        let arr = v.get("a").and_then(Value::as_array).unwrap();
        assert_eq!(arr[1].as_f64(), Some(2.0));
        assert_eq!(arr[2].get("b").and_then(Value::as_bool), Some(false));
    }

    #[test]
    fn parses_empty_containers_and_unicode() {
        assert_eq!(parse("[]").unwrap(), Value::Array(vec![]));
        assert_eq!(parse("{}").unwrap(), Value::Object(BTreeMap::new()));
        assert_eq!(parse("\"λ=0.02\"").unwrap().as_str(), Some("λ=0.02"));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "tru",
            "1 2",
            "{\"a\":1,}",
            "[1 2]",
            "\"unterminated",
            "{\"a\":1,\"a\":2}",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn nesting_is_capped_not_a_stack_overflow() {
        let at_cap = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(parse(&at_cap).is_ok());
        let e = parse(&format!("{{\"a\":{at_cap}}}")).unwrap_err();
        assert_eq!(e.offset, 5 + MAX_DEPTH - 1);
        let e = parse(&"[".repeat(1_000_000)).unwrap_err();
        assert_eq!(e.offset, MAX_DEPTH);
        assert!(e.message.contains("nesting"), "{e}");
    }

    /// The run-scanning string reader gives the per-character oracle's
    /// exact `Value` or exact `JsonError` (offset and message) on random
    /// documents built from escapes (valid, unknown, truncated, `\u` of
    /// non-scalars), raw control bytes, 1–4-byte UTF-8 and structure,
    /// as values and as keys, terminated or not.
    #[test]
    fn string_runs_match_the_per_char_oracle() {
        const PIECES: &[&str] = &[
            "a", "xyz", "0x00ff", " ", "é", "€", "😀", "λ=", "\"", "\\", "\\\"", "\\\\", "\\/",
            "\\b", "\\f", "\\n", "\\r", "\\t", "\\u0041", "\\u00e9", "\\u20AC", "\\ud800", "\\u12",
            "\\uzz", "\\x", "\u{1}", "\u{1f}", "\t", "\n", "\u{7f}", ":", ",", "{", "}", "[", "]",
        ];
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut pick = |n: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n as u64) as usize
        };
        let mut errors = BTreeMap::<String, usize>::new();
        let mut non_ascii_strings = 0;
        for _ in 0..20_000 {
            let body: String = (0..pick(8)).map(|_| PIECES[pick(PIECES.len())]).collect();
            let doc = match pick(6) {
                0 => format!("\"{body}\""),
                1 => format!("\"{body}"),
                2 => format!("{{\"{body}\":1}}"),
                3 => format!("{{\"{body}\""),
                4 => format!("[\"{body}\",\"{}\"]", PIECES[pick(PIECES.len())]),
                _ => body,
            };
            let got = parse(&doc);
            assert_eq!(got, parse_per_char(&doc), "{doc:?}");
            match got {
                Ok(v) => non_ascii_strings += usize::from(!format!("{v:?}").is_ascii()),
                Err(e) => *errors.entry(e.message).or_default() += 1,
            }
        }
        assert!(
            non_ascii_strings >= 100,
            "{non_ascii_strings} non-ASCII strings"
        );
        for message in [
            "unterminated string",
            "unterminated escape",
            "raw control character in string",
            "unknown escape",
            "truncated \\u escape",
            "invalid \\u escape",
            "\\u escape is not a scalar value",
        ] {
            let seen = errors.get(message).copied().unwrap_or(0);
            assert!(seen >= 20, "`{message}` seen {seen} times: {errors:?}");
        }
    }

    #[test]
    fn errors_carry_an_offset() {
        let e = parse("[1, x]").unwrap_err();
        assert_eq!(e.offset, 4);
        assert!(e.to_string().contains("byte 4"));
    }
}
