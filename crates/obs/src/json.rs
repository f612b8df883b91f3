//! A dependency-free JSON reader.
//!
//! The workspace hand-rolls all JSON *writers* (telemetry exporters,
//! `--metrics-json`, the event stream, the result store);
//! pulling in serde to read them back is off the table (no new
//! dependencies). This is a small recursive-descent parser, enough for the
//! machine-written documents we consume: objects, arrays, strings with the
//! common escapes, numbers, booleans, null. It is the campaign daemon's
//! wire reader (every request and reply line) and the result store's
//! replay reader (every segment line at open), so it is built for
//! untrusted input:
//!
//! - **Linear time.** A string is consumed one run at a time: each run of
//!   bytes up to the next `"` or `\` is copied as one validated slice.
//! - **Depth-capped.** Nesting deeper than `MAX_DEPTH` is a [`JsonError`],
//!   never a stack overflow.
//!
//! Objects preserve key order as `Vec<(String, Json)>` — deliberately not a
//! hash map (`clippy.toml` disallows those for a reason: everything
//! downstream of this parser ends up in deterministic reports).

use std::fmt;

/// Deepest array/object nesting [`Json::parse`] accepts. The workspace's
/// own documents nest at most 3 deep; the cap keeps a hostile line from
/// recursing the parser off the end of its stack.
pub(crate) const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (JSON has one number type; we keep `f64`).
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source key order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one JSON document (trailing whitespace allowed, trailing
    /// garbage rejected).
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(v)
    }

    /// Object member lookup (first match; `None` for non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if numeric and exactly one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as a string slice, if a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool, if boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value's elements, if an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// A parse failure: byte offset and message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the document where parsing failed.
    pub offset: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.offset, self.msg)
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError {
            offset: self.pos,
            msg: msg.to_string(),
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

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(self.err(&format!("nesting deeper than {MAX_DEPTH}")));
                }
                self.depth += 1;
                let v = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                v
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of document")),
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next delimiter as one slice. Both
            // delimiters are ASCII, so a run never splits a UTF-8 scalar.
            let rest = &self.bytes[self.pos..];
            let run = rest
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .unwrap_or(rest.len());
            let text = std::str::from_utf8(&rest[..run]).map_err(|_| self.err("invalid utf-8"))?;
            out.push_str(text);
            self.pos += run;
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(_) => {
                    // The run stopped at a backslash.
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("bad escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are not handled; the writers
                            // in this workspace never emit them.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
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
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document_shape() {
        let doc = r#"{
            "id": "juno-r1", "v": 1, "quick": false,
            "cells": [
                {"seed": 42, "name": "detection", "mean_ms": 79.28}
            ],
            "summary": {"ratio": 17.73}
        }"#;
        let v = Json::parse(doc).expect("parse");
        assert_eq!(v.get("id").and_then(Json::as_str), Some("juno-r1"));
        assert_eq!(v.get("v").and_then(Json::as_u64), Some(1));
        assert_eq!(v.get("quick").and_then(Json::as_bool), Some(false));
        let cells = v.get("cells").and_then(Json::as_array).expect("cells");
        assert_eq!(cells[0].get("mean_ms"), Some(&Json::Num(79.28)));
        assert_eq!(
            v.get("summary").and_then(|s| s.get("ratio")),
            Some(&Json::Num(17.73))
        );
    }

    #[test]
    fn scalars_and_escapes() {
        assert_eq!(Json::parse("null"), Ok(Json::Null));
        assert_eq!(Json::parse(" true "), Ok(Json::Bool(true)));
        assert_eq!(Json::parse("-12.5e2"), Ok(Json::Num(-1250.0)));
        assert_eq!(Json::parse(r#""a\"b\nA""#), Ok(Json::Str("a\"b\nA".into())));
        assert_eq!(Json::parse(r#""héllo""#), Ok(Json::Str("héllo".into())));
    }

    #[test]
    fn object_preserves_key_order() {
        let v = Json::parse(r#"{"z":1,"a":2,"z":3}"#).expect("parse");
        match v {
            Json::Obj(members) => {
                let keys: Vec<_> = members.iter().map(|(k, _)| k.as_str()).collect();
                assert_eq!(keys, vec!["z", "a", "z"]);
                // get() returns the first match.
                assert_eq!(
                    Json::Obj(members.clone()).get("z").and_then(Json::as_u64),
                    Some(1)
                );
            }
            other => panic!("expected object, got {other:?}"),
        }
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            r#"{"a"}"#,
            "tru",
            "1 2",
            r#""unterminated"#,
            "{,}",
            "[1,]",
        ] {
            let e = Json::parse(bad).expect_err(bad);
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn u64_edges() {
        assert_eq!(Json::parse("3.5").ok().and_then(|v| v.as_u64()), None);
        assert_eq!(Json::parse("-1").ok().and_then(|v| v.as_u64()), None);
        assert_eq!(Json::parse("42").ok().and_then(|v| v.as_u64()), Some(42));
    }

    #[test]
    fn string_errors_keep_their_offsets() {
        for (bad, offset, msg) in [
            (r#""abc"#, 4, "unterminated string"),
            (r#""ab\"#, 4, "bad escape"),
            (r#""ab\q""#, 5, "unknown escape"),
            (r#""ab\u12""#, 5, "bad \\u escape"),
            (r#"{"héllo" 1}"#, 10, "expected ':'"),
        ] {
            let e = Json::parse(bad).expect_err(bad);
            assert_eq!((e.offset, e.msg.as_str()), (offset, msg), "{bad}");
        }
    }

    #[test]
    fn nesting_is_capped_not_a_stack_overflow() {
        let deep = "[".repeat(100_000);
        let e = Json::parse(&deep).expect_err("100k '['");
        assert_eq!(e.offset, MAX_DEPTH);
        assert!(e.msg.contains("nesting"), "{e}");

        let chain = r#"{"a":"#.repeat(100_000);
        let e = Json::parse(&chain).expect_err("100k '{\"a\":'");
        assert_eq!(e.offset, MAX_DEPTH * 5);
        assert!(e.msg.contains("nesting"), "{e}");

        // Exactly MAX_DEPTH levels still parse.
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&ok).is_ok());
        let over = format!("[{ok}]");
        assert!(Json::parse(&over).is_err());
    }

    proptest::proptest! {
        #[test]
        fn escaped_strings_round_trip(s: String) {
            let doc = format!("\"{}\"", satin_telemetry::json_escape(&s));
            proptest::prop_assert_eq!(Json::parse(&doc), Ok(Json::Str(s)));
        }
    }
}
