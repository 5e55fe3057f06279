//! Minimal JSON: a recursive-descent parser and string escaping.
//!
//! The workspace ships no serde (offline build environment): reports are
//! written by hand with [`escape`], and this module provides the smallest
//! JSON value model that reads requests and response bodies back.
//! Numbers are kept as `f64` — protocol numbers are small counters; the
//! one potentially huge value (`spec_states`, a `u128`) is only ever
//! emitted, never parsed back by the server.

use std::collections::BTreeMap;
use std::fmt;

/// 2^53: above it an `f64` no longer represents every integer.
const MAX_EXACT: f64 = 9_007_199_254_740_992.0;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object (sorted map — key order is not significant in JSON).
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// Object field lookup (`None` for absent fields and non-objects).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(map) => map.get(key),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as a `usize`: `None` unless it is a
    /// non-negative integer of at most 2^53 (the largest an `f64` holds
    /// exactly), so `2.5` or `1e30` is rejected rather than truncated.
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= MAX_EXACT => Some(*n as usize),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// Error from [`parse`], with a byte offset.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    at: usize,
    message: &'static str,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err<T>(&self, message: &'static str) -> Result<T, JsonError> {
        Err(JsonError {
            at: self.pos,
            message,
        })
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> bool {
        if self.peek() == Some(b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_lit(&mut self, lit: &str) -> Result<(), JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            self.err("invalid literal")
        }
    }

    fn value(&mut self) -> Result<Value, JsonError> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => {
                self.expect_lit("null")?;
                Ok(Value::Null)
            }
            Some(b't') => {
                self.expect_lit("true")?;
                Ok(Value::Bool(true))
            }
            Some(b'f') => {
                self.expect_lit("false")?;
                Ok(Value::Bool(false))
            }
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.eat(b']') {
                    return Ok(Value::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.skip_ws();
                    if self.eat(b']') {
                        return Ok(Value::Arr(items));
                    }
                    if !self.eat(b',') {
                        return self.err("expected , or ]");
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut map = BTreeMap::new();
                self.skip_ws();
                if self.eat(b'}') {
                    return Ok(Value::Obj(map));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    if !self.eat(b':') {
                        return self.err("expected :");
                    }
                    map.insert(key, self.value()?);
                    self.skip_ws();
                    if self.eat(b'}') {
                        return Ok(Value::Obj(map));
                    }
                    if !self.eat(b',') {
                        return self.err("expected , or }");
                    }
                }
            }
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => self.err("expected a value"),
        }
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        self.eat(b'-');
        while matches!(self.peek(), Some(b) if b.is_ascii_digit() || b == b'.' || b == b'e' || b == b'E' || b == b'+' || b == b'-')
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii digits");
        match text.parse() {
            Ok(n) => Ok(Value::Num(n)),
            Err(_) => self.err("bad number"),
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        if !self.eat(b'"') {
            return self.err("expected string");
        }
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return self.err("unterminated string"),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            if self.pos + 4 >= self.bytes.len() {
                                return self.err("bad \\u escape");
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos + 1..self.pos + 5])
                                .map_err(|_| JsonError {
                                    at: self.pos,
                                    message: "bad \\u escape",
                                })?;
                            let code = u32::from_str_radix(hex, 16).map_err(|_| JsonError {
                                at: self.pos,
                                message: "bad \\u escape",
                            })?;
                            // Surrogate pairs are not needed by the protocol;
                            // map unpaired surrogates to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return self.err("bad escape"),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy one UTF-8 scalar (multi-byte safe).
                    let rest =
                        std::str::from_utf8(&self.bytes[self.pos..]).map_err(|_| JsonError {
                            at: self.pos,
                            message: "invalid utf-8",
                        })?;
                    let c = rest.chars().next().expect("non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }
}

/// Parses one JSON value from `text` (trailing whitespace allowed,
/// trailing garbage is an error).
///
/// # Errors
///
/// [`JsonError`] with the byte offset of the first problem.
pub fn parse(text: &str) -> Result<Value, JsonError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return p.err("trailing garbage");
    }
    Ok(v)
}

/// JSON string literal with minimal escaping (quotes, backslashes,
/// control characters): the workspace's one escaper, shared with the
/// profile renderer.
pub use si_obs::json_escape as escape;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_protocol_shapes() {
        let v = parse(r#"{"op": "synth", "spec": ".model m\n", "options": {"cap": 1000}, "tags": [1, true, null]}"#)
            .unwrap();
        assert_eq!(v.get("op").and_then(Value::as_str), Some("synth"));
        assert_eq!(v.get("spec").and_then(Value::as_str), Some(".model m\n"));
        assert_eq!(
            v.get("options")
                .and_then(|o| o.get("cap"))
                .and_then(Value::as_usize),
            Some(1000)
        );
        match v.get("tags") {
            Some(Value::Arr(items)) => {
                assert_eq!(items[0], Value::Num(1.0));
                assert_eq!(items[1], Value::Bool(true));
                assert_eq!(items[2], Value::Null);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn escape_roundtrips_through_parse() {
        let nasty = "a \"b\"\\\n\tc\u{1}";
        let v = parse(&escape(nasty)).unwrap();
        assert_eq!(v.as_str(), Some(nasty));
    }

    #[test]
    fn errors_carry_offsets() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{} trailing").is_err());
        assert!(parse("nul").is_err());
    }
}
