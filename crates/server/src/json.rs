//! A minimal, dependency-free JSON value type with a parser and writer.
//!
//! The build environment is offline (no `serde`), and the wire protocol of
//! [`crate::server`] only needs flat request/response objects, so this module
//! implements exactly the JSON subset the protocol uses: the six standard
//! value kinds, `\uXXXX` escapes (including surrogate pairs), and integer
//! numbers kept exact in an `i128` (floats fall back to `f64`). Object keys
//! preserve insertion order, which keeps responses byte-stable for tests.

use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number without fractional part, kept exact.
    Int(i128),
    /// A fractional number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object (insertion-ordered key/value pairs).
    Object(Vec<(String, Json)>),
    /// Pre-rendered JSON emitted verbatim by the writer. Used to embed
    /// fragments serialized elsewhere (e.g.
    /// `rpq_resilience::engine::PlanReport::to_json`); the caller must
    /// guarantee well-formedness.
    Raw(String),
}

/// A JSON parse error with a byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the problem in the input.
    pub offset: usize,
    /// Description of the problem.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parses a complete JSON document (trailing whitespace allowed, trailing
    /// garbage rejected).
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut parser = Parser { bytes: input.as_bytes(), pos: 0 };
        parser.skip_whitespace();
        let value = parser.parse_value(0)?;
        parser.skip_whitespace();
        if parser.pos != parser.bytes.len() {
            return Err(parser.error("trailing characters after the JSON value"));
        }
        Ok(value)
    }

    /// Builds an object from key/value pairs (convenience for responses).
    pub fn object(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Looks up a key of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The integer payload, if this is an integer number.
    pub fn as_int(&self) -> Option<i128> {
        match self {
            Json::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The integer payload as a `usize`, if representable.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_int().and_then(|i| usize::try_from(i).ok())
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => f.write_str(if *b { "true" } else { "false" }),
            Json::Int(i) => write!(f, "{i}"),
            Json::Float(x) => {
                if x.is_finite() {
                    write!(f, "{x}")
                } else {
                    f.write_str("null") // JSON has no NaN / ±∞.
                }
            }
            Json::Str(s) => write_escaped(f, s),
            Json::Array(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Object(pairs) => {
                f.write_str("{")?;
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, key)?;
                    f.write_str(":")?;
                    write!(f, "{value}")?;
                }
                f.write_str("}")
            }
            Json::Raw(s) => f.write_str(s),
        }
    }
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => f.write_str(c.encode_utf8(&mut [0u8; 4]))?,
        }
    }
    f.write_str("\"")
}

/// The deepest array/object nesting [`Json::parse`] accepts. The parser is
/// recursive descent, so an unbounded depth lets one request line of
/// brackets overflow the worker's stack; protocol messages nest about 4
/// levels deep, so 128 leaves ample headroom.
pub const MAX_NESTING_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, message: impl Into<String>) -> JsonError {
        JsonError { offset: self.pos, message: message.into() }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected `{}`", byte as char)))
        }
    }

    /// Parses the value at `pos`, which sits inside `depth` open arrays and
    /// objects.
    fn parse_value(&mut self, depth: usize) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'{') => self.parse_object(depth + 1),
            Some(b'[') => self.parse_array(depth + 1),
            Some(b'"') => Ok(Json::Str(self.parse_string()?)),
            Some(b't') => self.parse_literal("true", Json::Bool(true)),
            Some(b'f') => self.parse_literal("false", Json::Bool(false)),
            Some(b'n') => self.parse_literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            Some(c) => Err(self.error(format!("unexpected character `{}`", c as char))),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn parse_literal(&mut self, literal: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes.get(self.pos..).is_some_and(|tail| tail.starts_with(literal.as_bytes())) {
            self.pos += literal.len();
            Ok(value)
        } else {
            Err(self.error(format!("expected `{literal}`")))
        }
    }

    /// Parses a number following the exact JSON grammar:
    /// `-? (0 | [1-9][0-9]*) (\.[0-9]+)? ([eE][+-]?[0-9]+)?`. Leading zeros
    /// (`01`), digit-less mantissas (`1.`, `.5`) and digit-less exponents
    /// (`1e`, `1e+`) are grammar errors — they must not slip through to the
    /// more permissive `i128` / `f64` string parsers.
    fn parse_number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        match self.peek() {
            Some(b'0') => {
                self.pos += 1;
                if matches!(self.peek(), Some(b'0'..=b'9')) {
                    return Err(self.error("leading zeros are not allowed in numbers"));
                }
            }
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.error("expected a digit in number")),
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.error("expected a digit after the decimal point"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.error("expected a digit in the exponent"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = self
            .bytes
            .get(start..self.pos)
            .and_then(|digits| std::str::from_utf8(digits).ok())
            .ok_or_else(|| self.error("invalid number"))?;
        if !is_float {
            if let Ok(i) = text.parse::<i128>() {
                return Ok(Json::Int(i));
            }
        }
        text.parse::<f64>()
            .map(Json::Float)
            .map_err(|_| JsonError { offset: start, message: format!("invalid number `{text}`") })
    }

    fn parse_string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let high = self.parse_hex4()?;
                            let c = if (0xD800..0xDC00).contains(&high) {
                                // Surrogate pair: expect a `\uXXXX` low half.
                                if self
                                    .bytes
                                    .get(self.pos..)
                                    .is_some_and(|tail| tail.starts_with(b"\\u"))
                                {
                                    self.pos += 2;
                                    let low = self.parse_hex4()?;
                                    if !(0xDC00..0xE000).contains(&low) {
                                        return Err(self.error("invalid low surrogate"));
                                    }
                                    let code = 0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00);
                                    char::from_u32(code)
                                } else {
                                    return Err(self.error("lone high surrogate"));
                                }
                            } else {
                                char::from_u32(high)
                            };
                            match c {
                                Some(c) => out.push(c),
                                None => return Err(self.error("invalid \\u escape")),
                            }
                            continue; // parse_hex4 already advanced past the digits
                        }
                        _ => return Err(self.error("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x80 => {
                    out.push(b as char);
                    self.pos += 1;
                }
                Some(b) => {
                    // Consume one multi-byte UTF-8 character. Only the
                    // character's own bytes are validated — `Json::parse`
                    // takes a `&str`, so this always succeeds, but
                    // re-validating the whole remaining input per character
                    // (as an earlier version did) made parsing quadratic:
                    // 288 ms for a 150 kB request line.
                    let len = match b {
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        _ => 4,
                    };
                    let end = (self.pos + len).min(self.bytes.len());
                    let c = self
                        .bytes
                        .get(self.pos..end)
                        .and_then(|b| std::str::from_utf8(b).ok())
                        .and_then(|s| s.chars().next())
                        .ok_or_else(|| self.error("invalid UTF-8"))?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.error("truncated \\u escape"));
        }
        // lint: allow(panic-freedom, the range is length-checked just above)
        let digits = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.error("invalid \\u escape"))?;
        let value =
            u32::from_str_radix(digits, 16).map_err(|_| self.error("invalid \\u escape"))?;
        self.pos = end;
        Ok(value)
    }

    /// Fails once `depth` passes [`MAX_NESTING_DEPTH`].
    fn check_depth(&self, depth: usize) -> Result<(), JsonError> {
        if depth > MAX_NESTING_DEPTH {
            return Err(
                self.error(format!("nesting deeper than {MAX_NESTING_DEPTH} arrays/objects"))
            );
        }
        Ok(())
    }

    fn parse_array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.check_depth(depth)?;
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_whitespace();
            items.push(self.parse_value(depth)?);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.error("expected `,` or `]` in array")),
            }
        }
    }

    fn parse_object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.check_depth(depth)?;
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(pairs));
        }
        loop {
            self.skip_whitespace();
            let key = self.parse_string()?;
            self.skip_whitespace();
            self.expect(b':')?;
            self.skip_whitespace();
            let value = self.parse_value(depth)?;
            pairs.push((key, value));
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(pairs));
                }
                _ => return Err(self.error("expected `,` or `}` in object")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("false").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("42").unwrap(), Json::Int(42));
        assert_eq!(Json::parse("-7").unwrap(), Json::Int(-7));
        assert_eq!(Json::parse("1.5").unwrap(), Json::Float(1.5));
        assert_eq!(Json::parse("1e3").unwrap(), Json::Float(1000.0));
        assert_eq!(Json::parse("\"hi\"").unwrap(), Json::Str("hi".into()));
    }

    #[test]
    fn parses_structures_and_preserves_key_order() {
        let v = Json::parse(r#"{"b":[1,2,{"x":null}],"a":"y"}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_str(), Some("y"));
        let arr = v.get("b").unwrap().as_array().unwrap();
        assert_eq!(arr[0].as_int(), Some(1));
        assert_eq!(arr[2].get("x"), Some(&Json::Null));
        assert_eq!(v.to_string(), r#"{"b":[1,2,{"x":null}],"a":"y"}"#);
    }

    #[test]
    fn string_escapes_round_trip() {
        let original = "quote\" back\\ nl\n tab\t unicode ε∞ control\u{1}";
        let rendered = Json::Str(original.to_string()).to_string();
        assert_eq!(Json::parse(&rendered).unwrap().as_str(), Some(original));
        // Explicit \u escapes, including a surrogate pair (U+1F389).
        assert_eq!(Json::parse(r#""A🎉""#).unwrap().as_str(), Some("A\u{1F389}"));
        assert_eq!(Json::parse("\"\\ud83c\\udf89\"").unwrap().as_str(), Some("\u{1F389}"));
        assert!(Json::parse(r#""\ud83c""#).is_err()); // lone high surrogate
        assert!(Json::parse(r#""\udf89""#).is_err()); // lone low surrogate
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,", "\"open", "{\"a\" 1}", "tru", "1 2", "{'a':1}", "[1,]"] {
            assert!(Json::parse(bad).is_err(), "{bad:?}");
        }
        let err = Json::parse("[1, oops]").unwrap_err();
        assert!(err.to_string().contains("byte 4"));
    }

    #[test]
    fn nesting_is_bounded() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(Json::parse(&nested(MAX_NESTING_DEPTH)).is_ok());
        let err = Json::parse(&nested(MAX_NESTING_DEPTH + 1)).unwrap_err();
        assert!(err.to_string().contains("nesting deeper than 128"), "{err}");
        assert_eq!(err.offset, MAX_NESTING_DEPTH);
        // Objects count too, and sibling containers do not accumulate depth.
        let objects = format!("{}1{}", "{\"k\":".repeat(MAX_NESTING_DEPTH + 1), "}".repeat(129));
        assert!(Json::parse(&objects).is_err());
        let wide = format!("[{}]", vec![nested(MAX_NESTING_DEPTH - 1); 3].join(","));
        assert!(Json::parse(&wide).is_ok());
    }

    #[test]
    fn number_grammar_is_strict() {
        // Leading zeros, digit-less mantissas and digit-less exponents are
        // rejected at the grammar level, not forwarded to `i128`/`f64`.
        for bad in [
            "01",
            "-01",
            "007",
            "00",
            "1.",
            "-2.",
            "1.e3",
            "1e",
            "1e+",
            "1E-",
            "-",
            "0x1",
            "01.5",
            "[01]",
            "{\"n\":01}",
            "1.2e",
            "--1",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} must be rejected");
        }
        // The valid edge cases still parse.
        assert_eq!(Json::parse("0").unwrap(), Json::Int(0));
        assert_eq!(Json::parse("-0").unwrap(), Json::Int(0));
        assert_eq!(Json::parse("10").unwrap(), Json::Int(10));
        assert_eq!(Json::parse("0.5").unwrap(), Json::Float(0.5));
        assert_eq!(Json::parse("-0.5").unwrap(), Json::Float(-0.5));
        assert_eq!(Json::parse("0e0").unwrap(), Json::Float(0.0));
        assert_eq!(Json::parse("2E+2").unwrap(), Json::Float(200.0));
        assert_eq!(Json::parse("123e-2").unwrap(), Json::Float(1.23));
        let err = Json::parse("01").unwrap_err();
        assert!(err.to_string().contains("leading zero"), "{err}");
    }

    #[test]
    fn raw_fragments_are_emitted_verbatim() {
        let v = Json::object([("plan", Json::Raw("{\"algorithm\":\"local\"}".into()))]);
        assert_eq!(v.to_string(), "{\"plan\":{\"algorithm\":\"local\"}}");
        assert!(Json::parse(&v.to_string()).is_ok());
    }

    #[test]
    fn big_integers_stay_exact() {
        let big = i128::MAX.to_string();
        assert_eq!(Json::parse(&big).unwrap(), Json::Int(i128::MAX));
        assert_eq!(Json::Int(i128::MAX).to_string(), big);
    }
}
