//! A minimal, dependency-free JSON value type with a parser and writer.
//!
//! The build environment is offline (no `serde`), and the wire protocol of
//! [`crate::server`] only needs flat request/response objects, so this module
//! implements exactly the JSON subset the protocol uses: the six standard
//! value kinds, `\uXXXX` escapes (including surrogate pairs), and integer
//! numbers kept exact in an `i128` (floats fall back to `f64`). Object keys
//! preserve insertion order, which keeps responses byte-stable for tests.
//!
//! Strings are the bulk of a request (a `solve_batch` line carries its graph
//! texts as strings), so the parser copies each run of a string up to the
//! next `"` or `\` in one piece, found by `find_either` eight bytes per
//! step, and decodes only the escapes one at a time. On a 2-core Xeon VM
//! this decodes a 135 KB `solve_batch` line in ~0.2 ms, against ~0.29 ms
//! copying one character per step. The writer likewise hands each run that
//! needs no escaping to the formatter in one call.

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
        let mut parser = Parser { text: input, bytes: input.as_bytes(), pos: 0 };
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

    /// Looks up a key of an object, for moving a value out.
    pub fn get_mut(&mut self, key: &str) -> Option<&mut Json> {
        match self {
            Json::Object(pairs) => pairs.iter_mut().find(|(k, _)| k == key).map(|(_, v)| v),
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
        }
    }
}

/// Writes `s` as a JSON string. Only `"`, `\` and the control characters
/// below 0x20 need escaping, all of them ASCII, so every run of bytes between
/// two of them is whole UTF-8 and goes to the formatter in one call.
fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    let mut run_start = 0;
    for (i, &byte) in s.as_bytes().iter().enumerate() {
        let escape = match byte {
            b'"' => Some("\\\""),
            b'\\' => Some("\\\\"),
            b'\n' => Some("\\n"),
            b'\r' => Some("\\r"),
            b'\t' => Some("\\t"),
            0x00..=0x1f => None,
            _ => continue,
        };
        f.write_str(s.get(run_start..i).unwrap_or_default())?;
        match escape {
            Some(escape) => f.write_str(escape)?,
            None => write!(f, "\\u{byte:04x}")?,
        }
        run_start = i + 1;
    }
    f.write_str(s.get(run_start..).unwrap_or_default())?;
    f.write_str("\"")
}

/// The index of the first byte of `haystack` equal to `a` or `b`, found
/// eight bytes per step. A word XORed with a needle repeated eight times has
/// a zero byte exactly where the needle occurs, and `(x - 0x0101…) & !x &
/// 0x8080…` sets the high bit of the lowest zero byte of `x` (a borrow only
/// reaches the bytes above it), so the lowest bit set for either needle, in
/// little-endian order, marks the first match.
pub(crate) fn find_either(haystack: &[u8], a: u8, b: u8) -> Option<usize> {
    const ONES: u64 = u64::from_le_bytes([0x01; 8]);
    const HIGHS: u64 = u64::from_le_bytes([0x80; 8]);
    let zero_bytes = |x: u64| x.wrapping_sub(ONES) & !x & HIGHS;
    let (splat_a, splat_b) = (ONES * u64::from(a), ONES * u64::from(b));
    let mut offset = 0;
    for word in haystack.chunks_exact(8) {
        let Ok(word) = <[u8; 8]>::try_from(word) else { break };
        let word = u64::from_le_bytes(word);
        let found = zero_bytes(word ^ splat_a) | zero_bytes(word ^ splat_b);
        if found != 0 {
            return Some(offset + (found.trailing_zeros() / 8) as usize);
        }
        offset += 8;
    }
    let tail = haystack.get(offset..).unwrap_or_default();
    tail.iter().position(|&byte| byte == a || byte == b).map(|i| offset + i)
}

/// The deepest array/object nesting [`Json::parse`] accepts. The parser is
/// recursive descent, so an unbounded depth lets one request line of
/// brackets overflow the worker's stack; protocol messages nest about 4
/// levels deep, so 128 leaves ample headroom.
pub const MAX_NESTING_DEPTH: usize = 128;

struct Parser<'a> {
    text: &'a str,
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

    /// Parses a string, copying each run of bytes up to the next `"` or `\`
    /// in one piece: [`find_either`] finds the run's end eight bytes per
    /// step, and the run is valid UTF-8 already (the input is a `&str`, and
    /// a run starts and ends next to an ASCII byte or at the end).
    fn parse_string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let rest = self.bytes.get(self.pos..).unwrap_or_default();
            let Some(run) = find_either(rest, b'"', b'\\') else {
                self.pos = self.bytes.len();
                return Err(self.error("unterminated string"));
            };
            let end = self.pos + run;
            out.push_str(self.text.get(self.pos..end).ok_or_else(|| self.error("invalid UTF-8"))?);
            self.pos = end + 1;
            if self.bytes.get(end) == Some(&b'"') {
                return Ok(out);
            }
            let c = match self.peek() {
                Some(b'"') => '"',
                Some(b'\\') => '\\',
                Some(b'/') => '/',
                Some(b'b') => '\u{8}',
                Some(b'f') => '\u{c}',
                Some(b'n') => '\n',
                Some(b'r') => '\r',
                Some(b't') => '\t',
                Some(b'u') => {
                    self.pos += 1;
                    out.push(self.parse_unicode_escape()?);
                    continue; // the escape is consumed up to its last digit
                }
                _ => return Err(self.error("invalid escape sequence")),
            };
            out.push(c);
            self.pos += 1;
        }
    }

    /// The character of a `\uXXXX` escape whose digits start at `pos`,
    /// joining a surrogate pair written as two escapes.
    fn parse_unicode_escape(&mut self) -> Result<char, JsonError> {
        let high = self.parse_hex4()?;
        let c = if (0xD800..0xDC00).contains(&high) {
            // Surrogate pair: expect a `\uXXXX` low half.
            if !self.bytes.get(self.pos..).is_some_and(|tail| tail.starts_with(b"\\u")) {
                return Err(self.error("lone high surrogate"));
            }
            self.pos += 2;
            let low = self.parse_hex4()?;
            if !(0xDC00..0xE000).contains(&low) {
                return Err(self.error("invalid low surrogate"));
            }
            char::from_u32(0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00))
        } else {
            char::from_u32(high)
        };
        c.ok_or_else(|| self.error("invalid \\u escape"))
    }

    /// Reads exactly four hex digits at `pos` (no sign, unlike
    /// [`u32::from_str_radix`]).
    fn parse_hex4(&mut self) -> Result<u32, JsonError> {
        let digits = self.bytes.get(self.pos..).unwrap_or_default();
        if digits.len() < 4 {
            return Err(self.error("truncated \\u escape"));
        }
        let mut value = 0;
        for &digit in digits.iter().take(4) {
            let nibble =
                char::from(digit).to_digit(16).ok_or_else(|| self.error("invalid \\u escape"))?;
            value = (value << 4) | nibble;
        }
        self.pos += 4;
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
        for bad in
            ["", "{", "[1,", "\"open", "{\"a\" 1}", "tru", "1 2", "{'a':1}", "[1,]", r#""\u+041""#]
        {
            assert!(Json::parse(bad).is_err(), "{bad:?}");
        }
        let err = Json::parse("[1, oops]").unwrap_err();
        assert!(err.to_string().contains("byte 4"));
    }

    /// The string parser as it was before it copied whole runs: one
    /// character per step. It calls the shared `parse_hex4`, so it too takes
    /// exactly four hex digits after `\\u`.
    fn parse_string_char_by_char(parser: &mut Parser<'_>) -> Result<String, JsonError> {
        parser.expect(b'"')?;
        let mut out = String::new();
        loop {
            match parser.peek() {
                None => return Err(parser.error("unterminated string")),
                Some(b'"') => {
                    parser.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    parser.pos += 1;
                    match parser.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            parser.pos += 1;
                            let high = parser.parse_hex4()?;
                            let c = if (0xD800..0xDC00).contains(&high) {
                                if parser
                                    .bytes
                                    .get(parser.pos..)
                                    .is_some_and(|tail| tail.starts_with(b"\\u"))
                                {
                                    parser.pos += 2;
                                    let low = parser.parse_hex4()?;
                                    if !(0xDC00..0xE000).contains(&low) {
                                        return Err(parser.error("invalid low surrogate"));
                                    }
                                    let code = 0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00);
                                    char::from_u32(code)
                                } else {
                                    return Err(parser.error("lone high surrogate"));
                                }
                            } else {
                                char::from_u32(high)
                            };
                            match c {
                                Some(c) => out.push(c),
                                None => return Err(parser.error("invalid \\u escape")),
                            }
                            continue;
                        }
                        _ => return Err(parser.error("invalid escape sequence")),
                    }
                    parser.pos += 1;
                }
                Some(b) if b < 0x80 => {
                    out.push(b as char);
                    parser.pos += 1;
                }
                Some(_) => {
                    let c = parser.text[parser.pos..].chars().next().unwrap();
                    out.push(c);
                    parser.pos += c.len_utf8();
                }
            }
        }
    }

    /// [`Json::parse`] of a document that starts with a string, parsed with
    /// [`parse_string_char_by_char`].
    fn parse_with_reference(input: &str) -> Result<Json, JsonError> {
        let mut parser = Parser { text: input, bytes: input.as_bytes(), pos: 0 };
        let value = parse_string_char_by_char(&mut parser)?;
        parser.skip_whitespace();
        if parser.pos != parser.bytes.len() {
            return Err(parser.error("trailing characters after the JSON value"));
        }
        Ok(Json::Str(value))
    }

    #[test]
    fn strings_parse_as_with_the_char_by_char_reference() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        // Every escape, surrogate pairs and their failures, bad escapes,
        // multi-byte characters, raw control characters and a raw `"` that
        // ends the string early.
        let escapes = r#"\" \\ \/ \b \f \n \r \t \u0041 \u00e9 \u00E9 \u2028 \ud83c\udf89 \uD83C\uDF89
            \ud83c \udf89 \ud83c\u0041 \ud83cx \u12 \u+041 \u-041 \uZZZZ \u12é4 \x \é"#;
        let others = ["é", "€", "🎉", "\u{1}", "\u{1f}", "\"", " "];
        let pieces: Vec<&str> = escapes.split_whitespace().chain(others).collect();
        let run_chars = ['a', 'z', '0', ' ', '~', 'é', '€', '🎉'];
        let mut cases = 0;
        for seed in 0..5000 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut doc = String::from("\"");
            for _ in 0..rng.gen_range(0..8usize) {
                if rng.gen_bool(0.5) {
                    // A run of 0-20 characters, mostly ASCII, so multi-byte
                    // characters land at every offset of an 8-byte word.
                    for _ in 0..rng.gen_range(0..=20usize) {
                        let c = if rng.gen_bool(0.8) {
                            char::from(rng.gen_range(b' '..=b'~'))
                        } else {
                            run_chars[rng.gen_range(0..run_chars.len())]
                        };
                        if c != '"' && c != '\\' {
                            doc.push(c);
                        }
                    }
                } else {
                    doc.push_str(pieces[rng.gen_range(0..pieces.len())]);
                }
            }
            if rng.gen_bool(0.8) {
                doc.push('"');
            }
            if rng.gen_bool(0.2) {
                doc.push_str([" ", "x", " \"\""][rng.gen_range(0..3usize)]);
            }
            // The whole document and every prefix of it: unterminated
            // strings and escapes cut at every position.
            for end in (1..=doc.len()).filter(|&end| doc.is_char_boundary(end)) {
                let input = &doc[..end];
                assert_eq!(Json::parse(input), parse_with_reference(input), "{input:?}");
                cases += 1;
            }
        }
        assert!(cases > 50_000, "{cases} cases");
    }

    /// The string writer as it was before it copied whole runs: one
    /// formatter call per character.
    fn write_escaped_char_by_char(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
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

    /// A string rendered by [`write_escaped_char_by_char`].
    struct CharByChar<'a>(&'a str);

    impl fmt::Display for CharByChar<'_> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write_escaped_char_by_char(f, self.0)
        }
    }

    #[test]
    fn strings_render_as_with_the_char_by_char_reference() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let specials: Vec<char> = ['"', '\\', '\u{7f}', 'é', '€', '🎉', '\u{2028}']
            .into_iter()
            .chain((0..0x20u8).map(char::from))
            .collect();
        let mut cases = vec![String::new()];
        for seed in 0..2000 {
            let mut rng = StdRng::seed_from_u64(seed);
            let text: String = (0..rng.gen_range(0..40usize))
                .map(|_| {
                    if rng.gen_bool(0.7) {
                        char::from(rng.gen_range(b' '..=b'~'))
                    } else {
                        specials[rng.gen_range(0..specials.len())]
                    }
                })
                .collect();
            cases.push(text);
        }
        cases.push(specials.iter().collect());
        for text in cases {
            let rendered = Json::Str(text.clone()).to_string();
            assert_eq!(rendered, CharByChar(&text).to_string(), "{text:?}");
            assert_eq!(Json::parse(&rendered).unwrap().as_str(), Some(text.as_str()));
        }
    }

    #[test]
    fn find_either_finds_the_first_of_two_bytes() {
        let haystack: Vec<u8> = (0..40u8).map(|i| b'a' + i % 7).collect();
        for start in 0..haystack.len() {
            let tail = &haystack[start..];
            for (a, b) in [(b'c', b'c'), (b'f', b'b'), (b'z', b'g'), (b'z', b'z')] {
                let expected = tail.iter().position(|&byte| byte == a || byte == b);
                assert_eq!(find_either(tail, a, b), expected, "{start} {a} {b}");
            }
        }
        // High bytes next to a match do not borrow into it.
        assert_eq!(find_either(&[0xff, 0x80, b'"', 0, 0, 0, 0, 0, b'"'], b'"', b'\\'), Some(2));
        assert_eq!(find_either(&[0x23, 0x21, 0x22], b'"', b'"'), Some(2));
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
    fn big_integers_stay_exact() {
        let big = i128::MAX.to_string();
        assert_eq!(Json::parse(&big).unwrap(), Json::Int(i128::MAX));
        assert_eq!(Json::Int(i128::MAX).to_string(), big);
    }
}
