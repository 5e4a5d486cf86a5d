//! Minimal JSON support: string escaping for writers and a small
//! recursive-descent parser for offline validation.
//!
//! The workspace has no serialization dependency, so the exporters
//! build JSON by hand and the tests/`check-trace` command parse it back
//! with this module. The parser accepts exactly the RFC 8259 grammar,
//! runs in time linear in its input and bounds nesting at
//! [`MAX_JSON_DEPTH`], so every input yields a value or a [`JsonError`],
//! never a panic.
//!
//! A parsed [`JsonValue`] borrows from the text it was parsed from: a
//! string or object key without an escape is a slice of the input, so
//! parsing allocates only for arrays, objects and escaped literals.
//! Objects keep their members in document order.

use std::borrow::Cow;
use std::fmt;

/// The deepest array/object nesting [`JsonValue::parse`] accepts. The
/// parser recurses once per level, so without a bound a short run of
/// `[` overflows the stack and aborts the process. Every exported
/// document nests at most six levels deep.
pub const MAX_JSON_DEPTH: usize = 128;

/// Escape a string for embedding in a JSON string literal (without the
/// surrounding quotes).
#[must_use]
pub fn escape_json(s: &str) -> String {
    Escaped(s).to_string()
}

/// Displays a string escaped for a JSON string literal (without the
/// surrounding quotes), so writers can `write!` it straight into their
/// output with no intermediate `String`.
pub(crate) struct Escaped<'a>(pub(crate) &'a str);

impl fmt::Display for Escaped<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.0;
        // Every byte that needs escaping is ASCII, so each unescaped
        // run between two of them is a `str` slice.
        let mut run = 0;
        for (i, b) in s.bytes().enumerate() {
            if b >= 0x20 && b != b'"' && b != b'\\' {
                continue;
            }
            f.write_str(&s[run..i])?;
            match b {
                b'"' => f.write_str("\\\"")?,
                b'\\' => f.write_str("\\\\")?,
                b'\n' => f.write_str("\\n")?,
                b'\r' => f.write_str("\\r")?,
                b'\t' => f.write_str("\\t")?,
                _ => write!(f, "\\u{b:04x}")?,
            }
            run = i + 1;
        }
        f.write_str(&s[run..])
    }
}

/// A parsed JSON value, borrowing its strings from the parsed text.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue<'a> {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number, held as `f64`.
    Number(f64),
    /// A string, unescaped: borrowed from the input unless the literal
    /// contains an escape.
    String(Cow<'a, str>),
    /// An array.
    Array(Vec<JsonValue<'a>>),
    /// An object's members in document order, keys unescaped and
    /// borrowed like strings. A repeated key keeps every member;
    /// [`JsonValue::get`] reads the last.
    Object(Vec<(Cow<'a, str>, JsonValue<'a>)>),
}

/// A parse failure, with the byte offset where it happened.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure in the input.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

impl<'a> JsonValue<'a> {
    /// Parse a complete JSON document (RFC 8259). Trailing whitespace
    /// is allowed; trailing garbage, raw control characters in strings,
    /// numbers outside the grammar or the `f64` range, and nesting
    /// deeper than [`MAX_JSON_DEPTH`] are errors.
    pub fn parse(input: &'a str) -> Result<JsonValue<'a>, JsonError> {
        let mut p = Parser {
            src: input,
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after JSON value"));
        }
        Ok(v)
    }

    /// Object field lookup: the value of the last member named `key`;
    /// `None` for non-objects or missing keys.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&JsonValue<'a>> {
        match self {
            JsonValue::Object(members) => {
                members.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v)
            }
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    #[must_use]
    pub fn as_array(&self) -> Option<&[JsonValue<'a>]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The value as an object's members in document order, if it is one.
    #[must_use]
    pub fn as_object(&self) -> Option<&[(Cow<'a, str>, JsonValue<'a>)]> {
        match self {
            JsonValue::Object(members) => Some(members),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is a number with an
    /// exact `u64` representation.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as a string, if it is one.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }
}

struct Parser<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.to_string(),
        }
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

    /// Consumes `b` if it is next; whether it was.
    fn eat(&mut self, b: u8) -> bool {
        let next = self.peek() == Some(b);
        self.pos += usize::from(next);
        next
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.eat(b) {
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue<'a>) -> Result<JsonValue<'a>, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<JsonValue<'a>, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'"') => self.string().map(JsonValue::String),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Parses one array or object one level deeper, refusing to pass
    /// [`MAX_JSON_DEPTH`].
    fn nested(
        &mut self,
        container: fn(&mut Self) -> Result<JsonValue<'a>, JsonError>,
    ) -> Result<JsonValue<'a>, JsonError> {
        if self.depth == MAX_JSON_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_JSON_DEPTH} levels")));
        }
        self.depth += 1;
        let v = container(self);
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<JsonValue<'a>, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat(b']') {
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue<'a>, JsonError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.eat(b'}') {
            return Ok(JsonValue::Object(members));
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
                    return Ok(JsonValue::Object(members));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    /// A string literal, unescaped: a slice of the input when it holds
    /// no escape, else a copy with the escapes decoded.
    fn string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.expect(b'"')?;
        let mut unescaped: Option<String> = None;
        loop {
            // Take everything up to the next quote, backslash or control
            // byte as one slice. All three are ASCII, so the run ends on
            // a char boundary of the (valid UTF-8) input.
            let rest = &self.bytes[self.pos..];
            let run = rest
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                .unwrap_or(rest.len());
            let text = &self.src[self.pos..self.pos + run];
            self.pos += run;
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(match unescaped {
                        None => Cow::Borrowed(text),
                        Some(mut out) => {
                            out.push_str(text);
                            Cow::Owned(out)
                        }
                    });
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let c = match self.peek() {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'b') => '\u{0008}',
                        Some(b'f') => '\u{000c}',
                        Some(b'u') => {
                            let code = self.hex4()?;
                            // Surrogates are not needed for our ASCII
                            // exporters; map them to the replacement char.
                            char::from_u32(code).unwrap_or('\u{fffd}')
                        }
                        _ => return Err(self.err("invalid escape")),
                    };
                    let out = unescaped.get_or_insert_with(String::new);
                    out.push_str(text);
                    out.push(c);
                    self.pos += 1;
                }
                Some(_) => return Err(self.err("unescaped control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    /// The code unit of a `\u` escape: exactly four ASCII hex digits
    /// after the `u` at `pos`, which is left on the last digit.
    fn hex4(&mut self) -> Result<u32, JsonError> {
        let digits = self
            .bytes
            .get(self.pos + 1..self.pos + 5)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let mut code = 0;
        for &d in digits {
            let v = char::from(d)
                .to_digit(16)
                .ok_or_else(|| self.err("\\u escape needs four hex digits"))?;
            code = code * 16 + v;
        }
        self.pos += 4;
        Ok(code)
    }

    /// Consumes a run of ASCII digits; whether there was at least one.
    fn digits(&mut self) -> bool {
        let n = self.bytes[self.pos..]
            .iter()
            .take_while(|b| b.is_ascii_digit())
            .count();
        self.pos += n;
        n > 0
    }

    fn number(&mut self) -> Result<JsonValue<'a>, JsonError> {
        // -? (0 | [1-9][0-9]*) (.[0-9]+)? ([eE][+-]?[0-9]+)?
        let start = self.pos;
        self.eat(b'-');
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                self.digits();
            }
            _ => return Err(self.err("expected digit in number")),
        }
        if self.eat(b'.') && !self.digits() {
            return Err(self.err("expected digit after decimal point"));
        }
        if self.eat(b'e') || self.eat(b'E') {
            if !self.eat(b'+') {
                self.eat(b'-');
            }
            if !self.digits() {
                return Err(self.err("expected digit in exponent"));
            }
        }
        let text = &self.src[start..self.pos];
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(JsonValue::Number(n)),
            _ => Err(JsonError {
                offset: start,
                message: format!("number '{text}' out of range"),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_round_trips_through_parser() {
        let nasty = "a\"b\\c\nd\te\u{1}f";
        let doc = format!("{{\"k\":\"{}\"}}", escape_json(nasty));
        let v = JsonValue::parse(&doc).expect("parse");
        assert_eq!(v.get("k").and_then(JsonValue::as_str), Some(nasty));
    }

    #[test]
    fn parses_nested_document() {
        let doc = r#"
            {"traceEvents": [
                {"ph": "X", "ts": 0.5, "dur": 12, "pid": 0, "tid": 3},
                {"ph": "i", "name": "fault", "s": "t"}
            ],
            "ok": true, "none": null, "neg": -3.25e2}
        "#;
        let v = JsonValue::parse(doc).expect("parse");
        let events = v.get("traceEvents").and_then(JsonValue::as_array).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].get("dur").and_then(JsonValue::as_u64), Some(12));
        assert_eq!(events[0].get("ts").and_then(JsonValue::as_f64), Some(0.5));
        assert_eq!(v.get("ok"), Some(&JsonValue::Bool(true)));
        assert_eq!(v.get("none"), Some(&JsonValue::Null));
        assert_eq!(v.get("neg").and_then(JsonValue::as_f64), Some(-325.0));
        assert_eq!(v.get("neg").and_then(JsonValue::as_u64), None);
    }

    #[test]
    fn rejects_garbage() {
        assert!(JsonValue::parse("").is_err());
        assert!(JsonValue::parse("{").is_err());
        assert!(JsonValue::parse("[1,]").is_err());
        assert!(JsonValue::parse("{\"a\":1} x").is_err());
        assert!(JsonValue::parse("nul").is_err());
        assert!(JsonValue::parse("\"open").is_err());
    }

    #[test]
    fn accepts_exactly_the_rfc_8259_grammar() {
        // (input, accepted)
        const CASES: &[(&str, bool)] = &[
            ("0", true),
            ("-0", true),
            ("12.5e-3", true),
            ("1E+2", true),
            ("-10.25e5", true),
            ("1e-400", true), // underflows to 0.0, which is finite
            ("01", false),
            ("-01", false),
            ("-.5", false),
            (".5", false),
            ("1.", false),
            ("1.e5", false),
            ("1e", false),
            ("1e+", false),
            ("+1", false),
            ("-", false),
            ("1e400", false),
            ("-1e400", false),
            (r#""\u0041\u00e9""#, true),
            (r#""\u+041""#, false),
            (r#""\u-041""#, false),
            (r#""\u004""#, false),
            (r#""\u00g1""#, false),
            (r#""\"\\\/\b\f\n\r\t""#, true),
            (r#""\x""#, false),
            ("\"a\u{1}b\"", false),
            ("\"tab\there\"", false),
            ("\"line\nbreak\"", false),
            ("\"\u{1f}\"", false),
            ("\"\u{7f} \u{e9} \u{2713} \u{1f600}\"", true),
            ("[1,2]", true),
            ("[1,]", false),
            ("[1 2]", false),
            ("{\"a\":1,}", false),
            ("{a:1}", false),
            (" null ", true),
            ("True", false),
            ("null x", false),
        ];
        for &(input, accepted) in CASES {
            assert_eq!(JsonValue::parse(input).is_ok(), accepted, "{input:?}");
        }
        assert_eq!(
            JsonValue::parse(r#""\u0041\u00e9""#),
            Ok(JsonValue::String("A\u{e9}".into()))
        );
        assert_eq!(JsonValue::parse("1e-400"), Ok(JsonValue::Number(0.0)));
    }

    #[test]
    fn nesting_is_bounded_without_overflowing_the_stack() {
        let nest = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(JsonValue::parse(&nest(MAX_JSON_DEPTH)).is_ok());
        let err = JsonValue::parse(&nest(MAX_JSON_DEPTH + 1)).unwrap_err();
        assert_eq!(err.offset, MAX_JSON_DEPTH, "{err}");
        // Far deeper than any stack allows: an error, not an abort.
        assert!(JsonValue::parse(&"[".repeat(100_000)).is_err());
        assert!(JsonValue::parse(&"{\"k\":".repeat(100_000)).is_err());
    }

    #[test]
    fn strings_borrow_from_the_input_unless_escaped() {
        let doc = r#"{"plain":"text","esc\u0041ped":"a\"b\nc"}"#;
        let v = JsonValue::parse(doc).expect("parse");
        let members = v.as_object().expect("object");
        let within = |s: &str| doc.as_bytes().as_ptr_range().contains(&s.as_ptr());
        let (key, value) = &members[0];
        assert!(matches!(key, Cow::Borrowed(k) if within(k) && *k == "plain"));
        assert!(matches!(value, JsonValue::String(Cow::Borrowed(s)) if within(s) && *s == "text"));
        let (key, value) = &members[1];
        assert!(matches!(key, Cow::Owned(k) if k == "escAped"));
        assert!(matches!(value, JsonValue::String(Cow::Owned(s)) if s == "a\"b\nc"));
    }

    #[test]
    fn objects_keep_document_order_and_the_last_repeated_key() {
        let v = JsonValue::parse(r#"{"a":1,"a":2}"#).expect("parse");
        assert_eq!(v.get("a").and_then(JsonValue::as_u64), Some(2));
        let v = JsonValue::parse(r#"{"z":0,"m":1,"a":2,"m":3}"#).expect("parse");
        let keys: Vec<&str> = v.as_object().unwrap().iter().map(|(k, _)| &**k).collect();
        assert_eq!(keys, ["z", "m", "a", "m"]);
        assert_eq!(v.get("m").and_then(JsonValue::as_u64), Some(3));
    }

    #[test]
    fn empty_containers() {
        assert_eq!(JsonValue::parse("[]").unwrap(), JsonValue::Array(vec![]));
        assert_eq!(
            JsonValue::parse(" { } ").unwrap(),
            JsonValue::Object(Vec::new())
        );
    }
}
