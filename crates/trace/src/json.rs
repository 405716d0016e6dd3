//! A minimal, dependency-free JSON reader — just enough to *validate*
//! what [`crate::chrome`] writes (and anything else shaped like it).
//!
//! The workspace's serde_json shim covers typed deserialization of
//! known structs; trace validation needs the opposite — walking an
//! arbitrary document (`traceEvents` arrays with heterogeneous `args`)
//! without declaring its shape up front. This recursive-descent parser
//! produces a generic [`JsonValue`] tree for that. It accepts strict
//! JSON (RFC 8259): no comments, no trailing commas, no NaN/Infinity —
//! exactly what the writer emits and what Perfetto accepts.

use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON document node.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (stored as `f64`; trace timestamps fit exactly
    /// up to 2^53 microseconds ≈ 285 years).
    Num(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<JsonValue>),
    /// Object (key-ordered for deterministic comparisons).
    Obj(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// The object field `key`, if this is an object containing it.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    #[must_use]
    pub fn as_num(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }
}

/// Parse error: byte offset plus message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input where parsing failed.
    pub at: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for JsonError {}

/// Parses one complete JSON document; trailing non-whitespace is an
/// error.
///
/// # Errors
///
/// Returns a [`JsonError`] with the byte offset of the first problem.
pub fn parse(input: &str) -> Result<JsonValue, JsonError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing data after document"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError {
            at: self.pos,
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

    fn literal(&mut self, word: &str, v: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(map));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run of plain bytes up to the next quote,
            // backslash or raw control byte in one piece. The input is a
            // `&str` and every delimiter is ASCII, so the run's ends are
            // char boundaries; validating only the run keeps parsing
            // linear in the document size.
            let run = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                .unwrap_or(self.bytes.len() - self.pos);
            if run > 0 {
                let text = std::str::from_utf8(&self.bytes[self.pos..self.pos + run])
                    .map_err(|_| self.err("invalid utf-8"))?;
                out.push_str(text);
                self.pos += run;
            }
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("bad escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are not needed for trace
                            // content; map lone surrogates to U+FFFD.
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                // Otherwise the run stopped at a raw control byte.
                Some(_) => return Err(self.err("raw control char in string")),
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid utf-8 in number"))?;
        text.parse::<f64>()
            .map(JsonValue::Num)
            .map_err(|_| self.err("malformed number"))
    }
}

/// A minimal streaming JSON writer — the shared counterpart of this
/// module's reader. `FlowReport::to_json`, the compile server's
/// response envelopes and the NDJSON progress stream all write through
/// it, so there is exactly one place that gets escaping and comma
/// placement right.
///
/// The writer is a plain builder over nested objects/arrays; `finish`
/// closes every open scope and returns the document. Numbers are
/// emitted via Rust's `Display`, which for finite `f64` is valid JSON;
/// non-finite floats are written as `null` (strict JSON has no NaN).
///
/// ```
/// use msaf_trace::json::JsonWriter;
///
/// let mut w = JsonWriter::object();
/// w.field_str("name", "fir4");
/// w.begin_array("sizes");
/// w.item_u64(1);
/// w.item_u64(2);
/// w.end();
/// let doc = w.finish();
/// assert_eq!(doc, r#"{"name":"fir4","sizes":[1,2]}"#);
/// msaf_trace::json::parse(&doc).expect("well-formed");
/// ```
#[derive(Debug)]
pub struct JsonWriter {
    out: String,
    /// Open scopes: `true` = array, `false` = object; paired with
    /// whether the scope already has a member (comma placement).
    stack: Vec<(bool, bool)>,
}

impl JsonWriter {
    /// Starts a document whose root is an object.
    #[must_use]
    pub fn object() -> Self {
        Self {
            out: "{".to_string(),
            stack: vec![(false, false)],
        }
    }

    fn comma(&mut self) {
        if let Some((_, has_members)) = self.stack.last_mut() {
            if *has_members {
                self.out.push(',');
            }
            *has_members = true;
        }
    }

    fn key(&mut self, key: &str) {
        self.comma();
        self.out.push('"');
        self.out.push_str(&escape(key));
        self.out.push_str("\":");
    }

    fn number_f64(out: &mut String, v: f64) {
        if v.is_finite() {
            out.push_str(&v.to_string());
        } else {
            out.push_str("null");
        }
    }

    /// Writes a string field on the current object.
    pub fn field_str(&mut self, key: &str, v: &str) {
        self.key(key);
        self.out.push('"');
        self.out.push_str(&escape(v));
        self.out.push('"');
    }

    /// Writes an unsigned integer field on the current object.
    pub fn field_u64(&mut self, key: &str, v: u64) {
        self.key(key);
        self.out.push_str(&v.to_string());
    }

    /// Writes a float field on the current object (`null` if
    /// non-finite).
    pub fn field_f64(&mut self, key: &str, v: f64) {
        self.key(key);
        Self::number_f64(&mut self.out, v);
    }

    /// Writes a boolean field on the current object.
    pub fn field_bool(&mut self, key: &str, v: bool) {
        self.key(key);
        self.out.push_str(if v { "true" } else { "false" });
    }

    /// Writes a pre-serialized JSON value as a field — the escape hatch
    /// for embedding one document in another (e.g. an artifact's JSON
    /// inside a response envelope). The caller vouches that `raw` is
    /// well-formed.
    pub fn field_raw(&mut self, key: &str, raw: &str) {
        self.key(key);
        self.out.push_str(raw);
    }

    /// Opens a nested object field; close with [`JsonWriter::end`].
    pub fn begin_object(&mut self, key: &str) {
        self.key(key);
        self.out.push('{');
        self.stack.push((false, false));
    }

    /// Opens a nested array field; close with [`JsonWriter::end`].
    pub fn begin_array(&mut self, key: &str) {
        self.key(key);
        self.out.push('[');
        self.stack.push((true, false));
    }

    /// Writes an unsigned integer element on the current array.
    pub fn item_u64(&mut self, v: u64) {
        self.comma();
        self.out.push_str(&v.to_string());
    }

    /// Writes a string element on the current array.
    pub fn item_str(&mut self, v: &str) {
        self.comma();
        self.out.push('"');
        self.out.push_str(&escape(v));
        self.out.push('"');
    }

    /// Closes the innermost open object/array. The root scope is closed
    /// by [`JsonWriter::finish`], not by `end`.
    pub fn end(&mut self) {
        if self.stack.len() > 1 {
            let (is_array, _) = self.stack.pop().expect("non-empty stack");
            self.out.push(if is_array { ']' } else { '}' });
        }
    }

    /// Closes every open scope and returns the finished document.
    #[must_use]
    pub fn finish(mut self) -> String {
        while self.stack.len() > 1 {
            self.end();
        }
        self.out.push('}');
        self.out
    }
}

/// Escapes `s` for embedding in a JSON string literal (quotes not
/// included). The writer half of this module's reader.
#[must_use]
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let v = parse(r#"{"a": [1, 2.5, -3e2], "b": {"s": "x\ny", "t": true, "n": null}}"#)
            .expect("parses");
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(
            v.get("a").unwrap().as_arr().unwrap()[2].as_num(),
            Some(-300.0)
        );
        assert_eq!(v.get("b").unwrap().get("s").unwrap().as_str(), Some("x\ny"));
        assert_eq!(v.get("b").unwrap().get("t"), Some(&JsonValue::Bool(true)));
        assert_eq!(v.get("b").unwrap().get("n"), Some(&JsonValue::Null));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "[1] trailing",
            "\"unterminated",
            "{'single':1}",
            "nan",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn escape_round_trips_through_parse() {
        let nasty = "a\"b\\c\nd\te\u{0007}f";
        let doc = format!("\"{}\"", escape(nasty));
        assert_eq!(parse(&doc).unwrap().as_str(), Some(nasty));
    }

    #[test]
    fn strings_decode_multibyte_runs_and_escapes() {
        for (doc, want) in [
            (r#""""#, ""),
            // 2-, 3- and 4-byte UTF-8 characters, alone and mixed.
            (r#""é½€😀""#, "é½€😀"),
            (r#""aé\n½b€\t😀""#, "aé\n½b€\t😀"),
            // Escapes right next to runs.
            (r#""a\nb""#, "a\nb"),
            (r#""\"x""#, "\"x"),
            (r#""x\"""#, "x\""),
            (r#""\\\/""#, "\\/"),
            (r#""Aéz\u001f""#, "Aéz\u{1f}"),
            (r#""\u00e9\u00E9x\u0041""#, "ééxA"),
        ] {
            assert_eq!(parse(doc).unwrap().as_str(), Some(want), "{doc}");
        }
        let keys = parse(r#"{"":1,"ключ":2}"#).unwrap();
        assert_eq!(keys.get("ключ").unwrap().as_num(), Some(2.0));
        assert_eq!(keys.get("").unwrap().as_num(), Some(1.0));
    }

    #[test]
    fn raw_control_chars_are_rejected_inside_runs() {
        for bad in ["\"a\u{1}b\"", "\"\n\"", "\"é\tx\"", "{\"k\u{1f}\":1}"] {
            let err = parse(bad).expect_err(bad);
            assert_eq!(err.msg, "raw control char in string", "{bad:?}");
        }
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // A decoder that re-validates the rest of the input per
        // character needs minutes for 4 MiB; a linear one needs
        // milliseconds, even in a debug build.
        let body = "abcé€".repeat(1 << 19);
        let doc = format!("\"{body}\"");
        let start = std::time::Instant::now();
        let v = parse(&doc).expect("parses");
        let elapsed = start.elapsed();
        assert_eq!(v.as_str(), Some(body.as_str()));
        assert!(
            elapsed < std::time::Duration::from_secs(2),
            "a {} byte string took {elapsed:?}",
            body.len()
        );
    }

    #[test]
    fn writer_produces_parseable_nested_documents() {
        let mut w = JsonWriter::object();
        w.field_str("name", "a\"b");
        w.field_u64("count", 42);
        w.field_f64("cost", -1.5);
        w.field_f64("nan", f64::NAN);
        w.field_bool("ok", true);
        w.begin_object("inner");
        w.begin_array("xs");
        w.item_u64(1);
        w.item_str("two");
        w.end();
        w.field_raw("raw", "[0,null]");
        // finish() closes the still-open inner object.
        let doc = w.finish();
        let v = parse(&doc).expect("writer output parses");
        assert_eq!(v.get("name").unwrap().as_str(), Some("a\"b"));
        assert_eq!(v.get("count").unwrap().as_num(), Some(42.0));
        assert_eq!(v.get("cost").unwrap().as_num(), Some(-1.5));
        assert_eq!(v.get("nan"), Some(&JsonValue::Null));
        assert_eq!(v.get("ok"), Some(&JsonValue::Bool(true)));
        let inner = v.get("inner").unwrap();
        let xs = inner.get("xs").unwrap().as_arr().unwrap();
        assert_eq!(xs.len(), 2);
        assert_eq!(xs[1].as_str(), Some("two"));
        assert_eq!(
            inner.get("raw").unwrap().as_arr().unwrap()[1],
            JsonValue::Null
        );
    }

    #[test]
    fn writer_empty_object_and_array() {
        let mut w = JsonWriter::object();
        w.begin_array("empty");
        w.end();
        w.begin_object("hollow");
        w.end();
        let doc = w.finish();
        assert_eq!(doc, r#"{"empty":[],"hollow":{}}"#);
        parse(&doc).expect("well-formed");
    }
}
