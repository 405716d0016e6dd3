//! Local JSON front-end for the serde shim: renders [`serde::Value`] trees
//! to JSON text and parses JSON text back, exposing the same
//! `to_string` / `to_string_pretty` / `from_str` entry points the real
//! `serde_json` provides.

#![forbid(unsafe_code)]

use serde::{Deserialize, Serialize, Value};

/// JSON (de)serialization error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(String);

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for Error {}

impl From<serde::Error> for Error {
    fn from(e: serde::Error) -> Self {
        Error(e.0)
    }
}

/// Serializes `value` to compact JSON.
///
/// # Errors
///
/// Never fails for the shim's value model; the `Result` mirrors the real
/// `serde_json` signature.
pub fn to_string<T: Serialize>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.to_value(), &mut out, None, 0);
    Ok(out)
}

/// Serializes `value` to human-readable, 2-space-indented JSON.
///
/// # Errors
///
/// Never fails for the shim's value model (see [`to_string`]).
pub fn to_string_pretty<T: Serialize>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.to_value(), &mut out, Some(2), 0);
    Ok(out)
}

/// Parses JSON text into a `T`.
///
/// # Errors
///
/// Malformed JSON or a shape mismatch with `T`.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    Ok(T::from_value(&parse(s)?)?)
}

/// Parses one complete JSON document into the shim's value tree.
fn parse(s: &str) -> Result<Value, Error> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error(format!("trailing characters at byte {}", p.pos)));
    }
    Ok(v)
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

fn write_value(v: &Value, out: &mut String, indent: Option<usize>, depth: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::UInt(u) => out.push_str(&u.to_string()),
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::Float(f) => {
            if f.is_finite() {
                let s = f.to_string();
                out.push_str(&s);
                // Keep floats distinguishable from integers on re-parse.
                if !s.contains('.') && !s.contains('e') && !s.contains('E') {
                    out.push_str(".0");
                }
            } else {
                // JSON has no Inf/NaN; serde_json writes null.
                out.push_str("null");
            }
        }
        Value::Str(s) => write_string(s, out),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_value(item, out, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push(']');
        }
        Value::Object(pairs) => {
            if pairs.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, val)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_string(k, out);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(val, out, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push('}');
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(w) = indent {
        out.push('\n');
        for _ in 0..w * depth {
            out.push(' ');
        }
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

/// Deepest nesting of arrays and objects `from_str` accepts — the real
/// `serde_json`'s recursion limit. The parser spends one stack frame
/// per level, so without a limit deep input overflows the stack.
const RECURSION_LIMIT: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
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

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error(format!(
                "expected '{}' at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn parse_value(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.parse_lit("null", Value::Null),
            Some(b't') => self.parse_lit("true", Value::Bool(true)),
            Some(b'f') => self.parse_lit("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.parse_string()?)),
            Some(open @ (b'[' | b'{')) => {
                if self.depth == RECURSION_LIMIT {
                    return Err(Error(format!(
                        "recursion limit exceeded: more than {RECURSION_LIMIT} nested arrays or objects at byte {}",
                        self.pos
                    )));
                }
                self.depth += 1;
                let v = if open == b'[' {
                    self.parse_array()
                } else {
                    self.parse_object()
                };
                self.depth -= 1;
                v
            }
            Some(b'-') | Some(b'0'..=b'9') => self.parse_number(),
            other => Err(Error(format!(
                "unexpected {:?} at byte {}",
                other.map(|b| b as char),
                self.pos
            ))),
        }
    }

    fn parse_lit(&mut self, lit: &str, v: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(Error(format!("invalid literal at byte {}", self.pos)))
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run of plain bytes up to the next quote or
            // backslash in one piece. The input came in as a `&str` and
            // both delimiters are ASCII, so the run's ends are char
            // boundaries; validating only the run keeps decoding linear
            // in the document size.
            let run = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .unwrap_or(self.bytes.len() - self.pos);
            if run > 0 {
                let text = std::str::from_utf8(&self.bytes[self.pos..self.pos + run])
                    .map_err(|_| Error("invalid utf-8".into()))?;
                out.push_str(text);
                self.pos += run;
            }
            match self.peek() {
                None => return Err(Error("unterminated string".into())),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                // Otherwise the run stopped at a backslash.
                Some(_) => self.pos += 1,
            }
            let Some(e) = self.peek() else {
                return Err(Error("unterminated escape".into()));
            };
            self.pos += 1;
            match e {
                b'"' => out.push('"'),
                b'\\' => out.push('\\'),
                b'/' => out.push('/'),
                b'n' => out.push('\n'),
                b'r' => out.push('\r'),
                b't' => out.push('\t'),
                b'b' => out.push('\u{0008}'),
                b'f' => out.push('\u{000C}'),
                b'u' => {
                    if self.pos + 4 > self.bytes.len() {
                        return Err(Error("truncated \\u escape".into()));
                    }
                    let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
                        .map_err(|_| Error("bad \\u escape".into()))?;
                    let cp =
                        u32::from_str_radix(hex, 16).map_err(|_| Error("bad \\u escape".into()))?;
                    self.pos += 4;
                    // Surrogate pairs are not produced by the writer;
                    // decode BMP scalars only.
                    out.push(char::from_u32(cp).ok_or_else(|| Error("invalid \\u scalar".into()))?);
                }
                other => {
                    return Err(Error(format!("bad escape '\\{}'", other as char)));
                }
            }
        }
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error("invalid number".into()))?;
        if is_float {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|_| Error(format!("invalid number '{text}'")))
        } else if text.starts_with('-') {
            text.parse::<i128>()
                .map(Value::Int)
                .map_err(|_| Error(format!("invalid number '{text}'")))
        } else {
            text.parse::<u128>()
                .map(Value::UInt)
                .map_err(|_| Error(format!("invalid number '{text}'")))
        }
    }

    fn parse_array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(Error(format!("expected ',' or ']' at byte {}", self.pos))),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.parse_value()?;
            pairs.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(pairs));
                }
                _ => return Err(Error(format!("expected ',' or '}}' at byte {}", self.pos))),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars() {
        assert_eq!(from_str::<u64>(&to_string(&42u64).unwrap()).unwrap(), 42);
        assert_eq!(from_str::<f64>(&to_string(&0.5f64).unwrap()).unwrap(), 0.5);
        assert_eq!(from_str::<f64>(&to_string(&3.0f64).unwrap()).unwrap(), 3.0);
        assert_eq!(
            from_str::<String>(&to_string(&"a\"b\n".to_string()).unwrap()).unwrap(),
            "a\"b\n"
        );
    }

    #[test]
    fn roundtrip_containers() {
        let v = vec![(1u32, true), (2, false)];
        let s = to_string_pretty(&v).unwrap();
        assert_eq!(from_str::<Vec<(u32, bool)>>(&s).unwrap(), v);
        let o: Option<Vec<u8>> = None;
        assert_eq!(
            from_str::<Option<Vec<u8>>>(&to_string(&o).unwrap()).unwrap(),
            None
        );
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
            assert_eq!(from_str::<String>(doc).unwrap(), want, "{doc}");
        }
        for s in ["", "é½€😀 a\"b\\c\n\u{1}", "\"", "\\"] {
            let s = s.to_string();
            assert_eq!(from_str::<String>(&to_string(&s).unwrap()).unwrap(), s);
        }
        assert!(from_str::<String>("\"abc").is_err());
        assert!(from_str::<String>("\"abc\\").is_err());
        assert!(from_str::<String>(r#""\q""#).is_err());
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // A decoder that re-validates the rest of the input per
        // character needs minutes for 4 MiB; a linear one needs
        // milliseconds, even in a debug build.
        let body = "abcé€".repeat(1 << 19);
        let doc = to_string(&body).unwrap();
        let start = std::time::Instant::now();
        let back = from_str::<String>(&doc).unwrap();
        let elapsed = start.elapsed();
        assert_eq!(back, body);
        assert!(
            elapsed < std::time::Duration::from_secs(2),
            "a {} byte string took {elapsed:?}",
            body.len()
        );
    }

    #[test]
    fn nesting_stops_at_the_recursion_limit() {
        let arrays = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        let objects = |depth: usize| "{\"k\":".repeat(depth) + "1" + &"}".repeat(depth);
        for nested in [arrays, objects] {
            assert!(parse(&nested(RECURSION_LIMIT)).is_ok());
            let err = parse(&nested(RECURSION_LIMIT + 1)).expect_err("too deep");
            assert!(
                err.0
                    .starts_with("recursion limit exceeded: more than 128 nested"),
                "{err}"
            );
        }
        // Far past the limit, on a thread with the default 2 MiB stack:
        // a named error, not a stack overflow.
        let hostile = "[".repeat(100_000);
        let err = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || parse(&hostile))
            .expect("spawn")
            .join()
            .expect("parser thread survives")
            .expect_err("rejected");
        assert!(err.0.ends_with("at byte 128"), "{err}");
    }

    #[test]
    fn rejects_garbage() {
        assert!(from_str::<u64>("{").is_err());
        assert!(from_str::<u64>("12 34").is_err());
        assert!(from_str::<bool>("truthy").is_err());
    }
}
