//! The JSON reader that derived [`Deserialize`](crate::Deserialize)
//! impls pull their tokens from.
//!
//! Every byte of the input is either read into a value or skipped, and
//! a skipped value is checked exactly like a read one (syntax, number
//! ranges, string escapes and the nesting limit), so the reader accepts
//! the same documents whichever fields a type declares.

use crate::Error;
use std::borrow::Cow;

/// Deepest nesting of arrays and objects the reader accepts — the real
/// `serde_json`'s recursion limit. Reading and skipping spend stack
/// frames per level, so without a limit deep input overflows the stack.
pub const RECURSION_LIMIT: usize = 128;

/// A JSON number as written: an unsigned or negative integer, or a
/// float (a fraction or an exponent is present).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Number {
    /// A non-negative integer.
    UInt(u128),
    /// An integer with a leading `-` (`-0` included).
    Int(i128),
    /// A number with a fraction or an exponent.
    Float(f64),
}

/// An enum's externally tagged variant, as [`Deserializer::variant`]
/// finds it.
pub enum Variant<'a> {
    /// `"Tag"`: a unit variant.
    Unit(Cow<'a, str>),
    /// `{"Tag": content}`: a data variant; the content is next.
    Data(Cow<'a, str>),
}

/// A pull reader over one JSON document.
///
/// An object is read as [`Self::begin_object`], then [`Self::next_key`]
/// until it returns `None`, reading or skipping the value after each
/// key. A tuple is read as [`Self::begin_array`], then
/// [`Self::element`] before each element it needs, then
/// [`Self::end_array`], which skips the rest.
pub struct Deserializer<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
    /// The innermost open container has no item yet.
    empty: bool,
}

impl<'a> Deserializer<'a> {
    /// A reader at the start of `src`.
    #[must_use]
    pub fn new(src: &'a str) -> Self {
        Self {
            src,
            bytes: src.as_bytes(),
            pos: 0,
            depth: 0,
            empty: false,
        }
    }

    /// Checks that only whitespace follows the document.
    ///
    /// # Errors
    ///
    /// Trailing characters.
    pub fn end(&mut self) -> Result<(), Error> {
        self.skip_ws();
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(self.error("trailing characters"))
        }
    }

    fn error(&self, what: &str) -> Error {
        Error(format!("{what} at byte {}", self.pos))
    }

    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.bytes.get(self.pos) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    /// Whitespace, then the next byte.
    fn next_byte(&mut self) -> Option<u8> {
        self.skip_ws();
        self.peek()
    }

    fn literal(&mut self, lit: &str) -> Result<(), Error> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.error("invalid literal"))
        }
    }

    fn begin(&mut self, open: u8) -> Result<(), Error> {
        if self.next_byte() != Some(open) {
            return Err(self.error(&format!("expected '{}'", char::from(open))));
        }
        if self.depth == RECURSION_LIMIT {
            return Err(self.error(&format!(
                "recursion limit exceeded: more than {RECURSION_LIMIT} nested arrays or objects"
            )));
        }
        self.pos += 1;
        self.depth += 1;
        self.empty = true;
        Ok(())
    }

    /// Moves past the separator before the innermost container's next
    /// item; `false` (with the container closed) at its end.
    fn next_item(&mut self, close: u8) -> Result<bool, Error> {
        let b = self.next_byte();
        if std::mem::replace(&mut self.empty, false) {
            if b != Some(close) {
                return Ok(true);
            }
        } else if b == Some(b',') {
            self.pos += 1;
            return Ok(true);
        } else if b != Some(close) {
            return Err(self.error(&format!("expected ',' or '{}'", char::from(close))));
        }
        self.pos += 1;
        self.depth -= 1;
        Ok(false)
    }

    /// Opens an object.
    ///
    /// # Errors
    ///
    /// The next value is not an object, or is nested too deep.
    pub fn begin_object(&mut self) -> Result<(), Error> {
        self.begin(b'{')
    }

    /// The open object's next key, read up to its `:`; `None` once the
    /// object is closed. Escapes in the key are decoded.
    ///
    /// # Errors
    ///
    /// Malformed JSON.
    pub fn next_key(&mut self) -> Result<Option<Cow<'a, str>>, Error> {
        if !self.next_item(b'}')? {
            return Ok(None);
        }
        let key = self.str()?;
        if self.next_byte() != Some(b':') {
            return Err(self.error("expected ':'"));
        }
        self.pos += 1;
        Ok(Some(key))
    }

    /// Opens an array.
    ///
    /// # Errors
    ///
    /// The next value is not an array, or is nested too deep.
    pub fn begin_array(&mut self) -> Result<(), Error> {
        self.begin(b'[')
    }

    /// Whether the open array has another element (read it next);
    /// `false` once the array is closed.
    ///
    /// # Errors
    ///
    /// Malformed JSON.
    pub(crate) fn next_element(&mut self) -> Result<bool, Error> {
        self.next_item(b']')
    }

    /// Moves to element `index` of a tuple, which must be there.
    ///
    /// # Errors
    ///
    /// The array ended before it, or malformed JSON.
    pub fn element(&mut self, index: usize) -> Result<(), Error> {
        if self.next_element()? {
            Ok(())
        } else {
            Err(Error(format!("invalid length, no element {index}")))
        }
    }

    /// Skips the open array's remaining elements and closes it.
    ///
    /// # Errors
    ///
    /// Malformed JSON.
    pub fn end_array(&mut self) -> Result<(), Error> {
        while self.next_element()? {
            self.skip_value()?;
        }
        Ok(())
    }

    /// Reads `null` if it comes next.
    ///
    /// # Errors
    ///
    /// A malformed literal starting with `n`.
    pub(crate) fn null(&mut self) -> Result<bool, Error> {
        if self.next_byte() == Some(b'n') {
            self.literal("null")?;
            Ok(true)
        } else {
            Ok(false)
        }
    }

    /// Reads `true` or `false`.
    ///
    /// # Errors
    ///
    /// Anything else.
    pub(crate) fn bool(&mut self) -> Result<bool, Error> {
        match self.next_byte() {
            Some(b't') => self.literal("true").map(|()| true),
            Some(b'f') => self.literal("false").map(|()| false),
            _ => Err(self.error("expected bool")),
        }
    }

    /// Reads a number; `what` names the expected type in the error.
    ///
    /// # Errors
    ///
    /// Not a number, or an integer outside `i128`/`u128`.
    pub(crate) fn number(&mut self, what: &str) -> Result<Number, Error> {
        match self.next_byte() {
            Some(b'-' | b'0'..=b'9') => {}
            _ => return Err(self.error(&format!("expected {what}"))),
        }
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        // Accumulate the integer digits as they are scanned: most
        // numbers in an artifact are small unsigned integers.
        let mut value: Option<u128> = Some(0);
        while let Some(d @ b'0'..=b'9') = self.peek() {
            value = value
                .and_then(|v| v.checked_mul(10))
                .and_then(|v| v.checked_add(u128::from(d - b'0')));
            self.pos += 1;
        }
        let mut float = false;
        if self.peek() == Some(b'.') {
            float = true;
            self.pos += 1;
            while let Some(b'0'..=b'9') = self.peek() {
                self.pos += 1;
            }
        }
        if let Some(b'e' | b'E') = self.peek() {
            float = true;
            self.pos += 1;
            if let Some(b'+' | b'-') = self.peek() {
                self.pos += 1;
            }
            while let Some(b'0'..=b'9') = self.peek() {
                self.pos += 1;
            }
        }
        let text = &self.src[start..self.pos];
        let invalid = || Error(format!("invalid number '{text}'"));
        if float {
            text.parse().map(Number::Float).map_err(|_| invalid())
        } else if negative {
            text.parse().map(Number::Int).map_err(|_| invalid())
        } else {
            value.map(Number::UInt).ok_or_else(invalid)
        }
    }

    /// Reads a string, borrowing it from the input unless it holds
    /// escapes.
    ///
    /// # Errors
    ///
    /// Not a string, an unterminated string or a bad escape.
    pub(crate) fn str(&mut self) -> Result<Cow<'a, str>, Error> {
        if self.next_byte() != Some(b'"') {
            return Err(self.error("expected '\"'"));
        }
        self.pos += 1;
        let start = self.pos;
        let run = self.run_len();
        self.pos += run;
        match self.peek() {
            None => Err(Error("unterminated string".into())),
            Some(b'"') => {
                self.pos += 1;
                // Both ends sit next to ASCII quotes: char boundaries.
                Ok(Cow::Borrowed(&self.src[start..start + run]))
            }
            Some(_) => {
                let mut out = String::from(&self.src[start..start + run]);
                self.unescape_rest(&mut out)?;
                Ok(Cow::Owned(out))
            }
        }
    }

    /// Plain bytes from here to the next quote or backslash.
    fn run_len(&self) -> usize {
        self.bytes[self.pos..]
            .iter()
            .position(|&b| b == b'"' || b == b'\\')
            .unwrap_or(self.bytes.len() - self.pos)
    }

    /// Decodes a string from a backslash up to its closing quote.
    fn unescape_rest(&mut self, out: &mut String) -> Result<(), Error> {
        loop {
            // The byte here is a backslash: decode one escape.
            self.pos += 1;
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
                    let hex = self
                        .bytes
                        .get(self.pos..self.pos + 4)
                        .ok_or_else(|| Error("truncated \\u escape".into()))?;
                    let cp = std::str::from_utf8(hex)
                        .ok()
                        .and_then(|hex| u32::from_str_radix(hex, 16).ok())
                        .ok_or_else(|| Error("bad \\u escape".into()))?;
                    self.pos += 4;
                    // The writer never produces surrogate pairs; decode
                    // BMP scalars only.
                    out.push(char::from_u32(cp).ok_or_else(|| Error("invalid \\u scalar".into()))?);
                }
                other => return Err(Error(format!("bad escape '\\{}'", char::from(other)))),
            }
            let run = self.run_len();
            // The run starts after an ASCII escape or 4 hex digits and
            // stops at an ASCII delimiter: char boundaries.
            out.push_str(&self.src[self.pos..self.pos + run]);
            self.pos += run;
            match self.peek() {
                None => return Err(Error("unterminated string".into())),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(());
                }
                Some(_) => {}
            }
        }
    }

    /// Reads past the next value of any kind, checking it as strictly
    /// as reading it would.
    ///
    /// # Errors
    ///
    /// Malformed JSON, an out-of-range integer or nesting too deep.
    pub fn skip_value(&mut self) -> Result<(), Error> {
        match self.next_byte() {
            Some(b'n') => self.literal("null"),
            Some(b't') => self.literal("true"),
            Some(b'f') => self.literal("false"),
            Some(b'"') => self.str().map(drop),
            Some(b'-' | b'0'..=b'9') => self.number("number").map(drop),
            Some(b'[') => {
                self.begin_array()?;
                self.end_array()
            }
            Some(b'{') => {
                self.begin_object()?;
                while self.next_key()?.is_some() {
                    self.skip_value()?;
                }
                Ok(())
            }
            other => Err(self.error(&format!("unexpected {:?}", other.map(char::from)))),
        }
    }

    /// Reads an externally tagged enum's tag: `"Tag"`, or the one key of
    /// `{"Tag": content}`, leaving the content next.
    ///
    /// # Errors
    ///
    /// Neither a string nor a non-empty object, or malformed JSON.
    pub fn variant(&mut self, ty: &str) -> Result<Variant<'a>, Error> {
        match self.next_byte() {
            Some(b'"') => return self.str().map(Variant::Unit),
            Some(b'{') => {
                self.begin_object()?;
                if let Some(tag) = self.next_key()? {
                    return Ok(Variant::Data(tag));
                }
            }
            _ => {}
        }
        Err(self.error(&format!("bad enum encoding for {ty}")))
    }

    /// Closes a data variant's object after its content.
    ///
    /// # Errors
    ///
    /// The object holds a second key, or malformed JSON.
    pub fn end_variant(&mut self, ty: &str) -> Result<(), Error> {
        match self.next_key()? {
            None => Ok(()),
            Some(_) => Err(self.error(&format!("bad enum encoding for {ty}"))),
        }
    }
}
