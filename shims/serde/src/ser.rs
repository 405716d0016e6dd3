//! The JSON writer that derived [`Serialize`](crate::Serialize) impls
//! write their tokens into, in field order, straight into the output.

use std::fmt::Write as _;
use std::io;

/// Buffered bytes that make a writer-backed [`Serializer`] hand its
/// output on: small enough to stay in cache, large enough that each
/// hand-off is one long write.
const FLUSH_AT: usize = 16 * 1024;

/// A newline and up to 62 spaces of indentation, pushed in one slice
/// for the usual depths.
const NEWLINE_INDENT: &str = "\n                                                              ";

/// A JSON token writer: compact, or pretty with 2-space indentation.
///
/// Like the real `serde_json`, it writes no space in compact mode,
/// `": "` after keys in pretty mode, `null` for non-finite floats and a
/// `.0` on integral ones. Containers are written as `begin_*`, then
/// [`Self::key`] (in objects) or [`Self::element`] (in arrays) before
/// each item, then `end_*`; an empty container prints as `{}` or `[]`
/// in both modes.
pub struct Serializer<'w> {
    out: String,
    pretty: bool,
    /// Arrays and objects currently open.
    depth: usize,
    /// The innermost open container has no item yet.
    empty: bool,
    /// Where a writer-backed serializer hands its output on.
    sink: Option<&'w mut dyn io::Write>,
    /// The first error the sink returned; later output is dropped.
    error: Option<io::Error>,
}

impl Serializer<'static> {
    /// A serializer that collects its output in a string.
    #[must_use]
    pub fn new(pretty: bool) -> Self {
        Self {
            out: String::new(),
            pretty,
            depth: 0,
            empty: false,
            sink: None,
            error: None,
        }
    }

    /// The JSON written so far.
    #[must_use]
    pub fn into_string(self) -> String {
        self.out
    }
}

impl<'w> Serializer<'w> {
    /// A serializer that hands its output to `sink` in chunks, so the
    /// whole document never sits in memory.
    pub fn with_writer(pretty: bool, sink: &'w mut dyn io::Write) -> Self {
        Self {
            out: String::new(),
            pretty,
            depth: 0,
            empty: false,
            sink: Some(sink),
            error: None,
        }
    }

    /// Hands the rest of the output to the sink.
    ///
    /// # Errors
    ///
    /// The first error the sink returned.
    pub fn finish(mut self) -> io::Result<()> {
        self.flush();
        self.error.map_or(Ok(()), Err)
    }

    fn flush(&mut self) {
        if let Some(sink) = self.sink.as_mut() {
            if self.error.is_none() {
                if let Err(e) = sink.write_all(self.out.as_bytes()) {
                    self.error = Some(e);
                }
            }
            self.out.clear();
        }
    }

    fn newline_indent(&mut self, depth: usize) {
        if self.pretty {
            let spaces = 2 * depth;
            let here = spaces.min(NEWLINE_INDENT.len() - 1);
            self.out.push_str(&NEWLINE_INDENT[..=here]);
            for _ in here..spaces {
                self.out.push(' ');
            }
        }
    }

    /// Starts the next item of the innermost container.
    fn item(&mut self) {
        if self.sink.is_some() && self.out.len() >= FLUSH_AT {
            self.flush();
        }
        if !std::mem::replace(&mut self.empty, false) {
            self.out.push(',');
        }
        self.newline_indent(self.depth);
    }

    fn begin(&mut self, open: char) {
        self.out.push(open);
        self.depth += 1;
        self.empty = true;
    }

    fn end(&mut self, close: char) {
        self.depth -= 1;
        if !self.empty {
            self.newline_indent(self.depth);
        }
        self.out.push(close);
        self.empty = false;
    }

    /// Opens an object.
    pub fn begin_object(&mut self) {
        self.begin('{');
    }

    /// Writes the next key of the open object; its value follows.
    pub fn key(&mut self, key: &str) {
        self.item();
        self.str(key);
        self.out.push(':');
        if self.pretty {
            self.out.push(' ');
        }
    }

    /// Closes the open object.
    pub fn end_object(&mut self) {
        self.end('}');
    }

    /// Opens an array.
    pub fn begin_array(&mut self) {
        self.begin('[');
    }

    /// Starts the next element of the open array.
    pub fn element(&mut self) {
        self.item();
    }

    /// Closes the open array.
    pub fn end_array(&mut self) {
        self.end(']');
    }

    /// `null`.
    pub fn null(&mut self) {
        self.out.push_str("null");
    }

    /// `true` or `false`.
    pub(crate) fn bool(&mut self, b: bool) {
        self.out.push_str(if b { "true" } else { "false" });
    }

    /// An unsigned integer.
    pub(crate) fn u128(&mut self, v: u128) {
        match u64::try_from(v) {
            Ok(mut v) => {
                let mut digits = [0u8; 20];
                let mut i = digits.len();
                loop {
                    i -= 1;
                    digits[i] = b'0' + (v % 10) as u8;
                    v /= 10;
                    if v == 0 {
                        break;
                    }
                }
                self.out.extend(digits[i..].iter().map(|&d| char::from(d)));
            }
            Err(_) => {
                let _ = write!(self.out, "{v}");
            }
        }
    }

    /// A signed integer.
    pub(crate) fn i128(&mut self, v: i128) {
        if v < 0 {
            self.out.push('-');
        }
        self.u128(v.unsigned_abs());
    }

    /// A float: always with a fraction or an exponent, so it reads back
    /// as a float; `null` for NaN and the infinities, which JSON lacks.
    pub(crate) fn f64(&mut self, f: f64) {
        if f.is_finite() {
            let start = self.out.len();
            let _ = write!(self.out, "{f}");
            if !self.out[start..].contains(['.', 'e', 'E']) {
                self.out.push_str(".0");
            }
        } else {
            self.null();
        }
    }

    /// A string, quoted and escaped.
    pub fn str(&mut self, s: &str) {
        const HEX: &[u8; 16] = b"0123456789abcdef";
        self.out.push('"');
        let mut run = 0;
        for (i, b) in s.bytes().enumerate() {
            let escape = match b {
                b'"' => "\\\"",
                b'\\' => "\\\\",
                b'\n' => "\\n",
                b'\r' => "\\r",
                b'\t' => "\\t",
                0..=0x1f => "",
                _ => continue,
            };
            // `b` is ASCII, so `run..i` ends on a char boundary.
            self.out.push_str(&s[run..i]);
            if escape.is_empty() {
                self.out.push_str("\\u00");
                self.out.push(char::from(HEX[usize::from(b >> 4)]));
                self.out.push(char::from(HEX[usize::from(b & 15)]));
            } else {
                self.out.push_str(escape);
            }
            run = i + 1;
        }
        self.out.push_str(&s[run..]);
        self.out.push('"');
    }
}
