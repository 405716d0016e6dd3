//! A deliberately minimal HTTP/1.1 layer over [`std::net::TcpStream`].
//!
//! The compile server needs exactly four things from HTTP: parse a
//! request line + headers, read a `Content-Length` body, write a fixed
//! response, and stream a close-delimited NDJSON body. The workspace is
//! hermetic (no registry access), so rather than stub a third-party
//! server this module implements that subset directly — ~150 lines,
//! every one of which is under the repo's own tests.
//!
//! Out of scope, rejected structurally rather than half-supported:
//! chunked request bodies, keep-alive pipelining, HTTP/2, TLS.

use msaf_trace::json::JsonWriter;
use std::io::{Read, Write};
use std::net::TcpStream;

/// Cap on the request head (request line + headers) and on declared
/// body sizes. Compile sources are kilobytes; a megabyte is generous.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Cap on request bodies.
pub const MAX_BODY_BYTES: usize = 1024 * 1024;

/// A parsed request: method, path, lower-cased headers, raw body.
#[derive(Debug)]
pub struct Request {
    /// `GET`, `POST`, ...
    pub method: String,
    /// Request target, e.g. `/compile`.
    pub path: String,
    /// `(lower-cased name, value)` pairs in arrival order.
    pub headers: Vec<(String, String)>,
    /// The body (empty when no `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of a header, by lower-cased name.
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Why a request could not be parsed. Each variant maps to a fixed
/// status line in [`write_error`].
#[derive(Debug)]
pub enum HttpError {
    /// Socket error or premature close.
    Io(std::io::Error),
    /// Malformed request line or headers.
    BadRequest(String),
    /// Declared body longer than [`MAX_BODY_BYTES`], or head longer
    /// than [`MAX_HEAD_BYTES`].
    TooLarge,
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Io(e) => write!(f, "io: {e}"),
            HttpError::BadRequest(m) => write!(f, "bad request: {m}"),
            HttpError::TooLarge => write!(f, "request too large"),
        }
    }
}

impl From<std::io::Error> for HttpError {
    fn from(e: std::io::Error) -> Self {
        HttpError::Io(e)
    }
}

/// Reads one request from `stream`.
///
/// # Errors
///
/// [`HttpError::BadRequest`] for malformed syntax, [`HttpError::TooLarge`]
/// for oversized heads/bodies, [`HttpError::Io`] for socket failures.
pub fn read_request(stream: &mut TcpStream) -> Result<Request, HttpError> {
    // Read byte-wise until the blank line; the head is small and this
    // avoids buffering past the body boundary.
    let mut head = Vec::with_capacity(256);
    let mut byte = [0u8; 1];
    while !head.ends_with(b"\r\n\r\n") {
        if head.len() >= MAX_HEAD_BYTES {
            return Err(HttpError::TooLarge);
        }
        let n = stream.read(&mut byte)?;
        if n == 0 {
            return Err(HttpError::BadRequest("connection closed mid-head".into()));
        }
        head.push(byte[0]);
    }
    let head =
        String::from_utf8(head).map_err(|_| HttpError::BadRequest("head is not UTF-8".into()))?;
    let mut lines = head.split("\r\n");
    let request_line = lines
        .next()
        .ok_or_else(|| HttpError::BadRequest("empty head".into()))?;
    let mut parts = request_line.split(' ');
    let method = parts
        .next()
        .filter(|m| !m.is_empty())
        .ok_or_else(|| HttpError::BadRequest("missing method".into()))?
        .to_string();
    let path = parts
        .next()
        .ok_or_else(|| HttpError::BadRequest("missing path".into()))?
        .to_string();
    match parts.next() {
        Some(v) if v.starts_with("HTTP/1.") => {}
        _ => return Err(HttpError::BadRequest("not HTTP/1.x".into())),
    }

    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::BadRequest(format!("malformed header: {line}")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let mut request = Request {
        method,
        path,
        headers,
        body: Vec::new(),
    };
    if let Some(len) = request.header("content-length") {
        let len: usize = len
            .parse()
            .map_err(|_| HttpError::BadRequest("bad content-length".into()))?;
        if len > MAX_BODY_BYTES {
            return Err(HttpError::TooLarge);
        }
        let mut body = vec![0u8; len];
        stream.read_exact(&mut body)?;
        request.body = body;
    } else if request.header("transfer-encoding").is_some() {
        return Err(HttpError::BadRequest(
            "chunked bodies are not supported".into(),
        ));
    }
    Ok(request)
}

/// Writes a complete response with `Content-Length` and closes nothing
/// (the server closes the connection after every exchange).
///
/// # Errors
///
/// Propagates socket write errors.
pub fn write_response(
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())
}

/// Maps a parse failure to its fixed error response (best-effort: the
/// socket may already be gone).
pub fn write_error(stream: &mut TcpStream, err: &HttpError) {
    let (status, reason) = match err {
        HttpError::Io(_) => return, // nothing sensible to send
        HttpError::BadRequest(_) => (400, "Bad Request"),
        HttpError::TooLarge => (413, "Payload Too Large"),
    };
    let mut body = JsonWriter::object();
    body.field_str("error", &err.to_string());
    let _ = write_response(stream, status, reason, "application/json", &body.finish());
}

/// Writes the head of a close-delimited NDJSON streaming response: no
/// `Content-Length`; the body ends when the server closes the socket.
///
/// # Errors
///
/// Propagates socket write errors.
pub fn write_stream_head(stream: &mut TcpStream) -> std::io::Result<()> {
    stream.write_all(
        b"HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\nConnection: close\r\n\r\n",
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn roundtrip(raw: &[u8]) -> Result<Request, HttpError> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let raw = raw.to_vec();
        let writer = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(&raw).unwrap();
        });
        let (mut stream, _) = listener.accept().unwrap();
        let req = read_request(&mut stream);
        writer.join().unwrap();
        req
    }

    #[test]
    fn parses_post_with_body() {
        let req = roundtrip(b"POST /compile HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nabcd")
            .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/compile");
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.body, b"abcd");
    }

    #[test]
    fn parses_get_without_body() {
        let req = roundtrip(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert!(req.body.is_empty());
    }

    #[test]
    fn rejects_malformed_heads() {
        assert!(matches!(
            roundtrip(b"NOT-HTTP\r\n\r\n"),
            Err(HttpError::BadRequest(_))
        ));
        assert!(matches!(
            roundtrip(b"GET /x HTTP/1.1\r\nbroken header\r\n\r\n"),
            Err(HttpError::BadRequest(_))
        ));
        assert!(matches!(
            roundtrip(b"GET /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"),
            Err(HttpError::BadRequest(_))
        ));
    }

    #[test]
    fn error_body_is_json_naming_the_bad_header() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(b"GET /x HTTP/1.1\r\nbad\"header\r\n\r\n")
                .unwrap();
            let mut response = String::new();
            s.read_to_string(&mut response).unwrap();
            response
        });
        let (mut stream, _) = listener.accept().unwrap();
        let err = read_request(&mut stream).unwrap_err();
        write_error(&mut stream, &err);
        drop(stream);
        let response = client.join().unwrap();
        let (head, body) = response.split_once("\r\n\r\n").unwrap();
        assert!(head.starts_with("HTTP/1.1 400 "), "{head}");
        let doc = msaf_trace::json::parse(body).expect("the error body is valid JSON");
        let error = doc.get("error").and_then(|e| e.as_str()).unwrap();
        assert!(error.contains("bad\"header"), "{error}");
    }

    #[test]
    fn rejects_oversized_declared_body() {
        let raw = format!(
            "POST /compile HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert!(matches!(
            roundtrip(raw.as_bytes()),
            Err(HttpError::TooLarge)
        ));
    }
}
