//! Minimal HTTP/1.1 request parsing and response building over raw streams.
//!
//! Implemented on `std::net` directly — the demo's web layer is part of the
//! system under reproduction, not an off-the-shelf dependency.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::time::Instant;

/// A parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Method (GET, POST, ...).
    pub method: String,
    /// Decoded path without the query string.
    pub path: String,
    /// Decoded query parameters.
    pub query: BTreeMap<String, String>,
    /// Lowercased header map.
    pub headers: BTreeMap<String, String>,
    /// Request body.
    pub body: Vec<u8>,
}

impl Request {
    /// A query parameter by name.
    pub fn param(&self, name: &str) -> Option<&str> {
        self.query.get(name).map(String::as_str)
    }

    /// A query parameter with a default.
    pub fn param_or<'a>(&'a self, name: &str, default: &'a str) -> &'a str {
        self.param(name).unwrap_or(default)
    }

    /// Body as UTF-8. Malformed bytes are an error — handlers answer 400
    /// instead of silently mangling the payload with replacement characters.
    pub fn body_str(&self) -> Result<&str, std::str::Utf8Error> {
        std::str::from_utf8(&self.body)
    }
}

/// Errors while reading a request.
#[derive(Debug)]
pub enum HttpError {
    /// Connection-level I/O failure.
    Io(std::io::Error),
    /// Malformed request.
    Malformed(String),
    /// Body larger than the configured cap.
    TooLarge,
    /// Request line or header block larger than the configured cap
    /// (answered with 431).
    HeaderTooLarge,
    /// The client stalled past the read/write timeout (answered with 408 —
    /// the slow-loris defense).
    Timeout,
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Io(e) => write!(f, "io error: {e}"),
            HttpError::Malformed(m) => write!(f, "malformed request: {m}"),
            HttpError::TooLarge => write!(f, "request body too large"),
            HttpError::HeaderTooLarge => write!(f, "request line or headers too large"),
            HttpError::Timeout => write!(f, "client timed out"),
        }
    }
}

impl std::error::Error for HttpError {}

/// Maximum accepted body: generous enough for bulk loads, small enough to
/// not be a memory DoS in a demo.
pub const MAX_BODY: usize = 16 * 1024 * 1024;

/// Maximum accepted request line — beyond this the request is answered
/// with 431 rather than buffered without bound.
pub const MAX_REQUEST_LINE: usize = 8 * 1024;

/// Maximum combined size of all header lines.
pub const MAX_HEADER_BYTES: usize = 64 * 1024;

/// A socket read that ran into its read timeout.
pub(crate) fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// Checks the overall request-read deadline between socket reads: per-read
/// socket timeouts bound each *stall*, this bounds the *total* — a client
/// trickling one byte per timeout window (slow-loris) otherwise holds a
/// handler thread indefinitely.
fn check_deadline(deadline: Option<Instant>) -> Result<(), HttpError> {
    match deadline {
        Some(d) if Instant::now() >= d => Err(HttpError::Timeout),
        _ => Ok(()),
    }
}

/// Reads one `\n`-terminated line (CR stripped) without ever buffering more
/// than `limit` bytes. Scans the reader's buffer for the newline and checks
/// the deadline once per buffer fill, not per byte. Transient `Interrupted`
/// reads are retried; a read timeout surfaces as [`HttpError::Timeout`].
fn read_line_bounded(
    reader: &mut impl BufRead,
    limit: usize,
    deadline: Option<Instant>,
) -> Result<String, HttpError> {
    let mut buf: Vec<u8> = Vec::new();
    loop {
        check_deadline(deadline)?;
        let chunk = match reader.fill_buf() {
            Ok(chunk) => chunk,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) if is_timeout(&e) => return Err(HttpError::Timeout),
            Err(e) => return Err(HttpError::Io(e)),
        };
        if chunk.is_empty() {
            break;
        }
        let newline = chunk.iter().position(|&b| b == b'\n');
        let take = newline.unwrap_or(chunk.len());
        if buf.len() + take > limit {
            return Err(HttpError::HeaderTooLarge);
        }
        buf.extend_from_slice(&chunk[..take]);
        reader.consume(take + usize::from(newline.is_some()));
        if newline.is_some() {
            break;
        }
    }
    while buf.last() == Some(&b'\r') {
        buf.pop();
    }
    Ok(String::from_utf8_lossy(&buf).into_owned())
}

/// `read_exact` with `Interrupted` retries and timeout classification.
fn read_exact_retrying(
    reader: &mut impl BufRead,
    out: &mut [u8],
    deadline: Option<Instant>,
) -> Result<(), HttpError> {
    let mut filled = 0;
    while filled < out.len() {
        check_deadline(deadline)?;
        match reader.read(&mut out[filled..]) {
            Ok(0) => {
                return Err(HttpError::Malformed(format!(
                    "body truncated at {filled} of {} bytes",
                    out.len()
                )))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) if is_timeout(&e) => return Err(HttpError::Timeout),
            Err(e) => return Err(HttpError::Io(e)),
        }
    }
    Ok(())
}

/// Reads one request from a stream. Request-line and header sizes are
/// bounded ([`MAX_REQUEST_LINE`], [`MAX_HEADER_BYTES`]) so a slow or
/// malicious client cannot tie up unbounded memory.
pub fn read_request(stream: &mut impl Read) -> Result<Request, HttpError> {
    read_request_from(&mut BufReader::new(stream), None).map(|(req, _)| req)
}

/// Reads one request from a reader that lives as long as its connection,
/// so the bytes of a pipelined next request stay buffered for the next
/// call. `deadline` bounds the *whole* read: the request line, headers and
/// body together must arrive before it, no matter how many
/// individually-fast reads the client spreads them over.
///
/// Also returns whether the client lets the connection persist: an
/// HTTP/1.1 request without `Connection: close`.
pub fn read_request_from(
    reader: &mut impl BufRead,
    deadline: Option<Instant>,
) -> Result<(Request, bool), HttpError> {
    let line = read_line_bounded(reader, MAX_REQUEST_LINE, deadline)?;
    let mut parts = line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("empty request line".into()))?
        .to_uppercase();
    let target = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("missing target".into()))?;
    let http11 = parts.next() == Some("HTTP/1.1");
    let (raw_path, raw_query) = match target.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (target, None),
    };
    let path = url_decode(raw_path);
    let query = raw_query.map(parse_query).unwrap_or_default();

    let mut headers = BTreeMap::new();
    let mut header_bytes = 0usize;
    loop {
        let hline = read_line_bounded(reader, MAX_HEADER_BYTES, deadline)?;
        if hline.is_empty() {
            break;
        }
        header_bytes += hline.len();
        if header_bytes > MAX_HEADER_BYTES {
            return Err(HttpError::HeaderTooLarge);
        }
        if let Some((k, v)) = hline.split_once(':') {
            headers.insert(k.trim().to_lowercase(), v.trim().to_owned());
        }
    }
    let content_length: usize = headers
        .get("content-length")
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    if content_length > MAX_BODY {
        return Err(HttpError::TooLarge);
    }
    let mut body = vec![0u8; content_length];
    if content_length > 0 {
        read_exact_retrying(reader, &mut body, deadline)?;
    }
    let close = headers.get("connection").is_some_and(|v| {
        v.split(',')
            .any(|token| token.trim().eq_ignore_ascii_case("close"))
    });
    let request = Request {
        method,
        path,
        query,
        headers,
        body,
    };
    Ok((request, http11 && !close))
}

/// Parses `a=1&b=two` with percent-decoding.
pub fn parse_query(raw: &str) -> BTreeMap<String, String> {
    raw.split('&')
        .filter(|kv| !kv.is_empty())
        .map(|kv| match kv.split_once('=') {
            Some((k, v)) => (url_decode(k), url_decode(v)),
            None => (url_decode(kv), String::new()),
        })
        .collect()
}

/// Percent-decodes a URL component (`+` becomes a space).
pub fn url_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' => {
                let hex = bytes.get(i + 1..i + 3);
                match hex.and_then(|h| u8::from_str_radix(std::str::from_utf8(h).ok()?, 16).ok()) {
                    Some(b) => {
                        out.push(b);
                        i += 3;
                    }
                    None => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Percent-encodes a URL component.
pub fn url_encode(s: &str) -> String {
    let mut out = String::new();
    for b in s.as_bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                out.push(*b as char)
            }
            b' ' => out.push('+'),
            b => out.push_str(&format!("%{b:02X}")),
        }
    }
    out
}

/// A response under construction.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Content type.
    pub content_type: String,
    /// Extra response headers as (name, value) pairs, written in order.
    pub headers: Vec<(String, String)>,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// 200 HTML response.
    pub fn html(body: impl Into<String>) -> Response {
        Response {
            status: 200,
            content_type: "text/html; charset=utf-8".into(),
            headers: Vec::new(),
            body: body.into().into_bytes(),
        }
    }

    /// 200 JSON response.
    pub fn json(body: impl Into<String>) -> Response {
        Response {
            status: 200,
            content_type: "application/json".into(),
            headers: Vec::new(),
            body: body.into().into_bytes(),
        }
    }

    /// 200 SVG response.
    pub fn svg(body: impl Into<String>) -> Response {
        Response {
            status: 200,
            content_type: "image/svg+xml".into(),
            headers: Vec::new(),
            body: body.into().into_bytes(),
        }
    }

    /// Error response with a plain-text body.
    pub fn error(status: u16, message: impl Into<String>) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8".into(),
            headers: Vec::new(),
            body: message.into().into_bytes(),
        }
    }

    /// Adds an extra response header (builder style).
    pub fn with_header(mut self, name: impl Into<String>, value: impl Into<String>) -> Response {
        self.headers.push((name.into(), value.into()));
        self
    }

    /// Serializes onto a stream with one write: head and body are built in
    /// one buffer first. Writes no `Connection` header of its own; the
    /// server adds `Connection: close` to a response after which it closes.
    pub fn write_to(&self, stream: &mut impl Write) -> std::io::Result<()> {
        let reason = match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            408 => "Request Timeout",
            413 => "Payload Too Large",
            429 => "Too Many Requests",
            431 => "Request Header Fields Too Large",
            500 => "Internal Server Error",
            502 => "Bad Gateway",
            503 => "Service Unavailable",
            504 => "Gateway Timeout",
            _ => "Unknown",
        };
        let mut out = Vec::with_capacity(256 + self.body.len());
        write!(
            out,
            "HTTP/1.1 {} {reason}\r\nContent-Type: {}\r\nContent-Length: {}\r\n",
            self.status,
            self.content_type,
            self.body.len()
        )?;
        for (name, value) in &self.headers {
            write!(out, "{name}: {value}\r\n")?;
        }
        out.extend_from_slice(b"\r\n");
        out.extend_from_slice(&self.body);
        stream.write_all(&out)?;
        stream.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_get_with_query() {
        let raw = b"GET /search?q=snow+height&limit=5 HTTP/1.1\r\nHost: x\r\n\r\n";
        let req = read_request(&mut &raw[..]).unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/search");
        assert_eq!(req.param("q"), Some("snow height"));
        assert_eq!(req.param("limit"), Some("5"));
        assert_eq!(req.headers["host"], "x");
    }

    #[test]
    fn parses_post_with_body() {
        let raw = b"POST /bulkload HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello";
        let req = read_request(&mut &raw[..]).unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.body_str().unwrap(), "hello");
    }

    #[test]
    fn invalid_utf8_body_is_an_error() {
        let mut raw: Vec<u8> = b"POST /bulkload HTTP/1.1\r\nContent-Length: 3\r\n\r\n".to_vec();
        raw.extend_from_slice(&[0xff, 0xfe, 0x41]);
        let req = read_request(&mut &raw[..]).unwrap();
        assert!(req.body_str().is_err());
        assert_eq!(req.body, [0xff, 0xfe, 0x41], "raw bytes still available");
    }

    #[test]
    fn url_decoding() {
        assert_eq!(url_decode("a%20b+c"), "a b c");
        assert_eq!(url_decode("caf%C3%A9"), "café");
        assert_eq!(url_decode("100%"), "100%", "stray % preserved");
        assert_eq!(url_decode("%zz"), "%zz", "bad hex preserved");
    }

    #[test]
    fn url_encode_roundtrip() {
        for s in ["Fieldsite:Weissfluhjoch", "a b&c=d", "Zürich 100%"] {
            assert_eq!(url_decode(&url_encode(s)), s);
        }
    }

    #[test]
    fn rejects_empty_request() {
        let raw = b"\r\n";
        assert!(read_request(&mut &raw[..]).is_err());
    }

    #[test]
    fn rejects_oversized_body() {
        let raw = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        assert!(matches!(
            read_request(&mut raw.as_bytes()),
            Err(HttpError::TooLarge)
        ));
    }

    #[test]
    fn rejects_oversized_request_line() {
        let raw = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(MAX_REQUEST_LINE + 1));
        assert!(matches!(
            read_request(&mut raw.as_bytes()),
            Err(HttpError::HeaderTooLarge)
        ));
    }

    #[test]
    fn rejects_oversized_headers() {
        let mut raw = String::from("GET / HTTP/1.1\r\n");
        for i in 0..80 {
            raw.push_str(&format!("X-Pad-{i}: {}\r\n", "b".repeat(1024)));
        }
        raw.push_str("\r\n");
        assert!(matches!(
            read_request(&mut raw.as_bytes()),
            Err(HttpError::HeaderTooLarge)
        ));
    }

    /// A reader that fails with `Interrupted` before every chunk — the
    /// parser must retry transparently.
    struct Interrupting<'a> {
        data: &'a [u8],
        pos: usize,
        interrupt_next: bool,
    }

    impl Read for Interrupting<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.interrupt_next {
                self.interrupt_next = false;
                return Err(std::io::Error::from(std::io::ErrorKind::Interrupted));
            }
            self.interrupt_next = true;
            if self.pos >= self.data.len() {
                return Ok(0);
            }
            let n = buf.len().min(self.data.len() - self.pos).min(3);
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    #[test]
    fn interrupted_reads_are_retried() {
        let mut stream = Interrupting {
            data: b"POST /x HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello",
            pos: 0,
            interrupt_next: true,
        };
        let req = read_request(&mut stream).unwrap();
        assert_eq!(req.path, "/x");
        assert_eq!(req.body_str().unwrap(), "hello");
    }

    /// A reader that simulates a stalled client: times out immediately.
    struct Stalled;

    impl Read for Stalled {
        fn read(&mut self, _buf: &mut [u8]) -> std::io::Result<usize> {
            Err(std::io::Error::from(std::io::ErrorKind::WouldBlock))
        }
    }

    #[test]
    fn stalled_client_times_out() {
        assert!(matches!(
            read_request(&mut Stalled),
            Err(HttpError::Timeout)
        ));
    }

    #[test]
    fn truncated_body_is_malformed() {
        let raw = b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nhi";
        assert!(matches!(
            read_request(&mut &raw[..]),
            Err(HttpError::Malformed(_))
        ));
    }

    #[test]
    fn response_serialization() {
        let mut buf = Vec::new();
        Response::json("{\"ok\":true}").write_to(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 11"));
        assert!(text.ends_with("{\"ok\":true}"));
    }

    #[test]
    fn extra_headers_serialize_before_body() {
        let mut buf = Vec::new();
        Response::json("{}")
            .with_header("Cache-Status", "hit")
            .with_header("Retry-After", "1")
            .write_to(&mut buf)
            .unwrap();
        let text = String::from_utf8(buf).unwrap();
        let (head, body) = text.split_once("\r\n\r\n").unwrap();
        assert!(head.contains("Cache-Status: hit"));
        assert!(head.contains("Retry-After: 1"));
        assert_eq!(body, "{}");
    }

    #[test]
    fn pipelined_requests_share_one_reader() {
        let raw = b"POST /a HTTP/1.1\r\nContent-Length: 2\r\n\r\nhiGET /b?x=1 HTTP/1.1\r\n\r\n";
        let mut reader = BufReader::new(&raw[..]);
        let (first, keep) = read_request_from(&mut reader, None).unwrap();
        assert_eq!(
            (first.path.as_str(), first.body_str().unwrap()),
            ("/a", "hi")
        );
        assert!(keep);
        let (second, _) = read_request_from(&mut reader, None).unwrap();
        assert_eq!((second.path.as_str(), second.param("x")), ("/b", Some("1")));
    }

    #[test]
    fn persistence_follows_version_and_connection_header() {
        let keep = |raw: &str| read_request_from(&mut raw.as_bytes(), None).unwrap().1;
        assert!(keep("GET / HTTP/1.1\r\n\r\n"));
        assert!(keep("GET / HTTP/1.1\r\nConnection: keep-alive\r\n\r\n"));
        assert!(!keep("GET / HTTP/1.1\r\nConnection: Close\r\n\r\n"));
        assert!(!keep(
            "GET / HTTP/1.1\r\nConnection: upgrade, close\r\n\r\n"
        ));
        assert!(!keep("GET / HTTP/1.0\r\n\r\n"));
        assert!(!keep("GET /\r\n\r\n"));
    }

    #[test]
    fn written_response_has_no_connection_header_of_its_own() {
        let mut buf = Vec::new();
        Response::json("{}").write_to(&mut buf).unwrap();
        assert!(!String::from_utf8(buf).unwrap().contains("Connection"));
    }

    #[test]
    fn status_503_has_reason() {
        let mut buf = Vec::new();
        Response::error(503, "busy").write_to(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"));
    }
}
