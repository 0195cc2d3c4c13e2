//! Minimal HTTP/1.1 framing, hand-rolled over `std::net` streams.
//!
//! The server speaks a deliberately tiny subset of HTTP/1.1 — enough
//! for `curl`, CI scripts and the built-in `melody submit`/`status`
//! clients, with zero dependencies:
//!
//! - one request per connection (`Connection: close` both ways);
//! - `Content-Length` bodies only (no chunked encoding);
//! - bounded header block (16 KiB) and bounded body
//!   ([`read_request`]'s `max_body`), so a misbehaving client cannot
//!   balloon server memory;
//! - header names are matched case-insensitively, per RFC 9110.
//!
//! Framing defects surface as [`io::ErrorKind::InvalidData`] errors the
//! connection handler converts into `400 Bad Request` responses.

use std::io::{self, Read, Write};

/// Upper bound on the request/response head (start line + headers).
const MAX_HEAD_BYTES: usize = 16 * 1024;

/// One parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Request method (`GET`, `POST`, ...), uppercase as received.
    pub method: String,
    /// Request target path, e.g. `/v1/campaigns`.
    pub path: String,
    /// Header `(name, value)` pairs; names lower-cased at parse time.
    pub headers: Vec<(String, String)>,
    /// Request body (empty unless `Content-Length` was given).
    pub body: Vec<u8>,
}

impl Request {
    /// The first value of header `name` (ASCII case-insensitive).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

/// One HTTP response under construction.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code (200, 429, ...).
    pub status: u16,
    /// Extra headers beyond the always-present `Content-Length`,
    /// `Content-Type` and `Connection: close`.
    pub headers: Vec<(String, String)>,
    /// Response body bytes.
    pub body: Vec<u8>,
    /// `Content-Type` of the body.
    pub content_type: &'static str,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: String) -> Self {
        Self {
            status,
            headers: Vec::new(),
            body: body.into_bytes(),
            content_type: "application/json",
        }
    }

    /// A plain-text response with an explicit content type (e.g. the
    /// Prometheus exposition served from `GET /metrics`).
    pub fn text(status: u16, body: String, content_type: &'static str) -> Self {
        Self {
            status,
            headers: Vec::new(),
            body: body.into_bytes(),
            content_type,
        }
    }

    /// Adds a header (e.g. `Retry-After`).
    pub fn with_header(mut self, name: &str, value: String) -> Self {
        self.headers.push((name.to_string(), value));
        self
    }

    /// The canonical reason phrase for the status codes this API uses.
    pub fn reason(status: u16) -> &'static str {
        match status {
            200 => "OK",
            202 => "Accepted",
            400 => "Bad Request",
            404 => "Not Found",
            409 => "Conflict",
            413 => "Payload Too Large",
            422 => "Unprocessable Entity",
            429 => "Too Many Requests",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            _ => "Unknown",
        }
    }

    /// Serializes the response onto `w` (one write contract: status
    /// line, headers, blank line, body).
    pub fn write_to(&self, w: &mut impl Write) -> io::Result<()> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\nContent-Length: {}\r\nContent-Type: {}\r\nConnection: close\r\n",
            self.status,
            Self::reason(self.status),
            self.body.len(),
            self.content_type,
        );
        for (n, v) in &self.headers {
            head.push_str(n);
            head.push_str(": ");
            head.push_str(v);
            head.push_str("\r\n");
        }
        head.push_str("\r\n");
        w.write_all(head.as_bytes())?;
        w.write_all(&self.body)?;
        w.flush()
    }
}

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Marker distinguishing an over-limit body from other framing errors
/// (MSRV 1.75 predates `io::ErrorKind::FileTooLarge`).
const TOO_LARGE_MARKER: &str = "request body too large";

/// True when `err` came from [`read_request`]'s body-size limit — the
/// caller should answer `413 Payload Too Large` rather than `400`.
pub fn is_body_too_large(err: &io::Error) -> bool {
    err.to_string().starts_with(TOO_LARGE_MARKER)
}

/// Reads bytes from `r` until the `\r\n\r\n` head terminator, returning
/// `(head, body_prefix)` — any body bytes that arrived in the same
/// segments are handed back so the caller can finish the body read.
/// A read that a signal interrupts is retried, as `read_exact` retries
/// it for the body: on a socket with a timeout, a handled signal (the
/// server's SIGTERM drain) interrupts it even under `SA_RESTART`.
fn read_head(r: &mut impl Read) -> io::Result<(String, Vec<u8>)> {
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 1024];
    loop {
        if let Some(pos) = find_terminator(&buf) {
            let head = std::str::from_utf8(&buf[..pos])
                .map_err(|_| invalid("non-UTF-8 header block"))?
                .to_string();
            let body = buf[pos + 4..].to_vec();
            return Ok((head, body));
        }
        if buf.len() > MAX_HEAD_BYTES {
            return Err(invalid("header block exceeds 16 KiB"));
        }
        let n = match r.read(&mut chunk) {
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            read => read?,
        };
        if n == 0 {
            return Err(invalid("connection closed before header terminator"));
        }
        buf.extend_from_slice(&chunk[..n]);
    }
}

fn find_terminator(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Parses header lines (everything after the start line) into
/// lower-cased `(name, value)` pairs.
fn parse_headers(lines: std::str::Lines<'_>) -> io::Result<Vec<(String, String)>> {
    let mut headers = Vec::new();
    for line in lines {
        let line = line.trim_end_matches('\r');
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| invalid(format!("malformed header line `{line}`")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    Ok(headers)
}

fn content_length(headers: &[(String, String)]) -> io::Result<usize> {
    match headers.iter().find(|(n, _)| n == "content-length") {
        None => Ok(0),
        Some((_, v)) => v
            .parse::<usize>()
            .map_err(|_| invalid(format!("bad Content-Length `{v}`"))),
    }
}

/// Completes a body read: `prefix` bytes already consumed with the
/// head, `total` expected in all.
fn read_body(r: &mut impl Read, mut prefix: Vec<u8>, total: usize) -> io::Result<Vec<u8>> {
    if prefix.len() > total {
        return Err(invalid("body longer than Content-Length"));
    }
    let missing = total - prefix.len();
    if missing > 0 {
        let start = prefix.len();
        prefix.resize(total, 0);
        r.read_exact(&mut prefix[start..])?;
    }
    Ok(prefix)
}

/// Reads and parses one request from `r`. Bodies larger than
/// `max_body` are rejected before allocation.
pub fn read_request(r: &mut impl Read, max_body: usize) -> io::Result<Request> {
    let (head, body_prefix) = read_head(r)?;
    let mut lines = head.lines();
    let start = lines.next().ok_or_else(|| invalid("empty request"))?;
    let mut parts = start.split_whitespace();
    let (method, path, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v)) => (m, p, v),
        _ => return Err(invalid(format!("malformed request line `{start}`"))),
    };
    if !version.starts_with("HTTP/1.") {
        return Err(invalid(format!("unsupported protocol `{version}`")));
    }
    let headers = parse_headers(lines)?;
    let len = content_length(&headers)?;
    if len > max_body {
        return Err(io::Error::other(format!(
            "{TOO_LARGE_MARKER}: body of {len} bytes exceeds the {max_body}-byte limit"
        )));
    }
    let body = read_body(r, body_prefix, len)?;
    Ok(Request {
        method: method.to_string(),
        path: path.to_string(),
        headers,
        body,
    })
}

/// A parsed HTTP response (client side).
#[derive(Debug, Clone)]
pub struct RawResponse {
    /// Status code from the status line.
    pub status: u16,
    /// Header pairs, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// Response body.
    pub body: Vec<u8>,
}

impl RawResponse {
    /// The first value of header `name` (ASCII case-insensitive).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

/// Reads and parses one response from `r` (used by the client; the
/// server always sends `Content-Length`, but bodies are also accepted
/// to end-of-stream since connections are single-use).
pub fn read_response(r: &mut impl Read) -> io::Result<RawResponse> {
    let (head, body_prefix) = read_head(r)?;
    let mut lines = head.lines();
    let start = lines.next().ok_or_else(|| invalid("empty response"))?;
    let mut parts = start.split_whitespace();
    let status = match (parts.next(), parts.next()) {
        (Some(v), Some(code)) if v.starts_with("HTTP/1.") => code
            .parse::<u16>()
            .map_err(|_| invalid(format!("bad status code in `{start}`")))?,
        _ => return Err(invalid(format!("malformed status line `{start}`"))),
    };
    let headers = parse_headers(lines)?;
    let body = match headers.iter().any(|(n, _)| n == "content-length") {
        true => read_body(r, body_prefix, content_length(&headers)?)?,
        false => {
            let mut body = body_prefix;
            r.read_to_end(&mut body)?;
            body
        }
    };
    Ok(RawResponse {
        status,
        headers,
        body,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_request_with_body() {
        let raw = b"POST /v1/campaigns HTTP/1.1\r\nHost: x\r\nX-Melody-Client: ci\r\nContent-Length: 7\r\n\r\n{\"a\":1}";
        let req = read_request(&mut &raw[..], 1024).expect("parse");
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/campaigns");
        assert_eq!(req.header("x-melody-client"), Some("ci"));
        assert_eq!(req.header("X-MELODY-CLIENT"), Some("ci"));
        assert_eq!(req.body, b"{\"a\":1}");
    }

    #[test]
    fn parses_request_without_body() {
        let raw = b"GET /v1/healthz HTTP/1.1\r\n\r\n";
        let req = read_request(&mut &raw[..], 1024).expect("parse");
        assert_eq!(req.method, "GET");
        assert!(req.body.is_empty());
    }

    #[test]
    fn rejects_oversized_bodies_before_reading_them() {
        let raw = b"POST /v1/campaigns HTTP/1.1\r\nContent-Length: 99999\r\n\r\n";
        let err = read_request(&mut &raw[..], 1024).expect_err("too large");
        assert!(is_body_too_large(&err), "{err}");
    }

    #[test]
    fn rejects_garbage() {
        for raw in [
            &b"not http at all\r\n\r\n"[..],
            &b"GET /x\r\n\r\n"[..],
            &b"GET /x SPDY/3\r\n\r\n"[..],
        ] {
            assert!(read_request(&mut &raw[..], 1024).is_err(), "{raw:?}");
        }
    }

    #[test]
    fn response_roundtrips_through_raw_parse() {
        let resp = Response::json(429, "{\"error\":\"busy\"}".to_string())
            .with_header("Retry-After", "2".to_string());
        let mut wire = Vec::new();
        resp.write_to(&mut wire).expect("write");
        let back = read_response(&mut &wire[..]).expect("parse");
        assert_eq!(back.status, 429);
        assert_eq!(back.header("retry-after"), Some("2"));
        assert_eq!(back.body, b"{\"error\":\"busy\"}");
    }

    /// Hands out `data` in 5-byte chunks, each after one read that a
    /// signal interrupts.
    struct Interrupted<'a> {
        data: &'a [u8],
        interrupt: bool,
    }

    impl Read for Interrupted<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.interrupt = !self.interrupt;
            if self.interrupt {
                return Err(io::ErrorKind::Interrupted.into());
            }
            let n = buf.len().min(self.data.len()).min(5);
            buf[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            Ok(n)
        }
    }

    fn interrupted(data: &[u8]) -> Interrupted<'_> {
        Interrupted {
            data,
            interrupt: false,
        }
    }

    #[test]
    fn interrupted_request_reads_are_retried() {
        let raw = b"POST /v1/campaigns HTTP/1.1\r\nContent-Length: 7\r\n\r\n{\"a\":1}";
        let req = read_request(&mut interrupted(raw), 1024).expect("request parses");
        assert_eq!(req.path, "/v1/campaigns");
        assert_eq!(req.body, b"{\"a\":1}");
    }

    #[test]
    fn interrupted_response_reads_are_retried() {
        for wire in [
            &b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhello"[..],
            &b"HTTP/1.1 200 OK\r\n\r\nhello"[..],
        ] {
            let back = read_response(&mut interrupted(wire)).expect("response parses");
            assert_eq!(back.status, 200);
            assert_eq!(back.body, b"hello");
        }
    }

    #[test]
    fn response_without_content_length_reads_to_eof() {
        let wire = b"HTTP/1.1 200 OK\r\n\r\nhello";
        let back = read_response(&mut &wire[..]).expect("parse");
        assert_eq!(back.status, 200);
        assert_eq!(back.body, b"hello");
    }
}
