//! The minimal HTTP/1.1 shim the front-end speaks.
//!
//! The build environment has no crates.io access, so there is no axum or
//! tokio to lean on — this module implements exactly the slice of
//! HTTP/1.1 the serving path needs over blocking `std::net` streams:
//! request line + headers + `Content-Length` bodies in, fixed-length
//! responses with keep-alive out. The surface is deliberately tiny and
//! self-contained so the day the registry swap lands (see ROADMAP), the
//! [`crate::server`] handlers port onto a real HTTP stack unchanged and
//! this module is deleted.
//!
//! Limits: request lines + headers are capped at 8 KiB and bodies at
//! 1 MiB; anything larger is a 400/413, never an unbounded buffer.
//!
//! Framing reads from a [`BufRead`], never a raw socket: the head is
//! found in whatever the buffer holds, so a request costs one `read(2)`
//! rather than one per byte. The caller keeps one reader for the whole
//! keep-alive connection — bytes buffered past one message are the start
//! of the next (pipelining), and a fresh reader would drop them.

use std::io::{self, BufRead, Read, Write};

/// Maximum bytes of request line + headers.
pub const MAX_HEAD_BYTES: usize = 8 * 1024;
/// Maximum request body bytes.
pub const MAX_BODY_BYTES: usize = 1024 * 1024;

/// One parsed HTTP request.
#[derive(Clone, Debug)]
pub struct Request {
    /// Request method, upper-case (`GET`, `POST`, …).
    pub method: String,
    /// Path component of the target (no query string).
    pub path: String,
    /// Raw query string after `?` (empty when absent).
    pub query: String,
    /// Header `(name, value)` pairs; names lower-cased.
    pub headers: Vec<(String, String)>,
    /// Request body (empty without `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// Case-insensitive header lookup.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }

    /// `format=` query parameter (the `/metrics` JSON switch).
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query.split('&').find_map(|pair| {
            let (k, v) = pair.split_once('=')?;
            (k == key).then_some(v)
        })
    }

    /// Body decoded as UTF-8 (400 material when it is not).
    pub fn body_str(&self) -> Result<&str, ProtoError> {
        std::str::from_utf8(&self.body).map_err(|_| ProtoError::Malformed("body is not UTF-8"))
    }
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum ProtoError {
    /// The peer closed the connection before a full request arrived.
    /// Clean close (zero bytes read) is the normal end of keep-alive.
    Closed,
    /// Transport failure.
    Io(io::Error),
    /// Syntactically invalid request (400).
    Malformed(&'static str),
    /// Head or body over the fixed limits (413 in spirit; served as 400).
    TooLarge(&'static str),
}

impl From<io::Error> for ProtoError {
    fn from(e: io::Error) -> Self {
        ProtoError::Io(e)
    }
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Closed => write!(f, "connection closed"),
            ProtoError::Io(e) => write!(f, "io error: {e}"),
            ProtoError::Malformed(what) => write!(f, "malformed request: {what}"),
            ProtoError::TooLarge(what) => write!(f, "request too large: {what}"),
        }
    }
}

/// Take bytes up to and including the `\r\n\r\n` head terminator, and no
/// further: what follows stays buffered for the body or the next message.
/// A head longer than [`MAX_HEAD_BYTES`] (terminator included) is
/// `TooLarge`; EOF before any byte is `Closed`, inside the head
/// `Malformed`.
fn read_head<R: BufRead>(
    stream: &mut R,
    eof_inside: &'static str,
    too_large: &'static str,
) -> Result<Vec<u8>, ProtoError> {
    let mut head = Vec::with_capacity(256);
    loop {
        // Line by line, since the terminator always ends a line; `take`
        // keeps the head bounded however much the buffer holds.
        let room = (MAX_HEAD_BYTES - head.len()) as u64;
        let n = stream.by_ref().take(room).read_until(b'\n', &mut head)?;
        if head.ends_with(b"\r\n\r\n") {
            return Ok(head);
        }
        if head.len() == MAX_HEAD_BYTES {
            return Err(ProtoError::TooLarge(too_large));
        }
        if n == 0 {
            return Err(if head.is_empty() {
                ProtoError::Closed
            } else {
                ProtoError::Malformed(eof_inside)
            });
        }
    }
}

/// Header `(name, value)` pairs from the lines after the start line.
fn parse_headers<'a>(
    lines: impl Iterator<Item = &'a str>,
) -> Result<Vec<(String, String)>, ProtoError> {
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or(ProtoError::Malformed("header without colon"))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_owned()));
    }
    Ok(headers)
}

/// Exactly `Content-Length` body bytes (none without the header).
fn read_body<R: BufRead>(
    stream: &mut R,
    headers: &[(String, String)],
) -> Result<Vec<u8>, ProtoError> {
    let content_length = headers
        .iter()
        .find(|(n, _)| n == "content-length")
        .map(|(_, v)| {
            v.parse::<usize>()
                .map_err(|_| ProtoError::Malformed("bad content-length"))
        })
        .transpose()?
        .unwrap_or(0);
    if content_length > MAX_BODY_BYTES {
        return Err(ProtoError::TooLarge("body over 1 MiB"));
    }
    let mut body = vec![0u8; content_length];
    stream.read_exact(&mut body).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            ProtoError::Malformed("eof inside body")
        } else {
            ProtoError::Io(e)
        }
    })?;
    Ok(body)
}

/// Read one HTTP/1.1 request off a buffered stream.
///
/// Frames the head from the reader's buffer up to the `\r\n\r\n`
/// terminator, then reads exactly `Content-Length` body bytes; anything
/// after stays buffered. Returns [`ProtoError::Closed`] on a clean EOF
/// before any byte (keep-alive end-of-stream).
pub fn read_request<R: BufRead>(stream: &mut R) -> Result<Request, ProtoError> {
    let head = read_head(stream, "eof inside request head", "request head over 8 KiB")?;
    let head = std::str::from_utf8(&head).map_err(|_| ProtoError::Malformed("non-UTF-8 head"))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ');
    let method = parts
        .next()
        .filter(|m| !m.is_empty())
        .ok_or(ProtoError::Malformed("missing method"))?
        .to_ascii_uppercase();
    let target = parts
        .next()
        .ok_or(ProtoError::Malformed("missing target"))?;
    let version = parts
        .next()
        .ok_or(ProtoError::Malformed("missing version"))?;
    if !version.starts_with("HTTP/1.") {
        return Err(ProtoError::Malformed("not HTTP/1.x"));
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_owned(), q.to_owned()),
        None => (target.to_owned(), String::new()),
    };

    let headers = parse_headers(lines)?;
    let body = read_body(stream, &headers)?;
    Ok(Request {
        method,
        path,
        query,
        headers,
        body,
    })
}

/// One parsed HTTP response (the client side of the shim).
#[derive(Clone, Debug)]
pub struct Response {
    /// Numeric status code.
    pub status: u16,
    /// Header `(name, value)` pairs; names lower-cased.
    pub headers: Vec<(String, String)>,
    /// Response body.
    pub body: Vec<u8>,
}

impl Response {
    /// Body decoded as UTF-8.
    pub fn body_str(&self) -> Result<&str, ProtoError> {
        std::str::from_utf8(&self.body).map_err(|_| ProtoError::Malformed("body is not UTF-8"))
    }
}

/// Read one HTTP/1.1 response off a buffered stream (client side).
pub fn read_response<R: BufRead>(stream: &mut R) -> Result<Response, ProtoError> {
    let head = read_head(
        stream,
        "eof inside response head",
        "response head over 8 KiB",
    )?;
    let head = std::str::from_utf8(&head).map_err(|_| ProtoError::Malformed("non-UTF-8 head"))?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or("");
    let mut parts = status_line.split(' ');
    let version = parts.next().unwrap_or("");
    if !version.starts_with("HTTP/1.") {
        return Err(ProtoError::Malformed("not HTTP/1.x"));
    }
    let status = parts
        .next()
        .and_then(|c| c.parse::<u16>().ok())
        .ok_or(ProtoError::Malformed("bad status code"))?;
    let headers = parse_headers(lines)?;
    let body = read_body(stream, &headers)?;
    Ok(Response {
        status,
        headers,
        body,
    })
}

/// HTTP status codes the front-end emits.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Status {
    /// 200 — the request succeeded.
    Ok,
    /// 202 — accepted for asynchronous processing (`/shutdown`).
    Accepted,
    /// 400 — malformed request or query.
    BadRequest,
    /// 404 — no such endpoint.
    NotFound,
    /// 405 — endpoint exists, method does not.
    MethodNotAllowed,
    /// 429 — admission control rejected the request (overload).
    TooManyRequests,
    /// 500 — execution failed server-side.
    InternalError,
    /// 503 — draining for shutdown, or connection limit reached.
    Unavailable,
    /// 504 — the request's deadline expired before execution.
    DeadlineExpired,
}

impl Status {
    /// Numeric code.
    pub fn code(self) -> u16 {
        match self {
            Status::Ok => 200,
            Status::Accepted => 202,
            Status::BadRequest => 400,
            Status::NotFound => 404,
            Status::MethodNotAllowed => 405,
            Status::TooManyRequests => 429,
            Status::InternalError => 500,
            Status::Unavailable => 503,
            Status::DeadlineExpired => 504,
        }
    }

    /// Reason phrase.
    pub fn reason(self) -> &'static str {
        match self {
            Status::Ok => "OK",
            Status::Accepted => "Accepted",
            Status::BadRequest => "Bad Request",
            Status::NotFound => "Not Found",
            Status::MethodNotAllowed => "Method Not Allowed",
            Status::TooManyRequests => "Too Many Requests",
            Status::InternalError => "Internal Server Error",
            Status::Unavailable => "Service Unavailable",
            Status::DeadlineExpired => "Gateway Timeout",
        }
    }
}

/// Write one fixed-length response. `close` requests `Connection: close`
/// (the draining path); otherwise the connection stays keep-alive.
pub fn write_response<W: Write>(
    stream: &mut W,
    status: Status,
    content_type: &str,
    body: &[u8],
    close: bool,
) -> io::Result<()> {
    // One buffer, one write: head and body in separate segments would
    // trip Nagle + delayed-ACK stalls (~40 ms per small segment pair).
    let mut wire = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n",
        status.code(),
        status.reason(),
        content_type,
        body.len(),
        if close { "close" } else { "keep-alive" },
    )
    .into_bytes();
    wire.extend_from_slice(body);
    stream.write_all(&wire)?;
    stream.flush()
}

/// Write a JSON response (the usual case).
pub fn write_json<W: Write>(
    stream: &mut W,
    status: Status,
    body: &str,
    close: bool,
) -> io::Result<()> {
    write_response(stream, status, "application/json", body.as_bytes(), close)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(raw: &str) -> Result<Request, ProtoError> {
        read_request(&mut raw.as_bytes())
    }

    #[test]
    fn parses_post_with_body() {
        let r = req("POST /query HTTP/1.1\r\nHost: x\r\nContent-Length: 11\r\n\r\nhello world")
            .unwrap();
        assert_eq!(r.method, "POST");
        assert_eq!(r.path, "/query");
        assert_eq!(r.query, "");
        assert_eq!(r.header("host"), Some("x"));
        assert_eq!(r.header("HOST"), Some("x"));
        assert_eq!(r.body_str().unwrap(), "hello world");
    }

    #[test]
    fn parses_get_with_query_string() {
        let r = req("GET /metrics?format=json&x=1 HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(r.method, "GET");
        assert_eq!(r.path, "/metrics");
        assert_eq!(r.query_param("format"), Some("json"));
        assert_eq!(r.query_param("x"), Some("1"));
        assert_eq!(r.query_param("missing"), None);
        assert!(r.body.is_empty());
    }

    #[test]
    fn clean_eof_is_closed_mid_request_is_malformed() {
        assert!(matches!(req(""), Err(ProtoError::Closed)));
        assert!(matches!(
            req("GET / HTTP/1.1\r\n"),
            Err(ProtoError::Malformed(_))
        ));
        assert!(matches!(
            req("POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort"),
            Err(ProtoError::Malformed(_))
        ));
    }

    #[test]
    fn rejects_oversized_head_and_body() {
        let huge = format!(
            "GET / HTTP/1.1\r\nX-Pad: {}\r\n\r\n",
            "a".repeat(MAX_HEAD_BYTES)
        );
        assert!(matches!(req(&huge), Err(ProtoError::TooLarge(_))));
        let big_body = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert!(matches!(req(&big_body), Err(ProtoError::TooLarge(_))));
    }

    #[test]
    fn rejects_non_http_and_bad_headers() {
        assert!(matches!(
            req("GET / SPDY/3\r\n\r\n"),
            Err(ProtoError::Malformed(_))
        ));
        assert!(matches!(
            req("GET / HTTP/1.1\r\nno-colon-here\r\n\r\n"),
            Err(ProtoError::Malformed(_))
        ));
        assert!(matches!(
            req("POST / HTTP/1.1\r\nContent-Length: nan\r\n\r\n"),
            Err(ProtoError::Malformed(_))
        ));
    }

    /// Every frame `reader` yields until it closes or errors, as Debug
    /// text (the error included) so two readers compare verbatim.
    fn frames(mut reader: impl BufRead) -> Vec<String> {
        let mut out = Vec::new();
        loop {
            match read_request(&mut reader) {
                Ok(r) => out.push(format!("{r:?}")),
                Err(e) => {
                    out.push(format!("{e:?}"));
                    return out;
                }
            }
        }
    }

    /// Two keep-alive requests and a third that the peer cut mid-body.
    const PIPELINED: &str = "POST /query HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello\
        GET /metrics?format=json HTTP/1.1\r\n\r\n\
        POST /q HTTP/1.1\r\nContent-Length: 9\r\n\r\ncut";

    #[test]
    fn one_byte_buffer_frames_like_one_chunk() {
        let whole = frames(PIPELINED.as_bytes());
        assert_eq!(whole.len(), 3, "{whole:?}");
        assert!(whole[0].contains("body: [104, 101, 108, 108, 111]"));
        assert!(whole[1].contains("path: \"/metrics\""));
        assert_eq!(whole[2], "Malformed(\"eof inside body\")");
        let one = frames(io::BufReader::with_capacity(1, PIPELINED.as_bytes()));
        assert_eq!(one, whole);

        let mut wire = Vec::new();
        write_json(&mut wire, Status::Ok, "{\"a\":1}", false).unwrap();
        let whole = read_response(&mut wire.as_slice()).unwrap();
        let one = read_response(&mut io::BufReader::with_capacity(1, wire.as_slice())).unwrap();
        assert_eq!(format!("{one:?}"), format!("{whole:?}"));
    }

    #[test]
    fn terminator_straddling_a_buffer_boundary_still_frames() {
        // Every capacity up to the whole input: the buffer edge falls
        // before, inside (after 1, 2 and 3 of its bytes) and after each
        // `\r\n\r\n`.
        let whole = frames(PIPELINED.as_bytes());
        for cap in 1..=PIPELINED.len() {
            let split = frames(io::BufReader::with_capacity(cap, PIPELINED.as_bytes()));
            assert_eq!(split, whole, "capacity {cap}");
        }
    }

    #[test]
    fn limits_and_errors_hold_through_the_buffered_reader() {
        let pad = |head_len: usize| {
            let fixed = "GET / HTTP/1.1\r\nX-Pad: \r\n\r\n".len();
            format!(
                "GET / HTTP/1.1\r\nX-Pad: {}\r\n\r\n",
                "a".repeat(head_len - fixed)
            )
        };
        let big_body = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        for cap in [1, 3, 64, MAX_HEAD_BYTES, 64 * 1024] {
            let read =
                |raw: &str| read_request(&mut io::BufReader::with_capacity(cap, raw.as_bytes()));
            assert!(read(&pad(MAX_HEAD_BYTES)).is_ok(), "capacity {cap}");
            assert!(
                matches!(read(&pad(MAX_HEAD_BYTES + 1)), Err(ProtoError::TooLarge(_))),
                "capacity {cap}"
            );
            // No terminator at all: the limit, not EOF, ends the read.
            assert!(
                matches!(
                    read(&"a".repeat(3 * MAX_HEAD_BYTES)),
                    Err(ProtoError::TooLarge(_))
                ),
                "capacity {cap}"
            );
            assert!(matches!(read(&big_body), Err(ProtoError::TooLarge(_))));
            assert!(matches!(read(""), Err(ProtoError::Closed)));
            assert!(matches!(
                read("GET / HTTP/1.1\r\n\r"),
                Err(ProtoError::Malformed("eof inside request head"))
            ));
            assert!(matches!(
                read("POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort"),
                Err(ProtoError::Malformed("eof inside body"))
            ));
            let resp =
                |raw: &str| read_response(&mut io::BufReader::with_capacity(cap, raw.as_bytes()));
            assert!(matches!(resp(""), Err(ProtoError::Closed)));
            assert!(matches!(
                resp("HTTP/1.1 200 OK\r\n"),
                Err(ProtoError::Malformed("eof inside response head"))
            ));
            assert!(matches!(
                resp(&format!(
                    "HTTP/1.1 200 OK\r\nX: {}\r\n\r\n",
                    "a".repeat(MAX_HEAD_BYTES)
                )),
                Err(ProtoError::TooLarge("response head over 8 KiB"))
            ));
        }
    }

    #[test]
    fn framing_leaves_the_next_message_buffered() {
        let mut reader = io::BufReader::new(PIPELINED.as_bytes());
        read_request(&mut reader).unwrap();
        assert!(reader.buffer().starts_with(b"GET /metrics"));
    }

    #[test]
    fn response_has_content_length_and_connection_mode() {
        let mut out = Vec::new();
        write_json(&mut out, Status::Ok, "{\"a\":1}", false).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 7\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(text.ends_with("{\"a\":1}"));

        let mut out = Vec::new();
        write_json(&mut out, Status::Unavailable, "{}", true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"));
        assert!(text.contains("Connection: close\r\n"));
    }

    #[test]
    fn response_round_trips_through_reader() {
        let mut wire = Vec::new();
        write_json(
            &mut wire,
            Status::TooManyRequests,
            "{\"reason\":\"queue_full\"}",
            false,
        )
        .unwrap();
        let r = read_response(&mut wire.as_slice()).unwrap();
        assert_eq!(r.status, 429);
        assert_eq!(r.body_str().unwrap(), "{\"reason\":\"queue_full\"}");
        assert_eq!(
            r.headers
                .iter()
                .find(|(n, _)| n == "connection")
                .map(|(_, v)| v.as_str()),
            Some("keep-alive")
        );
    }

    #[test]
    fn status_codes_are_stable() {
        assert_eq!(Status::TooManyRequests.code(), 429);
        assert_eq!(Status::DeadlineExpired.code(), 504);
        assert_eq!(Status::Unavailable.code(), 503);
        for s in [
            Status::Ok,
            Status::Accepted,
            Status::BadRequest,
            Status::NotFound,
            Status::MethodNotAllowed,
            Status::TooManyRequests,
            Status::InternalError,
            Status::Unavailable,
            Status::DeadlineExpired,
        ] {
            assert!(!s.reason().is_empty());
        }
    }
}
