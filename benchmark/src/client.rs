//! The raw load client.
//!
//! One keep-alive connection, synchronous request/reply. It frames a reply
//! by `Content-Length`, reads the status code and the `row_count` field by
//! byte scan, and never JSON-parses rows: decoding ~1 450 rows per
//! `serve_mixed` reply inside the timed loop would measure the generator.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};

/// What the timed loop needs to know about one reply.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Reply {
    pub status: u16,
    /// The body's `row_count` field (`None` when absent, e.g. on errors).
    pub row_count: Option<u64>,
    /// Head + body bytes received.
    pub bytes: usize,
}

/// A blocking connection to the serve front-end.
pub struct RawClient {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl RawClient {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        // Small frames: Nagle + delayed ACK would add ~40 ms per round trip.
        stream.set_nodelay(true)?;
        Ok(RawClient {
            stream,
            buf: Vec::with_capacity(64 * 1024),
        })
    }

    /// Send prebuilt request bytes and read the whole reply.
    pub fn round_trip(&mut self, request: &[u8]) -> std::io::Result<Reply> {
        self.stream.write_all(request)?;
        self.read_reply()
    }

    /// The bytes of the last reply (head and body), for offline replay.
    pub fn last_reply(&self) -> &[u8] {
        &self.buf
    }

    fn read_reply(&mut self) -> std::io::Result<Reply> {
        self.buf.clear();
        let mut chunk = [0u8; 16 * 1024];
        // Replies are one `write_all` on the server, so the first read
        // usually brings the head and a small body together.
        loop {
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(std::io::ErrorKind::UnexpectedEof.into());
            }
            self.buf.extend_from_slice(&chunk[..n]);
            if let Some(reply) = complete_reply(&self.buf) {
                return Ok(reply);
            }
        }
    }
}

/// Scan `buf` as a reply: `None` until head and `Content-Length` bytes of
/// body are all there. This is all the client does with a reply.
pub fn complete_reply(buf: &[u8]) -> Option<Reply> {
    let head_end = find(buf, b"\r\n\r\n")? + 4;
    let body_len = content_length(&buf[..head_end])?;
    (buf.len() >= head_end + body_len).then(|| scan_reply(buf, head_end))
}

/// Status and `row_count` of a complete reply whose body starts at `head_end`.
fn scan_reply(reply: &[u8], head_end: usize) -> Reply {
    // "HTTP/1.1 200 OK": the status code is bytes 9..12.
    let status = reply
        .get(9..12)
        .and_then(|d| std::str::from_utf8(d).ok())
        .and_then(|d| d.parse().ok())
        .unwrap_or(0);
    Reply {
        status,
        row_count: row_count(&reply[head_end..]),
        bytes: reply.len(),
    }
}

/// Offset of the first occurrence of `needle`.
fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

fn content_length(head: &[u8]) -> Option<usize> {
    let key = b"Content-Length: ";
    let at = find(head, key)? + key.len();
    digits(&head[at..])
}

/// The body's `"row_count":N`, searched from the end (it follows the rows).
fn row_count(body: &[u8]) -> Option<u64> {
    let key = b"\"row_count\":";
    let at = body.windows(key.len()).rposition(|w| w == key)? + key.len();
    digits(&body[at..]).map(|n| n as u64)
}

fn digits(bytes: &[u8]) -> Option<usize> {
    let len = bytes.iter().take_while(|b| b.is_ascii_digit()).count();
    std::str::from_utf8(&bytes[..len]).ok()?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scans_status_and_row_count_without_parsing_rows() {
        let body = "{\"status\":\"ok\",\"rows\":[[1,2],[3,4]],\"row_count\":2,\"work_units\":9}";
        let wire = format!(
            "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        let wire = wire.as_bytes();
        let reply = complete_reply(wire).expect("whole reply");
        assert_eq!(reply.status, 200);
        assert_eq!(reply.row_count, Some(2));
        assert_eq!(reply.bytes, wire.len());
        // Incomplete until the last body byte has arrived.
        assert_eq!(complete_reply(&wire[..wire.len() - 1]), None);
        assert_eq!(complete_reply(&wire[..20]), None);
    }

    #[test]
    fn rejection_has_no_row_count() {
        let wire = "HTTP/1.1 429 Too Many Requests\r\nContent-Length: 2\r\n\r\n{}";
        let reply = complete_reply(wire.as_bytes()).expect("whole reply");
        assert_eq!(reply.status, 429);
        assert_eq!(reply.row_count, None);
    }
}
