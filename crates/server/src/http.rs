//! A deliberately small HTTP/1.1 layer over `std::net` — just enough for
//! the explanation service: request-line + header parsing, query-string
//! decoding, fixed-length JSON responses, and chunked (streaming)
//! responses for the anytime endpoint. No external dependencies, no TLS,
//! no keep-alive (every response closes the connection).

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Longest accepted request head (request line, headers and the blank line
/// that ends them), a guard against hostile or broken clients streaming
/// garbage forever.
const MAX_HEAD_BYTES: usize = 64 * 1024;

/// Longest accepted request body. Bodies are read (to keep the connection
/// in a sane state) but ignored — every input travels in the query string.
const MAX_BODY_BYTES: usize = 1024 * 1024;

/// Longest a client may take to send its whole request, head and body
/// together, counted from when a worker takes the connection. Every read
/// waits only for what is left of it, so a client that trickles bytes holds
/// a worker no longer than one that sends nothing. A request that is not in
/// by then is answered 408.
pub const REQUEST_DEADLINE: Duration = Duration::from_secs(5);

/// A client connection that remembers whether any response bytes have
/// been written to it: after a handler panic the server may still answer
/// 500, but only on a wire no response has started on. Its reads share
/// one deadline ([`REQUEST_DEADLINE`]).
pub(crate) struct Conn {
    stream: TcpStream,
    wrote: bool,
    /// When reading must be done: a read after it fails with
    /// [`io::ErrorKind::TimedOut`].
    deadline: Instant,
}

impl Conn {
    /// Wrap an accepted connection; its request deadline starts now.
    pub(crate) fn new(stream: TcpStream) -> Self {
        Conn {
            stream,
            wrote: false,
            deadline: Instant::now() + REQUEST_DEADLINE,
        }
    }

    /// Whether any write was attempted (counted even if it failed, so a
    /// partial response is never followed by a second one).
    pub(crate) fn wrote(&self) -> bool {
        self.wrote
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let left = self.deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(io::ErrorKind::TimedOut.into());
        }
        self.stream.set_read_timeout(Some(left))?;
        self.stream.read(buf)
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.wrote = true;
        self.stream.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.stream.flush()
    }
}

/// A parsed request: method, decoded path, decoded query parameters.
#[derive(Debug, Clone)]
pub struct Request {
    /// Uppercase method (`GET`, `POST`, `DELETE`, …).
    pub method: String,
    /// The path portion of the target, percent-decoded (`/explain`).
    pub path: String,
    /// Query parameters in order of appearance, percent-decoded.
    pub query: Vec<(String, String)>,
}

impl Request {
    /// First value of query parameter `name`, if present.
    pub fn param(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// A request the server refuses, with the status code to answer.
#[derive(Debug)]
pub struct BadRequest {
    /// HTTP status code to respond with.
    pub status: u16,
    /// Human-readable reason (becomes the JSON `error` field).
    pub message: String,
}

impl BadRequest {
    /// A 400 with `message`.
    pub fn new(message: impl Into<String>) -> Self {
        BadRequest {
            status: 400,
            message: message.into(),
        }
    }

    /// An arbitrary-status refusal.
    pub fn status(status: u16, message: impl Into<String>) -> Self {
        BadRequest {
            status,
            message: message.into(),
        }
    }
}

/// Read and parse one request from `stream`. `Ok(Err(_))` is a malformed
/// request that deserves an HTTP error response, including a 408 when a
/// read times out (the stream's deadline passed, see [`REQUEST_DEADLINE`]);
/// `Err(_)` is a dead socket.
pub fn read_request(stream: &mut impl Read) -> io::Result<Result<Request, BadRequest>> {
    use io::ErrorKind::{TimedOut, WouldBlock};
    match parse_request(stream) {
        Err(e) if matches!(e.kind(), WouldBlock | TimedOut) => {
            Ok(Err(BadRequest::status(408, "request not received in time")))
        }
        read => read,
    }
}

fn parse_request(stream: &mut impl Read) -> io::Result<Result<Request, BadRequest>> {
    let mut reader = BufReader::new(stream);
    let mut head = Vec::new();
    loop {
        // Each line is read through `take`, at most one byte past what is
        // left of the cap, so a line that never ends is cut off there
        // instead of growing without bound.
        let start = head.len();
        let left = (MAX_HEAD_BYTES + 1 - start) as u64;
        if (&mut reader).take(left).read_until(b'\n', &mut head)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-request",
            ));
        }
        if head.len() > MAX_HEAD_BYTES {
            return Ok(Err(BadRequest::status(431, "request head too large")));
        }
        if matches!(&head[start..], b"\r\n" | b"\n") {
            break;
        }
    }
    let head = String::from_utf8_lossy(&head);
    let mut lines = head.lines();
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split_whitespace();
    let (method, target) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v)) if v.starts_with("HTTP/1.") => (m.to_uppercase(), t),
        _ => {
            return Ok(Err(BadRequest::new(format!(
                "malformed request line {request_line:?}"
            ))))
        }
    };
    // Drain any body so the TCP stream is left in a known state.
    let mut content_length = 0usize;
    for header in lines {
        if let Some((name, value)) = header.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().unwrap_or(0);
            }
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Ok(Err(BadRequest::status(413, "request body too large")));
    }
    if content_length > 0 {
        let mut sink = vec![0u8; content_length];
        reader.read_exact(&mut sink)?;
    }

    let (raw_path, raw_query) = match target.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (target, None),
    };
    let path = percent_decode(raw_path);
    let mut query = Vec::new();
    if let Some(q) = raw_query {
        for pair in q.split('&').filter(|p| !p.is_empty()) {
            let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
            query.push((percent_decode(k), percent_decode(v)));
        }
    }
    Ok(Ok(Request {
        method,
        path,
        query,
    }))
}

/// Decode `%XX` sequences and `+`-as-space, the two encodings query strings
/// carry. Bad escapes pass through verbatim (they will fail downstream
/// validation with a readable message instead of a decoding panic).
pub fn percent_decode(s: &str) -> String {
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
                let hex = bytes.get(i + 1..i + 3).unwrap_or_default();
                match (hex_val(hex.first()), hex_val(hex.get(1))) {
                    (Some(hi), Some(lo)) => {
                        out.push(hi * 16 + lo);
                        i += 3;
                    }
                    _ => {
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

fn hex_val(b: Option<&u8>) -> Option<u8> {
    match b {
        Some(c @ b'0'..=b'9') => Some(c - b'0'),
        Some(c @ b'a'..=b'f') => Some(c - b'a' + 10),
        Some(c @ b'A'..=b'F') => Some(c - b'A' + 10),
        _ => None,
    }
}

fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Write a complete fixed-length JSON response and flush it.
pub fn write_json(stream: &mut impl Write, status: u16, body: &str) -> io::Result<()> {
    let head = format!(
        "HTTP/1.1 {} {}\r\ncontent-type: application/json\r\ncontent-length: {}\r\nconnection: close\r\n\r\n",
        status,
        status_text(status),
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// Write a JSON error response: `{"error": message}`.
pub fn write_error(stream: &mut impl Write, status: u16, message: &str) -> io::Result<()> {
    write_json(
        stream,
        status,
        &format!("{{\"error\":{}}}", crate::json::string(message)),
    )
}

// --- chunked (streaming) responses -------------------------------------
//
// The anytime endpoint's channel: `Transfer-Encoding: chunked`, one
// complete newline-terminated JSON document per chunk, flushed as it
// happens so the client sees checkpoints live. These are free functions
// (not a writer struct) so the streaming callback can lazily start the
// response on its first checkpoint while the surrounding handler retains
// use of the stream afterwards. A write error means the client went away,
// which the caller turns into an early stop.

/// Send the streaming response head and switch the connection to chunked
/// mode.
pub fn chunk_begin(stream: &mut impl Write) -> io::Result<()> {
    stream.write_all(
        b"HTTP/1.1 200 OK\r\ncontent-type: application/x-ndjson\r\ntransfer-encoding: chunked\r\nconnection: close\r\n\r\n",
    )?;
    stream.flush()
}

/// Send `line` plus a trailing newline as one chunk and flush.
pub fn chunk_line(stream: &mut impl Write, line: &str) -> io::Result<()> {
    let payload = format!("{line}\n");
    write!(stream, "{:x}\r\n", payload.len())?;
    stream.write_all(payload.as_bytes())?;
    stream.write_all(b"\r\n")?;
    stream.flush()
}

/// Send the terminating zero-length chunk.
pub fn chunk_finish(stream: &mut impl Write) -> io::Result<()> {
    stream.write_all(b"0\r\n\r\n")?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percent_decoding() {
        assert_eq!(percent_decode("a%20b+c"), "a b c");
        assert_eq!(percent_decode("t5.Country"), "t5.Country");
        assert_eq!(percent_decode("%21%28t1.A%3Dt2.A%29"), "!(t1.A=t2.A)");
        // Bad escapes pass through instead of panicking.
        assert_eq!(percent_decode("100%"), "100%");
        assert_eq!(percent_decode("%zz"), "%zz");
    }
}
