//! A hand-rolled HTTP/1.1 frame reader/writer, one request per
//! connection.
//!
//! No async runtime is vendored, and the job API needs exactly four tiny
//! endpoints — so this is deliberately the smallest correct subset:
//! request line + headers + `Content-Length` body in, status + JSON body
//! out, `Connection: close` always. Oversize declarations are rejected
//! from the header alone ([`ServeError::BodyTooLarge`]) before any body
//! byte is read, so a hostile client cannot make the server buffer an
//! arbitrarily large spec, and every accepted connection reads its whole
//! request frame and writes under [`IO_TIMEOUT`], so a client that
//! connects and then goes silent — or sends its frame a byte at a time —
//! gets a 400 `proto` instead of pinning its handler thread.

use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use crate::error::ServeError;

/// Largest accepted request body. Specs are a few hundred bytes; the cap
/// is generous but finite.
pub const MAX_BODY: usize = 64 * 1024;
/// Largest accepted header block.
const MAX_HEAD: usize = 8 * 1024;
/// Deadline of reading one whole request frame on an accepted connection,
/// and of each write. A request frame is a few hundred bytes sent at once,
/// so a client that has not sent one in this long is not going to.
pub const IO_TIMEOUT: Duration = Duration::from_secs(2);

/// Reads off a stream until a fixed instant: each read waits only for
/// what is left of the deadline, so the deadline bounds the whole frame
/// however the client spaces its bytes.
struct Deadline<'a> {
    stream: &'a mut TcpStream,
    until: Instant,
}

impl Read for Deadline<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let left = self.until.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(ErrorKind::TimedOut.into());
        }
        self.stream.set_read_timeout(Some(left))?;
        self.stream.read(buf)
    }
}

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    /// `GET` / `POST` / ….
    pub method: String,
    /// The path, e.g. `/status/3`.
    pub path: String,
    /// The body, UTF-8 decoded.
    pub body: String,
}

/// Read one request frame off `stream`, all of it within [`IO_TIMEOUT`].
pub fn read_request(stream: &mut TcpStream) -> Result<Request, ServeError> {
    let mut reader = BufReader::new(Deadline { stream, until: Instant::now() + IO_TIMEOUT });
    let mut line = String::new();
    reader
        .by_ref()
        .take(MAX_HEAD as u64)
        .read_line(&mut line)
        .map_err(|e| ServeError::Proto(format!("read: {e}")))?;
    let mut parts = line.split_whitespace();
    let method = parts.next().ok_or_else(|| ServeError::Proto("empty request line".into()))?;
    let path = parts.next().ok_or_else(|| ServeError::Proto("request line lacks a path".into()))?;
    let version = parts.next().unwrap_or("");
    if !version.starts_with("HTTP/1.") {
        return Err(ServeError::Proto(format!("unsupported version `{version}`")));
    }
    let (method, path) = (method.to_string(), path.to_string());

    let mut content_length: Option<usize> = None;
    let mut head_bytes = line.len();
    loop {
        let mut header = String::new();
        reader
            .by_ref()
            .take(MAX_HEAD as u64)
            .read_line(&mut header)
            .map_err(|e| ServeError::Proto(format!("read: {e}")))?;
        head_bytes += header.len();
        if head_bytes > MAX_HEAD {
            return Err(ServeError::Proto("header block too large".into()));
        }
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = Some(
                    value
                        .trim()
                        .parse()
                        .map_err(|_| ServeError::Proto(format!("bad content-length `{value}`")))?,
                );
            }
        }
    }
    // A POST carries a body by definition here (every POST endpoint either
    // parses one or explicitly ignores it); without a `Content-Length`
    // header the frame is unreadable — reading "no body" would surface
    // later as a baffling empty-spec parse error, so reject the framing
    // itself up front.
    let content_length = match content_length {
        Some(n) => n,
        None if method == "POST" => {
            return Err(ServeError::Proto("POST without a content-length header".into()));
        }
        None => 0,
    };
    if content_length > MAX_BODY {
        return Err(ServeError::BodyTooLarge { limit: MAX_BODY, got: content_length });
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).map_err(|e| ServeError::Proto(format!("short body: {e}")))?;
    let body =
        String::from_utf8(body).map_err(|_| ServeError::Proto("body is not utf-8".into()))?;
    Ok(Request { method, path, body })
}

/// Write a response frame: status line, minimal headers, JSON body.
pub fn write_response(stream: &mut TcpStream, status: u16, body: &str) -> std::io::Result<()> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        409 => "Conflict",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        _ => "Unknown",
    };
    let frame = format!(
        "HTTP/1.1 {status} {reason}\r\ncontent-type: application/json\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
        body.len(),
    );
    stream.write_all(frame.as_bytes())?;
    stream.flush()
}

/// A blocking one-shot client for the job API — shared by the service
/// test suites and the repository benchmark. Returns `(status, body)`.
pub mod client {
    use std::io::{Read, Write};
    use std::net::{SocketAddr, TcpStream};

    fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
        let mut stream = TcpStream::connect(addr).expect("connect to job server");
        let frame = format!(
            "{method} {path} HTTP/1.1\r\nhost: {addr}\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
            body.len(),
        );
        stream.write_all(frame.as_bytes()).expect("send request");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read response");
        let status = response
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| panic!("unparsable response: {response:?}"));
        let body = response.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default();
        (status, body)
    }

    /// `GET path`.
    pub fn get(addr: SocketAddr, path: &str) -> (u16, String) {
        request(addr, "GET", path, "")
    }

    /// `POST path` with a JSON body.
    pub fn post(addr: SocketAddr, path: &str, body: &str) -> (u16, String) {
        request(addr, "POST", path, body)
    }

    /// Send a raw pre-framed request (for protocol tests that need to
    /// violate the framing on purpose).
    pub fn raw(addr: SocketAddr, frame: &str) -> (u16, String) {
        let mut stream = TcpStream::connect(addr).expect("connect to job server");
        stream.write_all(frame.as_bytes()).expect("send raw frame");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read response");
        let status = response.split_whitespace().nth(1).and_then(|s| s.parse().ok()).unwrap_or(0);
        let body = response.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default();
        (status, body)
    }
}
