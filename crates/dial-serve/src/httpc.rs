//! A minimal blocking HTTP/1.1 client over `std::net::TcpStream`: the
//! one client for everything that talks to a `dial serve` node — sync,
//! the router, a node's promotion survey, `dial replay`, `dial promote`.
//!
//! Every server in the workspace ([`crate::wire`]) closes the connection
//! after each response. That lets the client stay tiny: one request per
//! connection, `Connection: close`, read status line + headers, then read
//! the body to EOF (bounded by `Content-Length` when the server declares
//! one). No keep-alive, no chunked encoding, no TLS — exactly what the
//! in-tree server emits and nothing more.

use std::io::{ErrorKind, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// How long a single request may take end to end. Sync fetches move at
/// most one sealed batch (a few hundred KiB at paper scale), so a slow
/// leader is indistinguishable from a dead one well before this.
const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// A parsed HTTP response: status code, headers in arrival order, raw
/// body bytes.
#[derive(Debug, Clone)]
pub struct HttpReply {
    /// Status code from the response line.
    pub status: u16,
    /// `(name, value)` pairs in arrival order, names as sent.
    pub headers: Vec<(String, String)>,
    /// The response body, raw.
    pub body: Vec<u8>,
}

impl HttpReply {
    /// First header value matching `name` (case-insensitive), if any.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(n, _)| n.eq_ignore_ascii_case(name)).map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8 text (lossy) — for JSON endpoints.
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// `GET {path}` against `addr` (a `host:port` string).
pub fn get(addr: &str, path: &str) -> Result<HttpReply, String> {
    exchange(addr, "GET", path, None, &[], IO_TIMEOUT)
}

/// [`get`] under a caller-chosen deadline — for probes, where "slow" must
/// mean "down" long before the default 10s would say so. `timeout`
/// bounds connect, write, and read each.
pub fn get_with_timeout(addr: &str, path: &str, timeout: Duration) -> Result<HttpReply, String> {
    exchange(addr, "GET", path, None, &[], timeout)
}

/// `POST {path}` with a body against `addr`.
pub fn post(addr: &str, path: &str, body: &[u8]) -> Result<HttpReply, String> {
    exchange(addr, "POST", path, Some(body), &[], IO_TIMEOUT)
}

/// [`post`] with extra request headers (`(name, value)` pairs) — how the
/// router stamps forwarded writes with `X-Dial-Epoch`/`X-Dial-Leader`.
pub fn post_with_headers(
    addr: &str,
    path: &str,
    body: &[u8],
    headers: &[(&str, &str)],
) -> Result<HttpReply, String> {
    exchange(addr, "POST", path, Some(body), headers, IO_TIMEOUT)
}

/// Opens `GET {path}` on `addr` for a response the caller reads raw off
/// the returned socket — for long-lived streams such as `/v1/stream`.
/// `timeout` bounds the connect and the write of the request head; the
/// caller sets its own read timeout.
pub fn get_stream(addr: &str, path: &str, timeout: Duration) -> Result<TcpStream, String> {
    send(addr, "GET", path, None, &[], timeout)
}

/// The one implementation behind every whole-response entry point.
fn exchange(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&[u8]>,
    headers: &[(&str, &str)],
    timeout: Duration,
) -> Result<HttpReply, String> {
    let mut stream = send(addr, method, path, body, headers, timeout)?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).map_err(|e| io_error("read from", addr, &e, timeout))?;
    parse(&raw).map_err(|e| format!("response from {addr}: {e}"))
}

/// Connects to `addr` under `timeout`, arms the socket's read and write
/// timeouts with it, and sends the request head and body.
fn send(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&[u8]>,
    headers: &[(&str, &str)],
    timeout: Duration,
) -> Result<TcpStream, String> {
    let sock_addr = addr.to_socket_addrs().ok().and_then(|mut all| all.next());
    let sock_addr = sock_addr.ok_or_else(|| format!("bad address {addr}"))?;
    let mut stream = TcpStream::connect_timeout(&sock_addr, timeout)
        .map_err(|e| io_error("connect", addr, &e, timeout))?;
    stream
        .set_read_timeout(Some(timeout))
        .and_then(|()| stream.set_write_timeout(Some(timeout)))
        .map_err(|e| format!("socket timeouts on {addr}: {e}"))?;

    let mut head = format!("{method} {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n");
    for (name, value) in headers {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    if let Some(payload) = body {
        head.push_str(&format!("Content-Length: {}\r\n", payload.len()));
    }
    head.push_str("\r\n");
    stream
        .write_all(head.as_bytes())
        .and_then(|()| stream.write_all(body.unwrap_or(&[])))
        .map_err(|e| io_error("write to", addr, &e, timeout))?;
    Ok(stream)
}

/// Names an expired socket timeout as one; the OS reports it as
/// `WouldBlock` ("Resource temporarily unavailable").
fn io_error(what: &str, addr: &str, e: &std::io::Error, timeout: Duration) -> String {
    if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) {
        return format!("{what} {addr}: timed out after {timeout:?}");
    }
    format!("{what} {addr}: {e}")
}

/// Splits raw response bytes into status, headers, and body.
fn parse(raw: &[u8]) -> Result<HttpReply, String> {
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| "no header terminator".to_string())?;
    let head = std::str::from_utf8(&raw[..head_end])
        .map_err(|e| format!("non-UTF-8 header block: {e}"))?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().ok_or_else(|| "empty response".to_string())?;
    let status = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| format!("bad status line: {status_line:?}"))?;
    let mut headers = Vec::new();
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            headers.push((name.trim().to_string(), value.trim().to_string()));
        }
    }
    let mut body = raw[head_end + 4..].to_vec();
    // The server closes after each response, so EOF normally bounds the
    // body; Content-Length still wins when declared, guarding against
    // trailing bytes from a confused upstream.
    let declared = headers
        .iter()
        .find(|(n, _)| n.eq_ignore_ascii_case("content-length"))
        .and_then(|(_, v)| v.parse::<usize>().ok());
    if let Some(len) = declared {
        if body.len() < len {
            return Err(format!("truncated body: {} of {len} byte(s)", body.len()));
        }
        body.truncate(len);
    }
    Ok(HttpReply { status, headers, body })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_status_headers_and_bounded_body() {
        let raw = b"HTTP/1.1 421 Misdirected Request\r\nContent-Type: application/json\r\nLocation: http://h:1/v1/ingest\r\nContent-Length: 4\r\n\r\nbodyJUNK";
        let reply = parse(raw).unwrap();
        assert_eq!(reply.status, 421);
        assert_eq!(reply.header("location"), Some("http://h:1/v1/ingest"));
        assert_eq!(reply.header("CONTENT-TYPE"), Some("application/json"));
        assert_eq!(reply.body, b"body");
    }

    #[test]
    fn rejects_truncated_and_malformed_responses() {
        assert!(parse(b"HTTP/1.1 200 OK\r\nContent-Length: 9\r\n\r\nshort").is_err());
        assert!(parse(b"garbage").is_err());
        assert!(parse(b"HTTP/1.1 nope\r\n\r\n").is_err());
    }
}
