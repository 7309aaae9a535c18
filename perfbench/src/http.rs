//! A minimal blocking HTTP/1.1 client for the socket workloads. The
//! server answers every request with `Connection: close`, so each request
//! is one connection, read to its end.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Status code and body of one response.
#[derive(Debug)]
pub struct Response {
    /// HTTP status code (0 when the status line did not parse).
    pub status: u16,
    /// Everything after the head.
    pub body: String,
}

/// Sends one request and reads the whole response.
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> std::io::Result<Response> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    stream.set_write_timeout(Some(Duration::from_secs(60)))?;
    let payload = body.unwrap_or("");
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\nContent-Length: {}\r\n\r\n",
        payload.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(payload.as_bytes())?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let text = String::from_utf8_lossy(&raw);
    let (head, body) = text.split_once("\r\n\r\n").unwrap_or((&text, ""));
    let status = head.split_whitespace().nth(1).and_then(|s| s.parse().ok()).unwrap_or(0);
    Ok(Response { status, body: body.to_string() })
}

/// The value of a top-level string field in a JSON body, found by its
/// `"key":"` prefix (enough for the server's fixed-order envelopes).
pub fn string_field<'a>(body: &'a str, key: &str) -> Option<&'a str> {
    let marker = format!("\"{key}\":\"");
    let start = body.find(&marker)? + marker.len();
    let len = body[start..].find('"')?;
    Some(&body[start..start + len])
}
