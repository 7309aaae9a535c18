//! HTTP/1.1 wire code shared by the `dial serve` node and the `dial
//! route` router (DESIGN §12); [`crate::httpc`] is the matching client.
//!
//! One request per connection, each on its own thread, `Connection:
//! close` on every reply. Callers pass the limits in and wrap these calls
//! with their own counters and fault hooks. Every error reply carries one
//! envelope, `{"error": {"code", "message", "detail"}}`: `code` is stable
//! and machine-matchable, and `detail` is `{}` when there is nothing to
//! add.

use serde::Serialize;
use serde_json::Value;
use std::borrow::Cow;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The default window for a request head to arrive, and again for a body.
pub const WINDOW: Duration = Duration::from_secs(5);
/// The default socket write timeout: a client that stops reading is cut.
pub const WRITE_TIMEOUT: Duration = Duration::from_secs(5);
/// The default cap on a request head, in bytes.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// A request whose head passed [`read_request`].
#[derive(Debug)]
pub struct Request {
    /// Everything through the blank line ending the head.
    pub head: String,
    /// The method from the request line.
    pub method: String,
    /// The request target as sent, query string included.
    pub target: String,
    /// Body bytes that arrived in the same reads as the head.
    pub body: Vec<u8>,
}

/// A request [`read_request`] refused, with the reply it gets.
#[derive(Debug)]
pub struct Refusal {
    /// The enveloped error reply.
    pub response: Response,
    /// Over a limit (408, 431, 413) rather than malformed (400): the
    /// client may still be sending, so the reply is followed by [`drain`].
    pub over_limit: bool,
}

/// One reply, with the optional headers that carry meaning (`Location`
/// on 308/421, `Retry-After` on 429/503).
#[derive(Debug, Clone)]
pub struct Response {
    /// The status code.
    pub status: u16,
    /// The `Content-Type` header value.
    pub content_type: Cow<'static, str>,
    /// The body, raw.
    pub body: Vec<u8>,
    /// The `Location` header value, if any.
    pub location: Option<String>,
    /// The `Retry-After` header value in seconds, if any.
    pub retry_after: Option<u64>,
}

// Owned fields throughout: the vendored serde derive does not support
// lifetime parameters, and these bodies are tiny.
#[derive(Serialize)]
struct ErrorEnvelope {
    error: ErrorBody,
}

#[derive(Serialize)]
struct ErrorBody {
    code: String,
    message: String,
    detail: Value,
}

impl Response {
    /// A JSON reply.
    pub fn json(status: u16, body: String) -> Self {
        let content_type = Cow::Borrowed("application/json");
        Self { status, content_type, body: body.into_bytes(), location: None, retry_after: None }
    }

    /// A 200 of raw bytes (CRC-framed sync batches).
    pub(crate) fn octets(body: Vec<u8>) -> Self {
        let content_type = Cow::Borrowed("application/octet-stream");
        Self { status: 200, content_type, body, location: None, retry_after: None }
    }

    /// The uniform error envelope; `detail` is `{}` when `None`.
    pub fn error(status: u16, code: &str, message: String, detail: Option<Value>) -> Self {
        let detail = detail.unwrap_or_else(|| Value::Object(Default::default()));
        let error = ErrorBody { code: code.to_string(), message, detail };
        Self::json(status, to_json(&ErrorEnvelope { error }))
    }
}

/// Reads one request head and vets it. The head must arrive within
/// `window` of `started` — the read timeout is re-armed with the
/// *remaining* window before every read, so a client dribbling bytes is
/// cut off like a silent one (408) — and stay under `max_head` bytes
/// (431). A request line that does not parse answers 400, and a declared
/// body over `max_body` 413, unread.
pub fn read_request(
    stream: &mut TcpStream,
    started: Instant,
    window: Duration,
    max_head: usize,
    max_body: usize,
) -> Result<Request, Refusal> {
    let deadline = started + window;
    let late = || {
        let message = format!("request head did not arrive within {window:?}");
        refusal(408, "request_timeout", message, true)
    };
    let mut head = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    let body = loop {
        let now = Instant::now();
        if now >= deadline || stream.set_read_timeout(Some(deadline - now)).is_err() {
            return Err(late());
        }
        match stream.read(&mut chunk) {
            Ok(0) => break Vec::new(),
            Ok(n) => {
                head.extend_from_slice(&chunk[..n]);
                if head.len() > max_head {
                    let message = format!("request head exceeds {max_head} bytes");
                    return Err(refusal(431, "headers_too_large", message, true));
                }
                if let Some(pos) = head.windows(4).position(|w| w == b"\r\n\r\n") {
                    break head.split_off(pos + 4);
                }
            }
            Err(_) => return Err(late()),
        }
    };
    let head = String::from_utf8_lossy(&head).into_owned();
    let mut parts = head.lines().next().unwrap_or_default().split_whitespace();
    let (Some(method), Some(target)) = (parts.next(), parts.next()) else {
        let message = "could not parse the request line".to_string();
        return Err(refusal(400, "malformed_request", message, false));
    };
    let (method, target) = (method.to_string(), target.to_string());
    if let Some(len) = content_length(&head).filter(|len| *len > max_body) {
        let message = format!("declared body of {len} bytes exceeds {max_body} bytes");
        return Err(refusal(413, "payload_too_large", message, true));
    }
    Ok(Request { head, method, target, body })
}

fn refusal(status: u16, code: &str, message: String, over_limit: bool) -> Refusal {
    Refusal { response: Response::error(status, code, message, None), over_limit }
}

/// Reads the rest of a `len`-byte body onto `body` (the bytes that came
/// with the head) under one total `window`; a late body answers 408. A
/// body the client ended early comes back short, for the caller to judge
/// ([`truncated_body`]).
pub fn read_body(
    stream: &mut TcpStream,
    mut body: Vec<u8>,
    len: usize,
    window: Duration,
) -> Result<Vec<u8>, Response> {
    let deadline = Instant::now() + window;
    let late = || {
        let message = format!("request body did not arrive within {window:?}");
        Response::error(408, "request_timeout", message, None)
    };
    let mut chunk = [0u8; 4096];
    while body.len() < len {
        let now = Instant::now();
        if now >= deadline || stream.set_read_timeout(Some(deadline - now)).is_err() {
            return Err(late());
        }
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => body.extend_from_slice(&chunk[..n]),
            Err(_) => return Err(late()),
        }
    }
    body.truncate(len);
    Ok(body)
}

/// The 400 for a body that ended after `got` of `len` declared bytes.
pub fn truncated_body(got: usize, len: usize) -> Response {
    let message = format!("body ended after {got} of {len} declared bytes");
    Response::error(400, "truncated_body", message, None)
}

/// The declared `Content-Length`, if any header carries one.
pub fn content_length(head: &str) -> Option<usize> {
    header_value(head, "content-length").and_then(|v| v.parse().ok())
}

/// The value of header `name` (case-insensitive), if the head carries it.
pub(crate) fn header_value<'a>(head: &'a str, name: &str) -> Option<&'a str> {
    head.lines().skip(1).find_map(|line| {
        let (n, value) = line.split_once(':')?;
        n.trim().eq_ignore_ascii_case(name).then(|| value.trim())
    })
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        308 => "Permanent Redirect",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        411 => "Length Required",
        413 => "Payload Too Large",
        421 => "Misdirected Request",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        502 => "Bad Gateway",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Internal Server Error",
    }
}

/// The status line and headers of `response`, in a fixed order:
/// Content-Type, Location, Retry-After, Content-Length, Connection.
pub(crate) fn head(response: &Response) -> String {
    let location =
        response.location.as_ref().map(|l| format!("Location: {l}\r\n")).unwrap_or_default();
    let retry_after =
        response.retry_after.map(|s| format!("Retry-After: {s}\r\n")).unwrap_or_default();
    format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\n{location}{retry_after}Content-Length: {}\r\nConnection: close\r\n\r\n",
        response.status,
        reason(response.status),
        response.content_type,
        response.body.len()
    )
}

/// Writes `response`: the head, then the body, then a flush.
pub fn write_response(stream: &mut TcpStream, response: &Response) -> std::io::Result<()> {
    stream.write_all(head(response).as_bytes())?;
    stream.write_all(&response.body)?;
    stream.flush()
}

/// After replying to a request refused before its bytes were consumed,
/// briefly drain whatever the client already sent, so closing the socket
/// doesn't RST the unread data and destroy the reply before it is read.
pub fn drain(stream: &mut TcpStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let mut sink = [0u8; 1024];
    for _ in 0..64 {
        if matches!(stream.read(&mut sink), Ok(0) | Err(_)) {
            break;
        }
    }
}

/// `value` as compact JSON.
pub(crate) fn to_json<T: Serialize>(value: &T) -> String {
    // lint:allow(unwrap-in-serve): serialising an in-memory value; failure is a serde bug, not a request error
    serde_json::to_string(value).expect("response bodies serialise")
}

/// JSON string literal for `s` (quotes + escaping).
pub fn json_str(s: &str) -> String {
    to_json(&s)
}

/// A listener's accept thread: it blocks in `accept` and runs each
/// connection on a thread of its own until [`Acceptor::stop`].
pub struct Acceptor {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl Acceptor {
    /// Spawns the thread `{name}-accept`; each accepted connection runs
    /// `task(stream)` on a thread named `{name}-conn`.
    pub fn spawn<T: FnOnce() + Send + 'static>(
        listener: TcpListener,
        name: &str,
        mut task: impl FnMut(TcpStream) -> T + Send + 'static,
    ) -> std::io::Result<Self> {
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let (stopped, conn_name) = (Arc::clone(&stop), format!("{name}-conn"));
        let accept = move || {
            for conn in listener.incoming() {
                if stopped.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = conn else { continue };
                let _ = std::thread::Builder::new().name(conn_name.clone()).spawn(task(stream));
            }
        };
        let handle = std::thread::Builder::new().name(format!("{name}-accept")).spawn(accept)?;
        Ok(Self { addr, stop, handle: Some(handle) })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting: set the flag, poke the listener (the thread only
    /// observes the flag around an accept), join the thread.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}
