//! A minimal hand-rolled HTTP/1.1 ops responder (and matching client).
//!
//! The workspace is hermetic — no hyper, no tokio — but a Prometheus
//! scrape endpoint only needs a tiny, defensive subset of HTTP/1.1:
//! `GET <path>`, one request per connection, `Connection: close`, and
//! exactly three outcomes (200 with a body, 404, 400). [`OpsServer`]
//! implements that subset over std's blocking sockets:
//!
//! - it runs on the accept loop `dapd::Server` runs on ([`crate::accept`]),
//!   non-blocking with a 10 ms poll, so a stalled or malicious client
//!   can never park it — requests are served on short-lived threads
//!   capped at [`OpsServerConfig::max_connections`], and connections
//!   over the cap are closed unserved;
//! - every connection gets read/write deadlines and a hard request-size
//!   cap, so torn reads and oversized headers resolve to 400 within
//!   [`OpsServerConfig::read_deadline`] instead of leaking threads;
//! - request parsing ([`handle_request`]) is a pure function over the
//!   raw bytes, which is what the seeded fuzz test drives: any byte
//!   soup answers 200/400/404, never a panic, never a hang.
//!
//! Routing is a caller-supplied closure from path to [`OpsResponse`];
//! `dapd` mounts `/metrics`, `/healthz`, `/varz`, and `/debug/flight`
//! on it, and the explore supervisor mounts the fleet equivalents.
//!
//! [`http_get`] is the matching one-shot client, used by `dapctl top`,
//! `dapctl scrape`, and the CI smoke so nothing outside the repo
//! (curl, python) is needed to scrape the plane.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::accept::{self, Admission, Limits};

/// One response from an [`OpsRouter`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpsResponse {
    /// HTTP status code (200, 400, or 404).
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body.
    pub body: String,
}

impl OpsResponse {
    /// A `200 OK` plain-text response.
    pub fn ok_text(body: String) -> Self {
        Self {
            status: 200,
            content_type: "text/plain; version=0.0.4; charset=utf-8",
            body,
        }
    }

    /// A `200 OK` JSON response.
    pub fn ok_json(body: String) -> Self {
        Self {
            status: 200,
            content_type: "application/json",
            body,
        }
    }

    /// A `404 Not Found` response.
    pub fn not_found() -> Self {
        Self {
            status: 404,
            content_type: "text/plain; charset=utf-8",
            body: "not found\n".to_string(),
        }
    }

    /// A `400 Bad Request` response.
    pub fn bad_request() -> Self {
        Self {
            status: 400,
            content_type: "text/plain; charset=utf-8",
            body: "bad request\n".to_string(),
        }
    }
}

/// Maps a request path (e.g. `/metrics`) to a response. Return
/// [`OpsResponse::not_found`] for unknown paths.
pub type OpsRouter = Arc<dyn Fn(&str) -> OpsResponse + Send + Sync>;

/// Limits for one ops endpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpsServerConfig {
    /// Per-connection read/write deadline.
    pub read_deadline: Duration,
    /// Concurrent connection-handler threads; connections beyond the
    /// cap are closed unserved (the scraper retries).
    pub max_connections: usize,
    /// Hard cap on request bytes read (request line + headers).
    pub max_request_bytes: usize,
}

impl Default for OpsServerConfig {
    fn default() -> Self {
        Self {
            read_deadline: Duration::from_secs(2),
            max_connections: 8,
            max_request_bytes: 8 * 1024,
        }
    }
}

/// A bound-but-not-yet-serving ops endpoint.
#[derive(Debug)]
pub struct OpsServer {
    listener: TcpListener,
    config: OpsServerConfig,
}

/// Handle to a running [`OpsServer`].
pub struct OpsHandle {
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    addr: SocketAddr,
}

impl OpsServer {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) with the
    /// default limits.
    pub fn bind(addr: &str) -> std::io::Result<Self> {
        Ok(Self {
            listener: TcpListener::bind(addr)?,
            config: OpsServerConfig::default(),
        })
    }

    /// Replaces the limits.
    pub fn with_config(mut self, config: OpsServerConfig) -> Self {
        self.config = config;
        self
    }

    /// The bound address (reports the ephemeral port after `:0` binds).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Starts serving `router` on a background acceptor thread.
    pub fn spawn(self, router: OpsRouter) -> std::io::Result<OpsHandle> {
        let addr = self.listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let config = self.config;
        let limits = Limits {
            read_deadline: config.read_deadline,
            write_deadline: config.read_deadline,
            max_connections: config.max_connections,
        };
        let acceptor = accept::spawn(
            "ops",
            self.listener,
            limits,
            Arc::clone(&stop),
            move |stream| serve_connection(stream, &config, &router),
            CloseUnserved,
        )?;
        Ok(OpsHandle {
            stop,
            acceptor: Some(acceptor),
            addr,
        })
    }
}

impl OpsHandle {
    /// The address the endpoint is serving on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Asks the acceptor to stop after its current poll.
    pub fn request_stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
    }

    /// Stops the acceptor and waits for it, as dropping the handle does
    /// (worker threads are joined by the acceptor on its way out).
    pub fn join(self) {
        drop(self);
    }
}

impl Drop for OpsHandle {
    fn drop(&mut self) {
        self.request_stop();
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
    }
}

/// The ops endpoint's admission policy: a connection over the cap is
/// closed unserved (the scraper retries).
struct CloseUnserved;

impl Admission<TcpStream> for CloseUnserved {
    fn refuse(&mut self, stream: TcpStream) {
        drop(stream);
    }
}

fn serve_connection(mut stream: TcpStream, config: &OpsServerConfig, router: &OpsRouter) {
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 1024];
    // Read until end of headers, the size cap, the deadline, or EOF —
    // whichever comes first. Every outcome gets a definite answer.
    let complete = loop {
        if buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.windows(2).any(|w| w == b"\n\n") {
            break true;
        }
        if buf.len() > config.max_request_bytes {
            break false;
        }
        match stream.read(&mut chunk) {
            Ok(0) => break false, // torn: EOF before end of headers
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                break false
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => break false,
        }
    };
    let response = if complete {
        handle_request(&buf, router.as_ref())
    } else {
        render_response(&OpsResponse::bad_request())
    };
    let _ = stream.write_all(&response);
    let _ = stream.flush();
}

/// Parses one raw HTTP request and renders the full response bytes.
/// Pure (no I/O), so the fuzz harness can drive it with arbitrary byte
/// soup: the result is always a well-formed 200/400/404 response.
pub fn handle_request(raw: &[u8], router: &dyn Fn(&str) -> OpsResponse) -> Vec<u8> {
    let response = match parse_request_path(raw) {
        Some(path) => router(&path),
        None => OpsResponse::bad_request(),
    };
    render_response(&response)
}

/// Extracts the path from `GET <path> HTTP/1.x` if the request line is
/// well-formed; anything else (other methods, missing version, non-UTF-8,
/// embedded NUL or control bytes, paths not starting with `/`) is `None`.
fn parse_request_path(raw: &[u8]) -> Option<String> {
    let end = raw.iter().position(|&b| b == b'\n')?;
    let line = std::str::from_utf8(&raw[..end])
        .ok()?
        .trim_end_matches('\r');
    if line.len() > 4096 || line.bytes().any(|b| b.is_ascii_control()) {
        return None;
    }
    let mut parts = line.split(' ');
    let (method, path, version) = (parts.next()?, parts.next()?, parts.next()?);
    if parts.next().is_some() || method != "GET" || !version.starts_with("HTTP/1.") {
        return None;
    }
    if !path.starts_with('/') || path.is_empty() {
        return None;
    }
    // Drop any query string; the ops endpoints take none.
    Some(path.split('?').next().unwrap_or(path).to_string())
}

fn render_response(response: &OpsResponse) -> Vec<u8> {
    let reason = match response.status {
        200 => "OK",
        404 => "Not Found",
        _ => "Bad Request",
    };
    let mut out = format!(
        "HTTP/1.1 {} {reason}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        response.status,
        response.content_type,
        response.body.len()
    )
    .into_bytes();
    out.extend_from_slice(response.body.as_bytes());
    out
}

/// One-shot HTTP GET against an ops endpoint: connects, sends the
/// request, reads to EOF (the server always closes), and returns
/// `(status, body)`.
///
/// # Errors
///
/// Connection and I/O errors, plus `InvalidData` if the response is not
/// parseable HTTP.
pub fn http_get(addr: &str, path: &str, timeout: Duration) -> std::io::Result<(u16, String)> {
    let sock_addr = addr
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| std::io::Error::new(ErrorKind::InvalidInput, "no address"))?;
    let mut stream = TcpStream::connect_timeout(&sock_addr, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    stream.write_all(
        format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n").as_bytes(),
    )?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let text = String::from_utf8(raw)
        .map_err(|_| std::io::Error::new(ErrorKind::InvalidData, "non-UTF-8 response"))?;
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| std::io::Error::new(ErrorKind::InvalidData, "no header terminator"))?;
    let status: u16 = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| std::io::Error::new(ErrorKind::InvalidData, "bad status line"))?;
    Ok((status, body.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_router() -> OpsRouter {
        Arc::new(|path: &str| match path {
            "/healthz" => OpsResponse::ok_text("ok\n".to_string()),
            "/varz" => OpsResponse::ok_json("{\"x\":1}".to_string()),
            _ => OpsResponse::not_found(),
        })
    }

    #[test]
    fn parses_well_formed_request_lines_only() {
        assert_eq!(
            parse_request_path(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n"),
            Some("/metrics".to_string())
        );
        assert_eq!(
            parse_request_path(b"GET /varz?pretty HTTP/1.0\r\n\r\n"),
            Some("/varz".to_string())
        );
        for bad in [
            &b"POST /metrics HTTP/1.1\r\n\r\n"[..],
            b"GET /metrics\r\n\r\n",
            b"GET metrics HTTP/1.1\r\n\r\n",
            b"GET /a b HTTP/1.1\r\n\r\n",
            b"\xff\xfe\r\n\r\n",
            b"",
        ] {
            assert_eq!(parse_request_path(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn handle_request_always_answers() {
        let router = test_router();
        let ok = handle_request(b"GET /healthz HTTP/1.1\r\n\r\n", router.as_ref());
        assert!(ok.starts_with(b"HTTP/1.1 200 OK\r\n"));
        let missing = handle_request(b"GET /nope HTTP/1.1\r\n\r\n", router.as_ref());
        assert!(missing.starts_with(b"HTTP/1.1 404"));
        let garbage = handle_request(b"\x00\x01\x02\r\n\r\n", router.as_ref());
        assert!(garbage.starts_with(b"HTTP/1.1 400"));
    }

    #[test]
    fn serves_over_a_real_socket() {
        let handle = OpsServer::bind("127.0.0.1:0")
            .unwrap()
            .spawn(test_router())
            .unwrap();
        let addr = handle.addr().to_string();
        let (status, body) = http_get(&addr, "/healthz", Duration::from_secs(2)).unwrap();
        assert_eq!((status, body.as_str()), (200, "ok\n"));
        let (status, body) = http_get(&addr, "/varz", Duration::from_secs(2)).unwrap();
        assert_eq!((status, body.as_str()), (200, "{\"x\":1}"));
        let (status, _) = http_get(&addr, "/missing", Duration::from_secs(2)).unwrap();
        assert_eq!(status, 404);
        handle.join();
    }
}
