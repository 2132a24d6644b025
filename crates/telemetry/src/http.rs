//! The one std-only HTTP/1.1 listener: the control-plane API and
//! `vfcd`'s scrape endpoint both bind it.
//!
//! An accept thread hands connections to a bounded queue drained by
//! worker threads; a worker reads one request within [`Limits`], calls
//! the handler once, writes its [`Response`] and closes the connection
//! (no keep-alive, no TLS). What the listener refuses on its own is a
//! typed [`Refusal`], counted on atomics ([`Listener::refusal_counter`])
//! so that no refusal waits on the handler's state — least of all a
//! queue-full shed, which happens exactly when the workers are stuck
//! behind that state.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, TrySendError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The listener's overload limits.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Total time a client gets to deliver one full request. The clock
    /// covers the whole read — a slow loris trickling one byte per
    /// packet still hits it — and expiry answers `408`.
    pub read_timeout: Duration,
    /// Socket write timeout for the response.
    pub write_timeout: Duration,
    /// Largest accepted request body; a larger `Content-Length` is
    /// refused with `413` before any body byte is read (headers over
    /// 16 KiB are cut off the same way).
    pub max_body_bytes: usize,
    /// Bounded accept queue depth: connections beyond it are shed
    /// immediately with `503` + `Retry-After` instead of queueing
    /// without bound behind a busy worker.
    pub queue_depth: usize,
    /// Worker threads draining the accept queue (≥ 1).
    pub workers: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            read_timeout: Duration::from_secs(2),
            write_timeout: Duration::from_secs(2),
            max_body_bytes: 64 * 1024,
            queue_depth: 64,
            workers: 2,
        }
    }
}

/// Why the listener answered a connection without calling the handler;
/// each maps 1:1 to a status.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Refusal {
    /// The client did not deliver a full request within the read
    /// timeout (`408`).
    ReadTimeout = 0,
    /// Declared or delivered request size exceeds the cap (`413`).
    BodyTooLarge = 1,
    /// The bounded accept queue was full (`503`, retryable).
    QueueFull = 2,
    /// The bytes were not a parseable HTTP request (`400` — the
    /// client's fault, not load).
    Malformed = 3,
}

impl Refusal {
    /// The status and the error message the listener answers with.
    fn answer(self) -> (u16, &'static str) {
        match self {
            Refusal::ReadTimeout => (408, "request read timed out"),
            Refusal::BodyTooLarge => (413, "request exceeds the body cap"),
            Refusal::QueueFull => (503, "server overloaded: accept queue full"),
            Refusal::Malformed => (400, "malformed request"),
        }
    }
}

/// What a handler answers; the listener adds `Content-Length` and
/// `Connection: close`.
pub struct Response {
    /// HTTP status.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// The body.
    pub body: String,
    /// Seconds for a `Retry-After` header, when retrying can help.
    pub retry_after: Option<u64>,
}

impl Response {
    /// A JSON body with `status`.
    pub fn json(status: u16, body: String) -> Response {
        Response {
            status,
            content_type: "application/json",
            body,
            retry_after: None,
        }
    }

    /// `200` with a Prometheus text page (exposition format 0.0.4).
    pub fn prometheus(page: String) -> Response {
        Response {
            content_type: "text/plain; version=0.0.4; charset=utf-8",
            ..Response::json(200, page)
        }
    }
}

/// Refusal counts, indexed by [`Refusal`] discriminant.
type Counters = [Arc<AtomicU64>; 4];

/// Count and answer a refusal, then drop the request bytes that have
/// already arrived: closing a socket with unread input resets the
/// connection, and the reset can destroy the answer before the client
/// reads it. The drain never blocks and stops after 64 KiB.
fn refuse(stream: &mut TcpStream, refusal: Refusal, counters: &Counters) {
    counters[refusal as usize].fetch_add(1, Ordering::Relaxed);
    let (status, message) = refusal.answer();
    let response = Response {
        retry_after: (refusal == Refusal::QueueFull).then_some(1),
        // The messages need no JSON escaping.
        ..Response::json(status, format!("{{\"error\":\"{message}\"}}"))
    };
    respond(stream, &response);
    let _ = stream.set_nonblocking(true);
    let mut sink = [0u8; 1024];
    for _ in 0..64 {
        if !matches!(stream.read(&mut sink), Ok(n) if n > 0) {
            break;
        }
    }
}

/// A bound listener. Owns nothing but the address and the refusal
/// counters; the accept and worker threads hold the handler and exit
/// with the process.
pub struct Listener {
    addr: SocketAddr,
    counters: Counters,
}

impl Listener {
    /// Bind `addr` (port 0 lets the OS pick) and answer every
    /// well-formed request with `handler(method, path, body)`, within
    /// `limits`.
    pub fn bind<A, H>(addr: A, limits: Limits, handler: H) -> Result<Listener, String>
    where
        A: ToSocketAddrs,
        H: Fn(&str, &str, &[u8]) -> Response + Send + Sync + 'static,
    {
        let listener = TcpListener::bind(addr).map_err(|e| format!("bind: {e}"))?;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("local addr: {e}"))?;
        let counters = Counters::default();
        let handler = Arc::new(handler);
        let (tx, rx) = mpsc::sync_channel::<TcpStream>(limits.queue_depth.max(1));
        let rx = Arc::new(Mutex::new(rx));
        for worker in 0..limits.workers.max(1) {
            let rx = Arc::clone(&rx);
            let handler = Arc::clone(&handler);
            let counters = counters.clone();
            std::thread::Builder::new()
                .name(format!("vfc-http-{worker}"))
                .spawn(move || loop {
                    // Hold the receiver lock only for the dequeue, not
                    // while handling.
                    let next = match rx.lock() {
                        Ok(rx) => rx.recv(),
                        Err(_) => break,
                    };
                    let Ok(mut stream) = next else { break };
                    let _ = stream.set_write_timeout(Some(limits.write_timeout));
                    match read_request(&mut stream, &limits) {
                        Ok((method, path, body)) => {
                            respond(&mut stream, &handler(&method, &path, &body));
                        }
                        Err(refusal) => refuse(&mut stream, refusal, &counters),
                    }
                })
                .map_err(|e| format!("spawn worker: {e}"))?;
        }
        let shed = counters.clone();
        std::thread::Builder::new()
            .name("vfc-http".into())
            .spawn(move || {
                for stream in listener.incoming() {
                    let Ok(stream) = stream else { continue };
                    match tx.try_send(stream) {
                        Ok(()) => {}
                        Err(TrySendError::Full(mut stream)) => {
                            let _ = stream.set_write_timeout(Some(limits.write_timeout));
                            refuse(&mut stream, Refusal::QueueFull, &shed);
                        }
                        Err(TrySendError::Disconnected(_)) => break,
                    }
                }
            })
            .map_err(|e| format!("spawn accept thread: {e}"))?;
        Ok(Listener { addr, counters })
    }

    /// The actually bound address (resolves `:0` to the chosen port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The live count of one kind of refusal since bind, bumped without
    /// any lock; a metric registry can render it as is
    /// ([`Registry::share`](crate::Registry::share)).
    pub fn refusal_counter(&self, refusal: Refusal) -> Arc<AtomicU64> {
        Arc::clone(&self.counters[refusal as usize])
    }
}

/// One bounded, deadline-aware read. The socket read timeout is set to
/// the time left until the overall deadline, so a trickling sender
/// cannot reset the clock packet by packet.
fn read_chunk(
    stream: &mut TcpStream,
    chunk: &mut [u8],
    started: Instant,
    timeout: Duration,
) -> Result<usize, Refusal> {
    let remaining = timeout
        .checked_sub(started.elapsed())
        .filter(|d| !d.is_zero())
        .ok_or(Refusal::ReadTimeout)?;
    stream
        .set_read_timeout(Some(remaining))
        .map_err(|_| Refusal::Malformed)?;
    match stream.read(chunk) {
        Ok(0) => Err(Refusal::Malformed), // EOF mid-request
        Ok(n) => Ok(n),
        Err(e)
            if matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ) =>
        {
            Err(Refusal::ReadTimeout)
        }
        Err(_) => Err(Refusal::Malformed),
    }
}

/// Read one request — request line, headers, `Content-Length` body —
/// within `limits`: the whole read must finish inside `read_timeout`,
/// headers stop at 16 KiB, and a declared body over `max_body_bytes` is
/// refused before a single body byte is read.
fn read_request(
    stream: &mut TcpStream,
    limits: &Limits,
) -> Result<(String, String, Vec<u8>), Refusal> {
    let started = Instant::now();
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 1024];
    let header_end = loop {
        if let Some(pos) = find(&buf, b"\r\n\r\n") {
            break pos + 4;
        }
        if buf.len() > 16 * 1024 {
            return Err(Refusal::BodyTooLarge);
        }
        let n = read_chunk(stream, &mut chunk, started, limits.read_timeout)?;
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = std::str::from_utf8(&buf[..header_end]).map_err(|_| Refusal::Malformed)?;
    let mut lines = head.split("\r\n");
    let mut request_line = lines.next().ok_or(Refusal::Malformed)?.split_whitespace();
    let method = request_line.next().ok_or(Refusal::Malformed)?.to_owned();
    let path = request_line.next().ok_or(Refusal::Malformed)?.to_owned();
    let content_length = lines
        .filter_map(|l| l.split_once(':'))
        .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
        .and_then(|(_, v)| v.trim().parse::<usize>().ok())
        .unwrap_or(0);
    if content_length > limits.max_body_bytes {
        return Err(Refusal::BodyTooLarge);
    }
    let mut body = buf[header_end..].to_vec();
    while body.len() < content_length {
        let n = read_chunk(stream, &mut chunk, started, limits.read_timeout)?;
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(content_length);
    Ok((method, path, body))
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

/// Write the whole response in one `write_all`: head and body in two
/// writes would let Nagle hold the body back for the delayed ACK.
fn respond(stream: &mut TcpStream, response: &Response) {
    let status = response.status;
    let reason = match status {
        200 => "OK",
        201 => "Created",
        400 => "Bad Request",
        403 => "Forbidden",
        404 => "Not Found",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        503 => "Service Unavailable",
        507 => "Insufficient Storage",
        _ => "Internal Server Error",
    };
    let retry = response
        .retry_after
        .map(|secs| format!("Retry-After: {secs}\r\n"))
        .unwrap_or_default();
    let out = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {}\r\nContent-Length: {}\r\n{retry}Connection: close\r\n\r\n{}",
        response.content_type,
        response.body.len(),
        response.body,
    );
    let _ = stream.write_all(out.as_bytes());
}
