//! `whynot-serve`: a dependency-free HTTP/1.1 front end for the explanation
//! service.
//!
//! The server is deliberately small: an accept loop, one **bounded**
//! admission channel, and a fixed set of handler workers. It parses just
//! enough HTTP to be a correct peer for real clients — the request line,
//! headers, `Content-Length` framing, `Connection` keep-alive, and
//! `Expect: 100-continue` — and routes `POST /v1/explain|batch|stats`
//! onto the existing wire dispatch ([`ExplainService::handle_wire`]), so the
//! HTTP body *is* the wire document and answers are byte-identical to the
//! in-process path.
//!
//! # Admission control
//!
//! The acceptor hands each connection to the workers through one
//! `std::sync::mpsc::sync_channel` that buffers at most 64 connections not
//! yet claimed by a worker. When the channel is full the acceptor **sheds**
//! the connection immediately: it writes a complete `429 Too Many Requests`
//! response with `Retry-After: 1` and closes. Shedding at the door keeps the
//! server's memory and latency bounded under overload — a client that waits
//! in an unbounded queue past its own deadline gets the worst of both worlds
//! (it waits *and* fails). On shutdown the acceptor returns and drops the
//! sender; the workers serve what is still buffered, then exit.
//!
//! The other limits are constants too: request bodies up to 8 MiB (larger
//! ones get 413 without being read), and an idle keep-alive connection
//! holds its worker for at most 5 s.
//!
//! # Per-request isolation
//!
//! Each request runs under the service's per-request resource guard
//! (`whynot-guard`): `timeout_ms` comes from the request body, or the
//! `X-Whynot-Timeout-Ms` header, or [`ServeConfig::default_timeout_ms`] —
//! first one set wins, body first. Typed guard trips map onto HTTP statuses
//! (`deadline` → 408, `trace_budget`/`eval_budget` → 413) and panicking
//! requests are isolated behind `catch_unwind` (500, never a dead worker).
//!
//! The module also ships [`HttpClient`], a minimal std-only keep-alive
//! client, used by the integration tests and the end-to-end benchmark. It
//! writes its requests with the same message writer as the server.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use whynot_obs::Counter;

use crate::error::ServiceError;
use crate::json::Json;
use crate::service::ExplainService;

/// HTTP connections accepted (including shed ones).
pub(crate) static HTTP_CONNECTIONS: Counter = Counter::new();
/// HTTP requests parsed and dispatched.
pub(crate) static HTTP_REQUESTS: Counter = Counter::new();
/// Connections shed at the door with 429 because the admission queue was full.
pub(crate) static HTTP_SHED: Counter = Counter::new();
/// Connections dropped for protocol errors (malformed request line, header
/// overflow, missing/broken framing, read timeouts).
pub(crate) static HTTP_PARSE_ERRORS: Counter = Counter::new();

/// Snapshot of the process-wide HTTP front-end counters (the `http` section
/// of the `stats` wire op).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HttpStats {
    /// Connections accepted (including shed ones).
    pub connections: u64,
    /// Requests parsed and dispatched.
    pub requests: u64,
    /// Connections shed with 429 (admission queue full).
    pub shed: u64,
    /// Connections dropped for protocol errors.
    pub parse_errors: u64,
}

/// Current HTTP front-end counters.
pub fn http_stats() -> HttpStats {
    HttpStats {
        connections: HTTP_CONNECTIONS.get(),
        requests: HTTP_REQUESTS.get(),
        shed: HTTP_SHED.get(),
        parse_errors: HTTP_PARSE_ERRORS.get(),
    }
}

/// Server configuration. [`ServeConfig::default`] is sized for a few dozen
/// concurrent keep-alive connections.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:7171` (port `0` picks a free port).
    pub addr: String,
    /// Handler worker threads. Keep-alive connections occupy a worker while
    /// open, so this bounds concurrent *connections*, not just requests.
    pub workers: usize,
    /// Deadline applied to requests that set none themselves (body and
    /// `X-Whynot-Timeout-Ms` header both take precedence).
    pub default_timeout_ms: Option<u64>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig { addr: "127.0.0.1:0".to_string(), workers: 32, default_timeout_ms: None }
    }
}

/// Admission bound: connections accepted but not yet claimed by a worker.
/// Beyond it, new connections are shed with 429.
const QUEUE_CAPACITY: usize = 64;
/// `Retry-After` seconds advertised on shed (429) responses.
const RETRY_AFTER_SECS: u64 = 1;
/// Largest accepted request body; larger ones get 413 without being read.
const MAX_BODY_BYTES: usize = 8 << 20;
/// How long an idle keep-alive connection may hold a worker.
const KEEP_ALIVE: Duration = Duration::from_secs(5);
/// Poll granularity for blocking socket reads: reads wake at this interval to
/// check the shutdown flag and the keep-alive budget, so shutdown latency and
/// idle-connection accounting are bounded independently of socket state.
const READ_POLL: Duration = Duration::from_millis(200);
/// Budget for reading the *rest* of a request once its first byte arrived
/// (header continuation and body). A client that stalls mid-request gets 408.
const REQUEST_READ_BUDGET: Duration = Duration::from_secs(10);
/// Longest accepted request/header line.
const MAX_LINE_BYTES: usize = 8 << 10;
/// Most headers accepted per request.
const MAX_HEADERS: usize = 100;

/// A running server: bound address plus the acceptor and worker threads.
/// Dropping the handle (or calling [`ServerHandle::shutdown`]) stops the
/// server and joins every thread; in-flight requests and connections still
/// waiting for a worker are served first.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

#[derive(Debug)]
struct Shared {
    service: Arc<ExplainService>,
    default_timeout_ms: Option<u64>,
    stop: AtomicBool,
}

impl ServerHandle {
    /// The bound address (resolves port `0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, lets in-flight requests finish, and joins all
    /// threads. Idle keep-alive connections notice within one read poll.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        // Wake the acceptor out of its blocking `accept` by connecting once;
        // it re-checks the stop flag per connection. Its return drops the
        // admission sender, so the workers exit once the channel is drained;
        // workers mid-connection notice the flag at their next read poll or
        // request boundary.
        let _ = TcpStream::connect(self.addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Binds and starts the server. Returns once the listener is accepting, so
/// callers can immediately connect to [`ServerHandle::addr`].
pub fn serve(service: Arc<ExplainService>, config: ServeConfig) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let shared = Arc::new(Shared {
        service,
        default_timeout_ms: config.default_timeout_ms,
        stop: AtomicBool::new(false),
    });
    let (admit, admitted) = mpsc::sync_channel::<TcpStream>(QUEUE_CAPACITY);
    let admitted = Arc::new(Mutex::new(admitted));

    let workers = (0..config.workers.max(1))
        .map(|i| {
            let shared = Arc::clone(&shared);
            let admitted = Arc::clone(&admitted);
            std::thread::Builder::new()
                .name(format!("whynot-http-{i}"))
                .spawn(move || worker_loop(&shared, &admitted))
                .expect("spawn http worker")
        })
        .collect();

    let acceptor = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("whynot-http-accept".to_string())
            .spawn(move || accept_loop(&shared, listener, admit))
            .expect("spawn http acceptor")
    };

    Ok(ServerHandle { addr, shared, acceptor: Some(acceptor), workers })
}

fn accept_loop(shared: &Shared, listener: TcpListener, admit: SyncSender<TcpStream>) {
    for conn in listener.incoming() {
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        let Ok(stream) = conn else { continue };
        HTTP_CONNECTIONS.add(1);
        if let Err(TrySendError::Full(stream)) = admit.try_send(stream) {
            shed(stream);
        }
    }
}

/// Rejects a connection at the door: a complete 429 response with
/// `Retry-After`, then close. The write is bounded so a dead client cannot
/// stall the acceptor.
fn shed(mut stream: TcpStream) {
    HTTP_SHED.add(1);
    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
    let body = http_error_json("admission queue full, retry later");
    let retry_after = RETRY_AFTER_SECS.to_string();
    let _ = write_response(&mut stream, 429, &body, false, &[("Retry-After", &retry_after)]);
}

/// Serves connections from the admission channel until it is closed and
/// drained. The receiver is shared: one idle worker waits in `recv`, the
/// others wait for its lock.
fn worker_loop(shared: &Shared, admitted: &Mutex<Receiver<TcpStream>>) {
    loop {
        let next = admitted.lock().expect("http admission poisoned").recv();
        match next {
            Ok(stream) => serve_connection(shared, stream),
            Err(_) => return,
        }
    }
}

/// A parse-level failure with the HTTP status it maps to. These never reach
/// `handle_wire`; they are answered with `{"error": {"kind": "http", ...}}`
/// and the connection closes.
struct HttpError {
    status: u16,
    message: String,
}

impl HttpError {
    fn new(status: u16, message: impl Into<String>) -> Self {
        HttpError { status, message: message.into() }
    }
}

/// The error body for HTTP-layer failures (kind `http`): admission shedding,
/// malformed framing, unknown routes, bad methods.
fn http_error_json(message: impl Into<String>) -> Json {
    Json::object([(
        "error",
        Json::object([("kind", Json::str("http")), ("message", Json::str(message.into()))]),
    )])
}

/// One parsed request.
struct Request {
    method: String,
    path: String,
    /// Header names lowercased; values trimmed.
    headers: Vec<(String, String)>,
    body: Vec<u8>,
    /// Whether the client asked to close (or spoke HTTP/1.0 without
    /// `keep-alive`).
    close: bool,
}

fn serve_connection(shared: &Shared, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(READ_POLL));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));
    let Ok(read_half) = stream.try_clone() else { return };
    let mut reader = BufReader::new(read_half);
    let mut out = stream;
    loop {
        match read_request(shared, &mut reader, &mut out) {
            Ok(Some(request)) => {
                HTTP_REQUESTS.add(1);
                let (status, body) = respond(shared, &request);
                let keep = !request.close && !shared.stop.load(Ordering::SeqCst);
                if write_response(&mut out, status, &body, keep, &[]).is_err() || !keep {
                    return;
                }
            }
            // Clean close or keep-alive idle expiry: nothing to answer.
            Ok(None) => return,
            Err(e) => {
                HTTP_PARSE_ERRORS.add(1);
                let _ = write_response(&mut out, e.status, &http_error_json(e.message), false, &[]);
                return;
            }
        }
    }
}

/// Reads one request. `Ok(None)` means the connection ended idle (EOF before
/// a request, or the keep-alive budget ran out) — close silently.
fn read_request(
    shared: &Shared,
    reader: &mut BufReader<TcpStream>,
    out: &mut TcpStream,
) -> Result<Option<Request>, HttpError> {
    // Request line, with the keep-alive idle allowance. Tolerate a little
    // leading blank-line padding (robustness; RFC 9112 §2.2).
    let mut request_line = String::new();
    for _ in 0..4 {
        match read_line(shared, reader, true)? {
            None => return Ok(None),
            Some(line) if line.is_empty() => continue,
            Some(line) => {
                request_line = line;
                break;
            }
        }
    }
    if request_line.is_empty() {
        return Err(HttpError::new(400, "malformed request: blank request line"));
    }

    let mut parts = request_line.split(' ');
    let (method, path, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v), None) if !m.is_empty() && !p.is_empty() => (m, p, v),
        _ => return Err(HttpError::new(400, format!("malformed request line `{request_line}`"))),
    };
    let http_11 = match version {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        _ => return Err(HttpError::new(400, format!("unsupported protocol version `{version}`"))),
    };

    // Headers: lowercased names, trimmed values.
    let mut headers: Vec<(String, String)> = Vec::new();
    loop {
        let line = match read_line(shared, reader, false)? {
            Some(line) => line,
            None => return Err(HttpError::new(400, "connection closed mid-headers")),
        };
        if line.is_empty() {
            break;
        }
        if headers.len() >= MAX_HEADERS {
            return Err(HttpError::new(400, "too many headers"));
        }
        let header = parse_header_line(&line)
            .ok_or_else(|| HttpError::new(400, format!("malformed header line `{line}`")))?;
        headers.push(header);
    }

    let header = |name| header(&headers, name);
    let connection = header("connection").unwrap_or("").to_ascii_lowercase();
    let close = connection.contains("close") || (!http_11 && !connection.contains("keep-alive"));

    // Body framing: POST requires Content-Length (this server does not speak
    // chunked transfer encoding); bodies on GET are rejected for simplicity.
    let content_length = match header("content-length") {
        None => None,
        Some(raw) => Some(
            raw.parse::<usize>()
                .map_err(|_| HttpError::new(400, format!("malformed Content-Length `{raw}`")))?,
        ),
    };
    if header("transfer-encoding").is_some() {
        return Err(HttpError::new(
            411,
            "chunked transfer encoding is not supported; send Content-Length",
        ));
    }
    let body_len = match (method, content_length) {
        ("POST", None) => return Err(HttpError::new(411, "POST requires Content-Length")),
        ("POST", Some(n)) => n,
        (_, Some(n)) if n > 0 => {
            return Err(HttpError::new(400, format!("unexpected body on {method}")))
        }
        _ => 0,
    };
    if body_len > MAX_BODY_BYTES {
        return Err(HttpError::new(
            413,
            format!("request body of {body_len} bytes exceeds the {MAX_BODY_BYTES} byte limit"),
        ));
    }

    // The client may be waiting for permission before sending the body.
    if body_len > 0 && header("expect").is_some_and(|e| e.eq_ignore_ascii_case("100-continue")) {
        let _ = write_message(out, "HTTP/1.1 100 Continue", &[], None);
    }

    let mut body = vec![0u8; body_len];
    read_exact_polled(reader, &mut body)?;

    Ok(Some(Request { method: method.to_string(), path: path.to_string(), headers, body, close }))
}

/// Reads one CRLF (or LF) terminated line, without the terminator.
///
/// Socket reads poll at [`READ_POLL`] so the shutdown flag and time budgets
/// are always honored. With `allow_idle` (the request line of a keep-alive
/// connection), quiet time up to the keep-alive budget returns `Ok(None)`;
/// without it (header lines), a stall beyond [`REQUEST_READ_BUDGET`] is a
/// 408.
fn read_line(
    shared: &Shared,
    reader: &mut BufReader<TcpStream>,
    allow_idle: bool,
) -> Result<Option<String>, HttpError> {
    let started = Instant::now();
    let mut line: Vec<u8> = Vec::new();
    loop {
        let available = match reader.fill_buf() {
            Ok(chunk) => chunk,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if line.is_empty() && allow_idle {
                    if shared.stop.load(Ordering::SeqCst) || started.elapsed() >= KEEP_ALIVE {
                        return Ok(None);
                    }
                    continue;
                }
                if started.elapsed() >= REQUEST_READ_BUDGET || shared.stop.load(Ordering::SeqCst) {
                    return Err(HttpError::new(408, "timed out reading request"));
                }
                continue;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                return if line.is_empty() && allow_idle {
                    Ok(None)
                } else {
                    Err(HttpError::new(400, "connection error mid-request"))
                }
            }
        };
        if available.is_empty() {
            // EOF.
            return if line.is_empty() && allow_idle {
                Ok(None)
            } else {
                Err(HttpError::new(400, "connection closed mid-request"))
            };
        }
        match available.iter().position(|b| *b == b'\n') {
            Some(newline) => {
                line.extend_from_slice(&available[..newline]);
                reader.consume(newline + 1);
                if line.last() == Some(&b'\r') {
                    line.pop();
                }
                let text = String::from_utf8(line)
                    .map_err(|_| HttpError::new(400, "request line or header is not UTF-8"))?;
                return Ok(Some(text));
            }
            None => {
                let taken = available.len();
                line.extend_from_slice(available);
                reader.consume(taken);
                if line.len() > MAX_LINE_BYTES {
                    return Err(HttpError::new(
                        400,
                        format!("request line or header exceeds {MAX_LINE_BYTES} bytes"),
                    ));
                }
            }
        }
    }
}

/// `read_exact` that tolerates the polling read timeout, bounded by
/// [`REQUEST_READ_BUDGET`].
fn read_exact_polled(
    reader: &mut BufReader<TcpStream>,
    mut buf: &mut [u8],
) -> Result<(), HttpError> {
    let started = Instant::now();
    while !buf.is_empty() {
        match reader.read(buf) {
            Ok(0) => return Err(HttpError::new(400, "connection closed mid-body")),
            Ok(n) => buf = &mut buf[n..],
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if started.elapsed() >= REQUEST_READ_BUDGET {
                    return Err(HttpError::new(408, "timed out reading request body"));
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return Err(HttpError::new(400, "connection error mid-body")),
        }
    }
    Ok(())
}

/// Routes one request to its status and response body.
fn respond(shared: &Shared, request: &Request) -> (u16, Json) {
    let path = request.path.split('?').next().unwrap_or("");
    let method = request.method.as_str();
    match (method, path) {
        ("GET", "/healthz") => (200, Json::object([("ok", Json::Bool(true))])),
        ("GET" | "POST", "/v1/stats") => {
            dispatch(shared, &Json::object([("op", Json::str("stats"))]))
        }
        ("POST", "/v1/explain" | "/v1/batch") => {
            let op = if path == "/v1/batch" { "batch" } else { "explain" };
            match decode_wire_body(shared, request, op) {
                Ok(doc) => dispatch(shared, &doc),
                Err(e) => (status_for_kind(e.kind()), Json::object([("error", e.to_wire())])),
            }
        }
        (_, "/healthz" | "/v1/stats" | "/v1/explain" | "/v1/batch") => {
            (405, http_error_json(format!("method {method} not allowed on {path}")))
        }
        _ => (404, http_error_json(format!("unknown path `{path}`"))),
    }
}

/// Parses the request body as a wire document for `op`, reconciling the
/// path-implied op with the body's `op` field (the body may restate it but
/// not contradict it) and filling `timeout_ms` from the header / server
/// default where the body leaves it unset.
fn decode_wire_body(shared: &Shared, request: &Request, op: &str) -> Result<Json, ServiceError> {
    let text = std::str::from_utf8(&request.body)
        .map_err(|_| ServiceError::decode("request body is not UTF-8"))?;
    let mut doc = Json::parse(text)?;
    let Json::Object(fields) = &mut doc else {
        return Err(crate::wire::expected("an object", &doc));
    };
    match fields.iter().position(|(k, _)| k == "op") {
        None => fields.push(("op".to_string(), Json::str(op))),
        Some(i) => match &fields[i].1 {
            Json::Null => fields[i].1 = Json::str(op),
            Json::Str(body_op) if body_op == op => {}
            other => {
                let other = other.clone();
                return Err(ServiceError::decode(format!(
                    "body op {other} contradicts the request path (implies \"{op}\")"
                ))
                .at("op"));
            }
        },
    }

    // Header / server-default deadline, weakest-wins: a `timeout_ms` in the
    // body always stands.
    let header_timeout = match header(&request.headers, "x-whynot-timeout-ms") {
        None => None,
        Some(raw) => Some(raw.parse::<u64>().map_err(|_| {
            ServiceError::decode(format!("malformed X-Whynot-Timeout-Ms header `{raw}`"))
        })?),
    };
    let fallback_timeout = header_timeout.or(shared.default_timeout_ms);
    if let Some(timeout_ms) = fallback_timeout {
        if op == "batch" {
            if let Some(i) = fields.iter().position(|(k, _)| k == "requests") {
                if let Json::Array(requests) = &mut fields[i].1 {
                    for request in requests {
                        apply_default_timeout(request, timeout_ms);
                    }
                }
            }
        } else {
            apply_default_timeout(&mut doc, timeout_ms);
        }
    }
    Ok(doc)
}

/// Sets `timeout_ms` on a request object unless the body already has one.
fn apply_default_timeout(doc: &mut Json, timeout_ms: u64) {
    if let Json::Object(fields) = doc {
        match fields.iter().position(|(k, _)| k == "timeout_ms") {
            None => fields.push(("timeout_ms".to_string(), Json::Int(timeout_ms as i64))),
            Some(i) if fields[i].1 == Json::Null => fields[i].1 = Json::Int(timeout_ms as i64),
            Some(_) => {}
        }
    }
}

/// Dispatches a wire document, isolating panics (a panicking request is a 500
/// response, never a dead worker).
fn dispatch(shared: &Shared, doc: &Json) -> (u16, Json) {
    let outcome =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| shared.service.handle_wire(doc)));
    match outcome {
        Ok(Ok(response)) => (200, response),
        Ok(Err(e)) => (status_for_kind(e.kind()), Json::object([("error", e.to_wire())])),
        Err(payload) => {
            let e = ServiceError::Panic(crate::service::panic_message(payload));
            (500, Json::object([("error", e.to_wire())]))
        }
    }
}

/// Maps the service's stable error kinds onto HTTP statuses. Documented in
/// `docs/PROTOCOL.md`; the integration tests pin the guard-trip rows.
fn status_for_kind(kind: &str) -> u16 {
    match kind {
        "json" | "decode" => 400,
        "unknown_catalog_entry" => 404,
        "deadline" => 408,
        "trace_budget" | "eval_budget" => 413,
        "algebra" | "whynot" => 422,
        // `panic`, `io`, and anything unforeseen: the server's fault.
        _ => 500,
    }
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        411 => "Length Required",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        _ => "",
    }
}

/// Writes one complete JSON response; `extra_headers` follow `Connection`.
fn write_response(
    out: &mut impl Write,
    status: u16,
    body: &Json,
    keep_alive: bool,
    extra_headers: &[(&str, &str)],
) -> io::Result<()> {
    let mut headers = vec![("Connection", if keep_alive { "keep-alive" } else { "close" })];
    headers.extend_from_slice(extra_headers);
    let start_line = format!("HTTP/1.1 {status} {}", reason(status));
    write_message(out, &start_line, &headers, Some(body.to_compact().as_bytes()))
}

/// Writes one HTTP message — server response or client request — with one
/// `write_all`: the start line, `headers` in order, then, when there is a
/// body, its `Content-Type: application/json` and `Content-Length` framing
/// and the body itself. Sockets are unbuffered, so there is nothing to flush.
fn write_message(
    out: &mut impl Write,
    start_line: &str,
    headers: &[(&str, &str)],
    body: Option<&[u8]>,
) -> io::Result<()> {
    let body_len = body.map_or(0, <[u8]>::len);
    let mut message = Vec::with_capacity(start_line.len() + 64 * (headers.len() + 2) + body_len);
    message.extend_from_slice(start_line.as_bytes());
    message.extend_from_slice(b"\r\n");
    for (name, value) in headers {
        write!(message, "{name}: {value}\r\n")?;
    }
    if let Some(body) = body {
        write!(message, "Content-Type: application/json\r\nContent-Length: {body_len}\r\n\r\n")?;
        message.extend_from_slice(body);
    } else {
        message.extend_from_slice(b"\r\n");
    }
    out.write_all(&message)
}

/// The value of the first header named `name` (lowercase).
fn header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
}

/// Splits a `name: value` header line into its lowercased name and trimmed
/// value; `None` for a line without a colon.
fn parse_header_line(line: &str) -> Option<(String, String)> {
    let (name, value) = line.split_once(':')?;
    Some((name.trim().to_ascii_lowercase(), value.trim().to_string()))
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

/// One HTTP response as seen by [`HttpClient`].
#[derive(Debug, Clone)]
pub struct HttpResponse {
    /// Status code.
    pub status: u16,
    /// Headers, names lowercased.
    pub headers: Vec<(String, String)>,
    /// Body bytes as text (the server always answers JSON).
    pub body: String,
}

impl HttpResponse {
    /// First header with the given (lowercase) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        header(&self.headers, name)
    }
}

/// A minimal std-only HTTP/1.1 client speaking exactly the subset the server
/// serves: keep-alive, `Content-Length` framing. One connection per client;
/// reconnect by constructing a new one. Used by the integration tests and
/// the end-to-end benchmark.
#[derive(Debug)]
pub struct HttpClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl HttpClient {
    /// Connects to `addr` (e.g. `127.0.0.1:7171`) with a 30 s read timeout.
    pub fn connect(addr: &str) -> io::Result<HttpClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        stream.set_write_timeout(Some(Duration::from_secs(30)))?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(HttpClient { reader, writer: stream })
    }

    /// Sends `POST path` with a JSON body plus optional extra headers and
    /// reads the response.
    pub fn post_json(
        &mut self,
        path: &str,
        body: &str,
        extra_headers: &[(&str, &str)],
    ) -> io::Result<HttpResponse> {
        self.request("POST", path, Some(body), extra_headers)
    }

    /// Sends `GET path` and reads the response.
    pub fn get(&mut self, path: &str) -> io::Result<HttpResponse> {
        self.request("GET", path, None, &[])
    }

    /// Sends one request and reads one response (keep-alive: the connection
    /// stays usable unless the server answered `Connection: close`).
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
        extra_headers: &[(&str, &str)],
    ) -> io::Result<HttpResponse> {
        let mut headers = vec![("Host", "whynot")];
        headers.extend_from_slice(extra_headers);
        let start_line = format!("{method} {path} HTTP/1.1");
        write_message(&mut self.writer, &start_line, &headers, body.map(str::as_bytes))?;
        self.read_response()
    }

    fn read_response(&mut self) -> io::Result<HttpResponse> {
        let status_line = self.read_line()?;
        let mut parts = status_line.splitn(3, ' ');
        let (Some(version), Some(code)) = (parts.next(), parts.next()) else {
            return Err(invalid_data(format!("malformed status line `{status_line}`")));
        };
        if !version.starts_with("HTTP/1.") {
            return Err(invalid_data(format!("unexpected protocol `{version}`")));
        }
        let status: u16 =
            code.parse().map_err(|_| invalid_data(format!("malformed status `{code}`")))?;
        let mut headers = Vec::new();
        loop {
            let line = self.read_line()?;
            if line.is_empty() {
                break;
            }
            // Unlike the server, the client skips a malformed header line.
            headers.extend(parse_header_line(&line));
        }
        // Interim responses (100 Continue) precede the real one.
        if status == 100 {
            return self.read_response();
        }
        let length: usize = header(&headers, "content-length")
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| invalid_data("response without Content-Length"))?;
        let mut body = vec![0u8; length];
        self.reader.read_exact(&mut body)?;
        let body = String::from_utf8(body).map_err(|_| invalid_data("non-UTF-8 response body"))?;
        Ok(HttpResponse { status, headers, body })
    }

    fn read_line(&mut self) -> io::Result<String> {
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        if line.is_empty() {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "connection closed"));
        }
        while line.ends_with('\n') || line.ends_with('\r') {
            line.pop();
        }
        Ok(line)
    }
}

/// The client's error for a response it cannot read.
fn invalid_data(message: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_mapping_is_total_over_the_stable_kinds() {
        assert_eq!(status_for_kind("json"), 400);
        assert_eq!(status_for_kind("decode"), 400);
        assert_eq!(status_for_kind("unknown_catalog_entry"), 404);
        assert_eq!(status_for_kind("deadline"), 408);
        assert_eq!(status_for_kind("trace_budget"), 413);
        assert_eq!(status_for_kind("eval_budget"), 413);
        assert_eq!(status_for_kind("algebra"), 422);
        assert_eq!(status_for_kind("whynot"), 422);
        assert_eq!(status_for_kind("panic"), 500);
        assert_eq!(status_for_kind("io"), 500);
    }

    #[test]
    fn default_timeouts_never_override_the_body() {
        let mut doc = Json::parse(r#"{"timeout_ms": 7}"#).unwrap();
        apply_default_timeout(&mut doc, 99);
        assert_eq!(doc.get("timeout_ms").and_then(Json::as_i64), Some(7));
        let mut doc = Json::parse(r#"{"timeout_ms": null}"#).unwrap();
        apply_default_timeout(&mut doc, 99);
        assert_eq!(doc.get("timeout_ms").and_then(Json::as_i64), Some(99));
        let mut doc = Json::parse("{}").unwrap();
        apply_default_timeout(&mut doc, 99);
        assert_eq!(doc.get("timeout_ms").and_then(Json::as_i64), Some(99));
    }

    #[test]
    fn write_message_frames_a_shed_response_and_a_client_post() {
        let mut out = Vec::new();
        write_response(&mut out, 429, &http_error_json("full"), false, &[("Retry-After", "1")])
            .unwrap();
        let body = r#"{"error":{"kind":"http","message":"full"}}"#;
        let expected = format!(
            "HTTP/1.1 429 Too Many Requests\r\nConnection: close\r\nRetry-After: 1\r\n\
             Content-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        assert_eq!(String::from_utf8(out).unwrap(), expected);

        let mut out = Vec::new();
        let headers = [("Host", "whynot"), ("X-Whynot-Timeout-Ms", "5")];
        write_message(&mut out, "POST /v1/explain HTTP/1.1", &headers, Some(b"{}")).unwrap();
        assert_eq!(
            String::from_utf8(out).unwrap(),
            "POST /v1/explain HTTP/1.1\r\nHost: whynot\r\nX-Whynot-Timeout-Ms: 5\r\n\
             Content-Type: application/json\r\nContent-Length: 2\r\n\r\n{}"
        );

        let mut out = Vec::new();
        write_message(&mut out, "GET /healthz HTTP/1.1", &[("Host", "whynot")], None).unwrap();
        assert_eq!(
            String::from_utf8(out).unwrap(),
            "GET /healthz HTTP/1.1\r\nHost: whynot\r\n\r\n"
        );
    }

    #[test]
    fn http_error_bodies_carry_the_http_kind() {
        let body = http_error_json("nope");
        let error = body.get("error").unwrap();
        assert_eq!(error.get("kind").and_then(Json::as_str), Some("http"));
        assert_eq!(error.get("message").and_then(Json::as_str), Some("nope"));
    }
}
