//! Integration tests for the `whynot-serve` HTTP front end: real sockets
//! against a real [`whynot_service::serve`] instance.
//!
//! Covered here (per the PR's acceptance list): concurrent keep-alive
//! connections whose answers are byte-identical to a direct
//! `explain_batch`, malformed requests that get structured 4xx responses
//! (never a panic or hang), admission-queue overflow shedding 429 with
//! `Retry-After`, connections still queued at shutdown being answered or
//! closed, per-request guard trips mapping to 408/413 with the right
//! stable error kind, and the `stats` op's cache/http sections over HTTP. The whole file is exercised at `WHYNOT_THREADS` 1 and 4 by the CI
//! matrix; nothing in here depends on the batch width.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use whynot_service::json::Json;
use whynot_service::service::{DbRef, ExplainRequest, ExplainService, PlanRef};
use whynot_service::{serve, HttpClient, ServeConfig, ServerHandle};

/// An `ExplainService` with the running example registered under its
/// scenario name (exactly what `whynot serve --scenarios running` loads),
/// plus a ready-made wire request for it.
fn running_service() -> (Arc<ExplainService>, ExplainRequest) {
    let scenario = whynot_scenarios::running::running_example();
    let mut service = ExplainService::new();
    service.catalog_mut().register_database(scenario.name.clone(), scenario.db);
    service.catalog_mut().register_plan(scenario.name.clone(), scenario.plan);
    let request = ExplainRequest::new(
        DbRef::Named(scenario.name.clone()),
        PlanRef::Named(scenario.name),
        scenario.why_not,
    )
    .with_alternatives(scenario.alternatives);
    (Arc::new(service), request)
}

fn start(config: ServeConfig) -> (ServerHandle, ExplainRequest) {
    let (service, request) = running_service();
    let handle = serve(service, config).expect("bind http server");
    (handle, request)
}

/// Sends raw bytes on a fresh connection and returns the full response text
/// (the server closes the connection after every protocol error, so
/// read-to-end terminates). A read timeout turns a hang into a test failure
/// instead of a stuck suite.
fn raw_request(addr: &str, bytes: &[u8]) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    stream.write_all(bytes).expect("write request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    response
}

fn status_of(raw: &str) -> u16 {
    raw.split(' ').nth(1).and_then(|s| s.parse().ok()).unwrap_or_else(|| {
        panic!("malformed status line in response: {raw:?}");
    })
}

fn body_of(raw: &str) -> Json {
    let body = raw.split("\r\n\r\n").nth(1).unwrap_or_else(|| {
        panic!("no body in response: {raw:?}");
    });
    Json::parse(body).unwrap_or_else(|e| panic!("non-JSON error body {body:?}: {e}"))
}

fn error_kind(body: &Json) -> &str {
    body.get("error")
        .and_then(|e| e.get("kind"))
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("no error.kind in {body:?}"))
}

#[test]
fn concurrent_keep_alive_answers_match_explain_batch_bytes() {
    let (service, request) = running_service();
    let handle = serve(Arc::clone(&service), ServeConfig::default()).expect("bind");
    let addr = handle.addr().to_string();

    // The in-process ground truth: one batch over every scenario request.
    let batch = vec![request];
    let expected: Vec<String> = service
        .explain_batch(&batch)
        .into_iter()
        .map(|r| r.expect("in-process explain").report.to_json().to_compact())
        .collect();
    let bodies: Vec<String> =
        batch.iter().map(|r| r.to_json().expect("encode").to_compact()).collect();

    // Four clients, each replaying the full request list three times on ONE
    // persistent connection; every answer must match the batch bytes.
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let bodies = &bodies;
            let expected = &expected;
            let addr = addr.clone();
            scope.spawn(move || {
                let mut client = HttpClient::connect(&addr).expect("connect");
                for _round in 0..3 {
                    for (body, want) in bodies.iter().zip(expected) {
                        let response =
                            client.post_json("/v1/explain", body, &[]).expect("keep-alive post");
                        assert_eq!(response.status, 200, "body: {}", response.body);
                        let doc = Json::parse(&response.body).expect("response json");
                        let got = doc.get("report").expect("report field").to_compact();
                        assert_eq!(&got, want, "HTTP answer drifted from explain_batch");
                    }
                }
            });
        }
    });
    handle.shutdown();
}

#[test]
fn batch_endpoint_matches_explain_batch() {
    let (service, request) = running_service();
    let handle = serve(Arc::clone(&service), ServeConfig::default()).expect("bind");
    let addr = handle.addr().to_string();

    let batch = vec![request];
    let expected: Vec<String> = service
        .explain_batch(&batch)
        .into_iter()
        .map(|r| r.expect("in-process explain").report.to_json().to_compact())
        .collect();
    let body = Json::object([(
        "requests",
        Json::array(batch.iter().map(|r| r.to_json().expect("encode"))),
    )])
    .to_compact();

    let mut client = HttpClient::connect(&addr).expect("connect");
    let response = client.post_json("/v1/batch", &body, &[]).expect("post batch");
    assert_eq!(response.status, 200, "body: {}", response.body);
    let doc = Json::parse(&response.body).expect("response json");
    let responses = doc.get("responses").and_then(Json::as_array).expect("responses array");
    assert_eq!(responses.len(), expected.len());
    for (item, want) in responses.iter().zip(&expected) {
        let got = item.get("report").expect("report field").to_compact();
        assert_eq!(&got, want, "batch-over-HTTP answer drifted from explain_batch");
    }
    handle.shutdown();
}

#[test]
fn malformed_requests_get_structured_errors_never_hangs() {
    let (handle, request) = start(ServeConfig::default());
    let addr = handle.addr().to_string();

    // Garbage request line.
    let raw = raw_request(&addr, b"NOT A REQUEST\r\n\r\n");
    assert_eq!(status_of(&raw), 400, "{raw:?}");
    assert_eq!(error_kind(&body_of(&raw)), "http");

    // POST without Content-Length (the server does not speak chunked).
    let raw = raw_request(&addr, b"POST /v1/explain HTTP/1.1\r\nHost: t\r\n\r\n");
    assert_eq!(status_of(&raw), 411, "{raw:?}");
    assert_eq!(error_kind(&body_of(&raw)), "http");

    // Declared body one byte over the 8 MiB limit: refused before reading it.
    let raw = raw_request(
        &addr,
        b"POST /v1/explain HTTP/1.1\r\nHost: t\r\nContent-Length: 8388609\r\n\r\n",
    );
    assert_eq!(status_of(&raw), 413, "{raw:?}");
    assert_eq!(error_kind(&body_of(&raw)), "http");

    // Unknown path and wrong method on a known path.
    let mut client = HttpClient::connect(&addr).expect("connect");
    let response = client.post_json("/v1/nope", "{}", &[]).expect("post");
    assert_eq!(response.status, 404, "{}", response.body);
    let mut client = HttpClient::connect(&addr).expect("connect");
    let response = client.get("/v1/metrics").expect("get");
    assert_eq!(response.status, 404, "{}", response.body);
    let mut client = HttpClient::connect(&addr).expect("connect");
    let response = client.get("/v1/explain").expect("get");
    assert_eq!(response.status, 405, "{}", response.body);

    // Body that is not JSON at all → decode-level 400 from the service layer.
    let mut client = HttpClient::connect(&addr).expect("connect");
    let response = client.post_json("/v1/explain", "not json", &[]).expect("post");
    assert_eq!(response.status, 400, "{}", response.body);

    // After all that abuse the server still answers a well-formed request.
    let body = request.to_json().expect("encode").to_compact();
    let mut client = HttpClient::connect(&addr).expect("connect");
    let response = client.post_json("/v1/explain", &body, &[]).expect("post");
    assert_eq!(response.status, 200, "{}", response.body);
    handle.shutdown();
}

/// The server's admission bound: connections accepted but not yet claimed
/// by a worker.
const QUEUE_CAPACITY: usize = 64;

#[test]
fn admission_queue_overflow_sheds_with_429_and_retry_after() {
    let (handle, _request) = start(ServeConfig { workers: 1, ..ServeConfig::default() });
    let addr = handle.addr().to_string();

    // First connection is claimed by the single worker and held open by
    // keep-alive (idle for up to 5 s); the next 64 fill the admission queue.
    // Short sleeps let the acceptor/worker handoff settle so the occupancy
    // is deterministic.
    let held = TcpStream::connect(&addr).expect("held connection");
    std::thread::sleep(Duration::from_millis(150));
    let queued: Vec<TcpStream> = (0..QUEUE_CAPACITY)
        .map(|_| TcpStream::connect(&addr).expect("queued connection"))
        .collect();
    std::thread::sleep(Duration::from_millis(150));

    // The next connection finds the queue full and is shed at the door.
    let mut client = HttpClient::connect(&addr).expect("shed connection");
    let response = client.get("/healthz").expect("shed response");
    assert_eq!(response.status, 429, "{}", response.body);
    assert_eq!(response.header("retry-after"), Some("1"));
    let doc = Json::parse(&response.body).expect("shed body json");
    assert_eq!(error_kind(&doc), "http");

    drop(held);
    drop(queued);
    handle.shutdown();
}

#[test]
fn connections_queued_at_shutdown_are_answered_or_closed() {
    let (handle, _request) = start(ServeConfig { workers: 1, ..ServeConfig::default() });
    let addr = handle.addr().to_string();

    // An idle keep-alive connection holds the one worker; a second one,
    // with a complete request already sent, waits in the admission queue.
    let held = TcpStream::connect(&addr).expect("held connection");
    std::thread::sleep(Duration::from_millis(150));
    let mut queued = TcpStream::connect(&addr).expect("queued connection");
    queued.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    queued.write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n").expect("queued request");
    std::thread::sleep(Duration::from_millis(150));

    let started = Instant::now();
    handle.shutdown();
    assert!(started.elapsed() < Duration::from_secs(2), "shutdown took {:?}", started.elapsed());

    // The queued connection was not dropped unread: it gets its complete
    // response (or, at worst, a clean EOF) — never a hang.
    let mut raw = String::new();
    queued.read_to_string(&mut raw).expect("queued connection ends, never hangs");
    if !raw.is_empty() {
        assert_eq!(status_of(&raw), 200, "{raw:?}");
        let ok = body_of(&raw).get("ok").and_then(Json::as_bool);
        assert_eq!(ok, Some(true), "{raw:?}");
    }
    drop(held);
}

#[test]
fn guard_trips_map_to_408_and_413_with_stable_kinds() {
    let (handle, request) = start(ServeConfig::default());
    let addr = handle.addr().to_string();
    let template = &request;

    // timeout_ms = 0 in the body: the deadline is already expired when the
    // guard first checks, so the request trips deterministically.
    let body = template.clone().with_timeout_ms(0).to_json().expect("encode").to_compact();
    let mut client = HttpClient::connect(&addr).expect("connect");
    let response = client.post_json("/v1/explain", &body, &[]).expect("post");
    assert_eq!(response.status, 408, "{}", response.body);
    assert_eq!(error_kind(&Json::parse(&response.body).unwrap()), "deadline");

    // Same deadline via the X-Whynot-Timeout-Ms header on a body without one.
    let body = template.to_json().expect("encode").to_compact();
    let response = client
        .post_json("/v1/explain", &body, &[("X-Whynot-Timeout-Ms", "0")])
        .expect("post with header");
    assert_eq!(response.status, 408, "{}", response.body);
    assert_eq!(error_kind(&Json::parse(&response.body).unwrap()), "deadline");

    // max_trace_tuples = 0: the trace budget trips on the first traced tuple.
    let body = template.clone().with_max_trace_tuples(0).to_json().expect("encode").to_compact();
    let response = client.post_json("/v1/explain", &body, &[]).expect("post");
    assert_eq!(response.status, 413, "{}", response.body);
    assert_eq!(error_kind(&Json::parse(&response.body).unwrap()), "trace_budget");

    // The body's own timeout wins over the header: a generous body deadline
    // with a hostile header must still succeed.
    let body = template.clone().with_timeout_ms(60_000).to_json().expect("encode").to_compact();
    let response =
        client.post_json("/v1/explain", &body, &[("X-Whynot-Timeout-Ms", "0")]).expect("post");
    assert_eq!(response.status, 200, "{}", response.body);
    handle.shutdown();
}

#[test]
fn stats_over_http_report_cache_and_http_counters() {
    let (handle, request) = start(ServeConfig::default());
    let addr = handle.addr().to_string();
    let mut client = HttpClient::connect(&addr).expect("connect");

    // Ask the same question twice: the first traces, the second hits.
    let body = request.to_json().expect("encode").to_compact();
    for _ in 0..2 {
        let response = client.post_json("/v1/explain", &body, &[]).expect("post");
        assert_eq!(response.status, 200, "{}", response.body);
    }

    let response = client.get("/v1/stats").expect("stats");
    assert_eq!(response.status, 200, "{}", response.body);
    let doc = Json::parse(&response.body).expect("stats json");
    let cache = doc.get("trace_cache").expect("trace_cache section");
    let field = |key: &str| cache.get(key).and_then(Json::as_i64).expect(key);
    assert_eq!((field("hits"), field("misses"), field("entries")), (1, 1, 1));
    assert!(field("weight") >= 1, "the cached trace holds traced tuples");

    let http = doc.get("http").expect("http section");
    assert!(http.get("requests").and_then(Json::as_i64).expect("requests") >= 3);
    assert!(http.get("connections").and_then(Json::as_i64).expect("connections") >= 1);

    // /healthz answers on the same connection.
    let response = client.get("/healthz").expect("healthz");
    assert_eq!(response.status, 200);
    assert_eq!(Json::parse(&response.body).unwrap().get("ok").and_then(Json::as_bool), Some(true));
    handle.shutdown();
}
