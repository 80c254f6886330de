//! Open-loop HTTP load generator without coordinated omission.
//!
//! Request `i` is due at `i / rate` seconds after the start, whatever
//! happened to earlier requests. Each keep-alive connection takes the next
//! request in order, waits for its due time if it is early, and sends it.
//! When every connection is busy, due requests wait; that wait counts in
//! their latency, which always runs from the due time. How late the
//! generator sent each request is reported apart as scheduling lag.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use whynot_service::catalog::fingerprint64;
use whynot_service::{HttpClient, Json};

/// How long before a due time the generator stops sleeping and spins.
const SPIN: Duration = Duration::from_micros(300);

/// What came back for one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// 200 with the pinned report.
    Ok,
    /// 200 with a report that differs from the pinned one.
    Mismatch,
    /// 429 from admission control.
    Shed,
    /// Any other status.
    Error,
    /// Connect, send or read failed.
    Transport,
}

/// One request of an open-loop run; times are nanoseconds from the start.
#[derive(Debug, Clone, Copy)]
pub struct Outcome {
    /// Position in the schedule.
    pub index: usize,
    /// When the request was due.
    pub due_ns: u64,
    /// When it was sent.
    pub sent_ns: u64,
    /// When its response was read (or the transport failed).
    pub done_ns: u64,
    /// The result.
    pub status: Status,
}

impl Outcome {
    /// Latency from the due time: what a user arriving on schedule waits.
    pub fn latency_ms(&self) -> f64 {
        (self.done_ns - self.due_ns) as f64 / 1e6
    }

    /// Round trip from the moment the request was sent.
    pub fn round_trip_ms(&self) -> f64 {
        (self.done_ns - self.sent_ns) as f64 / 1e6
    }

    /// How late the generator sent the request.
    pub fn lag_ms(&self) -> f64 {
        (self.sent_ns - self.due_ns) as f64 / 1e6
    }
}

/// A request to send: its body and the digest its report must have.
#[derive(Debug, Clone)]
pub struct WireRequest {
    /// `POST /v1/explain` body.
    pub body: String,
    /// `fingerprint64` of the expected compact report.
    pub digest: u64,
}

/// Sends `schedule` (indices into `requests`) at `rate` requests per second
/// over `connections` keep-alive connections to `addr`. Outcomes come back
/// in schedule order.
pub fn run(
    addr: &str,
    requests: &[WireRequest],
    schedule: &[usize],
    rate: f64,
    connections: usize,
) -> Vec<Outcome> {
    let next = AtomicUsize::new(0);
    let outcomes = Mutex::new(Vec::with_capacity(schedule.len()));
    let start = Instant::now();
    let since_start = |t: Instant| t.duration_since(start).as_nanos() as u64;
    std::thread::scope(|scope| {
        for _ in 0..connections {
            scope.spawn(|| {
                let mut client: Option<HttpClient> = None;
                loop {
                    let index = next.fetch_add(1, Ordering::SeqCst);
                    let Some(&question) = schedule.get(index) else { break };
                    let due = start + Duration::from_secs_f64(index as f64 / rate);
                    wait_until(due);
                    let sent = Instant::now();
                    let status = send(&mut client, addr, &requests[question]);
                    let done = Instant::now();
                    let outcome = Outcome {
                        index,
                        due_ns: since_start(due),
                        sent_ns: since_start(sent),
                        done_ns: since_start(done),
                        status,
                    };
                    outcomes.lock().expect("no thread panics holding the outcomes").push(outcome);
                }
            });
        }
    });
    let mut outcomes = outcomes.into_inner().expect("no thread panics holding the outcomes");
    outcomes.sort_by_key(|o| o.index);
    outcomes
}

/// Sleeps until shortly before `due`, then spins, so the generator's own
/// wake-up delay adds as little lag as it can.
fn wait_until(due: Instant) {
    let early = due.checked_sub(SPIN).unwrap_or(due);
    let now = Instant::now();
    if now < early {
        std::thread::sleep(early - now);
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

/// Sends one request on the slot's connection, reconnecting lazily, and
/// checks the answer against its pinned digest.
pub fn send(client: &mut Option<HttpClient>, addr: &str, request: &WireRequest) -> Status {
    if client.is_none() {
        *client = HttpClient::connect(addr).ok();
    }
    let Some(connection) = client.as_mut() else { return Status::Transport };
    let response = match connection.post_json("/v1/explain", &request.body, &[]) {
        Ok(response) => response,
        Err(_) => {
            *client = None;
            return Status::Transport;
        }
    };
    if response.header("connection") == Some("close") {
        *client = None;
    }
    match response.status {
        200 => {
            let report = Json::parse(&response.body)
                .ok()
                .and_then(|doc| doc.get("report").map(Json::to_compact));
            if report.is_some_and(|r| fingerprint64(&r) == request.digest) {
                Status::Ok
            } else {
                Status::Mismatch
            }
        }
        429 => Status::Shed,
        _ => Status::Error,
    }
}
