//! The open-loop generator does not omit coordinated waits: a request queued
//! behind a stalled one counts the stall in its latency, because latency
//! runs from the request's due time, not from when it could be sent.

use std::path::Path;

use whynot_e2ebench::openloop::{self, Status};
use whynot_e2ebench::run;
use whynot_e2ebench::server::ServerChild;
use whynot_e2ebench::workload::Workload;

/// Injected delay of a stalled join build.
const STALL_MS: f64 = 150.0;
/// Offered rate: a request every 20 ms, far apart next to a ~3 ms answer.
const RATE: f64 = 50.0;

#[test]
fn queued_requests_include_the_stall() {
    let exe = Path::new(env!("CARGO_BIN_EXE_e2ebench"));
    // A seeded plan: one join build in six sleeps STALL_MS.
    let faults = format!("join_build=delay{}%6:11", STALL_MS as u64);
    let server = ServerChild::spawn(exe, 1, Some(&faults)).expect("server starts");
    let questions = Workload::HttpDblp.questions();
    let requests = run::wire_requests(&questions, &run::expected_digests()).expect("pinned");
    let schedule = Workload::HttpDblp.schedule(3, questions.len(), 60);
    // One connection, so a stalled request holds back every request due
    // before it finishes.
    let outcomes = openloop::run(server.addr(), &requests, &schedule, RATE, 1);
    server.stop().expect("server exits cleanly");

    assert_eq!(outcomes.len(), schedule.len());
    assert!(outcomes.iter().all(|o| o.status == Status::Ok), "every answer is the pinned one");
    let spacing_ms = 1e3 / RATE;
    let stalled: Vec<usize> =
        (0..outcomes.len() - 1).filter(|&i| outcomes[i].round_trip_ms() >= STALL_MS).collect();
    assert!(!stalled.is_empty(), "the fault plan stalls some request");
    for i in stalled {
        let (stalled, next) = (&outcomes[i], &outcomes[i + 1]);
        // The next request was due during the stall and waited for it...
        assert!(next.due_ns < stalled.done_ns);
        assert!(next.sent_ns >= stalled.done_ns);
        // ...and that wait is in its latency: it ran from the due time.
        assert!(
            next.latency_ms() >= stalled.latency_ms() - spacing_ms,
            "request {} latency {:.2} ms hides the {STALL_MS} ms stall before it",
            i + 1,
            next.latency_ms()
        );
        assert!(next.latency_ms() >= next.round_trip_ms() + STALL_MS - 2.0 * spacing_ms);
        assert!(next.lag_ms() > 0.0);
    }
}
