//! The load-observability contract, end to end:
//!
//! * **Timeline export** — a batch recorded under an `obs::timeline`
//!   session yields balanced begin/end pairs, and the Chrome trace-event
//!   JSON round-trips through the workspace's own JSON parser with names,
//!   phases, and timestamps intact. A session captures only its own
//!   request, never one served concurrently on another thread.
//! * **Flamegraph export** — the folded-stack lines derived from a profiled
//!   batch expose the service span paths (`batch;request`) with positive
//!   self-time.
//! * **Metric surfaces** — the `metrics` wire op serves the process time
//!   series, and the `stats` wire op carries the exact latency extremes,
//!   the cache hit rate, and the guard trip breakdown by kind.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use whynot_exec::with_threads;
use whynot_scenarios::Scenario;
use whynot_service::service::{DbRef, ExplainRequest, ExplainResponse, PlanRef};
use whynot_service::{
    timeline_from_chrome_json, timeline_to_chrome_json, ExplainService, Json, ServiceResult,
    METRICS_CAPACITY,
};

/// An `ExplainService` with the scenarios registered under their names, plus
/// one request per scenario addressing them by name.
fn named_service(scenarios: Vec<Scenario>) -> (ExplainService, Vec<ExplainRequest>) {
    let mut service = ExplainService::new();
    let mut requests = Vec::with_capacity(scenarios.len());
    for scenario in scenarios {
        service.catalog_mut().register_database(scenario.name.clone(), scenario.db);
        service.catalog_mut().register_plan(scenario.name.clone(), scenario.plan);
        requests.push(
            ExplainRequest::new(
                DbRef::Named(scenario.name.clone()),
                PlanRef::Named(scenario.name),
                scenario.why_not,
            )
            .with_alternatives(scenario.alternatives),
        );
    }
    (service, requests)
}

/// A DBLP batch at scale 40, four requests at once: several distinct trace
/// keys, answered concurrently.
fn dblp_batch() -> Vec<ServiceResult<ExplainResponse>> {
    let (service, requests) = named_service(whynot_scenarios::dblp::all_dblp(40));
    with_threads(4, || service.explain_batch(&requests))
}

#[test]
fn chrome_trace_export_balances_and_round_trips() {
    let (responses, timeline) = whynot_obs::timeline::record(dblp_batch);
    assert!(responses.iter().all(Result::is_ok), "every DBLP question is answered");
    assert!(!timeline.events.is_empty(), "a recorded batch must emit events");
    timeline.check_balanced().expect("begin/end events pair up per thread");
    let names: std::collections::BTreeSet<&str> =
        timeline.events.iter().map(|e| e.name.as_str()).collect();
    assert!(names.contains("batch") && names.contains("request"), "{names:?}");

    // Through the *textual* Chrome trace form and the workspace JSON parser:
    // what a browser ingests is exactly what the exporter can read back.
    let text = timeline_to_chrome_json(&timeline).to_pretty();
    let parsed = Json::parse(&text).expect("exported trace is valid JSON");
    assert_eq!(
        parsed.get("displayTimeUnit").and_then(Json::as_str),
        Some("ms"),
        "Chrome trace header"
    );
    let round = timeline_from_chrome_json(&parsed).expect("trace round-trips");
    assert_eq!(round.events.len(), timeline.events.len());
    round.check_balanced().expect("round-tripped events still pair up");
    for (a, b) in timeline.events.iter().zip(&round.events) {
        assert_eq!(a.name, b.name);
        assert_eq!(a.phase, b.phase);
        assert_eq!(a.thread, b.thread);
        // Timestamps go through a µs float; they must survive to the ns.
        assert!(a.at_ns.abs_diff(b.at_ns) <= 1, "{} vs {}", a.at_ns, b.at_ns);
    }
}

#[test]
fn folded_stacks_expose_the_service_span_paths() {
    let (responses, profile) = whynot_obs::profile(dblp_batch);
    assert!(responses.iter().all(Result::is_ok), "every DBLP question is answered");
    let folded = profile.to_folded();
    let lines: Vec<&str> = folded.lines().collect();
    assert!(!lines.is_empty(), "a profiled batch must produce folded stacks");
    for line in &lines {
        let (stack, count) = line.rsplit_once(' ').expect("`stack count` shape");
        assert!(!stack.is_empty());
        assert!(count.parse::<u64>().expect("count is a u64") > 0, "{line}");
    }
    assert!(
        lines.iter().any(|l| l.starts_with("batch;request")),
        "service spans must appear as a stack path: {lines:?}"
    );
}

#[test]
fn metrics_wire_op_serves_the_process_time_series() {
    let service = ExplainService::new();
    let request = Json::parse(r#"{"op": "metrics"}"#).unwrap();
    let response = service.handle_wire(&request).expect("metrics op answers");
    assert_eq!(
        response.get("capacity").and_then(Json::as_i64),
        Some(METRICS_CAPACITY as i64),
        "ring capacity is advertised"
    );
    let points = response.get("points").and_then(Json::as_array).expect("points array");
    assert!(points.len() <= METRICS_CAPACITY);
    // Force at least one sample and observe the series grow (monotonically
    // timestamped, counters carried along).
    whynot_service::sample_service_metrics(&service.cache_stats());
    let response = service.handle_wire(&request).expect("metrics op answers");
    let points = response.get("points").and_then(Json::as_array).expect("points array");
    assert!(!points.is_empty());
    let last = points.last().unwrap();
    assert!(last.get("at_ns").and_then(Json::as_i64).unwrap() >= 0);
    let counters = last.get("counters").expect("counters object");
    assert!(counters.get("requests").and_then(Json::as_i64).is_some());
    let mut prev = -1i64;
    for point in points {
        let at = point.get("at_ns").and_then(Json::as_i64).unwrap();
        assert!(at >= prev, "samples must be ordered in time");
        prev = at;
    }
}

#[test]
fn stats_wire_op_carries_the_new_observability_fields() {
    let service = ExplainService::new();
    let stats =
        service.handle_wire(&Json::parse(r#"{"op": "stats"}"#).unwrap()).expect("stats op answers");
    let latency = stats.get("requests").unwrap().get("latency_ns").expect("latency object");
    for key in ["count", "sum", "min", "max", "mean", "p50", "p95", "p99"] {
        assert!(latency.get(key).is_some(), "latency_ns lacks `{key}`");
    }
    let cache = stats.get("trace_cache").expect("trace_cache object");
    let hit_rate = cache.get("hit_rate").and_then(Json::as_f64).expect("hit_rate");
    assert!((0.0..=1.0).contains(&hit_rate));
    let guard = stats.get("guard").expect("guard object");
    assert!(guard.get("trips").and_then(Json::as_i64).is_some());
    let by_kind = guard.get("trips_by_kind").expect("trips_by_kind object");
    for kind in ["deadline", "trace_budget", "eval_budget", "cancelled"] {
        assert!(by_kind.get(kind).and_then(Json::as_i64).is_some(), "missing kind `{kind}`");
    }
}

#[test]
fn a_timeline_session_captures_only_its_own_request() {
    let (service, requests) = named_service(vec![whynot_scenarios::running::running_example()]);
    let request = &requests[0];

    let stop = AtomicBool::new(false);
    let served = AtomicUsize::new(0);
    let timeline = std::thread::scope(|scope| {
        // A second client explains on the same service the whole time.
        scope.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                service.explain(request).expect("concurrent explain succeeds");
                served.fetch_add(1, Ordering::Relaxed);
            }
        });
        let ((), timeline) = whynot_obs::timeline::record(|| {
            let before = served.load(Ordering::Relaxed);
            service.explain(request).expect("recorded explain succeeds");
            // Keep the session open until the other client ran a whole
            // request inside it.
            while served.load(Ordering::Relaxed) < before + 2 {
                std::thread::yield_now();
            }
        });
        stop.store(true, Ordering::Relaxed);
        timeline
    });
    timeline.check_balanced().expect("begin/end events pair up per thread");
    let requests: Vec<_> =
        timeline.events.iter().filter(|e| e.name == "request").map(|e| e.phase).collect();
    assert_eq!(
        requests,
        [whynot_obs::TimelinePhase::Begin, whynot_obs::TimelinePhase::End],
        "{timeline:?}"
    );
}
