//! The load-observability contract, end to end:
//!
//! * **Request-scoped capture** — a `profile` session captures only its own
//!   request, never one served concurrently on another thread.
//! * **Flamegraph export** — the folded-stack lines derived from a profiled
//!   batch expose the service span paths (`batch;request`) with positive
//!   self-time.
//! * **Stats surface** — the `stats` wire op carries the exact latency
//!   extremes, the cache hit rate, and the guard trip breakdown by kind.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use whynot_exec::with_threads;
use whynot_obs::SpanReport;
use whynot_scenarios::Scenario;
use whynot_service::service::{DbRef, ExplainRequest, ExplainResponse, PlanRef};
use whynot_service::{ExplainService, Json, ServiceResult};

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
    for kind in ["deadline", "trace_budget", "eval_budget"] {
        assert!(by_kind.get(kind).and_then(Json::as_i64).is_some(), "missing kind `{kind}`");
    }
}

/// Every span named `name` in the tree under `span`, in tree order.
fn spans_named<'a>(span: &'a SpanReport, name: &str, found: &mut Vec<&'a SpanReport>) {
    if span.name == name {
        found.push(span);
    }
    for child in &span.children {
        spans_named(child, name, found);
    }
}

#[test]
fn a_profile_session_captures_only_its_own_request() {
    let (service, requests) = named_service(vec![whynot_scenarios::running::running_example()]);
    let request = &requests[0];

    let stop = AtomicBool::new(false);
    let served = AtomicUsize::new(0);
    let report = std::thread::scope(|scope| {
        // A second client explains on the same service the whole time.
        scope.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                service.explain(request).expect("concurrent explain succeeds");
                served.fetch_add(1, Ordering::Relaxed);
            }
        });
        let ((), report) = whynot_obs::profile(|| {
            let before = served.load(Ordering::Relaxed);
            service.explain(request).expect("profiled explain succeeds");
            // Keep the session open until the other client ran a whole
            // request inside it.
            while served.load(Ordering::Relaxed) < before + 2 {
                std::thread::yield_now();
            }
        });
        stop.store(true, Ordering::Relaxed);
        report
    });
    let mut found = Vec::new();
    spans_named(&report.root, "request", &mut found);
    assert_eq!(found.len(), 1, "{}", report.render_text());
    assert_eq!(found[0].count, 1, "{}", report.render_text());
}
