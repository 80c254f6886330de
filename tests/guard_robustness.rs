//! The per-request isolation contract of `whynot-guard`, end to end: a batch
//! that mixes healthy questions with a panicking (fault-injected) question, a
//! deadline-tripped question, and a trace-budget-tripped question must return
//! structured errors for exactly the unhealthy three, while the healthy
//! answers (one unlimited, one under a roomy armed guard) stay
//! **byte-identical** to an unguarded run of the same questions — with one
//! request at a time and with four at once.

use whynot_exec::with_threads;
use whynot_scenarios::{crime, running, Scenario};
use whynot_service::json::Json;
use whynot_service::service::{DbRef, ExplainRequest, ExplainService, PlanRef};

/// Registers the two scenario payloads under the catalog names the batch
/// addresses. The unhealthy questions get their own names (`faulty`,
/// `deadline`, `budget`) so their cache keys never collide with the healthy
/// questions' entries — a tripped or killed computation must not perturb its
/// siblings through the shared trace cache.
fn build_service(running: &Scenario, crime: &Scenario) -> ExplainService {
    let mut service = ExplainService::new();
    for name in ["running", "faulty"] {
        service.catalog_mut().register_database(name, running.db.clone());
        service.catalog_mut().register_plan(name, running.plan.clone());
    }
    for name in ["crime", "deadline", "budget"] {
        service.catalog_mut().register_database(name, crime.db.clone());
        service.catalog_mut().register_plan(name, crime.plan.clone());
    }
    service
}

fn request(scenario: &Scenario, name: &str) -> ExplainRequest {
    ExplainRequest::new(
        DbRef::Named(name.to_string()),
        PlanRef::Named(name.to_string()),
        scenario.why_not.clone(),
    )
    .with_alternatives(scenario.alternatives.clone())
}

#[test]
fn batch_isolates_panicking_and_resource_tripped_requests() {
    let running = running::running_example();
    let crime = crime::all_crime().into_iter().next().expect("at least one crime scenario");

    // Indices: 0 healthy and unlimited, 1 panics (injected fault in its trace
    // computation), 2 trips its deadline, 3 trips its trace budget, 4 healthy
    // under an armed guard whose roomy limits it never reaches.
    let requests = vec![
        request(&running, "running"),
        request(&running, "faulty"),
        request(&crime, "deadline").with_timeout_ms(0),
        request(&crime, "budget").with_max_trace_tuples(0),
        request(&crime, "crime").with_timeout_ms(300_000).with_max_trace_tuples(u64::MAX / 2),
    ];

    for threads in [1usize, 4] {
        // Reference: the same healthy questions, unguarded and fault-free.
        whynot_guard::faults::configure(None).unwrap();
        let reference: Vec<String> = with_threads(threads, || {
            let service = build_service(&running, &crime);
            let unlimited = vec![
                request(&running, "running"),
                request(&running, "faulty"),
                request(&crime, "deadline"),
                request(&crime, "budget"),
                request(&crime, "crime"),
            ];
            service
                .explain_batch(&unlimited)
                .into_iter()
                .map(|r| {
                    r.expect("unguarded run answers every question").report.to_json().to_compact()
                })
                .collect()
        });

        // Guarded run: kill the `faulty` question's trace computation with a
        // deterministic injected panic; limits do the rest.
        whynot_guard::faults::configure(Some("cache_compute~faulty=panic:7")).unwrap();
        let responses = with_threads(threads, || {
            let service = build_service(&running, &crime);
            service.explain_batch(&requests)
        });
        whynot_guard::faults::configure(None).unwrap();

        assert_eq!(responses.len(), 5);
        for (i, expected_kind) in [(1usize, "panic"), (2, "deadline"), (3, "trace_budget")] {
            let err = responses[i]
                .as_ref()
                .expect_err(&format!("request {i} must fail at {threads} thread(s)"));
            assert_eq!(
                err.kind(),
                expected_kind,
                "request {i} at {threads} thread(s): got `{err}`"
            );
            // Every failure is a structured wire entry with a kind + message.
            let wire = err.to_wire();
            assert_eq!(wire.get("kind").and_then(Json::as_str), Some(expected_kind));
            assert!(wire.get("message").is_some());
        }
        for i in [0usize, 4] {
            let response = responses[i].as_ref().unwrap_or_else(|e| {
                panic!("healthy request {i} failed at {threads} thread(s): {e}")
            });
            assert_eq!(
                response.report.to_json().to_compact(),
                reference[i],
                "healthy request {i} diverged from the unguarded run at {threads} thread(s)"
            );
        }
    }
}

/// The same contract through the wire: a `batch` op document mixing a decode
/// failure with resource-limited requests yields per-item structured error
/// entries (`kind`, `message`, and a JSON-pointer-style `path` for the decode
/// failure) without failing the document.
#[test]
fn wire_batch_reports_structured_errors_with_paths() {
    let running = running::running_example();
    let crime = crime::all_crime().into_iter().next().expect("at least one crime scenario");
    let service = build_service(&running, &crime);

    let good = Json::parse(&format!(
        r#"{{"db": "running", "plan": "running", "why_not": {}}}"#,
        whynot_service::wire::nip_to_json(&running.why_not).unwrap().to_compact()
    ))
    .unwrap();
    let broken =
        Json::parse(r#"{"db": "running", "plan": "running", "why_not": {"name": {"$cmp": 5}}}"#)
            .unwrap();
    let limited = Json::parse(&format!(
        r#"{{"db": "deadline", "plan": "deadline", "why_not": {}, "timeout_ms": 0}}"#,
        whynot_service::wire::nip_to_json(&crime.why_not).unwrap().to_compact()
    ))
    .unwrap();

    let doc = Json::object([
        ("op", Json::str("batch")),
        ("requests", Json::Array(vec![good, broken, limited])),
    ]);
    let reply = service.handle_wire(&doc).unwrap();
    let responses = reply.get("responses").and_then(Json::as_array).unwrap();
    assert_eq!(responses.len(), 3);

    assert!(responses[0].get("report").is_some(), "healthy entry answers normally");

    let decode = responses[1].get("error").expect("decode failure becomes an error entry");
    assert_eq!(decode.get("kind").and_then(Json::as_str), Some("decode"));
    let path = decode.get("path").and_then(Json::as_str).expect("decode errors carry a path");
    assert!(path.starts_with("requests/1/why_not"), "path locates the bad field: `{path}`");

    let tripped = responses[2].get("error").expect("tripped request becomes an error entry");
    assert_eq!(tripped.get("kind").and_then(Json::as_str), Some("deadline"));

    // The trip is visible in the cumulative guard counters, broken down by
    // the wire kind it surfaced as.
    let stats = service.handle_wire(&Json::object([("op", Json::str("stats"))])).unwrap();
    let guard = stats.get("guard").expect("stats carry a guard section");
    assert!(guard.get("trips").and_then(Json::as_i64).unwrap() >= 1);
    let by_kind = guard.get("trips_by_kind").expect("stats break trips down by kind");
    assert!(by_kind.get("deadline").and_then(Json::as_i64).unwrap() >= 1);
    for kind in ["trace_budget", "eval_budget"] {
        assert!(by_kind.get(kind).and_then(Json::as_i64).is_some(), "missing kind `{kind}`");
    }
}
