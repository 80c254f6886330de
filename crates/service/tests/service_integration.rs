//! Service-level integration test: a batch of why-not questions on the
//! paper's running example must return exactly the explanations a direct
//! `WhyNotEngine` invocation produces, and the second question on the same
//! plan/database must be answered from the trace cache instead of re-tracing.

use std::collections::BTreeSet;
use std::sync::Arc;

use nested_data::Nip;
use nrab_algebra::OpId;
use whynot_core::{AttributeAlternative, WhyNotEngine, WhyNotQuestion};
use whynot_scenarios::running::running_example;
use whynot_service::json::Json;
use whynot_service::service::{DbRef, ExplainRequest, ExplainService, PlanRef};

fn city_question(city: &str) -> Nip {
    Nip::tuple([("city", Nip::val(city)), ("nList", Nip::bag([Nip::Any, Nip::Star]))])
}

fn alternatives() -> Vec<AttributeAlternative> {
    vec![AttributeAlternative::new("person", "address2", "address1")]
}

#[test]
fn batched_service_answers_match_direct_engine_calls_and_hit_the_cache() {
    let mut service = ExplainService::new();
    let running = running_example();
    service.catalog_mut().register_database("person_small", running.db);
    service.catalog_mut().register_plan("running", running.plan);

    // NY twice (identical repeat), then SF (different missing answer, same
    // plan/db/alternatives).
    let cities = ["NY", "NY", "SF"];
    let requests: Vec<ExplainRequest> = cities
        .iter()
        .map(|city| {
            ExplainRequest::new(
                DbRef::Named("person_small".into()),
                PlanRef::Named("running".into()),
                city_question(city),
            )
            .with_alternatives(alternatives())
        })
        .collect();
    // One thread answers the batch in order, so the miss falls on the first
    // question; which concurrent request traces first is up to the scheduler
    // (the concurrent batch is covered by `tests/parallel_batch.rs`).
    let responses = whynot_exec::with_threads(1, || service.explain_batch(&requests));
    assert_eq!(responses.len(), 3);

    // Same answers as the direct engine, question by question.
    for (city, response) in cities.iter().zip(&responses) {
        let response = response.as_ref().expect("batched question succeeds");
        let running = running_example();
        let question = WhyNotQuestion::new(running.plan, running.db, city_question(city));
        let direct = WhyNotEngine::rp().explain(&question, &alternatives()).unwrap();
        let direct_sets: Vec<Vec<OpId>> = direct
            .operator_sets()
            .into_iter()
            .map(|s: BTreeSet<OpId>| s.into_iter().collect())
            .collect();
        let service_sets: Vec<Vec<OpId>> =
            response.report.explanations.iter().map(|e| e.operators.clone()).collect();
        assert_eq!(service_sets, direct_sets, "explanations differ for {city}");
        assert_eq!(response.report.original_result_size, direct.original_result_size);
        assert_eq!(response.report.schema_alternatives.len(), direct.schema_alternatives.len());
        for (wire_sa, engine_sa) in
            response.report.schema_alternatives.iter().zip(&direct.schema_alternatives)
        {
            assert_eq!(wire_sa.index, engine_sa.index);
            assert_eq!(wire_sa.substitutions.len(), engine_sa.substitutions.len());
        }
    }

    // The first question traced; the second (identical) and third (different
    // NIP, same generalized trace) hit the cache.
    let hits: Vec<bool> =
        responses.iter().map(|r| r.as_ref().unwrap().stats.trace_cache_hit).collect();
    assert_eq!(hits, vec![false, true, true]);
    let stats = service.cache_stats();
    assert_eq!((stats.hits, stats.misses, stats.entries), (2, 1, 1));
}

#[test]
fn wire_requests_round_trip_through_the_service() {
    // The same batch expressed in wire form, with the third question inlining
    // its payloads instead of using the catalog.
    let mut service = ExplainService::new();
    let running = running_example();
    service.catalog_mut().register_database("person_small", running.db);
    service.catalog_mut().register_plan("running", running.plan);

    let named = Json::parse(
        r#"{
            "db": "person_small",
            "plan": "running",
            "why_not": {"city": "NY", "nList": ["?", "*"]},
            "alternatives": [{"relation": "person", "from": "address2", "to": "address1"}]
        }"#,
    )
    .unwrap();
    let request = ExplainRequest::from_json(&named).unwrap();
    let response = service.explain(&request).unwrap();
    assert_eq!(response.report.explanations.len(), 2);
    assert_eq!(response.report.explanations[0].operators, vec![2]);
    assert_eq!(response.report.explanations[0].operator_kinds, vec!["σ"]);
    assert_eq!(response.report.explanations[1].operators, vec![1, 2]);
    assert_eq!(response.report.explanations[1].schema_alternative, 1);

    // The wire op answers with the same report, byte for byte.
    let via_wire = service.handle_wire(&named).unwrap();
    assert_eq!(
        via_wire.get("report").unwrap().to_compact(),
        response.report.to_json().to_compact()
    );

    // An engine switch via the wire format behaves like RPnoSA.
    let no_sa = Json::parse(
        r#"{
            "db": "person_small",
            "plan": "running",
            "why_not": {"city": "NY", "nList": ["?", "*"]},
            "alternatives": [{"relation": "person", "from": "address2", "to": "address1"}],
            "engine": "rp_no_sa"
        }"#,
    )
    .unwrap();
    let response = service.explain(&ExplainRequest::from_json(&no_sa).unwrap()).unwrap();
    assert_eq!(response.report.explanations.len(), 1);
    assert_eq!(response.report.schema_alternatives.len(), 1);
}

#[test]
fn inline_requests_behave_like_named_requests() {
    let mut service = ExplainService::new();
    let running = running_example();
    service.catalog_mut().register_database("person_small", running.db);
    service.catalog_mut().register_plan("running", running.plan);
    let named = ExplainRequest::new(
        DbRef::Named("person_small".into()),
        PlanRef::Named("running".into()),
        city_question("NY"),
    )
    .with_alternatives(alternatives());
    let running = running_example();
    let inline = ExplainRequest::new(
        DbRef::Inline(Arc::new(running.db)),
        PlanRef::Inline(Arc::new(running.plan)),
        city_question("NY"),
    )
    .with_alternatives(alternatives());
    let named_response = service.explain(&named).unwrap();
    let inline_response = service.explain(&inline).unwrap();
    assert_eq!(named_response.report, inline_response.report);
}
