//! Concurrent-batch behaviour of the explanation service: requests fan out
//! with `whynot_exec::par_map`, responses come back in request order with
//! reports identical to serial execution, and the trace cache computes each
//! (db, plan, substitution-signature) key exactly once no matter how many
//! concurrent requests share it.

use std::sync::Arc;

use nested_data::{Bag, NestedType, Nip, TupleType, Value};
use nrab_algebra::expr::{CmpOp, Expr};
use nrab_algebra::{Database, PlanBuilder, QueryPlan};
use whynot_core::AttributeAlternative;
use whynot_service::service::{DbRef, ExplainRequest, ExplainService, PlanRef};

fn person_db() -> Database {
    let address =
        TupleType::new([("city", NestedType::str()), ("year", NestedType::int())]).unwrap();
    let person_ty = TupleType::new([
        ("name", NestedType::str()),
        ("address1", NestedType::Relation(address.clone())),
        ("address2", NestedType::Relation(address)),
    ])
    .unwrap();
    let addr = |city: &str, year: i64| {
        Value::tuple([("city", Value::str(city)), ("year", Value::int(year))])
    };
    let peter = Value::tuple([
        ("name", Value::str("Peter")),
        ("address1", Value::bag([addr("NY", 2010), addr("LA", 2019), addr("LV", 2017)])),
        ("address2", Value::bag([addr("LA", 2010), addr("SF", 2018)])),
    ]);
    let sue = Value::tuple([
        ("name", Value::str("Sue")),
        ("address1", Value::bag([addr("LA", 2019), addr("NY", 2018)])),
        ("address2", Value::bag([addr("LA", 2019), addr("NY", 2018)])),
    ]);
    let mut db = Database::new();
    db.add_relation("person", person_ty, Bag::from_values([peter, sue]));
    db
}

fn running_example_plan() -> QueryPlan {
    PlanBuilder::table("person")
        .inner_flatten("address2", None)
        .select(Expr::attr_cmp("year", CmpOp::Ge, 2019i64))
        .project_attrs(&["name", "city"])
        .relation_nest(vec!["name"], "nList")
        .build()
        .unwrap()
}

fn service() -> ExplainService {
    let mut service = ExplainService::new();
    service.catalog_mut().register_database("person_small", person_db());
    service.catalog_mut().register_plan("running", running_example_plan());
    service
}

fn city_question(city: &str) -> Nip {
    Nip::tuple([("city", Nip::val(city)), ("nList", Nip::bag([Nip::Any, Nip::Star]))])
}

fn request(city: &str) -> ExplainRequest {
    ExplainRequest::new(
        DbRef::Named("person_small".into()),
        PlanRef::Named("running".into()),
        city_question(city),
    )
    .with_alternatives(vec![AttributeAlternative::new("person", "address2", "address1")])
}

/// 16 concurrent requests over 2 distinct why-not tuples, all sharing one
/// (db, plan, substitutions) cache key: the generalized trace must be
/// computed exactly once, and every report must equal its serial twin.
#[test]
fn concurrent_batch_computes_the_shared_trace_once() {
    // Serial reference run on an independent service instance.
    let reference_service = service();
    let cities = ["NY", "SF", "NY", "SF", "NY", "SF", "NY", "SF"];
    let requests: Vec<ExplainRequest> =
        cities.iter().cycle().take(16).map(|city| request(city)).collect();
    let reference: Vec<String> = requests
        .iter()
        .map(|r| reference_service.explain(r).unwrap().report.to_json().to_compact())
        .collect();

    let service = service();
    let responses = whynot_exec::with_threads(8, || service.explain_batch(&requests));
    assert_eq!(responses.len(), requests.len());
    for (response, expected) in responses.iter().zip(&reference) {
        let got = response.as_ref().unwrap().report.to_json().to_compact();
        assert_eq!(&got, expected, "parallel batch reports must match serial reports");
    }
    let stats = service.cache_stats();
    assert_eq!(stats.misses, 1, "the shared generalized trace is computed exactly once");
    assert_eq!(stats.hits, 15);
    assert_eq!(stats.entries, 1);
}

/// Distinct substitution signatures (RP vs RPnoSA) are distinct keys: a
/// concurrent mixed batch computes exactly one trace per key.
#[test]
fn concurrent_mixed_batch_computes_one_trace_per_key() {
    let service = service();
    let mut requests = Vec::new();
    for i in 0..12 {
        let mut r = request(if i % 2 == 0 { "NY" } else { "SF" });
        r.use_schema_alternatives = i % 3 != 0;
        requests.push(r);
    }
    let responses = whynot_exec::with_threads(8, || service.explain_batch(&requests));
    assert!(responses.iter().all(|r| r.is_ok()));
    let stats = service.cache_stats();
    assert_eq!(stats.misses, 2, "one computation per substitution signature");
    assert_eq!(stats.entries, 2);
    assert_eq!(stats.hits + stats.misses, 12);
}

/// Per-question failures stay per-question under concurrency, in order.
#[test]
fn concurrent_batch_keeps_per_question_failures_in_order() {
    let service = service();
    let requests = vec![
        request("NY"),
        // LA is already in the result: invalid question.
        ExplainRequest::new(
            DbRef::Named("person_small".into()),
            PlanRef::Named("running".into()),
            Nip::tuple([("city", Nip::val("LA")), ("nList", Nip::Any)]),
        ),
        request("SF"),
        // Unknown catalog entry.
        ExplainRequest::new(
            DbRef::Named("nope".into()),
            PlanRef::Named("running".into()),
            city_question("NY"),
        ),
    ];
    let responses = whynot_exec::with_threads(4, || service.explain_batch(&requests));
    assert!(responses[0].is_ok());
    assert!(responses[1].is_err());
    assert!(responses[2].is_ok());
    assert!(responses[3].is_err());
}

/// Inline payloads exercise the same dedup path (identified by content
/// fingerprint).
#[test]
fn concurrent_inline_requests_share_one_computation() {
    let service = service();
    let db = Arc::new(person_db());
    let plan = Arc::new(running_example_plan());
    let requests: Vec<ExplainRequest> = (0..8)
        .map(|_| {
            ExplainRequest::new(
                DbRef::Inline(Arc::clone(&db)),
                PlanRef::Inline(Arc::clone(&plan)),
                city_question("NY"),
            )
        })
        .collect();
    let responses = whynot_exec::with_threads(8, || service.explain_batch(&requests));
    assert!(responses.iter().all(|r| r.is_ok()));
    assert_eq!(service.cache_stats().misses, 1);
}
