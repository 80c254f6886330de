//! The explanation service: resolves requests against the catalog, answers
//! single or batched why-not questions, and reuses generalized traces through
//! the [`TraceCache`].

use std::sync::Arc;
use std::time::{Duration, Instant};

use nested_data::Nip;
use nrab_algebra::{AlgebraResult, Database, QueryPlan};
use nrab_provenance::{substitution_signature, GeneralizedTrace, SchemaAlternative};
use whynot_core::{
    AttributeAlternative, EngineConfig, TraceProvider, WhyNotEngine, WhyNotQuestion,
};

use crate::cache::{CacheStats, TraceCache, TraceKey};
use crate::catalog::{database_fingerprint, plan_fingerprint, Catalog};
use crate::error::{ServiceError, ServiceResult};
use crate::json::Json;
use crate::report::ExplanationReport;
use crate::stats::{self, ServiceStats};
use crate::wire::{
    alternative_from_json, alternative_to_json, array, database_from_json, database_to_json, field,
    known_fields, list, nip_to_json, non_negative, optional, plan_from_json, plan_to_json,
    positive, string, why_not_from_json, ENGINES,
};

/// The fields of an explain request.
const REQUEST_FIELDS: [&str; 8] = [
    "db",
    "plan",
    "why_not",
    "alternatives",
    "engine",
    "max_schema_alternatives",
    "timeout_ms",
    "max_trace_tuples",
];

/// A database reference: a catalog name or an inline database.
#[derive(Debug, Clone)]
pub enum DbRef {
    /// A database registered in the catalog.
    Named(String),
    /// A database shipped inside the request.
    Inline(Arc<Database>),
}

/// A plan reference: a catalog name or an inline plan.
#[derive(Debug, Clone)]
pub enum PlanRef {
    /// A plan registered in the catalog.
    Named(String),
    /// A plan shipped inside the request.
    Inline(Arc<QueryPlan>),
}

/// One why-not question, addressed against the catalog or fully inline.
#[derive(Debug, Clone)]
pub struct ExplainRequest {
    /// The input database.
    pub db: DbRef,
    /// The (possibly erroneous) query.
    pub plan: PlanRef,
    /// The missing answer of interest.
    pub why_not: Nip,
    /// Attribute alternatives provided as input (Section 5.2).
    pub alternatives: Vec<AttributeAlternative>,
    /// Whether to reason about schema alternatives (`RP` vs `RPnoSA`).
    pub use_schema_alternatives: bool,
    /// Optional cap on the number of enumerated schema alternatives.
    pub max_schema_alternatives: Option<usize>,
    /// Optional deadline in milliseconds; the request fails with a
    /// `deadline` error once exceeded (checked cooperatively, see
    /// `whynot-guard`). `0` is allowed and trips at the first check.
    pub timeout_ms: Option<u64>,
    /// Optional cap on traced tuples across the request's plan operators;
    /// exceeding it fails the request with a `trace_budget` error.
    pub max_trace_tuples: Option<u64>,
}

impl ExplainRequest {
    /// A full-engine (`RP`) request.
    pub fn new(db: DbRef, plan: PlanRef, why_not: Nip) -> Self {
        ExplainRequest {
            db,
            plan,
            why_not,
            alternatives: Vec::new(),
            use_schema_alternatives: true,
            max_schema_alternatives: None,
            timeout_ms: None,
            max_trace_tuples: None,
        }
    }

    /// Adds attribute alternatives.
    pub fn with_alternatives(mut self, alternatives: Vec<AttributeAlternative>) -> Self {
        self.alternatives = alternatives;
        self
    }

    /// Sets a deadline in milliseconds.
    pub fn with_timeout_ms(mut self, timeout_ms: u64) -> Self {
        self.timeout_ms = Some(timeout_ms);
        self
    }

    /// Sets a trace-tuple budget.
    pub fn with_max_trace_tuples(mut self, max_trace_tuples: u64) -> Self {
        self.max_trace_tuples = Some(max_trace_tuples);
        self
    }

    /// Decodes a request from its wire form.
    ///
    /// `{"db": <name | inline>, "plan": <name | inline>, "why_not": <nip>,
    ///   "alternatives": [...], "engine": <engine>,
    ///   "max_schema_alternatives": n, "timeout_ms": n, "max_trace_tuples": n}`
    ///
    /// Limits admit `0` (trip at the first check), a valid way to probe a
    /// request's cost without paying it. Any other key is a decode error at
    /// that key.
    pub fn from_json(json: &Json) -> ServiceResult<Self> {
        Self::from_wire(json, &[])
    }

    /// [`ExplainRequest::from_json`] for a document that may also carry the
    /// `envelope` keys (a top-level document's `op`).
    fn from_wire(json: &Json, envelope: &[&str]) -> ServiceResult<Self> {
        known_fields(json, |key| REQUEST_FIELDS.contains(&key) || envelope.contains(&key))?;
        Ok(ExplainRequest {
            db: field(json, "db", |db| {
                Ok(match db {
                    Json::Str(name) => DbRef::Named(name.clone()),
                    inline => DbRef::Inline(Arc::new(database_from_json(inline)?)),
                })
            })?,
            plan: field(json, "plan", |plan| {
                Ok(match plan {
                    Json::Str(name) => PlanRef::Named(name.clone()),
                    inline => PlanRef::Inline(Arc::new(plan_from_json(inline)?)),
                })
            })?,
            why_not: field(json, "why_not", why_not_from_json)?,
            alternatives: optional(json, "alternatives", |alternatives| {
                list(alternatives, alternative_from_json)
            })?
            .unwrap_or_default(),
            use_schema_alternatives: optional(json, "engine", |engine| ENGINES.decode(engine))?
                .unwrap_or(true),
            max_schema_alternatives: optional(json, "max_schema_alternatives", positive)?,
            timeout_ms: optional(json, "timeout_ms", non_negative)?,
            max_trace_tuples: optional(json, "max_trace_tuples", non_negative)?,
        })
    }

    /// Encodes the request in its wire form (the inverse of
    /// [`ExplainRequest::from_json`]): named references stay strings, inline
    /// payloads are fully encoded, and fields at their defaults (the
    /// schema-alternative engine, empty `alternatives`, unset limits) are
    /// omitted. Used by the end-to-end benchmark and the HTTP tests to ship
    /// the same requests over the wire that the in-process path answers
    /// directly.
    pub fn to_json(&self) -> ServiceResult<Json> {
        let mut fields: Vec<(String, Json)> = Vec::new();
        let db = match &self.db {
            DbRef::Named(name) => Json::str(name.clone()),
            DbRef::Inline(db) => database_to_json(db),
        };
        fields.push(("db".to_string(), db));
        let plan = match &self.plan {
            PlanRef::Named(name) => Json::str(name.clone()),
            PlanRef::Inline(plan) => plan_to_json(plan),
        };
        fields.push(("plan".to_string(), plan));
        fields.push(("why_not".to_string(), nip_to_json(&self.why_not)?));
        if !self.alternatives.is_empty() {
            fields.push((
                "alternatives".to_string(),
                Json::Array(self.alternatives.iter().map(alternative_to_json).collect()),
            ));
        }
        if !self.use_schema_alternatives {
            fields.push(("engine".to_string(), ENGINES.encode(false)));
        }
        if let Some(max) = self.max_schema_alternatives {
            fields.push(("max_schema_alternatives".to_string(), Json::Int(max as i64)));
        }
        if let Some(ms) = self.timeout_ms {
            fields.push(("timeout_ms".to_string(), Json::Int(ms as i64)));
        }
        if let Some(tuples) = self.max_trace_tuples {
            fields.push(("max_trace_tuples".to_string(), Json::Int(tuples as i64)));
        }
        Ok(Json::Object(fields))
    }
}

/// Per-request execution statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestStats {
    /// Whether the generalized trace came from the cache.
    pub trace_cache_hit: bool,
    /// Number of schema alternatives the engine considered.
    pub schema_alternatives: usize,
    /// Wall-clock time spent answering the question.
    pub duration: Duration,
}

/// A successful answer: the report plus execution statistics.
#[derive(Debug, Clone)]
pub struct ExplainResponse {
    /// The explanation report.
    pub report: ExplanationReport,
    /// Execution statistics.
    pub stats: RequestStats,
}

impl ExplainResponse {
    /// Encodes the response (report + stats).
    pub fn to_json(&self) -> Json {
        Json::object([
            ("report", self.report.to_json()),
            (
                "stats",
                Json::object([
                    ("trace_cache_hit", Json::Bool(self.stats.trace_cache_hit)),
                    ("schema_alternatives", Json::Int(self.stats.schema_alternatives as i64)),
                    ("duration_ms", Json::Float(self.stats.duration.as_secs_f64() * 1e3)),
                ]),
            ),
        ])
    }
}

/// The explanation service.
#[derive(Debug, Default)]
pub struct ExplainService {
    catalog: Catalog,
    cache: TraceCache,
}

/// A resolved database: shared data plus the identity the cache keys on.
struct ResolvedDb {
    db: Arc<Database>,
    cache_id: String,
    cache_version: u64,
}

impl ExplainService {
    /// Creates a service with the default cache capacity.
    pub fn new() -> Self {
        ExplainService::default()
    }

    /// The catalog (for registration and lookups).
    pub fn catalog_mut(&mut self) -> &mut Catalog {
        &mut self.catalog
    }

    /// Read access to the catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Current trace-cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    fn resolve_db(&self, db: &DbRef) -> ServiceResult<ResolvedDb> {
        match db {
            DbRef::Named(name) => {
                let handle = self.catalog.database(name)?;
                Ok(ResolvedDb {
                    db: handle.db,
                    cache_id: format!("catalog:{}", handle.name),
                    cache_version: handle.version,
                })
            }
            DbRef::Inline(db) => {
                // Inline databases are identified by an exact structural hash
                // of their content, so two equal inline payloads still share
                // cache entries.
                let fp = database_fingerprint(db);
                Ok(ResolvedDb {
                    db: Arc::clone(db),
                    cache_id: format!("inline:{fp:016x}"),
                    cache_version: 0,
                })
            }
        }
    }

    fn resolve_plan(&self, plan: &PlanRef) -> ServiceResult<(Arc<QueryPlan>, u64)> {
        match plan {
            PlanRef::Named(name) => {
                let handle = self.catalog.plan(name)?;
                Ok((handle.plan, handle.fingerprint))
            }
            PlanRef::Inline(plan) => Ok((Arc::clone(plan), plan_fingerprint(plan))),
        }
    }

    /// Cumulative service metrics: process-wide request counters and latency
    /// histogram around this instance's trace-cache counters (the `stats`
    /// wire response).
    pub fn stats(&self) -> ServiceStats {
        ServiceStats::gather(self.cache.stats())
    }

    /// Answers one why-not question: arms a per-request
    /// [`whynot_guard::Guard`] when the request carries a limit (`timeout_ms`,
    /// `max_trace_tuples`; an unlimited request keeps the unguarded fast path,
    /// one thread-local read per check site), resolves its database and plan,
    /// and runs the engine, whose first stage validates the question.
    pub fn explain(&self, request: &ExplainRequest) -> ServiceResult<ExplainResponse> {
        let start = Instant::now();
        let _span = whynot_obs::span("request");
        let limited = request.timeout_ms.is_some() || request.max_trace_tuples.is_some();
        let _armed = limited.then(|| {
            whynot_guard::arm(&whynot_guard::Guard::new(
                request.timeout_ms,
                request.max_trace_tuples,
                None,
            ))
        });
        let answer = || -> ServiceResult<ExplainResponse> {
            let resolved = self.resolve_db(&request.db)?;
            let (plan, plan_fp) = self.resolve_plan(&request.plan)?;
            // Shared handles — no deep copy of the database or plan per request.
            let question = WhyNotQuestion::new(plan, resolved.db, request.why_not.clone());
            let mut config = EngineConfig {
                use_schema_alternatives: request.use_schema_alternatives,
                ..EngineConfig::default()
            };
            if let Some(max) = request.max_schema_alternatives {
                config.max_schema_alternatives = max;
            }
            let mut tracer = CachingTracer {
                cache: &self.cache,
                db_id: resolved.cache_id,
                db_version: resolved.cache_version,
                plan_fingerprint: plan_fp,
                hit: false,
            };
            let answer = WhyNotEngine { config }.explain_with_tracer(
                &question,
                &request.alternatives,
                &mut tracer,
            )?;
            if whynot_obs::enabled() {
                whynot_obs::add(if tracer.hit { "cache.hit" } else { "cache.miss" }, 1);
            }
            Ok(ExplainResponse {
                stats: RequestStats {
                    trace_cache_hit: tracer.hit,
                    schema_alternatives: answer.schema_alternatives.len(),
                    duration: start.elapsed(),
                },
                report: ExplanationReport::from_answer(&answer),
            })
        };
        let result = answer();
        stats::REQUESTS.add(1);
        stats::REQUEST_LATENCY.record(start.elapsed().as_nanos() as u64);
        if result.is_err() {
            stats::REQUEST_ERRORS.add(1);
        }
        result
    }

    /// Answers a batch of why-not questions, returning responses in request
    /// order.
    ///
    /// Requests fan out with `whynot_exec::par_map` (`WHYNOT_THREADS`-many at
    /// a time, each on one thread; one at a time while the caller profiles);
    /// the reports are identical to answering the questions one by one. Questions that target the same plan, database, and substitution
    /// sets share one generalized trace even when they run concurrently: the
    /// cache's per-key in-flight deduplication makes the first question pay
    /// for it and the rest wait for (then reuse) that single computation.
    /// Failures are per-question — one invalid, over-budget, or even
    /// *panicking* question does not fail the batch: each request is isolated
    /// behind `catch_unwind` (inside the fan-out, so a panic never aborts
    /// sibling chunks) and surfaces as a [`ServiceError::Panic`] entry.
    pub fn explain_batch(
        &self,
        requests: &[ExplainRequest],
    ) -> Vec<ServiceResult<ExplainResponse>> {
        stats::BATCHES.add(1);
        stats::BATCH_REQUESTS.add(requests.len() as u64);
        let _span = whynot_obs::span("batch");
        whynot_obs::add("batch.requests", requests.len() as u64);
        whynot_exec::par_map(requests, |request| {
            let attempt =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.explain(request)));
            attempt.unwrap_or_else(|payload| Err(ServiceError::Panic(panic_message(payload))))
        })
    }

    /// Answers one wire document, dispatching on its `op` field.
    ///
    /// * `"explain"` (also the default when `op` is absent — the historical
    ///   request form): the rest of the document is an [`ExplainRequest`],
    ///   the response is [`ExplainResponse::to_json`].
    /// * `"batch"`: `{"op": "batch", "requests": [...]}` answers the requests
    ///   concurrently and returns `{"responses": [...]}` with per-item
    ///   `{"error": ...}` entries for requests that fail to decode or answer.
    /// * `"stats"`: returns the cumulative [`ServiceStats`].
    ///
    /// A key that the op does not define is a decode error at that key; a
    /// batch item is an [`ExplainRequest`], so it has no `op`.
    pub fn handle_wire(&self, doc: &Json) -> ServiceResult<Json> {
        match optional(doc, "op", string)? {
            None | Some("explain") => {
                self.explain(&ExplainRequest::from_wire(doc, &["op"])?).map(|r| r.to_json())
            }
            Some("stats") => {
                known_fields(doc, |key| key == "op")?;
                Ok(self.stats().to_json())
            }
            Some("batch") => {
                known_fields(doc, |key| key == "op" || key == "requests")?;
                let decoded: Vec<ServiceResult<ExplainRequest>> = field(doc, "requests", array)?
                    .iter()
                    .enumerate()
                    .map(|(i, r)| ExplainRequest::from_json(r).map_err(|e| e.at(i).at("requests")))
                    .collect();
                let ok: Vec<ExplainRequest> =
                    decoded.iter().filter_map(|r| r.as_ref().ok().cloned()).collect();
                let mut responses = self.explain_batch(&ok).into_iter();
                let items: Vec<Json> = decoded
                    .iter()
                    .map(|request| {
                        let outcome = match request {
                            Err(e) => return Json::object([("error", e.to_wire())]),
                            Ok(_) => responses.next().expect("one response per decoded request"),
                        };
                        match outcome {
                            Ok(response) => response.to_json(),
                            Err(e) => Json::object([("error", e.to_wire())]),
                        }
                    })
                    .collect();
                Ok(Json::object([("responses", Json::Array(items))]))
            }
            Some(other) => Err(ServiceError::decode(format!(
                "unknown op `{other}` (expected \"explain\", \"batch\", or \"stats\")"
            ))
            .at("op")),
        }
    }
}

/// The service's [`TraceProvider`]: generalized traces come from the LRU
/// cache, keyed by database identity, plan fingerprint, and the substitution
/// signature of the schema-alternative set.
struct CachingTracer<'a> {
    cache: &'a TraceCache,
    db_id: String,
    db_version: u64,
    plan_fingerprint: u64,
    hit: bool,
}

impl TraceProvider for CachingTracer<'_> {
    fn generalized_trace(
        &mut self,
        plan: &QueryPlan,
        db: &Database,
        sas: &[SchemaAlternative],
    ) -> AlgebraResult<Arc<GeneralizedTrace>> {
        let key = TraceKey {
            db: self.db_id.clone(),
            db_version: self.db_version,
            plan_fingerprint: self.plan_fingerprint,
            substitutions: substitution_signature(sas),
        };
        let (trace, hit) = self.cache.get_or_compute(key, || {
            // Robustness tests kill the owning computation right here
            // (`cache_compute~<db substring>=panic`) to prove the cache's
            // in-flight handover and never-cache-poisoned guarantees.
            whynot_guard::faults::fault_point_dyn("cache_compute", || self.db_id.clone());
            nrab_provenance::trace_plan_generalized(plan, db, sas)
        })?;
        self.hit = hit;
        Ok(trace)
    }
}

/// Renders a caught panic payload for a [`ServiceError::Panic`] entry.
/// `panic!` with a message produces a `String` or `&str` payload; anything
/// else is reported opaquely.
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(message) => *message,
        Err(payload) => match payload.downcast::<&'static str>() {
            Ok(message) => (*message).to_string(),
            Err(_) => "non-string panic payload".to_string(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nested_data::{Bag, NestedType, TupleType, Value};
    use nrab_algebra::expr::{CmpOp, Expr};
    use nrab_algebra::PlanBuilder;

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

    fn ny_question() -> Nip {
        Nip::tuple([("city", Nip::val("NY")), ("nList", Nip::bag([Nip::Any, Nip::Star]))])
    }

    fn service() -> ExplainService {
        let mut service = ExplainService::new();
        service.catalog_mut().register_database("person_small", person_db());
        service.catalog_mut().register_plan("running", running_example_plan());
        service
    }

    #[test]
    fn named_request_reproduces_the_running_example() {
        let service = service();
        let request = ExplainRequest::new(
            DbRef::Named("person_small".into()),
            PlanRef::Named("running".into()),
            ny_question(),
        )
        .with_alternatives(vec![AttributeAlternative::new("person", "address2", "address1")]);
        let response = service.explain(&request).unwrap();
        assert_eq!(response.report.original_result_size, 1);
        assert_eq!(response.report.explanations.len(), 2);
        assert_eq!(response.report.explanations[0].operators, vec![2]);
        assert_eq!(response.report.explanations[1].operators, vec![1, 2]);
        assert!(!response.stats.trace_cache_hit, "first question must trace");
    }

    #[test]
    fn second_question_hits_the_trace_cache() {
        let service = service();
        let request = ExplainRequest::new(
            DbRef::Named("person_small".into()),
            PlanRef::Named("running".into()),
            ny_question(),
        )
        .with_alternatives(vec![AttributeAlternative::new("person", "address2", "address1")]);
        let first = service.explain(&request).unwrap();
        let second = service.explain(&request).unwrap();
        assert!(!first.stats.trace_cache_hit);
        assert!(second.stats.trace_cache_hit, "second identical question must reuse the trace");
        assert_eq!(first.report, second.report);
        let stats = service.cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn different_questions_share_the_generalized_trace() {
        let service = service();
        // Same plan/db/alternatives, different why-not tuple: the cache key
        // excludes the NIPs, so the second question also hits.
        let ny = ExplainRequest::new(
            DbRef::Named("person_small".into()),
            PlanRef::Named("running".into()),
            ny_question(),
        )
        .with_alternatives(vec![AttributeAlternative::new("person", "address2", "address1")]);
        let sf = ExplainRequest::new(
            DbRef::Named("person_small".into()),
            PlanRef::Named("running".into()),
            Nip::tuple([("city", Nip::val("SF")), ("nList", Nip::bag([Nip::Any, Nip::Star]))]),
        )
        .with_alternatives(vec![AttributeAlternative::new("person", "address2", "address1")]);
        let responses = service.explain_batch(&[ny, sf]);
        let ny_response = responses[0].as_ref().unwrap();
        let sf_response = responses[1].as_ref().unwrap();
        // Exactly one of the two computes the trace; the other reuses it.
        // Which one wins the in-flight slot depends on the batch fan-out
        // (the pair runs in parallel), so assert the split, not
        // the order.
        let hits = [ny_response.stats.trace_cache_hit, sf_response.stats.trace_cache_hit];
        assert_eq!(hits.iter().filter(|hit| **hit).count(), 1, "{hits:?}");
        // SF is missing because year ≥ 2019 filters Peter's SF 2018 address:
        // the selection alone explains it.
        assert_eq!(sf_response.report.explanations[0].operators, vec![2]);
    }

    #[test]
    fn inline_and_named_payloads_share_cache_entries_by_content() {
        let service = service();
        let inline = ExplainRequest::new(
            DbRef::Inline(Arc::new(person_db())),
            PlanRef::Inline(Arc::new(running_example_plan())),
            ny_question(),
        );
        let first = service.explain(&inline).unwrap();
        let second = service.explain(&inline).unwrap();
        assert!(!first.stats.trace_cache_hit);
        assert!(second.stats.trace_cache_hit, "identical inline payloads share a cache entry");
    }

    #[test]
    fn inline_databases_share_cache_entries_by_structure() {
        let service = service();
        let payload = database_to_json(&person_db()).to_compact();
        // Each call decodes its own database, as two wire requests would.
        let hits = |payload: &str| {
            let db = database_from_json(&Json::parse(payload).unwrap()).unwrap();
            let request = ExplainRequest::new(
                DbRef::Inline(Arc::new(db)),
                PlanRef::Named("running".into()),
                ny_question(),
            );
            service.explain(&request).unwrap().stats.trace_cache_hit
        };
        assert!(!hits(&payload));
        assert!(hits(&payload), "an equal payload decoded again shares the entry");
        // Peter's LA 2010 address becomes 2011: one value differs.
        let one_value = payload.replacen("2010", "2011", 1);
        assert_ne!(one_value, payload);
        assert!(!hits(&one_value), "a payload with another value has its own entry");
        // address1.year becomes a float attribute; the rows are unchanged.
        let one_type = payload.replacen(r#""year":"int""#, r#""year":"float""#, 1);
        assert_ne!(one_type, payload);
        assert!(!hits(&one_type), "a payload with another attribute type has its own entry");
        // 2^53 and 2^53 + 1 are different integers that round to the same f64.
        let below = payload.replacen("2010", "9007199254740992", 1);
        let above = payload.replacen("2010", "9007199254740993", 1);
        assert!(!hits(&below));
        assert!(!hits(&above), "integers beyond f64 precision have their own entries");
        // In a float column, 2 and 2.0 decode to values that compare equal
        // but are reported differently.
        let ints = payload.replace(r#""year":"int""#, r#""year":"float""#);
        let floats = ints.replacen("2010", "2010.0", 1);
        let decode = |payload: &str| database_from_json(&Json::parse(payload).unwrap()).unwrap();
        assert_eq!(decode(&ints), decode(&floats));
        assert!(!hits(&ints));
        assert!(!hits(&floats), "an integral float and its integer have their own entries");
        assert_eq!(service.cache_stats().entries, 7);
    }

    #[test]
    fn invalid_questions_fail_individually_in_a_batch() {
        let service = service();
        let good = ExplainRequest::new(
            DbRef::Named("person_small".into()),
            PlanRef::Named("running".into()),
            ny_question(),
        );
        // LA is already in the result, so this question is invalid.
        let bad = ExplainRequest::new(
            DbRef::Named("person_small".into()),
            PlanRef::Named("running".into()),
            Nip::tuple([("city", Nip::val("LA")), ("nList", Nip::Any)]),
        );
        let missing = ExplainRequest::new(
            DbRef::Named("nope".into()),
            PlanRef::Named("running".into()),
            ny_question(),
        );
        let responses = service.explain_batch(&[good, bad, missing]);
        assert!(responses[0].is_ok());
        assert!(matches!(responses[1], Err(ServiceError::WhyNot(_))));
        assert!(matches!(responses[2], Err(ServiceError::UnknownCatalogEntry(_))));
    }

    #[test]
    fn wire_stats_op_reports_cache_counters() {
        let service = service();
        let request = ExplainRequest::new(
            DbRef::Named("person_small".into()),
            PlanRef::Named("running".into()),
            ny_question(),
        );
        service.explain(&request).unwrap();
        service.explain(&request).unwrap();
        let doc = service.handle_wire(&Json::parse(r#"{"op": "stats"}"#).unwrap()).unwrap();
        let cache = doc.get("trace_cache").unwrap();
        assert_eq!(cache.get("hits").and_then(Json::as_i64), Some(1));
        assert_eq!(cache.get("misses").and_then(Json::as_i64), Some(1));
        // Process-wide counters move monotonically; this instance answered 2.
        assert!(
            doc.get("requests").unwrap().get("total").and_then(Json::as_i64).unwrap() >= 2,
            "{doc}"
        );
        assert!(doc.get("pool").is_some());
    }

    #[test]
    fn unknown_wire_ops_are_rejected() {
        let service = service();
        let err = service.handle_wire(&Json::parse(r#"{"op": "nope"}"#).unwrap());
        assert!(matches!(err, Err(ServiceError::Decode(_))), "{err:?}");
        // The retired `metrics` op is an unknown op like any other.
        let Err(err) = service.handle_wire(&Json::parse(r#"{"op": "metrics"}"#).unwrap()) else {
            panic!("`metrics` is no longer a wire op");
        };
        assert_eq!(err.kind(), "decode");
        let message = err.to_string();
        for op in ["explain", "batch", "stats"] {
            assert!(message.contains(&format!("\"{op}\"")), "{message}");
        }
    }

    #[test]
    fn requests_round_trip_through_their_wire_form() {
        let service = service();
        let request = ExplainRequest::new(
            DbRef::Named("person_small".into()),
            PlanRef::Named("running".into()),
            ny_question(),
        )
        .with_alternatives(vec![AttributeAlternative::new("person", "address2", "address1")])
        .with_timeout_ms(5_000);
        let wire = request.to_json().unwrap();
        let decoded = ExplainRequest::from_json(&wire).unwrap();
        // Same answer through either form — the property the HTTP
        // byte-identity checks rest on.
        let direct = service.explain(&request).unwrap();
        let via_wire = service.explain(&decoded).unwrap();
        assert_eq!(direct.report, via_wire.report);
        // Round-tripping the decoded request reproduces the same document.
        assert_eq!(decoded.to_json().unwrap().to_compact(), wire.to_compact());
        // Defaults are omitted from the encoding.
        assert!(wire.get("engine").is_none());
        assert!(wire.get("max_trace_tuples").is_none());
        assert_eq!(wire.get("timeout_ms").and_then(Json::as_i64), Some(5_000));
        // Non-default engine choice survives.
        let mut no_sa = request.clone();
        no_sa.use_schema_alternatives = false;
        let encoded = no_sa.to_json().unwrap();
        assert_eq!(encoded.get("engine").and_then(Json::as_str), Some("rp_no_sa"));
        assert!(!ExplainRequest::from_json(&encoded).unwrap().use_schema_alternatives);
    }

    #[test]
    fn rp_no_sa_requests_use_a_separate_cache_entry() {
        let service = service();
        let rp = ExplainRequest::new(
            DbRef::Named("person_small".into()),
            PlanRef::Named("running".into()),
            ny_question(),
        )
        .with_alternatives(vec![AttributeAlternative::new("person", "address2", "address1")]);
        let mut no_sa = rp.clone();
        no_sa.use_schema_alternatives = false;
        let rp_response = service.explain(&rp).unwrap();
        let no_sa_response = service.explain(&no_sa).unwrap();
        // RPnoSA traces only the original alternative: different substitution
        // signature, hence a miss, and only one explanation.
        assert!(!rp_response.stats.trace_cache_hit);
        assert!(!no_sa_response.stats.trace_cache_hit);
        assert_eq!(no_sa_response.report.explanations.len(), 1);
        assert_eq!(service.cache_stats().entries, 2);
    }
}
