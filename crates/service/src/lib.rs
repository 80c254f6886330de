//! # whynot-service
//!
//! A cached, batched why-not explanation service on top of the `whynot-core`
//! engine, with a JSON wire format and a CLI (`whynot`). This is the serving
//! layer of the reproduction: it turns the paper's heuristic pipeline into an
//! addressable system that loads scenarios from disk and amortizes repeated
//! work across questions.
//!
//! * [`json`] — a dependency-free JSON document model (ordered objects,
//!   loss-free int/float distinction).
//! * [`wire`] — encoders/decoders for nested values, schemas, NIPs,
//!   expressions, operators, plans, databases, and attribute alternatives,
//!   with round-trip guarantees.
//! * [`catalog`] — named, versioned databases and named plans.
//! * [`cache`] — an LRU cache of *generalized traces* keyed by (database
//!   identity, plan fingerprint, schema-alternative substitution signature).
//!   The key deliberately excludes the why-not NIPs: the expensive
//!   generalized evaluation (`nrab_provenance::trace_plan_generalized`) is
//!   question-independent, so even questions about *different* missing
//!   answers share one trace and only re-run the cheap consistency
//!   annotation.
//! * [`service`] — the request layer: single and batched questions, inline or
//!   catalog-addressed payloads, per-request cache statistics.
//! * [`report`] — the wire-level explanation report with a human-readable
//!   rendering.
//! * [`stats`] — cumulative service metrics (the `stats` wire op) and the
//!   wire encoding of `whynot-obs` profile reports.
//! * [`http`] — `whynot-serve`: a dependency-free HTTP/1.1 front end routing
//!   `POST /v1/explain|batch|stats` onto the wire dispatch, with a
//!   bounded admission queue (429 + `Retry-After` shedding) and per-request
//!   guard deadlines; plus the minimal keep-alive client the HTTP tests
//!   and the end-to-end benchmark drive it with.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cache;
pub mod catalog;
pub mod error;
pub mod http;
pub mod json;
pub mod report;
pub mod service;
pub mod stats;
pub mod wire;

pub use cache::{CacheStats, TraceCache, TraceKey};
pub use catalog::{Catalog, DbHandle, PlanHandle};
pub use error::{ServiceError, ServiceResult};
pub use http::{serve, HttpClient, HttpResponse, HttpStats, ServeConfig, ServerHandle};
pub use json::{Json, JsonError};
pub use report::ExplanationReport;
pub use service::{DbRef, ExplainRequest, ExplainResponse, ExplainService, PlanRef, RequestStats};
pub use stats::{profile_report_to_json, ServiceStats};
