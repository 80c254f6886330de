//! Cumulative service metrics (the `stats` wire op) and the wire encoding of
//! [`ProfileReport`]s.
//!
//! The request counters and the latency histogram are process-wide statics
//! (always-on relaxed atomics, like the fan-out counters of `whynot-exec`);
//! the trace-cache counters belong to one [`crate::ExplainService`] instance.
//! [`ServiceStats`] bundles both — plus the HTTP front-end counters
//! ([`crate::http::http_stats`]) — into the response of the `stats` wire op, the `whynot stats` CLI verb, and
//! `GET /v1/stats`. The field-by-field shape of that response is documented
//! in `docs/PROTOCOL.md`.

use whynot_exec::PoolStats;
use whynot_guard::GuardStats;
use whynot_obs::{Counter, Histogram, HistogramSnapshot, ProfileReport, SpanReport};

use crate::cache::CacheStats;
use crate::http::HttpStats;
use crate::json::Json;

/// Why-not requests answered by any service instance in this process.
pub(crate) static REQUESTS: Counter = Counter::new();
/// Requests that returned an error.
pub(crate) static REQUEST_ERRORS: Counter = Counter::new();
/// Batches answered.
pub(crate) static BATCHES: Counter = Counter::new();
/// Requests submitted inside batches.
pub(crate) static BATCH_REQUESTS: Counter = Counter::new();
/// Per-request wall-clock latency (nanoseconds).
pub(crate) static REQUEST_LATENCY: Histogram = Histogram::new();

/// Cumulative service metrics: process-wide request counters and latency
/// histogram, the trace-cache counters of one service instance, and a
/// snapshot of the `whynot-exec` batch fan-out counters.
#[derive(Debug, Clone)]
pub struct ServiceStats {
    /// How many requests of a batch started now would run at once.
    pub threads: usize,
    /// Requests answered (including failures) since process start.
    pub requests: u64,
    /// Requests that returned an error.
    pub request_errors: u64,
    /// Batches answered.
    pub batches: u64,
    /// Requests submitted inside batches.
    pub batch_requests: u64,
    /// Per-request latency histogram (nanoseconds).
    pub latency: HistogramSnapshot,
    /// Trace-cache counters of the service instance that answered.
    pub cache: CacheStats,
    /// Batch fan-out counters since process start.
    pub pool: PoolStats,
    /// Resource-guard counters (checks, trips, injected faults).
    pub guard: GuardStats,
    /// HTTP front-end counters (`whynot serve`); all zero when no server runs
    /// in this process.
    pub http: HttpStats,
}

impl ServiceStats {
    /// Gathers the process-wide metrics around the given cache counters.
    pub fn gather(cache: CacheStats) -> ServiceStats {
        ServiceStats {
            threads: whynot_exec::effective_threads(),
            requests: REQUESTS.get(),
            request_errors: REQUEST_ERRORS.get(),
            batches: BATCHES.get(),
            batch_requests: BATCH_REQUESTS.get(),
            latency: REQUEST_LATENCY.snapshot(),
            cache,
            pool: whynot_exec::pool_stats(),
            guard: whynot_guard::guard_stats(),
            http: crate::http::http_stats(),
        }
    }

    /// Encodes the `stats` wire response.
    pub fn to_json(&self) -> Json {
        Json::object([
            ("threads", Json::Int(self.threads as i64)),
            (
                "requests",
                Json::object([
                    ("total", Json::Int(self.requests as i64)),
                    ("errors", Json::Int(self.request_errors as i64)),
                    ("batches", Json::Int(self.batches as i64)),
                    ("batch_requests", Json::Int(self.batch_requests as i64)),
                    (
                        "latency_ns",
                        // `min`/`max` are exact observed extremes; the
                        // percentiles remain log-bucket upper bounds.
                        Json::object([
                            ("count", Json::Int(self.latency.count as i64)),
                            ("sum", Json::Int(self.latency.sum as i64)),
                            ("min", Json::Int(self.latency.min as i64)),
                            ("max", Json::Int(self.latency.max as i64)),
                            ("mean", Json::Float(self.latency.mean())),
                            ("p50", Json::Int(self.latency.quantile(0.5) as i64)),
                            ("p95", Json::Int(self.latency.quantile(0.95) as i64)),
                            ("p99", Json::Int(self.latency.quantile(0.99) as i64)),
                        ]),
                    ),
                ]),
            ),
            (
                "trace_cache",
                Json::object([
                    ("hits", Json::Int(self.cache.hits as i64)),
                    ("misses", Json::Int(self.cache.misses as i64)),
                    ("coalesced", Json::Int(self.cache.coalesced as i64)),
                    ("entries", Json::Int(self.cache.entries as i64)),
                    ("evictions", Json::Int(self.cache.evictions as i64)),
                    ("weight", Json::Int(self.cache.weight as i64)),
                    ("weight_capacity", Json::Int(self.cache.weight_capacity as i64)),
                    // 0.0 (not NaN) before the first lookup, see
                    // `CacheStats::hit_rate`.
                    ("hit_rate", Json::Float(self.cache.hit_rate())),
                ]),
            ),
            (
                "http",
                Json::object([
                    ("connections", Json::Int(self.http.connections as i64)),
                    ("requests", Json::Int(self.http.requests as i64)),
                    ("shed", Json::Int(self.http.shed as i64)),
                    ("parse_errors", Json::Int(self.http.parse_errors as i64)),
                ]),
            ),
            (
                "pool",
                Json::object([
                    ("par_regions", Json::Int(self.pool.par_regions as i64)),
                    ("chunks_stolen", Json::Int(self.pool.chunks_stolen as i64)),
                ]),
            ),
            (
                "guard",
                Json::object([
                    ("checks", Json::Int(self.guard.checks as i64)),
                    ("trips", Json::Int(self.guard.trips() as i64)),
                    (
                        "trips_by_kind",
                        Json::Object(
                            self.guard
                                .trips_by_kind()
                                .iter()
                                .map(|(kind, n)| (kind.to_string(), Json::Int(*n as i64)))
                                .collect(),
                        ),
                    ),
                    ("faults_injected", Json::Int(self.guard.faults_injected as i64)),
                ]),
            ),
        ])
    }
}

/// Encodes a [`ProfileReport`] in the wire style: counters and meta keep
/// their (deterministic) order as JSON objects, spans nest as on screen.
pub fn profile_report_to_json(report: &ProfileReport) -> Json {
    Json::object([
        ("wall_ns", Json::Int(report.wall_ns as i64)),
        (
            "meta",
            Json::Object(
                report.meta.iter().map(|(k, v)| (k.clone(), Json::Int(*v as i64))).collect(),
            ),
        ),
        ("root", span_report_to_json(&report.root)),
    ])
}

fn span_report_to_json(span: &SpanReport) -> Json {
    Json::object([
        ("name", Json::str(span.name.clone())),
        ("count", Json::Int(span.count as i64)),
        ("total_ns", Json::Int(span.total_ns as i64)),
        (
            "counters",
            Json::Object(
                span.counters.iter().map(|(k, v)| (k.clone(), Json::Int(*v as i64))).collect(),
            ),
        ),
        ("children", Json::Array(span.children.iter().map(span_report_to_json).collect())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_reports_encode_to_the_wire_form() {
        let (_, mut report) = whynot_obs::profile(|| {
            let _outer = whynot_obs::span("outer");
            whynot_obs::add("seen", 3);
            let _inner = whynot_obs::span("inner");
            whynot_obs::add("rows", 7);
        });
        report.push_meta("threads", 2);
        let json = profile_report_to_json(&report);
        assert_eq!(json.get("wall_ns").and_then(Json::as_i64), Some(report.wall_ns as i64));
        assert_eq!(json.get("meta").unwrap().to_compact(), r#"{"threads":2}"#);
        let root = json.get("root").unwrap();
        assert_eq!(root.get("name").and_then(Json::as_str), Some(report.root.name.as_str()));
        assert_eq!(root.get("count").and_then(Json::as_i64), Some(report.root.count as i64));
        assert_eq!(root.get("counters").unwrap().to_compact(), "{}");
        let outer = root.get("children").and_then(Json::as_array).unwrap();
        assert_eq!(outer.len(), 1);
        assert_eq!(outer[0].get("name").and_then(Json::as_str), Some("outer"));
        assert_eq!(outer[0].get("count").and_then(Json::as_i64), Some(1));
        assert_eq!(outer[0].get("counters").unwrap().to_compact(), r#"{"seen":3}"#);
        let inner = outer[0].get("children").and_then(Json::as_array).unwrap();
        assert_eq!(inner.len(), 1);
        assert_eq!(inner[0].get("name").and_then(Json::as_str), Some("inner"));
        assert_eq!(inner[0].get("counters").unwrap().to_compact(), r#"{"rows":7}"#);
        assert!(inner[0].get("children").and_then(Json::as_array).unwrap().is_empty());
    }

    #[test]
    fn service_stats_encode_all_sections() {
        let stats = ServiceStats::gather(CacheStats::default());
        let json = stats.to_json();
        for key in ["threads", "requests", "trace_cache", "pool", "guard", "http"] {
            assert!(json.get(key).is_some(), "missing `{key}`");
        }
        let latency = json.get("requests").unwrap().get("latency_ns").unwrap();
        assert!(latency.get("p99").is_some());
        let cache = json.get("trace_cache").unwrap();
        for key in ["hits", "misses", "coalesced", "entries", "evictions", "weight"] {
            assert_eq!(cache.get(key).and_then(Json::as_i64), Some(0), "`trace_cache.{key}`");
        }
        // hit_rate is a number (0.0) even with zero lookups.
        assert_eq!(cache.get("hit_rate").and_then(Json::as_f64), Some(0.0));
    }
}
