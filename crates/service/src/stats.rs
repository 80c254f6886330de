//! Cumulative service metrics (the `stats` wire op) and the wire codec for
//! [`ProfileReport`]s.
//!
//! The request counters and the latency histogram are process-wide statics
//! (always-on relaxed atomics, like the pool counters of `whynot-exec`);
//! the trace-cache counters belong to one [`crate::ExplainService`] instance.
//! [`ServiceStats`] bundles both — plus the HTTP front-end counters
//! ([`crate::http::http_stats`]) and the cache's per-shard occupancy — into
//! the response of the `stats` wire op, the `whynot stats` CLI verb, and
//! `GET /v1/stats`. The field-by-field shape of that response is documented
//! in `docs/PROTOCOL.md`.

use whynot_exec::PoolStats;
use whynot_guard::GuardStats;
use whynot_obs::{
    Counter, Histogram, HistogramSnapshot, ProfileReport, SamplePoint, SpanReport, TimeSeries,
};

use crate::cache::{CacheStats, ShardOccupancy};
use crate::error::{ServiceError, ServiceResult};
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

/// Number of metric samples the process retains (newest win).
pub const METRICS_CAPACITY: usize = 512;

/// Process-wide ring of timestamped metric samples: pushed by the `metrics`
/// wire op and by `whynot stats --watch` polls, read back as the `points` of
/// the `metrics` response.
static METRICS: TimeSeries = TimeSeries::new(METRICS_CAPACITY);

/// Takes one timestamped sample of the process-wide service metrics (request
/// counters, latency histogram, guard trips) around the given cache counters
/// and appends it to the retained series. Returns the sample.
pub fn sample_service_metrics(cache: &CacheStats) -> SamplePoint {
    let guard = whynot_guard::guard_stats();
    let point = SamplePoint {
        at_ns: whynot_obs::monotonic_ns(),
        counters: vec![
            ("batch_requests".to_string(), BATCH_REQUESTS.get()),
            ("batches".to_string(), BATCHES.get()),
            ("cache_hits".to_string(), cache.hits),
            ("cache_misses".to_string(), cache.misses),
            ("guard_trips".to_string(), guard.trips()),
            ("request_errors".to_string(), REQUEST_ERRORS.get()),
            ("requests".to_string(), REQUESTS.get()),
        ],
        histograms: vec![("request_latency_ns".to_string(), REQUEST_LATENCY.snapshot())],
    };
    METRICS.push(point.clone());
    point
}

/// The retained metric samples, oldest first.
pub fn metrics_series() -> Vec<SamplePoint> {
    METRICS.snapshot()
}

/// Encodes one metric sample for the `metrics` wire response.
pub fn sample_point_to_json(point: &SamplePoint) -> Json {
    Json::object([
        ("at_ns", Json::Int(point.at_ns as i64)),
        (
            "counters",
            Json::Object(
                point.counters.iter().map(|(k, v)| (k.clone(), Json::Int(*v as i64))).collect(),
            ),
        ),
        (
            "histograms",
            Json::Object(
                point.histograms.iter().map(|(k, h)| (k.clone(), histogram_to_json(h))).collect(),
            ),
        ),
    ])
}

/// Encodes the full `metrics` wire response: capacity plus retained points.
pub fn metrics_to_json(points: &[SamplePoint]) -> Json {
    Json::object([
        ("capacity", Json::Int(METRICS_CAPACITY as i64)),
        ("points", Json::array(points.iter().map(sample_point_to_json))),
    ])
}

fn histogram_to_json(h: &HistogramSnapshot) -> Json {
    Json::object([
        ("count", Json::Int(h.count as i64)),
        ("sum", Json::Int(h.sum as i64)),
        ("min", Json::Int(h.min as i64)),
        ("max", Json::Int(h.max as i64)),
        ("mean", Json::Float(h.mean())),
        ("p50", Json::Int(h.quantile(0.5) as i64)),
        ("p95", Json::Int(h.quantile(0.95) as i64)),
        ("p99", Json::Int(h.quantile(0.99) as i64)),
    ])
}

/// Cumulative service metrics: process-wide request counters and latency
/// histogram, the trace-cache counters of one service instance, and a
/// snapshot of the `whynot-exec` pool counters.
#[derive(Debug, Clone)]
pub struct ServiceStats {
    /// Effective thread count for a parallel region started now.
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
    /// Per-shard cache occupancy, in shard order (sums to
    /// [`CacheStats::entries`] / [`CacheStats::weight`]).
    pub shard_occupancy: Vec<ShardOccupancy>,
    /// Pool counters since process start.
    pub pool: PoolStats,
    /// Resource-guard counters (checks, trips, injected faults).
    pub guard: GuardStats,
    /// HTTP front-end counters (`whynot serve`); all zero when no server runs
    /// in this process.
    pub http: HttpStats,
}

impl ServiceStats {
    /// Gathers the process-wide metrics around the given cache counters and
    /// per-shard occupancy.
    pub fn gather(cache: CacheStats, shard_occupancy: Vec<ShardOccupancy>) -> ServiceStats {
        ServiceStats {
            threads: whynot_exec::effective_threads(),
            requests: REQUESTS.get(),
            request_errors: REQUEST_ERRORS.get(),
            batches: BATCHES.get(),
            batch_requests: BATCH_REQUESTS.get(),
            latency: REQUEST_LATENCY.snapshot(),
            cache,
            shard_occupancy,
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
                    ("shards", Json::Int(self.cache.shards as i64)),
                    (
                        "shard_occupancy",
                        Json::array(self.shard_occupancy.iter().map(|shard| {
                            Json::object([
                                ("entries", Json::Int(shard.entries as i64)),
                                ("weight", Json::Int(shard.weight as i64)),
                            ])
                        })),
                    ),
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
                    ("jobs", Json::Int(self.pool.jobs as i64)),
                    ("worker_runs", Json::Int(self.pool.worker_runs as i64)),
                    ("par_regions", Json::Int(self.pool.par_regions as i64)),
                    ("chunks_claimed", Json::Int(self.pool.chunks_claimed as i64)),
                    ("chunks_stolen", Json::Int(self.pool.chunks_stolen as i64)),
                    ("max_queue_depth", Json::Int(self.pool.max_queue_depth as i64)),
                    ("queue_depth", Json::Int(self.pool.queue_depth as i64)),
                    ("queue_waits", Json::Int(self.pool.queue_waits as i64)),
                    ("queue_wait_ns", Json::Int(self.pool.queue_wait_ns as i64)),
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

/// Decodes a [`ProfileReport`] from its wire form (round-trip inverse of
/// [`profile_report_to_json`]).
pub fn profile_report_from_json(json: &Json) -> ServiceResult<ProfileReport> {
    let wall_ns = require_u64(json, "wall_ns")?;
    let meta = match json.get_required("meta").map_err(|e| ServiceError::decode(e.to_string()))? {
        Json::Object(fields) => fields
            .iter()
            .map(|(k, v)| {
                v.as_i64()
                    .map(|i| (k.clone(), i as u64))
                    .ok_or_else(|| ServiceError::decode(format!("meta `{k}` must be an integer")))
            })
            .collect::<ServiceResult<Vec<_>>>()?,
        other => {
            return Err(ServiceError::decode(format!("`meta` must be an object, found {other}")))
        }
    };
    let root = span_report_from_json(
        json.get_required("root").map_err(|e| ServiceError::decode(e.to_string()))?,
    )?;
    Ok(ProfileReport { wall_ns, meta, root })
}

fn span_report_from_json(json: &Json) -> ServiceResult<SpanReport> {
    let name = match json.get_required("name").map_err(|e| ServiceError::decode(e.to_string()))? {
        Json::Str(s) => s.clone(),
        other => {
            return Err(ServiceError::decode(format!(
                "span `name` must be a string, found {other}"
            )))
        }
    };
    let counters =
        match json.get_required("counters").map_err(|e| ServiceError::decode(e.to_string()))? {
            Json::Object(fields) => fields
                .iter()
                .map(|(k, v)| {
                    v.as_i64().map(|i| (k.clone(), i as u64)).ok_or_else(|| {
                        ServiceError::decode(format!("counter `{k}` must be an integer"))
                    })
                })
                .collect::<ServiceResult<Vec<_>>>()?,
            other => {
                return Err(ServiceError::decode(format!(
                    "`counters` must be an object, found {other}"
                )))
            }
        };
    let children = match json
        .get_required("children")
        .map_err(|e| ServiceError::decode(e.to_string()))?
    {
        Json::Array(items) => {
            items.iter().map(span_report_from_json).collect::<ServiceResult<Vec<_>>>()?
        }
        other => {
            return Err(ServiceError::decode(format!("`children` must be an array, found {other}")))
        }
    };
    Ok(SpanReport {
        name,
        count: require_u64(json, "count")?,
        total_ns: require_u64(json, "total_ns")?,
        counters,
        children,
    })
}

fn require_u64(json: &Json, field: &str) -> ServiceResult<u64> {
    json.get_required(field)
        .map_err(|e| ServiceError::decode(e.to_string()))?
        .as_i64()
        .filter(|i| *i >= 0)
        .map(|i| i as u64)
        .ok_or_else(|| ServiceError::decode(format!("`{field}` must be a non-negative integer")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_reports_round_trip_through_the_wire() {
        let (_, report) = whynot_obs::profile(|| {
            let _outer = whynot_obs::span("outer");
            whynot_obs::add("seen", 3);
            let _inner = whynot_obs::span("inner");
            whynot_obs::add("rows", 7);
        });
        let json = profile_report_to_json(&report);
        let decoded = profile_report_from_json(&json).unwrap();
        assert_eq!(decoded.signature(), report.signature());
        assert_eq!(decoded.wall_ns, report.wall_ns);
        assert_eq!(profile_report_to_json(&decoded).to_compact(), json.to_compact());
    }

    #[test]
    fn service_stats_encode_all_sections() {
        let stats = ServiceStats::gather(CacheStats::default(), Vec::new());
        let json = stats.to_json();
        for key in ["threads", "requests", "trace_cache", "pool", "guard", "http"] {
            assert!(json.get(key).is_some(), "missing `{key}`");
        }
        let latency = json.get("requests").unwrap().get("latency_ns").unwrap();
        assert!(latency.get("p99").is_some());
        let cache = json.get("trace_cache").unwrap();
        assert!(cache.get("shards").is_some());
        assert!(cache.get("shard_occupancy").is_some());
        // hit_rate is a number (0.0) even with zero lookups.
        assert_eq!(cache.get("hit_rate").and_then(Json::as_f64), Some(0.0));
    }
}
