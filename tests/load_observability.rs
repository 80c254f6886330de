//! The load-observability contract, end to end:
//!
//! * **Loadgen determinism** — a fixed seed reproduces the exact same
//!   question schedule and report *structure* (request counts, errors, cache
//!   hit/miss totals, latency observation count) at any ambient thread
//!   count; only wall-clock figures vary. The run pins its own pool width,
//!   so `WHYNOT_THREADS` (exercised at 1 and 4 in CI, and via
//!   `with_threads(1/2/8)` here) must not leak into the structure.
//! * **Timeline export** — a load run recorded under an
//!   `obs::timeline` session yields balanced begin/end pairs, and the Chrome
//!   trace-event JSON round-trips through the workspace's own JSON parser
//!   with names, phases, and timestamps intact.
//! * **Flamegraph export** — the folded-stack lines derived from a profiled
//!   run expose the service span paths (`batch;request`) with positive
//!   self-time.
//! * **Metric surfaces** — the `metrics` wire op serves the process time
//!   series, and the `stats` wire op carries the exact latency extremes,
//!   the cache hit rate, and the guard trip breakdown by kind.

use std::sync::Mutex;

use whynot_exec::with_threads;
use whynot_service::loadgen::{run, LoadgenConfig};
use whynot_service::{
    timeline_from_chrome_json, timeline_to_chrome_json, ExplainService, Json, METRICS_CAPACITY,
};

/// Timeline and profile sessions are process-global: while one is open,
/// every span in the process is recorded into it, so a span of a concurrent
/// test could begin inside a session and end after it. Every test here
/// serializes on this lock so the default multi-threaded test runner cannot
/// make a session overlap other work.
static SESSION_LOCK: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SESSION_LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A small but multi-scenario run: several distinct trace keys, several
/// waves, a non-trivial warmup.
fn small_config() -> LoadgenConfig {
    LoadgenConfig {
        family: "dblp".into(),
        scale: Some(40),
        seed: 42,
        concurrency: 4,
        requests: 24,
        warmup: 4,
        ..LoadgenConfig::default()
    }
}

#[test]
fn loadgen_structure_is_identical_at_any_thread_count() {
    let _session = serial();
    let config = small_config();
    let signatures: Vec<String> = [1usize, 2, 8]
        .iter()
        .map(|&threads| {
            with_threads(threads, || run(&config).expect("load run succeeds")).structure_signature()
        })
        .collect();
    assert_eq!(signatures[0], signatures[1], "threads 1 vs 2");
    assert_eq!(signatures[0], signatures[2], "threads 1 vs 8");
    // And reproducible: the same seed replays the same schedule.
    let again = run(&config).expect("load run succeeds");
    assert_eq!(signatures[0], again.structure_signature());

    // The structure itself is what the config promises: every planned
    // request was issued and measured, nothing failed, and the cache saw
    // exactly one miss per distinct scenario in the schedule.
    assert_eq!(again.total_requests, 28);
    assert_eq!(again.measured_requests, 24);
    assert_eq!(again.errors, 0);
    assert_eq!(again.latency.count, 24);
    let distinct: std::collections::BTreeSet<&String> = again.schedule.iter().collect();
    assert_eq!(again.cache.misses as usize, distinct.len());
    assert!(again.latency.p50_ns > 0 && again.latency.p99_ns >= again.latency.p50_ns);
}

#[test]
fn loadgen_seeds_change_the_schedule() {
    let _session = serial();
    let base = small_config();
    let reseeded = LoadgenConfig { seed: 43, ..base.clone() };
    let a = run(&base).expect("load run succeeds");
    let b = run(&reseeded).expect("load run succeeds");
    assert_ne!(a.schedule, b.schedule, "a different seed must reshuffle the schedule");
}

#[test]
fn chrome_trace_export_balances_and_round_trips() {
    let _session = serial();
    let config = LoadgenConfig { requests: 8, warmup: 2, ..small_config() };
    let (report, timeline) =
        whynot_obs::timeline::record(|| run(&config).expect("load run succeeds"));
    assert!(report.measured_requests > 0);
    assert!(!timeline.events.is_empty(), "a recorded load run must emit events");
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
    let _session = serial();
    let config = LoadgenConfig { requests: 8, warmup: 2, ..small_config() };
    let (report, profile) = whynot_obs::profile(|| run(&config).expect("load run succeeds"));
    assert!(report.measured_requests > 0);
    let folded = profile.to_folded();
    let lines: Vec<&str> = folded.lines().collect();
    assert!(!lines.is_empty(), "a profiled load run must produce folded stacks");
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
    let _session = serial();
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
    let _session = serial();
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
