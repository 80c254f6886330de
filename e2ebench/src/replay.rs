//! The traced replay: answers a request by calling each layer's public stage
//! function itself, in the order `WhyNotEngine::explain_with_tracer` and
//! `ExplainService::explain` call them, and times every call.
//!
//! No stage call nests another, so a stage's span time is its self time —
//! except the trace-cache lookup, whose miss path computes the generalized
//! trace inside `TraceCache::get_or_compute`; the lookup is charged its own
//! time minus the nested `trace_plan_generalized` call.

use std::sync::Arc;
use std::time::{Duration, Instant};

use nrab_algebra::{Database, QueryPlan};
use nrab_provenance::{
    annotate_consistency, substitution_signature, trace_plan_generalized, TraceResult,
};
use whynot_core::alternatives::enumerate_schema_alternatives;
use whynot_core::backtrace::schema_backtrace;
use whynot_core::msr::approximate_msrs;
use whynot_core::rank::{order_and_prune, RankedCandidate};
use whynot_core::side_effects::side_effect_bounds;
use whynot_core::{EngineConfig, Explanation, WhyNotAnswer, WhyNotQuestion};
use whynot_service::{
    ExplainRequest, ExplainResponse, ExplanationReport, Json, RequestStats, TraceCache, TraceKey,
};

/// The timed stages, in call order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// `Json::parse` + `ExplainRequest::from_json` (wire requests only).
    Decode,
    /// `WhyNotQuestion::validate`.
    Validate,
    /// `schema_backtrace`.
    Backtrace,
    /// `enumerate_schema_alternatives`.
    Alternatives,
    /// `TraceCache::get_or_compute`, minus a nested trace computation.
    CacheLookup,
    /// `trace_plan_generalized` (cache misses only).
    Trace,
    /// `annotate_consistency`.
    Annotate,
    /// `approximate_msrs`.
    Msr,
    /// `side_effect_bounds` over every candidate.
    SideEffects,
    /// `order_and_prune` plus building the ranked explanations.
    Rank,
    /// `ExplanationReport::from_answer`.
    Report,
    /// `ExplainResponse::to_json` + `Json::to_compact` (wire requests only).
    Encode,
}

impl Stage {
    /// Every stage, in call order.
    pub const ALL: [Stage; 12] = [
        Stage::Decode,
        Stage::Validate,
        Stage::Backtrace,
        Stage::Alternatives,
        Stage::CacheLookup,
        Stage::Trace,
        Stage::Annotate,
        Stage::Msr,
        Stage::SideEffects,
        Stage::Rank,
        Stage::Report,
        Stage::Encode,
    ];

    /// The per-layer metric the stage's mean time is reported under.
    pub fn metric(self) -> &'static str {
        match self {
            Stage::Decode => "service.wire.decode_ms",
            Stage::Validate => "core.validate_ms",
            Stage::Backtrace => "core.backtrace_ms",
            Stage::Alternatives => "core.alternatives_ms",
            Stage::CacheLookup => "service.cache.lookup_ms",
            Stage::Trace => "provenance.trace_ms",
            Stage::Annotate => "provenance.annotate_ms",
            Stage::Msr => "core.msr_ms",
            Stage::SideEffects => "core.side_effects_ms",
            Stage::Rank => "core.rank_ms",
            Stage::Report => "service.report_ms",
            Stage::Encode => "service.wire.encode_ms",
        }
    }
}

/// Work counts of one replayed request. All of them are deterministic: they
/// depend on the question, never on timing or pool width.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// `Bag::total` of the validated query result.
    pub result_tuples: u64,
    /// Schema alternatives enumerated.
    pub sas: u64,
    /// `GeneralizedTrace::tuple_count`.
    pub traced_tuples: u64,
    /// Traced tuples consistent under at least one schema alternative.
    pub consistent_tuples: u64,
    /// Candidates `approximate_msrs` returned.
    pub candidates: u64,
    /// Explanations left after ranking and pruning.
    pub explanations: u64,
    /// Bytes of the compact report encoding.
    pub report_bytes: u64,
    /// Whether the trace came from the replay's cache.
    pub cache_hit: bool,
}

/// Per-stage times of one replayed request.
#[derive(Debug, Clone, Default)]
pub struct Sample {
    /// Nanoseconds per stage, indexed like [`Stage::ALL`].
    pub stage_ns: [u64; Stage::ALL.len()],
    /// Wall time of the whole replay, stage calls and the glue between them.
    pub total_ns: u64,
    /// Work counts.
    pub counts: Counts,
}

impl Sample {
    fn record(&mut self, stage: Stage, elapsed: Duration) {
        self.stage_ns[stage as usize] += elapsed.as_nanos() as u64;
    }
}

/// Runs `f` and charges its wall time to `stage`.
fn timed<R>(sample: &mut Sample, stage: Stage, f: impl FnOnce() -> R) -> R {
    let start = Instant::now();
    let out = f();
    sample.record(stage, start.elapsed());
    out
}

/// The data a request addresses, resolved the way the service's catalog
/// resolves a named database and plan.
#[derive(Debug, Clone, Copy)]
pub struct Target<'a> {
    /// Catalog name (the cache keys on it).
    pub name: &'a str,
    /// The database.
    pub db: &'a Arc<Database>,
    /// The plan.
    pub plan: &'a Arc<QueryPlan>,
    /// The plan's fingerprint.
    pub plan_fingerprint: u64,
}

/// Decodes a wire request body stage by stage, replays it, and encodes the
/// response as the server would.
pub fn replay_wire(
    body: &str,
    target: Target<'_>,
    cache: &TraceCache,
) -> Result<(ExplanationReport, Sample), String> {
    let start = Instant::now();
    let mut sample = Sample::default();
    let request = timed(&mut sample, Stage::Decode, || {
        Json::parse(body)
            .map_err(|e| e.to_string())
            .and_then(|doc| ExplainRequest::from_json(&doc).map_err(|e| e.to_string()))
    })?;
    let (report, trace) = answer(&request, target, cache, &mut sample)?;
    let response = ExplainResponse {
        report,
        stats: RequestStats {
            trace_cache_hit: sample.counts.cache_hit,
            schema_alternatives: sample.counts.sas as usize,
            duration: start.elapsed(),
        },
    };
    timed(&mut sample, Stage::Encode, || std::hint::black_box(response.to_json().to_compact()));
    sample.total_ns = start.elapsed().as_nanos() as u64;
    finish_counts(&mut sample, &response.report, &trace);
    Ok((response.report, sample))
}

/// Replays one in-process request.
pub fn replay(
    request: &ExplainRequest,
    target: Target<'_>,
    cache: &TraceCache,
) -> Result<(ExplanationReport, Sample), String> {
    let start = Instant::now();
    let mut sample = Sample::default();
    let (report, trace) = answer(request, target, cache, &mut sample)?;
    sample.total_ns = start.elapsed().as_nanos() as u64;
    finish_counts(&mut sample, &report, &trace);
    Ok((report, sample))
}

/// Counts that need a pass over the answer; taken after the replay's clock
/// stopped, so they add no time to it.
fn finish_counts(sample: &mut Sample, report: &ExplanationReport, trace: &TraceResult) {
    sample.counts.consistent_tuples = trace
        .traces
        .values()
        .flat_map(|op| &op.tuples)
        .filter(|t| (0..trace.num_sas).any(|sa| t.flags(sa).consistent))
        .count() as u64;
    sample.counts.report_bytes = report.to_json().to_compact().len() as u64;
}

/// Arms a guard exactly when the service would (the request carries a
/// limit), so guard checks count the same.
fn answer(
    request: &ExplainRequest,
    target: Target<'_>,
    cache: &TraceCache,
    sample: &mut Sample,
) -> Result<(ExplanationReport, TraceResult), String> {
    if request.timeout_ms.is_none() && request.max_trace_tuples.is_none() {
        return stages(request, target, cache, sample);
    }
    let guard = whynot_guard::Guard::new(request.timeout_ms, request.max_trace_tuples, None);
    let _armed = whynot_guard::arm(&guard);
    whynot_guard::catch_trip(|| stages(request, target, cache, sample))
        .unwrap_or_else(|trip| Err(trip.to_string()))
}

fn stages(
    request: &ExplainRequest,
    target: Target<'_>,
    cache: &TraceCache,
    sample: &mut Sample,
) -> Result<(ExplanationReport, TraceResult), String> {
    let question = WhyNotQuestion::new(
        Arc::clone(target.plan),
        Arc::clone(target.db),
        request.why_not.clone(),
    );
    let plan = &*question.plan;
    let db = &*question.db;
    let original =
        timed(sample, Stage::Validate, || question.validate()).map_err(|e| e.to_string())?;
    let original_result_size = original.total();

    let mut config = EngineConfig {
        use_schema_alternatives: request.use_schema_alternatives,
        ..EngineConfig::default()
    };
    if let Some(max) = request.max_schema_alternatives {
        config.max_schema_alternatives = max;
    }
    // The engine checks the guard once before each stage; so does the replay.
    let checkpoint = || whynot_guard::checkpoint().map_err(|e| e.to_string());

    checkpoint()?;
    let backtrace =
        timed(sample, Stage::Backtrace, || schema_backtrace(plan, db, &question.why_not))
            .map_err(|e| e.to_string())?;

    checkpoint()?;
    let alternatives: &[_] =
        if config.use_schema_alternatives { &request.alternatives } else { &[] };
    let sas = timed(sample, Stage::Alternatives, || {
        enumerate_schema_alternatives(
            plan,
            db,
            &question.why_not,
            &backtrace,
            alternatives,
            config.max_schema_alternatives,
        )
    })
    .map_err(|e| e.to_string())?;

    checkpoint()?;
    let key = TraceKey {
        db: format!("catalog:{}", target.name),
        db_version: 0,
        plan_fingerprint: target.plan_fingerprint,
        substitutions: substitution_signature(&sas),
    };
    let mut trace_time = Duration::ZERO;
    let lookup_start = Instant::now();
    let looked_up = cache.get_or_compute(key, || {
        let start = Instant::now();
        let trace = trace_plan_generalized(plan, db, &sas);
        trace_time = start.elapsed();
        trace
    });
    sample.record(Stage::CacheLookup, lookup_start.elapsed().saturating_sub(trace_time));
    sample.record(Stage::Trace, trace_time);
    let (base, hit) = looked_up.map_err(|e| e.to_string())?;

    checkpoint()?;
    let trace = timed(sample, Stage::Annotate, || annotate_consistency(&base, plan, &sas));

    checkpoint()?;
    let candidates = timed(sample, Stage::Msr, || approximate_msrs(plan, &trace, &sas));
    let candidate_count = candidates.len() as u64;
    let ranked: Vec<RankedCandidate> = timed(sample, Stage::SideEffects, || {
        candidates
            .into_iter()
            .map(|candidate| {
                let bounds = side_effect_bounds(
                    plan,
                    &trace,
                    candidate.sa,
                    &candidate.ops,
                    original_result_size,
                );
                RankedCandidate { candidate, bounds }
            })
            .collect()
    });
    let explanations: Vec<Explanation> = timed(sample, Stage::Rank, || {
        order_and_prune(ranked).into_iter().map(|r| explanation(plan, r)).collect()
    });
    let answer = WhyNotAnswer { explanations, schema_alternatives: sas, original_result_size };
    let report = timed(sample, Stage::Report, || ExplanationReport::from_answer(&answer));

    sample.counts = Counts {
        result_tuples: original_result_size,
        sas: answer.schema_alternatives.len() as u64,
        traced_tuples: base.tuple_count() as u64,
        candidates: candidate_count,
        explanations: answer.explanations.len() as u64,
        cache_hit: hit,
        ..Counts::default()
    };
    Ok((report, trace))
}

/// The explanation the engine builds from a ranked candidate.
fn explanation(plan: &QueryPlan, ranked: RankedCandidate) -> Explanation {
    let mut labels = Vec::new();
    let mut kinds = Vec::new();
    for op in &ranked.candidate.ops {
        if let Ok(node) = plan.node(*op) {
            labels.push(format!("[{}] {}", node.id, node.op));
            kinds.push(node.op.kind_name().to_string());
        }
    }
    Explanation {
        operators: ranked.candidate.ops,
        operator_labels: labels,
        operator_kinds: kinds,
        schema_alternative: ranked.candidate.sa,
        side_effects: ranked.bounds,
    }
}
