//! One benchmark run: set up a workload, measure it for the given time, and
//! turn what it saw into metrics.
//!
//! A run with tracing off answers requests through the public service entry
//! points only (`ExplainService::explain` in process, `POST /v1/explain` over
//! HTTP) and yields the end-to-end metrics. A run with tracing on answers
//! every request twice, once through `ExplainService::explain` and once
//! through the stage-by-stage [`crate::replay`], checks that both reports
//! are byte-identical, and yields the per-layer metrics.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use whynot_service::catalog::fingerprint64;
use whynot_service::{
    CacheStats, ExplainResponse, ExplainService, ExplanationReport, HttpClient, Json,
    ServiceResult, TraceCache,
};

use crate::openloop::{self, Status, WireRequest};
use crate::replay::{self, Sample, Stage, Target};
use crate::server::ServerChild;
use crate::stats::{beyond, mean, median, peak_rss_mb, percentile, windowed};
use crate::workload::{service_for, Question, Workload};

/// Largest share by which the per-stage means of the traced replay may miss
/// its mean latency (the untimed glue between stage calls) before the run
/// counts as incorrect.
pub const STAGE_SUM_BOUND: f64 = 0.05;

/// Offered rate of the traced `http-dblp` open loop, requests per second:
/// about half the 2-connection HTTP capacity (~600 req/s on 2 CPUs).
pub const DEFAULT_HTTP_RATE: f64 = 300.0;

/// Set-ups per end-to-end run; `setup_s` is their median.
pub const SETUPS: usize = 9;

/// Consecutive windows a run's latencies are split into; the reported p95
/// and throughput are the medians of the windows' figures.
pub const WINDOWS: usize = 9;

/// The pinned digests: question key, `fingerprint64` of the compact report,
/// and its length in bytes (for reference).
const EXPECTED: &str = include_str!("../expected_reports.tsv");

/// Settings of one run.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Schedule seed.
    pub seed: u64,
    /// How long the measured part runs.
    pub seconds: f64,
    /// Traced (per-layer) instead of end-to-end run.
    pub trace: bool,
    /// Offered rate of the traced `http-dblp` open loop, requests per second.
    pub http_rate: f64,
    /// A fixed number of requests instead of a time limit (the counter
    /// tests use it so two runs answer exactly the same schedule).
    pub requests: Option<usize>,
    /// `whynot-exec` pool width instead of the workload's own.
    pub pool_width: Option<usize>,
    /// This executable (started again as the `http-dblp` server).
    pub exe: PathBuf,
}

impl Options {
    /// Settings for `workload` with the defaults of the command line.
    pub fn new(workload: Workload, seed: u64, seconds: f64, trace: bool, exe: PathBuf) -> Options {
        Options {
            workload,
            seed,
            seconds,
            trace,
            http_rate: DEFAULT_HTTP_RATE,
            requests: None,
            pool_width: None,
            exe,
        }
    }

    /// The pool width the engine runs at.
    pub fn pool_width(&self) -> usize {
        self.pool_width.unwrap_or_else(|| self.workload.pool_width())
    }

    /// How many requests of the schedule the open loop sends: all of a
    /// fixed-size run, else the whole rounds of `round` requests that are
    /// due within `seconds`, at least one.
    fn offered(&self, seconds: f64, round: usize) -> usize {
        self.requests.unwrap_or_else(|| {
            ((seconds * self.http_rate / round as f64).ceil().max(1.0) as usize) * round
        })
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Observations the value rests on.
    pub samples: usize,
}

fn metric(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric { name, value, unit, samples }
}

/// The result of one run.
#[derive(Debug, Clone, Default)]
pub struct RunResult {
    /// Every answer matched its pinned report (and, traced, the replay).
    pub correct: bool,
    /// Measured requests.
    pub attempted: u64,
    /// Errors, sheds, transport failures and wrong answers.
    pub failed: u64,
    /// Metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Informational lines for the human-readable output.
    pub notes: Vec<String>,
    /// Why the run is not correct, if it is not.
    pub problems: Vec<String>,
    /// Deterministic work counts of a traced run, summed over its requests:
    /// they depend only on the schedule, never on timing or pool width.
    pub counters: BTreeMap<&'static str, u64>,
}

/// The pinned expected-report digests, by question key.
pub fn expected_digests() -> BTreeMap<String, u64> {
    EXPECTED
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|line| {
            let mut fields = line.split('\t');
            let key = fields.next().unwrap_or_default().to_string();
            let digest = u64::from_str_radix(fields.next().unwrap_or_default(), 16)
                .expect("pinned digests are hexadecimal");
            (key, digest)
        })
        .collect()
}

/// Answers every question of every workload once on a fresh service and
/// renders the pinned-digest file.
pub fn render_expected() -> Result<String, String> {
    let mut lines = BTreeMap::new();
    for workload in [Workload::HotDblp, Workload::ColdPaper] {
        whynot_exec::set_threads(workload.pool_width());
        for question in workload.questions() {
            let service = service_for(std::slice::from_ref(&question));
            let report = service.explain(&question.request).map_err(|e| e.to_string())?.report;
            let compact = report.to_json().to_compact();
            lines.insert(
                question.key,
                format!("{:016x}\t{}", fingerprint64(&compact), compact.len()),
            );
        }
    }
    let mut out = String::from(
        "# Pinned compact-report digests: question key, fingerprint64 (FNV-1a), bytes.\n\
         # Regenerate with `e2ebench --write-expected` only when answers are meant to change.\n",
    );
    for (key, value) in lines {
        out.push_str(&format!("{key}\t{value}\n"));
    }
    Ok(out)
}

/// The digest `question`'s report must have.
fn digest_of(expected: &BTreeMap<String, u64>, question: &Question) -> Result<u64, String> {
    expected
        .get(&question.key)
        .copied()
        .ok_or_else(|| format!("no pinned report for {}", question.key))
}

fn report_digest(report: &ExplanationReport) -> u64 {
    fingerprint64(&report.to_json().to_compact())
}

/// Runs the workload.
pub fn run(options: &Options) -> Result<RunResult, String> {
    whynot_exec::set_threads(options.pool_width());
    let expected = expected_digests();
    match (options.workload, options.trace) {
        (Workload::HttpDblp, false) => http_end_to_end(options, &expected),
        (Workload::HttpDblp, true) => http_traced(options, &expected),
        (_, false) => in_process_end_to_end(options, &expected),
        (_, true) => in_process_traced(options, &expected),
    }
}

/// Builds the questions and a service for them, and warms its trace cache
/// on workloads that serve from a warm cache.
fn set_up(workload: Workload) -> Result<(Vec<Question>, ExplainService), String> {
    let questions = workload.questions();
    let service = service_for(&questions);
    if workload.warm_cache() {
        for question in &questions {
            service.explain(&question.request).map_err(|e| format!("{}: {e}", question.key))?;
        }
    }
    Ok((questions, service))
}

/// The schedule of a run: its fixed length, or long enough for any run of
/// `seconds` (at far more requests per second than any workload answers).
fn schedule_for(options: &Options, questions: usize) -> Vec<usize> {
    let n = options
        .requests
        .unwrap_or_else(|| (options.seconds * 20_000.0).ceil() as usize + questions);
    options.workload.schedule(options.seed, questions, n)
}

/// Closed loop: `clients` threads take the schedule in order, each sending
/// its next request when the previous one is answered. Requests stop being
/// taken at the first round boundary after `seconds` have passed (or when
/// the fixed-size schedule is used up), so every run answers each question
/// equally often. Each client starts from its own `connect()` state (a
/// keep-alive connection over HTTP). Results come back in schedule order.
fn closed_loop<S, T: Send>(
    options: &Options,
    schedule: &[usize],
    round: usize,
    connect: impl Fn() -> S + Sync,
    answer: impl Fn(&mut S, usize, usize) -> T + Sync,
) -> Vec<T> {
    let next = AtomicUsize::new(0);
    let stop = AtomicUsize::new(schedule.len());
    let results = Mutex::new(Vec::new());
    let start = Instant::now();
    let window = Duration::from_secs_f64(options.seconds);
    let timed = options.requests.is_none();
    std::thread::scope(|scope| {
        for _ in 0..options.workload.clients() {
            scope.spawn(|| {
                let mut state = connect();
                loop {
                    let index = next.fetch_add(1, Ordering::SeqCst);
                    if index >= stop.load(Ordering::SeqCst) {
                        break;
                    }
                    if timed && index.is_multiple_of(round) && start.elapsed() >= window {
                        stop.fetch_min(index, Ordering::SeqCst);
                        break;
                    }
                    let out = answer(&mut state, index, schedule[index]);
                    let mut results = results.lock().expect("no client panics holding the results");
                    results.push((index, out));
                }
            });
        }
    });
    let stop = stop.into_inner();
    let mut results = results.into_inner().expect("no client panics holding the results");
    // A client may have taken a request past the boundary another one set.
    results.retain(|(index, _)| *index < stop);
    results.sort_by_key(|(index, _)| *index);
    results.into_iter().map(|(_, out)| out).collect()
}

fn in_process_end_to_end(
    options: &Options,
    expected: &BTreeMap<String, u64>,
) -> Result<RunResult, String> {
    let mut setups = Vec::new();
    let mut prepared = None;
    for _ in 0..SETUPS {
        drop(prepared.take());
        let start = Instant::now();
        prepared = Some(set_up(options.workload)?);
        setups.push(start.elapsed().as_secs_f64());
    }
    let (questions, service) = prepared.expect("at least one set-up");
    let digests: Vec<u64> =
        questions.iter().map(|q| digest_of(expected, q)).collect::<Result<_, _>>()?;
    let schedule = schedule_for(options, questions.len());
    let cold = options.workload == Workload::ColdPaper;

    let outcomes = closed_loop(
        options,
        &schedule,
        questions.len(),
        || (),
        |_, _, q| {
            let question = &questions[q];
            // The cold workload answers every request on a fresh service, built
            // outside the timed call, so its trace cache is always empty.
            let fresh = cold.then(|| service_for(std::slice::from_ref(question)));
            let target = fresh.as_ref().unwrap_or(&service);
            let start = Instant::now();
            let answer = target.explain(&question.request);
            let latency = start.elapsed().as_secs_f64() * 1e3;
            let status = match answer {
                Ok(response) if report_digest(&response.report) == digests[q] => Status::Ok,
                Ok(_) => Status::Mismatch,
                Err(_) => Status::Error,
            };
            (q, latency, status)
        },
    );
    let rss = peak_rss_mb(None).unwrap_or(0.0);
    Ok(closed_loop_result(options, &setups, &outcomes, questions.len(), rss))
}

/// The end-to-end result of a closed loop from each request's question,
/// latency and status, in schedule order; `round` is the schedule's round
/// length (the workload's question count).
fn closed_loop_result(
    options: &Options,
    setups: &[f64],
    outcomes: &[(usize, f64, Status)],
    round: usize,
    rss_mb: f64,
) -> RunResult {
    let mut result = RunResult::default();
    count_failures(&mut result, &outcomes.iter().map(|(_, _, s)| *s).collect::<Vec<_>>());
    let ok: Vec<(usize, f64)> =
        outcomes.iter().filter(|(_, _, s)| *s == Status::Ok).map(|&(q, l, _)| (q, l)).collect();
    let latencies: Vec<f64> = ok.iter().map(|(_, l)| *l).collect();
    // Every question is asked equally often, so the median request latency
    // is the median of the questions' own medians. Pooled, it would fall
    // between two questions' costs whenever the question count is even and
    // jump between them from run to run.
    let per_question: Vec<f64> = (0..round)
        .map(|q| ok.iter().filter(|(asked, _)| *asked == q).map(|(_, l)| *l).collect::<Vec<_>>())
        .filter(|l| !l.is_empty())
        .map(|l| median(&l))
        .collect();
    // Capacity: answers per second of the clients' time spent waiting for
    // answers, so work the loop does between requests (such as the fresh
    // services `cold-paper` builds) adds none.
    let clients = options.workload.clients() as f64;
    let throughput = windowed(&latencies, WINDOWS, round, |w| {
        clients * w.len() as f64 / (w.iter().sum::<f64>() / 1e3)
    });
    let n = latencies.len();
    let attempted = result.attempted.max(1) as f64;
    result.metrics = vec![
        metric("setup_s", median(setups), "s", setups.len()),
        metric("latency_p50_ms", median(&per_question), "ms", n),
        metric(
            "latency_p95_ms",
            windowed(&latencies, WINDOWS, round, |w| percentile(w, 0.95)),
            "ms",
            n,
        ),
        metric("throughput_rps", throughput, "req/s", n),
        metric("rss_peak_mb", rss_mb, "MiB", 1),
    ];
    result.notes.push(format!(
        "latency_p99_ms {:.4} ms (informational; {n} samples, {} beyond it)",
        percentile(&latencies, 0.99),
        beyond(&latencies, 0.99),
    ));
    result.notes.push(format!(
        "failed_share {:.6} ({} failed of {} attempted)",
        result.failed as f64 / attempted,
        result.failed,
        result.attempted
    ));
    result.correct = result.problems.is_empty();
    result
}

/// The wire form of every question, with its pinned digest.
pub fn wire_requests(
    questions: &[Question],
    expected: &BTreeMap<String, u64>,
) -> Result<Vec<WireRequest>, String> {
    questions
        .iter()
        .map(|q| {
            Ok(WireRequest {
                body: q.request.to_json().map_err(|e| e.to_string())?.to_compact(),
                digest: digest_of(expected, q)?,
            })
        })
        .collect()
}

/// Starts the server and warms its trace cache with every question.
fn start_server(options: &Options, requests: &[WireRequest]) -> Result<ServerChild, String> {
    let server = ServerChild::spawn(&options.exe, options.pool_width(), None)
        .map_err(|e| format!("server: {e}"))?;
    let mut client = None;
    for request in requests {
        let status = openloop::send(&mut client, server.addr(), request);
        if status != Status::Ok {
            return Err(format!("warm-up request answered {status:?}"));
        }
    }
    Ok(server)
}

/// Counts the requests of a run, and its failures of every kind, into the
/// result.
fn count_failures(result: &mut RunResult, statuses: &[Status]) {
    let count = |status| statuses.iter().filter(|s| **s == status).count();
    result.attempted = statuses.len() as u64;
    result.failed = (statuses.len() - count(Status::Ok)) as u64;
    if result.failed > 0 {
        result.problems.push(format!(
            "{} answers differed from the pinned reports; {} errors, {} shed, {} transport failures",
            count(Status::Mismatch),
            count(Status::Error),
            count(Status::Shed),
            count(Status::Transport),
        ));
    }
}

/// Counts open-loop outcomes into the result and notes their latencies.
fn tally(result: &mut RunResult, outcomes: &[openloop::Outcome], rate: f64) {
    count_failures(result, &outcomes.iter().map(|o| o.status).collect::<Vec<_>>());
    let ok: Vec<&openloop::Outcome> = outcomes.iter().filter(|o| o.status == Status::Ok).collect();
    let from_due: Vec<f64> = ok.iter().map(|o| o.latency_ms()).collect();
    let round_trips: Vec<f64> = ok.iter().map(|o| o.round_trip_ms()).collect();
    result.notes.push(format!(
        "open loop at {rate} req/s: latency from due p50 {:.4} ms, p95 {:.4} ms; \
         round trip p50 {:.4} ms ({} samples)",
        percentile(&from_due, 0.5),
        percentile(&from_due, 0.95),
        percentile(&round_trips, 0.5),
        ok.len(),
    ));
}

fn http_end_to_end(
    options: &Options,
    expected: &BTreeMap<String, u64>,
) -> Result<RunResult, String> {
    let mut setups = Vec::new();
    let mut prepared: Option<(Vec<Question>, Vec<WireRequest>, ServerChild)> = None;
    for _ in 0..SETUPS {
        if let Some((_, _, server)) = prepared.take() {
            server.stop().map_err(|e| format!("server: {e}"))?;
        }
        let start = Instant::now();
        let questions = options.workload.questions();
        let requests = wire_requests(&questions, expected)?;
        let server = start_server(options, &requests)?;
        setups.push(start.elapsed().as_secs_f64());
        prepared = Some((questions, requests, server));
    }
    let (questions, requests, server) = prepared.expect("at least one set-up");
    let schedule = schedule_for(options, questions.len());
    let outcomes = closed_loop(
        options,
        &schedule,
        questions.len(),
        || None,
        |client, _, q| {
            let start = Instant::now();
            let status = openloop::send(client, server.addr(), &requests[q]);
            (q, start.elapsed().as_secs_f64() * 1e3, status)
        },
    );
    let rss = peak_rss_mb(Some(server.pid())).unwrap_or(0.0);
    server.stop().map_err(|e| format!("server: {e}"))?;
    Ok(closed_loop_result(options, &setups, &outcomes, questions.len(), rss))
}

/// What the traced runs add up per request.
#[derive(Debug, Default)]
struct Traced {
    samples: Vec<Sample>,
    explain_ms: Vec<f64>,
    cache: CacheStats,
    mismatches: usize,
    errors: usize,
}

impl Traced {
    fn push(&mut self, explain_ms: f64, outcome: Result<(bool, Sample), ()>) {
        match outcome {
            Ok((identical, sample)) => {
                if !identical {
                    self.mismatches += 1;
                }
                self.explain_ms.push(explain_ms);
                self.samples.push(sample);
            }
            Err(()) => self.errors += 1,
        }
    }
}

/// Answers a request through the service and through the replay; `true`
/// when both reports are byte-identical to each other and to the pinned
/// one. Every other request runs the replay first, so neither side always
/// finds the caches the other one warmed.
fn answer_twice(
    replay_first: bool,
    direct: impl FnOnce() -> ServiceResult<ExplainResponse>,
    replayed: impl FnOnce() -> Result<(ExplanationReport, Sample), String>,
    digest: u64,
) -> (f64, Result<(bool, Sample), ()>) {
    let timed_direct = || {
        let start = Instant::now();
        let answer = direct();
        (start.elapsed().as_secs_f64() * 1e3, answer)
    };
    let ((explain_ms, direct), replayed) = if replay_first {
        let replayed = replayed();
        (timed_direct(), replayed)
    } else {
        (timed_direct(), replayed())
    };
    match (direct, replayed) {
        (Ok(direct), Ok((report, sample))) => {
            let compact = direct.report.to_json().to_compact();
            let identical =
                compact == report.to_json().to_compact() && fingerprint64(&compact) == digest;
            (explain_ms, Ok((identical, sample)))
        }
        _ => (explain_ms, Err(())),
    }
}

fn target_of(question: &Question) -> Target<'_> {
    Target {
        name: &question.name,
        db: &question.db,
        plan: &question.plan,
        plan_fingerprint: question.plan_fingerprint,
    }
}

fn in_process_traced(
    options: &Options,
    expected: &BTreeMap<String, u64>,
) -> Result<RunResult, String> {
    let (questions, service) = set_up(options.workload)?;
    let digests: Vec<u64> =
        questions.iter().map(|q| digest_of(expected, q)).collect::<Result<_, _>>()?;
    let cold = options.workload == Workload::ColdPaper;
    let warm_cache = TraceCache::default();
    if !cold {
        for question in &questions {
            replay::replay(&question.request, target_of(question), &warm_cache)?;
        }
    }
    let schedule = schedule_for(options, questions.len());
    let cache_before = service.cache_stats();
    let pool_before = whynot_exec::pool_stats();
    let guard_before = whynot_guard::guard_stats();

    let outcomes = closed_loop(
        options,
        &schedule,
        questions.len(),
        || (),
        |_, index, q| {
            let question = &questions[q];
            let fresh =
                cold.then(|| (service_for(std::slice::from_ref(question)), TraceCache::default()));
            let (service, cache) = match &fresh {
                Some((service, cache)) => (service, cache),
                None => (&service, &warm_cache),
            };
            let out = answer_twice(
                index % 2 == 1,
                || service.explain(&question.request),
                || replay::replay(&question.request, target_of(question), cache),
                digests[q],
            );
            (out, if cold { service.cache_stats() } else { CacheStats::default() })
        },
    );

    let mut traced = Traced::default();
    for ((explain_ms, outcome), fresh_cache) in outcomes {
        traced.push(explain_ms, outcome);
        traced.cache = add_cache(traced.cache, fresh_cache);
    }
    if !cold {
        traced.cache = cache_delta(service.cache_stats(), cache_before);
    }
    let calls = 2 * traced.samples.len() as u64;
    let pool = whynot_exec::pool_stats().since(&pool_before);
    let guard_checks = whynot_guard::guard_stats().checks - guard_before.checks;
    let mut result = RunResult::default();
    layer_metrics(&mut result, &traced, calls, pool, guard_checks);
    result.correct = result.problems.is_empty();
    Ok(result)
}

fn http_traced(options: &Options, expected: &BTreeMap<String, u64>) -> Result<RunResult, String> {
    let (questions, service) = set_up(options.workload)?;
    let requests = wire_requests(&questions, expected)?;
    let warm_cache = TraceCache::default();
    for question in &questions {
        replay::replay(&question.request, target_of(question), &warm_cache)?;
    }
    let server = start_server(options, &requests)?;
    // A third of the time goes to the open loop, the rest (about) to the
    // in-process replay of the same requests, which answers each twice.
    let schedule = schedule_for(options, questions.len());
    let sent = &schedule[..options.offered(options.seconds / 3.0, questions.len())];
    let server_before = server_cache_stats(server.addr())?;
    let outcomes = openloop::run(
        server.addr(),
        &requests,
        sent,
        options.http_rate,
        options.workload.clients(),
    );
    let server_after = server_cache_stats(server.addr())?;
    server.stop().map_err(|e| format!("server: {e}"))?;

    // Replay the same requests in process, one at a time, with wire decode
    // and encode, to split each round trip into stages.
    let pool_before = whynot_exec::pool_stats();
    let guard_before = whynot_guard::guard_stats();
    let mut traced = Traced::default();
    for (index, &q) in sent.iter().enumerate() {
        let question = &questions[q];
        let (explain_ms, outcome) = answer_twice(
            index % 2 == 1,
            || service.explain(&question.request),
            || replay::replay_wire(&requests[q].body, target_of(question), &warm_cache),
            requests[q].digest,
        );
        traced.push(explain_ms, outcome);
    }
    traced.cache = cache_delta(server_after, server_before);
    let calls = 2 * traced.samples.len() as u64;
    let pool = whynot_exec::pool_stats().since(&pool_before);
    let guard_checks = whynot_guard::guard_stats().checks - guard_before.checks;

    let mut result = RunResult::default();
    tally(&mut result, &outcomes, options.http_rate);
    layer_metrics(&mut result, &traced, calls, pool, guard_checks);
    let round_trips: Vec<f64> = outcomes
        .iter()
        .filter(|o| o.status == Status::Ok)
        .map(openloop::Outcome::round_trip_ms)
        .collect();
    let replay_mean =
        mean(&traced.samples.iter().map(|s| s.total_ns as f64 / 1e6).collect::<Vec<_>>());
    let lags: Vec<f64> = outcomes.iter().map(openloop::Outcome::lag_ms).collect();
    set_metric(
        &mut result,
        "service.http.transport_ms",
        mean(&round_trips) - replay_mean,
        round_trips.len(),
    );
    set_metric(&mut result, "bench.sched_lag_p95_ms", percentile(&lags, 0.95), lags.len());
    result.correct = result.problems.is_empty();
    Ok(result)
}

fn set_metric(result: &mut RunResult, name: &str, value: f64, samples: usize) {
    if let Some(m) = result.metrics.iter_mut().find(|m| m.name == name) {
        m.value = value;
        m.samples = samples;
    }
}

/// The trace-cache counters of the service the `http-dblp` server runs.
fn server_cache_stats(addr: &str) -> Result<CacheStats, String> {
    let mut client = HttpClient::connect(addr).map_err(|e| format!("stats: {e}"))?;
    let response = client.get("/v1/stats").map_err(|e| format!("stats: {e}"))?;
    let doc = Json::parse(&response.body).map_err(|e| format!("stats: {e}"))?;
    let cache = doc.get("trace_cache").ok_or("stats: no trace_cache section")?;
    let int = |field: &str| cache.get(field).and_then(Json::as_i64).unwrap_or(0).max(0) as u64;
    Ok(CacheStats {
        hits: int("hits"),
        misses: int("misses"),
        coalesced: int("coalesced"),
        evictions: int("evictions"),
        entries: int("entries") as usize,
        weight: int("weight"),
        ..CacheStats::default()
    })
}

fn cache_delta(after: CacheStats, before: CacheStats) -> CacheStats {
    CacheStats {
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        coalesced: after.coalesced - before.coalesced,
        evictions: after.evictions - before.evictions,
        ..after
    }
}

/// Counters of the fresh services of a cold run, added up; the weight is
/// the largest any one of them held.
fn add_cache(total: CacheStats, more: CacheStats) -> CacheStats {
    CacheStats {
        hits: total.hits + more.hits,
        misses: total.misses + more.misses,
        coalesced: total.coalesced + more.coalesced,
        evictions: total.evictions + more.evictions,
        weight: total.weight.max(more.weight),
        ..total
    }
}

/// The per-layer metrics of a traced run. Times are mean milliseconds per
/// request, counts mean per request; pool and guard counters are process
/// deltas shared by `calls` answers (service and replay alike).
fn layer_metrics(
    result: &mut RunResult,
    traced: &Traced,
    calls: u64,
    pool: whynot_exec::PoolStats,
    guard_checks: u64,
) {
    let n = traced.samples.len();
    let per_request = |f: &dyn Fn(&Sample) -> f64| -> f64 {
        if n == 0 {
            0.0
        } else {
            traced.samples.iter().map(f).sum::<f64>() / n as f64
        }
    };
    let stage_ms = |stage: Stage| per_request(&|s| s.stage_ns[stage as usize] as f64 / 1e6);
    let count = |f: fn(&replay::Counts) -> u64| per_request(&|s| f(&s.counts) as f64);
    let per_call = |total: u64| if calls == 0 { 0.0 } else { total as f64 / calls as f64 };
    let replay_ms = per_request(&|s| s.total_ns as f64 / 1e6);
    let explain_ms = mean(&traced.explain_ms);
    let stage_sum: f64 = Stage::ALL.into_iter().map(stage_ms).sum();

    result.attempted += (n + traced.errors) as u64;
    result.failed += (traced.errors + traced.mismatches) as u64;
    if traced.mismatches > 0 {
        result.problems.push(format!(
            "{} replayed reports differ from ExplainService::explain or the pinned report",
            traced.mismatches
        ));
    }
    if traced.errors > 0 {
        result.problems.push(format!("{} requests failed", traced.errors));
    }
    let gap = (stage_sum - replay_ms).abs() / replay_ms.max(f64::MIN_POSITIVE);
    if n > 0 && gap > STAGE_SUM_BOUND {
        result.problems.push(format!(
            "stage means sum to {stage_sum:.4} ms but the replay took {replay_ms:.4} ms (gap {gap:.3} > {STAGE_SUM_BOUND})"
        ));
    }
    result.notes.push(format!(
        "replay mean {replay_ms:.4} ms = stage sum {stage_sum:.4} ms + glue; ExplainService::explain mean {explain_ms:.4} ms"
    ));

    let traced_tuples = count(|c| c.traced_tuples);
    let mut metrics = vec![
        metric(Stage::Validate.metric(), stage_ms(Stage::Validate), "ms", n),
        metric("core.validate.result_tuples", count(|c| c.result_tuples), "count", n),
        metric(Stage::Backtrace.metric(), stage_ms(Stage::Backtrace), "ms", n),
        metric(Stage::Alternatives.metric(), stage_ms(Stage::Alternatives), "ms", n),
        metric("core.sas", count(|c| c.sas), "count", n),
        metric(Stage::CacheLookup.metric(), stage_ms(Stage::CacheLookup), "ms", n),
        metric("service.cache.hit_rate", traced.cache.hit_rate(), "ratio", n),
        metric("service.cache.coalesced", traced.cache.coalesced as f64, "count", n),
        metric("service.cache.evictions", traced.cache.evictions as f64, "count", n),
        metric("service.cache.weight_tuples", traced.cache.weight as f64, "count", 1),
        metric(Stage::Trace.metric(), stage_ms(Stage::Trace), "ms", n),
        metric("provenance.traced_tuples", traced_tuples, "count", n),
        metric(Stage::Annotate.metric(), stage_ms(Stage::Annotate), "ms", n),
        metric(
            "provenance.consistent_share",
            if traced_tuples > 0.0 { count(|c| c.consistent_tuples) / traced_tuples } else { 0.0 },
            "ratio",
            n,
        ),
        metric(Stage::Msr.metric(), stage_ms(Stage::Msr), "ms", n),
        metric("core.candidates", count(|c| c.candidates), "count", n),
        metric(Stage::SideEffects.metric(), stage_ms(Stage::SideEffects), "ms", n),
        metric(Stage::Rank.metric(), stage_ms(Stage::Rank), "ms", n),
        metric("core.explanations", count(|c| c.explanations), "count", n),
        metric(Stage::Report.metric(), stage_ms(Stage::Report), "ms", n),
        metric(Stage::Decode.metric(), stage_ms(Stage::Decode), "ms", n),
        metric(Stage::Encode.metric(), stage_ms(Stage::Encode), "ms", n),
        metric("service.report_bytes", count(|c| c.report_bytes), "bytes", n),
        metric("service.http.transport_ms", 0.0, "ms", 0),
        metric("exec.par_regions", per_call(pool.par_regions), "count", n),
        metric("exec.chunks_stolen", per_call(pool.chunks_stolen), "count", n),
        metric("guard.checks", per_call(guard_checks), "count", n),
        metric(
            "bench.tracing_overhead",
            if explain_ms > 0.0 { (replay_ms - explain_ms) / explain_ms } else { 0.0 },
            "ratio",
            n,
        ),
        metric("bench.sched_lag_p95_ms", 0.0, "ms", 0),
    ];
    result.metrics.append(&mut metrics);

    let total = |f: fn(&replay::Counts) -> u64| traced.samples.iter().map(|s| f(&s.counts)).sum();
    result.counters = BTreeMap::from([
        ("sas", total(|c| c.sas)),
        ("traced_tuples", total(|c| c.traced_tuples)),
        ("candidates", total(|c| c.candidates)),
        ("explanations", total(|c| c.explanations)),
        ("report_bytes", total(|c| c.report_bytes)),
        ("cache_hits", traced.cache.hits),
        ("cache_misses", traced.cache.misses),
        ("guard_checks", guard_checks),
    ]);
    let counters: Vec<String> = result.counters.iter().map(|(k, v)| format!("{k}={v}")).collect();
    result.notes.push(format!("counters {}", counters.join(" ")));
}
