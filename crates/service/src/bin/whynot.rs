//! `whynot` — the explanation-service CLI.
//!
//! ```text
//! whynot explain --db db.json --plan plan.json --question q.json [--text] [--compact] [--threads N] [--timeout-ms MS] [--max-trace-tuples N] [--profile] [--profile-out FILE] [--folded-out FILE]
//! whynot batch --db db.json --plan plan.json --questions batch.json [--compact] [--threads N] [--timeout-ms MS] [--max-trace-tuples N] [--profile] [--profile-out FILE] [--folded-out FILE]
//! whynot stats [--db db.json --plan plan.json --questions batch.json] [--compact] [--threads N]
//! whynot scenarios list
//! whynot scenarios export <dir>
//! whynot scenarios run <dir> [--name NAME] [--text] [--threads N] [--profile] [--profile-out FILE] [--folded-out FILE]
//! ```
//!
//! `explain` answers one why-not question loaded from JSON files on disk;
//! `batch` answers an array of questions against one registered plan and
//! database concurrently, reporting per-question trace-cache hits;
//! `stats` prints cumulative service metrics (optionally after answering a
//! batch, so the counters describe real work);
//! `scenarios` exports the paper's evaluation scenarios (running example,
//! DBLP, Twitter, TPC-H, crime) as JSON files and runs them back from disk.
//! `--threads N` overrides the `WHYNOT_THREADS` environment variable for the
//! invocation: it sets how many requests of a batch run at once (`1` = one
//! at a time); each request runs on one thread. Reports are identical for
//! any N; only the per-question `stats` (timing, and which of several
//! same-key questions happened to compute the shared trace) may differ
//! under concurrency.
//!
//! `--timeout-ms MS` and `--max-trace-tuples N` attach a per-request resource
//! guard (see `whynot-guard`): a question that exceeds its deadline or trace
//! budget fails with a structured resource error instead of running away;
//! in `batch` each question is guarded independently and the rest of the
//! batch is unaffected.
//!
//! `--profile` runs the command under a `whynot-obs` profiling session and
//! prints the per-operator span tree (plus the batch width and the batch
//! fan-out counter deltas) to **stderr**, so stdout stays valid JSON;
//! `--profile-out FILE` writes the report as JSON and `--folded-out FILE`
//! writes it as folded flamegraph stacks (Brendan Gregg's format — feed it to
//! `flamegraph.pl` or speedscope). Span structure, counts, and counters are
//! identical at every batch width; only wall times and the fan-out deltas
//! vary.
//!
//! Every verb rejects a flag it does not know, so a misspelt option fails
//! the invocation instead of being silently ignored.

use std::path::Path;
use std::process::ExitCode;

use whynot_service::json::Json;
use whynot_service::service::{ExplainRequest, ExplainService};
use whynot_service::wire::{
    alternative_to_json, database_from_json, database_to_json, nip_to_json, plan_from_json,
    plan_to_json,
};
use whynot_service::{ServiceError, ServiceResult};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("explain") => cmd_explain(&args[1..]),
        Some("batch") => cmd_batch(&args[1..]),
        Some("stats") => cmd_stats(&args[1..]),
        Some("scenarios") => cmd_scenarios(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("--help") | Some("-h") | Some("help") | None => {
            print!("{USAGE}");
            Ok(())
        }
        Some(other) => Err(ServiceError::decode(format!("unknown command `{other}`\n{USAGE}"))),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("whynot: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "whynot — why-not explanations over nested data

USAGE:
    whynot explain --db <db.json> --plan <plan.json> --question <q.json> [--text] [--compact] [--threads N] [--timeout-ms MS] [--max-trace-tuples N] [--profile] [--profile-out FILE] [--folded-out FILE]
    whynot batch --db <db.json> --plan <plan.json> --questions <batch.json> [--compact] [--threads N] [--timeout-ms MS] [--max-trace-tuples N] [--profile] [--profile-out FILE] [--folded-out FILE]
    whynot stats [--db <db.json> --plan <plan.json> --questions <batch.json>] [--compact] [--threads N]
    whynot scenarios list
    whynot scenarios export <dir>
    whynot scenarios run <dir> [--name <NAME>] [--text] [--threads N] [--profile] [--profile-out FILE] [--folded-out FILE]
    whynot serve [--addr 127.0.0.1:7171] [--scenarios FAMILY[,FAMILY...]] [--threads N]
                 [--workers N] [--queue N] [--max-body-bytes N]
                 [--default-timeout-ms MS] [--keep-alive-secs S] [--retry-after-secs S]

`serve` starts the HTTP/1.1 front end (POST /v1/explain|batch|stats,
GET /healthz; see docs/PROTOCOL.md). --scenarios preloads the named scenario
families into the catalog so requests can address their databases and plans
by scenario name (e.g. D1 or RUN). The server runs until stdin reaches
end-of-file, then shuts down cleanly — drive it from a pipe or FIFO to
control its lifetime (e.g. `mkfifo ctl; whynot serve < ctl`).

The question file holds {\"why_not\": ..., \"alternatives\": [...]} and may
optionally inline \"db\" and \"plan\" (then the flags may be omitted).
--threads N sets how many requests of a batch run at once, overriding
WHYNOT_THREADS (1 = one at a time); each request runs on one thread, and
reports are identical for any N (only per-question timing/cache-hit stats
may differ).
--timeout-ms MS / --max-trace-tuples N guard each request with a deadline /
trace-tuple budget; a tripped request fails with a structured resource
error (in `batch`, without affecting the other questions).
--profile prints a span tree + batch fan-out stats to stderr (--profile-out
FILE writes it as JSON, --folded-out FILE as folded flamegraph stacks); span
counts/structure do not depend on --threads.
`stats` prints cumulative service metrics, optionally after answering a
batch so the counters describe real work.
An unknown flag is an error.
";

/// Minimal flag parser: `--flag value` pairs plus bare switches/positionals.
struct Flags {
    values: Vec<(String, String)>,
    switches: Vec<String>,
    positionals: Vec<String>,
}

impl Flags {
    /// Parses `args` against one verb's value flags and switches; any other
    /// `--name` is an error.
    fn parse(args: &[String], value_flags: &[&str], switches: &[&str]) -> ServiceResult<Flags> {
        let mut flags = Flags { values: Vec::new(), switches: Vec::new(), positionals: Vec::new() };
        let mut i = 0;
        while i < args.len() {
            let arg = &args[i];
            if let Some(name) = arg.strip_prefix("--") {
                if value_flags.contains(&name) {
                    let value = args
                        .get(i + 1)
                        .ok_or_else(|| ServiceError::decode(format!("--{name} needs a value")))?;
                    flags.values.push((name.to_string(), value.clone()));
                    i += 2;
                } else if switches.contains(&name) {
                    flags.switches.push(name.to_string());
                    i += 1;
                } else {
                    return Err(ServiceError::decode(format!("unknown flag --{name}")));
                }
            } else {
                flags.positionals.push(arg.clone());
                i += 1;
            }
        }
        Ok(flags)
    }

    fn value(&self, name: &str) -> Option<&str> {
        self.values.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }

    fn switch(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }

    /// Applies `--threads N` (if present) as the process-wide batch width,
    /// overriding `WHYNOT_THREADS`.
    fn apply_threads(&self) -> ServiceResult<()> {
        if let Some(value) = self.value("threads") {
            let n: usize = value
                .parse()
                .ok()
                .filter(|n| *n >= 1)
                .ok_or_else(|| ServiceError::decode("--threads needs a positive integer"))?;
            whynot_exec::set_threads(n);
        }
        Ok(())
    }

    /// Parses `--timeout-ms` / `--max-trace-tuples` into per-request guard
    /// limits. Zero is admitted (the request trips at its first check).
    fn guard_limits(&self) -> ServiceResult<(Option<u64>, Option<u64>)> {
        let parse = |name: &str| -> ServiceResult<Option<u64>> {
            self.value(name)
                .map(|v| {
                    v.parse::<u64>().map_err(|_| {
                        ServiceError::decode(format!("--{name} needs a non-negative integer"))
                    })
                })
                .transpose()
        };
        Ok((parse("timeout-ms")?, parse("max-trace-tuples")?))
    }
}

/// Applies the CLI guard limits to a decoded request, keeping any limits the
/// question document itself carries unless the flag overrides them.
fn apply_guard_limits(request: &mut ExplainRequest, limits: (Option<u64>, Option<u64>)) {
    if let Some(ms) = limits.0 {
        request.timeout_ms = Some(ms);
    }
    if let Some(tuples) = limits.1 {
        request.max_trace_tuples = Some(tuples);
    }
}

/// Runs `f` under a `whynot-obs` profiling session when `--profile`,
/// `--profile-out`, or `--folded-out` was passed, attaching the batch width
/// and the batch fan-out counter deltas of the run as meta facts.
/// Without any of the flags, `f` runs unprofiled and no report is produced.
fn run_profiled<R>(
    flags: &Flags,
    f: impl FnOnce() -> ServiceResult<R>,
) -> ServiceResult<(R, Option<whynot_obs::ProfileReport>)> {
    if !flags.switch("profile")
        && flags.value("profile-out").is_none()
        && flags.value("folded-out").is_none()
    {
        return f().map(|r| (r, None));
    }
    let before = whynot_exec::pool_stats();
    let (result, mut report) = whynot_obs::profile(f);
    let delta = whynot_exec::pool_stats().since(&before);
    report.push_meta("threads", whynot_exec::effective_threads() as u64);
    report.push_meta("pool.par_regions", delta.par_regions);
    report.push_meta("pool.chunks_stolen", delta.chunks_stolen);
    result.map(|r| (r, Some(report)))
}

/// Prints (`--profile`, to stderr) and/or writes (`--profile-out` as JSON,
/// `--folded-out` as folded flamegraph stacks) a report produced by
/// [`run_profiled`].
fn emit_profile(flags: &Flags, report: Option<&whynot_obs::ProfileReport>) -> ServiceResult<()> {
    let Some(report) = report else { return Ok(()) };
    if let Some(path) = flags.value("profile-out") {
        std::fs::write(path, whynot_service::profile_report_to_json(report).to_pretty())
            .map_err(|e| ServiceError::decode(format!("cannot write `{path}`: {e}")))?;
    }
    if let Some(path) = flags.value("folded-out") {
        std::fs::write(path, report.to_folded())
            .map_err(|e| ServiceError::decode(format!("cannot write `{path}`: {e}")))?;
    }
    if flags.switch("profile") {
        eprint!("{}", report.render_text());
    }
    Ok(())
}

fn read_json(path: &Path) -> ServiceResult<Json> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| ServiceError::decode(format!("cannot read `{}`: {e}", path.display())))?;
    Ok(Json::parse(&text)?)
}

/// Builds a request from a question document, falling back to `--db`/`--plan`
/// files for payloads the question does not inline.
fn request_from_question(
    service: &mut ExplainService,
    question: &Json,
    db_path: Option<&str>,
    plan_path: Option<&str>,
) -> ServiceResult<ExplainRequest> {
    let mut doc = match question {
        Json::Object(fields) => fields.clone(),
        other => {
            return Err(ServiceError::decode(format!(
                "a question must be an object, found {}",
                other.kind()
            )))
        }
    };
    if !doc.iter().any(|(k, _)| k == "db") {
        let path = db_path.ok_or_else(|| {
            ServiceError::decode("the question does not inline `db`; pass --db <db.json>")
        })?;
        let name = catalog_name(path);
        if service.catalog().database(&name).is_err() {
            let db = database_from_json(&read_json(Path::new(path))?)?;
            service.catalog_mut().register_database(name.clone(), db);
        }
        doc.push(("db".into(), Json::str(name)));
    }
    if !doc.iter().any(|(k, _)| k == "plan") {
        let path = plan_path.ok_or_else(|| {
            ServiceError::decode("the question does not inline `plan`; pass --plan <plan.json>")
        })?;
        let name = catalog_name(path);
        if service.catalog().plan(&name).is_err() {
            let plan = plan_from_json(&read_json(Path::new(path))?)?;
            service.catalog_mut().register_plan(name.clone(), plan);
        }
        doc.push(("plan".into(), Json::str(name)));
    }
    ExplainRequest::from_json(&Json::Object(doc))
}

/// Catalog name for a payload file: its stem qualified by the parent
/// directory (`examples/data/running/db.json` → `running/db`).
fn catalog_name(path: &str) -> String {
    let p = Path::new(path);
    let stem = p.file_stem().and_then(|s| s.to_str()).unwrap_or("payload");
    match p.parent().and_then(|d| d.file_name()).and_then(|s| s.to_str()) {
        Some(parent) => format!("{parent}/{stem}"),
        None => stem.to_string(),
    }
}

fn print_json(json: &Json, compact: bool) {
    if compact {
        println!("{}", json.to_compact());
    } else {
        print!("{}", json.to_pretty());
    }
}

fn cmd_explain(args: &[String]) -> ServiceResult<()> {
    let flags = Flags::parse(
        args,
        &[
            "db",
            "plan",
            "question",
            "threads",
            "timeout-ms",
            "max-trace-tuples",
            "profile-out",
            "folded-out",
        ],
        &["text", "compact", "profile"],
    )?;
    flags.apply_threads()?;
    let limits = flags.guard_limits()?;
    let question_path = flags
        .value("question")
        .ok_or_else(|| ServiceError::decode("--question <q.json> is required"))?;
    let mut service = ExplainService::new();
    let mut request = request_from_question(
        &mut service,
        &read_json(Path::new(question_path))?,
        flags.value("db"),
        flags.value("plan"),
    )?;
    apply_guard_limits(&mut request, limits);
    let (response, profile) = run_profiled(&flags, || service.explain(&request))?;
    if flags.switch("text") {
        print!("{}", response.report.render_text());
    } else {
        print_json(&response.to_json(), flags.switch("compact"));
    }
    emit_profile(&flags, profile.as_ref())
}

fn cmd_batch(args: &[String]) -> ServiceResult<()> {
    let flags = Flags::parse(
        args,
        &[
            "db",
            "plan",
            "questions",
            "threads",
            "timeout-ms",
            "max-trace-tuples",
            "profile-out",
            "folded-out",
        ],
        &["compact", "profile"],
    )?;
    flags.apply_threads()?;
    let limits = flags.guard_limits()?;
    let batch_path = flags
        .value("questions")
        .ok_or_else(|| ServiceError::decode("--questions <batch.json> is required"))?;
    let batch = read_json(Path::new(batch_path))?;
    let questions = batch
        .as_array()
        .ok_or_else(|| ServiceError::decode("the batch file must be a JSON array of questions"))?;
    let mut service = ExplainService::new();
    // Failures stay per-question: a question that does not decode becomes an
    // error entry, it does not abort the rest of the batch.
    let requests: Vec<ServiceResult<_>> = questions
        .iter()
        .map(|q| {
            request_from_question(&mut service, q, flags.value("db"), flags.value("plan")).map(
                |mut request| {
                    apply_guard_limits(&mut request, limits);
                    request
                },
            )
        })
        .collect();
    // Decoded questions run concurrently through the service (same-key
    // questions still compute one shared trace); responses are merged back
    // with the decode failures in request order.
    let decoded: Vec<whynot_service::service::ExplainRequest> =
        requests.iter().filter_map(|r| r.as_ref().ok().cloned()).collect();
    let (batch_responses, profile) = run_profiled(&flags, || Ok(service.explain_batch(&decoded)))?;
    let mut responses = batch_responses.into_iter();
    let items: Vec<Json> = requests
        .iter()
        .map(|request| {
            match request.as_ref().map_err(|e| e.to_string()).and_then(|_| {
                responses
                    .next()
                    .expect("one response per decoded request")
                    .map_err(|e| e.to_string())
            }) {
                Ok(response) => response.to_json(),
                Err(message) => Json::object([("error", Json::str(message))]),
            }
        })
        .collect();
    let stats = service.cache_stats();
    let document = Json::object([
        ("responses", Json::Array(items)),
        (
            "trace_cache",
            Json::object([
                ("hits", Json::Int(stats.hits as i64)),
                ("misses", Json::Int(stats.misses as i64)),
                ("entries", Json::Int(stats.entries as i64)),
            ]),
        ),
    ]);
    print_json(&document, flags.switch("compact"));
    emit_profile(&flags, profile.as_ref())
}

/// Answers the `--questions` batch (if given) so the cumulative counters
/// describe real work. Responses are discarded — only the metrics they leave
/// behind matter.
fn run_optional_batch(service: &mut ExplainService, flags: &Flags) -> ServiceResult<()> {
    if let Some(batch_path) = flags.value("questions") {
        let batch = read_json(Path::new(batch_path))?;
        let questions = batch.as_array().ok_or_else(|| {
            ServiceError::decode("the batch file must be a JSON array of questions")
        })?;
        let requests: Vec<ExplainRequest> = questions
            .iter()
            .map(|q| request_from_question(service, q, flags.value("db"), flags.value("plan")))
            .collect::<ServiceResult<Vec<_>>>()?;
        service.explain_batch(&requests);
    }
    Ok(())
}

/// `whynot stats`: prints cumulative service metrics as JSON. With
/// `--questions` (plus `--db`/`--plan` as for `batch`), answers the batch
/// first so the counters and the latency histogram describe real work.
fn cmd_stats(args: &[String]) -> ServiceResult<()> {
    let flags = Flags::parse(args, &["db", "plan", "questions", "threads"], &["compact"])?;
    flags.apply_threads()?;
    let mut service = ExplainService::new();
    run_optional_batch(&mut service, &flags)?;
    let stats_doc = service.handle_wire(&Json::object([("op", Json::str("stats"))]))?;
    print_json(&stats_doc, flags.switch("compact"));
    Ok(())
}

/// `whynot serve`: the HTTP/1.1 front end. Binds, preloads the requested
/// scenario families into the catalog, prints the listening address, and
/// serves until stdin reaches EOF (clean shutdown, exit 0).
fn cmd_serve(args: &[String]) -> ServiceResult<()> {
    let flags = Flags::parse(
        args,
        &[
            "addr",
            "scenarios",
            "threads",
            "workers",
            "queue",
            "max-body-bytes",
            "default-timeout-ms",
            "keep-alive-secs",
            "retry-after-secs",
        ],
        &[],
    )?;
    flags.apply_threads()?;

    let mut service = ExplainService::new();
    let mut preloaded: Vec<String> = Vec::new();
    if let Some(families) = flags.value("scenarios") {
        for family in families.split(',').map(str::trim).filter(|f| !f.is_empty()) {
            for scenario in family_scenarios(family)? {
                service.catalog_mut().register_database(scenario.name.clone(), scenario.db);
                service.catalog_mut().register_plan(scenario.name.clone(), scenario.plan);
                preloaded.push(scenario.name);
            }
        }
    }

    let mut config = whynot_service::ServeConfig::default();
    if let Some(addr) = flags.value("addr") {
        config.addr = addr.to_string();
    }
    let parse_usize = |name: &str| -> ServiceResult<Option<usize>> {
        flags
            .value(name)
            .map(|v| {
                v.parse::<usize>().ok().filter(|n| *n >= 1).ok_or_else(|| {
                    ServiceError::decode(format!("--{name} needs a positive integer"))
                })
            })
            .transpose()
    };
    if let Some(workers) = parse_usize("workers")? {
        config.workers = workers;
    }
    if let Some(queue) = parse_usize("queue")? {
        config.queue_capacity = queue;
    }
    if let Some(max_body) = parse_usize("max-body-bytes")? {
        config.max_body_bytes = max_body;
    }
    let parse_u64 = |name: &str| -> ServiceResult<Option<u64>> {
        flags
            .value(name)
            .map(|v| {
                v.parse::<u64>().map_err(|_| {
                    ServiceError::decode(format!("--{name} needs a non-negative integer"))
                })
            })
            .transpose()
    };
    config.default_timeout_ms = parse_u64("default-timeout-ms")?;
    if let Some(secs) = parse_u64("keep-alive-secs")? {
        config.keep_alive_secs = secs.max(1);
    }
    if let Some(secs) = parse_u64("retry-after-secs")? {
        config.retry_after_secs = secs;
    }

    let handle = whynot_service::serve(std::sync::Arc::new(service), config.clone())
        .map_err(ServiceError::Io)?;
    // Stdout carries exactly one machine-readable line (CI greps it for the
    // address); the human-facing detail goes to stderr.
    println!("listening on {}", handle.addr());
    use std::io::Write as _;
    std::io::stdout().flush().ok();
    eprintln!(
        "whynot serve: {} workers, queue {}, {} scenario(s) preloaded{}{}",
        config.workers.max(1),
        config.queue_capacity.max(1),
        preloaded.len(),
        if preloaded.is_empty() { "" } else { ": " },
        preloaded.join(", "),
    );
    eprintln!("whynot serve: serving until stdin reaches EOF");

    // Block until whoever started us closes our stdin (FIFO, pipe, or
    // Ctrl-D), then shut down cleanly. Content on stdin is ignored.
    let mut sink = Vec::new();
    let _ = std::io::Read::read_to_end(&mut std::io::stdin().lock(), &mut sink);
    eprintln!("whynot serve: stdin closed, shutting down");
    handle.shutdown();
    Ok(())
}

/// The scenarios of a named family at its default scale, for
/// `whynot serve --scenarios`.
fn family_scenarios(family: &str) -> ServiceResult<Vec<whynot_scenarios::Scenario>> {
    let scenarios = match family {
        "dblp" => whynot_scenarios::dblp::all_dblp(whynot_scenarios::dblp_scale()),
        "twitter" => whynot_scenarios::twitter::all_twitter(whynot_scenarios::twitter_scale()),
        "tpch" => whynot_scenarios::tpch::all_tpch(whynot_scenarios::tpch_scale()),
        "crime" => whynot_scenarios::crime::all_crime(),
        "running" => vec![whynot_scenarios::running::running_example()],
        "all" => whynot_scenarios::all_scenarios(),
        other => {
            return Err(ServiceError::decode(format!(
                "unknown scenario family `{other}` (expected dblp, twitter, tpch, crime, running, or all)"
            )))
        }
    };
    Ok(scenarios)
}

fn cmd_scenarios(args: &[String]) -> ServiceResult<()> {
    let flags = Flags::parse(
        args,
        &["name", "threads", "profile-out", "folded-out"],
        &["text", "profile"],
    )?;
    flags.apply_threads()?;
    match flags.positionals.first().map(String::as_str) {
        Some("list") => {
            for scenario in whynot_scenarios::all_scenarios() {
                println!("{:<6} {}", scenario.name, scenario.description);
            }
            Ok(())
        }
        Some("export") => {
            let dir = flags
                .positionals
                .get(1)
                .ok_or_else(|| ServiceError::decode("scenarios export needs a directory"))?;
            export_scenarios(Path::new(dir))
        }
        Some("run") => {
            let dir = flags
                .positionals
                .get(1)
                .ok_or_else(|| ServiceError::decode("scenarios run needs a directory"))?;
            run_scenarios(Path::new(dir), flags.value("name"), flags.switch("text"), &flags)
        }
        _ => Err(ServiceError::decode("scenarios expects `list`, `export <dir>`, or `run <dir>`")),
    }
}

/// Writes each scenario as `<dir>/<name>/{db,plan,question}.json`.
fn export_scenarios(dir: &Path) -> ServiceResult<()> {
    for scenario in whynot_scenarios::all_scenarios() {
        let scenario_dir = dir.join(&scenario.name);
        std::fs::create_dir_all(&scenario_dir)?;
        std::fs::write(scenario_dir.join("db.json"), database_to_json(&scenario.db).to_pretty())?;
        std::fs::write(scenario_dir.join("plan.json"), plan_to_json(&scenario.plan).to_pretty())?;
        let question = Json::object([
            ("why_not", nip_to_json(&scenario.why_not)?),
            (
                "alternatives",
                Json::Array(scenario.alternatives.iter().map(alternative_to_json).collect()),
            ),
        ]);
        std::fs::write(scenario_dir.join("question.json"), question.to_pretty())?;
        println!("exported {:<6} -> {}", scenario.name, scenario_dir.display());
    }
    Ok(())
}

/// Loads `<dir>/<name>/{db,plan,question}.json` scenarios back from disk and
/// answers each question through the service.
fn run_scenarios(dir: &Path, only: Option<&str>, text: bool, flags: &Flags) -> ServiceResult<()> {
    let mut names: Vec<String> = std::fs::read_dir(dir)?
        .filter_map(|entry| entry.ok())
        .filter(|entry| entry.path().join("question.json").exists())
        .filter_map(|entry| entry.file_name().into_string().ok())
        .collect();
    names.sort();
    if let Some(only) = only {
        names.retain(|n| n == only);
        if names.is_empty() {
            return Err(ServiceError::decode(format!(
                "no scenario named `{only}` in {}",
                dir.display()
            )));
        }
    }
    let mut service = ExplainService::new();
    println!("threads: {}", whynot_exec::effective_threads());
    let (failures, profile) = run_profiled(flags, || {
        let mut failures = 0usize;
        for name in &names {
            let scenario_dir = dir.join(name);
            let db = database_from_json(&read_json(&scenario_dir.join("db.json"))?)?;
            let plan = plan_from_json(&read_json(&scenario_dir.join("plan.json"))?)?;
            let question = read_json(&scenario_dir.join("question.json"))?;
            service.catalog_mut().register_database(name.clone(), db);
            service.catalog_mut().register_plan(name.clone(), plan);
            let mut doc = match question {
                Json::Object(fields) => fields,
                _ => return Err(ServiceError::decode("question.json must be an object")),
            };
            doc.push(("db".into(), Json::str(name.clone())));
            doc.push(("plan".into(), Json::str(name.clone())));
            let request = ExplainRequest::from_json(&Json::Object(doc))?;
            match service.explain(&request) {
                Ok(response) => {
                    println!(
                        "{name:<6} {} explanation(s), {} SA(s), cache_hit={}, {:.1} ms",
                        response.report.explanations.len(),
                        response.stats.schema_alternatives,
                        response.stats.trace_cache_hit,
                        response.stats.duration.as_secs_f64() * 1e3,
                    );
                    if text {
                        print!("{}", response.report.render_text());
                    }
                }
                Err(e) => {
                    failures += 1;
                    println!("{name:<6} FAILED: {e}");
                }
            }
        }
        Ok(failures)
    })?;
    emit_profile(flags, profile.as_ref())?;
    if failures > 0 {
        return Err(ServiceError::decode(format!("{failures} scenario(s) failed")));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn unknown_flags_are_rejected() {
        let values = ["timeout-ms", "threads"];
        let switches = ["compact"];
        let Err(err) = Flags::parse(&args(&["--compakt"]), &values, &switches) else {
            panic!("an unknown switch must be rejected");
        };
        assert_eq!(err.kind(), "decode");
        assert!(err.to_string().contains("unknown flag --compakt"), "{err}");
        let Err(err) = Flags::parse(&args(&["--timeout-m", "5"]), &values, &switches) else {
            panic!("an unknown value flag must be rejected");
        };
        assert!(err.to_string().contains("unknown flag --timeout-m"), "{err}");
        let flags =
            Flags::parse(&args(&["--compact", "--timeout-ms", "5", "run"]), &values, &switches)
                .expect("known flags parse");
        assert!(flags.switch("compact"));
        assert_eq!(flags.value("timeout-ms"), Some("5"));
        assert_eq!(flags.positionals, ["run"]);
    }

    #[test]
    fn unknown_families_are_rejected() {
        assert!(family_scenarios("nope").is_err());
        assert_eq!(family_scenarios("running").unwrap()[0].name, "RUN");
    }
}
