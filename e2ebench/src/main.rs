//! `e2ebench`: runs one workload of the why-not service benchmark and prints
//! its metrics, one per line by name and unit, then one JSON line:
//!
//! ```text
//! e2ebench --workload hot-dblp|cold-paper|http-dblp --seed N --seconds S --trace 0|1
//!          [--http-rate R]
//! e2ebench --write-expected      # print the pinned-report file
//! e2ebench --serve W             # the http-dblp server at pool width W (internal)
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! metrics of the traced replay. The exit code is 0 only when the run
//! completed; `"correct": false` in the JSON line flags wrong answers.

use std::process::ExitCode;

use whynot_e2ebench::run::{self, Options, RunResult};
use whynot_e2ebench::workload::{nproc, Workload};
use whynot_service::Json;

const USAGE: &str = "usage: e2ebench --workload hot-dblp|cold-paper|http-dblp --seed N \
                     --seconds S --trace 0|1 [--http-rate R]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--serve") => {
            let width = args.get(1).and_then(|w| w.parse().ok()).unwrap_or(1);
            return match whynot_e2ebench::server::serve_until_stdin_closes(width) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("e2ebench --serve: {e}");
                    ExitCode::FAILURE
                }
            };
        }
        Some("--write-expected") => {
            return match run::render_expected() {
                Ok(text) => {
                    print!("{text}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("e2ebench: {e}");
                    ExitCode::FAILURE
                }
            };
        }
        _ => {}
    }
    let options = match parse(&args) {
        Ok(options) => options,
        Err(e) => {
            eprintln!("e2ebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run::run(&options) {
        Ok(result) => {
            print_result(&options, &result);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("e2ebench: {} failed: {e}", options.workload.name());
            ExitCode::FAILURE
        }
    }
}

fn parse(args: &[String]) -> Result<Options, String> {
    let value = |flag: &str| -> Option<&str> {
        args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).map(String::as_str)
    };
    let number = |flag: &str, default: Option<f64>| -> Result<f64, String> {
        match value(flag) {
            Some(v) => v.parse::<f64>().map_err(|_| format!("{flag} needs a number, got `{v}`")),
            None => default.ok_or_else(|| format!("{flag} is required")),
        }
    };
    let workload = value("--workload").ok_or("--workload is required")?;
    let workload =
        Workload::parse(workload).ok_or_else(|| format!("unknown workload `{workload}`"))?;
    let seconds = number("--seconds", None)?;
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let trace = match value("--trace") {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace must be 0 or 1, got `{other}`")),
    };
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this executable: {e}"))?;
    let mut options = Options::new(workload, number("--seed", None)? as u64, seconds, trace, exe);
    options.http_rate = number("--http-rate", Some(run::DEFAULT_HTTP_RATE))?;
    if !options.http_rate.is_finite() || options.http_rate <= 0.0 {
        return Err("--http-rate must be positive".into());
    }
    Ok(options)
}

/// Human-readable lines, then the one-line JSON result last.
fn print_result(options: &Options, result: &RunResult) {
    println!(
        "e2ebench {} seed={} seconds={} trace={} commit={} nproc={} pool_width={} rustc={} \
         offered_rate={}",
        options.workload.name(),
        options.seed,
        options.seconds,
        u8::from(options.trace),
        commit(),
        nproc(),
        options.pool_width(),
        rustc_version(),
        if options.workload == Workload::HttpDblp && options.trace {
            format!("{}_req/s", options.http_rate)
        } else {
            format!("closed_loop_{}_clients", options.workload.clients())
        },
    );
    for m in &result.metrics {
        println!("  {:<30} {:>14.6} {:<6} (n={})", m.name, m.value, m.unit, m.samples);
    }
    let samples: Vec<String> =
        result.metrics.iter().map(|m| format!("{}={}", m.name, m.samples)).collect();
    println!("  # samples {}", samples.join(" "));
    for note in &result.notes {
        println!("  # {note}");
    }
    for problem in &result.problems {
        println!("  ! {problem}");
    }
    let metrics = Json::object(result.metrics.iter().map(|m| {
        (m.name, Json::object([("value", Json::Float(m.value)), ("unit", Json::str(m.unit))]))
    }));
    let line = Json::object([
        ("correct", Json::Bool(result.correct)),
        ("attempted", Json::Int(result.attempted as i64)),
        ("failed", Json::Int(result.failed as i64)),
        ("metrics", metrics),
    ]);
    println!("{}", line.to_compact());
}

/// The commit under test, when the working directory is the root of a git
/// checkout (never that of a repository it happens to sit in).
fn commit() -> String {
    let is_checkout = std::path::Path::new(".git").exists();
    is_checkout
        .then(|| command_output("git", &["rev-parse", "--short=12", "HEAD"]))
        .flatten()
        .unwrap_or_else(|| "unknown".into())
}

fn rustc_version() -> String {
    command_output("rustc", &["--version"])
        .map(|v| v.replace(' ', "_"))
        .unwrap_or_else(|| "unknown".into())
}

/// First line of a command's standard output, if it ran and succeeded.
fn command_output(program: &str, args: &[&str]) -> Option<String> {
    let output = std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    let text = String::from_utf8(output.stdout).ok()?;
    output.status.success().then(|| text.lines().next().unwrap_or_default().to_string())
}
