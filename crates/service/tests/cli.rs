//! The `whynot` binary end to end: `batch` answers its questions file through
//! the wire `batch` op, so each entry is what the service answers for that
//! question and a failing entry has the wire error shape.

use std::path::PathBuf;
use std::process::Command;

use whynot_service::json::Json;
use whynot_service::service::{ExplainRequest, ExplainService};
use whynot_service::wire::{database_from_json, plan_from_json};

fn running(file: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/data/running").join(file)
}

fn read(path: &PathBuf) -> Json {
    Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap()
}

/// A response without its wall-clock `stats.duration_ms`, the one field two
/// answers of the same question do not share.
fn without_duration(response: &Json) -> String {
    let Json::Object(fields) = response else { panic!("a response is an object: {response}") };
    let fields = fields.iter().map(|(key, value)| match (key.as_str(), value) {
        ("stats", Json::Object(stats)) => (
            key.clone(),
            Json::Object(stats.iter().filter(|(k, _)| k != "duration_ms").cloned().collect()),
        ),
        _ => (key.clone(), value.clone()),
    });
    Json::Object(fields.collect()).to_compact()
}

/// Runs `whynot <verb>` on the running example with `questions` as the
/// `--questions` file and returns its compact JSON output.
fn run_on_running_example(verb: &str, questions: &[Json]) -> Json {
    let file = std::env::temp_dir().join(format!("whynot-cli-{verb}-{}.json", std::process::id()));
    std::fs::write(&file, Json::Array(questions.to_vec()).to_compact()).unwrap();
    let output = Command::new(env!("CARGO_BIN_EXE_whynot"))
        .arg(verb)
        .arg("--db")
        .arg(running("db.json"))
        .arg("--plan")
        .arg(running("plan.json"))
        .arg("--questions")
        .arg(&file)
        .arg("--compact")
        .output()
        .unwrap();
    std::fs::remove_file(&file).unwrap();
    assert!(output.status.success(), "{}", String::from_utf8_lossy(&output.stderr));
    Json::parse(&String::from_utf8(output.stdout).unwrap()).unwrap()
}

fn ny_question() -> Json {
    Json::parse(
        r#"{"why_not": {"city": "NY", "nList": ["?", "*"]},
            "alternatives": [{"relation": "person", "from": "address2", "to": "address1"}]}"#,
    )
    .unwrap()
}

#[test]
fn batch_entries_are_the_service_answers_and_wire_errors() {
    let question = ny_question();
    let document = run_on_running_example("batch", &[question.clone(), Json::Int(42)]);
    let responses = document.get("responses").and_then(Json::as_array).unwrap();
    assert_eq!(responses.len(), 2, "{document}");

    // The valid question: the same response the service gives it directly.
    let mut service = ExplainService::new();
    service
        .catalog_mut()
        .register_database("db", database_from_json(&read(&running("db.json"))).unwrap());
    service
        .catalog_mut()
        .register_plan("plan", plan_from_json(&read(&running("plan.json"))).unwrap());
    let Json::Object(mut fields) = question else { unreachable!() };
    fields.push(("db".into(), Json::str("db")));
    fields.push(("plan".into(), Json::str("plan")));
    let request = ExplainRequest::from_json(&Json::Object(fields)).unwrap();
    let direct = service.explain(&request).unwrap().to_json();
    assert_eq!(without_duration(&responses[0]), without_duration(&direct));

    // The non-object question: a structured decode error, as on the wire,
    // that says a request must be an object and points at the entry.
    let error = responses[1].get("error").unwrap_or_else(|| panic!("{}", responses[1]));
    assert_eq!(error.get("kind").and_then(Json::as_str), Some("decode"), "{error}");
    let message = error.get("message").and_then(Json::as_str).unwrap_or_default();
    assert!(message.contains("expected an object, found 42"), "{error}");
    assert_eq!(error.get("path").and_then(Json::as_str), Some("requests/1"), "{error}");

    let cache = document.get("trace_cache").unwrap();
    assert_eq!(cache.get("misses").and_then(Json::as_i64), Some(1), "{cache}");
}

#[test]
fn stats_counts_a_question_that_does_not_decode_as_an_error() {
    let document = run_on_running_example("stats", &[ny_question(), Json::Int(42)]);
    let requests = document.get("requests").unwrap();
    assert_eq!(requests.get("batch_requests").and_then(Json::as_i64), Some(1), "{document}");
    let cache = document.get("trace_cache").unwrap();
    assert_eq!(cache.get("misses").and_then(Json::as_i64), Some(1), "{document}");
}
