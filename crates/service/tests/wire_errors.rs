//! Every field of an explain document points at itself when it is wrong:
//! starting from one valid document, each required field is omitted, then
//! given a wrong-typed value, one at a time, and the answer must be a
//! `decode` error whose `path` is that field's JSON pointer. The same
//! documents inside a `batch` carry the `requests/<i>/` prefix.

use whynot_service::json::Json;
use whynot_service::ExplainService;

/// A valid explain document: an inline database and an inline plan that uses
/// every operator tag (and every expression tag), a `$cmp` NIP, one
/// attribute alternative, and every optional request field.
const DOCUMENT: &str = r#"{
  "db": {"relations": {
    "person": {
      "schema": {"name": "str", "info": {"tuple": {"email": "str"}},
                 "address": {"relation": {"city": "str", "year": "int"}},
                 "moved": {"relation": {"city": "str", "year": "int"}}},
      "rows": [
        {"name": "Ann", "info": {"email": "ann@x"},
         "address": [{"city": "NY", "year": 2019}, {"city": "LA", "year": 2010}],
         "moved": [{"city": "SF", "year": 2021}]},
        {"name": "Bob", "info": {"email": "bob@x"},
         "address": [{"city": "SF", "year": 2020}], "moved": []}
      ]
    },
    "city": {"schema": {"cname": "str", "pop": "int"},
             "rows": [{"cname": "NY", "pop": 8}, {"cname": "SF", "pop": 1}]}
  }},
  "plan": {"id": 19, "op": {"op": "cross"}, "inputs": [
    {"id": 16, "op": {"op": "difference"}, "inputs": [
      {"id": 15, "op": {"op": "union"}, "inputs": [
        {"id": 12, "op": {"op": "dedup"}, "inputs": [
          {"id": 11, "op": {"op": "group_agg", "group_by": ["name"],
                            "aggs": [{"func": "sum", "input": {"attr": "pop"}, "output": "total"}]},
           "inputs": [
            {"id": 10, "op": {"op": "nest_agg", "func": "count", "attr": "towns", "field": "town",
                              "output": "n"}, "inputs": [
              {"id": 9, "op": {"op": "relation_nest", "attrs": ["town"], "into": "towns"}, "inputs": [
                {"id": 8, "op": {"op": "tuple_nest", "attrs": ["email"], "into": "contact"}, "inputs": [
                  {"id": 7, "op": {"op": "join", "kind": "inner",
                                   "predicate": {"cmp": [{"attr": "town"}, "=", {"attr": "cname"}]}},
                   "inputs": [
                    {"id": 5, "op": {"op": "rename", "pairs": [{"from": "city", "to": "town"}]}, "inputs": [
                      {"id": 4, "op": {"op": "project", "columns": [
                        {"name": "name", "expr": {"attr": "name"}},
                        {"name": "city", "expr": {"attr": "city"}},
                        {"name": "email", "expr": {"attr": "email"}}]}, "inputs": [
                        {"id": 3, "op": {"op": "select", "predicate": {"and": [
                          {"cmp": [{"attr": "year"}, ">=", {"const": 2019}]},
                          {"or": [{"not": {"is_null": {"attr": "city"}}},
                                  {"contains": [{"attr": "city"}, {"const": "Y"}]}]}]}}, "inputs": [
                          {"id": 2, "op": {"op": "flatten", "kind": "inner", "attr": "address", "alias": null},
                           "inputs": [
                            {"id": 1, "op": {"op": "tuple_flatten", "source": "info.email", "alias": "email"},
                             "inputs": [{"id": 0, "op": {"op": "table", "table": "person"}}]}]}]}]}]},
                    {"id": 6, "op": {"op": "table", "table": "city"}}]}]}]}]}]}]},
        {"id": 14, "op": {"op": "project", "columns": [
          {"name": "name", "expr": {"attr": "cname"}},
          {"name": "total", "expr": {"arith": [{"attr": "pop"}, "*", {"const": 2}]}}]}, "inputs": [
          {"id": 13, "op": {"op": "table", "table": "city"}}]}]},
      {"id": 18, "op": {"op": "project", "columns": [
        {"name": "name", "expr": {"attr": "cname"}}, {"name": "total", "expr": {"const": 0}}]},
       "inputs": [{"id": 17, "op": {"op": "table", "table": "city"}}]}]},
    {"id": 21, "op": {"op": "project", "columns": [{"name": "k", "expr": {"size": {"attr": "tags"}}}]},
     "inputs": [
      {"id": 20, "op": {"op": "relation_nest", "attrs": ["cname"], "into": "tags"}, "inputs": [
        {"id": 22, "op": {"op": "table", "table": "city"}}]}]}]},
  "why_not": {"name": "Ann", "total": {"$cmp": ">=", "bound": 99}},
  "alternatives": [{"relation": "person", "from": "address", "to": "moved"}],
  "engine": "rp",
  "max_schema_alternatives": 4,
  "timeout_ms": 60000,
  "max_trace_tuples": 1000000
}"#;

/// Each operator tag with its required parameters. Array-valued parameters
/// whose elements are objects list the elements' required fields after a
/// `/0/`.
const OPERATOR_FIELDS: &[(&str, &[&str])] = &[
    ("table", &["table"]),
    ("project", &["columns", "columns/0/name", "columns/0/expr"]),
    ("rename", &["pairs", "pairs/0/from", "pairs/0/to"]),
    ("select", &["predicate"]),
    ("join", &["kind", "predicate"]),
    ("cross", &[]),
    ("tuple_flatten", &["source"]),
    ("flatten", &["kind", "attr"]),
    ("tuple_nest", &["attrs", "into"]),
    ("relation_nest", &["attrs", "into"]),
    ("nest_agg", &["func", "attr", "output"]),
    ("group_agg", &["group_by", "aggs", "aggs/0/func", "aggs/0/input", "aggs/0/output"]),
    ("union", &[]),
    ("difference", &[]),
    ("dedup", &[]),
];

/// The value at a JSON pointer (`a/0/b`), mutably.
fn at<'a>(doc: &'a mut Json, pointer: &str) -> &'a mut Json {
    pointer.split('/').fold(doc, |json, segment| match json {
        Json::Object(fields) => {
            let at = fields.iter().position(|(k, _)| k == segment);
            &mut fields[at.unwrap_or_else(|| panic!("no `{segment}` in `{pointer}`"))].1
        }
        Json::Array(items) => &mut items[segment.parse::<usize>().unwrap()],
        other => panic!("`{pointer}` descends into {other}"),
    })
}

/// `doc` without the field at `pointer`.
fn without(doc: &Json, pointer: &str) -> Json {
    let mut doc = doc.clone();
    let (parent, key) = pointer.rsplit_once('/').map_or((None, pointer), |(p, k)| (Some(p), k));
    let parent = match parent {
        Some(parent) => at(&mut doc, parent),
        None => &mut doc,
    };
    let Json::Object(fields) = parent else { panic!("`{pointer}` is not an object field") };
    let before = fields.len();
    fields.retain(|(k, _)| k != key);
    assert_eq!(fields.len(), before - 1, "`{pointer}` is not in the document");
    doc
}

/// `doc` with the field at `pointer` replaced by `value`.
fn with(doc: &Json, pointer: &str, value: Json) -> Json {
    let mut doc = doc.clone();
    *at(&mut doc, pointer) = value;
    doc
}

/// The pointer and the operator tag of every node of the document's plan.
fn plan_nodes(doc: &Json) -> Vec<(String, String)> {
    let mut found = Vec::new();
    let mut nodes = vec![("plan".to_string(), doc.get("plan").unwrap())];
    while let Some((pointer, node)) = nodes.pop() {
        let tag = node.get("op").and_then(|op| op.get("op")).and_then(Json::as_str).unwrap();
        let inputs = node.get("inputs").and_then(Json::as_array).unwrap_or_default();
        nodes.extend(inputs.iter().enumerate().map(|(i, n)| (format!("{pointer}/inputs/{i}"), n)));
        found.push((pointer, tag.to_string()));
    }
    found
}

/// The pointer of every required field of the document.
fn required_fields(doc: &Json) -> Vec<String> {
    let mut fields: Vec<String> = [
        "db",
        "plan",
        "why_not",
        "alternatives/0/relation",
        "alternatives/0/from",
        "alternatives/0/to",
        "db/relations",
        "db/relations/person/schema",
        "db/relations/person/rows",
        "db/relations/city/schema",
        "db/relations/city/rows",
        "why_not/total/bound",
    ]
    .map(String::from)
    .to_vec();
    for (pointer, tag) in plan_nodes(doc) {
        let (_, parameters) = OPERATOR_FIELDS
            .iter()
            .find(|(t, _)| *t == tag)
            .unwrap_or_else(|| panic!("operator tag `{tag}` has no entry in OPERATOR_FIELDS"));
        fields.extend(["id", "op", "op/op"].map(|f| format!("{pointer}/{f}")));
        fields.extend(parameters.iter().map(|p| format!("{pointer}/op/{p}")));
    }
    fields
}

/// Asserts that `service` answers `doc` with a `decode` error at `path`, on
/// its own and as the second request of a batch.
fn assert_decode_error_at(service: &ExplainService, doc: &Json, path: &str, change: &str) {
    let error = service.handle_wire(doc).expect_err(change).to_wire();
    assert_eq!(error.get("kind").and_then(Json::as_str), Some("decode"), "{change}: {error}");
    assert_eq!(error.get("path").and_then(Json::as_str), Some(path), "{change}: {error}");

    let valid = Json::parse(DOCUMENT).unwrap();
    let batch = Json::object([
        ("op", Json::str("batch")),
        ("requests", Json::Array(vec![valid, doc.clone()])),
    ]);
    let reply = service.handle_wire(&batch).unwrap();
    let responses = reply.get("responses").and_then(Json::as_array).unwrap();
    assert!(responses[0].get("report").is_some(), "{change}: the valid sibling answers");
    let error = responses[1].get("error").unwrap_or_else(|| panic!("{change}: {}", responses[1]));
    assert_eq!(error.get("kind").and_then(Json::as_str), Some("decode"), "{change}: {error}");
    let batch_path = format!("requests/1/{path}");
    assert_eq!(error.get("path").and_then(Json::as_str), Some(&*batch_path), "{change}: {error}");
}

#[test]
fn the_document_is_valid_and_uses_every_operator_tag() {
    let doc = Json::parse(DOCUMENT).unwrap();
    let reply = ExplainService::new().handle_wire(&doc).unwrap();
    assert!(reply.get("report").is_some(), "{reply}");
    let mut tags: Vec<String> = plan_nodes(&doc).into_iter().map(|(_, tag)| tag).collect();
    tags.sort();
    tags.dedup();
    let mut all: Vec<&str> = OPERATOR_FIELDS.iter().map(|(tag, _)| *tag).collect();
    all.sort();
    assert_eq!(tags, all);
}

#[test]
fn a_missing_or_wrong_typed_required_field_is_the_error_path() {
    let service = ExplainService::new();
    let doc = Json::parse(DOCUMENT).unwrap();
    for pointer in &required_fields(&doc) {
        assert_decode_error_at(
            &service,
            &without(&doc, pointer),
            pointer,
            &format!("omit {pointer}"),
        );
        // Any JSON value is a valid comparison bound, so `bound` has no
        // wrong type.
        if !pointer.ends_with("/bound") {
            let wrong = with(&doc, pointer, Json::Bool(true));
            assert_decode_error_at(&service, &wrong, pointer, &format!("{pointer}: true"));
        }
    }
}

#[test]
fn a_wrong_optional_field_is_the_error_path() {
    let service = ExplainService::new();
    let doc = Json::parse(DOCUMENT).unwrap();
    let cases = [
        ("engine", Json::str("rp_fast")),
        ("engine", Json::Bool(true)),
        ("max_schema_alternatives", Json::Int(0)),
        ("max_schema_alternatives", Json::Bool(true)),
        ("timeout_ms", Json::Int(-1)),
        ("timeout_ms", Json::Bool(true)),
        ("max_trace_tuples", Json::Float(1.5)),
        ("max_trace_tuples", Json::Bool(true)),
        ("alternatives", Json::Bool(true)),
        ("why_not/total/$cmp", Json::Bool(true)),
        ("why_not/total/$cmp", Json::str("~")),
    ];
    let mut cases: Vec<(String, Json)> =
        cases.into_iter().map(|(pointer, value)| (pointer.to_string(), value)).collect();
    for (pointer, tag) in plan_nodes(&doc) {
        let optional: &[&str] = match tag.as_str() {
            "tuple_flatten" | "flatten" => &["inputs", "op/alias"],
            "nest_agg" => &["inputs", "op/field"],
            "table" => &[],
            _ => &["inputs"],
        };
        cases.extend(optional.iter().map(|f| (format!("{pointer}/{f}"), Json::Bool(true))));
    }
    for (pointer, value) in cases {
        let change = format!("{pointer}: {value}");
        assert_decode_error_at(&service, &with(&doc, &pointer, value), &pointer, &change);
    }
}

#[test]
fn an_unknown_field_is_the_error_path() {
    let service = ExplainService::new();
    let doc = Json::parse(DOCUMENT).unwrap();
    // A misspelt optional field fails instead of leaving its default.
    let Json::Object(mut fields) = doc.clone() else { unreachable!("an object") };
    fields.push(("timeout_m".to_string(), Json::Int(0)));
    assert_decode_error_at(&service, &Json::Object(fields), "timeout_m", "add timeout_m");

    let envelopes = [
        (r#"{"op": "batch", "requests": [], "request": []}"#, "request"),
        (r#"{"op": "stats", "verbose": true}"#, "verbose"),
    ];
    for (text, path) in envelopes {
        let error = service.handle_wire(&Json::parse(text).unwrap()).expect_err(text).to_wire();
        assert_eq!(error.get("kind").and_then(Json::as_str), Some("decode"), "{text}: {error}");
        assert_eq!(error.get("path").and_then(Json::as_str), Some(path), "{text}: {error}");
    }
}

/// A NIP object is a tagged leaf when any of its keys is a `$` tag, so a
/// `$cmp` leaf decodes the same with its members in either order; a tag
/// beside an attribute name fails at the object itself.
#[test]
fn a_nip_object_is_tagged_by_any_dollar_key() {
    use nested_data::{Nip, NipCmp, Value};
    use whynot_service::wire::nip_from_json;

    let expected = Nip::Pred(NipCmp::Ne, Value::str("NY"));
    for text in [r#"{"bound": "NY", "$cmp": "!="}"#, r#"{"$cmp": "!=", "bound": "NY"}"#] {
        assert_eq!(nip_from_json(&Json::parse(text).unwrap()).unwrap(), expected, "{text}");
    }

    let service = ExplainService::new();
    let doc = Json::parse(DOCUMENT).unwrap();
    let reply = service.handle_wire(&doc).unwrap();
    let reordered =
        with(&doc, "why_not/total", Json::parse(r#"{"bound": 99, "$cmp": ">="}"#).unwrap());
    assert_eq!(service.handle_wire(&reordered).unwrap().get("report"), reply.get("report"));
    for mixed in [r#"{"$cmp": ">=", "bound": 99, "city": "NY"}"#, r#"{"city": "NY", "$str": "?"}"#]
    {
        let mixed = with(&doc, "why_not/total", Json::parse(mixed).unwrap());
        assert_decode_error_at(
            &service,
            &mixed,
            "why_not/total",
            &format!("why_not/total: {mixed}"),
        );
    }
}
