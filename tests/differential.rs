//! The differential contract, end to end: every case of the shared harness
//! gives the same answer, generalized trace, and compact wire report with
//! profiling active as the unprofiled reference run, its profile records
//! spans with the same signature on a rerun, and under both runs every
//! case's annotation and lineage keep their contracts. Beside that, every
//! case's `⟦Q⟧_D` and generalized trace are pinned by digest, so a change to
//! the evaluator, the join core or the tracer itself shows too.

mod harness;

use std::fmt::Write;

use harness::{
    assert_pinned, fnv1a, join_database, join_plan, run, scenario_case, PROFILED, REFERENCE,
};
use nested_data::{Tuple, Value};
use nrab_algebra::join::{join_matches, nested_loop_join};
use nrab_algebra::{evaluate, CmpOp, Expr, JoinKind};
use nrab_provenance::annotate_consistency;
use whynot_scenarios::running;

#[test]
fn every_option_combination_matches_the_reference() {
    let differences: Vec<&str> =
        harness::differences().iter().map(|f| f.message.as_str()).collect();
    assert!(differences.is_empty(), "differs from the reference:\n{}", differences.join("\n"));
}

/// Joining an `Int` key column against a `Real` one finds exactly the pairs
/// of the reference nested loop, and under a full outer join keys that find
/// a partner across the `Int`/`Real` boundary join while dangling keys pad.
#[test]
fn mixed_int_real_keys_join_identically() {
    let db = join_database();
    let predicate = Expr::cmp(Expr::attr("fk"), CmpOp::Eq, Expr::attr("pk"));
    let rows = |table| -> Vec<Option<&Tuple>> {
        db.relation(table).unwrap().iter().map(|(v, _)| v.as_tuple()).collect()
    };
    let (fact, dim) = (rows("fact"), rows("dim"));
    let (fact_ty, dim_ty) = (db.schema("fact").unwrap(), db.schema("dim").unwrap());
    let joined = join_matches(&fact, &dim, &predicate, fact_ty, dim_ty).expect("hash join");
    assert_eq!(joined, nested_loop_join(&fact, &dim, &predicate).expect("nested loop"));

    let (plan, _) = join_plan(JoinKind::Full, predicate);
    let answer = evaluate(&plan, &db).expect("full join evaluates");
    let has_row = |fk: i64, matched: bool| {
        answer.iter().any(|(v, _)| {
            let t = v.as_tuple().unwrap();
            t.get("fk") == Some(&Value::int(fk))
                && t.get("dname").is_some_and(|d| (d != &Value::Null) == matched)
        })
    };
    // fk in 0..16 finds a dim row across the Int/Real boundary; fk in 16..24
    // dangles and pads.
    assert!(has_row(3, true));
    assert!(has_row(20, false));
}

/// Profiling sessions are scoped per thread: a fresh session right after a
/// profiled request starts from an empty collector.
#[test]
fn sessions_do_not_leak_spans() {
    let case = scenario_case(running::running_example());
    let (_, profile) = run(&case, PROFILED);
    assert!(profile.expect("profiled").root.span_nodes() > 0);
    let (_, empty) = whynot_obs::profile(|| ());
    assert_eq!(empty.root.span_nodes(), 0, "{}", empty.signature());
}

/// `⟦Q⟧_D` of every harness case in `harness::scenarios()` order, pinned as
/// an FNV-1a digest of the answer bag's `Debug` rendering (canonical entry
/// order, every field and multiplicity, floats to the last bit). The
/// differential test above compares two runs of one evaluator with each
/// other; this pins what that evaluator answers.
const ANSWER_DIGESTS: &[(&str, u64)] = &[
    ("RUN", 0x8622da745d9b2ef5),
    ("D1", 0xefb597f44da5d311),
    ("D2", 0x9d3cdbdf4948bb7a),
    ("D3", 0x357552eadb1d2acb),
    ("D4", 0xefb597f44da5d311),
    ("D5", 0xa17eb29ea5cbd15c),
    ("T1", 0xefb597f44da5d311),
    ("T2", 0xefb597f44da5d311),
    ("T3", 0xefb597f44da5d311),
    ("T4", 0xefb597f44da5d311),
    ("TASD", 0xdcf182ad4121e199),
    ("Q1", 0x85e7c862664d9dfe),
    ("Q3", 0x6a8a3f94e1c9540a),
    ("Q4", 0xefb597f44da5d311),
    ("Q6", 0x95ad81572f1b4dae),
    ("Q10", 0xefb597f44da5d311),
    ("Q13", 0xab746d3f5826abe8),
    ("Q1F", 0x85e7c862664d9dfe),
    ("Q3F", 0x6a8a3f94e1c9540a),
    ("Q4F", 0xefb597f44da5d311),
    ("Q6F", 0x95ad81572f1b4dae),
    ("Q10F", 0xefb597f44da5d311),
    ("Q13F", 0xc8b11c3197ff78e7),
    ("C1", 0x16605b47fe67cfd4),
    ("C2", 0x92e3224761f37741),
    ("C3", 0x0b29f2e47c4d983e),
    ("join Inner/equi", 0x4096df17187c6850),
    ("join Inner/mixed", 0xfdb074bf73f3f1eb),
    ("join Inner/nonequi", 0x4a14c834307cd519),
    ("join Left/equi", 0x94acc19b7f9ae6d8),
    ("join Left/mixed", 0x4965265341dfebfe),
    ("join Left/nonequi", 0xe075841336864734),
    ("join Right/equi", 0x4096df17187c6850),
    ("join Right/mixed", 0xef00469bb326b623),
    ("join Right/nonequi", 0x4a14c834307cd519),
    ("join Full/equi", 0x94acc19b7f9ae6d8),
    ("join Full/mixed", 0xcf640b7b4cf1c50c),
    ("join Full/nonequi", 0xe075841336864734),
];

#[test]
fn every_answer_matches_its_pinned_digest() {
    let found: Vec<(String, u64)> = harness::scenarios()
        .iter()
        .map(|case| {
            let answer = evaluate(case.plan(), case.db()).expect("every harness plan evaluates");
            (case.name().to_string(), fnv1a(&format!("{answer:?}")))
        })
        .collect();
    assert_pinned("answers", found, ANSWER_DIGESTS);
}

/// The generalized trace of every harness case in `harness::scenarios()`
/// order (for a why-not case, the one the RP engine traces), pinned as an
/// FNV-1a digest of [`render_trace`]. The rendering is written here rather
/// than taken from `Debug`, so a change of the trace's in-memory
/// representation does not move a digest; a change of what it holds does.
const TRACE_DIGESTS: &[(&str, u64)] = &[
    ("RUN", 0x725bcbd9643932e4),
    ("D1", 0x3c2cd09eca91fa5a),
    ("D2", 0xf7b7b2949e996947),
    ("D3", 0x2dac631979544e13),
    ("D4", 0x25cc168d21bdc934),
    ("D5", 0x4046e1b80816dd98),
    ("T1", 0x8639d2f373447ae9),
    ("T2", 0xc9953d0750d22f27),
    ("T3", 0xd03cf9c1cd05e090),
    ("T4", 0x19903751df97e0eb),
    ("TASD", 0xb4a118e47611b90e),
    ("Q1", 0x9dfa54e0fc168104),
    ("Q3", 0x6ebcba65393d4011),
    ("Q4", 0x5d71b5cecc28b22e),
    ("Q6", 0xe19492adfcbfb96d),
    ("Q10", 0x1daf838d8dc56fdd),
    ("Q13", 0x7b0beaffaa278298),
    ("Q1F", 0xd87f4d0b927d0c48),
    ("Q3F", 0xc758f681f4e3e43d),
    ("Q4F", 0xc3ebbea6f53af597),
    ("Q6F", 0x41f3c1019065bc16),
    ("Q10F", 0xf9b22dde0309daf8),
    ("Q13F", 0x03cf47bcc142e718),
    ("C1", 0x976ebbdbc617f64f),
    ("C2", 0xff435dd495cc68bc),
    ("C3", 0x610fd4c5ff2f4cfa),
    ("join Inner/equi", 0xd66d18441909d2f2),
    ("join Inner/mixed", 0x428f5878d0caddd9),
    ("join Inner/nonequi", 0x07bbc3fab31ecc28),
    ("join Left/equi", 0xaf914a9490f75c74),
    ("join Left/mixed", 0x522705fd1c79a51b),
    ("join Left/nonequi", 0x4c71139698e93d28),
    ("join Right/equi", 0xd66d18441909d2f2),
    ("join Right/mixed", 0x9e45be13864f4459),
    ("join Right/nonequi", 0x07bbc3fab31ecc28),
    ("join Full/equi", 0xaf914a9490f75c74),
    ("join Full/mixed", 0x502eb2720c34b59b),
    ("join Full/nonequi", 0x4c71139698e93d28),
];

/// A canonical rendering of a case's generalized trace: per operator in
/// pre-order, each traced tuple's id and then, per schema alternative,
/// `-` where the tuple is absent, else its data, `retained` flag, lineage
/// ids and fallback variant.
fn render_trace(case: &harness::Case) -> String {
    let (output, _) = harness::run(case, REFERENCE);
    let annotated = annotate_consistency(&output.trace, case.plan(), &output.sas);
    let mut text = String::new();
    for &op in output.trace.pre_order() {
        let trace = annotated.trace(op).expect("every operator is traced");
        writeln!(text, "op {op}").unwrap();
        for tuple in &trace.trace.tuples {
            write!(text, "{}:", tuple.id).unwrap();
            for sa in 0..output.sas.len() {
                match tuple.get(sa) {
                    None => text.push_str(" -"),
                    Some(variant) => {
                        let fallback = match tuple.fallback_variant(sa) {
                            Some(fallback) => fallback.to_string(),
                            None => "-".into(),
                        };
                        write!(
                            text,
                            " [{} r={} in={:?} fb={fallback}]",
                            tuple.variant(sa).expect("the variant exists"),
                            variant.retained,
                            tuple.input_ids(sa),
                        )
                        .unwrap();
                    }
                }
            }
            text.push('\n');
        }
    }
    text
}

#[test]
fn every_trace_matches_its_pinned_digest() {
    let found: Vec<(String, u64)> = harness::scenarios()
        .iter()
        .map(|case| (case.name().to_string(), fnv1a(&render_trace(case))))
        .collect();
    assert_pinned("traces", found, TRACE_DIGESTS);
}
