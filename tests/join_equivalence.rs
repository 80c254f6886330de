//! The join core's equivalence contract over every harness case: at every
//! join the evaluator runs and at every join the tracer runs per schema
//! alternative, `join_matches` (the hash join on the predicate's equi
//! conjuncts) finds exactly the pairs, combined tuples and matched flags of
//! the reference `nested_loop_join` on the same rows. That is everything
//! either consumer reads from the join core. The wire report of every
//! why-not case is pinned by a digest recorded when its joins ran on the
//! nested loop, and every why-not case's annotated flags must match the
//! harness's reference annotation. The join cases cover every join kind ×
//! predicate shape under two schema alternatives, with keys crossing the
//! `Int` ↔ `Real` boundary.

mod harness;

use harness::{annotation_mismatch, assert_pinned, fnv1a, run, scenarios, Case, REFERENCE};
use nested_data::{Bag, Tuple};
use nrab_algebra::join::{join_matches, nested_loop_join};
use nrab_algebra::schema::output_type;
use nrab_algebra::{evaluate, Database, Expr, OpNode, Operator, QueryPlan};
use nrab_provenance::{annotate_consistency, OpTrace};

/// The harness's join matrix (`joins`), or its why-not cases over the paper
/// scenarios.
fn cases(joins: bool) -> Vec<Case> {
    scenarios().into_iter().filter(|case| matches!(case, Case::Traced { .. }) == joins).collect()
}

/// The join operators of `plan`, with their predicates.
fn join_nodes(plan: &QueryPlan) -> Vec<(&OpNode, &Expr)> {
    plan.nodes_top_down()
        .into_iter()
        .filter_map(|node| match &node.op {
            Operator::Join { predicate, .. } => Some((node, predicate)),
            _ => None,
        })
        .collect()
}

/// Whether the join core's answer on one join input differs from the
/// nested loop's.
fn core_differs(
    node: &OpNode,
    db: &Database,
    predicate: &Expr,
    left: &[Option<&Tuple>],
    right: &[Option<&Tuple>],
) -> bool {
    let schema = |i: usize| output_type(&node.inputs[i], db).expect("join inputs have a type");
    let hashed = join_matches(left, right, predicate, &schema(0), &schema(1)).expect("join core");
    hashed != nested_loop_join(left, right, predicate).expect("nested loop")
}

/// A bag's rows as the evaluator hands them to the join core: non-tuple
/// entries join as the empty tuple.
fn rows<'a>(bag: &'a Bag, empty: &'a Tuple) -> Vec<Option<&'a Tuple>> {
    bag.iter().map(|(v, _)| Some(v.as_tuple().unwrap_or(empty))).collect()
}

/// A traced input's rows as the tracer hands them to the join core under
/// schema alternative `sa`: each tuple's variant, absent where it has none.
fn variants(trace: &OpTrace, sa: usize) -> Vec<Option<&Tuple>> {
    trace.tuples.iter().map(|t| t.variant(sa)).collect()
}

/// Checks every join the evaluator runs for `case` on the rows its inputs
/// evaluate to: the number of joins checked, and those that differ.
fn evaluated_joins(case: &Case) -> (usize, Vec<String>) {
    let (plan, db, empty) = (case.plan(), case.db(), Tuple::empty());
    let mut differing = Vec::new();
    let joins = join_nodes(plan);
    for &(node, predicate) in &joins {
        let input = |i: usize| {
            let subplan = QueryPlan::new(node.inputs[i].clone()).expect("a subtree is a plan");
            evaluate(&subplan, db).expect("join inputs evaluate")
        };
        let (left, right) = (input(0), input(1));
        let (left, right) = (rows(&left, &empty), rows(&right, &empty));
        if core_differs(node, db, predicate, &left, &right) {
            differing.push(format!("{}: evaluated join {}", case.name(), node.id));
        }
    }
    (joins.len(), differing)
}

/// Checks every join the tracer runs for `case`, per schema alternative, on
/// that alternative's variants of the traced inputs and under its effective
/// predicate: the number of (join, alternative) inputs checked, and those
/// that differ.
fn traced_joins(case: &Case) -> (usize, Vec<String>) {
    let (output, _) = run(case, REFERENCE);
    let annotated = annotate_consistency(&output.trace, case.plan(), &output.sas);
    let (mut checked, mut differing) = (0, Vec::new());
    for (node, _) in join_nodes(case.plan()) {
        let input = |i: usize| annotated.trace(node.inputs[i].id).expect("join inputs are traced");
        let (left, right) = (input(0).trace, input(1).trace);
        for (sa, alternative) in output.sas.iter().enumerate() {
            let Operator::Join { predicate, .. } = alternative.effective_operator(node) else {
                unreachable!("a substitution keeps the operator a join")
            };
            let (left_rows, right_rows) = (variants(left, sa), variants(right, sa));
            if core_differs(node, case.db(), &predicate, &left_rows, &right_rows) {
                differing.push(format!("{}: traced join {} under SA {sa}", case.name(), node.id));
            }
            checked += 1;
        }
    }
    (checked, differing)
}

/// Runs `check` over `cases`, asserting that it checked some join and found
/// no difference.
fn assert_joins_agree(cases: &[Case], check: fn(&Case) -> (usize, Vec<String>)) {
    let (mut checked, mut differing) = (0, Vec::new());
    for case in cases {
        let (n, found) = check(case);
        checked += n;
        differing.extend(found);
    }
    assert!(checked > 0, "no join was checked");
    assert!(differing.is_empty(), "differs from the nested loop:\n{}", differing.join("\n"));
}

#[test]
fn scenario_answers_match_the_nested_loop() {
    assert_joins_agree(&cases(false), evaluated_joins);
}

#[test]
fn scenario_traces_match_the_nested_loop() {
    assert_joins_agree(&cases(false), traced_joins);
}

/// The compact wire report of every why-not case in `harness::scenarios()`
/// order, pinned as an FNV-1a digest. The digests were recorded with every
/// join of the evaluation and the tracing on the nested loop.
const REPORT_DIGESTS: &[(&str, u64)] = &[
    ("RUN", 0x80ea03f3ae050a0d),
    ("D1", 0x56f5026f1d9148df),
    ("D2", 0x209f824d3243b331),
    ("D3", 0x2a09cf27d3d5b708),
    ("D4", 0x8ae8c74b68eed09e),
    ("D5", 0xc27c54eb247b3659),
    ("T1", 0x97ccfa0442918ea1),
    ("T2", 0x2ec8edfbfacbabed),
    ("T3", 0xeaa72fa71872d7d9),
    ("T4", 0x5604b16b56ace0cf),
    ("TASD", 0x86d21d3a7c83da21),
    ("Q1", 0x2cfd0ac27688dd05),
    ("Q3", 0x48038a66b4dba95e),
    ("Q4", 0xd2e5ffb82e8d650a),
    ("Q6", 0xf2358e384f9a058d),
    ("Q10", 0x99aa0bebf7329e05),
    ("Q13", 0x7e603ff5f683dcca),
    ("Q1F", 0xfbd811f4dec3bc9f),
    ("Q3F", 0x6f69bd1ac0eb14bc),
    ("Q4F", 0xd17f14352f974df1),
    ("Q6F", 0x09a1d59e33691d43),
    ("Q10F", 0x6212f41c195936d4),
    ("Q13F", 0x88c4119a073b7940),
    ("C1", 0x40d6f4dd4dc43479),
    ("C2", 0x5fd697b29ef6a48e),
    ("C3", 0xf87760688daaed07),
];

#[test]
fn scenario_wire_reports_match_the_nested_loop() {
    let found: Vec<(String, u64)> = cases(false)
        .iter()
        .map(|case| {
            let report = run(case, REFERENCE).0.report.expect("a why-not case has a report");
            (case.name().to_string(), fnv1a(&report))
        })
        .collect();
    assert_pinned("wire reports", found, REPORT_DIGESTS);
}

#[test]
fn scenario_annotations_match_the_reference() {
    let mismatches: Vec<String> = cases(false)
        .iter()
        .filter_map(|case| {
            let message = annotation_mismatch(case.plan(), &run(case, REFERENCE).0)?;
            Some(format!("{}: {message}", case.name()))
        })
        .collect();
    assert!(mismatches.is_empty(), "annotations differ:\n{}", mismatches.join("\n"));
}

#[test]
fn join_kind_matrix_is_physical_only() {
    let joins = cases(true);
    assert_joins_agree(&joins, evaluated_joins);
    assert_joins_agree(&joins, traced_joins);
}
