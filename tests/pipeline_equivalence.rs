//! The fused ↔ operator-at-a-time equivalence contract of the tracer, end to
//! end: for every case of the shared harness and every thread count, query
//! answers, generalized traces, and rendered wire reports must be
//! **bit-identical** whether the generalized trace replays maximal runs of
//! 1:1 operators as fused morsel-driven passes or one operator at a time.
//! This is the property that makes tracer pipelining a pure performance
//! knob, exactly like `WHYNOT_THREADS` and the hash join.
//!
//! The fusion-boundary tests additionally pin the tracer's break rules
//! through its `pipe:` profile spans: joins, nest, aggregation, union,
//! difference, and flatten always end a fused run.

mod harness;

use std::collections::BTreeMap;

use harness::{Aspect, Cases, Config, Suite, REFERENCE};
use nested_data::{Bag, NestedType, TupleType, Value};
use nrab_algebra::{
    AggFunc, AggSpec, CmpOp, Database, Expr, JoinKind, OpId, PlanBuilder, QueryPlan,
};
use nrab_provenance::{trace_plan_generalized, SchemaAlternative};
use whynot_obs::SpanReport;

static PIPELINED: Suite = Suite::new(|| {
    [1, 2, 8].map(|threads| Config { pipelining: true, threads, ..REFERENCE }).to_vec()
});

#[test]
fn query_answers_match_the_materialized_path() {
    PIPELINED.assert_clean(Aspect::Answer, Cases::All);
}

#[test]
fn generalized_traces_match_the_materialized_path() {
    PIPELINED.assert_clean(Aspect::Trace, Cases::All);
}

#[test]
fn wire_reports_match_the_materialized_path() {
    PIPELINED.assert_clean(Aspect::Report, Cases::All);
}

/// The tracer fuses maximal runs of 1:1 operators into one
/// `pipe:{first}#{id}..{last}#{id}` span. Joins, relation nest, grouping
/// aggregation, difference, union, and relation flatten end a run; a lone
/// 1:1 operator still replays as a one-operator run; dedup is 1:1 in the
/// generalized trace (it annotates instead of merging), so it fuses.
#[test]
fn break_operators_always_end_pipelines() {
    let db = fused_database();

    // table#0 → σ#1 → σ#2, then the operator under test at #3 (unary) or
    // above a right input (binary).
    let chain = || {
        PlanBuilder::table("fact")
            .select(Expr::attr_cmp("fqty", CmpOp::Ge, 5i64))
            .select(Expr::attr_cmp("fqty", CmpOp::Le, 40i64))
    };
    let count = AggSpec::new(AggFunc::Count, Expr::attr("fname"), "n");
    let dim_side = PlanBuilder::table("dim").select(Expr::attr_cmp("dprio", CmpOp::Ge, 0i64));
    let cases: Vec<(&str, PlanBuilder, &[&str])> = vec![
        (
            "join",
            chain().join(
                dim_side,
                JoinKind::Inner,
                Expr::cmp(Expr::attr("fk"), CmpOp::Eq, Expr::attr("pk")),
            ),
            &["pipe:σ#1..σ#2", "pipe:σ#4..σ#4"],
        ),
        ("nest", chain().relation_nest(vec!["fname"], "names"), &["pipe:σ#1..σ#2"]),
        ("agg", chain().group_aggregate(vec!["fname"], vec![count]), &["pipe:σ#1..σ#2"]),
        ("difference", chain().difference(PlanBuilder::table("fact")), &["pipe:σ#1..σ#2"]),
        ("union", chain().union(PlanBuilder::table("fact")), &["pipe:σ#1..σ#2"]),
        ("flatten", chain().inner_flatten("fitems", None), &["pipe:σ#1..σ#2"]),
        ("dedup", chain().dedup(), &["pipe:σ#1..δ#3"]),
    ];
    for (name, builder, expected) in cases {
        let plan = builder.build().unwrap_or_else(|e| panic!("{name}: plan fails: {e}"));
        let pipes = traced_pipes(name, &plan, &db);
        assert_eq!(pipes, expected, "{name}: fused runs");
        if name == "dedup" {
            continue;
        }
        let breaker = plan.root.id;
        for pipe in &pipes {
            let (first, last) = pipe["pipe:".len()..].split_once("..").expect("pipe span name");
            let id = |end: &str| -> OpId { end.rsplit_once('#').unwrap().1.parse().unwrap() };
            assert!(
                !(id(first)..=id(last)).contains(&breaker),
                "{name}: break operator #{breaker} inside {pipe}"
            );
        }
    }
}

/// A selection → selection → projection chain over a row-oriented relation
/// replays as one fused run, source to sink.
#[test]
fn select_select_project_chains_fuse() {
    let db = fused_database();
    let plan = PlanBuilder::table("fact")
        .select(Expr::attr_cmp("fqty", CmpOp::Ge, 5i64))
        .select(Expr::attr_cmp("fqty", CmpOp::Le, 40i64))
        .project_attrs(&["fname"])
        .build()
        .expect("plan builds");
    assert_eq!(traced_pipes("σσπ", &plan, &db), ["pipe:σ#1..π#3"]);
}

/// The sorted `pipe:` span names of the plan's generalized trace under the
/// original schema alternative.
fn traced_pipes(name: &str, plan: &QueryPlan, db: &Database) -> Vec<String> {
    let sas = [SchemaAlternative::original(BTreeMap::new())];
    let (trace, profile) = whynot_obs::profile(|| trace_plan_generalized(plan, db, &sas));
    trace.unwrap_or_else(|e| panic!("{name}: trace failed: {e}"));
    let mut pipes: Vec<String> = spans(&profile.root)
        .into_iter()
        .map(|span| span.name.clone())
        .filter(|name| name.starts_with("pipe:"))
        .collect();
    pipes.sort_unstable();
    pipes
}

/// A narrow (row-oriented) fact table with a nested `fitems` column, and a
/// dimension table to join it with.
fn fused_database() -> Database {
    let items = TupleType::new([("item", NestedType::int())]).unwrap();
    let fact_ty = TupleType::new([
        ("fk", NestedType::int()),
        ("fqty", NestedType::int()),
        ("fname", NestedType::str()),
        ("fitems", NestedType::Relation(items)),
    ])
    .unwrap();
    let dim_ty = TupleType::new([("pk", NestedType::int()), ("dprio", NestedType::int())]).unwrap();
    let fact = Bag::from_values((0..12i64).map(|i| {
        Value::tuple([
            ("fk", Value::int(i % 4)),
            ("fqty", Value::int(i * 5)),
            ("fname", Value::str(format!("f{}", i % 3))),
            ("fitems", Value::bag([Value::tuple([("item", Value::int(i))])])),
        ])
    }));
    let dim = Bag::from_values(
        (0..4i64).map(|j| Value::tuple([("pk", Value::int(j)), ("dprio", Value::int(j))])),
    );
    let mut db = Database::new();
    db.add_relation("fact", fact_ty, fact);
    db.add_relation("dim", dim_ty, dim);
    db
}

/// Every span of a profile tree, in pre-order.
fn spans(root: &SpanReport) -> Vec<&SpanReport> {
    let mut out = vec![root];
    for child in &root.children {
        out.extend(spans(child));
    }
    out
}
