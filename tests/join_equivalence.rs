//! The hash-join ↔ nested-loop equivalence contract, end to end: for every
//! case of the shared harness and every thread count, query answers,
//! generalized traces, and rendered wire reports must be **bit-identical**
//! whether equi joins take the partitioned hash join or the nested loop. The
//! join cases cover every join kind × predicate shape under two schema
//! alternatives, with keys crossing the `Int` ↔ `Real` boundary.

mod harness;

use harness::{join_database, join_plan, Aspect, Cases, Config, Suite, REFERENCE};
use nested_data::Value;
use nrab_algebra::{evaluate, with_hash_join, CmpOp, Expr, JoinKind};

static HASH_JOIN: Suite = Suite::new(|| {
    [1, 2, 8].map(|threads| Config { hash_join: true, threads, ..REFERENCE }).to_vec()
});

#[test]
fn scenario_answers_match_the_nested_loop() {
    HASH_JOIN.assert_clean(Aspect::Answer, Cases::Scenarios);
}

#[test]
fn scenario_traces_match_the_nested_loop() {
    HASH_JOIN.assert_clean(Aspect::Trace, Cases::Scenarios);
}

#[test]
fn scenario_wire_reports_match_the_nested_loop() {
    HASH_JOIN.assert_clean(Aspect::Report, Cases::Scenarios);
}

#[test]
fn join_kind_matrix_is_physical_only() {
    HASH_JOIN.assert_clean(Aspect::Answer, Cases::Joins);
    HASH_JOIN.assert_clean(Aspect::Trace, Cases::Joins);
}

/// Joining an `Int` key column against a `Real` one finds exactly the pairs
/// the nested loop finds, and dangling keys pad identically under a full
/// outer join.
#[test]
fn mixed_int_real_keys_join_identically() {
    let db = join_database();
    let (plan, _) =
        join_plan(JoinKind::Full, Expr::cmp(Expr::attr("fk"), CmpOp::Eq, Expr::attr("pk")));
    let hashed = evaluate(&plan, &db).expect("hash eval");
    let looped = with_hash_join(false, || evaluate(&plan, &db).expect("loop eval"));
    assert!(*hashed == *looped);
    let has_row = |fk: i64, matched: bool| {
        hashed.iter().any(|(v, _)| {
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
