//! # whynot-bench
//!
//! The benchmark harness that regenerates every table and figure of the
//! paper's evaluation (Section 6) on the laptop-scale synthetic datasets:
//!
//! * **Figure 8** — runtime of the full approach (RP) on the DBLP scenarios
//!   while the dataset size grows, compared to the plain query runtime.
//! * **Figure 9** — the same for the Twitter scenarios.
//! * **Figure 10** — plain query vs. RPnoSA vs. RP runtime on the TPC-H
//!   scenarios, together with the number of schema alternatives.
//! * **Figure 11** — runtime as a function of the number of schema
//!   alternatives for D1, D4, T_ASD, T3, and Q3.
//! * **Table 7** — number of explanations found by WN++, RPnoSA, and RP per
//!   scenario (plus the rank of the gold explanation where one exists).
//! * **Table 8** — the explanation sets themselves.
//! * **Table 3** — operator types that can appear in explanations per
//!   formalism.
//! * **Crime comparison** (Section 6.4) — Why-Not vs. Conseil vs. RP on C1–C3.
//!
//! Besides the figures, two groups pair a physical fast path with the path
//! it replaces in one process: [`join_group`] and [`parallel_group`]. The
//! `figures` binary is the single entry point (`cargo run --release -p
//! whynot-bench --bin figures`); it measures through
//! [`microbench::BenchGroup`] and merges one group per figure or pair into
//! `BENCH_figures.json`.
//!
//! The absolute numbers differ from the paper (single host, in-memory engine,
//! MB-scale data instead of a Spark cluster with 100s of GB); the *shapes* —
//! linear scaling, instrumentation overhead factors, who finds which
//! explanations — are the reproduction target. `tests/table7_explanations.rs`
//! pins the explanation counts.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod microbench;

use std::collections::BTreeSet;

use nested_data::{Bag, Value};
use nrab_algebra::{evaluate, OpId, QueryPlan};
use whynot_core::WhyNotEngine;
use whynot_scenarios::{Scenario, ScenarioOutcome};

use crate::microbench::BenchGroup;

/// The median runtimes of one scenario at one dataset size.
#[derive(Debug, Clone)]
pub struct RuntimeRow {
    /// Scenario name.
    pub scenario: String,
    /// Number of top-level input tuples.
    pub input_tuples: u64,
    /// Plain query evaluation, in milliseconds ("Spark" line of Figs. 8–10).
    pub query_ms: f64,
    /// RPnoSA explanation, in milliseconds.
    pub rp_no_sa_ms: f64,
    /// RP explanation, in milliseconds.
    pub rp_ms: f64,
    /// Number of schema alternatives RP considered.
    pub schema_alternatives: usize,
}

impl RuntimeRow {
    /// Overhead factor of the full approach over the plain query.
    pub fn rp_overhead(&self) -> f64 {
        if self.query_ms > 0.0 {
            self.rp_ms / self.query_ms
        } else {
            f64::INFINITY
        }
    }
}

/// Measures plain query evaluation, RPnoSA, and RP for one scenario as the
/// cases `{case}/query`, `{case}/rp_no_sa` and `{case}/rp` of `group`; the
/// row carries the medians.
pub fn measure_scenario(group: &mut BenchGroup, case: &str, scenario: &Scenario) -> RuntimeRow {
    let query_ms = group.bench(&format!("{case}/query"), || {
        evaluate(&scenario.plan, &scenario.db).expect("query evaluates")
    });
    // Each sample poses a fresh question: its database clone has an empty
    // result memo, so RP and RPnoSA evaluate the query every time, as the
    // paper's runtimes do.
    let rp_no_sa_ms = group.bench(&format!("{case}/rp_no_sa"), || {
        WhyNotEngine::rp_no_sa()
            .explain(&scenario.question(), &scenario.alternatives)
            .expect("RPnoSA succeeds")
    });
    let rp = || {
        WhyNotEngine::rp()
            .explain(&scenario.question(), &scenario.alternatives)
            .expect("RP succeeds")
    };
    let rp_ms = group.bench(&format!("{case}/rp"), &rp);
    RuntimeRow {
        scenario: scenario.name.clone(),
        input_tuples: scenario.db.total_tuples(),
        query_ms,
        rp_no_sa_ms,
        rp_ms,
        schema_alternatives: rp().schema_alternatives.len(),
    }
}

/// The `parallel` microbench group: an 8-question service batch answered one
/// request at a time vs. four at once — the only parallelism left, since
/// every request runs on one thread.
///
/// The group also *asserts* the determinism contract before measuring: the
/// concurrent batch reports must be byte-identical to the one-at-a-time
/// ones. The report records the host's CPU count with the group: with fewer
/// than 4 CPUs the threads4 row cannot reliably beat threads1, so CI
/// enforces the speedup only on groups recorded on 4 or more.
pub fn parallel_group() {
    use whynot_exec::with_threads;
    use whynot_service::service::{DbRef, ExplainRequest, ExplainService, PlanRef};

    let mut group = BenchGroup::new("parallel");

    // An 8-question batch over the five DBLP plans (three questions repeat,
    // exercising the concurrent cache-dedup path).
    let scenarios = whynot_scenarios::dblp::all_dblp(300);
    let requests: Vec<ExplainRequest> = scenarios
        .iter()
        .chain(scenarios.iter().take(3))
        .map(|s| {
            ExplainRequest::new(
                DbRef::Named("dblp".into()),
                PlanRef::Named(s.name.clone()),
                s.why_not.clone(),
            )
            .with_alternatives(s.alternatives.clone())
        })
        .collect();
    let run_batch = |threads: usize| {
        let mut service = ExplainService::new();
        service.catalog_mut().register_database("dblp", scenarios[0].db.clone());
        for s in &scenarios {
            service.catalog_mut().register_plan(s.name.clone(), s.plan.clone());
        }
        with_threads(threads, || {
            service
                .explain_batch(&requests)
                .into_iter()
                .map(|r| r.expect("batch question succeeds").report.to_json().to_compact())
                .collect::<Vec<String>>()
        })
    };
    assert_eq!(
        run_batch(1),
        run_batch(4),
        "parallel batch reports must be byte-identical to serial reports"
    );
    group.pair(
        "service_batch8/threads1",
        || run_batch(1),
        "service_batch8/threads4",
        || run_batch(4),
    );

    group.finish();
}

/// Two wide flat relations (6 scalar attributes each) for [`join_group`]: a
/// `fact` relation whose `fk` hits one of `keys` distinct values and a `dim`
/// relation keyed by `pk`.
fn join_db(fact_n: i64, dim_n: i64, keys: i64) -> nrab_algebra::Database {
    use nested_data::{NestedType, TupleType};
    use nrab_algebra::Database;

    let fact_ty = TupleType::new([
        ("fk", NestedType::int()),
        ("fseq", NestedType::int()),
        ("fname", NestedType::str()),
        ("fqty", NestedType::int()),
        ("famount", NestedType::float()),
        ("ftag", NestedType::str()),
    ])
    .expect("fact schema");
    let dim_ty = TupleType::new([
        ("pk", NestedType::int()),
        ("dcap", NestedType::int()),
        ("dname", NestedType::str()),
        ("dprio", NestedType::int()),
        ("dscale", NestedType::float()),
        ("dtag", NestedType::str()),
    ])
    .expect("dim schema");
    let fact_rows = Bag::from_values((0..fact_n).map(|i| {
        Value::tuple([
            ("fk", Value::int(i % keys)),
            ("fseq", Value::int(i)),
            ("fname", Value::str(format!("fact-{i}"))),
            ("fqty", Value::int(i % 50)),
            ("famount", Value::float(i as f64 / 4.0)),
            ("ftag", Value::str(if i % 3 == 0 { "hot" } else { "cold" })),
        ])
    }));
    let dim_rows = Bag::from_values((0..dim_n).map(|j| {
        Value::tuple([
            ("pk", Value::int(j % keys)),
            ("dcap", Value::int(j * 2)),
            ("dname", Value::str(format!("dim-{j}"))),
            ("dprio", Value::int(j % 7)),
            ("dscale", Value::float(j as f64 / 8.0)),
            ("dtag", Value::str(if j % 2 == 0 { "even" } else { "odd" })),
        ])
    }));
    let mut db = Database::new();
    db.add_relation("fact", fact_ty, fact_rows);
    db.add_relation("dim", dim_ty, dim_rows);
    db
}

/// The `fk = pk` equi-join predicate of the shared join workload.
fn equi_join_predicate() -> nrab_algebra::Expr {
    use nrab_algebra::{CmpOp, Expr};
    Expr::cmp(Expr::attr("fk"), CmpOp::Eq, Expr::attr("pk"))
}

/// Builds `fact ⋈ dim` over the given predicate.
fn join_plan_for(predicate: nrab_algebra::Expr) -> QueryPlan {
    use nrab_algebra::{JoinKind, PlanBuilder};
    PlanBuilder::table("fact")
        .join(PlanBuilder::table("dim"), JoinKind::Inner, predicate)
        .build()
        .expect("join plan builds")
}

/// The `join` microbench group: the partitioned hash join of
/// `nrab_algebra::join` against the block nested loop it replaced, over two
/// wide flat relations (6 scalar attributes each) — a pure equi join, an
/// equi join with a residual range conjunct, and a pure non-equi range join,
/// each measured through the evaluator; plus the
/// per-schema-alternative traced equi join (two SAs, the second substituting
/// the probe key) through `trace_plan_generalized`.
///
/// Before measuring, the group *asserts* the equivalence contract: for every
/// plan, the hash-join result and trace must be byte-identical to the forced
/// nested loop (`with_hash_join(false, ..)`). Each hash case is measured as
/// an interleaved pair with its `nested_loop` twin, the physical plan the
/// evaluator executed before the shared join core existed. The non-equi range
/// join has no hash structure, so it always takes the loop and is one case.
pub fn join_group() {
    use nrab_algebra::expr::{CmpOp, Expr};
    use nrab_algebra::{with_hash_join, JoinKind, PlanBuilder};
    use nrab_provenance::{trace_plan_generalized, OpSubstitution, SchemaAlternative};
    use std::collections::BTreeMap;

    let mut group = BenchGroup::new("join");

    // The evaluator workloads: 1500 × 1000 rows for the hash-eligible
    // shapes (1.5M candidate pairs for the loop, one bucket probe per row
    // for the hash join), a smaller 300 × 300 pair for the always-quadratic
    // non-equi range join.
    let db = join_db(1500, 1000, 600);
    let equi_plan = join_plan_for(equi_join_predicate());
    let mixed_plan = join_plan_for(Expr::and(
        equi_join_predicate(),
        Expr::cmp(Expr::attr("fqty"), CmpOp::Lt, Expr::attr("dcap")),
    ));
    let small_db = join_db(300, 300, 120);
    let nonequi_plan = join_plan_for(Expr::and(
        Expr::cmp(Expr::attr("famount"), CmpOp::Le, Expr::attr("dscale")),
        Expr::cmp(Expr::attr("fqty"), CmpOp::Gt, Expr::attr("dprio")),
    ));

    // Byte-identity before measuring: both join paths produce the same
    // canonical bag.
    for (name, plan, db) in [
        ("equi", &equi_plan, &db),
        ("mixed", &mixed_plan, &db),
        ("nonequi", &nonequi_plan, &small_db),
    ] {
        let looped = with_hash_join(false, || evaluate(plan, db).expect("loop eval"));
        let hashed = evaluate(plan, db).expect("hash eval");
        assert!(looped == hashed, "{name}: hash join must be byte-identical to the nested loop");
        assert!(!hashed.is_empty(), "{name}: the benchmark join must produce rows");
    }

    for (name, plan) in [("equi_join", &equi_plan), ("mixed_join", &mixed_plan)] {
        group.pair(
            &format!("{name}/nested_loop"),
            || with_hash_join(false, || evaluate(plan, &db).expect("loop")),
            &format!("{name}/hash"),
            || evaluate(plan, &db).expect("hash"),
        );
    }
    group.bench("nonequi_join/nested_loop", || evaluate(&nonequi_plan, &small_db).expect("loop"));

    // The traced equi join on a smaller fact/dim pair, under two schema
    // alternatives: both build over the dimension key `pk`, and the second
    // substitutes the fact-side probe key `fk` with `fqty`.
    let trace_db = join_db(600, 400, 240);
    let builder = PlanBuilder::table("fact").join(
        PlanBuilder::table("dim"),
        JoinKind::Inner,
        equi_join_predicate(),
    );
    let join_op = builder.current_id();
    let trace_plan = builder.build().expect("trace plan builds");
    let sas = vec![
        SchemaAlternative::original(BTreeMap::new()),
        SchemaAlternative::new(
            1,
            vec![OpSubstitution::new(join_op, "fk", "fqty")],
            BTreeMap::new(),
        ),
    ];
    let trace = || trace_plan_generalized(&trace_plan, &trace_db, &sas).expect("trace");
    let loop_trace = || with_hash_join(false, trace);
    assert!(
        loop_trace() == trace(),
        "traced equi join must be byte-identical to the nested-loop trace"
    );
    group.pair("equi_trace/nested_loop", loop_trace, "equi_trace/hash", trace);

    group.finish();
}

/// One row of the Table 7 summary.
#[derive(Debug, Clone)]
pub struct Table7Row {
    /// Scenario name and description.
    pub scenario: String,
    /// Scenario description.
    pub description: String,
    /// Explanation counts (WN++, RPnoSA, RP).
    pub counts: (usize, usize, usize),
    /// Rank of the gold explanation in the RP output, if the scenario has one.
    pub gold_position: Option<usize>,
    /// The paper's counts for the same scenario, for comparison.
    pub paper_counts: (usize, usize),
}

/// Runs all three competitors over a scenario list and produces Table 7 rows.
pub fn table7(scenarios: &[Scenario]) -> Vec<(Table7Row, ScenarioOutcome)> {
    scenarios
        .iter()
        .map(|scenario| {
            let outcome = scenario.run().expect("scenario runs");
            let row = Table7Row {
                scenario: scenario.name.clone(),
                description: scenario.description.clone(),
                counts: outcome.counts(),
                gold_position: outcome.gold_position_rp,
                paper_counts: (scenario.paper_wnpp.len(), scenario.paper_rp.len()),
            };
            (row, outcome)
        })
        .collect()
}

/// Renders an explanation set using a scenario's operator labels where known.
pub fn render_ops(scenario: &Scenario, ops: &BTreeSet<OpId>) -> String {
    let names: Vec<String> = ops
        .iter()
        .map(|op| {
            scenario
                .labels
                .iter()
                .find(|(_, id)| *id == op)
                .map(|(name, _)| name.clone())
                .unwrap_or_else(|| {
                    scenario
                        .plan
                        .node(*op)
                        .map(|n| format!("{}{}", n.op.kind_name(), op))
                        .unwrap_or_else(|_| format!("op{op}"))
                })
        })
        .collect();
    format!("{{{}}}", names.join(", "))
}

/// Formats a runtime table with a header.
pub fn format_runtime_rows(title: &str, rows: &[RuntimeRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!("== {title} ==\n"));
    out.push_str("scenario  input_tuples  query_ms  rp_no_sa_ms  rp_ms  #SA  rp_overhead\n");
    for row in rows {
        out.push_str(&format!(
            "{:<9} {:>12} {:>9.2} {:>12.2} {:>7.2} {:>4} {:>11.1}x\n",
            row.scenario,
            row.input_tuples,
            row.query_ms,
            row.rp_no_sa_ms,
            row.rp_ms,
            row.schema_alternatives,
            row.rp_overhead()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use whynot_scenarios::running;

    #[test]
    fn measure_running_example() {
        let scenario = running::running_example();
        let mut group = BenchGroup::new("test");
        let row = measure_scenario(&mut group, "RUN", &scenario);
        assert_eq!(row.scenario, "RUN");
        assert_eq!(row.schema_alternatives, 2);
        assert!(row.rp_ms >= 0.0);
        let rendered = format_runtime_rows("test", &[row]);
        assert!(rendered.contains("RUN"));
    }

    #[test]
    fn table7_for_the_running_example() {
        let scenario = running::running_example();
        let rows = table7(std::slice::from_ref(&scenario));
        assert_eq!(rows.len(), 1);
        let (row, outcome) = &rows[0];
        assert_eq!(row.counts, (1, 1, 2));
        assert_eq!(outcome.rp.len(), 2);
        let rendered = render_ops(&scenario, &outcome.rp[0]);
        assert!(rendered.contains('σ'));
    }
}
