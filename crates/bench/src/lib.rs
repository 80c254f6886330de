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
//! The absolute numbers differ from the paper (single host, in-memory engine,
//! MB-scale data instead of a Spark cluster with 100s of GB); the *shapes* —
//! linear scaling, instrumentation overhead factors, who finds which
//! explanations — are the reproduction target (see `EXPERIMENTS.md`).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod microbench;

use std::collections::BTreeSet;
use std::time::Instant;

use nested_data::{Bag, Sym, Tuple, Value};
use nrab_algebra::{evaluate, OpId, QueryPlan};
use whynot_core::WhyNotEngine;
use whynot_scenarios::{Scenario, ScenarioOutcome};

use crate::microbench::{BenchGroup, CaseResult};

/// A single runtime measurement for one scenario at one dataset size.
#[derive(Debug, Clone)]
pub struct RuntimeRow {
    /// Scenario name.
    pub scenario: String,
    /// Number of top-level input tuples.
    pub input_tuples: u64,
    /// Plain query evaluation time in milliseconds ("Spark" line of Figs. 8–10).
    pub query_ms: f64,
    /// RPnoSA explanation time in milliseconds.
    pub rp_no_sa_ms: f64,
    /// RP explanation time in milliseconds.
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

fn measure<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed().as_secs_f64() * 1e3)
}

/// Measures plain query evaluation, RPnoSA, and RP for one scenario.
pub fn measure_scenario(scenario: &Scenario) -> RuntimeRow {
    let question = scenario.question();
    let (_, query_ms) =
        measure(|| evaluate(&scenario.plan, &scenario.db).expect("query evaluates"));
    let (rp_no_sa, rp_no_sa_ms) = measure(|| {
        WhyNotEngine::rp_no_sa()
            .explain(&question, &scenario.alternatives)
            .expect("RPnoSA succeeds")
    });
    let (rp, rp_ms) = measure(|| {
        WhyNotEngine::rp().explain(&question, &scenario.alternatives).expect("RP succeeds")
    });
    drop(rp_no_sa);
    RuntimeRow {
        scenario: scenario.name.clone(),
        input_tuples: scenario.db.total_tuples(),
        query_ms,
        rp_no_sa_ms,
        rp_ms,
        schema_alternatives: rp.schema_alternatives.len(),
    }
}

/// Merges a set of single-shot runtime rows into the machine-readable bench
/// report (`BENCH_figures.json`) under `group`: one case per scenario and
/// metric, with mean = min = max (one measurement each).
pub fn report_runtime_rows(group: &str, rows: &[RuntimeRow]) {
    let cases = rows.iter().flat_map(|row| {
        [
            (format!("{}/query", row.scenario), row.query_ms),
            (format!("{}/rp_no_sa", row.scenario), row.rp_no_sa_ms),
            (format!("{}/rp", row.scenario), row.rp_ms),
        ]
        .into_iter()
        .map(|(name, ms)| CaseResult { name, mean_ms: ms, min_ms: ms, max_ms: ms })
    });
    microbench::report_group(group, cases);
}

/// The `value_layer` microbench group: targeted measurements of the shared-
/// immutable value layer (hash-canonicalized bag construction, interned-symbol
/// tuple lookup, O(1) value clones, and a whole-plan generalized trace of the
/// largest DBLP runtime scenario), plus the wide flat TPC-H `flatlineitem`
/// scan and trace (`lineitem_select`, `lineitem_trace`): the base cases the
/// `obs` and `guard` overhead gates compare against in the same run.
pub fn value_layer_group() {
    let mut group = BenchGroup::new("value_layer");

    // A DBLP-publication-shaped workload: 10k tuples, ~5k distinct.
    let tuples: Vec<Value> = (0..10_000)
        .map(|i| {
            Value::tuple([
                ("key", Value::int((i * 37) % 5_000)),
                ("title", Value::str(format!("title-{}", (i * 37) % 5_000))),
                ("year", Value::int(1990 + (i % 30))),
                (
                    "authors",
                    Value::bag((0..3).map(|a| {
                        Value::tuple([("name", Value::str(format!("author-{}", (i + a) % 97)))])
                    })),
                ),
            ])
        })
        .collect();

    group.bench("bag_build/insert_10k", || {
        let mut bag = Bag::new();
        for v in &tuples {
            bag.insert(v.clone(), 1);
        }
        bag
    });
    group.bench("bag_build/builder_10k", || Bag::from_values(tuples.iter().cloned()));

    let wide = Tuple::new((0..12).map(|i| (format!("attr{i}"), Value::int(i))));
    let last = Sym::intern("attr11");
    group.bench("tuple_lookup/sym_1m", || {
        let mut acc = 0i64;
        for _ in 0..1_000_000 {
            acc += std::hint::black_box(&wide)
                .get(std::hint::black_box(last))
                .and_then(Value::as_int)
                .unwrap_or(0);
        }
        std::hint::black_box(acc)
    });

    let big = Value::bag(tuples.iter().cloned());
    group.bench("value_clone/nested_100k", || {
        let mut last = big.clone();
        for _ in 0..100_000 {
            last = big.clone();
        }
        last
    });

    // Whole-plan generalized tracing (trace + backtrace + ranking) of the
    // largest DBLP scenario from the Figure 8 sweep.
    let scenario = whynot_scenarios::dblp::d4(300);
    let question = scenario.question();
    group.bench("dblp_trace/d4_scale300", || {
        WhyNotEngine::rp().explain(&question, &scenario.alternatives).expect("RP succeeds")
    });

    // A Q6-style selection through the evaluator and a selection + grouped
    // aggregation generalized trace under two schema alternatives.
    let (db, select_plan, trace_plan, sas) = lineitem_workload();
    assert!(
        !evaluate(&select_plan, &db).expect("select evaluates").is_empty(),
        "the benchmark selection must keep some rows"
    );
    group.bench("lineitem_select", || evaluate(&select_plan, &db).expect("select evaluates"));
    group.bench("lineitem_trace", || {
        nrab_provenance::trace_plan_generalized(&trace_plan, &db, &sas).expect("trace succeeds")
    });

    group.finish();
}

/// The `parallel` microbench group: serial vs. parallel wall-clock time of
/// the two workloads the execution subsystem accelerates — the whole-plan
/// multi-SA generalized trace of DBLP D4 and an 8-question service batch —
/// at `WHYNOT_THREADS=1` vs. 4 pool threads.
///
/// The group also *asserts* the determinism contract before measuring:
/// parallel traces and batch reports must be bit-identical to their serial
/// twins. A `available_parallelism` pseudo-case records how many hardware
/// threads the measuring host actually had (on a single-core host the
/// threads4 rows cannot beat threads1 — CI enforces the speedup on
/// multi-core runners).
pub fn parallel_group() {
    use whynot_core::alternatives::enumerate_schema_alternatives;
    use whynot_core::backtrace::schema_backtrace;
    use whynot_exec::with_threads;
    use whynot_service::service::{DbRef, ExplainRequest, ExplainService, PlanRef};

    let mut group = BenchGroup::new("parallel");
    let cpus = std::thread::available_parallelism().map(usize::from).unwrap_or(1) as f64;
    group.record("available_parallelism", cpus, cpus, cpus);

    // Whole-plan generalized trace of DBLP D4 (multi-SA) — the per-question-
    // independent stage the trace cache amortizes.
    let scenario = whynot_scenarios::dblp::d4(300);
    let backtrace = schema_backtrace(&scenario.plan, &scenario.db, &scenario.why_not)
        .expect("backtrace succeeds");
    let sas = enumerate_schema_alternatives(
        &scenario.plan,
        &scenario.db,
        &scenario.why_not,
        &backtrace,
        &scenario.alternatives,
        64,
    )
    .expect("alternatives enumerate");
    let trace = |threads: usize| {
        with_threads(threads, || {
            nrab_provenance::trace_plan_generalized(&scenario.plan, &scenario.db, &sas)
                .expect("trace succeeds")
        })
    };
    assert!(trace(1) == trace(4), "parallel trace must be bit-identical to the serial trace");
    group.bench("dblp_d4_trace/threads1", || trace(1));
    group.bench("dblp_d4_trace/threads4", || trace(4));

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
    group.bench("service_batch8/threads1", || run_batch(1));
    group.bench("service_batch8/threads4", || run_batch(4));

    group.finish();
}

/// The wide flat TPC-H `flatlineitem` workload shared by
/// [`value_layer_group`], [`obs_group`] and [`guard_group`]: the database (14
/// scalar attributes per row), a Q6-style selection plan, and the traced
/// selection + grouped-aggregation plan under two schema alternatives
/// (original and `l_shipdate` → `l_commitdate`).
///
/// Shared so the `obs` and `guard` overhead cases re-measure *exactly* the
/// workload of the `value_layer` base cases.
fn lineitem_workload(
) -> (nrab_algebra::Database, QueryPlan, QueryPlan, Vec<nrab_provenance::SchemaAlternative>) {
    use nested_datagen::{tpch_flat_database, TpchConfig};
    use nrab_algebra::expr::{ArithOp, CmpOp, Expr};
    use nrab_algebra::{AggFunc, AggSpec, PlanBuilder};
    use nrab_provenance::{OpSubstitution, SchemaAlternative};
    use std::collections::BTreeMap;

    let db = tpch_flat_database(TpchConfig { customers: 1500, seed: 42 });
    let q6_predicate = || {
        Expr::and_all([
            Expr::attr_cmp("l_shipdate", CmpOp::Ge, "1994-01-01"),
            Expr::attr_cmp("l_shipdate", CmpOp::Lt, "1996-01-01"),
            Expr::attr_cmp("l_discount", CmpOp::Ge, 0.02),
            Expr::attr_cmp("l_discount", CmpOp::Le, 0.09),
            Expr::attr_cmp("l_quantity", CmpOp::Lt, 40i64),
        ])
    };
    let select_plan = PlanBuilder::table("flatlineitem")
        .select(q6_predicate())
        .build()
        .expect("selection plan builds");

    // Selection + grouped aggregation, traced under two schema alternatives
    // (original and l_shipdate → l_commitdate).
    let builder = PlanBuilder::table("flatlineitem").select(q6_predicate());
    let selection_op = builder.current_id();
    let trace_plan = builder
        .group_aggregate(
            vec!["l_returnflag"],
            vec![AggSpec::new(
                AggFunc::Sum,
                Expr::arith(
                    Expr::attr("l_extendedprice"),
                    ArithOp::Mul,
                    Expr::arith(Expr::lit(1.0), ArithOp::Sub, Expr::attr("l_discount")),
                ),
                "revenue",
            )],
        )
        .build()
        .expect("trace plan builds");
    let sas = vec![
        SchemaAlternative::original(BTreeMap::new()),
        SchemaAlternative::new(
            1,
            vec![OpSubstitution::new(selection_op, "l_shipdate", "l_commitdate")],
            BTreeMap::new(),
        ),
    ];
    (db, select_plan, trace_plan, sas)
}

/// Two wide flat relations (6 scalar attributes each) shared by
/// [`join_group`], [`obs_group`] and [`guard_group`]: a `fact` relation whose
/// `fk` hits one of `keys` distinct values and a `dim` relation keyed by `pk`.
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

/// The traced equi-join workload shared by [`join_group`] and [`obs_group`]:
/// a smaller fact/dim pair and two schema alternatives (the second
/// substitutes the probe key, so the per-SA joins build different hash
/// tables).
fn equi_trace_workload(
) -> (nrab_algebra::Database, QueryPlan, Vec<nrab_provenance::SchemaAlternative>) {
    use nrab_algebra::{JoinKind, PlanBuilder};
    use nrab_provenance::{OpSubstitution, SchemaAlternative};
    use std::collections::BTreeMap;

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
    (trace_db, trace_plan, sas)
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
/// nested loop (`with_hash_join(false, ..)`). The `nested_loop` cases run the
/// physical plan the evaluator executed before the shared join core existed,
/// so CI can hold the speedup against the seed path. The non-equi range join
/// has no hash structure, so it always takes the loop and is one case.
pub fn join_group() {
    use nrab_algebra::expr::{CmpOp, Expr};
    use nrab_algebra::with_hash_join;
    use nrab_provenance::trace_plan_generalized;

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

    group.bench("equi_join/nested_loop", || {
        with_hash_join(false, || evaluate(&equi_plan, &db).expect("loop"))
    });
    group.bench("equi_join/hash", || evaluate(&equi_plan, &db).expect("hash"));
    group.bench("mixed_join/nested_loop", || {
        with_hash_join(false, || evaluate(&mixed_plan, &db).expect("loop"))
    });
    group.bench("mixed_join/hash", || evaluate(&mixed_plan, &db).expect("hash"));
    group.bench("nonequi_join/nested_loop", || evaluate(&nonequi_plan, &small_db).expect("loop"));

    // The traced equi join: two schema alternatives (the second substitutes
    // the probe key, so the per-SA joins build different hash tables) —
    // the per-SA probing workload `trace_join` used to run over a single
    // `BTreeMap` bucketing.
    let (trace_db, trace_plan, sas) = equi_trace_workload();
    let loop_trace = with_hash_join(false, || {
        trace_plan_generalized(&trace_plan, &trace_db, &sas).expect("loop trace")
    });
    let hash_trace = trace_plan_generalized(&trace_plan, &trace_db, &sas).expect("hash trace");
    assert!(
        loop_trace == hash_trace,
        "traced equi join must be byte-identical to the nested-loop trace"
    );
    group.bench("equi_trace/nested_loop", || {
        with_hash_join(false, || {
            trace_plan_generalized(&trace_plan, &trace_db, &sas).expect("loop trace")
        })
    });
    group.bench("equi_trace/hash", || {
        trace_plan_generalized(&trace_plan, &trace_db, &sas).expect("hash trace")
    });

    group.finish();
}

/// The `pipeline` microbench group: the tracer's fused replay against the
/// operator-at-a-time replay it replaces.
///
/// * `dblp_d4/*` — the whole-plan generalized trace of DBLP D4 (multi-SA),
///   whose flatten→project and select→select→project runs dominate the
///   trace; the fused replay eliminates the per-tuple singleton-bag
///   evaluation.
///
/// Before measuring, the group *asserts* byte-identity: the fused trace must
/// equal the `with_pipelining(false)` one — pipelining is a pure performance
/// knob, like threads and the hash join.
pub fn pipeline_group() {
    use nrab_provenance::with_pipelining;
    use whynot_core::alternatives::enumerate_schema_alternatives;
    use whynot_core::backtrace::schema_backtrace;

    let mut group = BenchGroup::new("pipeline");

    // The whole-plan DBLP D4 generalized trace — the workload behind the
    // committed `value_layer` and `parallel` baselines.
    let scenario = whynot_scenarios::dblp::d4(300);
    let backtrace = schema_backtrace(&scenario.plan, &scenario.db, &scenario.why_not)
        .expect("backtrace succeeds");
    let sas = enumerate_schema_alternatives(
        &scenario.plan,
        &scenario.db,
        &scenario.why_not,
        &backtrace,
        &scenario.alternatives,
        64,
    )
    .expect("alternatives enumerate");
    let fused_trace = nrab_provenance::trace_plan_generalized(&scenario.plan, &scenario.db, &sas)
        .expect("fused trace");
    let materialized_trace = with_pipelining(false, || {
        nrab_provenance::trace_plan_generalized(&scenario.plan, &scenario.db, &sas)
            .expect("materialized trace")
    });
    assert!(
        fused_trace == materialized_trace,
        "the fused trace must be bit-identical to the operator-at-a-time replay"
    );
    group.bench("dblp_d4/fused", || {
        nrab_provenance::trace_plan_generalized(&scenario.plan, &scenario.db, &sas)
            .expect("fused trace")
    });
    group.bench("dblp_d4/materialized", || {
        with_pipelining(false, || {
            nrab_provenance::trace_plan_generalized(&scenario.plan, &scenario.db, &sas)
                .expect("materialized trace")
        })
    });

    group.finish();
}

/// The `obs` microbench group: the runtime cost of the `whynot-obs`
/// instrumentation, re-measured on exactly the workloads of the `value_layer`
/// lineitem cases and the `join` hash cases (shared through the private
/// `lineitem_workload`, `join_db` and `equi_trace_workload` constructors).
///
/// Every `disabled` case runs with no profiling *or timeline* session
/// active on the bench thread, so each instrumentation site costs one load
/// of the thread-local flags cell — the price every production run pays.
/// CI gates these at ≤ 5% over the corresponding base case measured in the
/// same run (`value_layer/lineitem_select`, `value_layer/lineitem_trace`,
/// `join/equi_join/hash`, `join/equi_trace/hash`). The `profiled` twins run
/// the same work inside a [`whynot_obs::profile`] session and are
/// informational: they bound the cost of `--profile`. The `timelined` twin
/// runs inside a [`whynot_obs::timeline::record`] session and bounds the
/// cost of `--trace-out` event recording.
///
/// The group also records deterministic observability figures as
/// dimensionless pseudo-cases (mean = min = max): the generalized-trace size
/// in tuples (`trace.total_tuples`, the peak provenance footprint of the
/// run) and the number of recorded operator spans for the two traced
/// workloads and a full DBLP D4 explanation, plus the D4 per-stage span
/// breakdown in milliseconds and the balanced timeline event count of the
/// lineitem trace (`lineitem_trace/timeline_events`, exactly two events per
/// span opening at any thread count).
pub fn obs_group() {
    use nrab_provenance::trace_plan_generalized;
    use whynot_obs::ProfileReport;

    let mut group = BenchGroup::new("obs");

    assert!(
        !whynot_obs::enabled(),
        "no profiling session may be active while the disabled-path cases run"
    );

    let (db, select_plan, trace_plan, sas) = lineitem_workload();
    let equi_db = join_db(1500, 1000, 600);
    let equi_plan = join_plan_for(equi_join_predicate());
    let (join_trace_db, join_trace_plan, join_sas) = equi_trace_workload();

    // Equivalence before measuring: profiling is a pure observer (the full
    // contract — answers, traces, wire reports, thread counts — is asserted
    // by `tests/differential.rs`; this is the bench-local smoke check).
    let plain = evaluate(&select_plan, &db).expect("select evaluates");
    let (profiled, report) =
        whynot_obs::profile(|| evaluate(&select_plan, &db).expect("select evaluates"));
    assert!(plain == profiled, "profiling must not change the selection result");
    assert!(report.root.span_nodes() > 0, "the profiled selection must record spans");

    group.bench("lineitem_select/disabled", || evaluate(&select_plan, &db).expect("select"));
    group.bench("lineitem_select/profiled", || {
        whynot_obs::profile(|| evaluate(&select_plan, &db).expect("select"))
    });
    group.bench("lineitem_trace/disabled", || {
        trace_plan_generalized(&trace_plan, &db, &sas).expect("trace")
    });
    group.bench("lineitem_trace/profiled", || {
        whynot_obs::profile(|| trace_plan_generalized(&trace_plan, &db, &sas).expect("trace"))
    });
    group.bench("lineitem_trace/timelined", || {
        whynot_obs::timeline::record(|| {
            trace_plan_generalized(&trace_plan, &db, &sas).expect("trace")
        })
    });
    group.bench("equi_join/disabled", || evaluate(&equi_plan, &equi_db).expect("join"));
    group.bench("equi_join/profiled", || {
        whynot_obs::profile(|| evaluate(&equi_plan, &equi_db).expect("join"))
    });
    group.bench("equi_trace/disabled", || {
        trace_plan_generalized(&join_trace_plan, &join_trace_db, &join_sas).expect("join trace")
    });
    group.bench("equi_trace/profiled", || {
        whynot_obs::profile(|| {
            trace_plan_generalized(&join_trace_plan, &join_trace_db, &join_sas).expect("join trace")
        })
    });

    // Deterministic observability figures: identical at every thread count
    // (the signature contract), so mean = min = max is exact, not a
    // single-sample approximation.
    fn record_figures(group: &mut BenchGroup, case: &str, report: &ProfileReport) {
        let tuples = report.counter_total("trace.total_tuples") as f64;
        let spans = report.root.span_nodes() as f64;
        group.record(format!("{case}/trace_tuples"), tuples, tuples, tuples);
        group.record(format!("{case}/span_nodes"), spans, spans, spans);
    }
    let (_, lineitem_report) =
        whynot_obs::profile(|| trace_plan_generalized(&trace_plan, &db, &sas).expect("trace"));
    record_figures(&mut group, "lineitem_trace", &lineitem_report);
    // Timeline figures for the same workload: every span opening emits a
    // balanced begin/end pair, so the event count is exactly twice the span
    // count and just as deterministic.
    let (_, lineitem_timeline) = whynot_obs::timeline::record(|| {
        trace_plan_generalized(&trace_plan, &db, &sas).expect("trace")
    });
    lineitem_timeline.check_balanced().expect("timeline events pair up");
    let events = lineitem_timeline.events.len() as f64;
    group.record("lineitem_trace/timeline_events", events, events, events);
    let (_, join_report) = whynot_obs::profile(|| {
        trace_plan_generalized(&join_trace_plan, &join_trace_db, &join_sas).expect("join trace")
    });
    record_figures(&mut group, "equi_trace", &join_report);

    let scenario = whynot_scenarios::dblp::d4(300);
    let question = scenario.question();
    let (_, d4_report) = whynot_obs::profile(|| {
        WhyNotEngine::rp().explain(&question, &scenario.alternatives).expect("RP succeeds")
    });
    record_figures(&mut group, "dblp_d4", &d4_report);
    // The engine-stage breakdown of the D4 explanation (wall ms per stage;
    // times vary between runs, the stage set does not).
    for stage in ["validate", "backtrace", "alternatives", "trace_provider", "rank"] {
        let ms = d4_report.root.child(stage).map_or(0.0, |s| s.total_ns as f64 / 1e6);
        group.record(format!("dblp_d4_stage/{stage}"), ms, ms, ms);
    }

    group.finish();
}

/// The `guard` microbench group: the runtime cost of the `whynot-guard`
/// check sites, re-measured on exactly the workloads of the `value_layer`
/// lineitem cases and the `join` hash cases (the same shared constructors the
/// `obs` group uses).
///
/// Every `unguarded` case runs with no guard armed, so each check site costs
/// one read of the thread's guard slot — the price every unlimited
/// production request pays. CI gates these at ≤ 5% over the corresponding
/// base case measured in the same run (`value_layer/lineitem_select`,
/// `value_layer/lineitem_trace`, `join/equi_join/hash`,
/// `join/equi_trace/hash`). The `guarded` twins run the same work under an
/// armed guard with generous limits and are informational: they bound the
/// cost of `timeout_ms`/`max_trace_tuples` on a request.
///
/// Before measuring, the group *asserts* the governance contract in release
/// mode: a roomy guard is a pure observer (byte-identical results), and a
/// zero trace budget actually trips the traced workload.
pub fn guard_group() {
    use nrab_provenance::trace_plan_generalized;

    let mut group = BenchGroup::new("guard");

    assert!(!whynot_guard::armed(), "no guard may be armed while the unguarded cases run");

    let (db, select_plan, trace_plan, sas) = lineitem_workload();
    let equi_db = join_db(1500, 1000, 600);
    let equi_plan = join_plan_for(equi_join_predicate());
    let (join_trace_db, join_trace_plan, join_sas) = equi_trace_workload();

    // Roomy limits: far above anything these workloads consume, so the
    // guarded twins measure pure check overhead, never a trip.
    let roomy = || whynot_guard::Guard::new(Some(300_000), Some(u64::MAX / 2), None);

    // Contract smoke checks (the full matrix lives in the guard/service
    // tests; this pins the release-build behavior the bench publishes).
    let plain = trace_plan_generalized(&trace_plan, &db, &sas).expect("trace succeeds");
    let under_guard = {
        let guard = roomy();
        let _armed = whynot_guard::arm(&guard);
        trace_plan_generalized(&trace_plan, &db, &sas).expect("guarded trace succeeds")
    };
    assert!(plain == under_guard, "a roomy guard must not change the generalized trace");
    let tripped = {
        let guard = whynot_guard::Guard::new(None, Some(0), None);
        let _armed = whynot_guard::arm(&guard);
        trace_plan_generalized(&trace_plan, &db, &sas)
    };
    assert!(
        matches!(
            tripped,
            Err(nrab_algebra::AlgebraError::Resource(
                whynot_guard::ResourceError::TraceBudgetExceeded { .. }
            ))
        ),
        "a zero trace budget must trip the traced workload"
    );

    group.bench("lineitem_select/unguarded", || evaluate(&select_plan, &db).expect("select"));
    group.bench("lineitem_select/guarded", || {
        let guard = roomy();
        let _armed = whynot_guard::arm(&guard);
        evaluate(&select_plan, &db).expect("select")
    });
    group.bench("lineitem_trace/unguarded", || {
        trace_plan_generalized(&trace_plan, &db, &sas).expect("trace")
    });
    group.bench("lineitem_trace/guarded", || {
        let guard = roomy();
        let _armed = whynot_guard::arm(&guard);
        trace_plan_generalized(&trace_plan, &db, &sas).expect("trace")
    });
    group.bench("equi_join/unguarded", || evaluate(&equi_plan, &equi_db).expect("join"));
    group.bench("equi_join/guarded", || {
        let guard = roomy();
        let _armed = whynot_guard::arm(&guard);
        evaluate(&equi_plan, &equi_db).expect("join")
    });
    group.bench("equi_trace/unguarded", || {
        trace_plan_generalized(&join_trace_plan, &join_trace_db, &join_sas).expect("join trace")
    });
    group.bench("equi_trace/guarded", || {
        let guard = roomy();
        let _armed = whynot_guard::arm(&guard);
        trace_plan_generalized(&join_trace_plan, &join_trace_db, &join_sas).expect("join trace")
    });

    // Deterministic governance figures: how many cooperative checks one
    // guarded run of each traced workload performs (identical at every
    // thread count, like the obs signature figures).
    fn record_checks(group: &mut BenchGroup, case: &str, run: impl FnOnce()) {
        let before = whynot_guard::guard_stats().checks;
        run();
        let checks = (whynot_guard::guard_stats().checks - before) as f64;
        group.record(format!("{case}/guard_checks"), checks, checks, checks);
    }
    record_checks(&mut group, "lineitem_trace", || {
        let guard = roomy();
        let _armed = whynot_guard::arm(&guard);
        trace_plan_generalized(&trace_plan, &db, &sas).expect("trace");
    });
    record_checks(&mut group, "equi_trace", || {
        let guard = roomy();
        let _armed = whynot_guard::arm(&guard);
        trace_plan_generalized(&join_trace_plan, &join_trace_db, &join_sas).expect("join trace");
    });

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
        let row = measure_scenario(&scenario);
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
