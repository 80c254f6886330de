//! The differential harness shared by the equivalence suites.
//!
//! For every case in [`scenarios`], the query answer `⟦Q⟧_D`, the generalized
//! trace, and the compact wire report must be **byte-identical** under a
//! physical configuration — the hash join (`with_hash_join`) and profiling —
//! to the reference run with the hash join off, unprofiled. The two toggles
//! span a 4-configuration product, which the three suites
//! (`join_equivalence`, `obs_equivalence` for profiling, and `differential`
//! for both) cover between them. Each suite is a [`Suite`]: a list of
//! configurations run once per test binary, whose findings its tests assert
//! on by aspect and case kind. Under the reference and every suite
//! configuration, every why-not case's annotation is also checked against
//! [`reference_flags`], an independent per-tuple match annotation, and every
//! case's lineage against the trace's lineage contract
//! ([`lineage_mismatch`]).

#![allow(dead_code)]

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use nested_data::{Bag, NestedType, Nip, NipCmp, PrimitiveType, TupleType, Value};
use nrab_algebra::{
    evaluate, with_hash_join, CmpOp, Database, Expr, JoinKind, OpId, Operator, PlanBuilder,
    QueryPlan,
};
use nrab_provenance::{
    annotate_consistency, trace_plan_generalized, GeneralizedTrace, OpSubstitution, SaFlags,
    SchemaAlternative, TracedTuple,
};
use whynot_core::{AttributeAlternative, TraceProvider, WhyNotEngine, WhyNotError, WhyNotQuestion};
use whynot_obs::ProfileReport;
use whynot_scenarios::{crime, dblp, running, tpch, twitter, Scenario};
use whynot_service::ExplanationReport;

/// One differential case: a why-not question over a paper scenario (whose
/// wire report is compared too), or a plan traced under fixed schema
/// alternatives.
pub enum Case {
    WhyNot { name: String, question: WhyNotQuestion, alternatives: Vec<AttributeAlternative> },
    Traced { name: String, db: Database, plan: QueryPlan, sas: Vec<SchemaAlternative> },
}

impl Case {
    pub fn name(&self) -> &str {
        match self {
            Case::WhyNot { name, .. } | Case::Traced { name, .. } => name,
        }
    }
}

/// Every case the harness runs: reduced-scale paper scenarios from every
/// dataset family (DBLP and crime run multi-way joins, TPC-H wide flat
/// relations, Twitter and the running example flatten-heavy plans), plus
/// every join kind × predicate shape under two schema alternatives.
pub fn scenarios() -> Vec<Case> {
    let mut paper = vec![running::running_example()];
    paper.extend(dblp::all_dblp(40));
    paper.extend(twitter::all_twitter(40));
    paper.extend(tpch::all_tpch(15));
    paper.extend(crime::all_crime());
    let mut cases: Vec<Case> = paper.into_iter().map(scenario_case).collect();
    cases.extend(join_cases());
    cases
}

pub fn scenario_case(s: Scenario) -> Case {
    Case::WhyNot { question: s.question(), name: s.name, alternatives: s.alternatives }
}

/// Every join kind × predicate shape over the wide flat fact/dim relations,
/// under the original query and an alternative that substitutes the
/// fact-side key (so the per-SA joins extract different key attributes).
pub fn join_cases() -> Vec<Case> {
    let db = join_database();
    let shapes = [
        // Pure equi: fk (Int) = pk (Real).
        ("equi", Expr::cmp(Expr::attr("fk"), CmpOp::Eq, Expr::attr("pk"))),
        // Equi plus a residual range conjunct on other attributes.
        (
            "mixed",
            Expr::and(
                Expr::cmp(Expr::attr("fk"), CmpOp::Eq, Expr::attr("pk")),
                Expr::cmp(Expr::attr("fseq"), CmpOp::Lt, Expr::attr("dcap")),
            ),
        ),
        // Pure non-equi: no hash structure, both paths take the loop.
        ("nonequi", Expr::cmp(Expr::attr("famount"), CmpOp::Le, Expr::attr("dscale"))),
    ];
    let mut cases = Vec::new();
    for kind in [JoinKind::Inner, JoinKind::Left, JoinKind::Right, JoinKind::Full] {
        for (shape, predicate) in &shapes {
            let (plan, join_op) = join_plan(kind, predicate.clone());
            let sas = vec![
                SchemaAlternative::original(BTreeMap::new()),
                SchemaAlternative::new(
                    1,
                    vec![OpSubstitution::new(join_op, "fk", "fseq")],
                    BTreeMap::new(),
                ),
            ];
            let name = format!("join {kind:?}/{shape}");
            cases.push(Case::Traced { name, db: db.clone(), plan, sas });
        }
    }
    cases
}

/// Wide flat fact/dim relations whose equi keys cross the `Int` ↔ `Real`
/// boundary (fact keys are `Int` attributes, dimension keys `Real` ones).
pub fn join_database() -> Database {
    let flag = || NestedType::Prim(PrimitiveType::Bool);
    let fact_ty = TupleType::new([
        ("fk", NestedType::int()),
        ("fseq", NestedType::int()),
        ("fname", NestedType::str()),
        ("fflag", flag()),
        ("famount", NestedType::float()),
        ("ftag", NestedType::str()),
    ])
    .unwrap();
    let dim_ty = TupleType::new([
        ("pk", NestedType::float()),
        ("dcap", NestedType::int()),
        ("dname", NestedType::str()),
        ("dflag", flag()),
        ("dscale", NestedType::float()),
        ("dtag", NestedType::str()),
    ])
    .unwrap();
    let fact = Bag::from_values((0..64i64).map(|i| {
        Value::tuple([
            // Some keys match, some dangle (key domain 0..24 vs 0..16).
            ("fk", Value::int(i % 24)),
            ("fseq", Value::int(i)),
            ("fname", Value::str(format!("fact-{i}"))),
            ("fflag", Value::bool(i % 2 == 0)),
            ("famount", Value::float(i as f64 / 4.0)),
            ("ftag", Value::str(if i % 3 == 0 { "hot" } else { "cold" })),
        ])
    }));
    let dim = Bag::from_values((0..40i64).map(|j| {
        Value::tuple([
            ("pk", Value::float((j % 16) as f64)),
            ("dcap", Value::int(j * 2)),
            ("dname", Value::str(format!("dim-{j}"))),
            ("dflag", Value::bool(j % 2 == 1)),
            ("dscale", Value::float(j as f64 / 8.0)),
            ("dtag", Value::str(if j % 2 == 0 { "even" } else { "odd" })),
        ])
    }));
    let mut db = Database::new();
    db.add_relation("fact", fact_ty, fact);
    db.add_relation("dim", dim_ty, dim);
    db
}

/// `fact ⋈ dim` plus the join's operator id (for the per-SA substitution).
pub fn join_plan(kind: JoinKind, predicate: Expr) -> (QueryPlan, OpId) {
    let builder = PlanBuilder::table("fact").join(PlanBuilder::table("dim"), kind, predicate);
    let join_op = builder.current_id();
    (builder.build().expect("join plan builds"), join_op)
}

/// One physical configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Config {
    pub hash_join: bool,
    pub profiled: bool,
}

pub const REFERENCE: Config = Config { hash_join: false, profiled: false };

/// What a case produces under one configuration.
pub struct Output {
    pub answer: Arc<Bag>,
    pub trace: Arc<GeneralizedTrace>,
    /// The schema alternatives the trace was computed under.
    pub sas: Vec<SchemaAlternative>,
    pub report: Option<String>,
}

/// A trace provider that keeps the generalized trace the engine asked for,
/// and the schema alternatives it asked for it under.
#[derive(Default)]
pub struct Recorder(pub Option<(Arc<GeneralizedTrace>, Vec<SchemaAlternative>)>);

impl TraceProvider for Recorder {
    fn generalized_trace(
        &mut self,
        plan: &QueryPlan,
        db: &Database,
        sas: &[SchemaAlternative],
    ) -> nrab_algebra::AlgebraResult<Arc<GeneralizedTrace>> {
        let trace = Arc::new(trace_plan_generalized(plan, db, sas)?);
        self.0 = Some((Arc::clone(&trace), sas.to_vec()));
        Ok(trace)
    }
}

/// Computes a case's answer, generalized trace, and wire report under
/// `config`, with the profile report when the configuration is profiled. A
/// why-not case evaluates and traces once: the engine's validation stage
/// evaluates `⟦Q⟧_D` (on a clone of the case's database, whose memo starts
/// empty) and the answer is read back from that memo, and the engine's
/// trace is recorded on its way to the report.
pub fn run(case: &Case, config: Config) -> (Output, Option<ProfileReport>) {
    let compute = || {
        let fail = |e: &dyn std::fmt::Display| -> ! {
            panic!("{}: failed under {config:?}: {e}", case.name())
        };
        match case {
            Case::WhyNot { question, alternatives, .. } => {
                // A fresh database clone starts with an empty result memo, so
                // every configuration evaluates `⟦Q⟧_D` itself instead of
                // reading the bag an earlier run left on the shared database.
                let question = WhyNotQuestion::new(
                    Arc::clone(&question.plan),
                    Database::clone(&question.db),
                    question.why_not.clone(),
                );
                let explain = || -> Result<Output, WhyNotError> {
                    let mut recorder = Recorder::default();
                    let explained = WhyNotEngine::rp().explain_with_tracer(
                        &question,
                        alternatives,
                        &mut recorder,
                    )?;
                    // The engine's validation left `⟦Q⟧_D` in the memo.
                    let answer = question.db.evaluate_memoised(&question.plan)?;
                    let report = ExplanationReport::from_answer(&explained).to_json().to_compact();
                    let (trace, sas) = recorder.0.expect("the engine traces");
                    Ok(Output { answer, trace, sas, report: Some(report) })
                };
                explain().unwrap_or_else(|e| fail(&e))
            }
            Case::Traced { db, plan, sas, .. } => Output {
                answer: evaluate(plan, db).unwrap_or_else(|e| fail(&e)),
                trace: Arc::new(trace_plan_generalized(plan, db, sas).unwrap_or_else(|e| fail(&e))),
                sas: sas.clone(),
                report: None,
            },
        }
    };
    with_hash_join(config.hash_join, || {
        if config.profiled {
            let (output, profile) = whynot_obs::profile(compute);
            (output, Some(profile))
        } else {
            (compute(), None)
        }
    })
}

/// What a comparison checks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Aspect {
    /// The query answer `⟦Q⟧_D`.
    Answer,
    /// The generalized trace, and under profiling the trace-size counter.
    Trace,
    /// The compact wire report of a why-not case.
    Report,
    /// A why-not case's annotated flags, against [`reference_flags`].
    Annotation,
    /// The trace's lineage, against its contract ([`lineage_mismatch`]).
    Lineage,
    /// The profile: spans recorded, and the same signature on a rerun.
    Profile,
}

/// Which cases an assertion covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Cases {
    /// Every case.
    All,
    /// The why-not questions over the paper scenarios.
    Scenarios,
    /// The join kind × predicate matrix.
    Joins,
}

/// One difference from the reference.
#[derive(Debug)]
struct Finding {
    aspect: Aspect,
    scenario: bool,
    message: String,
}

/// A list of configurations checked against the reference over every case,
/// once per test binary however many tests assert on the findings.
pub struct Suite {
    configs: fn() -> Vec<Config>,
    findings: OnceLock<Vec<Finding>>,
}

impl Suite {
    pub const fn new(configs: fn() -> Vec<Config>) -> Self {
        Suite { configs, findings: OnceLock::new() }
    }

    /// Asserts that no case in `cases` differs from the reference in
    /// `aspect` under any of the suite's configurations.
    pub fn assert_clean(&self, aspect: Aspect, cases: Cases) {
        let findings = self.findings.get_or_init(|| differences(&(self.configs)()));
        let failures: Vec<&str> = findings
            .iter()
            .filter(|f| f.aspect == aspect)
            .filter(|f| match cases {
                Cases::All => true,
                Cases::Scenarios => f.scenario,
                Cases::Joins => !f.scenario,
            })
            .map(|f| f.message.as_str())
            .collect();
        assert!(failures.is_empty(), "{aspect:?} differs:\n{}", failures.join("\n"));
    }
}

/// Every difference from the reference under `configs`, over every case.
/// Cases are independent: they are spread over the machine's cores (every
/// toggle is thread-local, so concurrent cases cannot see each other's).
fn differences(configs: &[Config]) -> Vec<Finding> {
    let cases = scenarios();
    let next = AtomicUsize::new(0);
    let findings = Mutex::new(Vec::new());
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                while let Some(case) = cases.get(next.fetch_add(1, Ordering::Relaxed)) {
                    let found = compare(case, configs);
                    findings.lock().unwrap().extend(found);
                }
            });
        }
    });
    let mut findings = findings.into_inner().unwrap();
    findings.sort_by(|a, b| a.message.cmp(&b.message));
    findings
}

/// One case's differences from the reference under `configs`.
fn compare(case: &Case, configs: &[Config]) -> Vec<Finding> {
    let name = case.name();
    let scenario = matches!(case, Case::WhyNot { .. });
    let mut found = Vec::new();
    let mut differ = |aspect: Aspect, message: String| {
        found.push(Finding { aspect, scenario, message: format!("{name}: {message}") })
    };
    let (reference, _) = run(case, REFERENCE);
    let plan: &QueryPlan = match case {
        Case::WhyNot { question, .. } => &question.plan,
        Case::Traced { plan, .. } => plan,
    };
    // The contracts every output keeps on its own, under any configuration.
    let contracts = |output: &Output| {
        let annotation = match case {
            Case::WhyNot { .. } => annotation_mismatch(plan, output),
            Case::Traced { .. } => None,
        };
        let annotation = annotation.map(|message| (Aspect::Annotation, message));
        annotation.into_iter().chain(lineage_mismatch(plan, output).map(|m| (Aspect::Lineage, m)))
    };
    for (aspect, message) in contracts(&reference) {
        differ(aspect, format!("{message} under {REFERENCE:?}"));
    }
    for &config in configs {
        let (output, profile) = run(case, config);
        for (aspect, message) in contracts(&output) {
            differ(aspect, format!("{message} under {config:?}"));
        }
        if *output.answer != *reference.answer {
            differ(Aspect::Answer, format!("answer differs under {config:?}"));
        }
        if output.trace != reference.trace {
            differ(Aspect::Trace, format!("trace differs under {config:?}"));
        }
        if output.report != reference.report {
            differ(Aspect::Report, format!("report differs under {config:?}"));
        }
        let Some(profile) = profile else { continue };
        // Profiling only observes: the trace-size counter sees exactly the
        // tuples the (one) trace holds, and the deterministic part of the
        // profile is the same when the case runs again.
        let counted = profile.root.counter_total("trace.total_tuples");
        if counted != output.trace.tuple_count() as u64 {
            differ(Aspect::Trace, format!("trace-size counter is {counted} under {config:?}"));
        }
        if profile.root.span_nodes() == 0 {
            differ(Aspect::Profile, format!("no spans recorded under {config:?}"));
        }
        let (_, rerun) = run(case, config);
        if rerun.map(|p| p.signature()) != Some(profile.signature()) {
            differ(
                Aspect::Profile,
                format!("profile signature differs on a rerun under {config:?}"),
            );
        }
    }
    found
}

/// The first (operator, tuple, SA) whose annotated flags differ from
/// [`reference_flags`], if any.
fn annotation_mismatch(plan: &QueryPlan, output: &Output) -> Option<String> {
    let annotated = annotate_consistency(&output.trace, plan, &output.sas);
    for &op in output.trace.pre_order() {
        let Some(op_trace) = annotated.trace(op) else {
            return Some(format!("operator {op} is not annotated"));
        };
        if op_trace.flags.len() != op_trace.len() {
            return Some(format!("operator {op} has {} flag rows", op_trace.flags.len()));
        }
        for tuple in op_trace.tuples() {
            let expected = reference_flags(plan, op, tuple.traced, &output.sas);
            for (sa, expected) in expected.iter().enumerate() {
                if tuple.flags(sa) != *expected {
                    let id = tuple.traced.id;
                    return Some(format!("operator {op}, tuple {id}, SA {sa}: flags differ"));
                }
            }
        }
    }
    None
}

/// The first tuple whose lineage breaks the trace's contract, if any: under
/// every schema alternative, each lineage id names a tuple of one of the
/// operator's children that exists under that alternative — so table-access
/// tuples have no lineage.
fn lineage_mismatch(plan: &QueryPlan, output: &Output) -> Option<String> {
    let annotated = annotate_consistency(&output.trace, plan, &output.sas);
    for &op in output.trace.pre_order() {
        let (Ok(node), Some(op_trace)) = (plan.node(op), annotated.trace(op)) else {
            return Some(format!("operator {op} is not traced"));
        };
        let children: HashMap<u64, &TracedTuple> = node
            .inputs
            .iter()
            .filter_map(|input| annotated.trace(input.id))
            .flat_map(|child| &child.trace.tuples)
            .map(|t| (t.id, t))
            .collect();
        for tuple in &op_trace.trace.tuples {
            for sa in 0..output.sas.len() {
                for id in tuple.input_ids(sa) {
                    let exists = children.get(id).is_some_and(|child| child.get(sa).is_some());
                    if !exists {
                        let own = tuple.id;
                        return Some(format!(
                            "operator {op}, tuple {own}, SA {sa}: lineage id {id} names no child tuple under the SA"
                        ));
                    }
                }
            }
        }
    }
    None
}

/// The reference annotation of one traced tuple: `valid` and `retained` read
/// off each variant, and `consistent` from matching the variant against its
/// schema alternative's consistency NIP, relaxed for grouped aggregation
/// (Section 5.5).
fn reference_flags(
    plan: &QueryPlan,
    op: OpId,
    traced: &TracedTuple,
    sas: &[SchemaAlternative],
) -> Vec<SaFlags> {
    let node = plan.node(op).ok();
    let is_group_agg = matches!(node.map(|n| &n.op), Some(Operator::GroupAggregation { .. }));
    let matches =
        |nip: &Nip, tuple: &nested_data::Tuple| nip.matches(&Value::from_tuple(tuple.clone()));
    let flags = |sa_idx: usize, sa: &SchemaAlternative| {
        let Some(variant) = traced.get(sa_idx) else { return SaFlags::absent() };
        let consistent = match sa.consistency_nip(op) {
            None => true,
            Some(nip) if is_group_agg => {
                let node = node.expect("group aggregation node exists in plan");
                let agg_outputs: Vec<String> = match sa.effective_operator(node) {
                    Operator::GroupAggregation { aggs, .. } => {
                        aggs.iter().map(|a| a.output.clone()).collect()
                    }
                    _ => Vec::new(),
                };
                let relaxed = match nip {
                    Nip::Tuple(fields) => Nip::Tuple(
                        fields
                            .iter()
                            .map(|(name, field)| match field {
                                Nip::Pred(NipCmp::Lt | NipCmp::Le, _)
                                    if agg_outputs.iter().any(|o| *name == o.as_str()) =>
                                {
                                    (*name, Nip::Any)
                                }
                                other => (*name, other.clone()),
                            })
                            .collect(),
                    ),
                    other => other.clone(),
                };
                matches(&relaxed, &variant.tuple)
                    || traced.fallback_variant(sa_idx).is_some_and(|f| matches(&relaxed, f))
            }
            Some(nip) => matches(nip, &variant.tuple),
        };
        SaFlags { valid: true, consistent, retained: variant.retained }
    };
    sas.iter().enumerate().map(|(sa_idx, sa)| flags(sa_idx, sa)).collect()
}
