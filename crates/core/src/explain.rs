//! The why-not explanation engine (Algorithm 1).

use std::collections::BTreeSet;
use std::sync::Arc;

use nested_data::Nip;
use nrab_algebra::{AlgebraResult, Database, OpId, QueryPlan};
use nrab_provenance::{
    annotate_consistency, trace_plan_generalized, GeneralizedTrace, SchemaAlternative,
};

use crate::alternatives::{
    enumerate_schema_alternatives, AttributeAlternative, DEFAULT_MAX_ALTERNATIVES,
};
use crate::backtrace::schema_backtrace;
use crate::error::WhyNotResult;
use crate::msr::approximate_msrs;
use crate::question::WhyNotQuestion;
use crate::rank::{order_and_prune, RankedCandidate};
use crate::side_effects::{side_effect_bounds, SideEffectBounds};

/// Configuration of the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Whether to reason about schema alternatives (`RP`) or only about the
    /// original attribute references (`RPnoSA`).
    pub use_schema_alternatives: bool,
    /// Cap on the number of enumerated schema alternatives.
    pub max_schema_alternatives: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            use_schema_alternatives: true,
            max_schema_alternatives: DEFAULT_MAX_ALTERNATIVES,
        }
    }
}

/// One query-based explanation: a set of operators that, reparameterized
/// together, can produce the missing answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Explanation {
    /// The operators to change.
    pub operators: BTreeSet<OpId>,
    /// Human-readable labels (`kind` + parameters) of those operators, in
    /// ascending operator-id order.
    pub operator_labels: Vec<String>,
    /// The operator kind symbols (σ, π, ⋈, Fᴵ, ...), ascending by operator id.
    pub operator_kinds: Vec<String>,
    /// The schema alternative under which the explanation was found
    /// (0 = original attribute references).
    pub schema_alternative: usize,
    /// Loose bounds on the explanation's side effects (Section 5.4).
    pub side_effects: SideEffectBounds,
}

impl Explanation {
    /// Whether the explanation blames exactly the given operators.
    pub fn is_exactly(&self, ops: &[OpId]) -> bool {
        self.operators == ops.iter().copied().collect()
    }
}

/// The result of answering a why-not question.
#[derive(Debug, Clone)]
pub struct WhyNotAnswer {
    /// Explanations, ordered by the partial order of Definition 9 (fewer
    /// operators first, then fewer side effects).
    pub explanations: Vec<Explanation>,
    /// The schema alternatives considered (index 0 = original query).
    pub schema_alternatives: Vec<SchemaAlternative>,
    /// Number of top-level tuples of the original query result.
    pub original_result_size: u64,
}

impl WhyNotAnswer {
    /// The position (1-based) of the explanation blaming exactly `ops`,
    /// if present. Used to report gold-standard positions (Table 7).
    pub fn position_of(&self, ops: &[OpId]) -> Option<usize> {
        self.explanations.iter().position(|e| e.is_exactly(ops)).map(|p| p + 1)
    }

    /// All explanations as plain operator-id sets.
    pub fn operator_sets(&self) -> Vec<BTreeSet<OpId>> {
        self.explanations.iter().map(|e| e.operators.clone()).collect()
    }
}

/// Source of generalized (question-independent) traces — the seam where
/// callers plug in trace reuse.
///
/// The engine asks its provider for the generalized trace of `(plan, db,
/// sas)` and then specializes it to the question at hand with the cheap
/// consistency annotation. The default provider ([`DirectTracer`]) recomputes
/// the trace every time; `whynot-service` installs a cache keyed by plan,
/// database, and the substitution signature of the alternatives, so batched
/// and repeated questions skip the expensive generalized evaluation.
pub trait TraceProvider {
    /// Returns the generalized trace of `plan` over `db` under the
    /// substitutions of `sas`.
    fn generalized_trace(
        &mut self,
        plan: &QueryPlan,
        db: &Database,
        sas: &[SchemaAlternative],
    ) -> AlgebraResult<Arc<GeneralizedTrace>>;
}

/// The default trace provider: always recomputes.
#[derive(Debug, Clone, Copy, Default)]
pub struct DirectTracer;

impl TraceProvider for DirectTracer {
    fn generalized_trace(
        &mut self,
        plan: &QueryPlan,
        db: &Database,
        sas: &[SchemaAlternative],
    ) -> AlgebraResult<Arc<GeneralizedTrace>> {
        trace_plan_generalized(plan, db, sas).map(Arc::new)
    }
}

/// The why-not explanation engine.
#[derive(Debug, Clone, Default)]
pub struct WhyNotEngine {
    /// Engine configuration.
    pub config: EngineConfig,
}

impl WhyNotEngine {
    /// The full engine (`RP`): schema alternatives enabled.
    pub fn rp() -> Self {
        WhyNotEngine { config: EngineConfig::default() }
    }

    /// The restricted engine (`RPnoSA`): no schema alternatives.
    pub fn rp_no_sa() -> Self {
        WhyNotEngine {
            config: EngineConfig { use_schema_alternatives: false, ..EngineConfig::default() },
        }
    }

    /// Answers a why-not question.
    ///
    /// `attribute_alternatives` are the alternatives assumed to be provided as
    /// input (Section 5.2); they are ignored in `RPnoSA` mode.
    pub fn explain(
        &self,
        question: &WhyNotQuestion,
        attribute_alternatives: &[AttributeAlternative],
    ) -> WhyNotResult<WhyNotAnswer> {
        let original_result = {
            let _span = whynot_obs::span("validate");
            question.validate()?
        };
        let original_result_size = original_result.total();
        self.explain_unchecked(question, attribute_alternatives, original_result_size)
    }

    /// Like [`WhyNotEngine::explain`], but skips question validation (used by
    /// benchmarks that construct questions programmatically and have already
    /// validated them).
    pub fn explain_unchecked(
        &self,
        question: &WhyNotQuestion,
        attribute_alternatives: &[AttributeAlternative],
        original_result_size: u64,
    ) -> WhyNotResult<WhyNotAnswer> {
        self.explain_with_tracer(
            question,
            attribute_alternatives,
            original_result_size,
            &mut DirectTracer,
        )
    }

    /// Like [`WhyNotEngine::explain_unchecked`], but obtains the generalized
    /// trace from the given [`TraceProvider`] instead of recomputing it — the
    /// entry point used by callers that cache traces across questions.
    pub fn explain_with_tracer(
        &self,
        question: &WhyNotQuestion,
        attribute_alternatives: &[AttributeAlternative],
        original_result_size: u64,
        tracer: &mut dyn TraceProvider,
    ) -> WhyNotResult<WhyNotAnswer> {
        let plan = &question.plan;
        let db = &question.db;

        // An engine-stage boundary is the coarsest checkpoint granularity:
        // one deadline check between the steps below, so a
        // tripped request stops before starting the next expensive stage.
        let stage_checkpoint =
            || whynot_guard::checkpoint().map_err(nrab_algebra::AlgebraError::from);

        // Step 1: schema backtracing.
        stage_checkpoint()?;
        let backtrace = {
            let _span = whynot_obs::span("backtrace");
            schema_backtrace(plan, db, &question.why_not)?
        };

        // Step 2: schema alternatives.
        stage_checkpoint()?;
        let alternatives =
            if self.config.use_schema_alternatives { attribute_alternatives } else { &[] };
        let sas = {
            let _span = whynot_obs::span("alternatives");
            let sas = enumerate_schema_alternatives(
                plan,
                db,
                &question.why_not,
                &backtrace,
                alternatives,
                self.config.max_schema_alternatives,
            )?;
            whynot_obs::add("sas", sas.len() as u64);
            sas
        };

        // Step 3: data tracing — the generalized (question-independent) part
        // comes from the provider, the consistency annotation is per-question.
        // (`trace_plan_generalized` and `annotate_consistency` open their own
        // spans; the provider span also covers cache lookups.)
        stage_checkpoint()?;
        let base = {
            let _span = whynot_obs::span("trace_provider");
            tracer.generalized_trace(plan, db, &sas)?
        };
        stage_checkpoint()?;
        let trace = annotate_consistency(&base, plan, &sas);

        // Step 4: approximate MSRs, side-effect bounds, ranking.
        stage_checkpoint()?;
        let _rank_span = whynot_obs::span("rank");
        let candidates = approximate_msrs(plan, &trace, &sas);
        whynot_obs::add("candidates", candidates.len() as u64);
        let ranked: Vec<RankedCandidate> = candidates
            .into_iter()
            .map(|candidate| {
                let bounds = side_effect_bounds(
                    plan,
                    &trace,
                    candidate.sa,
                    &candidate.ops,
                    original_result_size,
                );
                RankedCandidate { candidate, bounds }
            })
            .collect();
        let ranked = order_and_prune(ranked);
        whynot_obs::add("explanations", ranked.len() as u64);

        let explanations = ranked.into_iter().map(|r| build_explanation(plan, r)).collect();
        Ok(WhyNotAnswer { explanations, schema_alternatives: sas, original_result_size })
    }

    /// Convenience wrapper: answer a why-not question given plan, database,
    /// and NIP directly.
    pub fn explain_query(
        &self,
        plan: QueryPlan,
        db: nrab_algebra::Database,
        why_not: Nip,
        attribute_alternatives: &[AttributeAlternative],
    ) -> WhyNotResult<WhyNotAnswer> {
        let question = WhyNotQuestion::new(plan, db, why_not);
        self.explain(&question, attribute_alternatives)
    }
}

fn build_explanation(plan: &QueryPlan, ranked: RankedCandidate) -> Explanation {
    let mut labels = Vec::new();
    let mut kinds = Vec::new();
    for op in &ranked.candidate.ops {
        if let Ok(node) = plan.node(*op) {
            labels.push(format!("[{}] {}", node.id, node.op));
            kinds.push(node.op.kind_name().to_string());
        }
    }
    Explanation {
        operators: ranked.candidate.ops,
        operator_labels: labels,
        operator_kinds: kinds,
        schema_alternative: ranked.candidate.sa,
        side_effects: ranked.bounds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nested_data::{Bag, NestedType, TupleType, Value};
    use nrab_algebra::expr::{CmpOp, Expr};
    use nrab_algebra::{Database, PlanBuilder};

    fn person_db() -> Database {
        let address =
            TupleType::new([("city", NestedType::str()), ("year", NestedType::int())]).unwrap();
        let person_ty = TupleType::new([
            ("name", NestedType::str()),
            ("address1", NestedType::Relation(address.clone())),
            ("address2", NestedType::Relation(address)),
        ])
        .unwrap();
        let addr = |city: &str, year: i64| {
            Value::tuple([("city", Value::str(city)), ("year", Value::int(year))])
        };
        let peter = Value::tuple([
            ("name", Value::str("Peter")),
            ("address1", Value::bag([addr("NY", 2010), addr("LA", 2019), addr("LV", 2017)])),
            ("address2", Value::bag([addr("LA", 2010), addr("SF", 2018)])),
        ]);
        let sue = Value::tuple([
            ("name", Value::str("Sue")),
            ("address1", Value::bag([addr("LA", 2019), addr("NY", 2018)])),
            ("address2", Value::bag([addr("LA", 2019), addr("NY", 2018)])),
        ]);
        let mut db = Database::new();
        db.add_relation("person", person_ty, Bag::from_values([peter, sue]));
        db
    }

    fn running_example() -> QueryPlan {
        PlanBuilder::table("person")
            .inner_flatten("address2", None)
            .select(Expr::attr_cmp("year", CmpOp::Ge, 2019i64))
            .project_attrs(&["name", "city"])
            .relation_nest(vec!["name"], "nList")
            .build()
            .unwrap()
    }

    fn why_not() -> Nip {
        Nip::tuple([("city", Nip::val("NY")), ("nList", Nip::bag([Nip::Any, Nip::Star]))])
    }

    #[test]
    fn full_engine_reproduces_example_1_and_19() {
        let question = WhyNotQuestion::new(running_example(), person_db(), why_not());
        let answer = WhyNotEngine::rp()
            .explain(&question, &[AttributeAlternative::new("person", "address2", "address1")])
            .unwrap();
        assert_eq!(answer.schema_alternatives.len(), 2);
        assert_eq!(answer.original_result_size, 1);
        let sets = answer.operator_sets();
        assert_eq!(sets.len(), 2, "{sets:?}");
        // {σ} ranked before {F, σ} (Example 10 / Section 5.4).
        assert!(answer.explanations[0].is_exactly(&[2]));
        assert!(answer.explanations[1].is_exactly(&[1, 2]));
        assert_eq!(answer.position_of(&[2]), Some(1));
        assert_eq!(answer.position_of(&[1, 2]), Some(2));
        assert_eq!(answer.explanations[1].schema_alternative, 1);
        assert_eq!(answer.explanations[0].operator_kinds, vec!["σ"]);
        assert_eq!(answer.explanations[1].operator_kinds, vec!["Fᴵ", "σ"]);
        assert!(answer.explanations[0].operator_labels[0].contains("2019"));
    }

    #[test]
    fn rp_no_sa_finds_only_the_selection() {
        let question = WhyNotQuestion::new(running_example(), person_db(), why_not());
        let answer = WhyNotEngine::rp_no_sa()
            .explain(&question, &[AttributeAlternative::new("person", "address2", "address1")])
            .unwrap();
        assert_eq!(answer.schema_alternatives.len(), 1);
        assert_eq!(answer.operator_sets(), vec![BTreeSet::from([2])]);
    }

    #[test]
    fn invalid_questions_are_rejected() {
        // LA is already in the result.
        let question = WhyNotQuestion::new(
            running_example(),
            person_db(),
            Nip::tuple([("city", Nip::val("LA")), ("nList", Nip::Any)]),
        );
        assert!(WhyNotEngine::rp().explain(&question, &[]).is_err());
    }

    #[test]
    fn explain_query_convenience() {
        let answer = WhyNotEngine::rp()
            .explain_query(running_example(), person_db(), why_not(), &[])
            .unwrap();
        assert_eq!(answer.operator_sets(), vec![BTreeSet::from([2])]);
    }
}
