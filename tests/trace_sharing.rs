//! Schema alternatives that agree share their traced variants: where an
//! alternative evaluates an operator like a lower one on the same input
//! allocations, its variant is that one's, not a recomputed copy. The
//! sharing is counted by the `trace.variants_shared` profile counter; these
//! tests check the count against the trace itself, bound the work left, and
//! check that dropping the alternatives never traces more.

mod harness;

use std::sync::Arc;

use harness::{Case, Recorder, REFERENCE};
use nrab_provenance::{annotate_consistency, trace_plan_generalized, SchemaAlternative};
use whynot_core::WhyNotEngine;
use whynot_scenarios::tpch;

/// TPC-H Q3 at harness scale under the RP engine's 8 schema alternatives:
/// every variant counted as shared is the same allocation as, and equal to,
/// a lower alternative's variant of the same traced tuple, and the variants
/// left to compute are at most twice those of SA 0 traced alone.
#[test]
fn agreeing_alternatives_share_their_variants() {
    let case = harness::scenario_case(tpch::q3(15, false));
    let (output, _) = harness::run(&case, REFERENCE);
    let Case::WhyNot { question, .. } = &case else { unreachable!("a paper scenario") };
    let (plan, db, sas) = (&*question.plan, &*question.db, &output.sas);
    assert_eq!(sas.len(), 8, "Q3 offers 8 schema alternatives");

    let traced = |sas: &[SchemaAlternative]| {
        let (trace, profile) = whynot_obs::profile(|| trace_plan_generalized(plan, db, sas));
        let counter = |name| profile.counter_total(name);
        (trace.expect("Q3 traces"), counter("trace.valid"), counter("trace.variants_shared"))
    };
    let (trace, valid, shared) = traced(sas);
    let (_, valid_alone, shared_alone) = traced(&sas[..1]);
    assert_eq!(shared_alone, 0, "one alternative has nothing to share with");

    // Variants that are the same allocation as, and equal to, a lower
    // alternative's variant of the same tuple.
    let trace = Arc::new(trace);
    let annotated = annotate_consistency(&trace, plan, sas);
    let mut copies = 0u64;
    for &op in trace.pre_order() {
        for tuple in &annotated.trace(op).expect("every operator is traced").trace.tuples {
            for sa in 1..sas.len() {
                let Some(variant) = tuple.get(sa) else { continue };
                let copy = (0..sa).any(|low| {
                    tuple.get(low).is_some_and(|lower| {
                        Arc::ptr_eq(&lower.tuple, &variant.tuple) && lower == variant
                    })
                });
                copies += u64::from(copy);
            }
        }
    }
    assert!(shared > 0, "agreeing alternatives share variants");
    assert!(shared <= copies, "{shared} variants counted as shared, {copies} are copies");
    let computed = valid - shared;
    assert!(
        computed <= 2 * valid_alone,
        "{computed} variants computed under 8 alternatives, {valid_alone} under SA 0 alone"
    );
}

/// For every harness why-not question, RPnoSA (SA 0 only) traces no more
/// tuples than RP: the merged trace of more alternatives covers SA 0's.
#[test]
fn rp_no_sa_traces_no_more_tuples_than_rp() {
    for case in harness::scenarios() {
        let Case::WhyNot { name, question, alternatives } = &case else { continue };
        let (rp, _) = harness::run(&case, REFERENCE);
        let mut recorder = Recorder::default();
        WhyNotEngine::rp_no_sa()
            .explain_with_tracer(question, alternatives, &mut recorder)
            .unwrap_or_else(|e| panic!("{name}: RPnoSA fails: {e}"));
        let (rp_no_sa, _) = recorder.0.expect("the engine traces");
        assert!(
            rp_no_sa.tuple_count() <= rp.trace.tuple_count(),
            "{name}: RPnoSA traces {} tuples, RP {}",
            rp_no_sa.tuple_count(),
            rp.trace.tuple_count()
        );
    }
}
