//! Loose side-effect bounds (Section 5.4).
//!
//! The exact number of side effects of an explanation would require comparing
//! the original query result against the result of every concrete
//! reparameterization; instead, the paper (and this module) computes loose
//! lower and upper bounds `LB = LB(Δ⁺) + LB(Δ⁻)` and `UB = UB(Δ⁺) + UB(Δ⁻)`
//! from the counting information already present in the trace:
//!
//! * `UB(Δ⁺)` — valid result tuples that an explanation's reparameterizations
//!   could *add*: tuples whose lineage passes through a non-retained tuple at
//!   one of the explanation's operators (original alternative), or tuples that
//!   do not coincide with a fully-retained original tuple (other
//!   alternatives).
//! * `UB(Δ⁻)` — original result tuples that could disappear.
//! * `LB` — zero whenever the explanation touches a selection or join (a
//!   careful reparameterization might avoid all side effects); otherwise the
//!   difference between the retained tuple count and the original result size.

use std::collections::BTreeSet;
use std::fmt;

use nrab_algebra::{OpId, Operator, QueryPlan};
use nrab_provenance::{AnnotatedTuple, TraceResult};

/// Lower and upper bounds on the number of side effects of an explanation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct SideEffectBounds {
    /// Lower bound `LB(Δ⁺) + LB(Δ⁻)`.
    pub lower: u64,
    /// Upper bound `UB(Δ⁺) + UB(Δ⁻)`.
    pub upper: u64,
}

impl fmt::Display for SideEffectBounds {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {}]", self.lower, self.upper)
    }
}

/// Computes the side-effect bounds of one candidate explanation.
///
/// The lineage counts that do not depend on the candidate are memoised in
/// `trace` on the first call; only the `UB(Δ⁺)` walk of a candidate under the
/// original alternative runs once per candidate.
pub fn side_effect_bounds(
    plan: &QueryPlan,
    trace: &TraceResult,
    sa: usize,
    ops: &BTreeSet<OpId>,
    original_result_size: u64,
) -> SideEffectBounds {
    let root = trace.root_trace();
    // Root tuples of the original alternative whose whole lineage is retained:
    // these reproduce the original query result.
    let fully_retained_original = trace.fully_retained_root_ids(0);
    let unchanged_original = |t: &AnnotatedTuple<'_>| {
        fully_retained_original.contains(&t.traced.id)
            && t.traced.variant(sa) == t.traced.variant(0)
    };

    // UB(Δ⁺)
    let ub_plus = if sa == 0 {
        trace.tainted_root_ids(sa, Some(ops)).len() as u64
    } else {
        root.tuples().filter(|t| t.flags(sa).valid && !unchanged_original(t)).count() as u64
    };

    // UB(Δ⁻): original tuples that are not guaranteed to survive.
    let surviving =
        root.tuples().filter(|t| t.flags(sa).valid && unchanged_original(t)).count() as u64;
    let ub_minus = original_result_size.saturating_sub(surviving);

    // LB: zero when a selection or join is part of the explanation.
    let touches_selective_op = ops.iter().any(|op| {
        plan.node(*op)
            .map(|n| matches!(n.op, Operator::Selection { .. } | Operator::Join { .. }))
            .unwrap_or(false)
    });
    let (lb_plus, lb_minus) = if touches_selective_op {
        (0, 0)
    } else {
        let valid_retained = trace.fully_retained_root_ids(sa).len() as u64;
        (
            valid_retained.saturating_sub(original_result_size),
            original_result_size.saturating_sub(valid_retained),
        )
    };

    SideEffectBounds { lower: lb_plus + lb_minus, upper: ub_plus + ub_minus }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alternatives::{enumerate_schema_alternatives, AttributeAlternative};
    use crate::backtrace::schema_backtrace;
    use nested_data::Nip;
    use nested_datagen::person_database;
    use nrab_algebra::expr::{CmpOp, Expr};
    use nrab_algebra::{evaluate, Database, PlanBuilder};
    use nrab_provenance::trace_plan;

    fn setup() -> (
        nrab_algebra::QueryPlan,
        Database,
        Vec<nrab_provenance::SchemaAlternative>,
        TraceResult,
        u64,
    ) {
        let db = person_database();
        let plan = PlanBuilder::table("person")
            .inner_flatten("address2", None)
            .select(Expr::attr_cmp("year", CmpOp::Ge, 2019i64))
            .project_attrs(&["name", "city"])
            .relation_nest(vec!["name"], "nList")
            .build()
            .unwrap();
        let why_not =
            Nip::tuple([("city", Nip::val("NY")), ("nList", Nip::bag([Nip::Any, Nip::Star]))]);
        let bt = schema_backtrace(&plan, &db, &why_not).unwrap();
        let sas = enumerate_schema_alternatives(
            &plan,
            &db,
            &why_not,
            &bt,
            &[AttributeAlternative::new("person", "address2", "address1")],
            16,
        )
        .unwrap();
        let trace = trace_plan(&plan, &db, &sas).unwrap();
        let size = evaluate(&plan, &db).unwrap().total();
        (plan, db, sas, trace, size)
    }

    #[test]
    fn selection_explanation_has_zero_lower_bound() {
        let (plan, _db, _sas, trace, size) = setup();
        let bounds = side_effect_bounds(&plan, &trace, 0, &BTreeSet::from([2]), size);
        assert_eq!(bounds.lower, 0);
        assert!(bounds.upper >= 1, "relaxing the selection adds at least the NY tuple");
    }

    #[test]
    fn example_10_ordering_of_side_effects() {
        // SRσ (selection only, original SA) has *more* potential side effects
        // than SR_Fσ (flatten + selection, SA 2): T2 adds a whole SF tuple
        // while T3 only modifies nested content (Figure 2).
        let (plan, _db, _sas, trace, size) = setup();
        let sigma = side_effect_bounds(&plan, &trace, 0, &BTreeSet::from([2]), size);
        let f_sigma = side_effect_bounds(&plan, &trace, 1, &BTreeSet::from([1, 2]), size);
        assert!(
            sigma.upper >= f_sigma.upper,
            "σ-only repair should not have a smaller upper bound: {sigma} vs {f_sigma}"
        );
    }

    #[test]
    fn bounds_are_monotone_in_the_operator_set() {
        let (plan, _db, _sas, trace, size) = setup();
        let small = side_effect_bounds(&plan, &trace, 0, &BTreeSet::from([2]), size);
        let large = side_effect_bounds(&plan, &trace, 0, &BTreeSet::from([1, 2]), size);
        assert!(large.upper >= small.upper);
    }

    #[test]
    fn display_format() {
        let bounds = SideEffectBounds { lower: 0, upper: 3 };
        assert_eq!(bounds.to_string(), "[0, 3]");
    }
}
