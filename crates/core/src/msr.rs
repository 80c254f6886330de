//! `approximateMSRs` — Algorithm 4.
//!
//! The algorithm walks the query top-down (root first). For every schema
//! alternative it maintains a queue of *partial successful reparameterizations*
//! (partial SRs), seeded with the operators whose attribute references the
//! alternative substitutes. At each operator `op` it checks the tracing
//! annotations:
//!
//! * if some tuple at `op`'s traced output is valid, consistent, **not**
//!   retained, and lies in the lineage of a consistent output tuple, then
//!   reparameterizing `op` can help: the partial SR is extended with `op`
//!   (line 8–12);
//! * if some tuple has all annotations set, the missing answer's data can also
//!   pass `op` unchanged, so the search additionally continues *without*
//!   adding `op` (lines 13–14).
//!
//! When the walk reaches the bottom of the query, surviving non-empty partial
//! SRs become candidate explanations (lines 15–19); Section 5.4's side-effect
//! bounds and Definition 9's partial order are applied afterwards (see
//! [`crate::side_effects`] and [`crate::rank`]).

use std::collections::{BTreeSet, VecDeque};

use nrab_algebra::{OpId, Operator, QueryPlan};
use nrab_provenance::{SchemaAlternative, TraceResult};

/// A candidate successful reparameterization: the operators to change and the
/// schema alternative it was found under.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct CandidateSr {
    /// Index of the schema alternative.
    pub sa: usize,
    /// The operators whose parameters must change.
    pub ops: BTreeSet<OpId>,
}

/// Runs Algorithm 4 over a trace.
pub fn approximate_msrs(
    plan: &QueryPlan,
    trace: &TraceResult,
    sas: &[SchemaAlternative],
) -> Vec<CandidateSr> {
    // The operators walked top-down, excluding table accesses (they are
    // parameter-free and terminate the walk in the paper as well).
    let ops: Vec<OpId> = plan
        .nodes_top_down()
        .iter()
        .filter(|n| !matches!(n.op, Operator::TableAccess { .. }))
        .map(|n| n.id)
        .collect();
    let mut results: BTreeSet<CandidateSr> = BTreeSet::new();
    if ops.is_empty() {
        return Vec::new();
    }

    for (sa_index, sa) in sas.iter().enumerate() {
        // Line 1–2: the SR prefix of this alternative are the operators whose
        // attribute references it substitutes. If the tracing cannot produce
        // the missing answer under this alternative at all, it contributes
        // nothing.
        if !trace.has_consistent_output(sa_index) {
            continue;
        }
        let contributing = trace.contributing_ids(sa_index);
        let prefix: BTreeSet<OpId> = sa.substituted_ops();

        let mut queue: VecDeque<(usize, BTreeSet<OpId>)> = VecDeque::new();
        let mut seen: BTreeSet<(usize, Vec<OpId>)> = BTreeSet::new();
        queue.push_back((0, prefix));

        while let Some((position, sr)) = queue.pop_front() {
            let key = (position, sr.iter().copied().collect::<Vec<_>>());
            if !seen.insert(key) {
                continue;
            }
            let op_id = ops[position];
            let node = plan.node(op_id).expect("operator exists");
            let op_trace = trace.trace(op_id).expect("trace exists");

            // Line 8: does reparameterizing this operator help?
            let extend_with_op = node.op.is_parameterized()
                && op_trace.has_reparameterization_witness(sa_index, &contributing);
            // Line 13: can the missing answer's data also pass unchanged?
            let all_ones = op_trace.has_all_ones_witness(sa_index, Some(&contributing));

            let is_last = position + 1 == ops.len();
            if !is_last {
                if extend_with_op {
                    let mut extended = sr.clone();
                    extended.insert(op_id);
                    queue.push_back((position + 1, extended));
                }
                if all_ones {
                    queue.push_back((position + 1, sr));
                }
            } else {
                if extend_with_op {
                    let mut extended = sr.clone();
                    extended.insert(op_id);
                    results.insert(CandidateSr { sa: sa_index, ops: extended });
                }
                if all_ones && !sr.is_empty() {
                    results.insert(CandidateSr { sa: sa_index, ops: sr });
                }
            }
        }
    }

    // Keep, for every distinct operator set, the candidate from the earliest
    // schema alternative (preferring the original query).
    let mut deduped: Vec<CandidateSr> = Vec::new();
    for candidate in results {
        match deduped.iter_mut().find(|c| c.ops == candidate.ops) {
            Some(existing) => {
                if candidate.sa < existing.sa {
                    existing.sa = candidate.sa;
                }
            }
            None => deduped.push(candidate),
        }
    }
    deduped
}

#[cfg(test)]
mod tests {
    use super::*;
    use nested_data::{Nip, Value};
    use nested_datagen::person_database;
    use nrab_algebra::expr::{CmpOp, Expr};
    use nrab_algebra::PlanBuilder;
    use nrab_provenance::{trace_plan, OpSubstitution};
    use std::collections::BTreeMap;

    fn running_example() -> nrab_algebra::QueryPlan {
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

    fn sas() -> Vec<SchemaAlternative> {
        let db = person_database();
        let plan = running_example();
        let bt = crate::backtrace::schema_backtrace(&plan, &db, &why_not()).unwrap();
        let alternatives =
            [crate::alternatives::AttributeAlternative::new("person", "address2", "address1")];
        crate::alternatives::enumerate_schema_alternatives(
            &plan,
            &db,
            &why_not(),
            &bt,
            &alternatives,
            16,
        )
        .unwrap()
    }

    #[test]
    fn example_19_explanations() {
        // E≈ = { {σ}, {F, σ} } (Example 19).
        let db = person_database();
        let plan = running_example();
        let sas = sas();
        let trace = trace_plan(&plan, &db, &sas).unwrap();
        let candidates = approximate_msrs(&plan, &trace, &sas);
        let sets: Vec<Vec<OpId>> =
            candidates.iter().map(|c| c.ops.iter().copied().collect()).collect();
        assert!(sets.contains(&vec![2]), "expected {{σ}} in {sets:?}");
        assert!(sets.contains(&vec![1, 2]), "expected {{F, σ}} in {sets:?}");
        assert_eq!(sets.len(), 2, "no further explanations expected: {sets:?}");
        // {σ} is found under the original alternative, {F, σ} under SA 2.
        let sr_sigma = candidates.iter().find(|c| c.ops == BTreeSet::from([2])).unwrap();
        assert_eq!(sr_sigma.sa, 0);
        let sr_both = candidates.iter().find(|c| c.ops == BTreeSet::from([1, 2])).unwrap();
        assert_eq!(sr_both.sa, 1);
    }

    #[test]
    fn without_schema_alternatives_only_the_selection_is_blamed() {
        let db = person_database();
        let plan = running_example();
        let all_sas = sas();
        let only_original = vec![all_sas[0].clone()];
        let trace = trace_plan(&plan, &db, &only_original).unwrap();
        let candidates = approximate_msrs(&plan, &trace, &only_original);
        assert_eq!(candidates.len(), 1);
        assert_eq!(candidates[0].ops, BTreeSet::from([2]));
    }

    #[test]
    fn inconsistent_alternative_contributes_nothing() {
        // Why-not question that no reparameterization captured by the tracing
        // can satisfy (a city that exists nowhere in the data).
        let db = person_database();
        let plan = running_example();
        let why_not = Nip::tuple([
            ("city", Nip::val("Atlantis")),
            ("nList", Nip::bag([Nip::Any, Nip::Star])),
        ]);
        let bt = crate::backtrace::schema_backtrace(&plan, &db, &why_not).unwrap();
        let sas = vec![SchemaAlternative::original(bt.consistency)];
        let trace = trace_plan(&plan, &db, &sas).unwrap();
        assert!(approximate_msrs(&plan, &trace, &sas).is_empty());
    }

    #[test]
    fn prefix_operators_appear_even_without_further_changes() {
        // A why-not question satisfied purely by the schema alternative: ask
        // for LA with Peter in the list, which address1 provides (year 2019)
        // without touching the selection.
        let db = person_database();
        let plan = running_example();
        let why_not = Nip::tuple([
            ("city", Nip::val("LA")),
            (
                "nList",
                Nip::bag([Nip::val(Value::tuple([("name", Value::str("Peter"))])), Nip::Star]),
            ),
        ]);
        let bt = crate::backtrace::schema_backtrace(&plan, &db, &why_not).unwrap();
        let effective = crate::alternatives::apply_substitutions(
            &plan,
            &[OpSubstitution::new(1, "address2", "address1")],
        )
        .unwrap();
        let bt_alt = crate::backtrace::schema_backtrace(&effective, &db, &why_not).unwrap();
        let sas = vec![
            SchemaAlternative::original(bt.consistency),
            SchemaAlternative::new(
                1,
                vec![OpSubstitution::new(1, "address2", "address1")],
                bt_alt.consistency,
            ),
        ];
        let trace = trace_plan(&plan, &db, &sas).unwrap();
        let candidates = approximate_msrs(&plan, &trace, &sas);
        assert!(
            candidates.iter().any(|c| c.ops == BTreeSet::from([1])),
            "the flatten alone should explain the missing LA/Peter tuple: {candidates:?}"
        );
    }

    #[test]
    fn empty_plan_edge_case() {
        // A plan consisting only of a table access has no reparameterizable
        // operators and thus no explanations.
        let db = person_database();
        let plan = PlanBuilder::table("person").build().unwrap();
        let sas = vec![SchemaAlternative::original(BTreeMap::new())];
        let trace = trace_plan(&plan, &db, &sas).unwrap();
        assert!(approximate_msrs(&plan, &trace, &sas).is_empty());
    }
}
