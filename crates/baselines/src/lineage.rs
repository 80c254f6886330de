//! Shared lineage-tracing machinery for the baselines.
//!
//! Both WN++ and the Conseil-style baseline work on the *original* query only:
//! they identify compatible input tuples (input tuples holding the values the
//! missing answer needs) and then follow their successors bottom-up through
//! the plan, checking at every operator whether any successor survives the
//! operator's original parameters.

use std::collections::BTreeSet;

use nested_data::Nip;
use nrab_algebra::{Database, OpId, OpNode, Operator, QueryPlan};
use nrab_provenance::{trace_plan, AnnotatedTuple, SchemaAlternative, TraceResult};
use whynot_core::backtrace::schema_backtrace;
use whynot_core::WhyNotResult;

/// The tracing context shared by the baselines: the single-alternative trace
/// of the original query plus the compatible input tuples per table access.
pub struct LineageContext {
    /// Trace of the original query (one schema alternative).
    pub trace: TraceResult,
    /// Plan operators in bottom-up (post-order) order.
    pub bottom_up: Vec<OpId>,
    /// Compatible input tuple ids, one entry per compatible tuple, tagged with
    /// the table-access operator it belongs to.
    pub compatibles: Vec<(OpId, u64)>,
}

/// Builds the lineage context for a why-not question.
pub fn lineage_context(
    plan: &QueryPlan,
    db: &Database,
    why_not: &Nip,
) -> WhyNotResult<LineageContext> {
    let backtrace = schema_backtrace(plan, db, why_not)?;
    let sa = SchemaAlternative::original(backtrace.consistency.clone());
    let trace = trace_plan(plan, db, &[sa])?;

    // Compatible tuples: table-access tuples matching the pushed-down NIP of
    // the original schema (the `consistent` flag of the table trace).
    let mut compatibles = Vec::new();
    for (table_op, _table, _nip) in &backtrace.table_nips {
        if let Some(table_trace) = trace.trace(*table_op) {
            for tuple in table_trace.tuples() {
                if tuple.flags(0).consistent {
                    compatibles.push((*table_op, tuple.traced.id));
                }
            }
        }
    }

    let bottom_up = post_order(plan);
    Ok(LineageContext { trace, bottom_up, compatibles })
}

/// Plan operator ids in post-order (children before parents).
pub fn post_order(plan: &QueryPlan) -> Vec<OpId> {
    fn visit(node: &OpNode, out: &mut Vec<OpId>) {
        for input in &node.inputs {
            visit(input, out);
        }
        out.push(node.id);
    }
    let mut out = Vec::new();
    visit(&plan.root, &mut out);
    out
}

/// Follows the successors of one compatible tuple bottom-up.
///
/// At every operator that consumes (transitively) the compatible tuple, the
/// operator is *picky* if the compatible still has successors flowing into it
/// but none of them is retained by the operator's original parameters.
///
/// `continue_past_picky` controls the difference between WN++ (stop at the
/// first picky operator) and Conseil (record it and keep following the
/// filtered successors).
pub fn picky_operators(
    plan: &QueryPlan,
    context: &LineageContext,
    compatible: (OpId, u64),
    continue_past_picky: bool,
) -> BTreeSet<OpId> {
    let mut picky = BTreeSet::new();
    let mut live: BTreeSet<u64> = BTreeSet::from([compatible.1]);
    for op_id in &context.bottom_up {
        if *op_id == compatible.0 {
            continue;
        }
        let Ok(node) = plan.node(*op_id) else { continue };
        if matches!(node.op, Operator::TableAccess { .. }) {
            continue;
        }
        let Some(op_trace) = context.trace.trace(*op_id) else { continue };
        let derived: Vec<AnnotatedTuple<'_>> = op_trace
            .tuples()
            .filter(|t| {
                t.flags(0).valid && t.traced.input_ids(0).iter().any(|id| live.contains(id))
            })
            .collect();
        if derived.is_empty() {
            // This operator is not on the compatible's path (e.g. the other
            // side of a join); the live set is unaffected.
            continue;
        }
        // WN++ traces the compatible (possibly *nested*) tuple itself, so when
        // an operator such as flatten splits a top-level tuple, only the
        // successors still carrying the compatible values count (Example 2).
        // We identify them via the consistency annotation; if none exists the
        // plain derived tuples are followed.
        let carrying: Vec<AnnotatedTuple<'_>> =
            derived.iter().copied().filter(|t| t.flags(0).consistent).collect();
        let successors = if carrying.is_empty() { derived } else { carrying };
        let surviving: BTreeSet<u64> =
            successors.iter().filter(|t| t.flags(0).retained).map(|t| t.traced.id).collect();
        if surviving.is_empty() {
            // All successors are filtered: the operator is picky, but only
            // operators that actually prune data can be blamed by
            // lineage-based approaches (Table 3).
            if node.op.is_pruning() || node.op.is_parameterized() {
                picky.insert(*op_id);
            }
            if !continue_past_picky {
                break;
            }
            live = successors.iter().map(|t| t.traced.id).collect();
        } else {
            live = surviving;
        }
    }
    picky
}

#[cfg(test)]
mod tests {
    use super::*;
    use nested_data::{Bag, NestedType, TupleType, Value};
    use nrab_algebra::expr::{CmpOp, Expr};
    use nrab_algebra::PlanBuilder;

    fn db() -> Database {
        let address =
            TupleType::new([("city", NestedType::str()), ("year", NestedType::int())]).unwrap();
        let person_ty = TupleType::new([
            ("name", NestedType::str()),
            ("address2", NestedType::Relation(address)),
        ])
        .unwrap();
        let sue = Value::tuple([
            ("name", Value::str("Sue")),
            (
                "address2",
                Value::bag([
                    Value::tuple([("city", Value::str("LA")), ("year", Value::int(2019))]),
                    Value::tuple([("city", Value::str("NY")), ("year", Value::int(2018))]),
                ]),
            ),
        ]);
        let peter = Value::tuple([("name", Value::str("Peter")), ("address2", Value::bag([]))]);
        let mut db = Database::new();
        db.add_relation("person", person_ty, Bag::from_values([sue, peter]));
        db
    }

    fn plan() -> QueryPlan {
        PlanBuilder::table("person")
            .inner_flatten("address2", None)
            .select(Expr::attr_cmp("year", CmpOp::Ge, 2019i64))
            .project_attrs(&["name", "city"])
            .build()
            .unwrap()
    }

    #[test]
    fn post_order_visits_children_first() {
        let order = post_order(&plan());
        assert_eq!(order, vec![0, 1, 2, 3]);
    }

    #[test]
    fn compatibles_are_identified_from_the_table_nip() {
        let plan = plan();
        let db = db();
        let why_not = Nip::tuple([("name", Nip::Any), ("city", Nip::val("NY"))]);
        let context = lineage_context(&plan, &db, &why_not).unwrap();
        // Only Sue has an NY address.
        assert_eq!(context.compatibles.len(), 1);
    }

    #[test]
    fn picky_operator_is_the_selection_for_sue() {
        let plan = plan();
        let db = db();
        let why_not = Nip::tuple([("name", Nip::Any), ("city", Nip::val("NY"))]);
        let context = lineage_context(&plan, &db, &why_not).unwrap();
        let compatible = context.compatibles[0];
        let picky = picky_operators(&plan, &context, compatible, false);
        assert_eq!(picky, BTreeSet::from([2]), "the year ≥ 2019 selection filters NY 2018");
    }

    #[test]
    fn empty_nested_collection_blames_the_inner_flatten() {
        let plan = plan();
        let db = db();
        // Ask for Peter (whose address2 is empty): the flatten already removes him.
        let why_not = Nip::tuple([("name", Nip::val("Peter")), ("city", Nip::Any)]);
        let context = lineage_context(&plan, &db, &why_not).unwrap();
        let compatible = context.compatibles[0];
        let picky = picky_operators(&plan, &context, compatible, false);
        assert_eq!(picky, BTreeSet::from([1]));
        // Continuing past the picky flatten also reveals the selection.
        let picky_all = picky_operators(&plan, &context, compatible, true);
        assert!(picky_all.contains(&1));
    }
}
