//! Bag-semantics evaluation of NRAB plans (the `⟦Q⟧_D` column of Table 1).
//!
//! Evaluation is built on the shared-immutable value layer: operators return
//! `Arc<Bag>` so table accesses share base relations instead of copying them,
//! result bags are assembled through [`BagBuilder`] (hash-deduplicated, sorted
//! once) instead of per-insert binary searches, and operator parameters are
//! interned to [`Sym`]s once per operator application so per-tuple field
//! lookups are integer compares.

use std::ops::Range;
use std::sync::Arc;

use nested_data::{Bag, BagBuilder, NestedType, Sym, Tuple, TupleType, Value};

use crate::agg::AggFunc;
use crate::database::Database;
use crate::error::{AlgebraError, AlgebraResult};
use crate::expr::Expr;
use crate::join::join_matches;
use crate::operator::{AggSpec, FlattenKind, JoinKind, Operator, ProjColumn};
use crate::plan::{OpNode, QueryPlan};
use crate::schema::output_type;

/// Evaluates a plan over a database, returning the result relation.
///
/// The result is shared: for a bare table access it is literally the base
/// relation's `Arc`, with no copy.
pub fn evaluate(plan: &QueryPlan, db: &Database) -> AlgebraResult<Arc<Bag>> {
    let _span = whynot_obs::span("eval");
    // Chunked hot loops below raise guard trips as panics ([`whynot_guard::
    // enforce`]); recover them into the ordinary error channel here.
    whynot_guard::catch_trip(|| evaluate_node(&plan.root, db))
        .unwrap_or_else(|trip| Err(AlgebraError::Resource(trip)))
}

/// Evaluates a single plan node over a database, operator at a time.
pub fn evaluate_node(node: &OpNode, db: &Database) -> AlgebraResult<Arc<Bag>> {
    let inputs: Vec<Arc<Bag>> =
        node.inputs.iter().map(|i| evaluate_node(i, db)).collect::<AlgebraResult<_>>()?;
    apply_operator(node, &inputs, db)
}

/// Applies a node's operator to already-evaluated inputs.
///
/// Exposed separately so that the provenance crate can interleave tracing with
/// evaluation while reusing the exact same operator semantics.
pub fn apply_operator(
    node: &OpNode,
    inputs: &[Arc<Bag>],
    db: &Database,
) -> AlgebraResult<Arc<Bag>> {
    if whynot_guard::armed() {
        // Deadline/cancellation check once per operator application, and the
        // operator's total input rows drawn from the eval-row budget —
        // deterministic in the plan and data, not the thread count.
        whynot_guard::checkpoint()?;
        whynot_guard::consume_eval_rows(inputs.iter().map(|b| b.distinct() as u64).sum())?;
    }
    if !whynot_obs::enabled() {
        return apply_operator_impl(node, inputs, db);
    }
    // One span per operator application; children were already evaluated, so
    // sibling operator spans partition the plan's wall time.
    let _span = whynot_obs::span_dyn(|| format!("op:{}#{}", node.op.kind_name(), node.id));
    whynot_obs::add("rows_in", inputs.iter().map(|b| b.distinct() as u64).sum());
    let result = apply_operator_impl(node, inputs, db);
    if let Ok(bag) = &result {
        whynot_obs::add("rows_out", bag.distinct() as u64);
    }
    result
}

fn apply_operator_impl(
    node: &OpNode,
    inputs: &[Arc<Bag>],
    db: &Database,
) -> AlgebraResult<Arc<Bag>> {
    let input = |i: usize| -> AlgebraResult<&Bag> {
        inputs.get(i).map(Arc::as_ref).ok_or_else(|| AlgebraError::WrongArity {
            operator: node.op.kind_name().to_string(),
            expected: node.op.arity(),
            found: inputs.len(),
        })
    };
    match &node.op {
        Operator::TableAccess { table } => Ok(Arc::clone(db.relation_shared(table)?)),
        Operator::Projection { columns } => Ok(Arc::new(eval_projection(input(0)?, columns))),
        Operator::Rename { pairs } => {
            let mapping: Vec<(Sym, Sym)> =
                pairs.iter().map(|p| (Sym::intern(&p.from), Sym::intern(&p.to))).collect();
            Ok(Arc::new(input(0)?.map_values(|v| match v.as_tuple() {
                Some(t) => Value::from_tuple(t.rename(&mapping)),
                None => v.clone(),
            })))
        }
        Operator::Selection { predicate } => Ok(Arc::new(eval_selection(input(0)?, predicate))),
        Operator::Join { kind, predicate } => {
            let left_schema = output_type(&node.inputs[0], db)?;
            let right_schema = output_type(&node.inputs[1], db)?;
            Ok(Arc::new(eval_join(
                input(0)?,
                input(1)?,
                *kind,
                predicate,
                &left_schema,
                &right_schema,
            )))
        }
        Operator::CrossProduct => Ok(Arc::new(eval_join(
            input(0)?,
            input(1)?,
            JoinKind::Inner,
            &Expr::lit(true),
            &TupleType::empty(),
            &TupleType::empty(),
        ))),
        Operator::TupleFlatten { source, alias } => {
            let input_schema = output_type(&node.inputs[0], db)?;
            eval_tuple_flatten(input(0)?, source, alias.as_deref(), &input_schema).map(Arc::new)
        }
        Operator::Flatten { kind, attr, alias } => {
            let input_schema = output_type(&node.inputs[0], db)?;
            eval_flatten(input(0)?, *kind, attr, alias.as_deref(), &input_schema).map(Arc::new)
        }
        Operator::TupleNest { attrs, into } => {
            eval_tuple_nest(input(0)?, attrs, into).map(Arc::new)
        }
        Operator::RelationNest { attrs, into } => {
            eval_relation_nest(input(0)?, attrs, into).map(Arc::new)
        }
        Operator::NestAggregation { func, attr, field, output } => {
            eval_nest_aggregation(input(0)?, *func, attr, field.as_deref(), output).map(Arc::new)
        }
        Operator::GroupAggregation { group_by, aggs } => {
            eval_group_aggregation(input(0)?, group_by, aggs).map(Arc::new)
        }
        Operator::Union => Ok(Arc::new(input(0)?.union(input(1)?))),
        Operator::Difference => Ok(Arc::new(input(0)?.difference(input(1)?))),
        Operator::Dedup => Ok(Arc::new(input(0)?.dedup())),
    }
}

/// Rows per morsel of a chunked parallel pass (the hash-join build, the
/// tracer's fused morsel pass). Morsels fan out over
/// [`whynot_exec::par_map`] and are reassembled in input order, so results
/// are independent of the thread count.
const MORSEL_ROWS: usize = 1024;

/// Splits `rows` into contiguous `MORSEL_ROWS`-sized ranges.
pub fn morsel_ranges(rows: usize) -> Vec<Range<usize>> {
    (0..rows).step_by(MORSEL_ROWS).map(|start| start..(start + MORSEL_ROWS).min(rows)).collect()
}

fn eval_projection(input: &Bag, columns: &[ProjColumn]) -> Bag {
    let names: Vec<Sym> = columns.iter().map(|c| Sym::intern(&c.name)).collect();
    let mut out = BagBuilder::with_capacity(input.distinct());
    for (v, m) in input.iter() {
        let tuple = v.as_tuple().cloned().unwrap_or_else(Tuple::empty);
        let projected = Tuple::new(
            names.iter().zip(columns.iter()).map(|(name, c)| (*name, c.expr.eval(&tuple))),
        );
        out.add(Value::from_tuple(projected), *m);
    }
    out.finish()
}

fn eval_selection(input: &Bag, predicate: &Expr) -> Bag {
    input.filter(|v| v.as_tuple().map(|t| predicate.eval_bool(t)).unwrap_or(false))
}

fn eval_join(
    left: &Bag,
    right: &Bag,
    kind: JoinKind,
    predicate: &Expr,
    left_schema: &TupleType,
    right_schema: &TupleType,
) -> Bag {
    // Materialize each side's row tuples once (non-tuple entries join as the
    // empty tuple, as the nested loop always did) and let the shared join
    // core find the pairs.
    let left_tuples: Vec<Tuple> =
        left.iter().map(|(v, _)| v.as_tuple().cloned().unwrap_or_else(Tuple::empty)).collect();
    let right_tuples: Vec<Tuple> =
        right.iter().map(|(v, _)| v.as_tuple().cloned().unwrap_or_else(Tuple::empty)).collect();
    let left_side: Vec<Option<&Tuple>> = left_tuples.iter().map(Some).collect();
    let right_side: Vec<Option<&Tuple>> = right_tuples.iter().map(Some).collect();
    let matches = join_matches(&left_side, &right_side, predicate, left_schema, right_schema);

    let left_mults: Vec<u64> = left.iter().map(|(_, m)| *m).collect();
    let right_mults: Vec<u64> = right.iter().map(|(_, m)| *m).collect();
    let mut out = BagBuilder::new();
    for pair in matches.pairs {
        out.add(Value::from_tuple(pair.combined), left_mults[pair.left] * right_mults[pair.right]);
    }

    if matches!(kind, JoinKind::Left | JoinKind::Full) {
        let right_names: Vec<Sym> = right_schema.attribute_syms().collect();
        for (li, lt) in left_tuples.iter().enumerate() {
            if !matches.left_matched[li] {
                let padded =
                    lt.concat(&Tuple::null_padded(&right_names)).unwrap_or_else(|_| lt.clone());
                out.add(Value::from_tuple(padded), left_mults[li]);
            }
        }
    }
    if matches!(kind, JoinKind::Right | JoinKind::Full) {
        let left_names: Vec<Sym> = left_schema.attribute_syms().collect();
        for (ri, rt) in right_tuples.iter().enumerate() {
            if !matches.right_matched[ri] {
                let padded =
                    Tuple::null_padded(&left_names).concat(rt).unwrap_or_else(|_| rt.clone());
                out.add(Value::from_tuple(padded), right_mults[ri]);
            }
        }
    }
    out.finish()
}

fn eval_tuple_flatten(
    input: &Bag,
    source: &nested_data::AttrPath,
    alias: Option<&str>,
    input_schema: &TupleType,
) -> AlgebraResult<Bag> {
    let source_ty = input_schema.resolve_path(source).ok().cloned();
    let alias = alias.map(Sym::intern);
    let mut out = BagBuilder::with_capacity(input.distinct());
    for (v, m) in input.iter() {
        let tuple = v.as_tuple().cloned().unwrap_or_else(Tuple::empty);
        let extracted = tuple.get_path(source).unwrap_or(Value::Null);
        let result = match alias {
            Some(alias) => tuple.with_field(alias, extracted),
            None => match extracted {
                Value::Tuple(inner) => tuple.concat(&inner)?,
                Value::Null => match &source_ty {
                    Some(NestedType::Tuple(t)) => {
                        let names: Vec<Sym> = t.attribute_syms().collect();
                        tuple.concat(&Tuple::null_padded(&names))?
                    }
                    _ => tuple.clone(),
                },
                other => {
                    return Err(AlgebraError::InvalidParameter {
                        operator: "Fᵀ".into(),
                        message: format!(
                        "tuple flatten without alias expects a tuple value at `{source}`, found {}",
                        other.kind()
                    ),
                    })
                }
            },
        };
        out.add(Value::from_tuple(result), *m);
    }
    Ok(out.finish())
}

fn eval_flatten(
    input: &Bag,
    kind: FlattenKind,
    attr: &str,
    alias: Option<&str>,
    input_schema: &TupleType,
) -> AlgebraResult<Bag> {
    let attr = Sym::intern(attr);
    let alias = alias.map(Sym::intern);
    let element_ty = match input_schema.attribute(attr) {
        Some(NestedType::Relation(t)) => Some(t.clone()),
        _ => None,
    };
    let padding_names: Vec<Sym> =
        element_ty.as_ref().map(|t| t.attribute_syms().collect()).unwrap_or_default();
    let value_field = Sym::intern(&format!("{attr}_value"));
    let mut out = BagBuilder::with_capacity(input.distinct());
    for (v, m) in input.iter() {
        let tuple = v.as_tuple().cloned().unwrap_or_else(Tuple::empty);
        let nested = tuple.get(attr).cloned().unwrap_or(Value::Null);
        let elements: Vec<(Value, u64)> = match &nested {
            Value::Bag(b) => b.iter().cloned().collect(),
            _ => Vec::new(),
        };
        if elements.is_empty() {
            if kind == FlattenKind::Outer {
                let padded = match alias {
                    Some(alias) => tuple.with_field(alias, Value::Null),
                    None => tuple.concat(&Tuple::null_padded(&padding_names))?,
                };
                out.add(Value::from_tuple(padded), *m);
            }
            continue;
        }
        for (element, em) in elements {
            let combined = match alias {
                Some(alias) => tuple.with_field(alias, element),
                None => match element {
                    Value::Tuple(inner) => tuple.concat(&inner)?,
                    other => {
                        // Elements that are not tuples (e.g. bare strings) are
                        // exposed under the attribute's own name suffixed with
                        // `_value` so flattening plain lists still works.
                        tuple.with_field(value_field, other)
                    }
                },
            };
            out.add(Value::from_tuple(combined), m * em);
        }
    }
    Ok(out.finish())
}

fn eval_tuple_nest(input: &Bag, attrs: &[String], into: &str) -> AlgebraResult<Bag> {
    let attr_syms: Vec<Sym> = attrs.iter().map(|a| Sym::intern(a)).collect();
    let into = Sym::intern(into);
    let mut out = BagBuilder::with_capacity(input.distinct());
    for (v, m) in input.iter() {
        let tuple = v.as_tuple().cloned().unwrap_or_else(Tuple::empty);
        let nested = tuple.project(&attr_syms).unwrap_or_else(|_| Tuple::empty());
        let remaining = tuple.without(&attr_syms);
        out.add(Value::from_tuple(remaining.with_field(into, Value::from_tuple(nested))), *m);
    }
    Ok(out.finish())
}

fn eval_relation_nest(input: &Bag, attrs: &[String], into: &str) -> AlgebraResult<Bag> {
    let attr_syms: Vec<Sym> = attrs.iter().map(|a| Sym::intern(a)).collect();
    let into = Sym::intern(into);
    let groups = input.group_by(|v| {
        let tuple = v.as_tuple().cloned().unwrap_or_else(Tuple::empty);
        Value::from_tuple(tuple.without(&attr_syms))
    });
    let mut out = BagBuilder::with_capacity(groups.len());
    for (key, group) in groups {
        let mut nested = BagBuilder::with_capacity(group.distinct());
        for (v, m) in group.iter() {
            let tuple = v.as_tuple().cloned().unwrap_or_else(Tuple::empty);
            if let Ok(projected) = tuple.project(&attr_syms) {
                // Mirror Spark's behaviour (relied upon by scenario D2): rows
                // whose nested values are all null do not contribute an
                // element to the nested collection.
                if projected.fields().iter().any(|(_, v)| !v.is_null()) {
                    nested.add(Value::from_tuple(projected), *m);
                }
            }
        }
        let key_tuple = key.as_tuple().cloned().unwrap_or_else(Tuple::empty);
        out.add(Value::from_tuple(key_tuple.with_field(into, Value::from_bag(nested.finish()))), 1);
    }
    Ok(out.finish())
}

fn eval_nest_aggregation(
    input: &Bag,
    func: AggFunc,
    attr: &str,
    field: Option<&str>,
    output: &str,
) -> AlgebraResult<Bag> {
    let attr = Sym::intern(attr);
    let field = field.map(Sym::intern);
    let output = Sym::intern(output);
    let mut out = BagBuilder::with_capacity(input.distinct());
    for (v, m) in input.iter() {
        let tuple = v.as_tuple().cloned().unwrap_or_else(Tuple::empty);
        let nested = tuple.get(attr).cloned().unwrap_or(Value::Null);
        let values: Vec<Value> = match &nested {
            Value::Bag(b) => b
                .iter_expanded()
                .map(|element| match field {
                    Some(f) => {
                        element.as_tuple().and_then(|t| t.get(f).cloned()).unwrap_or(Value::Null)
                    }
                    None => element.clone(),
                })
                .collect(),
            _ => Vec::new(),
        };
        let aggregated = func.apply(values.iter());
        let aggregated = match (&aggregated, func) {
            // count over an empty / null collection is 0, not ⊥
            (Value::Null, AggFunc::Count | AggFunc::CountDistinct) => Value::Int(0),
            _ => aggregated,
        };
        out.add(Value::from_tuple(tuple.with_field(output, aggregated)), *m);
    }
    Ok(out.finish())
}

fn eval_group_aggregation(
    input: &Bag,
    group_by: &[String],
    aggs: &[AggSpec],
) -> AlgebraResult<Bag> {
    let group_syms: Vec<Sym> = group_by.iter().map(|a| Sym::intern(a)).collect();
    let output_syms: Vec<Sym> = aggs.iter().map(|a| Sym::intern(&a.output)).collect();
    let groups = input.group_by(|v| {
        let tuple = v.as_tuple().cloned().unwrap_or_else(Tuple::empty);
        Value::from_tuple(tuple.project(&group_syms).unwrap_or_else(|_| Tuple::empty()))
    });
    let mut out = BagBuilder::with_capacity(groups.len());
    for (key, group) in groups {
        let key_tuple = key.as_tuple().cloned().unwrap_or_else(Tuple::empty);
        let mut result = key_tuple;
        for (agg, output) in aggs.iter().zip(output_syms.iter()) {
            let values: Vec<Value> = group
                .iter_expanded()
                .map(|v| {
                    let t = v.as_tuple().cloned().unwrap_or_else(Tuple::empty);
                    agg.input.eval(&t)
                })
                .collect();
            result = result.with_field(*output, agg.func.apply(values.iter()));
        }
        out.add(Value::from_tuple(result), 1);
    }
    Ok(out.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::PlanBuilder;
    use crate::expr::CmpOp;
    use crate::operator::ProjColumn;
    use nested_data::Nip;

    /// The person table of Figure 1a.
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

    #[test]
    fn running_example_produces_figure_1b() {
        let db = person_db();
        let result = evaluate(&running_example(), &db).unwrap();
        // Single tuple ⟨city: LA, nList: {{⟨name: Sue⟩}}⟩.
        assert_eq!(result.total(), 1);
        let expected = Value::tuple([
            ("city", Value::str("LA")),
            ("nList", Value::bag([Value::tuple([("name", Value::str("Sue"))])])),
        ]);
        assert_eq!(result.mult(&expected), 1);
        // And NY is indeed missing (the why-not question of Example 1).
        let nip =
            Nip::tuple([("city", Nip::val("NY")), ("nList", Nip::bag([Nip::Any, Nip::Star]))]);
        assert!(!result.iter().any(|(v, _)| nip.matches(v)));
    }

    #[test]
    fn flatten_inner_multiplies_tuples() {
        let db = person_db();
        let plan = PlanBuilder::table("person").inner_flatten("address2", None).build().unwrap();
        let result = evaluate(&plan, &db).unwrap();
        assert_eq!(result.total(), 4); // 2 addresses for each of the 2 persons
    }

    #[test]
    fn outer_flatten_pads_empty_collections() {
        let mut db = person_db();
        let schema = db.schema("person").unwrap().clone();
        let empty_person = Value::tuple([
            ("name", Value::str("Ann")),
            ("address1", Value::empty_bag()),
            ("address2", Value::empty_bag()),
        ]);
        let mut bag = db.relation("person").unwrap().clone();
        bag.insert(empty_person, 1);
        db.add_relation("person", schema, bag);

        let inner = PlanBuilder::table("person").inner_flatten("address2", None).build().unwrap();
        let outer = PlanBuilder::table("person").outer_flatten("address2", None).build().unwrap();
        assert_eq!(evaluate(&inner, &db).unwrap().total(), 4);
        let outer_result = evaluate(&outer, &db).unwrap();
        assert_eq!(outer_result.total(), 5);
        // Ann appears with null city.
        assert!(outer_result.iter().any(|(v, _)| {
            let t = v.as_tuple().unwrap();
            t.get("name") == Some(&Value::str("Ann")) && t.get("city") == Some(&Value::Null)
        }));
    }

    #[test]
    fn joins_inner_and_outer() {
        let mut db = Database::new();
        let r_ty = TupleType::new([("a", NestedType::int())]).unwrap();
        let s_ty = TupleType::new([("b", NestedType::int())]).unwrap();
        db.add_relation(
            "r",
            r_ty,
            Bag::from_values([
                Value::tuple([("a", Value::int(1))]),
                Value::tuple([("a", Value::int(2))]),
            ]),
        );
        db.add_relation(
            "s",
            s_ty,
            Bag::from_values([
                Value::tuple([("b", Value::int(2))]),
                Value::tuple([("b", Value::int(3))]),
            ]),
        );
        let pred = Expr::cmp(Expr::attr("a"), CmpOp::Eq, Expr::attr("b"));

        let inner = PlanBuilder::table("r")
            .join(PlanBuilder::table("s"), JoinKind::Inner, pred.clone())
            .build()
            .unwrap();
        assert_eq!(evaluate(&inner, &db).unwrap().total(), 1);

        let left = PlanBuilder::table("r")
            .join(PlanBuilder::table("s"), JoinKind::Left, pred.clone())
            .build()
            .unwrap();
        let left_result = evaluate(&left, &db).unwrap();
        assert_eq!(left_result.total(), 2);
        assert!(left_result
            .iter()
            .any(|(v, _)| v.as_tuple().unwrap().get("b") == Some(&Value::Null)));

        let full = PlanBuilder::table("r")
            .join(PlanBuilder::table("s"), JoinKind::Full, pred)
            .build()
            .unwrap();
        assert_eq!(evaluate(&full, &db).unwrap().total(), 3);
    }

    #[test]
    fn join_multiplicities_multiply() {
        let mut db = Database::new();
        let r_ty = TupleType::new([("a", NestedType::int())]).unwrap();
        let s_ty = TupleType::new([("b", NestedType::int())]).unwrap();
        db.add_relation("r", r_ty, Bag::from_entries([(Value::tuple([("a", Value::int(1))]), 2)]));
        db.add_relation("s", s_ty, Bag::from_entries([(Value::tuple([("b", Value::int(1))]), 3)]));
        let plan = PlanBuilder::table("r")
            .join(
                PlanBuilder::table("s"),
                JoinKind::Inner,
                Expr::cmp(Expr::attr("a"), CmpOp::Eq, Expr::attr("b")),
            )
            .build()
            .unwrap();
        let result = evaluate(&plan, &db).unwrap();
        assert_eq!(result.total(), 6);
    }

    #[test]
    fn projection_merges_duplicates() {
        let db = person_db();
        let plan = PlanBuilder::table("person")
            .inner_flatten("address1", None)
            .project_attrs(&["name"])
            .build()
            .unwrap();
        let result = evaluate(&plan, &db).unwrap();
        // Peter has 3 address1 entries, Sue 2.
        assert_eq!(result.mult(&Value::tuple([("name", Value::str("Peter"))])), 3);
        assert_eq!(result.mult(&Value::tuple([("name", Value::str("Sue"))])), 2);
    }

    #[test]
    fn tuple_nest_and_tuple_flatten_roundtrip() {
        let db = person_db();
        let plan = PlanBuilder::table("person")
            .inner_flatten("address2", None)
            .tuple_nest(vec!["city", "year"], "addr")
            .tuple_flatten("addr.city", Some("city_again"))
            .build()
            .unwrap();
        let result = evaluate(&plan, &db).unwrap();
        assert!(result.iter().all(|(v, _)| v.as_tuple().unwrap().contains("city_again")));
    }

    #[test]
    fn nest_aggregation_counts_nested_elements() {
        let db = person_db();
        let plan = PlanBuilder::table("person")
            .nest_aggregate(AggFunc::Count, "address2", None, "cnt")
            .build()
            .unwrap();
        let result = evaluate(&plan, &db).unwrap();
        for (v, _) in result.iter() {
            assert_eq!(v.as_tuple().unwrap().get("cnt"), Some(&Value::int(2)));
        }
    }

    #[test]
    fn group_aggregation_sums_per_group() {
        let db = person_db();
        let plan = PlanBuilder::table("person")
            .inner_flatten("address1", None)
            .group_aggregate(
                vec!["name"],
                vec![
                    AggSpec::new(AggFunc::Count, Expr::attr("city"), "n"),
                    AggSpec::new(AggFunc::Max, Expr::attr("year"), "latest"),
                ],
            )
            .build()
            .unwrap();
        let result = evaluate(&plan, &db).unwrap();
        assert_eq!(result.total(), 2);
        let peter = result
            .iter()
            .find(|(v, _)| v.as_tuple().unwrap().get("name") == Some(&Value::str("Peter")))
            .unwrap();
        assert_eq!(peter.0.as_tuple().unwrap().get("n"), Some(&Value::int(3)));
        assert_eq!(peter.0.as_tuple().unwrap().get("latest"), Some(&Value::int(2019)));
    }

    #[test]
    fn union_difference_dedup() {
        let mut db = Database::new();
        let ty = TupleType::new([("x", NestedType::int())]).unwrap();
        let one = Value::tuple([("x", Value::int(1))]);
        let two = Value::tuple([("x", Value::int(2))]);
        db.add_relation("r", ty.clone(), Bag::from_values([one.clone(), one.clone(), two.clone()]));
        db.add_relation("s", ty, Bag::from_values([one.clone()]));

        let union = PlanBuilder::table("r").union(PlanBuilder::table("s")).build().unwrap();
        assert_eq!(evaluate(&union, &db).unwrap().mult(&one), 3);

        let diff = PlanBuilder::table("r").difference(PlanBuilder::table("s")).build().unwrap();
        assert_eq!(evaluate(&diff, &db).unwrap().mult(&one), 1);

        let dedup = PlanBuilder::table("r").dedup().build().unwrap();
        assert_eq!(evaluate(&dedup, &db).unwrap().total(), 2);
    }

    #[test]
    fn rename_changes_attribute_names() {
        let db = person_db();
        let plan = PlanBuilder::table("person")
            .rename(vec![crate::operator::RenamePair::new("name", "person_name")])
            .project_attrs(&["person_name"])
            .build()
            .unwrap();
        let result = evaluate(&plan, &db).unwrap();
        assert!(result.iter().all(|(v, _)| v.as_tuple().unwrap().contains("person_name")));
    }

    #[test]
    fn computed_projection_column() {
        let db = person_db();
        let plan = PlanBuilder::table("person")
            .project(vec![
                ProjColumn::passthrough("name"),
                ProjColumn::computed("addr_count", Expr::size(Expr::attr("address1"))),
            ])
            .build()
            .unwrap();
        let result = evaluate(&plan, &db).unwrap();
        let sue = result
            .iter()
            .find(|(v, _)| v.as_tuple().unwrap().get("name") == Some(&Value::str("Sue")))
            .unwrap();
        assert_eq!(sue.0.as_tuple().unwrap().get("addr_count"), Some(&Value::int(2)));
    }
}
