//! Bag-semantics evaluation of NRAB plans (the `⟦Q⟧_D` column of Table 1).
//!
//! Evaluation is built on the shared-immutable value layer: operators return
//! `Arc<Bag>` so table accesses share base relations instead of copying them,
//! result bags are assembled through [`BagBuilder`] (hash-deduplicated, sorted
//! once) instead of per-insert binary searches, and operator parameters are
//! interned to [`Sym`]s once per operator application so per-tuple field
//! lookups are integer compares.

use std::borrow::Borrow;
use std::sync::Arc;

use nested_data::{AttrPath, Bag, BagBuilder, NestedType, Sym, Tuple, TupleType, Value};

use crate::agg::AggFunc;
use crate::database::Database;
use crate::error::{AlgebraError, AlgebraResult};
use crate::expr::Expr;
use crate::join::join_matches;
use crate::operator::{AggSpec, FlattenKind, JoinKind, Operator};
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
fn evaluate_node(node: &OpNode, db: &Database) -> AlgebraResult<Arc<Bag>> {
    let inputs: Vec<Arc<Bag>> =
        node.inputs.iter().map(|i| evaluate_node(i, db)).collect::<AlgebraResult<_>>()?;
    apply_operator(node, &inputs, db)
}

/// Applies a node's operator to already-evaluated inputs.
fn apply_operator(node: &OpNode, inputs: &[Arc<Bag>], db: &Database) -> AlgebraResult<Arc<Bag>> {
    if whynot_guard::armed() {
        // Deadline check once per operator application, and the
        // operator's total input rows drawn from the eval-row budget —
        // deterministic in the plan and data.
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
        Operator::Projection { .. }
        | Operator::Rename { .. }
        | Operator::TupleFlatten { .. }
        | Operator::TupleNest { .. }
        | Operator::NestAggregation { .. } => {
            let transform = RowTransform::compile(node, db)?;
            transform.map_rows(input(0)?).map(Arc::new)
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
        Operator::Flatten { kind, attr, alias } => {
            let flatten =
                RowFlatten::new(attr, alias.as_deref(), &output_type(&node.inputs[0], db)?);
            eval_flatten(input(0)?, *kind, &flatten).map(Arc::new)
        }
        Operator::RelationNest { attrs, into } => {
            Ok(Arc::new(eval_relation_nest(input(0)?, &RowNest::new(attrs, into))))
        }
        Operator::GroupAggregation { group_by, aggs } => {
            Ok(Arc::new(eval_group_aggregation(input(0)?, group_by, aggs)))
        }
        Operator::Union => Ok(Arc::new(input(0)?.union(input(1)?))),
        Operator::Difference => Ok(Arc::new(input(0)?.difference(input(1)?))),
        Operator::Dedup => Ok(Arc::new(input(0)?.dedup())),
    }
}

/// A 1:1 operator (π, ρ, Fᵀ, νᵀ, γᵀ or δ) compiled once per application into
/// its per-row transform: attribute names are interned and the schema-
/// dependent parts resolved once, so applying it to a row does no schema
/// inference. The evaluator maps every row of the input through it; the
/// provenance tracer applies it to every traced variant.
pub struct RowTransform(Kernel);

enum Kernel {
    /// π: each output column evaluated against the row.
    Project(Vec<(Sym, Expr)>),
    /// ρ: attributes renamed.
    Rename(Vec<(Sym, Sym)>),
    /// Fᵀ: the tuple value at `source` spliced into the row, or added under
    /// `alias`. `padding` holds the source's attribute names when its type
    /// is a tuple type, to pad a `⊥` source with.
    TupleFlatten { source: AttrPath, alias: Option<Sym>, padding: Option<Vec<Sym>> },
    /// νᵀ: `attrs` folded into the nested tuple `into`.
    TupleNest { attrs: Vec<Sym>, into: Sym },
    /// γᵀ: the nested collection at `attr` (or its `field`) aggregated into
    /// `output`.
    NestAggregation { func: AggFunc, attr: Sym, field: Option<Sym>, output: Sym },
    /// δ: the identity on one row (the evaluator deduplicates the bag
    /// instead).
    Identity,
}

impl RowTransform {
    /// Compiles `node`'s operator against its input schema.
    ///
    /// Fails if the operator is not 1:1, or if a tuple flatten's input
    /// schema does not infer.
    pub fn compile(node: &OpNode, db: &Database) -> AlgebraResult<RowTransform> {
        let kernel = match &node.op {
            Operator::Projection { columns } => Kernel::Project(
                columns.iter().map(|c| (Sym::intern(&c.name), c.expr.clone())).collect(),
            ),
            Operator::Rename { pairs } => Kernel::Rename(
                pairs.iter().map(|p| (Sym::intern(&p.from), Sym::intern(&p.to))).collect(),
            ),
            Operator::TupleFlatten { source, alias } => {
                let input_schema = output_type(&node.inputs[0], db)?;
                let padding = match input_schema.resolve_path(source) {
                    Ok(NestedType::Tuple(t)) => Some(t.attribute_syms().collect()),
                    _ => None,
                };
                Kernel::TupleFlatten {
                    source: source.clone(),
                    alias: alias.as_deref().map(Sym::intern),
                    padding,
                }
            }
            Operator::TupleNest { attrs, into } => Kernel::TupleNest {
                attrs: attrs.iter().map(|a| Sym::intern(a)).collect(),
                into: Sym::intern(into),
            },
            Operator::NestAggregation { func, attr, field, output } => Kernel::NestAggregation {
                func: *func,
                attr: Sym::intern(attr),
                field: field.as_deref().map(Sym::intern),
                output: Sym::intern(output),
            },
            Operator::Dedup => Kernel::Identity,
            other => {
                return Err(AlgebraError::InvalidParameter {
                    operator: other.kind_name().to_string(),
                    message: "not a 1:1 operator".into(),
                })
            }
        };
        Ok(RowTransform(kernel))
    }

    /// Applies the transform to one row.
    pub fn apply(&self, tuple: &Tuple) -> AlgebraResult<Tuple> {
        Ok(match &self.0 {
            Kernel::Project(columns) => {
                Tuple::new(columns.iter().map(|(name, expr)| (*name, expr.eval(tuple))))
            }
            Kernel::Rename(mapping) => tuple.rename(mapping),
            Kernel::TupleFlatten { source, alias, padding } => {
                let extracted = tuple.get_path(source).unwrap_or(Value::Null);
                match (alias, extracted) {
                    (Some(alias), extracted) => tuple.with_field(*alias, extracted),
                    (None, Value::Tuple(inner)) => tuple.concat(&inner)?,
                    (None, Value::Null) => match padding {
                        Some(names) => tuple.concat(&Tuple::null_padded(names))?,
                        None => tuple.clone(),
                    },
                    (None, other) => {
                        return Err(AlgebraError::InvalidParameter {
                            operator: "Fᵀ".into(),
                            message: format!(
                                "tuple flatten without alias expects a tuple value at `{source}`, found {}",
                                other.kind()
                            ),
                        })
                    }
                }
            }
            Kernel::TupleNest { attrs, into } => {
                let nested = tuple.project(attrs).unwrap_or_else(|_| Tuple::empty());
                tuple.without(attrs).with_field(*into, Value::from_tuple(nested))
            }
            Kernel::NestAggregation { func, attr, field, output } => {
                let values: Vec<Value> = match tuple.get(*attr) {
                    Some(Value::Bag(b)) => b
                        .iter_expanded()
                        .map(|element| match field {
                            Some(f) => element
                                .as_tuple()
                                .and_then(|t| t.get(*f).cloned())
                                .unwrap_or(Value::Null),
                            None => element.clone(),
                        })
                        .collect(),
                    _ => Vec::new(),
                };
                tuple.with_field(*output, func.apply(values.iter()))
            }
            Kernel::Identity => tuple.clone(),
        })
    }

    /// Maps every row of `input` through the transform. A non-tuple entry
    /// reads as the empty tuple, except under ρ, which passes it through.
    fn map_rows(&self, input: &Bag) -> AlgebraResult<Bag> {
        let empty = Tuple::empty();
        let mut out = BagBuilder::with_capacity(input.distinct());
        for (v, m) in input.iter() {
            let row = match (v.as_tuple(), &self.0) {
                (None, Kernel::Rename(_)) => v.clone(),
                (tuple, _) => Value::from_tuple(self.apply(tuple.unwrap_or(&empty))?),
            };
            out.add(row, *m);
        }
        Ok(out.finish())
    }
}

/// A relation flatten `F` compiled against its input schema: the per-row
/// expansion shared by the evaluator and the provenance tracer's
/// generalized (always outer) flatten.
pub struct RowFlatten {
    attr: Sym,
    alias: Option<Sym>,
    /// The element type's attribute names, to pad an empty collection with.
    padding: Vec<Sym>,
    /// Where a non-tuple element goes without an alias: `{attr}_value`.
    value_field: Sym,
}

impl RowFlatten {
    /// Compiles the flatten of `attr` (under `alias`, if any) for rows of
    /// `input_schema`.
    pub fn new(attr: &str, alias: Option<&str>, input_schema: &TupleType) -> RowFlatten {
        let padding = match input_schema.attribute(attr) {
            Some(NestedType::Relation(t)) => t.attribute_syms().collect(),
            _ => Vec::new(),
        };
        RowFlatten {
            attr: Sym::intern(attr),
            alias: alias.map(Sym::intern),
            padding,
            value_field: Sym::intern(&format!("{attr}_value")),
        }
    }

    /// One output row per distinct element of the row's nested collection,
    /// with the element's multiplicity; none if the collection is empty or
    /// absent.
    pub fn elements(&self, tuple: &Tuple) -> AlgebraResult<Vec<(Tuple, u64)>> {
        let Some(Value::Bag(nested)) = tuple.get(self.attr) else { return Ok(Vec::new()) };
        nested
            .iter()
            .map(|(element, m)| {
                let row = match (self.alias, element) {
                    (Some(alias), element) => tuple.with_field(alias, element.clone()),
                    (None, Value::Tuple(inner)) => tuple.concat(inner)?,
                    // Elements that are not tuples (e.g. bare strings) are
                    // exposed under the attribute's own name suffixed with
                    // `_value` so flattening plain lists still works.
                    (None, other) => tuple.with_field(self.value_field, other.clone()),
                };
                Ok((row, *m))
            })
            .collect()
    }

    /// The outer flatten's row for an empty or absent collection: the row
    /// padded with `⊥`.
    pub fn pad(&self, tuple: &Tuple) -> AlgebraResult<Tuple> {
        Ok(match self.alias {
            Some(alias) => tuple.with_field(alias, Value::Null),
            None => tuple.concat(&Tuple::null_padded(&self.padding))?,
        })
    }
}

/// A relation nest `Nᴿ` compiled once per application: the per-row group
/// key and nested element, and the per-group output row, shared by the
/// evaluator and the provenance tracer.
pub struct RowNest {
    attrs: Vec<Sym>,
    into: Sym,
}

impl RowNest {
    /// Compiles the nest of `attrs` into the nested collection `into`.
    pub fn new(attrs: &[String], into: &str) -> RowNest {
        RowNest { attrs: attrs.iter().map(|a| Sym::intern(a)).collect(), into: Sym::intern(into) }
    }

    /// The group a row belongs to: the row without the nested attributes.
    pub fn key(&self, tuple: &Tuple) -> Value {
        Value::from_tuple(tuple.without(&self.attrs))
    }

    /// The element a row adds to its group's nested collection, if any.
    pub fn element(&self, tuple: &Tuple) -> Option<Value> {
        let projected = tuple.project(&self.attrs).ok()?;
        // Mirror Spark's behaviour (relied upon by scenario D2): rows whose
        // nested values are all null do not contribute an element to the
        // nested collection.
        projected.fields().iter().any(|(_, v)| !v.is_null()).then(|| Value::from_tuple(projected))
    }

    /// A group's output row: its key extended by the nested collection.
    pub fn output(&self, key: &Value, nested: Bag) -> Tuple {
        let key_tuple = key.as_tuple().cloned().unwrap_or_else(Tuple::empty);
        key_tuple.with_field(self.into, Value::from_bag(nested))
    }
}

/// Folds one group into its output row: `key` extended by each aggregate
/// over the group's `members`. Shared by the evaluator's grouped
/// aggregation and the provenance tracer's.
pub fn aggregate_group(key: Tuple, aggs: &[AggSpec], members: &[impl Borrow<Tuple>]) -> Tuple {
    aggs.iter().fold(key, |row, agg| {
        let values: Vec<Value> = members.iter().map(|t| agg.input.eval(t.borrow())).collect();
        row.with_field(agg.output.as_str(), agg.func.apply(values.iter()))
    })
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

fn eval_flatten(input: &Bag, kind: FlattenKind, flatten: &RowFlatten) -> AlgebraResult<Bag> {
    let mut out = BagBuilder::with_capacity(input.distinct());
    for (v, m) in input.iter() {
        let tuple = v.as_tuple().cloned().unwrap_or_else(Tuple::empty);
        let rows = flatten.elements(&tuple)?;
        if rows.is_empty() && kind == FlattenKind::Outer {
            out.add(Value::from_tuple(flatten.pad(&tuple)?), *m);
        }
        for (row, em) in rows {
            out.add(Value::from_tuple(row), m * em);
        }
    }
    Ok(out.finish())
}

fn eval_relation_nest(input: &Bag, nest: &RowNest) -> Bag {
    let empty = Tuple::empty();
    let groups = input.group_by(|v| nest.key(v.as_tuple().unwrap_or(&empty)));
    let mut out = BagBuilder::with_capacity(groups.len());
    for (key, group) in groups {
        let mut nested = BagBuilder::with_capacity(group.distinct());
        for (v, m) in group.iter() {
            if let Some(element) = nest.element(v.as_tuple().unwrap_or(&empty)) {
                nested.add(element, *m);
            }
        }
        out.add(Value::from_tuple(nest.output(&key, nested.finish())), 1);
    }
    out.finish()
}

fn eval_group_aggregation(input: &Bag, group_by: &[String], aggs: &[AggSpec]) -> Bag {
    let group_syms: Vec<Sym> = group_by.iter().map(|a| Sym::intern(a)).collect();
    let groups = input.group_by(|v| {
        let tuple = v.as_tuple().cloned().unwrap_or_else(Tuple::empty);
        Value::from_tuple(tuple.project(&group_syms).unwrap_or_else(|_| Tuple::empty()))
    });
    let empty = Tuple::empty();
    let mut out = BagBuilder::with_capacity(groups.len());
    for (key, group) in groups {
        let key_tuple = key.as_tuple().cloned().unwrap_or_else(Tuple::empty);
        let members: Vec<&Tuple> =
            group.iter_expanded().map(|v| v.as_tuple().unwrap_or(&empty)).collect();
        out.add(Value::from_tuple(aggregate_group(key_tuple, aggs, &members)), 1);
    }
    out.finish()
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
