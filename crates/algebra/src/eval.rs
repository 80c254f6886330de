//! Bag-semantics evaluation of NRAB plans (the `⟦Q⟧_D` column of Table 1).
//!
//! Operators pass each other rows: `(value, multiplicity)` entries in no
//! particular order, with equal values not necessarily merged. σ and the 1:1
//! operators map rows, F and ⋈ push one row per element or pair, ∪
//! concatenates, and a table access borrows its base relation's entries. δ
//! and − merge rows by value in a hash map; `Nᴿ` and `γ` group them in one.
//! A canonical [`Bag`] is built only where bag semantics needs merged
//! values: the root result (one [`Bag::from_entries`]; a plan that is only a
//! table access returns the base relation's `Arc`), each nested collection
//! `Nᴿ` builds (a [`BagBuilder`]), and each `γ` group's members, folded in
//! canonical order because the row order depends on the plan (`A ∪ B`
//! against `B ∪ A`) and a float `Sum` or `Avg` on the order it adds in.
//! Where equal values differ in representation (`2` and `2.0`), a merge
//! keeps the first in row order. Operator parameters are interned to
//! [`Sym`]s once per operator application, so per-row field lookups are
//! integer compares.

// `Value`'s interior mutability is limited to its lazily cached structural
// hash, which never changes its `Eq`/`Hash` identity.
#![allow(clippy::mutable_key_type)]

use std::borrow::{Borrow, Cow};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
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
    let rows = evaluate_node(&plan.root, db)?;
    Ok(match &plan.root.op {
        Operator::TableAccess { table } => Arc::clone(db.relation_shared(table)?),
        _ => Arc::new(Bag::from_entries(rows.into_owned())),
    })
}

/// An operator's output rows: unordered, with equal values not necessarily
/// merged. A table access borrows its base relation's canonical entries.
type Rows<'db> = Cow<'db, [(Value, u64)]>;

/// Evaluates a single plan node over a database, operator at a time.
fn evaluate_node<'db>(node: &OpNode, db: &'db Database) -> AlgebraResult<Rows<'db>> {
    let inputs: Vec<Rows<'db>> =
        node.inputs.iter().map(|i| evaluate_node(i, db)).collect::<AlgebraResult<_>>()?;
    apply_operator(node, inputs, db)
}

/// Applies a node's operator to already-evaluated inputs.
fn apply_operator<'db>(
    node: &OpNode,
    inputs: Vec<Rows<'db>>,
    db: &'db Database,
) -> AlgebraResult<Rows<'db>> {
    // Row entries, not distinct values: a row repeated by an operator
    // upstream counts once per entry.
    let rows_in: u64 = inputs.iter().map(|rows| rows.len() as u64).sum();
    // One draw per operator application: its input row entries from the
    // eval-row budget, plus the deadline check — deterministic in the plan
    // and data.
    whynot_guard::consume_eval_rows(rows_in)?;
    if !whynot_obs::enabled() {
        return apply_operator_impl(node, inputs, db);
    }
    // One span per operator application; children were already evaluated, so
    // sibling operator spans partition the plan's wall time.
    let _span = whynot_obs::span_dyn(|| format!("op:{}#{}", node.op.kind_name(), node.id));
    whynot_obs::add("rows_in", rows_in);
    let result = apply_operator_impl(node, inputs, db);
    if let Ok(rows) = &result {
        whynot_obs::add("rows_out", rows.len() as u64);
    }
    result
}

fn apply_operator_impl<'db>(
    node: &OpNode,
    inputs: Vec<Rows<'db>>,
    db: &'db Database,
) -> AlgebraResult<Rows<'db>> {
    let found = inputs.len();
    let mut inputs = inputs.into_iter();
    let mut input = || {
        inputs.next().ok_or_else(|| AlgebraError::WrongArity {
            operator: node.op.kind_name().to_string(),
            expected: node.op.arity(),
            found,
        })
    };
    let rows = match &node.op {
        Operator::TableAccess { table } => return Ok(Cow::Borrowed(db.relation(table)?.entries())),
        Operator::Projection { .. }
        | Operator::Rename { .. }
        | Operator::TupleFlatten { .. }
        | Operator::TupleNest { .. }
        | Operator::NestAggregation { .. } => {
            RowTransform::compile(node, db)?.map_rows(&input()?)?
        }
        Operator::Selection { predicate } => eval_selection(&input()?, predicate),
        Operator::Join { kind, predicate } => {
            let (left, right) = (input()?, input()?);
            let schemas = (output_type(&node.inputs[0], db)?, output_type(&node.inputs[1], db)?);
            eval_join(&left, &right, *kind, predicate, &schemas.0, &schemas.1)?
        }
        Operator::CrossProduct => {
            let (left, right, empty) = (input()?, input()?, TupleType::empty());
            eval_join(&left, &right, JoinKind::Inner, &Expr::lit(true), &empty, &empty)?
        }
        Operator::Flatten { kind, attr, alias } => {
            let flatten =
                RowFlatten::new(attr, alias.as_deref(), &output_type(&node.inputs[0], db)?);
            eval_flatten(&input()?, *kind, &flatten)?
        }
        Operator::RelationNest { attrs, into } => {
            eval_relation_nest(&input()?, &RowNest::new(attrs, into))
        }
        Operator::GroupAggregation { group_by, aggs } => {
            eval_group_aggregation(&input()?, group_by, aggs)
        }
        Operator::Union => {
            let (left, right) = (input()?, input()?);
            let mut rows = left.into_owned();
            rows.extend_from_slice(&right);
            rows
        }
        Operator::Difference => eval_difference(&input()?, &input()?),
        Operator::Dedup => eval_dedup(&input()?),
    };
    Ok(Cow::Owned(rows))
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

    /// Maps every row through the transform. A non-tuple entry reads as
    /// the empty tuple, except under ρ, which passes it through.
    fn map_rows(&self, rows: &[(Value, u64)]) -> AlgebraResult<Vec<(Value, u64)>> {
        let empty = Tuple::empty();
        rows.iter()
            .map(|(v, m)| {
                let row = match (v.as_tuple(), &self.0) {
                    (None, Kernel::Rename(_)) => v.clone(),
                    (tuple, _) => Value::from_tuple(self.apply(tuple.unwrap_or(&empty))?),
                };
                Ok((row, *m))
            })
            .collect()
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

fn eval_selection(rows: &[(Value, u64)], predicate: &Expr) -> Vec<(Value, u64)> {
    rows.iter()
        .filter(|(v, _)| v.as_tuple().is_some_and(|t| predicate.eval_bool(t)))
        .cloned()
        .collect()
}

fn eval_join(
    left: &[(Value, u64)],
    right: &[(Value, u64)],
    kind: JoinKind,
    predicate: &Expr,
    left_schema: &TupleType,
    right_schema: &TupleType,
) -> AlgebraResult<Vec<(Value, u64)>> {
    // Borrow each side's row tuples (non-tuple entries join as the empty
    // tuple, as the nested loop always did) and let the shared join core
    // find the pairs.
    let empty = Tuple::empty();
    let left_side: Vec<Option<&Tuple>> =
        left.iter().map(|(v, _)| Some(v.as_tuple().unwrap_or(&empty))).collect();
    let right_side: Vec<Option<&Tuple>> =
        right.iter().map(|(v, _)| Some(v.as_tuple().unwrap_or(&empty))).collect();
    let matches = join_matches(&left_side, &right_side, predicate, left_schema, right_schema)?;

    let mut out: Vec<(Value, u64)> = matches
        .pairs
        .into_iter()
        .map(|pair| (Value::from_tuple(pair.combined), left[pair.left].1 * right[pair.right].1))
        .collect();
    if matches!(kind, JoinKind::Left | JoinKind::Full) {
        let padding = Tuple::null_padded(&right_schema.attribute_syms().collect::<Vec<Sym>>());
        for (li, lt) in left_side.iter().flatten().enumerate() {
            if !matches.left_matched[li] {
                let padded = lt.concat(&padding).unwrap_or_else(|_| (*lt).clone());
                out.push((Value::from_tuple(padded), left[li].1));
            }
        }
    }
    if matches!(kind, JoinKind::Right | JoinKind::Full) {
        let padding = Tuple::null_padded(&left_schema.attribute_syms().collect::<Vec<Sym>>());
        for (ri, rt) in right_side.iter().flatten().enumerate() {
            if !matches.right_matched[ri] {
                let padded = padding.concat(rt).unwrap_or_else(|_| (*rt).clone());
                out.push((Value::from_tuple(padded), right[ri].1));
            }
        }
    }
    Ok(out)
}

fn eval_flatten(
    rows: &[(Value, u64)],
    kind: FlattenKind,
    flatten: &RowFlatten,
) -> AlgebraResult<Vec<(Value, u64)>> {
    let empty = Tuple::empty();
    let mut out = Vec::with_capacity(rows.len());
    for (v, m) in rows {
        let tuple = v.as_tuple().unwrap_or(&empty);
        let elements = flatten.elements(tuple)?;
        if elements.is_empty() && kind == FlattenKind::Outer {
            out.push((Value::from_tuple(flatten.pad(tuple)?), *m));
        }
        out.extend(elements.into_iter().map(|(row, em)| (Value::from_tuple(row), m * em)));
    }
    Ok(out)
}

/// `left − right`: each left row gives up as many copies of its value as
/// the right rows still hold unsubtracted.
fn eval_difference(left: &[(Value, u64)], right: &[(Value, u64)]) -> Vec<(Value, u64)> {
    let mut unsubtracted: HashMap<&Value, u64> = HashMap::new();
    for (v, m) in right {
        *unsubtracted.entry(v).or_insert(0) += m;
    }
    left.iter()
        .filter_map(|(v, m)| {
            let taken = unsubtracted.get_mut(v).map_or(0, |left| {
                let taken = (*left).min(*m);
                *left -= taken;
                taken
            });
            (*m > taken).then(|| (v.clone(), m - taken))
        })
        .collect()
}

/// `δ`: the first row of each value, once.
fn eval_dedup(rows: &[(Value, u64)]) -> Vec<(Value, u64)> {
    let mut seen: HashSet<&Value> = HashSet::with_capacity(rows.len());
    rows.iter().filter(|(v, _)| seen.insert(v)).map(|(v, _)| (v.clone(), 1)).collect()
}

/// Groups rows by key, in the order keys first occur. `entry` maps a row
/// (its value, and its tuple or the empty tuple) to its group key and to the
/// value it adds to the group's bag, if any.
fn group_rows(
    rows: &[(Value, u64)],
    mut entry: impl FnMut(&Value, &Tuple) -> (Value, Option<Value>),
) -> Vec<(Value, BagBuilder)> {
    let empty = Tuple::empty();
    let mut index: HashMap<Value, usize> = HashMap::new();
    let mut groups: Vec<(Value, BagBuilder)> = Vec::new();
    for (v, m) in rows {
        let (key, member) = entry(v, v.as_tuple().unwrap_or(&empty));
        let group = match index.entry(key) {
            Entry::Occupied(slot) => *slot.get(),
            Entry::Vacant(slot) => {
                groups.push((slot.key().clone(), BagBuilder::new()));
                *slot.insert(groups.len() - 1)
            }
        };
        if let Some(member) = member {
            groups[group].1.add(member, *m);
        }
    }
    groups
}

fn eval_relation_nest(rows: &[(Value, u64)], nest: &RowNest) -> Vec<(Value, u64)> {
    group_rows(rows, |_, tuple| (nest.key(tuple), nest.element(tuple)))
        .into_iter()
        .map(|(key, nested)| (Value::from_tuple(nest.output(&key, nested.finish())), 1))
        .collect()
}

fn eval_group_aggregation(
    rows: &[(Value, u64)],
    group_by: &[String],
    aggs: &[AggSpec],
) -> Vec<(Value, u64)> {
    let group_syms: Vec<Sym> = group_by.iter().map(|a| Sym::intern(a)).collect();
    let empty = Tuple::empty();
    let groups = group_rows(rows, |value, tuple| {
        let key = tuple.project(&group_syms).unwrap_or_else(|_| Tuple::empty());
        (Value::from_tuple(key), Some(value.clone()))
    });
    groups
        .into_iter()
        .map(|(key, members)| {
            // The members in canonical order, whatever order the rows came in.
            let members = members.finish();
            let members: Vec<&Tuple> =
                members.iter_expanded().map(|v| v.as_tuple().unwrap_or(&empty)).collect();
            let key = key.as_tuple().cloned().unwrap_or_else(Tuple::empty);
            (Value::from_tuple(aggregate_group(key, aggs, &members)), 1)
        })
        .collect()
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

    /// `π_name(Fᴵ_attr(person))`: one `⟨name⟩` row per address, so every
    /// name repeats in unmerged rows (Peter 3 and Sue 2 times for
    /// `address1`, 2 times each for `address2`).
    fn names_per_address(attr: &str) -> PlanBuilder {
        PlanBuilder::table("person").inner_flatten(attr, None).project_attrs(&["name"])
    }

    fn name(n: &str) -> Value {
        Value::tuple([("name", Value::str(n))])
    }

    fn eval(plan: PlanBuilder) -> Bag {
        (*evaluate(&plan.build().unwrap(), &person_db()).unwrap()).clone()
    }

    #[test]
    fn unmerged_duplicates_dedup_and_subtract_by_value() {
        assert_eq!(
            eval(names_per_address("address1").dedup()),
            Bag::from_values([name("Peter"), name("Sue")])
        );
        // Peter 3 − 2, Sue 2 − 2.
        assert_eq!(
            eval(names_per_address("address1").difference(names_per_address("address2"))),
            Bag::from_entries([(name("Peter"), 1)])
        );
    }

    #[test]
    fn unmerged_duplicates_multiply_through_a_join() {
        let right = names_per_address("address2")
            .rename(vec![crate::operator::RenamePair::new("name", "other")]);
        let plan = names_per_address("address1").join(
            right,
            JoinKind::Inner,
            Expr::cmp(Expr::attr("name"), CmpOp::Eq, Expr::attr("other")),
        );
        let pair = |n: &str| Value::tuple([("name", Value::str(n)), ("other", Value::str(n))]);
        assert_eq!(eval(plan), Bag::from_entries([(pair("Peter"), 6), (pair("Sue"), 4)]));
    }

    #[test]
    fn unmerged_duplicates_keep_their_multiplicities_when_nested_and_counted() {
        // Every address1 city, nested into one group: LA and NY twice each.
        let nested = PlanBuilder::table("person")
            .inner_flatten("address1", None)
            .project_attrs(&["city"])
            .relation_nest(vec!["city"], "cities");
        let city = |c: &str| Value::tuple([("city", Value::str(c))]);
        let cities = Value::bag([city("LA"), city("LA"), city("LV"), city("NY"), city("NY")]);
        assert_eq!(eval(nested), Bag::from_values([Value::tuple([("cities", cities)])]));

        let counted = names_per_address("address1").group_aggregate(
            vec!["name"],
            vec![AggSpec::new(AggFunc::Count, Expr::attr("name"), "n")],
        );
        let count = |n: &str, c: i64| Value::tuple([("name", Value::str(n)), ("n", Value::int(c))]);
        assert_eq!(eval(counted), Bag::from_values([count("Peter", 3), count("Sue", 2)]));
    }

    #[test]
    fn float_sums_do_not_depend_on_union_order() {
        // Added in row order, `a ∪ b` sums (−1e16 + 1e16) + 1 = 1 and
        // `b ∪ a` sums (1 − 1e16) + 1e16 = 0; γ adds its members in
        // canonical order whichever way the rows arrive.
        let ty = TupleType::new([("g", NestedType::str()), ("v", NestedType::float())]).unwrap();
        let row = |v: f64| Value::tuple([("g", Value::str("k")), ("v", Value::float(v))]);
        let mut db = Database::new();
        db.add_relation("a", ty.clone(), Bag::from_values([row(1e16), row(-1e16)]));
        db.add_relation("b", ty, Bag::from_values([row(1.0)]));
        let sum = |first: &str, second: &str| {
            let plan = PlanBuilder::table(first)
                .union(PlanBuilder::table(second))
                .group_aggregate(vec!["g"], vec![AggSpec::new(AggFunc::Sum, Expr::attr("v"), "s")])
                .build()
                .unwrap();
            let result = evaluate(&plan, &db).unwrap();
            let (row, _) = result.iter().next().unwrap();
            row.as_tuple().unwrap().get("s").unwrap().as_float().unwrap().to_bits()
        };
        assert_eq!(sum("a", "b"), sum("b", "a"));
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
