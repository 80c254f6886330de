//! The tracing evaluator: generalized operator evaluation with per-schema-
//! alternative annotations (Section 5.3).
//!
//! For every plan operator, the tracer computes an [`OpTrace`] whose tuples
//! hold one [`Variant`] per schema alternative — the data, the `retained`
//! flag and the lineage — or `None` where the tuple does not exist under the
//! alternative. Operators are *generalized* so that data a reparameterization
//! could keep also flows upward:
//!
//! * selections annotate instead of filtering,
//! * relation flattens behave like outer flattens,
//! * joins behave like full outer joins,
//! * difference annotates instead of removing.
//!
//! Every operator's output comes from one of two builders. The 1:1 operators
//! (σ, π, ρ, Fᵀ, νᵀ, γᵀ, δ, ∪, −) map each input tuple to one output tuple,
//! all schema alternatives in one pass. Flatten, join, nest and grouped
//! aggregation make one pass per alternative and then merge the
//! per-alternative rows by key, like an outer join (the merge step of
//! Algorithm 3 / Figure 7): by element position for a flatten, by the (left,
//! right) input ids for a join, by the group for nest and aggregation. One
//! trace thus covers every alternative, which is what makes additional
//! alternatives cheaper than additional query executions (Figure 11).
//!
//! Each distinct variant is computed once. A variant's data is a shared
//! handle (`Arc<Tuple>`): a table access hands out the base relation's own
//! tuple, and σ, ∪ and − pass their input's handle through. At each
//! operator, the alternatives whose effective operators are equal form a
//! class, compiled once. Within a class, an alternative whose inputs are the
//! same allocations as a lower alternative's (`Arc::ptr_eq`) copies that
//! alternative's output instead of computing it — per input tuple for the
//! 1:1 operators and flatten, per whole input column for join, nest and
//! grouped aggregation (whose fallback also reads the members' `retained`
//! flags, so those must agree too). Difference classes are the
//! alternatives whose right inputs are the same allocations. A copy costs a
//! few reference-count increments; sharing propagates upward, since a copy
//! is itself the same allocation. [`annotate_consistency`] applies the same
//! rule to the question's consistency checks: alternatives with equal checks
//! share the `consistent` flag of a shared variant.
//!
//! A trace runs on the calling thread: fresh tuple ids are assigned in input
//! order, and in key order within a merge, so the trace is a pure function of
//! the plan, the database and the schema alternatives.

use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;

use nested_data::{BagBuilder, Nip, NipCmp, Sym, Tuple, Value};
use nrab_algebra::eval::{aggregate_group, RowFlatten, RowNest, RowTransform};
use nrab_algebra::expr::Expr;
use nrab_algebra::join::join_matches;
use nrab_algebra::schema::output_type;
use nrab_algebra::{
    AlgebraError, AlgebraResult, Database, FlattenKind, JoinKind, OpId, OpNode, Operator, QueryPlan,
};

use crate::alternative::SchemaAlternative;
use crate::annotate::{
    FlagRows, GeneralizedTrace, Lineage, OpFlags, OpTrace, SaFlags, TraceResult, TracedTuple,
    Variant,
};

/// Traces a plan over a database under the given schema alternatives.
///
/// Alternative 0 should be the original query (no substitutions); at least one
/// alternative must be provided.
///
/// Equivalent to [`trace_plan_generalized`] followed by
/// [`annotate_consistency`]; callers that answer many questions against the
/// same plan and database should invoke the two stages separately and cache
/// the (question-independent) generalized trace.
pub fn trace_plan(
    plan: &QueryPlan,
    db: &Database,
    sas: &[SchemaAlternative],
) -> AlgebraResult<TraceResult> {
    let base = Arc::new(trace_plan_generalized(plan, db, sas)?);
    Ok(annotate_consistency(&base, plan, sas))
}

/// The expensive, question-independent part of tracing: evaluates the plan in
/// its generalized form and computes every tuple's variants — data,
/// `retained` flag and lineage — under every schema alternative.
///
/// Only the attribute *substitutions* of `sas` are consulted — never their
/// consistency NIPs — so the result can be reused across why-not questions
/// that share the plan, the database, and the substitution sets (the trace
/// cache of `whynot-service` is keyed accordingly). The question-specific
/// `consistent` flags are computed by [`annotate_consistency`].
pub fn trace_plan_generalized(
    plan: &QueryPlan,
    db: &Database,
    sas: &[SchemaAlternative],
) -> AlgebraResult<GeneralizedTrace> {
    if sas.is_empty() {
        return Err(AlgebraError::Eval("at least one schema alternative is required".into()));
    }
    let _span = whynot_obs::span("trace_plan");
    let mut tracer = Tracer::new(db, sas);
    tracer.trace_node(&plan.root)?;
    if whynot_obs::enabled() {
        whynot_obs::add(
            "trace.total_tuples",
            tracer.traces.values().map(|t| t.tuples.len() as u64).sum(),
        );
        whynot_obs::add("trace.sas", sas.len() as u64);
    }
    Ok(GeneralizedTrace {
        traces: tracer.traces,
        root: plan.root.id,
        pre_order: plan.op_ids_top_down(),
        num_sas: sas.len(),
    })
}

/// The cheap, question-specific part of tracing: re-validates every traced
/// tuple against the consistency NIPs of the schema alternatives (the
/// pushed-down why-not constraints produced by schema backtracing) and
/// computes the question's flags. The result shares `base`; it copies only
/// the flags, never a traced tuple.
///
/// `sas` must describe the same substitution sets (in the same order) as the
/// ones `base` was traced under; only the consistency NIPs may differ.
///
/// # Panics
///
/// If `sas` does not hold exactly one alternative per traced alternative.
pub fn annotate_consistency(
    base: &Arc<GeneralizedTrace>,
    plan: &QueryPlan,
    sas: &[SchemaAlternative],
) -> TraceResult {
    assert_eq!(
        sas.len(),
        base.num_sas(),
        "annotation needs one schema alternative per traced alternative"
    );
    let _span = whynot_obs::span("annotate");
    let traces = base.traces.iter().map(|(op, op_trace)| {
        let _span = whynot_obs::span_dyn(|| format!("annotate:{}#{}", op_trace.kind, op));
        (*op, OpFlags { tuples: annotate_op_consistency(op_trace, *op, plan, sas) })
    });
    TraceResult::new(Arc::clone(base), traces.collect())
}

/// One schema alternative's consistency NIP at one operator, resolved once
/// for all of the operator's tuples.
#[derive(PartialEq)]
struct ConsistencyCheck<'a> {
    /// `None`: no pushed-down NIP, so every valid tuple is consistent.
    nip: Option<ResolvedNip<'a>>,
    /// Grouped aggregation: the retained-members fallback variant may match
    /// instead.
    fallback: bool,
}

impl ConsistencyCheck<'_> {
    fn consistent(&self, tuple: &TracedTuple, sa: usize, variant: &Arc<Tuple>) -> bool {
        let Some(nip) = &self.nip else { return true };
        nip.matches(variant)
            || (self.fallback && tuple.fallback(sa).is_some_and(|f| nip.matches(f)))
    }

    /// Whether this check reads the same data of `tuple` under alternatives
    /// `i` and `j`, and so gives the same answer: the same variant
    /// allocation and, where the check reads it, the same fallback.
    fn same_answer(&self, tuple: &TracedTuple, i: usize, j: usize) -> bool {
        let same = |a: Option<&Arc<Tuple>>, b: Option<&Arc<Tuple>>| match (a, b) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            (a, b) => a.is_none() && b.is_none(),
        };
        same(tuple.get(i).map(|v| &v.tuple), tuple.get(j).map(|v| &v.tuple))
            && (!self.fallback || same(tuple.fallback(i), tuple.fallback(j)))
    }
}

/// A consistency NIP prepared for matching many tuples.
#[derive(PartialEq)]
enum ResolvedNip<'a> {
    /// A tuple NIP's fields, constrained ones before `?`: most tuples
    /// violate the NIP, and a violated field rejects them before the `?`
    /// fields (which only require presence) are looked up.
    Fields(Vec<(Sym, &'a Nip)>),
    /// Any other NIP shape, matched against the whole tuple.
    Whole(&'a Nip),
}

impl ResolvedNip<'_> {
    fn matches(&self, tuple: &Arc<Tuple>) -> bool {
        match self {
            ResolvedNip::Fields(fields) => {
                fields.iter().all(|(name, nip)| tuple.get(*name).is_some_and(|v| nip.matches(v)))
            }
            ResolvedNip::Whole(nip) => nip.matches(&Value::Tuple(Arc::clone(tuple))),
        }
    }
}

/// Resolves one schema alternative's consistency NIP at `node`.
fn consistency_check<'a>(
    sa: &'a SchemaAlternative,
    node: Option<&OpNode>,
    op: OpId,
) -> ConsistencyCheck<'a> {
    let Some(nip) = sa.consistency_nip(op) else {
        return ConsistencyCheck { nip: None, fallback: false };
    };
    // Upper-bound constraints on aggregate outputs can always be met by a
    // more restrictive choice of contributing tuples, which the tracing does
    // not enumerate (Section 5.5); relax them to `?`, then accept the group
    // if either the all-members aggregate or the retained-members fallback
    // satisfies the NIP.
    let agg_outputs: Option<Vec<String>> = node.and_then(|node| match &node.op {
        Operator::GroupAggregation { .. } => Some(match sa.effective_operator(node) {
            Operator::GroupAggregation { aggs, .. } => aggs.into_iter().map(|a| a.output).collect(),
            _ => Vec::new(),
        }),
        _ => None,
    });
    let fallback = agg_outputs.is_some();
    let Nip::Tuple(fields) = nip else {
        return ConsistencyCheck { nip: Some(ResolvedNip::Whole(nip)), fallback };
    };
    let relaxed = |name: &Sym, field: &'a Nip| -> &'a Nip {
        let upper_bound = matches!(field, Nip::Pred(NipCmp::Lt | NipCmp::Le, _));
        match &agg_outputs {
            Some(outputs) if upper_bound && outputs.iter().any(|o| *name == o.as_str()) => {
                &Nip::Any
            }
            _ => field,
        }
    };
    let mut fields: Vec<(Sym, &'a Nip)> =
        fields.iter().map(|(name, field)| (*name, relaxed(name, field))).collect();
    fields.sort_by_key(|(_, field)| matches!(field, Nip::Any));
    ConsistencyCheck { nip: Some(ResolvedNip::Fields(fields)), fallback }
}

/// Computes one operator's flags for a question: `valid` and `retained` read
/// off each variant, and `consistent` validated against each schema
/// alternative's consistency NIP. Alternatives with equal checks form a
/// class; where a tuple's variant is the same allocation as under a lower
/// alternative of the class, `consistent` is copied from there.
fn annotate_op_consistency(
    base: &OpTrace,
    op: OpId,
    plan: &QueryPlan,
    sas: &[SchemaAlternative],
) -> FlagRows {
    let node = plan.node(op).ok();
    let checks: Vec<ConsistencyCheck<'_>> =
        sas.iter().map(|sa| consistency_check(sa, node, op)).collect();
    let classes = Classes::new(checks.len(), |i, j| checks[i] == checks[j], |_| ());
    let n = sas.len();
    let mut flags: Vec<SaFlags> = Vec::with_capacity(base.tuples.len() * n);
    for tuple in &base.tuples {
        let row = flags.len();
        for (sa, check) in checks.iter().enumerate() {
            flags.push(match tuple.get(sa) {
                Some(variant) => {
                    let consistent =
                        match classes.donor(sa, |low| check.same_answer(tuple, low, sa)) {
                            Some(donor) => flags[row + donor].consistent,
                            None => check.consistent(tuple, sa, &variant.tuple),
                        };
                    SaFlags { valid: true, consistent, retained: variant.retained }
                }
                None => SaFlags::absent(),
            });
        }
    }
    if whynot_obs::enabled() {
        let compatible = flags.iter().filter(|f| f.valid && f.consistent).count();
        whynot_obs::add("trace.compatible", compatible as u64);
    }
    FlagRows::new(n, flags)
}

/// One operator's output row under one schema alternative, before the merge:
/// its merge key, the alternative, the variant, and a fallback variant
/// (grouped aggregation only).
type Row<K> = (K, usize, Variant, Option<Arc<Tuple>>);

/// The schema alternatives partitioned into classes that evaluate an
/// operator the same way, with the operator compiled once per class.
struct Classes<T> {
    /// Per alternative, the index of its class.
    of: Vec<usize>,
    /// Per class, the compiled operator.
    compiled: Vec<T>,
}

impl<T> Classes<T> {
    /// Classes of the alternatives whose effective operators at `node` are
    /// equal.
    fn of_operator(
        sas: &[SchemaAlternative],
        node: &OpNode,
        mut compile: impl FnMut(&Operator) -> T,
    ) -> Self {
        let operators: Vec<Operator> = sas.iter().map(|sa| sa.effective_operator(node)).collect();
        Classes::new(
            operators.len(),
            |i, j| operators[i] == operators[j],
            |sa| compile(&operators[sa]),
        )
    }

    /// Classes of `n` alternatives under the equivalence `same`; each class
    /// is compiled from its lowest member.
    fn new(
        n: usize,
        same: impl Fn(usize, usize) -> bool,
        mut compile: impl FnMut(usize) -> T,
    ) -> Self {
        let mut lowest: Vec<usize> = Vec::new();
        let mut compiled = Vec::new();
        let of = (0..n)
            .map(|sa| {
                lowest.iter().position(|&low| same(low, sa)).unwrap_or_else(|| {
                    compiled.push(compile(sa));
                    lowest.push(sa);
                    lowest.len() - 1
                })
            })
            .collect();
        Classes { of, compiled }
    }

    /// The compiled operator of alternative `sa`'s class.
    fn get(&self, sa: usize) -> &T {
        &self.compiled[self.of[sa]]
    }

    /// The lowest alternative below `sa` in `sa`'s class whose inputs are
    /// `sa`'s (`same_inputs`): `sa`'s output is a copy of its output.
    fn donor(&self, sa: usize, mut same_inputs: impl FnMut(usize) -> bool) -> Option<usize> {
        (0..sa).find(|&low| self.of[low] == self.of[sa] && same_inputs(low))
    }
}

/// Whether `tuple` holds the same allocation under alternatives `i` and `j`,
/// or is absent under both; with `retained`, whether its `retained` flags
/// agree too.
fn same_input(tuple: &TracedTuple, i: usize, j: usize, retained: bool) -> bool {
    match (tuple.get(i), tuple.get(j)) {
        (Some(a), Some(b)) => {
            Arc::ptr_eq(&a.tuple, &b.tuple) && (!retained || a.retained == b.retained)
        }
        (None, None) => true,
        _ => false,
    }
}

/// [`same_input`] for every tuple of `trace`.
fn same_column(trace: &OpTrace, i: usize, j: usize, retained: bool) -> bool {
    trace.tuples.iter().all(|tuple| same_input(tuple, i, j, retained))
}

struct Tracer<'a> {
    db: &'a Database,
    sas: &'a [SchemaAlternative],
    next_id: u64,
    traces: BTreeMap<OpId, OpTrace>,
    /// Variants the current operator copied from a lower alternative
    /// instead of computing them.
    shared: u64,
}

impl<'a> Tracer<'a> {
    fn new(db: &'a Database, sas: &'a [SchemaAlternative]) -> Self {
        Tracer { db, sas, next_id: 1, traces: BTreeMap::new(), shared: 0 }
    }

    fn fresh_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    fn n_sas(&self) -> usize {
        self.sas.len()
    }

    fn trace_node(&mut self, node: &OpNode) -> AlgebraResult<()> {
        for input in &node.inputs {
            self.trace_node(input)?;
        }
        self.trace_op(node)
    }

    /// Traces one operator whose children are already traced, with the
    /// per-operator bookkeeping (trace-tuple budget, observability counters).
    fn trace_op(&mut self, node: &OpNode) -> AlgebraResult<()> {
        let _span = whynot_obs::span_dyn(|| format!("trace:{}#{}", node.op.kind_name(), node.id));
        // The children's traces leave the map while the operator reads them,
        // so it can hand out fresh ids meanwhile.
        let children: Vec<OpTrace> = node
            .inputs
            .iter()
            .map(|input| {
                self.traces.remove(&input.id).expect("child trace must have been computed")
            })
            .collect();
        let tuples = match &node.op {
            Operator::TableAccess { table } => self.trace_table_access(table)?,
            Operator::Selection { .. } => self.trace_selection(node, &children[0])?,
            Operator::Flatten { .. } => self.trace_flatten(node, &children[0])?,
            Operator::Join { .. } | Operator::CrossProduct => {
                self.trace_join(node, &children[0], &children[1])?
            }
            Operator::RelationNest { .. } => self.trace_relation_nest(node, &children[0]),
            Operator::GroupAggregation { .. } => self.trace_group_aggregation(node, &children[0]),
            Operator::Union => {
                let classes = Classes::new(self.n_sas(), |_, _| true, |_| ());
                let inputs = children[0].tuples.iter().chain(&children[1].tuples);
                self.one_to_one(inputs, &classes, |(), input| {
                    Some((Arc::clone(&input.tuple), true))
                })?
            }
            Operator::Difference => self.trace_difference(&children[0], &children[1])?,
            // Projection, renaming, tuple flatten, tuple nesting, per-tuple
            // aggregation, and dedup are structural 1:1 operators.
            _ => self.trace_structural(node, &children[0])?,
        };
        for child in children {
            self.traces.insert(child.op, child);
        }
        let trace = OpTrace { op: node.id, kind: node.op.kind_name().to_string(), tuples };
        // Traced tuples are the paper's worst-case growth term; draw each
        // operator's count from the request's trace-tuple budget. Serial
        // post-order recursion, so consumption order is deterministic.
        whynot_guard::consume_trace_tuples(trace.tuples.len() as u64)
            .map_err(AlgebraError::from)?;
        record_trace_counters(&trace, std::mem::take(&mut self.shared));
        self.traces.insert(node.id, trace);
        Ok(())
    }

    /// A 1:1 operator's output: one traced tuple per input tuple, whose
    /// variant under each schema alternative is `step` applied to its class's
    /// compiled operator and the input's variant there — `(data, retained)`,
    /// or `None` if the tuple vanishes — with the input tuple as its lineage.
    /// An alternative whose input is the same allocation as a lower
    /// alternative's of its class copies that one's variant. Checks the
    /// request's guard once every 1024 input tuples.
    fn one_to_one<'t, T>(
        &mut self,
        inputs: impl IntoIterator<Item = &'t TracedTuple>,
        classes: &Classes<T>,
        mut step: impl FnMut(&T, &Variant) -> Option<(Arc<Tuple>, bool)>,
    ) -> AlgebraResult<Vec<TracedTuple>> {
        let n = self.n_sas();
        let mut tuples = Vec::new();
        for (row, input) in inputs.into_iter().enumerate() {
            if row & 1023 == 0 {
                whynot_guard::checkpoint()?;
            }
            let mut variants: Vec<Option<Variant>> = Vec::with_capacity(n);
            for sa in 0..n {
                let variant = match input.get(sa) {
                    None => None,
                    Some(variant) => {
                        match classes.donor(sa, |low| same_input(input, low, sa, false)) {
                            Some(donor) => {
                                self.shared += u64::from(variants[donor].is_some());
                                variants[donor].clone()
                            }
                            None => step(classes.get(sa), variant).map(|(tuple, retained)| {
                                Variant { tuple, retained, inputs: Lineage::one(input.id) }
                            }),
                        }
                    }
                };
                variants.push(variant);
            }
            tuples.push(TracedTuple {
                id: self.fresh_id(),
                variants,
                fallback_variants: Vec::new(),
            });
        }
        Ok(tuples)
    }

    /// Merges per-alternative output rows into traced tuples like an outer
    /// join (Figure 7, step 4): the rows of one key become one tuple, which
    /// is `None` under the alternatives without a row. Each `(sa, donor)` of
    /// `shared` made no rows of its own: its variants are copies of the
    /// donor's. Fresh ids follow key order.
    fn merge<K: Ord>(&mut self, rows: Vec<Row<K>>, shared: &[(usize, usize)]) -> Vec<TracedTuple> {
        let n = self.n_sas();
        let mut merged: BTreeMap<K, TracedTuple> = BTreeMap::new();
        for (key, sa, variant, fallback) in rows {
            let tuple = merged.entry(key).or_insert_with(|| TracedTuple {
                id: 0,
                variants: vec![None; n],
                fallback_variants: Vec::new(),
            });
            tuple.variants[sa] = Some(variant);
            if fallback.is_some() {
                tuple.fallback_variants.resize(n, None);
                tuple.fallback_variants[sa] = fallback;
            }
        }
        let mut tuples = Vec::with_capacity(merged.len());
        for mut tuple in merged.into_values() {
            for &(sa, donor) in shared {
                tuple.variants[sa] = tuple.variants[donor].clone();
                if !tuple.fallback_variants.is_empty() {
                    tuple.fallback_variants[sa] = tuple.fallback_variants[donor].clone();
                }
                self.shared += u64::from(tuple.variants[sa].is_some());
            }
            tuple.id = self.fresh_id();
            tuples.push(tuple);
        }
        tuples
    }

    /// Table access: every base tuple, retained and without lineage, under
    /// every schema alternative — one handle on the relation's own tuple,
    /// shared by all of them.
    fn trace_table_access(&mut self, table: &str) -> AlgebraResult<Vec<TracedTuple>> {
        let n = self.n_sas();
        let relation = self.db.relation(table)?;
        let tuples = relation.iter().map(|(value, _mult)| {
            let tuple = match value {
                Value::Tuple(tuple) => Arc::clone(tuple),
                _ => Arc::new(Tuple::empty()),
            };
            let variant = Variant { tuple, retained: true, inputs: Lineage::none() };
            self.shared += n as u64 - 1;
            TracedTuple {
                id: self.fresh_id(),
                variants: vec![Some(variant); n],
                fallback_variants: Vec::new(),
            }
        });
        Ok(tuples.collect())
    }

    /// Structural 1:1 operators: apply the effective operator to each variant
    /// individually; `retained` is always true (these operators never prune).
    ///
    /// The operator is compiled once per class into the evaluator's
    /// [`RowTransform`]. If it does not compile under an alternative (e.g. a
    /// tuple flatten whose input schema does not infer), every variant
    /// vanishes under it; if it fails on one variant (e.g. a tuple flatten
    /// meets a non-tuple value), that variant vanishes.
    fn trace_structural(
        &mut self,
        node: &OpNode,
        child: &OpTrace,
    ) -> AlgebraResult<Vec<TracedTuple>> {
        let db = self.db;
        let transforms = Classes::of_operator(self.sas, node, |operator| {
            let effective = OpNode::new(node.id, operator.clone(), node.inputs.clone());
            RowTransform::compile(&effective, db).ok()
        });
        self.one_to_one(&child.tuples, &transforms, |transform, input| {
            Some((Arc::new(transform.as_ref()?.apply(&input.tuple).ok()?), true))
        })
    }

    /// Selection: annotate instead of filter. `retained` records whether the
    /// original (SA-substituted) predicate holds; the data is the input's.
    fn trace_selection(
        &mut self,
        node: &OpNode,
        child: &OpTrace,
    ) -> AlgebraResult<Vec<TracedTuple>> {
        let predicates = Classes::of_operator(self.sas, node, |operator| match operator {
            Operator::Selection { predicate } => predicate.clone(),
            _ => Expr::lit(true),
        });
        self.one_to_one(&child.tuples, &predicates, |predicate, input| {
            Some((Arc::clone(&input.tuple), predicate.eval_bool(&input.tuple)))
        })
    }

    /// Difference: annotate instead of remove. `retained` records whether no
    /// right tuple under the same alternative equals the variant, looked up
    /// in one hash set of the right variants per class of alternatives whose
    /// right inputs are the same allocations (`Tuple`'s hash agrees with its
    /// numeric cross-variant equality, `2 = 2.0`).
    fn trace_difference(
        &mut self,
        left: &OpTrace,
        right: &OpTrace,
    ) -> AlgebraResult<Vec<TracedTuple>> {
        let subtracted: Classes<HashSet<&Tuple>> = Classes::new(
            self.n_sas(),
            |i, j| same_column(right, i, j, false),
            |sa| right.tuples.iter().filter_map(|r| r.variant(sa)).collect(),
        );
        self.one_to_one(&left.tuples, &subtracted, |subtracted, input| {
            Some((Arc::clone(&input.tuple), !subtracted.contains(&*input.tuple)))
        })
    }

    /// Relation flatten, generalized to an outer flatten: per input tuple,
    /// each alternative's rows are merged by element position. Element
    /// multiplicities are not traced. The padding row of an empty collection
    /// is retained only by an original outer flatten. An alternative whose
    /// input is the same allocation as a lower alternative's of its class
    /// copies that one's rows.
    fn trace_flatten(&mut self, node: &OpNode, child: &OpTrace) -> AlgebraResult<Vec<TracedTuple>> {
        let child_schema = output_type(&node.inputs[0], self.db)?;
        let Operator::Flatten { kind: original_kind, alias, .. } = &node.op else {
            unreachable!("trace_flatten called on non-flatten")
        };
        // Per class: the flatten of the attribute actually flattened.
        let flattens = Classes::of_operator(self.sas, node, |operator| match operator {
            Operator::Flatten { attr, .. } => {
                RowFlatten::new(attr, alias.as_deref(), &child_schema)
            }
            _ => unreachable!(),
        });

        let mut tuples = Vec::new();
        let mut shared = Vec::new();
        for input in &child.tuples {
            let mut rows = Vec::new();
            shared.clear();
            for sa in 0..self.n_sas() {
                let Some(tuple) = input.variant(sa) else { continue };
                if let Some(donor) = flattens.donor(sa, |low| same_input(input, low, sa, false)) {
                    shared.push((sa, donor));
                    continue;
                }
                let flatten = flattens.get(sa);
                let mut row = |position: usize, tuple: Tuple, retained: bool| {
                    let variant = Variant {
                        tuple: Arc::new(tuple),
                        retained,
                        inputs: Lineage::one(input.id),
                    };
                    rows.push((position, sa, variant, None))
                };
                let elements = flatten.elements(tuple)?;
                if elements.is_empty() {
                    row(0, flatten.pad(tuple)?, *original_kind == FlattenKind::Outer);
                }
                for (position, (element, _mult)) in elements.into_iter().enumerate() {
                    row(position, element, true);
                }
            }
            tuples.extend(self.merge(rows, &shared));
        }
        Ok(tuples)
    }

    /// Joins (and cross products), generalized to full outer joins.
    ///
    /// Each schema alternative's pairs come from `nrab_algebra::join` — the
    /// hash join on the equi conjuncts, else the nested loop — the same core
    /// the evaluator's join runs on. Pairs and padded tuples are then merged
    /// across alternatives by their (left id, right id). An alternative whose
    /// input columns are the same allocations as a lower alternative's of
    /// its class makes no pass of its own and copies that one's variants.
    /// Checks the request's guard once per alternative.
    fn trace_join(
        &mut self,
        node: &OpNode,
        left: &OpTrace,
        right: &OpTrace,
    ) -> AlgebraResult<Vec<TracedTuple>> {
        fn rows_of(trace: &OpTrace, sa: usize) -> Vec<Option<&Tuple>> {
            trace.tuples.iter().map(|t| t.variant(sa)).collect()
        }
        let left_schema = output_type(&node.inputs[0], self.db)?;
        let right_schema = output_type(&node.inputs[1], self.db)?;
        let left_names: Vec<Sym> = left_schema.attribute_syms().collect();
        let right_names: Vec<Sym> = right_schema.attribute_syms().collect();
        let original_kind = match &node.op {
            Operator::Join { kind, .. } => *kind,
            _ => JoinKind::Inner,
        };
        let keeps_left = matches!(original_kind, JoinKind::Left | JoinKind::Full);
        let keeps_right = matches!(original_kind, JoinKind::Right | JoinKind::Full);
        let predicates = Classes::of_operator(self.sas, node, |operator| match operator {
            Operator::Join { predicate, .. } => predicate.clone(),
            _ => Expr::lit(true),
        });

        let mut rows = Vec::new();
        let mut shared = Vec::new();
        for sa in 0..self.n_sas() {
            let _span = whynot_obs::span_dyn(|| format!("sa#{sa}"));
            whynot_guard::faults::fault_point_dyn("trace_sa", || sa.to_string());
            whynot_guard::checkpoint()?;
            let same_inputs =
                |low| same_column(left, low, sa, false) && same_column(right, low, sa, false);
            if let Some(donor) = predicates.donor(sa, same_inputs) {
                shared.push((sa, donor));
                continue;
            }
            let matches = join_matches(
                &rows_of(left, sa),
                &rows_of(right, sa),
                predicates.get(sa),
                &left_schema,
                &right_schema,
            )?;
            let mut row = |key, tuple, retained, inputs| {
                rows.push((key, sa, Variant { tuple: Arc::new(tuple), retained, inputs }, None))
            };
            for pair in matches.pairs {
                let (l, r) = (left.tuples[pair.left].id, right.tuples[pair.right].id);
                row((Some(l), Some(r)), pair.combined, true, Lineage::two(l, r));
            }
            for (lt, matched) in left.tuples.iter().zip(matches.left_matched) {
                let Some(tuple) = lt.variant(sa).filter(|_| !matched) else { continue };
                let padded = tuple.concat(&Tuple::null_padded(&right_names))?;
                row((Some(lt.id), None), padded, keeps_left, Lineage::one(lt.id));
            }
            for (rt, matched) in right.tuples.iter().zip(matches.right_matched) {
                let Some(tuple) = rt.variant(sa).filter(|_| !matched) else { continue };
                let padded = Tuple::null_padded(&left_names).concat(tuple)?;
                row((None, Some(rt.id)), padded, keeps_right, Lineage::one(rt.id));
            }
        }
        Ok(self.merge(rows, &shared))
    }

    /// Relation nesting: each schema alternative groups its tuples with the
    /// evaluator's [`RowNest`]; the groups are merged across alternatives by
    /// group key (Figure 7, step 4). An alternative whose input column is
    /// the same allocations as a lower alternative's of its class copies
    /// that one's groups.
    fn trace_relation_nest(&mut self, node: &OpNode, child: &OpTrace) -> Vec<TracedTuple> {
        let nests = Classes::of_operator(self.sas, node, |operator| match operator {
            Operator::RelationNest { attrs, into } => RowNest::new(attrs, into),
            _ => unreachable!("trace_relation_nest called on non-nest"),
        });
        let mut rows = Vec::new();
        let mut shared = Vec::new();
        for sa in 0..self.n_sas() {
            let _span = whynot_obs::span_dyn(|| format!("sa#{sa}"));
            if let Some(donor) = nests.donor(sa, |low| same_column(child, low, sa, false)) {
                shared.push((sa, donor));
                continue;
            }
            let nest = nests.get(sa);
            // Per group: its nested collection and its members' ids.
            #[allow(clippy::mutable_key_type)] // cached hashes don't affect `Ord`
            let mut groups: BTreeMap<Value, (BagBuilder, Vec<u64>)> = BTreeMap::new();
            for input in &child.tuples {
                let Some(tuple) = input.variant(sa) else { continue };
                let (nested, members) = groups.entry(nest.key(tuple)).or_default();
                if let Some(element) = nest.element(tuple) {
                    nested.add(element, 1);
                }
                members.push(input.id);
            }
            rows.extend(groups.into_iter().map(|(key, (nested, members))| {
                let tuple = Arc::new(nest.output(&key, nested.finish()));
                (key, sa, Variant { tuple, retained: true, inputs: members.into() }, None)
            }));
        }
        self.merge(rows, &shared)
    }

    /// Grouped aggregation: like relation nesting, but each group contributes
    /// aggregate values. Consistency is checked against the aggregates
    /// computed from all valid tuples and, as a fallback, from the tuples the
    /// immediately preceding operator retained (cf. the discussion of
    /// aggregation tracing limitations in Section 5.5). Because the fallback
    /// reads the members' `retained` flags, an alternative copies a lower
    /// one's groups only if those agree as well as the input allocations.
    fn trace_group_aggregation(&mut self, node: &OpNode, child: &OpTrace) -> Vec<TracedTuple> {
        let aggregations = Classes::of_operator(self.sas, node, |operator| match operator {
            Operator::GroupAggregation { group_by, aggs } => {
                let group_syms: Vec<Sym> = group_by.iter().map(|a| Sym::intern(a)).collect();
                (group_syms, aggs.clone())
            }
            _ => unreachable!("trace_group_aggregation called on non-aggregation"),
        });
        let mut rows = Vec::new();
        let mut shared = Vec::new();
        for sa in 0..self.n_sas() {
            let _span = whynot_obs::span_dyn(|| format!("sa#{sa}"));
            if let Some(donor) = aggregations.donor(sa, |low| same_column(child, low, sa, true)) {
                shared.push((sa, donor));
                continue;
            }
            let (group_syms, aggs) = aggregations.get(sa);
            // Per group: its members' ids and variants.
            #[allow(clippy::mutable_key_type)] // cached hashes don't affect `Ord`
            let mut groups: BTreeMap<Value, Vec<(u64, &Variant)>> = BTreeMap::new();
            for input in &child.tuples {
                let Some(variant) = input.get(sa) else { continue };
                let key = variant.tuple.project(group_syms).unwrap_or_else(|_| Tuple::empty());
                groups.entry(Value::from_tuple(key)).or_default().push((input.id, variant));
            }
            for (key, members) in groups {
                let key_tuple = key.as_tuple().cloned().unwrap_or_else(Tuple::empty);
                let all: Vec<&Tuple> = members.iter().map(|(_, v)| &*v.tuple).collect();
                let retained: Vec<&Tuple> =
                    members.iter().filter(|(_, v)| v.retained).map(|(_, v)| &*v.tuple).collect();
                // The original query would produce the group from the
                // retained members only; the group survives if any member
                // was retained. The retained-members aggregate is kept as the
                // fallback variant consulted by the consistency annotation
                // (Section 5.5).
                let fallback = aggregate_group(key_tuple.clone(), aggs, &retained);
                let tuple = Arc::new(aggregate_group(key_tuple, aggs, &all));
                let inputs = members.iter().map(|(id, _)| *id).collect::<Vec<_>>().into();
                let variant = Variant { tuple, retained: !retained.is_empty(), inputs };
                rows.push((key, sa, variant, Some(Arc::new(fallback))));
            }
        }
        self.merge(rows, &shared)
    }
}

/// Records the per-operator trace counters when a profiling session is
/// active.
fn record_trace_counters(trace: &OpTrace, shared: u64) {
    if !whynot_obs::enabled() {
        return;
    }
    whynot_obs::add("trace.tuples", trace.tuples.len() as u64);
    whynot_obs::add("trace.variants_shared", shared);
    let (mut valid, mut retained) = (0u64, 0u64);
    for variant in trace.tuples.iter().flat_map(|t| t.variants.iter().flatten()) {
        valid += 1;
        retained += variant.retained as u64;
    }
    whynot_obs::add("trace.valid", valid);
    whynot_obs::add("trace.retained", retained);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alternative::OpSubstitution;
    use nested_data::{Bag, NestedType, NipCmp, TupleType};
    use nested_datagen::person_database;
    use nrab_algebra::expr::CmpOp;
    use nrab_algebra::{evaluate, PlanBuilder};

    fn running_example_plan() -> QueryPlan {
        PlanBuilder::table("person")
            .inner_flatten("address2", None)
            .select(Expr::attr_cmp("year", CmpOp::Ge, 2019i64))
            .project_attrs(&["name", "city"])
            .relation_nest(vec!["name"], "nList")
            .build()
            .unwrap()
    }

    /// Consistency NIPs of the running example (what schema backtracing
    /// produces): city = NY at every level where `city` exists, and the
    /// pushed-down address constraint at the table access.
    fn consistency_for(address_attr: &str) -> BTreeMap<OpId, Nip> {
        let city_ny = Nip::tuple([("city", Nip::val("NY"))]);
        let table_nip = Nip::tuple([(
            address_attr,
            Nip::bag([Nip::tuple([("city", Nip::val("NY")), ("year", Nip::Any)]), Nip::Star]),
        )]);
        BTreeMap::from([
            (0, table_nip),
            (1, city_ny.clone()),
            (2, city_ny.clone()),
            (3, city_ny.clone()),
            (4, Nip::tuple([("city", Nip::val("NY")), ("nList", Nip::bag([Nip::Any, Nip::Star]))])),
        ])
    }

    fn example_sas() -> Vec<SchemaAlternative> {
        vec![
            SchemaAlternative::original(consistency_for("address2")),
            SchemaAlternative::new(
                1,
                vec![OpSubstitution::new(1, "address2", "address1")],
                consistency_for("address1"),
            ),
        ]
    }

    fn trace_example() -> TraceResult {
        trace_plan(&running_example_plan(), &person_database(), &example_sas()).unwrap()
    }

    #[test]
    fn table_access_consistency_mirrors_figure_4() {
        let result = trace_example();
        let table = result.trace(0).unwrap();
        assert_eq!(table.len(), 2);
        // Peter: no NY in address2 (SA1: inconsistent), NY 2010 in address1 (SA2: consistent).
        let peter = table
            .tuples()
            .find(|t| t.traced.variant(0).unwrap().get("name") == Some(&Value::str("Peter")))
            .unwrap();
        assert!(!peter.flags(0).consistent);
        assert!(peter.flags(1).consistent);
        // Sue: NY in both address relations.
        let sue = table
            .tuples()
            .find(|t| t.traced.variant(0).unwrap().get("name") == Some(&Value::str("Sue")))
            .unwrap();
        assert!(sue.flags(0).consistent);
        assert!(sue.flags(1).consistent);
    }

    #[test]
    fn flatten_trace_mirrors_figure_5() {
        let result = trace_example();
        let flatten = result.trace(1).unwrap();
        // Peter contributes max(3, 2) merged rows, Sue max(2, 2): 5 rows total.
        assert_eq!(flatten.len(), 5);
        // Exactly one row is consistent under S1 (Sue's NY 2018 address2 entry).
        let consistent_s1: Vec<_> = flatten.tuples().filter(|t| t.flags(0).consistent).collect();
        assert_eq!(consistent_s1.len(), 1);
        assert_eq!(
            consistent_s1[0].traced.variant(0).unwrap().get("name"),
            Some(&Value::str("Sue"))
        );
        // Under S1 only 4 rows are valid (Peter's address2 has 2 entries).
        assert_eq!(flatten.tuples().filter(|t| t.flags(0).valid).count(), 4);
        assert_eq!(flatten.tuples().filter(|t| t.flags(1).valid).count(), 5);
        // No padding rows: every valid row is retained by the inner flatten.
        assert!(flatten.tuples().all(|t| !t.flags(0).valid || t.flags(0).retained));
    }

    #[test]
    fn selection_trace_mirrors_figure_6() {
        let result = trace_example();
        let selection = result.trace(2).unwrap();
        // The consistent S1 tuple (Sue, NY, 2018) is not retained by year ≥ 2019.
        let witness =
            selection.tuples().find(|t| t.flags(0).consistent && t.flags(0).valid).unwrap();
        assert!(!witness.flags(0).retained);
        // Some valid tuple *is* retained (Sue's LA 2019).
        assert!(selection.tuples().any(|t| t.flags(0).valid && t.flags(0).retained));
    }

    #[test]
    fn nesting_trace_mirrors_figure_7() {
        let result = trace_example();
        let nest = result.root_trace();
        // Groups across both SAs: NY, LA, SF (S1) and NY, LA, LV (S2) → 4 city groups.
        assert_eq!(nest.len(), 4);
        let ny = nest
            .tuples()
            .find(|t| {
                t.traced
                    .variant(0)
                    .or(t.traced.variant(1))
                    .map(|v| v.get("city") == Some(&Value::str("NY")))
                    .unwrap_or(false)
            })
            .unwrap();
        assert!(ny.flags(0).valid && ny.flags(0).consistent);
        assert!(ny.flags(1).valid && ny.flags(1).consistent);
        // The LV group only exists under S2 (it comes from address1).
        let lv = nest
            .tuples()
            .find(|t| {
                t.traced
                    .variant(1)
                    .map(|v| v.get("city") == Some(&Value::str("LV")))
                    .unwrap_or(false)
            })
            .unwrap();
        assert!(!lv.flags(0).valid);
        assert!(lv.flags(1).valid);
        assert!(result.has_consistent_output(0));
        assert!(result.has_consistent_output(1));
    }

    #[test]
    fn contributing_ids_reach_back_to_sue() {
        let result = trace_example();
        let contributing = result.contributing_ids(0);
        let table = result.trace(0).unwrap();
        let sue = table
            .tuples()
            .find(|t| t.traced.variant(0).unwrap().get("name") == Some(&Value::str("Sue")))
            .unwrap();
        let peter = table
            .tuples()
            .find(|t| t.traced.variant(0).unwrap().get("name") == Some(&Value::str("Peter")))
            .unwrap();
        assert!(contributing.contains(&sue.traced.id));
        // Peter's tuple cannot contribute to the NY answer under S1...
        assert!(!contributing.contains(&peter.traced.id));
        // ...but it can under S2 (address1 holds NY 2010).
        assert!(result.contributing_ids(1).contains(&peter.traced.id));
    }

    #[test]
    fn selection_has_reparameterization_witness_under_both_sas() {
        let result = trace_example();
        let selection = result.trace(2).unwrap();
        for sa in 0..2 {
            let contributing = result.contributing_ids(sa);
            assert!(
                selection.has_reparameterization_witness(sa, &contributing),
                "selection must be a candidate under SA {sa}"
            );
        }
        // The flatten has no reparameterization witness (all its consistent
        // tuples are retained).
        let flatten = result.trace(1).unwrap();
        for sa in 0..2 {
            let contributing = result.contributing_ids(sa);
            assert!(!flatten.has_reparameterization_witness(sa, &contributing));
        }
    }

    /// `r(a) = {1, 7}` joined with `s(b, payload) = {(1, x), (2, y)}` on
    /// `a = b`.
    fn join_example() -> (Database, QueryPlan) {
        let mut db = Database::new();
        let r_ty = TupleType::new([("a", NestedType::int())]).unwrap();
        let s_ty =
            TupleType::new([("b", NestedType::int()), ("payload", NestedType::str())]).unwrap();
        db.add_relation(
            "r",
            r_ty,
            Bag::from_values([
                Value::tuple([("a", Value::int(1))]),
                Value::tuple([("a", Value::int(7))]),
            ]),
        );
        db.add_relation(
            "s",
            s_ty,
            Bag::from_values([
                Value::tuple([("b", Value::int(1)), ("payload", Value::str("x"))]),
                Value::tuple([("b", Value::int(2)), ("payload", Value::str("y"))]),
            ]),
        );
        let plan = PlanBuilder::table("r")
            .join(
                PlanBuilder::table("s"),
                JoinKind::Inner,
                Expr::cmp(Expr::attr("a"), CmpOp::Eq, Expr::attr("b")),
            )
            .build()
            .unwrap();
        (db, plan)
    }

    #[test]
    fn join_tracing_pads_unmatched_tuples() {
        let (db, plan) = join_example();
        // Why-not: a = 7 joined with anything.
        let consistency = BTreeMap::from([(plan.root.id, Nip::tuple([("a", Nip::val(7i64))]))]);
        let sas = vec![SchemaAlternative::original(consistency)];
        let result = trace_plan(&plan, &db, &sas).unwrap();
        let join = result.root_trace();
        // 1 matched pair + 1 unmatched left + 1 unmatched right.
        assert_eq!(join.len(), 3);
        let padded = join
            .tuples()
            .find(|t| {
                t.traced.variant(0).map(|v| v.get("a") == Some(&Value::int(7))).unwrap_or(false)
            })
            .unwrap();
        assert!(padded.flags(0).valid);
        assert!(padded.flags(0).consistent);
        assert!(!padded.flags(0).retained, "inner join does not retain the padded tuple");
        let contributing = result.contributing_ids(0);
        assert!(join.has_reparameterization_witness(0, &contributing));
    }

    #[test]
    fn group_aggregation_tracing_checks_relaxed_and_retained_values() {
        let db = person_database();
        // count addresses per person after a selection that keeps only year ≥ 2019.
        let plan = PlanBuilder::table("person")
            .inner_flatten("address1", None)
            .select(Expr::attr_cmp("year", CmpOp::Ge, 2019i64))
            .group_aggregate(
                vec!["name"],
                vec![nrab_algebra::AggSpec::new(
                    nrab_algebra::AggFunc::Count,
                    Expr::attr("city"),
                    "cnt",
                )],
            )
            .build()
            .unwrap();
        // Why not: Peter with cnt ≥ 2? (Original result: Peter has exactly 1.)
        let consistency = BTreeMap::from([(
            plan.root.id,
            Nip::tuple([("name", Nip::val("Peter")), ("cnt", Nip::pred(NipCmp::Ge, 2i64))]),
        )]);
        let sas = vec![SchemaAlternative::original(consistency)];
        let result = trace_plan(&plan, &db, &sas).unwrap();
        let root = result.root_trace();
        let peter = root
            .tuples()
            .find(|t| t.traced.variant(0).unwrap().get("name") == Some(&Value::str("Peter")))
            .unwrap();
        // Relaxed count (3 addresses) satisfies cnt ≥ 2, so the group is consistent.
        assert!(peter.flags(0).consistent);
        assert!(peter.flags(0).retained, "the group also exists in the original result");

        // Why not: Peter with cnt = 1? The all-members count (3) does not
        // match; the retained-members fallback (LA 2019 only) does.
        let exact = BTreeMap::from([(
            plan.root.id,
            Nip::tuple([("name", Nip::val("Peter")), ("cnt", Nip::val(1i64))]),
        )]);
        let base = Arc::new(trace_plan_generalized(&plan, &db, &sas).unwrap());
        let result = annotate_consistency(&base, &plan, &[SchemaAlternative::original(exact)]);
        let peter = result
            .root_trace()
            .tuples()
            .find(|t| t.traced.variant(0).unwrap().get("name") == Some(&Value::str("Peter")))
            .unwrap();
        assert!(peter.flags(0).consistent, "the fallback variant matches cnt = 1");
    }

    /// A 1:1 operator that fails under one schema alternative drops the
    /// variant under that alternative only: here a tuple flatten whose
    /// substituted source is a scalar attribute.
    #[test]
    fn a_failing_one_to_one_operator_drops_the_variant_under_its_alternative_only() {
        let home = TupleType::new([("city", NestedType::str())]).unwrap();
        let ty = TupleType::new([("name", NestedType::str()), ("home", NestedType::Tuple(home))])
            .unwrap();
        let ann = Value::tuple([
            ("name", Value::str("Ann")),
            ("home", Value::tuple([("city", Value::str("NY"))])),
        ]);
        let mut db = Database::new();
        db.add_relation("r", ty, Bag::from_values([ann]));
        let plan = PlanBuilder::table("r").tuple_flatten("home", None).build().unwrap();
        let flatten = plan.root.id;
        let sas = vec![
            SchemaAlternative::original(BTreeMap::new()),
            SchemaAlternative::new(
                1,
                vec![OpSubstitution::new(flatten, "home", "name")],
                BTreeMap::new(),
            ),
        ];

        let result = trace_plan(&plan, &db, &sas).unwrap();
        let root = result.root_trace();
        assert_eq!(root.len(), 1);
        let tuple = root.tuples().next().unwrap();
        let variant = tuple.traced.variant(0).expect("the variant exists under SA 0");
        assert_eq!(variant.get("city"), Some(&Value::str("NY")));
        assert!(tuple.flags(0).valid);
        assert_eq!(tuple.traced.variant(1), None);
        assert!(tuple.traced.input_ids(1).is_empty());
        assert_eq!(tuple.flags(1), SaFlags::absent());

        // The evaluator rejects the SA-1 plan with the error the variant
        // vanished for.
        let effective = QueryPlan::new(OpNode::new(
            flatten,
            sas[1].effective_operator(&plan.root),
            plan.root.inputs.clone(),
        ))
        .unwrap();
        assert!(matches!(
            evaluate(&effective, &db),
            Err(AlgebraError::InvalidParameter { operator, .. }) if operator == "Fᵀ"
        ));
    }

    /// `π_x(R) − π_x(S)` traced under the original and an alternative that
    /// projects `b` instead of `a`, on the left and then on the right: the
    /// hash lookup flags the same variants as a scan of every right tuple,
    /// `Int` 2 and `Float` 2.0 subtracting each other. With the right side
    /// substituted, the left variants are shared but the subtracted sets
    /// differ, so `retained` must still be read per alternative.
    #[test]
    fn traced_difference_matches_a_scan_of_the_right_side() {
        use nrab_algebra::ProjColumn;
        let ty = TupleType::new([("a", NestedType::float()), ("b", NestedType::float())]).unwrap();
        let row = |a: Value, b: Value| Value::tuple([("a", a), ("b", b)]);
        let mut db = Database::new();
        db.add_relation(
            "r",
            ty.clone(),
            Bag::from_values([
                row(Value::int(1), Value::int(2)),
                row(Value::int(2), Value::int(3)),
                row(Value::int(3), Value::float(2.0)),
            ]),
        );
        db.add_relation(
            "s",
            ty,
            Bag::from_values([
                row(Value::float(2.0), Value::Null),
                row(Value::int(5), Value::Null),
            ]),
        );
        let x_of = |table: &str| {
            PlanBuilder::table(table).project(vec![ProjColumn::computed("x", Expr::attr("a"))])
        };
        let left = x_of("r");
        let left_op = left.current_id();
        let plan = left.difference(x_of("s")).build().unwrap();
        let right_op = plan.root.inputs[1].id;
        // SA 0 subtracts x = 2; SA 1 subtracts x = 2 and x = 2.0 with the
        // left side substituted, and nothing (`b` is null) with the right.
        for (substituted, expected) in [(left_op, [1, 2]), (right_op, [1, 0])] {
            let sas = vec![
                SchemaAlternative::original(BTreeMap::new()),
                SchemaAlternative::new(
                    1,
                    vec![OpSubstitution::new(substituted, "a", "b")],
                    BTreeMap::new(),
                ),
            ];
            let result = trace_plan(&plan, &db, &sas).unwrap();
            let right = result.trace(right_op).unwrap().trace;
            let mut subtracted = [0, 0];
            for tuple in result.root_trace().tuples() {
                for (sa, count) in subtracted.iter_mut().enumerate() {
                    let variant = tuple.traced.variant(sa).unwrap();
                    let scanned = right.tuples.iter().any(|r| r.variant(sa) == Some(variant));
                    assert_eq!(tuple.flags(sa).retained, !scanned);
                    *count += usize::from(scanned);
                }
            }
            assert_eq!(subtracted, expected, "substituted at operator {substituted}");
        }
    }

    /// A grouped aggregation above a selection whose predicate one
    /// alternative substitutes: both alternatives see the same member
    /// allocations, but different retained members, so each gets its own
    /// retained-members fallback and `retained` flag.
    #[test]
    fn grouped_aggregation_reads_each_alternatives_retained_members() {
        let ty = TupleType::new([
            ("name", NestedType::str()),
            ("a", NestedType::int()),
            ("b", NestedType::int()),
        ])
        .unwrap();
        let row = |name: &str, a: i64, b: i64| {
            Value::tuple([("name", Value::str(name)), ("a", Value::int(a)), ("b", Value::int(b))])
        };
        let mut db = Database::new();
        db.add_relation(
            "r",
            ty,
            Bag::from_values([row("x", 1, 7), row("x", 6, 8), row("y", 6, 1)]),
        );
        let selected = PlanBuilder::table("r").select(Expr::attr_cmp("a", CmpOp::Ge, 5i64));
        let select = selected.current_id();
        let count =
            nrab_algebra::AggSpec::new(nrab_algebra::AggFunc::Count, Expr::attr("a"), "cnt");
        let plan = selected.group_aggregate(vec!["name"], vec![count]).build().unwrap();
        let sas = vec![
            SchemaAlternative::original(BTreeMap::new()),
            SchemaAlternative::new(1, vec![OpSubstitution::new(select, "a", "b")], BTreeMap::new()),
        ];
        let trace = trace_plan_generalized(&plan, &db, &sas).unwrap();
        let root = &trace.traces[&plan.root.id];
        let group = |name: &str| {
            let name = Value::str(name);
            root.tuples.iter().find(|t| t.variant(0).unwrap().get("name") == Some(&name)).unwrap()
        };
        let fallback_count =
            |tuple: &TracedTuple, sa| tuple.fallback_variant(sa).unwrap().get("cnt").cloned();
        // x: SA 0 retains (x, 6, 8), SA 1 both members; y: only SA 0.
        let (x, y) = (group("x"), group("y"));
        assert_eq!(fallback_count(x, 0), Some(Value::int(1)));
        assert_eq!(fallback_count(x, 1), Some(Value::int(2)));
        assert_eq!((x.get(0).unwrap().retained, x.get(1).unwrap().retained), (true, true));
        assert_eq!(fallback_count(y, 0), Some(Value::int(1)));
        assert_eq!(fallback_count(y, 1), Some(Value::int(0)));
        assert_eq!((y.get(0).unwrap().retained, y.get(1).unwrap().retained), (true, false));
    }

    /// Under an armed guard whose zero deadline has passed, the chunked 1:1
    /// loop and the join's per-alternative loop return the trip as an error.
    #[test]
    fn a_passed_deadline_trips_inside_the_tracer_loops() {
        let (db, plan) = join_example();
        let sas = vec![SchemaAlternative::original(BTreeMap::new())];
        let mut tracer = Tracer::new(&db, &sas);
        let [left, right] = [&plan.root.inputs[0], &plan.root.inputs[1]].map(|input| {
            tracer.trace_node(input).unwrap();
            tracer.traces.remove(&input.id).unwrap()
        });

        let guard = whynot_guard::Guard::new(Some(0), None, None);
        let _armed = whynot_guard::arm(&guard);
        std::thread::sleep(std::time::Duration::from_millis(1));
        let classes = Classes::new(sas.len(), |_, _| true, |_| ());
        let mapped = tracer
            .one_to_one(&left.tuples, &classes, |(), input| Some((input.tuple.clone(), true)));
        let joined = tracer.trace_join(&plan.root, &left, &right);
        for (loop_name, result) in [("one_to_one", mapped), ("trace_join", joined)] {
            assert!(
                matches!(
                    result,
                    Err(AlgebraError::Resource(
                        whynot_guard::ResourceError::DeadlineExceeded { .. }
                    ))
                ),
                "{loop_name}: the trip must return as an error"
            );
        }
    }

    #[test]
    fn tracing_requires_at_least_one_alternative() {
        let db = person_database();
        let plan = running_example_plan();
        assert!(trace_plan(&plan, &db, &[]).is_err());
    }

    #[test]
    #[should_panic(expected = "one schema alternative per traced alternative")]
    fn annotation_rejects_a_different_number_of_alternatives() {
        let db = person_database();
        let plan = running_example_plan();
        let base = Arc::new(trace_plan_generalized(&plan, &db, &example_sas()).unwrap());
        annotate_consistency(&base, &plan, &example_sas()[..1]);
    }
}
