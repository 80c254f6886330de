//! The tracing evaluator: generalized operator evaluation with per-schema-
//! alternative annotations (Section 5.3).
//!
//! For every plan operator, the tracer computes an [`OpTrace`] whose tuples
//! carry, per schema alternative, the data variant and the `valid` /
//! `consistent` / `retained` flags. Operators are *generalized* so that data a
//! reparameterization could keep also flows upward:
//!
//! * selections annotate instead of filtering,
//! * relation flattens behave like outer flattens,
//! * joins behave like full outer joins,
//! * difference annotates instead of removing.
//!
//! All schema alternatives are traced in a single pass over the data (the
//! merge step of Algorithm 3 / Figure 7), which is what makes additional
//! alternatives cheaper than additional query executions (Figure 11).
//!
//! The per-tuple work of the 1:1 operators (structural, selection, flatten)
//! and the per-schema-alternative work of the n:m operators (join probing,
//! nesting, aggregation) are independent, so both fan out across the
//! `whynot-exec` pool. Every parallel loop is an ordered `par_map` whose
//! results are reassembled in input order and whose fresh tuple ids are
//! assigned in a serial pass afterwards, so the trace is **bit-identical**
//! to the serial one at any `WHYNOT_THREADS` (the cross-crate determinism
//! tests enforce this).

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::Arc;

use nested_data::{AttrPath, Bag, NestedType, Nip, Sym, Tuple, TupleType, Value};
use nrab_algebra::eval::{apply_operator, morsel_ranges};
use nrab_algebra::expr::Expr;
use nrab_algebra::join::{
    hash_join_enabled, join_matches_probe, join_matches_with, split_equi_join, EquiJoin, JoinBuild,
    JoinMatches,
};
use nrab_algebra::schema::output_type;
use nrab_algebra::{AggFunc, ProjColumn};
use nrab_algebra::{
    AlgebraError, AlgebraResult, Database, FlattenKind, JoinKind, OpId, OpNode, Operator, QueryPlan,
};
use whynot_exec::{par_map, par_map_range};

use crate::alternative::SchemaAlternative;
use crate::annotate::{GeneralizedTrace, OpTrace, SaFlags, TraceResult, TracedTuple};

thread_local! {
    /// Thread-local fused-replay enable flag (default: enabled). See
    /// [`with_pipelining`].
    static PIPELINING_ENABLED: Cell<bool> = const { Cell::new(true) };
}

/// Whether the tracer's fused replay is enabled on the current thread.
fn pipelining_enabled() -> bool {
    PIPELINING_ENABLED.with(Cell::get)
}

/// Runs `f` with the tracer's fused replay of 1:1 operator chains enabled or
/// disabled on the current thread, restoring the previous setting afterwards
/// (also on panic).
///
/// Disabling forces every operator back onto the operator-at-a-time replay —
/// the knob the differential tests and the `pipeline` bench group use to
/// compare the two replays on identical plans. Like
/// [`nrab_algebra::with_hash_join`], the flag governs where the *decision* is
/// made: the tracer reads it on the calling thread before any fan-out; pool
/// workers only execute morsels of an already-compiled chain.
pub fn with_pipelining<R>(enabled: bool, f: impl FnOnce() -> R) -> R {
    struct Restore {
        previous: bool,
    }
    impl Drop for Restore {
        fn drop(&mut self) {
            let previous = self.previous;
            PIPELINING_ENABLED.with(|c| c.set(previous));
        }
    }
    let _restore = Restore { previous: PIPELINING_ENABLED.with(|c| c.replace(enabled)) };
    f()
}

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
    let base = trace_plan_generalized(plan, db, sas)?;
    Ok(annotate_consistency(&base, plan, sas))
}

/// The expensive, question-independent part of tracing: evaluates the plan in
/// its generalized form and computes the `valid` and `retained` flags, the
/// data variants, and the lineage for every schema alternative.
///
/// Only the attribute *substitutions* of `sas` are consulted — never their
/// consistency NIPs — so the result can be reused across why-not questions
/// that share the plan, the database, and the substitution sets (the trace
/// cache of `whynot-service` is keyed accordingly). The `consistent` flags of
/// the returned trace are placeholders; [`annotate_consistency`] fills them in
/// for a concrete question.
pub fn trace_plan_generalized(
    plan: &QueryPlan,
    db: &Database,
    sas: &[SchemaAlternative],
) -> AlgebraResult<GeneralizedTrace> {
    if sas.is_empty() {
        return Err(AlgebraError::Eval("at least one schema alternative is required".into()));
    }
    let _span = whynot_obs::span("trace_plan");
    let mut tracer = Tracer { db, sas, next_id: 1, traces: BTreeMap::new() };
    // Chunked loops below (and the join core underneath) raise guard trips
    // as panics; recover them into the error channel at the layer boundary.
    whynot_guard::catch_trip(|| tracer.trace_node(&plan.root))
        .unwrap_or_else(|trip| Err(AlgebraError::Resource(trip)))?;
    if whynot_obs::enabled() {
        whynot_obs::add(
            "trace.total_tuples",
            tracer.traces.values().map(|t| t.tuples.len() as u64).sum(),
        );
        whynot_obs::add("trace.sas", sas.len() as u64);
    }
    Ok(GeneralizedTrace {
        inner: TraceResult {
            traces: tracer.traces,
            root: plan.root.id,
            pre_order: plan.op_ids_top_down(),
            num_sas: sas.len(),
        },
    })
}

/// The cheap, question-specific part of tracing: re-validates every traced
/// tuple against the consistency NIPs of the schema alternatives (the
/// pushed-down why-not constraints produced by schema backtracing) and fills
/// in the `consistent` flags.
///
/// `sas` must describe the same substitution sets (in the same order) as the
/// ones `base` was traced under; only the consistency NIPs may differ.
pub fn annotate_consistency(
    base: &GeneralizedTrace,
    plan: &QueryPlan,
    sas: &[SchemaAlternative],
) -> TraceResult {
    // Per-operator annotation is independent work; each operator's tuples
    // are in turn annotated in parallel chunks. Only the outermost level
    // actually fans out (nested calls always serialize), so the per-tuple
    // level parallelizes exactly when the operator level ran serially
    // (e.g. a single-operator plan).
    let _span = whynot_obs::span("annotate");
    let entries: Vec<(OpId, &OpTrace)> = base.inner.traces.iter().map(|(op, t)| (*op, t)).collect();
    let annotated: Vec<OpTrace> = par_map(&entries, |(op, op_trace)| {
        let _span = whynot_obs::span_dyn(|| format!("annotate:{}#{}", op_trace.kind, op));
        let trace = annotate_op_consistency(op_trace, *op, plan, sas);
        if whynot_obs::enabled() {
            let compatible: u64 = trace
                .tuples
                .iter()
                .map(|t| t.flags.iter().filter(|f| f.valid && f.consistent).count() as u64)
                .sum();
            whynot_obs::add("trace.compatible", compatible);
        }
        trace
    });
    TraceResult {
        traces: entries.iter().map(|(op, _)| *op).zip(annotated).collect(),
        root: base.inner.root,
        pre_order: base.inner.pre_order.clone(),
        num_sas: base.inner.num_sas,
    }
}

/// Annotates one operator's trace: re-validates every tuple against the
/// consistency NIPs of the schema alternatives and fills in the `consistent`
/// flags.
fn annotate_op_consistency(
    base: &OpTrace,
    op: OpId,
    plan: &QueryPlan,
    sas: &[SchemaAlternative],
) -> OpTrace {
    let node = plan.node(op).ok();
    let is_group_agg = matches!(node.map(|n| &n.op), Some(Operator::GroupAggregation { .. }));
    let tuples = par_map(&base.tuples, |tuple| {
        let mut tuple = tuple.clone();
        for (sa_idx, sa) in sas.iter().enumerate() {
            let Some(flags) = tuple.flags.get_mut(sa_idx) else { continue };
            if !flags.valid {
                continue;
            }
            let Some(variant) = tuple.variants.get(sa_idx).and_then(Option::as_ref) else {
                continue;
            };
            flags.consistent = match sa.consistency_nip(op) {
                None => true,
                Some(nip) if is_group_agg => {
                    // Upper-bound constraints on aggregate outputs can
                    // always be met by a more restrictive choice of
                    // contributing tuples, which the tracing does not
                    // enumerate (Section 5.5); relax them, then accept the
                    // group if either the all-members aggregate or the
                    // retained-members fallback satisfies the NIP.
                    let node = node.expect("group aggregation node exists in plan");
                    let agg_outputs: Vec<String> = match sa.effective_operator(node) {
                        Operator::GroupAggregation { aggs, .. } => {
                            aggs.iter().map(|a| a.output.clone()).collect()
                        }
                        _ => Vec::new(),
                    };
                    let relaxed_nip = relax_aggregate_upper_bounds(nip, &agg_outputs);
                    nip_matches_tuple(&relaxed_nip, variant)
                        || tuple
                            .fallback_variants
                            .get(sa_idx)
                            .and_then(Option::as_ref)
                            .map(|f| nip_matches_tuple(&relaxed_nip, f))
                            .unwrap_or(false)
                }
                Some(nip) => nip_matches_tuple(nip, variant),
            };
        }
        tuple
    });
    OpTrace { op: base.op, kind: base.kind.clone(), tuples }
}

struct Tracer<'a> {
    db: &'a Database,
    sas: &'a [SchemaAlternative],
    next_id: u64,
    traces: BTreeMap<OpId, OpTrace>,
}

impl<'a> Tracer<'a> {
    fn fresh_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    fn n_sas(&self) -> usize {
        self.sas.len()
    }

    /// The effective (SA-substituted) operator of a node, wrapped in a node
    /// that preserves the original children so schema inference still works.
    fn effective_node(&self, node: &OpNode, sa: usize) -> OpNode {
        OpNode::new(node.id, self.sas[sa].effective_operator(node), node.inputs.clone())
    }

    fn take_trace(&mut self, op: OpId) -> OpTrace {
        self.traces.remove(&op).expect("child trace must have been computed")
    }

    fn put_trace(&mut self, trace: OpTrace) {
        self.traces.insert(trace.op, trace);
    }

    fn trace_node(&mut self, node: &OpNode) -> AlgebraResult<()> {
        // Pipelined replay: a maximal run of 1:1 operators (selections and
        // structural transforms) ending at `node` is traced as one fused
        // morsel-driven pass over its source instead of one full per-op
        // replay each. The flag is read here, on the calling thread, before
        // any fan-out — pool workers only execute morsels of an
        // already-compiled chain.
        if pipelining_enabled() {
            let mut chain: Vec<&OpNode> = Vec::new();
            let mut cur = node;
            while tracer_fusable(&cur.op) {
                chain.push(cur);
                cur = &cur.inputs[0];
            }
            if !chain.is_empty() {
                self.trace_node(cur)?;
                chain.reverse(); // collected sink-to-source; replay wants source-to-sink
                return self.trace_fused(&chain);
            }
        }
        for input in &node.inputs {
            self.trace_node(input)?;
        }
        self.trace_op(node)
    }

    /// Traces one operator whose children are already traced, with the
    /// per-operator bookkeeping (trace-tuple budget, observability counters).
    fn trace_op(&mut self, node: &OpNode) -> AlgebraResult<()> {
        let _span = whynot_obs::span_dyn(|| format!("trace:{}#{}", node.op.kind_name(), node.id));
        let trace = match &node.op {
            Operator::TableAccess { table } => self.trace_table_access(node, table)?,
            Operator::Selection { .. } => self.trace_selection(node)?,
            Operator::Flatten { .. } => self.trace_flatten(node)?,
            Operator::Join { .. } => self.trace_join(node)?,
            Operator::CrossProduct => self.trace_join(node)?,
            Operator::RelationNest { .. } => self.trace_relation_nest(node)?,
            Operator::GroupAggregation { .. } => self.trace_group_aggregation(node)?,
            Operator::Union => self.trace_union(node)?,
            Operator::Difference => self.trace_difference(node)?,
            // Projection, renaming, tuple flatten, tuple nesting, per-tuple
            // aggregation, and dedup are structural 1:1 operators.
            _ => self.trace_structural(node)?,
        };
        // Traced tuples are the paper's worst-case growth term; draw each
        // operator's count from the request's trace-tuple budget. Serial
        // post-order recursion, so consumption order is deterministic.
        whynot_guard::consume_trace_tuples(trace.tuples.len() as u64)
            .map_err(AlgebraError::from)?;
        record_trace_counters(&trace);
        self.put_trace(trace);
        Ok(())
    }

    /// Replays a fused run of selections and structural operators as one
    /// morsel-driven pass over the child's traced tuples: each ~1024-row
    /// morsel threads every tuple's per-SA variants through the whole chain
    /// on one worker, keeping them hot instead of materializing each
    /// operator's full trace before the next starts. Per-operator traces are
    /// then reassembled serially in chain order, so fresh ids, lineage,
    /// budget draws, and flags are bit-identical to the operator-at-a-time
    /// replay at any thread count.
    fn trace_fused(&mut self, ops: &[&OpNode]) -> AlgebraResult<()> {
        let _span = whynot_obs::span_dyn(|| {
            let (first, last) = (ops[0], ops[ops.len() - 1]);
            format!(
                "pipe:{}#{}..{}#{}",
                first.op.kind_name(),
                first.id,
                last.op.kind_name(),
                last.id
            )
        });
        let child_trace = self.take_trace(ops[0].inputs[0].id);
        let n = self.n_sas();
        // Compile each operator once per schema alternative: selection
        // predicates, and direct per-tuple transform contexts for the
        // structural operators (the schema-dependent parts of tuple flatten
        // resolve here, not once per tuple as the singleton-bag path does).
        let steps: Vec<FusedStep> = ops
            .iter()
            .map(|node| match &node.op {
                Operator::Selection { .. } => FusedStep::Select(
                    (0..n)
                        .map(|sa| match self.sas[sa].effective_operator(node) {
                            Operator::Selection { predicate } => predicate,
                            _ => Expr::lit(true),
                        })
                        .collect(),
                ),
                _ => FusedStep::Structural(
                    (0..n)
                        .map(|sa| StructuralCtx::compile(&self.effective_node(node, sa), self.db))
                        .collect(),
                ),
            })
            .collect();

        // Morsel pass: tuple-major, operator-inner. Guard draws mirror the
        // operator-at-a-time replay exactly — one checkpoint and one eval row
        // per structural application to a valid variant (selections only
        // annotate and draw nothing), and a failed draw makes the variant
        // vanish under that alternative, as the singleton-bag path degrades.
        let armed = whynot_guard::armed();
        type FusedRow = Vec<(Vec<Option<Tuple>>, Vec<SaFlags>)>;
        let chunks = morsel_ranges(child_trace.tuples.len());
        let per_morsel: Vec<Vec<FusedRow>> = par_map(&chunks, |range| {
            whynot_guard::enforce();
            child_trace.tuples[range.clone()]
                .iter()
                .map(|input| {
                    let mut state: Vec<(Option<Tuple>, bool)> = (0..n)
                        .map(|sa| (input.variant(sa).cloned(), input.flags(sa).valid))
                        .collect();
                    steps
                        .iter()
                        .map(|step| {
                            let mut variants = Vec::with_capacity(n);
                            let mut flags = Vec::with_capacity(n);
                            for (sa, (variant, valid)) in state.iter_mut().enumerate() {
                                match step {
                                    FusedStep::Select(predicates) => {
                                        let retained = variant
                                            .as_ref()
                                            .map(|t| *valid && predicates[sa].eval_bool(t))
                                            .unwrap_or(false);
                                        flags.push(base_flags(variant.as_ref(), *valid, retained));
                                        variants.push(variant.clone());
                                        *valid = *valid && variant.is_some();
                                    }
                                    FusedStep::Structural(ctxs) => {
                                        let transformed = match variant.as_ref() {
                                            Some(tuple) if *valid => {
                                                let allowed = !armed
                                                    || (whynot_guard::checkpoint().is_ok()
                                                        && whynot_guard::consume_eval_rows(1)
                                                            .is_ok());
                                                if allowed {
                                                    ctxs[sa].apply(tuple)
                                                } else {
                                                    None
                                                }
                                            }
                                            _ => None,
                                        };
                                        flags.push(base_flags(transformed.as_ref(), *valid, true));
                                        *valid = transformed.is_some();
                                        variants.push(transformed.clone());
                                        *variant = transformed;
                                    }
                                }
                            }
                            (variants, flags)
                        })
                        .collect()
                })
                .collect()
        });

        // Serial reassembly, operator by operator in chain order: fresh ids,
        // lineage to the previous stage, trace-tuple budget draws, and
        // per-operator observability counters — all exactly as the unfused
        // post-order recursion would have produced them.
        let mut rows: Vec<FusedRow> = per_morsel.into_iter().flatten().collect();
        let mut prev_ids: Vec<u64> = child_trace.tuples.iter().map(|t| t.id).collect();
        for (k, node) in ops.iter().enumerate() {
            let mut tuples = Vec::with_capacity(rows.len());
            let mut ids = Vec::with_capacity(rows.len());
            for (row, prev) in rows.iter_mut().zip(&prev_ids) {
                let (variants, flags) = std::mem::take(&mut row[k]);
                let id = self.fresh_id();
                ids.push(id);
                tuples.push(TracedTuple::new(id, variants, flags, vec![vec![*prev]; n]));
            }
            prev_ids = ids;
            let trace = OpTrace { op: node.id, kind: node.op.kind_name().to_string(), tuples };
            whynot_guard::consume_trace_tuples(trace.tuples.len() as u64)
                .map_err(AlgebraError::from)?;
            record_trace_counters(&trace);
            self.put_trace(trace);
        }
        self.put_trace(child_trace);
        Ok(())
    }

    fn trace_table_access(&mut self, node: &OpNode, table: &str) -> AlgebraResult<OpTrace> {
        let bag = self.db.relation(table)?.clone();
        let mut tuples = Vec::with_capacity(bag.distinct());
        for (value, _mult) in bag.iter() {
            let tuple = value.as_tuple().cloned().unwrap_or_else(Tuple::empty);
            let id = self.fresh_id();
            let variants = vec![Some(tuple.clone()); self.n_sas()];
            let flags = (0..self.n_sas()).map(|_| base_flags(Some(&tuple), true, true)).collect();
            tuples.push(TracedTuple::new(id, variants, flags, vec![Vec::new(); self.n_sas()]));
        }
        Ok(OpTrace { op: node.id, kind: node.op.kind_name().to_string(), tuples })
    }

    /// Structural 1:1 operators: apply the effective operator to each variant
    /// individually; `retained` is always true (these operators never prune).
    fn trace_structural(&mut self, node: &OpNode) -> AlgebraResult<OpTrace> {
        let child = &node.inputs[0];
        let child_trace = self.take_trace(child.id);
        let effective: Vec<OpNode> =
            (0..self.n_sas()).map(|sa| self.effective_node(node, sa)).collect();

        // The per-tuple evaluation is the expensive part; fan it out and
        // assign the fresh ids in a serial pass so they match the serial
        // trace exactly.
        let db = self.db;
        let n = self.n_sas();
        type StructuralRow = (Vec<Option<Tuple>>, Vec<SaFlags>);
        let computed: Vec<AlgebraResult<StructuralRow>> = par_map(&child_trace.tuples, |input| {
            let mut variants = Vec::with_capacity(n);
            let mut flags = Vec::with_capacity(n);
            for (sa, effective_node) in effective.iter().enumerate() {
                let input_flags = input.flags(sa);
                let transformed = match input.variant(sa) {
                    Some(tuple) if input_flags.valid => apply_to_single(effective_node, tuple, db)?,
                    _ => None,
                };
                flags.push(base_flags(transformed.as_ref(), input_flags.valid, true));
                variants.push(transformed);
            }
            Ok((variants, flags))
        });
        let mut tuples = Vec::with_capacity(child_trace.tuples.len());
        for (input, row) in child_trace.tuples.iter().zip(computed) {
            let (variants, flags) = row?;
            tuples.push(TracedTuple::new(
                self.fresh_id(),
                variants,
                flags,
                vec![vec![input.id]; n],
            ));
        }
        self.put_trace(child_trace);
        Ok(OpTrace { op: node.id, kind: node.op.kind_name().to_string(), tuples })
    }

    /// Selection: annotate instead of filter. `retained` records whether the
    /// original (SA-substituted) predicate holds.
    fn trace_selection(&mut self, node: &OpNode) -> AlgebraResult<OpTrace> {
        let child = &node.inputs[0];
        let child_trace = self.take_trace(child.id);
        let predicates: Vec<Expr> = (0..self.n_sas())
            .map(|sa| match self.sas[sa].effective_operator(node) {
                Operator::Selection { predicate } => predicate,
                _ => Expr::lit(true),
            })
            .collect();

        let n = self.n_sas();
        type SelectionRow = (Vec<Option<Tuple>>, Vec<SaFlags>);
        let computed: Vec<SelectionRow> = par_map(&child_trace.tuples, |input| {
            let mut variants = Vec::with_capacity(n);
            let mut flags = Vec::with_capacity(n);
            for (sa, predicate) in predicates.iter().enumerate() {
                let input_flags = input.flags(sa);
                let variant = input.variant(sa).cloned();
                let retained = variant
                    .as_ref()
                    .map(|t| input_flags.valid && predicate.eval_bool(t))
                    .unwrap_or(false);
                flags.push(base_flags(variant.as_ref(), input_flags.valid, retained));
                variants.push(variant);
            }
            (variants, flags)
        });
        let mut tuples = Vec::with_capacity(child_trace.tuples.len());
        for (input, (variants, flags)) in child_trace.tuples.iter().zip(computed) {
            tuples.push(TracedTuple::new(
                self.fresh_id(),
                variants,
                flags,
                vec![vec![input.id]; n],
            ));
        }
        self.put_trace(child_trace);
        Ok(OpTrace { op: node.id, kind: node.op.kind_name().to_string(), tuples })
    }

    /// Relation flatten, generalized to an outer flatten.
    fn trace_flatten(&mut self, node: &OpNode) -> AlgebraResult<OpTrace> {
        let child = &node.inputs[0];
        let child_schema = output_type(child, self.db)?;
        let child_trace = self.take_trace(child.id);

        let (original_kind, alias) = match &node.op {
            Operator::Flatten { kind, alias, .. } => (*kind, alias.clone()),
            _ => unreachable!("trace_flatten called on non-flatten"),
        };
        // Per SA: the attribute actually flattened.
        let attrs: Vec<String> = (0..self.n_sas())
            .map(|sa| match self.sas[sa].effective_operator(node) {
                Operator::Flatten { attr, .. } => attr,
                _ => unreachable!(),
            })
            .collect();

        // Per input tuple and SA, the list of (tuple, retained) the outer
        // flatten produces — computed in parallel, merged serially below.
        let n = self.n_sas();
        // Per SA, the `(tuple, retained)` rows one input produces.
        type FlattenRows = Vec<Vec<(Tuple, bool)>>;
        let computed: Vec<AlgebraResult<FlattenRows>> = par_map(&child_trace.tuples, |input| {
            let mut per_sa: FlattenRows = Vec::with_capacity(n);
            for (sa, attr) in attrs.iter().enumerate() {
                let input_flags = input.flags(sa);
                let outputs = match input.variant(sa) {
                    Some(tuple) if input_flags.valid => {
                        flatten_one(tuple, attr, alias.as_deref(), original_kind, &child_schema)?
                    }
                    _ => Vec::new(),
                };
                per_sa.push(outputs);
            }
            Ok(per_sa)
        });
        let mut tuples = Vec::new();
        for (input, per_sa) in child_trace.tuples.iter().zip(computed) {
            let per_sa = per_sa?;
            let width = per_sa.iter().map(Vec::len).max().unwrap_or(0);
            for k in 0..width {
                let id = self.fresh_id();
                let mut variants = Vec::with_capacity(self.n_sas());
                let mut flags = Vec::with_capacity(self.n_sas());
                for outputs in per_sa.iter() {
                    match outputs.get(k) {
                        Some((tuple, retained)) => {
                            flags.push(base_flags(Some(tuple), true, *retained));
                            variants.push(Some(tuple.clone()));
                        }
                        None => {
                            flags.push(SaFlags::absent());
                            variants.push(None);
                        }
                    }
                }
                tuples.push(TracedTuple::new(
                    id,
                    variants,
                    flags,
                    vec![vec![input.id]; self.n_sas()],
                ));
            }
        }
        self.put_trace(child_trace);
        Ok(OpTrace { op: node.id, kind: node.op.kind_name().to_string(), tuples })
    }

    /// Joins (and cross products), generalized to full outer joins.
    ///
    /// The pairing itself — partitioned hash join on the equi conjuncts with
    /// a parallel nested-loop fallback — is `nrab_algebra::join`, the same
    /// core the evaluator's join runs on; tracing adds the per-SA fan-out and
    /// the outer-join generalization below.
    fn trace_join(&mut self, node: &OpNode) -> AlgebraResult<OpTrace> {
        let left_node = &node.inputs[0];
        let right_node = &node.inputs[1];
        let left_schema = output_type(left_node, self.db)?;
        let right_schema = output_type(right_node, self.db)?;
        let left_trace = self.take_trace(left_node.id);
        let right_trace = self.take_trace(right_node.id);

        let original_kind = match &node.op {
            Operator::Join { kind, .. } => *kind,
            Operator::CrossProduct => JoinKind::Inner,
            _ => unreachable!("trace_join called on non-join"),
        };
        let predicates: Vec<Expr> = (0..self.n_sas())
            .map(|sa| match self.sas[sa].effective_operator(node) {
                Operator::Join { predicate, .. } => predicate,
                Operator::CrossProduct => Expr::lit(true),
                _ => Expr::lit(true),
            })
            .collect();

        // The hash-join decision is resolved once, on the calling thread:
        // the per-SA closures below may run on pool workers whose
        // thread-local flag was never touched by `with_hash_join`.
        let use_hash = hash_join_enabled();

        // Schema alternatives whose substitutions leave the right subtree
        // untouched (and whose effective predicates split into the same
        // right key paths) join *identical* right rows: their hash tables
        // are equal, so build once per distinct group and share it across
        // the group's probes. Signature = the alternative's substitutions
        // restricted to right-subtree operators, plus the right key paths.
        let right_rows_of = |sa: usize| -> Vec<Option<&Tuple>> {
            right_trace
                .tuples
                .iter()
                .map(|t| if t.flags(sa).valid { t.variant(sa) } else { None })
                .collect()
        };
        let equis: Vec<Option<EquiJoin>> = predicates
            .iter()
            .map(|p| use_hash.then(|| split_equi_join(p, &left_schema, &right_schema)).flatten())
            .collect();
        let mut right_ops = std::collections::BTreeSet::new();
        collect_subtree_ops(right_node, &mut right_ops);
        let mut groups: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for (sa, equi) in equis.iter().enumerate() {
            let Some(equi) = equi else { continue };
            use std::fmt::Write;
            let mut signature = String::new();
            for substitution in &self.sas[sa].substitutions {
                if right_ops.contains(&substitution.op) {
                    let _ = write!(signature, "{substitution};");
                }
            }
            for key in &equi.right_keys {
                let _ = write!(signature, "|{key}");
            }
            groups.entry(signature).or_default().push(sa);
        }
        let mut build_for_sa: Vec<Option<Arc<JoinBuild>>> = vec![None; self.n_sas()];
        for members in groups.values() {
            let representative = members[0];
            let build = Arc::new(JoinBuild::build(
                &right_rows_of(representative),
                &equis[representative]
                    .as_ref()
                    .expect("grouped SAs have equi structure")
                    .right_keys,
            ));
            for &sa in members {
                build_for_sa[sa] = Some(Arc::clone(&build));
            }
        }

        // The per-SA join passes are independent, and within one SA the join
        // core chunks build and probe over the pool, too. Only the outermost
        // parallel call fans out (nested calls always serialize): with
        // several SAs the SA level owns the threads and the per-SA joins run
        // serially inside it; with a single SA the SA level is a no-op and
        // the core's build/probe level parallelizes instead. Matches are
        // folded in (left, right) order, so the pair list is identical to
        // the serial nested loop.
        let per_sa: Vec<JoinMatches> = par_map_range(0..self.n_sas(), |sa| {
            let _span = whynot_obs::span_dyn(|| format!("sa#{sa}"));
            whynot_guard::faults::fault_point_dyn("trace_sa", || sa.to_string());
            whynot_guard::enforce();
            let left_rows: Vec<Option<&Tuple>> = left_trace
                .tuples
                .iter()
                .map(|t| if t.flags(sa).valid { t.variant(sa) } else { None })
                .collect();
            let right_rows = right_rows_of(sa);
            match (&equis[sa], &build_for_sa[sa]) {
                (Some(equi), Some(build)) => {
                    join_matches_probe(&left_rows, &right_rows, equi, build)
                }
                _ => join_matches_with(
                    &left_rows,
                    &right_rows,
                    &predicates[sa],
                    &left_schema,
                    &right_schema,
                    use_hash,
                ),
            }
        });

        // Merge across SAs, keyed by (left id, right id) with None for padding.
        #[derive(Default, Clone)]
        struct Slot {
            per_sa: Vec<Option<(Tuple, bool)>>,
        }
        let mut slots: BTreeMap<(Option<u64>, Option<u64>), Slot> = BTreeMap::new();
        let n = self.n_sas();
        fn slot_for(
            slots: &mut BTreeMap<(Option<u64>, Option<u64>), Slot>,
            key: (Option<u64>, Option<u64>),
            n: usize,
        ) -> &mut Slot {
            slots.entry(key).or_insert_with(|| Slot { per_sa: vec![None; n] })
        }
        let left_names: Vec<nested_data::Sym> = left_schema.attribute_syms().collect();
        let right_names: Vec<nested_data::Sym> = right_schema.attribute_syms().collect();
        for (sa, state) in per_sa.iter().enumerate() {
            for pair in &state.pairs {
                let lt = &left_trace.tuples[pair.left];
                let rt = &right_trace.tuples[pair.right];
                let slot = slot_for(&mut slots, (Some(lt.id), Some(rt.id)), n);
                slot.per_sa[sa] = Some((pair.combined.clone(), true));
            }
            for (li, lt) in left_trace.tuples.iter().enumerate() {
                if lt.flags(sa).valid && !state.left_matched[li] {
                    let padded =
                        lt.variant(sa).unwrap().concat(&Tuple::null_padded(&right_names))?;
                    let retained = matches!(original_kind, JoinKind::Left | JoinKind::Full);
                    let slot = slot_for(&mut slots, (Some(lt.id), None), n);
                    slot.per_sa[sa] = Some((padded, retained));
                }
            }
            for (ri, rt) in right_trace.tuples.iter().enumerate() {
                if rt.flags(sa).valid && !state.right_matched[ri] {
                    let padded = Tuple::null_padded(&left_names).concat(rt.variant(sa).unwrap())?;
                    let retained = matches!(original_kind, JoinKind::Right | JoinKind::Full);
                    let slot = slot_for(&mut slots, (None, Some(rt.id)), n);
                    slot.per_sa[sa] = Some((padded, retained));
                }
            }
        }

        let mut tuples = Vec::with_capacity(slots.len());
        for ((lid, rid), slot) in slots {
            let id = self.fresh_id();
            let mut variants = Vec::with_capacity(n);
            let mut flags = Vec::with_capacity(n);
            let mut inputs = Vec::with_capacity(n);
            let pair_ids: Vec<u64> = [lid, rid].into_iter().flatten().collect();
            for sa in 0..n {
                match &slot.per_sa[sa] {
                    Some((tuple, retained)) => {
                        flags.push(base_flags(Some(tuple), true, *retained));
                        variants.push(Some(tuple.clone()));
                        inputs.push(pair_ids.clone());
                    }
                    None => {
                        flags.push(SaFlags::absent());
                        variants.push(None);
                        inputs.push(Vec::new());
                    }
                }
            }
            tuples.push(TracedTuple::new(id, variants, flags, inputs));
        }
        self.put_trace(left_trace);
        self.put_trace(right_trace);
        Ok(OpTrace { op: node.id, kind: node.op.kind_name().to_string(), tuples })
    }

    /// Relation nesting: group valid tuples per SA and merge group keys across
    /// SAs with an outer-join-like combination (Figure 7, step 4).
    fn trace_relation_nest(&mut self, node: &OpNode) -> AlgebraResult<OpTrace> {
        let child = &node.inputs[0];
        let child_trace = self.take_trace(child.id);
        let n = self.n_sas();

        // Per-SA grouping passes are independent: each SA builds its own
        // key → (nested bag, member ids) map in parallel; the maps are then
        // merged over the union of keys — the outer-join-like combination of
        // Figure 7, step 4 — in SA order, which reproduces the serial result
        // exactly (B-tree maps are insertion-order insensitive).
        #[allow(clippy::mutable_key_type)] // cached hashes don't affect `Ord`
        type SaGroups = BTreeMap<Value, (Bag, Vec<u64>)>;
        let sas = self.sas;
        let per_sa_groups: Vec<(SaGroups, String)> = par_map_range(0..n, |sa| {
            let _span = whynot_obs::span_dyn(|| format!("sa#{sa}"));
            let (attrs, into) = match sas[sa].effective_operator(node) {
                Operator::RelationNest { attrs, into } => (attrs, into),
                _ => unreachable!("trace_relation_nest called on non-nest"),
            };
            let attr_refs: Vec<nested_data::Sym> =
                attrs.iter().map(|a| nested_data::Sym::intern(a)).collect();
            #[allow(clippy::mutable_key_type)]
            let mut sa_groups: SaGroups = BTreeMap::new();
            for input in &child_trace.tuples {
                let Some(tuple) = input.variant(sa) else { continue };
                if !input.flags(sa).valid {
                    continue;
                }
                let key = Value::from_tuple(tuple.without(&attr_refs));
                let entry = sa_groups.entry(key).or_insert_with(|| (Bag::new(), Vec::new()));
                if let Ok(projected) = tuple.project(&attr_refs) {
                    if projected.fields().iter().any(|(_, v)| !v.is_null()) {
                        entry.0.insert(Value::from_tuple(projected), 1);
                    }
                }
                if !entry.1.contains(&input.id) {
                    entry.1.push(input.id);
                }
            }
            (sa_groups, into)
        });

        #[allow(clippy::mutable_key_type)]
        let mut groups: BTreeMap<Value, GroupSlot> = BTreeMap::new();
        for (sa, (sa_groups, into)) in per_sa_groups.into_iter().enumerate() {
            for (key, (bag, member_ids)) in sa_groups {
                let slot = groups.entry(key).or_insert_with(|| GroupSlot {
                    per_sa: vec![None; n],
                    member_ids: vec![Vec::new(); n],
                });
                slot.per_sa[sa] = Some((bag, into.clone()));
                slot.member_ids[sa] = member_ids;
            }
        }

        let mut tuples = Vec::with_capacity(groups.len());
        for (key, slot) in groups {
            let key_tuple = key.as_tuple().cloned().unwrap_or_else(Tuple::empty);
            let id = self.fresh_id();
            let mut variants = Vec::with_capacity(n);
            let mut flags = Vec::with_capacity(n);
            for sa in 0..n {
                match &slot.per_sa[sa] {
                    Some((bag, into)) => {
                        let tuple =
                            key_tuple.with_field(into.as_str(), Value::from_bag(bag.clone()));
                        flags.push(base_flags(Some(&tuple), true, true));
                        variants.push(Some(tuple));
                    }
                    None => {
                        flags.push(SaFlags::absent());
                        variants.push(None);
                    }
                }
            }
            tuples.push(TracedTuple::new(id, variants, flags, slot.member_ids));
        }
        self.put_trace(child_trace);
        Ok(OpTrace { op: node.id, kind: node.op.kind_name().to_string(), tuples })
    }

    /// Grouped aggregation: like relation nesting, but each group contributes
    /// aggregate values. Consistency is checked against the aggregates
    /// computed from all valid tuples and, as a fallback, from the tuples the
    /// immediately preceding operator retained (cf. the discussion of
    /// aggregation tracing limitations in Section 5.5).
    fn trace_group_aggregation(&mut self, node: &OpNode) -> AlgebraResult<OpTrace> {
        let child = &node.inputs[0];
        let child_trace = self.take_trace(child.id);
        let n = self.n_sas();

        // Like relation nesting: independent per-SA grouping passes in
        // parallel, merged over the union of group keys in SA order.
        #[allow(clippy::mutable_key_type)] // cached hashes don't affect `Ord`
        type SaAggGroups = BTreeMap<Value, (AggGroupSa, Vec<u64>)>;
        let sas = self.sas;
        let per_sa_groups: Vec<SaAggGroups> = par_map_range(0..n, |sa| {
            let _span = whynot_obs::span_dyn(|| format!("sa#{sa}"));
            let (group_by, aggs) = match sas[sa].effective_operator(node) {
                Operator::GroupAggregation { group_by, aggs } => (group_by, aggs),
                _ => unreachable!("trace_group_aggregation called on non-aggregation"),
            };
            let group_refs: Vec<nested_data::Sym> =
                group_by.iter().map(|a| nested_data::Sym::intern(a)).collect();
            #[allow(clippy::mutable_key_type)]
            let mut sa_groups: SaAggGroups = BTreeMap::new();
            for input in &child_trace.tuples {
                let Some(tuple) = input.variant(sa) else { continue };
                if !input.flags(sa).valid {
                    continue;
                }
                let key = Value::from_tuple(
                    tuple.project(&group_refs).unwrap_or_else(|_| Tuple::empty()),
                );
                let (entry, member_ids) = sa_groups.entry(key).or_insert_with(|| {
                    (
                        AggGroupSa {
                            aggs: aggs.clone(),
                            all_members: Vec::new(),
                            retained_members: Vec::new(),
                        },
                        Vec::new(),
                    )
                });
                entry.all_members.push(tuple.clone());
                if input.flags(sa).retained {
                    entry.retained_members.push(tuple.clone());
                }
                if !member_ids.contains(&input.id) {
                    member_ids.push(input.id);
                }
            }
            sa_groups
        });

        // See above: the cached structural hash does not affect ordering.
        #[allow(clippy::mutable_key_type)]
        let mut groups: BTreeMap<Value, AggGroupSlot> = BTreeMap::new();
        for (sa, sa_groups) in per_sa_groups.into_iter().enumerate() {
            for (key, (group, member_ids)) in sa_groups {
                let slot = groups.entry(key).or_insert_with(|| AggGroupSlot {
                    per_sa: (0..n).map(|_| None).collect(),
                    member_ids: vec![Vec::new(); n],
                });
                slot.per_sa[sa] = Some(group);
                slot.member_ids[sa] = member_ids;
            }
        }

        // The per-group aggregate evaluation is independent across groups;
        // fresh ids are assigned serially afterwards in key order, exactly
        // like the serial loop.
        let group_list: Vec<(Value, AggGroupSlot)> = groups.into_iter().collect();
        type AggRow = (Vec<Option<Tuple>>, Vec<SaFlags>, Vec<Option<Tuple>>);
        let computed: Vec<AggRow> = par_map(&group_list, |(key, slot)| {
            let key_tuple = key.as_tuple().cloned().unwrap_or_else(Tuple::empty);
            let mut variants = Vec::with_capacity(n);
            let mut flags = Vec::with_capacity(n);
            let mut fallbacks = Vec::with_capacity(n);
            for sa in 0..n {
                match &slot.per_sa[sa] {
                    Some(group) => {
                        let relaxed = aggregate_tuple(&key_tuple, &group.aggs, &group.all_members);
                        let retained_only =
                            aggregate_tuple(&key_tuple, &group.aggs, &group.retained_members);
                        // The original query would produce the group from the
                        // retained members only; the group survives if any
                        // member was retained. The retained-members aggregate
                        // is kept as the fallback variant consulted by the
                        // consistency annotation (Section 5.5).
                        let retained = !group.retained_members.is_empty();
                        flags.push(SaFlags { valid: true, consistent: false, retained });
                        variants.push(Some(relaxed));
                        fallbacks.push(Some(retained_only));
                    }
                    None => {
                        flags.push(SaFlags::absent());
                        variants.push(None);
                        fallbacks.push(None);
                    }
                }
            }
            (variants, flags, fallbacks)
        });
        let mut tuples = Vec::with_capacity(group_list.len());
        for ((_, slot), (variants, flags, fallbacks)) in group_list.into_iter().zip(computed) {
            tuples.push(TracedTuple::with_fallbacks(
                self.fresh_id(),
                variants,
                flags,
                slot.member_ids,
                fallbacks,
            ));
        }
        self.put_trace(child_trace);
        Ok(OpTrace { op: node.id, kind: node.op.kind_name().to_string(), tuples })
    }

    fn trace_union(&mut self, node: &OpNode) -> AlgebraResult<OpTrace> {
        let left_trace = self.take_trace(node.inputs[0].id);
        let right_trace = self.take_trace(node.inputs[1].id);
        let mut tuples = Vec::with_capacity(left_trace.tuples.len() + right_trace.tuples.len());
        for input in left_trace.tuples.iter().chain(right_trace.tuples.iter()) {
            let id = self.fresh_id();
            let mut variants = Vec::with_capacity(self.n_sas());
            let mut flags = Vec::with_capacity(self.n_sas());
            for sa in 0..self.n_sas() {
                let variant = input.variant(sa).cloned();
                flags.push(base_flags(variant.as_ref(), input.flags(sa).valid, true));
                variants.push(variant);
            }
            tuples.push(TracedTuple::new(id, variants, flags, vec![vec![input.id]; self.n_sas()]));
        }
        self.put_trace(left_trace);
        self.put_trace(right_trace);
        Ok(OpTrace { op: node.id, kind: node.op.kind_name().to_string(), tuples })
    }

    fn trace_difference(&mut self, node: &OpNode) -> AlgebraResult<OpTrace> {
        let left_trace = self.take_trace(node.inputs[0].id);
        let right_trace = self.take_trace(node.inputs[1].id);
        // The right-side membership probe is the quadratic part; fan the
        // left tuples out over the pool.
        let n = self.n_sas();
        type DifferenceRow = (Vec<Option<Tuple>>, Vec<SaFlags>);
        let computed: Vec<DifferenceRow> = par_map(&left_trace.tuples, |input| {
            let mut variants = Vec::with_capacity(n);
            let mut flags = Vec::with_capacity(n);
            for sa in 0..n {
                let variant = input.variant(sa).cloned();
                let subtracted = variant.as_ref().map(|t| {
                    right_trace.tuples.iter().any(|r| {
                        r.flags(sa).valid && r.variant(sa).map(|rt| rt == t).unwrap_or(false)
                    })
                });
                let retained = matches!(subtracted, Some(false));
                flags.push(base_flags(variant.as_ref(), input.flags(sa).valid, retained));
                variants.push(variant);
            }
            (variants, flags)
        });
        let mut tuples = Vec::with_capacity(left_trace.tuples.len());
        for (input, (variants, flags)) in left_trace.tuples.iter().zip(computed) {
            tuples.push(TracedTuple::new(
                self.fresh_id(),
                variants,
                flags,
                vec![vec![input.id]; n],
            ));
        }
        self.put_trace(left_trace);
        self.put_trace(right_trace);
        Ok(OpTrace { op: node.id, kind: node.op.kind_name().to_string(), tuples })
    }
}

struct GroupSlot {
    per_sa: Vec<Option<(Bag, String)>>,
    member_ids: Vec<Vec<u64>>,
}

struct AggGroupSa {
    aggs: Vec<nrab_algebra::AggSpec>,
    all_members: Vec<Tuple>,
    retained_members: Vec<Tuple>,
}

struct AggGroupSlot {
    per_sa: Vec<Option<AggGroupSa>>,
    member_ids: Vec<Vec<u64>>,
}

/// Replaces upper-bound leaf constraints (`<`, `≤`) on aggregate output
/// attributes by `?`, since dropping contributing tuples can always lower an
/// aggregate of non-negative inputs.
fn relax_aggregate_upper_bounds(nip: &Nip, agg_outputs: &[String]) -> Nip {
    match nip {
        Nip::Tuple(fields) => Nip::Tuple(
            fields
                .iter()
                .map(|(name, field)| {
                    let relaxed = if agg_outputs.iter().any(|o| *name == o.as_str()) {
                        match field {
                            Nip::Pred(nested_data::NipCmp::Lt | nested_data::NipCmp::Le, _) => {
                                Nip::Any
                            }
                            other => other.clone(),
                        }
                    } else {
                        field.clone()
                    };
                    (*name, relaxed)
                })
                .collect(),
        ),
        other => other.clone(),
    }
}

/// Builds the question-independent flags of a variant: validity is inherited
/// from the input, `retained` is provided by the operator-specific tracing
/// procedure, and `consistent` is a placeholder that [`annotate_consistency`]
/// fills in per question.
fn base_flags(variant: Option<&Tuple>, input_valid: bool, retained: bool) -> SaFlags {
    match variant {
        Some(_) if input_valid => SaFlags { valid: true, consistent: false, retained },
        _ => SaFlags::absent(),
    }
}

/// Records the per-operator trace counters when a profiling session is
/// active. Shared by the operator-at-a-time recursion and the fused replay so
/// counter totals are identical either way.
fn record_trace_counters(trace: &OpTrace) {
    if !whynot_obs::enabled() {
        return;
    }
    whynot_obs::add("trace.tuples", trace.tuples.len() as u64);
    let (mut valid, mut retained) = (0u64, 0u64);
    for tuple in &trace.tuples {
        for flags in &tuple.flags {
            valid += flags.valid as u64;
            retained += (flags.valid && flags.retained) as u64;
        }
    }
    whynot_obs::add("trace.valid", valid);
    whynot_obs::add("trace.retained", retained);
}

/// Collects every operator id of a plan subtree (used to decide which
/// schema-alternative substitutions can affect a join's right side).
fn collect_subtree_ops(node: &OpNode, out: &mut std::collections::BTreeSet<OpId>) {
    out.insert(node.id);
    for input in &node.inputs {
        collect_subtree_ops(input, out);
    }
}

/// Operators the tracer can fuse into one morsel-driven replay: the 1:1
/// operators whose trace row `i` depends only on row `i` of their child —
/// selections (which annotate without transforming) and the structural
/// transforms. Joins, cross products, relation flatten, relation nest,
/// grouped aggregation, union, and difference mix rows and always break a
/// tracer pipeline.
fn tracer_fusable(op: &Operator) -> bool {
    matches!(
        op,
        Operator::Selection { .. }
            | Operator::Projection { .. }
            | Operator::Rename { .. }
            | Operator::TupleFlatten { .. }
            | Operator::TupleNest { .. }
            | Operator::NestAggregation { .. }
            | Operator::Dedup
    )
}

/// One operator of a fused tracer chain, compiled once per schema
/// alternative before the morsel pass.
enum FusedStep {
    /// Per-SA selection predicates (annotate-only: variants pass through).
    Select(Vec<Expr>),
    /// Per-SA structural transform contexts.
    Structural(Vec<StructuralCtx>),
}

/// A structural 1:1 operator compiled to a direct per-tuple transform with
/// the same semantics — including the same error-to-`None` degradation — as
/// evaluating the operator over a singleton bag via [`apply_to_single`], but
/// without the per-tuple bag construction, schema inference, and operator
/// dispatch.
enum StructuralCtx {
    /// π: evaluate each output column against the input tuple.
    Project { names: Vec<Sym>, columns: Vec<ProjColumn> },
    /// ρ: rename attributes.
    Rename { mapping: Vec<(Sym, Sym)> },
    /// Fᵀ: splice (or alias) the tuple value at `source` into the row.
    TupleFlatten { source: AttrPath, alias: Option<Sym>, source_ty: Option<NestedType> },
    /// νᵀ: fold `attrs` into the nested tuple `into`.
    TupleNest { attrs: Vec<Sym>, into: Sym },
    /// γᵀ: aggregate the nested collection at `attr` into `output`.
    NestAgg { func: AggFunc, attr: Sym, field: Option<Sym>, output: Sym },
    /// δ: identity on a single variant.
    Dedup,
    /// The operator fails outright under this alternative (e.g. a tuple
    /// flatten whose input schema does not infer): every variant maps to
    /// `None`, exactly as the singleton-bag path degrades.
    Broken,
}

impl StructuralCtx {
    fn compile(node: &OpNode, db: &Database) -> StructuralCtx {
        match &node.op {
            Operator::Projection { columns } => StructuralCtx::Project {
                names: columns.iter().map(|c| Sym::intern(&c.name)).collect(),
                columns: columns.clone(),
            },
            Operator::Rename { pairs } => StructuralCtx::Rename {
                mapping: pairs.iter().map(|p| (Sym::intern(&p.from), Sym::intern(&p.to))).collect(),
            },
            Operator::TupleFlatten { source, alias } => match output_type(&node.inputs[0], db) {
                Ok(schema) => StructuralCtx::TupleFlatten {
                    source_ty: schema.resolve_path(source).ok().cloned(),
                    source: source.clone(),
                    alias: alias.as_deref().map(Sym::intern),
                },
                Err(_) => StructuralCtx::Broken,
            },
            Operator::TupleNest { attrs, into } => StructuralCtx::TupleNest {
                attrs: attrs.iter().map(|a| Sym::intern(a)).collect(),
                into: Sym::intern(into),
            },
            Operator::NestAggregation { func, attr, field, output } => StructuralCtx::NestAgg {
                func: *func,
                attr: Sym::intern(attr),
                field: field.as_deref().map(Sym::intern),
                output: Sym::intern(output),
            },
            Operator::Dedup => StructuralCtx::Dedup,
            _ => unreachable!("non-structural operator in a fused tracer chain"),
        }
    }

    /// Applies the transform to one valid variant; `None` means the tuple
    /// does not exist under the alternative (a transform error).
    fn apply(&self, tuple: &Tuple) -> Option<Tuple> {
        match self {
            StructuralCtx::Project { names, columns } => Some(Tuple::new(
                names.iter().zip(columns.iter()).map(|(name, c)| (*name, c.expr.eval(tuple))),
            )),
            StructuralCtx::Rename { mapping } => Some(tuple.rename(mapping)),
            StructuralCtx::TupleFlatten { source, alias, source_ty } => {
                let extracted = tuple.get_path(source).unwrap_or(Value::Null);
                match alias {
                    Some(alias) => Some(tuple.with_field(*alias, extracted)),
                    None => match extracted {
                        Value::Tuple(inner) => tuple.concat(&inner).ok(),
                        Value::Null => match source_ty {
                            Some(NestedType::Tuple(t)) => {
                                let names: Vec<Sym> = t.attribute_syms().collect();
                                tuple.concat(&Tuple::null_padded(&names)).ok()
                            }
                            _ => Some(tuple.clone()),
                        },
                        // A non-tuple value at `source` is an evaluation
                        // error without an alias; the variant vanishes.
                        _ => None,
                    },
                }
            }
            StructuralCtx::TupleNest { attrs, into } => {
                let nested = tuple.project(attrs).unwrap_or_else(|_| Tuple::empty());
                Some(tuple.without(attrs).with_field(*into, Value::from_tuple(nested)))
            }
            StructuralCtx::NestAgg { func, attr, field, output } => {
                let nested = tuple.get(*attr).cloned().unwrap_or(Value::Null);
                let values: Vec<Value> = match &nested {
                    Value::Bag(b) => b
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
                let aggregated = func.apply(values.iter());
                let aggregated = match (&aggregated, func) {
                    // count over an empty / null collection is 0, not ⊥
                    (Value::Null, AggFunc::Count | AggFunc::CountDistinct) => Value::Int(0),
                    _ => aggregated,
                };
                Some(tuple.with_field(*output, aggregated))
            }
            StructuralCtx::Dedup => Some(tuple.clone()),
            StructuralCtx::Broken => None,
        }
    }
}

fn aggregate_tuple(key: &Tuple, aggs: &[nrab_algebra::AggSpec], members: &[Tuple]) -> Tuple {
    let mut result = key.clone();
    for agg in aggs {
        let values: Vec<Value> = members.iter().map(|t| agg.input.eval(t)).collect();
        let mut value = agg.func.apply(values.iter());
        if value.is_null() && agg.func.always_int() {
            value = Value::Int(0);
        }
        result = result.with_field(agg.output.clone(), value);
    }
    result
}

/// Applies a 1:1 structural operator to a single tuple by evaluating it over a
/// singleton bag, reusing the evaluator's semantics.
fn apply_to_single(node: &OpNode, tuple: &Tuple, db: &Database) -> AlgebraResult<Option<Tuple>> {
    let singleton = Bag::from_values([Value::from_tuple(tuple.clone())]);
    let inputs = vec![std::sync::Arc::new(singleton)];
    match apply_operator(node, &inputs, db) {
        Ok(result) => Ok(result.iter().next().and_then(|(v, _)| v.as_tuple().cloned())),
        // A structural operator can fail under an alternative (e.g. a
        // substituted attribute is absent); the tuple then simply does not
        // exist under that alternative.
        Err(_) => Ok(None),
    }
}

/// The outputs of an (outer-generalized) relation flatten for one input tuple:
/// `(output tuple, retained by the original flatten kind)`.
fn flatten_one(
    tuple: &Tuple,
    attr: &str,
    alias: Option<&str>,
    original_kind: FlattenKind,
    child_schema: &TupleType,
) -> AlgebraResult<Vec<(Tuple, bool)>> {
    let nested = tuple.get(attr).cloned().unwrap_or(Value::Null);
    let elements: Vec<(Value, u64)> = match &nested {
        Value::Bag(b) => b.iter().cloned().collect(),
        _ => Vec::new(),
    };
    if elements.is_empty() {
        // Outer-flatten padding; the original inner flatten would drop it.
        let padded = match alias {
            Some(alias) => tuple.with_field(alias, Value::Null),
            None => {
                let names: Vec<nested_data::Sym> = match child_schema.attribute(attr) {
                    Some(NestedType::Relation(t)) => t.attribute_syms().collect(),
                    _ => Vec::new(),
                };
                tuple.concat(&Tuple::null_padded(&names))?
            }
        };
        return Ok(vec![(padded, original_kind == FlattenKind::Outer)]);
    }
    let mut out = Vec::with_capacity(elements.len());
    for (element, _mult) in elements {
        let combined = match alias {
            Some(alias) => tuple.with_field(alias, element),
            None => match element {
                Value::Tuple(inner) => tuple.concat(&inner)?,
                other => tuple.with_field(format!("{attr}_value"), other),
            },
        };
        out.push((combined, true));
    }
    Ok(out)
}

/// Matches a NIP against a tuple without cloning it into a `Value`.
fn nip_matches_tuple(nip: &Nip, tuple: &Tuple) -> bool {
    match nip {
        Nip::Tuple(fields) => fields.iter().all(|(name, field_nip)| match tuple.get(*name) {
            Some(v) => field_nip.matches(v),
            None => false,
        }),
        Nip::Any => true,
        other => other.matches(&Value::from_tuple(tuple.clone())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alternative::OpSubstitution;
    use nested_data::NipCmp;
    use nrab_algebra::expr::CmpOp;
    use nrab_algebra::PlanBuilder;

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
        trace_plan(&running_example_plan(), &person_db(), &example_sas()).unwrap()
    }

    #[test]
    fn table_access_consistency_mirrors_figure_4() {
        let result = trace_example();
        let table = result.trace(0).unwrap();
        assert_eq!(table.len(), 2);
        // Peter: no NY in address2 (SA1: inconsistent), NY 2010 in address1 (SA2: consistent).
        let peter = table
            .tuples
            .iter()
            .find(|t| t.variant(0).unwrap().get("name") == Some(&Value::str("Peter")))
            .unwrap();
        assert!(!peter.flags(0).consistent);
        assert!(peter.flags(1).consistent);
        // Sue: NY in both address relations.
        let sue = table
            .tuples
            .iter()
            .find(|t| t.variant(0).unwrap().get("name") == Some(&Value::str("Sue")))
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
        let consistent_s1: Vec<_> =
            flatten.tuples.iter().filter(|t| t.flags(0).consistent).collect();
        assert_eq!(consistent_s1.len(), 1);
        assert_eq!(consistent_s1[0].variant(0).unwrap().get("name"), Some(&Value::str("Sue")));
        // Under S1 only 4 rows are valid (Peter's address2 has 2 entries).
        assert_eq!(flatten.tuples.iter().filter(|t| t.flags(0).valid).count(), 4);
        assert_eq!(flatten.tuples.iter().filter(|t| t.flags(1).valid).count(), 5);
        // No padding rows: every valid row is retained by the inner flatten.
        assert!(flatten.tuples.iter().all(|t| !t.flags(0).valid || t.flags(0).retained));
    }

    #[test]
    fn selection_trace_mirrors_figure_6() {
        let result = trace_example();
        let selection = result.trace(2).unwrap();
        // The consistent S1 tuple (Sue, NY, 2018) is not retained by year ≥ 2019.
        let witness =
            selection.tuples.iter().find(|t| t.flags(0).consistent && t.flags(0).valid).unwrap();
        assert!(!witness.flags(0).retained);
        // Some valid tuple *is* retained (Sue's LA 2019).
        assert!(selection.tuples.iter().any(|t| t.flags(0).valid && t.flags(0).retained));
    }

    #[test]
    fn nesting_trace_mirrors_figure_7() {
        let result = trace_example();
        let nest = result.root_trace();
        // Groups across both SAs: NY, LA, SF (S1) and NY, LA, LV (S2) → 4 city groups.
        assert_eq!(nest.len(), 4);
        let ny = nest
            .tuples
            .iter()
            .find(|t| {
                t.variant(0)
                    .or(t.variant(1))
                    .map(|v| v.get("city") == Some(&Value::str("NY")))
                    .unwrap_or(false)
            })
            .unwrap();
        assert!(ny.flags(0).valid && ny.flags(0).consistent);
        assert!(ny.flags(1).valid && ny.flags(1).consistent);
        // The LV group only exists under S2 (it comes from address1).
        let lv = nest
            .tuples
            .iter()
            .find(|t| {
                t.variant(1).map(|v| v.get("city") == Some(&Value::str("LV"))).unwrap_or(false)
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
            .tuples
            .iter()
            .find(|t| t.variant(0).unwrap().get("name") == Some(&Value::str("Sue")))
            .unwrap();
        let peter = table
            .tuples
            .iter()
            .find(|t| t.variant(0).unwrap().get("name") == Some(&Value::str("Peter")))
            .unwrap();
        assert!(contributing.contains(&sue.id));
        // Peter's tuple cannot contribute to the NY answer under S1...
        assert!(!contributing.contains(&peter.id));
        // ...but it can under S2 (address1 holds NY 2010).
        assert!(result.contributing_ids(1).contains(&peter.id));
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

    #[test]
    fn join_tracing_pads_unmatched_tuples() {
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
        // Why-not: a = 7 joined with anything.
        let consistency = BTreeMap::from([(plan.root.id, Nip::tuple([("a", Nip::val(7i64))]))]);
        let sas = vec![SchemaAlternative::original(consistency)];
        let result = trace_plan(&plan, &db, &sas).unwrap();
        let join = result.root_trace();
        // 1 matched pair + 1 unmatched left + 1 unmatched right.
        assert_eq!(join.len(), 3);
        let padded = join
            .tuples
            .iter()
            .find(|t| t.variant(0).map(|v| v.get("a") == Some(&Value::int(7))).unwrap_or(false))
            .unwrap();
        assert!(padded.flags(0).valid);
        assert!(padded.flags(0).consistent);
        assert!(!padded.flags(0).retained, "inner join does not retain the padded tuple");
        let contributing = result.contributing_ids(0);
        assert!(join.has_reparameterization_witness(0, &contributing));
    }

    #[test]
    fn group_aggregation_tracing_checks_relaxed_and_retained_values() {
        let db = person_db();
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
            .tuples
            .iter()
            .find(|t| t.variant(0).unwrap().get("name") == Some(&Value::str("Peter")))
            .unwrap();
        // Relaxed count (3 addresses) satisfies cnt ≥ 2, so the group is consistent.
        assert!(peter.flags(0).consistent);
        assert!(peter.flags(0).retained, "the group also exists in the original result");
    }

    #[test]
    fn tracing_requires_at_least_one_alternative() {
        let db = person_db();
        let plan = running_example_plan();
        assert!(trace_plan(&plan, &db, &[]).is_err());
    }
}
