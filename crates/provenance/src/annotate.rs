//! Annotated tuples, per-operator traces, and whole-plan trace results.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::slice::ChunksExact;
use std::sync::{Arc, OnceLock};

use nested_data::Tuple;
use nrab_algebra::OpId;

/// One why-not question's annotations of one traced tuple at one operator,
/// under one schema alternative (Section 5.3). `valid` and `retained` are
/// read off the tuple's [`Variant`]; `consistent` is the question's.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SaFlags {
    /// Does the tuple exist under this schema alternative?
    pub valid: bool,
    /// Can the tuple (re-validated against the pushed-down why-not
    /// constraints) still contribute to the missing answer?
    pub consistent: bool,
    /// Would the operator keep/produce this tuple under its *original*
    /// parameters (modulo the attribute changes of the alternative)?
    pub retained: bool,
}

impl SaFlags {
    /// Flags for a tuple that does not exist under the alternative (padding).
    pub fn absent() -> Self {
        SaFlags { valid: false, consistent: false, retained: false }
    }

    /// Whether all annotations are set (the "all annotations being set to 1"
    /// test of Algorithm 4, lines 13 and 18).
    pub fn all_ones(&self) -> bool {
        self.valid && self.consistent && self.retained
    }

    /// Whether the tuple witnesses the need to reparameterize the operator
    /// (Algorithm 4, line 8): it exists, it can still contribute to the
    /// missing answer, but the original operator loses it.
    pub fn needs_reparameterization(&self) -> bool {
        self.valid && self.consistent && !self.retained
    }
}

/// One traced tuple's data under one schema alternative.
///
/// The data is a shared handle: where schema alternatives agree, their
/// variants hold the same allocation, so cloning a variant costs a few
/// reference-count increments and never allocates.
#[derive(Debug, Clone, PartialEq)]
pub struct Variant {
    /// The tuple's data.
    pub tuple: Arc<Tuple>,
    /// Would the operator keep/produce this tuple under its *original*
    /// parameters (modulo the attribute changes of the alternative)?
    pub retained: bool,
    /// Identifiers of the traced input tuples this tuple was derived from
    /// (lineage can differ between alternatives, e.g. the members of a
    /// nested group). Each names a child's tuple that exists under the same
    /// alternative; table accesses have none.
    pub inputs: Lineage,
}

/// The identifiers of the traced input tuples a variant was derived from.
/// Up to two ids — the lineage of a table access, a 1:1 operator, a flatten
/// or a join — are stored inline; longer ones (a group's members) are
/// shared, so cloning a lineage never allocates.
#[derive(Clone)]
pub struct Lineage(Ids);

#[derive(Clone)]
enum Ids {
    Inline(u8, [u64; 2]),
    Shared(Arc<[u64]>),
}

impl Lineage {
    /// No input tuples (a table access).
    pub fn none() -> Self {
        Lineage(Ids::Inline(0, [0; 2]))
    }

    /// One input tuple.
    pub fn one(id: u64) -> Self {
        Lineage(Ids::Inline(1, [id, 0]))
    }

    /// Two input tuples (a join pair).
    pub fn two(left: u64, right: u64) -> Self {
        Lineage(Ids::Inline(2, [left, right]))
    }

    /// The ids, in derivation order.
    pub fn as_slice(&self) -> &[u64] {
        match &self.0 {
            Ids::Inline(len, ids) => &ids[..usize::from(*len)],
            Ids::Shared(ids) => ids,
        }
    }
}

impl From<Vec<u64>> for Lineage {
    fn from(ids: Vec<u64>) -> Self {
        match ids[..] {
            [] => Lineage::none(),
            [id] => Lineage::one(id),
            [left, right] => Lineage::two(left, right),
            _ => Lineage(Ids::Shared(ids.into())),
        }
    }
}

impl PartialEq for Lineage {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl fmt::Debug for Lineage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.as_slice().fmt(f)
    }
}

/// One tuple of an operator's traced (generalized) output.
#[derive(Debug, Clone, PartialEq)]
pub struct TracedTuple {
    /// Fresh identifier, unique across the whole trace.
    pub id: u64,
    /// The tuple under each schema alternative (`None` = the tuple does not
    /// exist under that alternative and is only present as padding).
    pub variants: Vec<Option<Variant>>,
    /// Alternative data variants used by consistency (re-)annotation, per
    /// schema alternative. Only grouped aggregations populate this: the
    /// aggregate computed from the *retained* members only, which the
    /// consistency check consults as a fallback (Section 5.5). Empty for all
    /// other operators.
    pub fallback_variants: Vec<Option<Arc<Tuple>>>,
}

impl TracedTuple {
    /// The tuple under alternative `sa`, if it exists there.
    pub fn get(&self, sa: usize) -> Option<&Variant> {
        self.variants.get(sa).and_then(Option::as_ref)
    }

    /// The tuple's data under alternative `sa`, if it exists there.
    pub fn variant(&self, sa: usize) -> Option<&Tuple> {
        self.get(sa).map(|v| &*v.tuple)
    }

    /// The lineage (input tuple ids) under alternative `sa`; empty where the
    /// tuple does not exist.
    pub fn input_ids(&self, sa: usize) -> &[u64] {
        self.get(sa).map_or(&[], |v| v.inputs.as_slice())
    }

    /// The fallback data variant under alternative `sa`, if any.
    pub fn fallback_variant(&self, sa: usize) -> Option<&Tuple> {
        self.fallback(sa).map(|f| &**f)
    }

    /// The shared handle of the fallback variant under alternative `sa`.
    pub(crate) fn fallback(&self, sa: usize) -> Option<&Arc<Tuple>> {
        self.fallback_variants.get(sa).and_then(Option::as_ref)
    }
}

/// The traced (generalized) output of one operator.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OpTrace {
    /// The operator id.
    pub op: OpId,
    /// The operator's kind symbol (for reports).
    pub kind: String,
    /// The traced tuples.
    pub tuples: Vec<TracedTuple>,
}

impl OpTrace {
    /// Number of traced tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }
}

/// A whole-plan trace before any why-not question's consistency is known.
///
/// Produced by [`crate::trace_plan_generalized`]: it depends only on the plan,
/// the database, and the attribute *substitutions* of the schema alternatives
/// — never on the why-not question's pushed-down NIPs. It is therefore safe to
/// cache and share across why-not questions that target the same plan and
/// database; [`crate::annotate_consistency`] specializes a shared generalized
/// trace to one question by computing that question's flags beside it.
///
/// It holds no `consistent` flags at all; the type exists precisely so that
/// un-annotated traces cannot be fed to the explanation algorithm by
/// accident.
#[derive(Debug, Clone, PartialEq)]
pub struct GeneralizedTrace {
    /// Per-operator traces.
    pub(crate) traces: BTreeMap<OpId, OpTrace>,
    /// The root operator (the query output).
    pub(crate) root: OpId,
    /// Operator ids in pre-order (root first).
    pub(crate) pre_order: Vec<OpId>,
    /// Number of schema alternatives traced (at least one).
    pub(crate) num_sas: usize,
}

impl GeneralizedTrace {
    /// Number of schema alternatives traced.
    pub fn num_sas(&self) -> usize {
        self.num_sas
    }

    /// Total number of traced tuples across all operators (a size measure for
    /// cache accounting).
    pub fn tuple_count(&self) -> usize {
        self.traces.values().map(|t| t.tuples.len()).sum()
    }

    /// The operator ids covered by the trace, in pre-order.
    pub fn pre_order(&self) -> &[OpId] {
        &self.pre_order
    }
}

/// One question's flags over one operator's traced tuples.
#[derive(Debug, Clone, PartialEq)]
pub struct OpFlags {
    /// One flag row per traced tuple, in the order of the operator's trace.
    pub tuples: FlagRows,
}

/// The flags of an operator's traced tuples under every schema alternative,
/// stored tuple-major in one array: row `i` holds tuple `i`'s flags.
#[derive(Debug, Clone, PartialEq)]
pub struct FlagRows {
    /// Flags per row (the number of schema alternatives, at least one).
    num_sas: usize,
    flags: Vec<SaFlags>,
}

impl FlagRows {
    /// Rows of `num_sas` flags each, stored tuple-major.
    pub(crate) fn new(num_sas: usize, flags: Vec<SaFlags>) -> Self {
        assert!(num_sas > 0 && flags.len().is_multiple_of(num_sas), "flag rows must be whole");
        FlagRows { num_sas, flags }
    }

    /// Number of rows (traced tuples).
    pub fn len(&self) -> usize {
        self.flags.len() / self.num_sas
    }

    /// Whether there are no rows.
    pub fn is_empty(&self) -> bool {
        self.flags.is_empty()
    }
}

/// The rows in tuple order.
impl<'a> IntoIterator for &'a FlagRows {
    type Item = FlagRow<'a>;
    type IntoIter = std::iter::Map<ChunksExact<'a, SaFlags>, fn(&'a [SaFlags]) -> FlagRow<'a>>;

    fn into_iter(self) -> Self::IntoIter {
        self.flags.chunks_exact(self.num_sas).map(FlagRow)
    }
}

/// One traced tuple's flags under every schema alternative.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlagRow<'a>(&'a [SaFlags]);

impl FlagRow<'_> {
    /// The flags under alternative `sa` (absent flags if out of range).
    pub fn flags(&self, sa: usize) -> SaFlags {
        self.0.get(sa).copied().unwrap_or_else(SaFlags::absent)
    }
}

/// A generalized trace annotated for one why-not question: the shared,
/// question-independent trace plus this question's flags, one [`FlagRows`]
/// per operator. Annotating copies no traced tuple; the data (variants,
/// lineage, fallbacks) is read from the shared trace.
#[derive(Debug, Clone)]
pub struct TraceResult {
    base: Arc<GeneralizedTrace>,
    /// Per-operator flags of this question, aligned with the shared trace's
    /// tuples.
    pub traces: BTreeMap<OpId, OpFlags>,
    /// Number of schema alternatives traced.
    pub num_sas: usize,
    /// Per alternative, the root tuples no operator drops; filled on first
    /// use by [`TraceResult::fully_retained_root_ids`].
    fully_retained: Box<[OnceLock<BTreeSet<u64>>]>,
}

impl TraceResult {
    /// Pairs a shared generalized trace with one question's flags.
    pub(crate) fn new(base: Arc<GeneralizedTrace>, traces: BTreeMap<OpId, OpFlags>) -> Self {
        let num_sas = base.num_sas;
        let fully_retained = (0..num_sas).map(|_| OnceLock::new()).collect();
        TraceResult { base, traces, num_sas, fully_retained }
    }

    /// The trace of one operator, with this question's flags.
    pub fn trace(&self, op: OpId) -> Option<AnnotatedOp<'_>> {
        let trace = self.base.traces.get(&op)?;
        let flags = &self.traces.get(&op)?.tuples;
        Some(AnnotatedOp { trace, flags })
    }

    /// The trace of the root operator (the generalized query output).
    pub fn root_trace(&self) -> AnnotatedOp<'_> {
        self.trace(self.base.root).expect("the root operator is traced")
    }

    /// Whether the query result under alternative `sa` contains a tuple that
    /// is valid and consistent — i.e. whether *some* reparameterization
    /// captured by the tracing can produce the missing answer under `sa`.
    pub fn has_consistent_output(&self, sa: usize) -> bool {
        self.root_trace().tuples().any(|t| {
            let f = t.flags(sa);
            f.valid && f.consistent
        })
    }

    /// The identifiers of all traced tuples (at any operator) that lie in the
    /// lineage of a valid and consistent *output* tuple under alternative
    /// `sa`. This is the "in the lineage of a consistent output tuple" test of
    /// Algorithm 4, line 8.
    pub fn contributing_ids(&self, sa: usize) -> BTreeSet<u64> {
        let mut contributing = BTreeSet::new();
        for (position, op_id) in self.base.pre_order.iter().enumerate() {
            let Some(trace) = self.trace(*op_id) else { continue };
            for tuple in trace.tuples() {
                let selected = if position == 0 {
                    let f = tuple.flags(sa);
                    f.valid && f.consistent
                } else {
                    contributing.contains(&tuple.traced.id)
                };
                if selected {
                    contributing.insert(tuple.traced.id);
                    contributing.extend(tuple.traced.input_ids(sa).iter().copied());
                }
            }
        }
        contributing
    }

    /// Root-trace tuple ids valid under `sa` whose lineage (under `sa`)
    /// contains a valid, non-retained tuple at one of `ops` (at any operator
    /// when `ops` is `None`).
    pub fn tainted_root_ids(&self, sa: usize, ops: Option<&BTreeSet<OpId>>) -> BTreeSet<u64> {
        // Process operators bottom-up (reverse pre-order) and propagate a
        // "tainted" marker along the lineage edges. Tuple ids are handed out
        // densely from 1, so the markers are a vector indexed by id.
        let mut tainted: Vec<bool> = Vec::new();
        let is_tainted = |tainted: &[bool], id: u64| {
            usize::try_from(id).ok().and_then(|id| tainted.get(id)).copied().unwrap_or(false)
        };
        for op_id in self.base.pre_order.iter().rev() {
            let Some(op_trace) = self.trace(*op_id) else { continue };
            let op_counts = ops.map(|set| set.contains(op_id)).unwrap_or(true);
            for tuple in op_trace.tuples() {
                let flags = tuple.flags(sa);
                let own_taint = op_counts && flags.valid && !flags.retained;
                if own_taint
                    || tuple.traced.input_ids(sa).iter().any(|id| is_tainted(&tainted, *id))
                {
                    let id = usize::try_from(tuple.traced.id).expect("tuple ids fit in memory");
                    if id >= tainted.len() {
                        tainted.resize(id + 1, false);
                    }
                    tainted[id] = true;
                }
            }
        }
        self.root_trace()
            .tuples()
            .filter(|t| t.flags(sa).valid && is_tainted(&tainted, t.traced.id))
            .map(|t| t.traced.id)
            .collect()
    }

    /// Root-trace tuple ids valid under `sa` whose whole lineage is retained
    /// (no operator drops them). Computed on the first call per alternative
    /// and shared by every later one.
    pub fn fully_retained_root_ids(&self, sa: usize) -> &BTreeSet<u64> {
        self.fully_retained[sa].get_or_init(|| {
            let tainted = self.tainted_root_ids(sa, None);
            self.root_trace()
                .tuples()
                .filter(|t| t.flags(sa).valid && !tainted.contains(&t.traced.id))
                .map(|t| t.traced.id)
                .collect()
        })
    }
}

/// One operator's traced tuples paired with one question's flags.
#[derive(Debug, Clone, Copy)]
pub struct AnnotatedOp<'a> {
    /// The operator's shared trace.
    pub trace: &'a OpTrace,
    /// The question's flags, one row per traced tuple.
    pub flags: &'a FlagRows,
}

impl<'a> AnnotatedOp<'a> {
    /// The traced tuples with their flags, in trace order.
    pub fn tuples(&self) -> impl Iterator<Item = AnnotatedTuple<'a>> {
        self.trace.tuples.iter().zip(self.flags).map(|(traced, row)| AnnotatedTuple { traced, row })
    }

    /// Number of traced tuples.
    pub fn len(&self) -> usize {
        self.trace.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.trace.is_empty()
    }

    /// Whether any tuple needs a reparameterization of this operator under
    /// alternative `sa` *and* contributes to a consistent output tuple
    /// (`contributing` is the id set computed by
    /// [`TraceResult::contributing_ids`]).
    pub fn has_reparameterization_witness(&self, sa: usize, contributing: &BTreeSet<u64>) -> bool {
        self.tuples()
            .any(|t| t.flags(sa).needs_reparameterization() && contributing.contains(&t.traced.id))
    }

    /// Whether any tuple has all annotations set under alternative `sa`
    /// (optionally restricted to tuples contributing to a consistent output).
    pub fn has_all_ones_witness(&self, sa: usize, contributing: Option<&BTreeSet<u64>>) -> bool {
        self.tuples().any(|t| {
            t.flags(sa).all_ones() && contributing.map(|c| c.contains(&t.traced.id)).unwrap_or(true)
        })
    }
}

/// One traced tuple paired with one question's flags.
#[derive(Debug, Clone, Copy)]
pub struct AnnotatedTuple<'a> {
    /// The shared traced tuple: id, variants, lineage. Read the question's
    /// flags through [`AnnotatedTuple::flags`].
    pub traced: &'a TracedTuple,
    row: FlagRow<'a>,
}

impl AnnotatedTuple<'_> {
    /// The question's flags under alternative `sa` (absent flags if out of
    /// range).
    pub fn flags(&self, sa: usize) -> SaFlags {
        self.row.flags(sa)
    }
}

impl fmt::Display for SaFlags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v={} c={} r={}", self.valid as u8, self.consistent as u8, self.retained as u8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nested_data::Value;

    /// One operator's traced tuples under one SA, from `(id, flags, lineage)`
    /// rows, with the question's flags kept beside them.
    fn op(op: OpId, kind: &str, rows: Vec<(u64, SaFlags, Vec<u64>)>) -> (OpTrace, Vec<SaFlags>) {
        let flags = rows.iter().map(|(_, f, _)| *f).collect();
        let tuples = rows
            .into_iter()
            .map(|(id, f, inputs)| {
                let tuple = Arc::new(Tuple::new([("x", Value::int(id as i64))]));
                let inputs = Lineage::from(inputs);
                let variant = f.valid.then_some(Variant { tuple, retained: f.retained, inputs });
                TracedTuple { id, variants: vec![variant], fallback_variants: Vec::new() }
            })
            .collect();
        (OpTrace { op, kind: kind.into(), tuples }, flags)
    }

    fn flags(valid: bool, consistent: bool, retained: bool) -> SaFlags {
        SaFlags { valid, consistent, retained }
    }

    /// A one-SA trace result over `ops`, annotated with their question flags.
    fn annotated(
        ops: Vec<(OpTrace, Vec<SaFlags>)>,
        root: OpId,
        pre_order: Vec<OpId>,
    ) -> TraceResult {
        let num_sas = 1;
        let mut traces = BTreeMap::new();
        let mut question = BTreeMap::new();
        for (trace, flags) in ops {
            question.insert(trace.op, OpFlags { tuples: FlagRows::new(num_sas, flags) });
            traces.insert(trace.op, trace);
        }
        TraceResult::new(Arc::new(GeneralizedTrace { traces, root, pre_order, num_sas }), question)
    }

    #[test]
    fn flag_predicates() {
        assert!(flags(true, true, true).all_ones());
        assert!(!flags(true, true, false).all_ones());
        assert!(flags(true, true, false).needs_reparameterization());
        assert!(!flags(false, true, false).needs_reparameterization());
        assert_eq!(SaFlags::absent().to_string(), "v=0 c=0 r=0");
    }

    #[test]
    fn contributing_ids_follow_lineage_from_consistent_outputs() {
        // Plan: op 2 (root) <- op 1 <- op 0, one SA.
        let ops = vec![
            op(
                0,
                "table",
                vec![(1, flags(true, true, true), vec![]), (2, flags(true, false, true), vec![])],
            ),
            op(
                1,
                "σ",
                vec![
                    (3, flags(true, true, false), vec![1]),
                    (4, flags(true, false, true), vec![2]),
                ],
            ),
            op(
                2,
                "Nᴿ",
                vec![(5, flags(true, true, true), vec![3]), (6, flags(true, false, true), vec![4])],
            ),
        ];
        let result = annotated(ops, 2, vec![2, 1, 0]);

        assert!(result.has_consistent_output(0));
        let contributing = result.contributing_ids(0);
        assert_eq!(contributing, BTreeSet::from([5, 3, 1]));

        // The selection (op 1) has a reparameterization witness (tuple 3).
        assert!(result.trace(1).unwrap().has_reparameterization_witness(0, &contributing));
        // The root does not (its consistent tuple is retained).
        assert!(!result.trace(2).unwrap().has_reparameterization_witness(0, &contributing));
        // All-ones witness exists at the root and at op 0.
        assert!(result.trace(2).unwrap().has_all_ones_witness(0, Some(&contributing)));
        assert!(result.trace(0).unwrap().has_all_ones_witness(0, Some(&contributing)));

        // Tuple 5 descends from the non-retained tuple 3; tuple 6 is fully
        // retained. Only the selection drops anything.
        assert_eq!(result.tainted_root_ids(0, None), BTreeSet::from([5]));
        assert_eq!(result.tainted_root_ids(0, Some(&BTreeSet::from([0, 2]))), BTreeSet::new());
        assert_eq!(result.fully_retained_root_ids(0), &BTreeSet::from([6]));
    }

    #[test]
    fn lineage_keeps_its_ids_in_order_inline_or_shared() {
        for ids in [vec![], vec![4], vec![4, 2], vec![4, 2, 9]] {
            let lineage = Lineage::from(ids.clone());
            assert_eq!(lineage.as_slice(), ids);
            assert_eq!(format!("{lineage:?}"), format!("{ids:?}"));
        }
        assert_eq!(Lineage::none(), Lineage::from(vec![]));
        assert_eq!(Lineage::one(4), Lineage::from(vec![4]));
        assert_eq!(Lineage::two(4, 2), Lineage::from(vec![4, 2]));
        assert_ne!(Lineage::two(4, 2), Lineage::two(2, 4));
    }

    #[test]
    fn variant_and_flag_accessors_handle_out_of_range() {
        let (trace, question) = op(0, "σ", vec![(7, flags(true, true, true), vec![3])]);
        let t = &trace.tuples[0];
        assert!(t.variant(0).is_some());
        assert!(t.get(0).is_some_and(|v| v.retained));
        assert!(t.variant(5).is_none());
        assert!(t.get(5).is_none());
        assert_eq!(t.input_ids(0), &[3]);
        assert!(t.input_ids(9).is_empty());
        assert_eq!(trace.len(), 1);
        assert!(!trace.is_empty());
        let result = annotated(vec![(trace, question)], 0, vec![0]);
        let root = result.root_trace();
        assert_eq!(root.len(), 1);
        assert_eq!(root.flags.len(), 1);
        let row = root.tuples().next().unwrap();
        assert_eq!(row.flags(0), flags(true, true, true));
        assert_eq!(row.flags(5), SaFlags::absent());
    }
}
