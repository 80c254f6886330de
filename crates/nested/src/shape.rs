//! Tuple shapes: the field names a tuple's values are stored under.
//!
//! A [`Tuple`] stores only its values; the names live in a [`Shape`] shared
//! by every tuple built with it. A shape holds the names in stored order (the
//! display and wire order), the canonical permutation (stored positions in
//! name order, which tuple equality, ordering and hashing walk) and a
//! name→position lookup. Shapes are built where a schema is known — once per
//! relation by the data generators, once per input shape by each compiled
//! operator kernel — never per tuple on a hot path.
//!
//! A [`Splice`] is a tuple rewrite (concatenation, projection, renaming, an
//! added field, …) resolved against its input shapes once: its output shape
//! plus, per output field, where the value comes from. A kernel keeps the
//! splices it derived in a [`ShapeMemo`], keyed by the input shapes, so every
//! later row of the same shapes reuses them.

use std::sync::{Arc, OnceLock};

use crate::error::{DataError, DataResult};
use crate::sym::Sym;
use crate::tuple::Tuple;
use crate::value::Value;

/// The field names of a tuple, shared by every tuple of the same layout.
#[derive(Debug)]
pub struct Shape {
    /// Field names in stored order.
    names: Box<[Sym]>,
    /// Stored positions in canonical order: stably sorted by name, so
    /// duplicate names keep their stored order.
    canonical: Box<[u32]>,
    /// `(symbol id, stored position)` pairs sorted by id, then position.
    lookup: Box<[(u32, u32)]>,
}

impl Shape {
    /// A shape with the given field names, in stored order.
    pub fn new<I, S>(names: I) -> Arc<Shape>
    where
        I: IntoIterator<Item = S>,
        S: Into<Sym>,
    {
        Arc::new(Shape::from_names(names.into_iter().map(Into::into).collect()))
    }

    fn from_names(names: Box<[Sym]>) -> Shape {
        let arity = u32::try_from(names.len()).expect("tuple arity fits in u32");
        let mut canonical: Vec<u32> = (0..arity).collect();
        canonical.sort_by(|&a, &b| names[a as usize].cmp(&names[b as usize]));
        let mut lookup: Vec<(u32, u32)> = (0..arity).map(|i| (names[i as usize].id(), i)).collect();
        lookup.sort_unstable();
        Shape { names, canonical: canonical.into(), lookup: lookup.into() }
    }

    /// The shape of the empty tuple `⟨⟩`, shared process-wide.
    pub(crate) fn empty() -> Arc<Shape> {
        static EMPTY: OnceLock<Arc<Shape>> = OnceLock::new();
        Arc::clone(EMPTY.get_or_init(|| Arc::new(Shape::from_names(Box::default()))))
    }

    /// The field names in stored order.
    pub fn names(&self) -> &[Sym] {
        &self.names
    }

    /// Number of fields.
    pub fn arity(&self) -> usize {
        self.names.len()
    }

    /// The stored position of the first field called `name`.
    pub fn position(&self, name: Sym) -> Option<usize> {
        let id = name.id();
        let at = self.lookup.partition_point(|&(key, _)| key < id);
        match self.lookup.get(at) {
            Some(&(key, position)) if key == id => Some(position as usize),
            _ => None,
        }
    }

    /// Stored positions in canonical (name-sorted) order.
    pub(crate) fn canonical(&self) -> &[u32] {
        &self.canonical
    }

    /// Whether two shapes name the same fields in the same order: the same
    /// allocation, or equal name sequences.
    pub(crate) fn same(a: &Arc<Shape>, b: &Arc<Shape>) -> bool {
        Arc::ptr_eq(a, b) || a.names == b.names
    }

    /// Builds a tuple value of this shape from `(name, value)` pairs in
    /// stored order. The names document the call site; debug builds check
    /// them against the shape.
    pub fn value<const N: usize>(self: &Arc<Self>, fields: [(&str, Value); N]) -> Value {
        debug_assert!(
            fields.len() == self.arity()
                && fields.iter().zip(self.names.iter()).all(|((name, _), sym)| sym == name),
            "fields do not match the shape {:?}",
            self.names
        );
        Value::from_tuple(Tuple::with_shape(Arc::clone(self), fields.map(|(_, value)| value)))
    }

    #[cold]
    #[inline(never)]
    pub(crate) fn unknown_attribute(&self, name: Sym) -> DataError {
        DataError::UnknownAttribute {
            attribute: name.as_str().to_string(),
            available: self.names.iter().map(|n| n.as_str()).collect(),
        }
    }
}

/// Where one output value of a [`Splice`] comes from.
#[derive(Debug, Clone, Copy)]
enum Pick {
    /// A stored position of the left input.
    Left(u32),
    /// A position of the right input.
    Right(u32),
}

/// A tuple rewrite resolved against its input shapes once: the output shape,
/// and per output field whether its value is taken from the left input
/// tuple or from the right input values.
#[derive(Debug)]
pub struct Splice {
    shape: Arc<Shape>,
    picks: Box<[Pick]>,
}

impl Splice {
    fn build(fields: Vec<(Sym, Pick)>) -> Splice {
        let (names, picks): (Vec<Sym>, Vec<Pick>) = fields.into_iter().unzip();
        Splice { shape: Arc::new(Shape::from_names(names.into())), picks: picks.into() }
    }

    fn left(shape: &Shape) -> impl Iterator<Item = (Sym, Pick)> + '_ {
        shape.names.iter().enumerate().map(|(i, name)| (*name, Pick::Left(i as u32)))
    }

    /// `left ◦ right`: the right fields appended to the left ones. Fails if
    /// a right name is also a left one.
    pub fn concat(left: &Shape, right: &Shape) -> DataResult<Splice> {
        if let Some(name) = right.names.iter().find(|n| left.position(**n).is_some()) {
            return Err(DataError::DuplicateAttribute(name.as_str().to_string()));
        }
        let rights = right.names.iter().enumerate().map(|(i, n)| (*n, Pick::Right(i as u32)));
        Ok(Splice::build(Splice::left(left).chain(rights).collect()))
    }

    /// The left fields with the right values added under `names`, one at a
    /// time: each replaces every left field of its name and goes last.
    pub fn extend(left: &Shape, names: &[Sym]) -> Splice {
        let mut fields: Vec<(Sym, Pick)> = Splice::left(left).collect();
        for (i, name) in names.iter().enumerate() {
            fields.retain(|(n, _)| n != name);
            fields.push((*name, Pick::Right(i as u32)));
        }
        Splice::build(fields)
    }

    /// The left fields called `names`, in that order (the first field of
    /// each name). Fails if one is missing.
    pub fn project(left: &Shape, names: &[Sym]) -> DataResult<Splice> {
        let fields = names
            .iter()
            .map(|name| match left.position(*name) {
                Some(i) => Ok((*name, Pick::Left(i as u32))),
                None => Err(left.unknown_attribute(*name)),
            })
            .collect::<DataResult<_>>()?;
        Ok(Splice::build(fields))
    }

    /// The left fields not called any of `names`.
    pub fn without(left: &Shape, names: &[Sym]) -> Splice {
        Splice::build(Splice::left(left).filter(|(n, _)| !names.contains(n)).collect())
    }

    /// The left fields renamed by the first matching `(old, new)` pair.
    pub fn rename(left: &Shape, mapping: &[(Sym, Sym)]) -> Splice {
        let renamed = Splice::left(left).map(|(name, pick)| {
            let new = mapping.iter().find(|(old, _)| *old == name).map_or(name, |(_, new)| *new);
            (new, pick)
        });
        Splice::build(renamed.collect())
    }

    /// This splice followed by `next`, which must take its left input from
    /// this splice's output: one splice from this one's inputs to `next`'s
    /// output. This splice must take no right values.
    pub fn then(&self, next: &Splice) -> Splice {
        debug_assert!(!self.picks.iter().any(|p| matches!(p, Pick::Right(_))));
        let picks = next.picks.iter().map(|pick| match *pick {
            Pick::Left(i) => self.picks[i as usize],
            other => other,
        });
        Splice { shape: Arc::clone(&next.shape), picks: picks.collect() }
    }

    /// The output shape.
    pub fn shape(&self) -> &Arc<Shape> {
        &self.shape
    }

    /// Builds the output tuple from the left input's values and the right
    /// values.
    pub fn apply(&self, left: &[Value], right: &[Value]) -> Tuple {
        let values: Vec<Value> = self
            .picks
            .iter()
            .map(|pick| match *pick {
                Pick::Left(i) => left[i as usize].clone(),
                Pick::Right(i) => right[i as usize].clone(),
            })
            .collect();
        Tuple::with_shape(Arc::clone(&self.shape), values)
    }
}

/// A kernel's memo of what it derived from an input shape (or a pair of
/// them): kept for the first shapes it meets and reused for every later row
/// of the same shapes. A row of other shapes derives its own, uncached.
/// Reads are lock-free, so a kernel can be shared across threads.
pub struct ShapeMemo<T> {
    slot: OnceLock<(Arc<Shape>, Option<Arc<Shape>>, T)>,
}

impl<T> Default for ShapeMemo<T> {
    fn default() -> Self {
        ShapeMemo { slot: OnceLock::new() }
    }
}

impl<T> ShapeMemo<T> {
    /// An empty memo.
    pub fn new() -> Self {
        ShapeMemo::default()
    }

    /// Calls `f` with what `build` derives from `left` (and `right`):
    /// memoized when these are the shapes the memo holds or the first ones
    /// it meets.
    pub fn with<R>(
        &self,
        left: &Arc<Shape>,
        right: Option<&Arc<Shape>>,
        build: impl FnOnce() -> T,
        f: impl FnOnce(&T) -> R,
    ) -> R {
        let matches = |(l, r, _): &(Arc<Shape>, Option<Arc<Shape>>, T)| {
            Shape::same(l, left)
                && match (r, right) {
                    (Some(r), Some(right)) => Shape::same(r, right),
                    (r, right) => r.is_none() && right.is_none(),
                }
        };
        if let Some(entry) = self.slot.get() {
            return if matches(entry) { f(&entry.2) } else { f(&build()) };
        }
        match self.slot.set((Arc::clone(left), right.cloned(), build())) {
            Ok(()) => f(&self.slot.get().expect("just set").2),
            Err((_, _, derived)) => f(&derived),
        }
    }
}

impl ShapeMemo<Splice> {
    /// Applies the splice `derive` makes from `left`'s shape to `left` and
    /// the `right` values.
    pub fn apply(
        &self,
        left: &Tuple,
        right: &[Value],
        derive: impl FnOnce(&Shape) -> Splice,
    ) -> Tuple {
        let shape = left.shape();
        self.with(shape, None, || derive(shape), |splice| splice.apply(left.values(), right))
    }
}

impl ShapeMemo<DataResult<Splice>> {
    /// [`ShapeMemo::apply`] for a splice that can fail to derive.
    pub fn try_apply(
        &self,
        left: &Tuple,
        right: &[Value],
        derive: impl FnOnce(&Shape) -> DataResult<Splice>,
    ) -> DataResult<Tuple> {
        let shape = left.shape();
        self.with(
            shape,
            None,
            || derive(shape),
            |splice| splice.as_ref().map(|s| s.apply(left.values(), right)).map_err(Clone::clone),
        )
    }

    /// `left ◦ right` (see [`Tuple::concat`]) through the splice memoized
    /// for both shapes.
    pub fn concat(&self, left: &Tuple, right: &Tuple) -> DataResult<Tuple> {
        let (l, r) = (left.shape(), right.shape());
        self.with(
            l,
            Some(r),
            || Splice::concat(l, r),
            |splice| {
                splice
                    .as_ref()
                    .map(|s| s.apply(left.values(), right.values()))
                    .map_err(Clone::clone)
            },
        )
    }
}
