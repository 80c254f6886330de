//! Tuple values: a shared [`Shape`] of field names plus the values.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::Arc;

use crate::error::DataResult;
use crate::path::AttrPath;
use crate::shape::{Shape, Splice};
use crate::sym::Sym;
use crate::types::TupleType;
use crate::value::Value;

/// A tuple value `⟨A₁ : v₁, ..., Aₙ : vₙ⟩`.
///
/// A tuple stores its values in field order behind a shared [`Shape`] that
/// holds the names, so a field costs one [`Value`]. Field order is preserved
/// (it determines the display order and the default output schema), but
/// equality, ordering, and hashing are *name-based*: two tuples with the same
/// name→value mapping are equal regardless of field order, which is what the
/// algebra's bag semantics require. Tuples of the same shape compare by
/// walking their values along the shape's canonical permutation, with no
/// name comparisons.
///
/// The name-based structural hash is computed lazily and cached, so
/// hash-canonicalized bag construction hashes each (possibly `Arc`-shared)
/// tuple at most once.
pub struct Tuple {
    shape: Arc<Shape>,
    values: Box<[Value]>,
    /// Lazily computed structural hash over the canonical (name-sorted)
    /// fields; 0 means not yet computed. Tuples are immutable (every
    /// "mutation" builds a new tuple), so the cache never goes stale;
    /// cloning carries it along. `Relaxed` suffices: the hash is a pure
    /// function of the tuple and publishes no other data, so a thread that
    /// misses another's store only computes the same value again.
    hash: AtomicU64,
}

impl Tuple {
    /// Builds a tuple from `(name, value)` pairs, with a shape of its own.
    /// Code that builds many tuples of one layout shares a [`Shape`] through
    /// [`Tuple::with_shape`] instead.
    pub fn new<I, S>(fields: I) -> Self
    where
        I: IntoIterator<Item = (S, Value)>,
        S: Into<Sym>,
    {
        let (names, values): (Vec<Sym>, Vec<Value>) =
            fields.into_iter().map(|(n, v)| (n.into(), v)).unzip();
        Tuple::with_shape(Shape::new(names), values)
    }

    /// A tuple of `shape` holding `values` in its stored order.
    ///
    /// # Panics
    ///
    /// If the number of values is not the shape's arity.
    pub fn with_shape(shape: Arc<Shape>, values: impl Into<Box<[Value]>>) -> Self {
        let values = values.into();
        assert_eq!(values.len(), shape.arity(), "a tuple holds one value per field of its shape");
        Tuple { shape, values, hash: AtomicU64::new(0) }
    }

    /// The empty tuple `⟨⟩`.
    pub fn empty() -> Self {
        Tuple::with_shape(Shape::empty(), Vec::new())
    }

    /// The tuple's shape: its field names.
    pub fn shape(&self) -> &Arc<Shape> {
        &self.shape
    }

    /// The values in field order.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// The `(name, value)` pairs in field order.
    pub fn fields(&self) -> impl ExactSizeIterator<Item = (Sym, &Value)> + '_ {
        self.shape.names().iter().copied().zip(self.values.iter())
    }

    /// Number of fields.
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// Whether the tuple has no fields.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The attribute names in field order, without allocating.
    pub fn attribute_names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.shape.names().iter().map(|n| n.as_str())
    }

    /// Looks up a field by name through the shape's lookup. Pass a [`Sym`]
    /// on hot paths; `&str` arguments are interned first.
    pub fn get(&self, name: impl Into<Sym>) -> Option<&Value> {
        self.shape.position(name.into()).map(|i| &self.values[i])
    }

    /// Looks up a field by name, erroring if absent. The error (with its list
    /// of available attributes) is only constructed on the miss path, so
    /// probing optional fields through this method stays cheap.
    pub fn get_required(&self, name: impl Into<Sym>) -> DataResult<&Value> {
        let sym = name.into();
        self.get(sym).ok_or_else(|| self.shape.unknown_attribute(sym))
    }

    /// Whether the tuple contains a field called `name`.
    pub fn contains(&self, name: impl Into<Sym>) -> bool {
        self.get(name).is_some()
    }

    /// Projects the tuple onto the given attributes (the paper's `t.L`),
    /// preserving the requested order.
    pub fn project<S: Into<Sym> + Copy>(&self, names: &[S]) -> DataResult<Tuple> {
        Ok(Splice::project(&self.shape, &syms(names))?.apply(&self.values, &[]))
    }

    /// Concatenates two tuples (the paper's `t ◦ t'`). Field names must be
    /// disjoint.
    pub fn concat(&self, other: &Tuple) -> DataResult<Tuple> {
        Ok(Splice::concat(&self.shape, &other.shape)?.apply(&self.values, &other.values))
    }

    /// Returns a copy with the listed attributes removed.
    pub fn without<S: Into<Sym> + Copy>(&self, names: &[S]) -> Tuple {
        Splice::without(&self.shape, &syms(names)).apply(&self.values, &[])
    }

    /// Returns a copy with an additional field appended (replacing any
    /// existing field of the same name).
    pub fn with_field(&self, name: impl Into<Sym>, value: Value) -> Tuple {
        Splice::extend(&self.shape, &[name.into()]).apply(&self.values, &[value])
    }

    /// Renames fields according to `(old, new)` pairs; unmentioned fields keep
    /// their names.
    pub fn rename(&self, mapping: &[(Sym, Sym)]) -> Tuple {
        Splice::rename(&self.shape, mapping).apply(&self.values, &[])
    }

    /// A tuple with the same attribute names whose values are all `⊥`
    /// (used to pad outer joins and outer flattens).
    pub fn null_padded<S: Into<Sym> + Copy>(names: &[S]) -> Tuple {
        Tuple::with_shape(Shape::new(syms(names)), vec![Value::Null; names.len()])
    }

    /// Navigates an attribute path starting at this tuple, mirroring
    /// [`Value::get_path`] without first wrapping the tuple in a [`Value`].
    pub fn get_path(&self, path: &AttrPath) -> DataResult<Value> {
        match path.segments().split_first() {
            None => Ok(Value::from_tuple(self.clone())),
            Some((head, rest)) => self.get_required(*head)?.get_segments(rest),
        }
    }

    /// Whether every field of this tuple conforms to the corresponding
    /// attribute of `ty` (attribute order is ignored; missing attributes fail).
    pub fn conforms_to(&self, ty: &TupleType) -> bool {
        if self.arity() != ty.arity() {
            return false;
        }
        self.fields()
            .all(|(name, value)| ty.attribute(name).map(|t| value.conforms_to(t)).unwrap_or(false))
    }

    /// The cached name-based structural hash. Equal tuples (same name→value
    /// mapping, any field order) have equal structural hashes.
    pub fn structural_hash(&self) -> u64 {
        let cached = self.hash.load(AtomicOrdering::Relaxed);
        if cached != 0 {
            return cached;
        }
        let mut h = std::collections::hash_map::DefaultHasher::new();
        let names = self.shape.names();
        for &i in self.shape.canonical() {
            names[i as usize].hash(&mut h);
            self.values[i as usize].hash(&mut h);
        }
        let hash = h.finish();
        self.hash.store(hash, AtomicOrdering::Relaxed);
        hash
    }

    /// The cached structural hash, if computed.
    fn cached_hash(&self) -> Option<u64> {
        Some(self.hash.load(AtomicOrdering::Relaxed)).filter(|h| *h != 0)
    }
}

/// `names` as symbols.
fn syms<S: Into<Sym> + Copy>(names: &[S]) -> Vec<Sym> {
    names.iter().map(|n| (*n).into()).collect()
}

impl Clone for Tuple {
    fn clone(&self) -> Self {
        Tuple {
            shape: Arc::clone(&self.shape),
            values: self.values.clone(),
            hash: AtomicU64::new(self.hash.load(AtomicOrdering::Relaxed)),
        }
    }
}

impl Default for Tuple {
    fn default() -> Self {
        Tuple::empty()
    }
}

impl fmt::Debug for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct Fields<'a>(&'a Tuple);
        impl fmt::Debug for Fields<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_list().entries(self.0.fields()).finish()
            }
        }
        f.debug_struct("Tuple").field("fields", &Fields(self)).finish()
    }
}

impl PartialEq for Tuple {
    fn eq(&self, other: &Self) -> bool {
        // Different cached structural hashes prove inequality without a walk.
        if let (Some(a), Some(b)) = (self.cached_hash(), other.cached_hash()) {
            if a != b {
                return false;
            }
        }
        if Shape::same(&self.shape, &other.shape) {
            return self.values == other.values;
        }
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Tuple {}

impl PartialOrd for Tuple {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Tuple {
    /// Name-based canonical order: comparing the name-sorted `(name, value)`
    /// sequences lexicographically, then by arity. Tuples of the same shape
    /// compare their values along the canonical permutation only.
    fn cmp(&self, other: &Self) -> Ordering {
        let (ca, cb) = (self.shape.canonical(), other.shape.canonical());
        if Shape::same(&self.shape, &other.shape) {
            for &i in ca {
                match self.values[i as usize].cmp(&other.values[i as usize]) {
                    Ordering::Equal => continue,
                    unequal => return unequal,
                }
            }
            return Ordering::Equal;
        }
        let (na, nb) = (self.shape.names(), other.shape.names());
        for (&i, &j) in ca.iter().zip(cb) {
            let (i, j) = (i as usize, j as usize);
            match na[i].cmp(&nb[j]).then_with(|| self.values[i].cmp(&other.values[j])) {
                Ordering::Equal => continue,
                unequal => return unequal,
            }
        }
        ca.len().cmp(&cb.len())
    }
}

impl Hash for Tuple {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.structural_hash());
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨")?;
        for (i, (name, value)) in self.fields().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{name}: {value}")?;
        }
        write!(f, "⟩")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(city: &str, year: i64) -> Tuple {
        Tuple::new([("city", Value::str(city)), ("year", Value::int(year))])
    }

    #[test]
    fn field_access() {
        let t = addr("NY", 2010);
        assert_eq!(t.arity(), 2);
        assert_eq!(t.get("city"), Some(&Value::str("NY")));
        assert!(t.get("zip").is_none());
        assert!(t.get_required("zip").is_err());
        assert_eq!(t.attribute_names().collect::<Vec<_>>(), vec!["city", "year"]);
    }

    #[test]
    fn symbol_lookup_matches_string_lookup() {
        let t = addr("NY", 2010);
        let city = Sym::intern("city");
        assert_eq!(t.get(city), t.get("city"));
        assert!(t.contains(city));
    }

    #[test]
    fn equality_ignores_field_order() {
        let a = Tuple::new([("x", Value::int(1)), ("y", Value::int(2))]);
        let b = Tuple::new([("y", Value::int(2)), ("x", Value::int(1))]);
        assert_eq!(a, b);
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let hash = |t: &Tuple| {
            let mut h = DefaultHasher::new();
            t.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash(&a), hash(&b));
    }

    #[test]
    fn project_concat_without() {
        let t = addr("LA", 2019);
        let p = t.project(&["city"]).unwrap();
        assert_eq!(p.arity(), 1);
        assert!(t.project(&["nope"]).is_err());

        let extra = Tuple::new([("name", Value::str("Sue"))]);
        let joined = t.concat(&extra).unwrap();
        assert_eq!(joined.arity(), 3);
        assert!(joined.concat(&extra).is_err());

        let smaller = joined.without(&["year", "city"]);
        assert_eq!(smaller.attribute_names().collect::<Vec<_>>(), vec!["name"]);
    }

    #[test]
    fn rename_and_with_field() {
        let t = addr("LA", 2019);
        let r = t.rename(&[("city".into(), "town".into())]);
        assert!(r.contains("town"));
        let w = t.with_field("city", Value::str("SF"));
        assert_eq!(w.get("city"), Some(&Value::str("SF")));
        assert_eq!(w.arity(), 2);
        let x = t.with_field("zip", Value::int(90001));
        assert_eq!(x.arity(), 3);
    }

    #[test]
    fn null_padding_and_conformance() {
        let padded = Tuple::null_padded(&["city", "year"]);
        assert!(padded.get("city").unwrap().is_null());
        let ty = TupleType::new([
            ("city", crate::types::NestedType::str()),
            ("year", crate::types::NestedType::int()),
        ])
        .unwrap();
        assert!(padded.conforms_to(&ty));
        assert!(addr("NY", 2010).conforms_to(&ty));
        assert!(!Tuple::new([("city", Value::str("NY"))]).conforms_to(&ty));
    }

    #[test]
    fn a_field_costs_one_value() {
        use std::mem::size_of;
        // Shape handle, boxed values, cached hash; the names live in the
        // shared shape.
        assert_eq!(size_of::<Tuple>(), 32);
        assert_eq!(size_of::<Value>(), 24);
        let shape = Shape::new(["city", "year"]);
        let a = Tuple::with_shape(Arc::clone(&shape), vec![Value::str("NY"), Value::int(2010)]);
        let b = Tuple::with_shape(Arc::clone(&shape), vec![Value::str("LA"), Value::int(2019)]);
        assert!(Arc::ptr_eq(a.shape(), b.shape()));
        assert_eq!(size_of_val(a.values()), 2 * size_of::<Value>());
    }

    #[test]
    fn derived_tuples_keep_field_order_and_name_lookup() {
        let t = addr("NY", 2010).with_field("zip", Value::int(10001));
        assert_eq!(t.attribute_names().collect::<Vec<_>>(), vec!["city", "year", "zip"]);
        assert_eq!(t.get("zip"), Some(&Value::int(10001)));
        let swapped = Tuple::new([
            ("zip", Value::int(10001)),
            ("year", Value::int(2010)),
            ("city", Value::str("NY")),
        ]);
        assert_eq!(t, swapped);
        assert_eq!(t.structural_hash(), swapped.structural_hash());
        assert_eq!(
            format!("{t:?}"),
            r#"Tuple { fields: [("city", Str("NY")), ("year", Int(2010)), ("zip", Int(10001))] }"#
        );
    }

    #[test]
    fn ordering_is_stable() {
        let mut ts = [addr("NY", 2018), addr("LA", 2019), addr("LA", 2010)];
        ts.sort();
        assert_eq!(ts[0].get("city"), Some(&Value::str("LA")));
        assert_eq!(ts[0].get("year"), Some(&Value::int(2010)));
    }
}
