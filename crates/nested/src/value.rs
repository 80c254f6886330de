//! Nested relation instances (Definition 2).
//!
//! A [`Value`] is either the special null value `⊥` (which inhabits every
//! type), a primitive, a tuple ([`Tuple`]) or a nested relation ([`Bag`]).
//! Values have a total order (used to canonicalize bags and to make results
//! deterministic), structural equality, and hashing, so they can be used as
//! grouping keys throughout the algebra and provenance crates.
//!
//! Compound values (strings, tuples, bags) are stored behind [`Arc`]s, so
//! `Value::clone` is **O(1)** and values share subtrees structurally: copying
//! a traced tuple, a projected field, or a whole base relation bumps reference
//! counts instead of deep-copying trees. No method mutates a value in place:
//! a changed tuple is a new one (`Tuple::with_field`) that shares the fields
//! it leaves alone.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::bag::{Bag, BagBuilder};
use crate::error::{DataError, DataResult};
use crate::path::AttrPath;
use crate::sym::Sym;
use crate::tuple::Tuple;
use crate::types::{NestedType, PrimitiveType, TupleType};

/// A nested value.
#[derive(Debug, Clone)]
pub enum Value {
    /// The special null value `⊥`, valid for any nested type.
    Null,
    /// A boolean.
    Bool(bool),
    /// A 64-bit integer.
    Int(i64),
    /// A 64-bit float.
    Float(f64),
    /// A string (ISO dates are represented as strings and compare lexicographically).
    Str(Arc<str>),
    /// A tuple value.
    Tuple(Arc<Tuple>),
    /// A nested relation (bag of values, normally tuples).
    Bag(Arc<Bag>),
}

impl Value {
    /// Convenience constructor for string values.
    pub fn str(s: impl Into<Arc<str>>) -> Value {
        Value::Str(s.into())
    }

    /// Convenience constructor for integer values.
    pub fn int(i: i64) -> Value {
        Value::Int(i)
    }

    /// Convenience constructor for float values.
    pub fn float(f: f64) -> Value {
        Value::Float(f)
    }

    /// Convenience constructor for boolean values.
    pub fn bool(b: bool) -> Value {
        Value::Bool(b)
    }

    /// An empty nested relation `{{}}`.
    pub fn empty_bag() -> Value {
        Value::Bag(Arc::new(Bag::new()))
    }

    /// Wraps an owned tuple as a value.
    pub fn from_tuple(t: Tuple) -> Value {
        Value::Tuple(Arc::new(t))
    }

    /// Wraps an owned bag as a value.
    pub fn from_bag(b: Bag) -> Value {
        Value::Bag(Arc::new(b))
    }

    /// Builds a tuple value from `(name, value)` pairs.
    pub fn tuple<I, S>(fields: I) -> Value
    where
        I: IntoIterator<Item = (S, Value)>,
        S: Into<crate::sym::Sym>,
    {
        Value::from_tuple(Tuple::new(fields))
    }

    /// Builds a bag value from an iterator of element values.
    pub fn bag<I>(values: I) -> Value
    where
        I: IntoIterator<Item = Value>,
    {
        Value::from_bag(Bag::from_values(values))
    }

    /// Whether this value is `⊥`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// The contained tuple, if this is a tuple value.
    pub fn as_tuple(&self) -> Option<&Tuple> {
        match self {
            Value::Tuple(t) => Some(t),
            _ => None,
        }
    }

    /// The contained bag, if this is a bag value.
    pub fn as_bag(&self) -> Option<&Bag> {
        match self {
            Value::Bag(b) => Some(b),
            _ => None,
        }
    }

    /// The contained string, if this is a string value.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The contained float, widening integers, if numeric.
    ///
    /// This `Int → f64` widening (`i as f64`, lossy above 2⁵³) is the
    /// numeric-comparison contract of the whole workspace: scalar
    /// comparisons and the hash-join key canonicalization both coerce
    /// through exactly this function, so mixed `Int`/`Float` data compares
    /// identically on every physical path.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(f) => Some(*f),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// The contained boolean, if this is a boolean value.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// A short description of the value's variant, for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Int(_) => "int",
            Value::Float(_) => "float",
            Value::Str(_) => "str",
            Value::Tuple(_) => "tuple",
            Value::Bag(_) => "bag",
        }
    }

    /// Infers the nested type of this value, if determinable.
    ///
    /// `⊥` has no intrinsic type (it conforms to every type) and yields
    /// `None`; bags infer their element type from the first non-null element.
    pub fn infer_type(&self) -> Option<NestedType> {
        match self {
            Value::Null => None,
            Value::Bool(_) => Some(NestedType::Prim(PrimitiveType::Bool)),
            Value::Int(_) => Some(NestedType::Prim(PrimitiveType::Int)),
            Value::Float(_) => Some(NestedType::Prim(PrimitiveType::Float)),
            Value::Str(_) => Some(NestedType::Prim(PrimitiveType::Str)),
            Value::Tuple(t) => {
                let mut fields = Vec::with_capacity(t.arity());
                for (name, value) in t.fields() {
                    let ty = value.infer_type().unwrap_or(NestedType::Prim(PrimitiveType::Str));
                    fields.push((name, ty));
                }
                Some(NestedType::Tuple(TupleType::from_fields(fields)))
            }
            Value::Bag(b) => {
                let element = b
                    .iter()
                    .filter_map(|(v, _)| v.infer_type())
                    .find_map(|t| match t {
                        NestedType::Tuple(t) => Some(t),
                        _ => None,
                    })
                    .unwrap_or_else(TupleType::empty);
                Some(NestedType::Relation(element))
            }
        }
    }

    /// Whether the value conforms to `ty`. `⊥` conforms to every type;
    /// the check recurses into tuples and bags and ignores attribute order.
    pub fn conforms_to(&self, ty: &NestedType) -> bool {
        match (self, ty) {
            (Value::Null, _) => true,
            (Value::Bool(_), NestedType::Prim(PrimitiveType::Bool)) => true,
            (Value::Int(_), NestedType::Prim(PrimitiveType::Int)) => true,
            (Value::Float(_), NestedType::Prim(PrimitiveType::Float)) => true,
            // Integers may appear where floats are expected (e.g. prices).
            (Value::Int(_), NestedType::Prim(PrimitiveType::Float)) => true,
            (Value::Str(_), NestedType::Prim(PrimitiveType::Str)) => true,
            (Value::Tuple(t), NestedType::Tuple(tt)) => t.conforms_to(tt),
            (Value::Bag(b), NestedType::Relation(tt)) => b.iter().all(|(v, _)| {
                v.is_null() || v.as_tuple().map(|t| t.conforms_to(tt)).unwrap_or(false)
            }),
            _ => false,
        }
    }

    /// Navigates an attribute path, stepping through tuples.
    ///
    /// When the path steps into a bag, the collected values of the remaining
    /// path over all bag elements are returned as a new bag (this mirrors how
    /// source-attribute constraints like `address2.city = NY` are interpreted:
    /// "the cities appearing inside `address2`").
    pub fn get_path(&self, path: &AttrPath) -> DataResult<Value> {
        self.get_segments(path.segments())
    }

    /// [`Value::get_path`] over the path's remaining segments.
    pub(crate) fn get_segments(&self, segments: &[Sym]) -> DataResult<Value> {
        let Some((head, rest)) = segments.split_first() else { return Ok(self.clone()) };
        match self {
            Value::Null => Ok(Value::Null),
            Value::Tuple(t) => t.get_required(*head)?.get_segments(rest),
            Value::Bag(b) => {
                let mut builder = BagBuilder::with_capacity(b.distinct());
                for (element, mult) in b.iter() {
                    let v = element.get_segments(segments)?;
                    builder.add(v, *mult);
                }
                Ok(Value::from_bag(builder.finish()))
            }
            other => Err(DataError::PathMismatch {
                path: AttrPath::new(segments.iter().copied()).to_string(),
                found: other.kind().to_string(),
            }),
        }
    }

    /// Whether this value, or any value nested inside it along `path`,
    /// equals `needle`. Bags along the way are searched existentially.
    pub fn contains_at_path(&self, path: &AttrPath, needle: &Value) -> bool {
        self.contains_at_segments(path.segments(), needle)
    }

    fn contains_at_segments(&self, segments: &[Sym], needle: &Value) -> bool {
        let Some((head, rest)) = segments.split_first() else {
            return self.contains_value(needle);
        };
        match self {
            Value::Null => false,
            Value::Tuple(t) => {
                t.get(*head).is_some_and(|inner| inner.contains_at_segments(rest, needle))
            }
            Value::Bag(b) => b.iter().any(|(v, _)| v.contains_at_segments(segments, needle)),
            _ => false,
        }
    }

    fn contains_value(&self, needle: &Value) -> bool {
        if self == needle {
            return true;
        }
        match self {
            Value::Bag(b) => b.iter().any(|(v, _)| v == needle),
            _ => false,
        }
    }

    /// Total number of nodes in the value tree; used as a size measure for
    /// tree-edit-distance costs.
    pub fn node_count(&self) -> usize {
        match self {
            Value::Tuple(t) => 1 + t.values().iter().map(Value::node_count).sum::<usize>(),
            Value::Bag(b) => {
                1 + b.iter().map(|(v, m)| v.node_count() * (*m as usize)).sum::<usize>()
            }
            _ => 1,
        }
    }

    fn variant_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) => 2,
            Value::Float(_) => 3,
            Value::Str(_) => 4,
            Value::Tuple(_) => 5,
            Value::Bag(_) => 6,
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Float(a), Value::Float(b)) => a.total_cmp(b),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            // Shared subtrees are identical without looking inside; the deep
            // comparison only runs for distinct allocations.
            (Value::Tuple(a), Value::Tuple(b)) => {
                if Arc::ptr_eq(a, b) {
                    Ordering::Equal
                } else {
                    a.cmp(b)
                }
            }
            (Value::Bag(a), Value::Bag(b)) => {
                if Arc::ptr_eq(a, b) {
                    Ordering::Equal
                } else {
                    a.cmp(b)
                }
            }
            // Numeric cross-variant comparisons keep Int and Float comparable
            // by value so that e.g. grouping on a mixed column is stable.
            (Value::Int(a), Value::Float(b)) => (*a as f64).total_cmp(b),
            (Value::Float(a), Value::Int(b)) => a.total_cmp(&(*b as f64)),
            (a, b) => a.variant_rank().cmp(&b.variant_rank()),
        }
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            Value::Bool(b) => {
                1u8.hash(state);
                b.hash(state);
            }
            // Int and Float hash through the same numeric representation when
            // the float is integral, so that `Int(2) == Float(2.0)` implies
            // equal hashes (required by the Eq/Hash contract given the
            // cross-variant ordering above).
            Value::Int(i) => {
                2u8.hash(state);
                (*i as f64).to_bits().hash(state);
            }
            Value::Float(f) => {
                2u8.hash(state);
                f.to_bits().hash(state);
            }
            Value::Str(s) => {
                4u8.hash(state);
                s.hash(state);
            }
            Value::Tuple(t) => {
                5u8.hash(state);
                t.hash(state);
            }
            Value::Bag(b) => {
                6u8.hash(state);
                b.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "⊥"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "\"{s}\""),
            Value::Tuple(t) => write!(f, "{t}"),
            Value::Bag(b) => write!(f, "{b}"),
        }
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::str(s)
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::str(s)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<f64> for Value {
    fn from(f: f64) -> Self {
        Value::Float(f)
    }
}

impl From<Tuple> for Value {
    fn from(t: Tuple) -> Self {
        Value::from_tuple(t)
    }
}

impl From<Bag> for Value {
    fn from(b: Bag) -> Self {
        Value::from_bag(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sue() -> Value {
        Value::tuple([
            ("name", Value::str("Sue")),
            (
                "address2",
                Value::bag([
                    Value::tuple([("city", Value::str("LA")), ("year", Value::int(2019))]),
                    Value::tuple([("city", Value::str("NY")), ("year", Value::int(2018))]),
                ]),
            ),
        ])
    }

    #[test]
    fn constructors_and_accessors() {
        assert!(Value::Null.is_null());
        assert_eq!(Value::int(3).as_float(), Some(3.0));
        assert_eq!(Value::float(2.5).as_float(), Some(2.5));
        assert_eq!(Value::str("x").as_str(), Some("x"));
        assert_eq!(Value::bool(true).as_bool(), Some(true));
        assert!(Value::empty_bag().as_bag().unwrap().is_empty());
    }

    #[test]
    fn clone_is_shallow_and_shared() {
        let v = sue();
        let w = v.clone();
        match (&v, &w) {
            (Value::Tuple(a), Value::Tuple(b)) => assert!(Arc::ptr_eq(a, b)),
            _ => panic!("expected tuples"),
        }
        assert_eq!(v, w);
    }

    #[test]
    fn copy_on_write_mutation_leaves_the_original_alone() {
        let v = sue();
        let mut w = v.clone();
        let Value::Tuple(t) = &mut w else { panic!("expected a tuple") };
        let t = Arc::make_mut(t);
        *t = t.with_field("name", Value::str("Ann"));
        assert_eq!(v.as_tuple().unwrap().get("name"), Some(&Value::str("Sue")));
        assert_eq!(w.as_tuple().unwrap().get("name"), Some(&Value::str("Ann")));
    }

    #[test]
    fn ordering_is_total_and_deterministic() {
        let mut values = [
            Value::str("b"),
            Value::Null,
            Value::int(5),
            Value::float(1.5),
            Value::bool(true),
            Value::str("a"),
        ];
        values.sort();
        assert_eq!(values[0], Value::Null);
        assert_eq!(values[1], Value::bool(true));
        // int 1.5 float ordering across variants is numeric
        assert!(Value::int(1) < Value::float(1.5));
        assert!(Value::float(4.5) < Value::int(5));
        assert_eq!(Value::int(2), Value::Float(2.0));
    }

    #[test]
    fn equality_and_hash_consistent_for_numeric() {
        use std::collections::hash_map::DefaultHasher;
        let hash = |v: &Value| {
            let mut h = DefaultHasher::new();
            v.hash(&mut h);
            h.finish()
        };
        assert_eq!(Value::int(2), Value::float(2.0));
        assert_eq!(hash(&Value::int(2)), hash(&Value::float(2.0)));
    }

    #[test]
    fn type_inference_and_conformance() {
        let v = sue();
        let ty = v.infer_type().unwrap();
        assert!(v.conforms_to(&ty));
        assert!(Value::Null.conforms_to(&ty));
        assert!(!Value::int(3).conforms_to(&NestedType::str()));
        assert!(Value::int(3).conforms_to(&NestedType::float()));
    }

    #[test]
    fn path_navigation_through_bags() {
        let v = sue();
        let cities = v.get_path(&AttrPath::parse("address2.city")).unwrap();
        let bag = cities.as_bag().unwrap();
        assert_eq!(bag.total(), 2);
        assert_eq!(bag.mult(&Value::str("NY")), 1);
        assert!(v.contains_at_path(&AttrPath::parse("address2.city"), &Value::str("NY")));
        assert!(!v.contains_at_path(&AttrPath::parse("address2.city"), &Value::str("SF")));
        assert_eq!(v.get_path(&AttrPath::parse("name")).unwrap(), Value::str("Sue"));
        assert!(v.get_path(&AttrPath::parse("name.city")).is_err());
    }

    #[test]
    fn node_count_counts_structure() {
        assert_eq!(Value::int(1).node_count(), 1);
        let v = sue();
        // person tuple + name + address2 bag + 2 * (tuple + city + year)
        assert_eq!(v.node_count(), 1 + 1 + 1 + 2 * 3);
    }

    #[test]
    fn display_renders_nested_values() {
        let v = sue();
        let s = v.to_string();
        assert!(s.contains("Sue"));
        assert!(s.contains("NY"));
        assert_eq!(Value::Null.to_string(), "⊥");
    }
}
