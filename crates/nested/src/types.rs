//! Nested relational types (Definition 1).
//!
//! The grammar of the paper is
//!
//! ```text
//! P ::= int | str | bool | ...        (primitive types)
//! T ::= ⟨A₁ : A, ..., Aₙ : A⟩          (tuple types)
//! R ::= {{ T }}                        (nested relation types)
//! A ::= P | T | R                      (attribute types)
//! ```
//!
//! A nested relation schema is an `R` type; a nested database schema is a set
//! of `R` types (represented by the algebra crate's `Database`). Attribute
//! names are interned [`Sym`]s, matching the instance representation.

use std::fmt;

use crate::error::{DataError, DataResult};
use crate::path::AttrPath;
use crate::sym::Sym;

/// Primitive types of the data model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PrimitiveType {
    /// Boolean values.
    Bool,
    /// 64-bit signed integers (also used for years and counts).
    Int,
    /// 64-bit floating-point numbers (prices, rates).
    Float,
    /// UTF-8 strings (also used for ISO dates, which compare lexicographically).
    Str,
}

impl fmt::Display for PrimitiveType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PrimitiveType::Bool => write!(f, "bool"),
            PrimitiveType::Int => write!(f, "int"),
            PrimitiveType::Float => write!(f, "float"),
            PrimitiveType::Str => write!(f, "str"),
        }
    }
}

/// A tuple type `⟨A₁ : τ₁, ..., Aₙ : τₙ⟩` with named, ordered attributes.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct TupleType {
    fields: Vec<(Sym, NestedType)>,
}

impl TupleType {
    /// Creates a tuple type from `(name, type)` pairs.
    ///
    /// Attribute names must be unique; duplicates yield an error.
    pub fn new<I, S>(fields: I) -> DataResult<Self>
    where
        I: IntoIterator<Item = (S, NestedType)>,
        S: Into<Sym>,
    {
        let fields: Vec<(Sym, NestedType)> =
            fields.into_iter().map(|(n, t)| (n.into(), t)).collect();
        for (i, (name, _)) in fields.iter().enumerate() {
            if fields.iter().skip(i + 1).any(|(other, _)| other == name) {
                return Err(DataError::DuplicateAttribute(name.as_str().to_string()));
            }
        }
        Ok(TupleType { fields })
    }

    /// Creates a tuple type without checking for duplicate names.
    ///
    /// Intended for internal use where uniqueness is already guaranteed.
    pub fn from_fields(fields: Vec<(Sym, NestedType)>) -> Self {
        TupleType { fields }
    }

    /// The empty tuple type `⟨⟩`.
    pub fn empty() -> Self {
        TupleType { fields: Vec::new() }
    }

    /// The `(name, type)` pairs in declaration order.
    pub fn fields(&self) -> &[(Sym, NestedType)] {
        &self.fields
    }

    /// The attribute names in declaration order (the paper's `sch(R)`),
    /// without allocating.
    pub fn attribute_names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.fields.iter().map(|(n, _)| n.as_str())
    }

    /// The attribute symbols in declaration order.
    pub fn attribute_syms(&self) -> impl Iterator<Item = Sym> + '_ {
        self.fields.iter().map(|(n, _)| *n)
    }

    /// Number of attributes.
    pub fn arity(&self) -> usize {
        self.fields.len()
    }

    /// Whether the tuple type has no attributes.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Looks up the type of attribute `name`.
    pub fn attribute(&self, name: impl Into<Sym>) -> Option<&NestedType> {
        let sym = name.into();
        self.fields.iter().find(|(n, _)| *n == sym).map(|(_, t)| t)
    }

    /// Whether the tuple type contains attribute `name`.
    pub fn contains(&self, name: impl Into<Sym>) -> bool {
        self.attribute(name).is_some()
    }

    /// Looks up the type of attribute `name`, erroring if absent. The error
    /// (with its list of available attributes) is only built on the miss path.
    pub fn attribute_required(&self, name: impl Into<Sym>) -> DataResult<&NestedType> {
        let sym = name.into();
        match self.attribute(sym) {
            Some(t) => Ok(t),
            None => Err(self.unknown_attribute(sym)),
        }
    }

    #[cold]
    #[inline(never)]
    fn unknown_attribute(&self, sym: Sym) -> DataError {
        DataError::UnknownAttribute {
            attribute: sym.as_str().to_string(),
            available: self.attribute_names().collect(),
        }
    }

    /// Resolves a (possibly nested) attribute path starting at this tuple type.
    ///
    /// Path segments traverse tuple attributes directly and "step into" the
    /// element type of nested relations, mirroring how schema backtracing
    /// interprets source-attribute paths such as `address2.city`.
    pub fn resolve_path(&self, path: &AttrPath) -> DataResult<&NestedType> {
        let mut current_tuple = self;
        let segments = path.segments();
        if segments.is_empty() {
            return Err(DataError::Invalid("empty attribute path".into()));
        }
        for (i, segment) in segments.iter().enumerate() {
            let ty = current_tuple.attribute_required(*segment)?;
            if i + 1 == segments.len() {
                return Ok(ty);
            }
            current_tuple = match ty {
                NestedType::Tuple(t) => t,
                NestedType::Relation(t) => t,
                NestedType::Prim(_) => {
                    return Err(DataError::PathMismatch {
                        path: path.to_string(),
                        found: format!("primitive at segment `{segment}`"),
                    })
                }
            };
        }
        unreachable!("loop returns on last segment")
    }

    /// Projects this tuple type onto the given attribute names, preserving the
    /// requested order. Unknown attributes yield an error.
    pub fn project<S: Into<Sym> + Copy>(&self, names: &[S]) -> DataResult<TupleType> {
        let mut fields = Vec::with_capacity(names.len());
        for name in names {
            let sym = (*name).into();
            let ty = self.attribute_required(sym)?.clone();
            fields.push((sym, ty));
        }
        TupleType::new(fields)
    }

    /// Concatenates two tuple types (the paper's `◦` on tuple types).
    ///
    /// Attribute names must be disjoint.
    pub fn concat(&self, other: &TupleType) -> DataResult<TupleType> {
        let mut fields = self.fields.clone();
        for (name, ty) in &other.fields {
            if self.contains(*name) {
                return Err(DataError::DuplicateAttribute(name.as_str().to_string()));
            }
            fields.push((*name, ty.clone()));
        }
        Ok(TupleType { fields })
    }

    /// Returns a copy with the named attribute removed (no-op if absent).
    /// Names are converted to symbols once per call (on the stack for up to
    /// 8 names), so the per-field filter is pure integer compares.
    pub fn without<S: Into<Sym> + Copy>(&self, names: &[S]) -> TupleType {
        let Some(&first) = names.first() else { return self.clone() };
        let mut inline = [first.into(); 8];
        let heap: Vec<Sym>;
        let syms: &[Sym] = if names.len() <= inline.len() {
            for (slot, name) in inline.iter_mut().zip(names.iter()) {
                *slot = (*name).into();
            }
            &inline[..names.len()]
        } else {
            heap = names.iter().map(|n| (*n).into()).collect();
            &heap
        };
        TupleType {
            fields: self.fields.iter().filter(|(n, _)| !syms.contains(n)).cloned().collect(),
        }
    }

    /// Returns a copy with an additional attribute appended.
    pub fn with_attribute(&self, name: impl Into<Sym>, ty: NestedType) -> DataResult<TupleType> {
        let name = name.into();
        if self.contains(name) {
            return Err(DataError::DuplicateAttribute(name.as_str().to_string()));
        }
        let mut fields = self.fields.clone();
        fields.push((name, ty));
        Ok(TupleType { fields })
    }

    /// Renames attributes according to `(old, new)` pairs; attributes not
    /// mentioned keep their name.
    pub fn rename(&self, mapping: &[(Sym, Sym)]) -> DataResult<TupleType> {
        let mut fields = Vec::with_capacity(self.fields.len());
        for (name, ty) in &self.fields {
            let new_name =
                mapping.iter().find(|(old, _)| old == name).map(|(_, new)| *new).unwrap_or(*name);
            fields.push((new_name, ty.clone()));
        }
        TupleType::new(fields)
    }
}

impl fmt::Display for TupleType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨")?;
        for (i, (name, ty)) in self.fields.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{name}: {ty}")?;
        }
        write!(f, "⟩")
    }
}

/// A nested type: primitive, tuple, or nested relation (Definition 1).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum NestedType {
    /// A primitive type.
    Prim(PrimitiveType),
    /// A tuple type.
    Tuple(TupleType),
    /// A nested relation type `{{ T }}` (a bag of tuples of type `T`).
    Relation(TupleType),
}

impl NestedType {
    /// Shorthand for `NestedType::Prim(PrimitiveType::Int)`.
    pub fn int() -> Self {
        NestedType::Prim(PrimitiveType::Int)
    }

    /// Shorthand for `NestedType::Prim(PrimitiveType::Str)`.
    pub fn str() -> Self {
        NestedType::Prim(PrimitiveType::Str)
    }

    /// Shorthand for `NestedType::Prim(PrimitiveType::Bool)`.
    pub fn bool() -> Self {
        NestedType::Prim(PrimitiveType::Bool)
    }

    /// Shorthand for `NestedType::Prim(PrimitiveType::Float)`.
    pub fn float() -> Self {
        NestedType::Prim(PrimitiveType::Float)
    }

    /// Builds a relation type from `(name, type)` pairs.
    pub fn relation_of<I, S>(fields: I) -> DataResult<Self>
    where
        I: IntoIterator<Item = (S, NestedType)>,
        S: Into<Sym>,
    {
        Ok(NestedType::Relation(TupleType::new(fields)?))
    }

    /// Builds a tuple type from `(name, type)` pairs.
    pub fn tuple_of<I, S>(fields: I) -> DataResult<Self>
    where
        I: IntoIterator<Item = (S, NestedType)>,
        S: Into<Sym>,
    {
        Ok(NestedType::Tuple(TupleType::new(fields)?))
    }

    /// Two types are *compatible* if they are structurally equal, ignoring
    /// attribute order inside tuple types. This is the notion used when
    /// checking that an attribute alternative has "matching type" (Section 5.2)
    /// and when validating union inputs.
    pub fn is_compatible_with(&self, other: &NestedType) -> bool {
        match (self, other) {
            (NestedType::Prim(a), NestedType::Prim(b)) => a == b,
            (NestedType::Tuple(a), NestedType::Tuple(b))
            | (NestedType::Relation(a), NestedType::Relation(b)) => {
                if a.arity() != b.arity() {
                    return false;
                }
                a.fields().iter().all(|(name, ty)| {
                    b.attribute(*name).map(|t| ty.is_compatible_with(t)).unwrap_or(false)
                })
            }
            _ => false,
        }
    }
}

impl fmt::Display for NestedType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NestedType::Prim(p) => write!(f, "{p}"),
            NestedType::Tuple(t) => write!(f, "{t}"),
            NestedType::Relation(t) => write!(f, "{{{{{t}}}}}"),
        }
    }
}

impl From<PrimitiveType> for NestedType {
    fn from(p: PrimitiveType) -> Self {
        NestedType::Prim(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn address_type() -> TupleType {
        TupleType::new([("city", NestedType::str()), ("year", NestedType::int())]).unwrap()
    }

    fn person_type() -> TupleType {
        TupleType::new([
            ("name", NestedType::str()),
            ("address1", NestedType::Relation(address_type())),
            ("address2", NestedType::Relation(address_type())),
        ])
        .unwrap()
    }

    #[test]
    fn tuple_type_rejects_duplicates() {
        let err = TupleType::new([("a", NestedType::int()), ("a", NestedType::str())]);
        assert!(matches!(err, Err(DataError::DuplicateAttribute(_))));
    }

    #[test]
    fn attribute_lookup() {
        let ty = person_type();
        assert_eq!(ty.attribute("name"), Some(&NestedType::str()));
        assert!(ty.attribute("missing").is_none());
        assert!(ty.attribute_required("missing").is_err());
        assert_eq!(ty.arity(), 3);
        assert_eq!(ty.attribute_names().collect::<Vec<_>>(), vec!["name", "address1", "address2"]);
        assert_eq!(ty.attribute_syms().count(), 3);
    }

    #[test]
    fn resolve_path_through_relation() {
        let ty = person_type();
        let path = AttrPath::parse("address2.city");
        assert_eq!(ty.resolve_path(&path).unwrap(), &NestedType::str());
        let bad = AttrPath::parse("name.city");
        assert!(ty.resolve_path(&bad).is_err());
    }

    #[test]
    fn project_and_concat() {
        let ty = person_type();
        let projected = ty.project(&["name"]).unwrap();
        assert_eq!(projected.arity(), 1);
        let extra = TupleType::new([("age", NestedType::int())]).unwrap();
        let combined = projected.concat(&extra).unwrap();
        assert_eq!(combined.attribute_names().collect::<Vec<_>>(), vec!["name", "age"]);
        // Concatenation with a colliding name fails.
        assert!(combined.concat(&extra).is_err());
    }

    #[test]
    fn rename_and_without() {
        let ty = address_type();
        let renamed = ty.rename(&[("city".into(), "town".into())]).unwrap();
        assert!(renamed.contains("town"));
        assert!(!renamed.contains("city"));
        let smaller = ty.without(&["year"]);
        assert_eq!(smaller.attribute_names().collect::<Vec<_>>(), vec!["city"]);
    }

    #[test]
    fn compatibility_ignores_field_order() {
        let a = TupleType::new([("x", NestedType::int()), ("y", NestedType::str())]).unwrap();
        let b = TupleType::new([("y", NestedType::str()), ("x", NestedType::int())]).unwrap();
        assert!(NestedType::Tuple(a.clone()).is_compatible_with(&NestedType::Tuple(b.clone())));
        assert!(!NestedType::Tuple(a).is_compatible_with(&NestedType::Relation(b)));
    }

    #[test]
    fn display_forms() {
        let ty = NestedType::Relation(address_type());
        assert_eq!(ty.to_string(), "{{⟨city: str, year: int⟩}}");
        assert_eq!(NestedType::int().to_string(), "int");
    }

    #[test]
    fn with_attribute_appends() {
        let ty = address_type().with_attribute("zip", NestedType::int()).unwrap();
        assert_eq!(ty.attribute_names().collect::<Vec<_>>(), vec!["city", "year", "zip"]);
        assert!(ty.with_attribute("zip", NestedType::int()).is_err());
    }
}
