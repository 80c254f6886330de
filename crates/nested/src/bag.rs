//! Bags (multisets) of nested values.
//!
//! A [`Bag`] stores distinct values together with their multiplicities in a
//! canonical (sorted) order, which makes bag equality, hashing, and ordering
//! well-defined and deterministic. Bags are used both as nested relation
//! *values* (attributes of relation type) and as the top-level relations of a
//! database.
//!
//! Bags should be built through [`BagBuilder`] (which all the batch
//! constructors use internally): it deduplicates entries in a hash map — one
//! structural hash per inserted value instead of `O(log n)` deep comparisons
//! plus a `Vec::insert` shift — and sorts into canonical order once at
//! [`BagBuilder::finish`]. The resulting entry order is identical to what
//! repeated [`Bag::insert`] calls produce; only the construction cost differs.

use crate::value::Value;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};

/// A bag `{{ v₁ⁿ¹, v₂ⁿ², ... }}` of nested values with multiplicities.
#[derive(Debug, Clone, Default)]
pub struct Bag {
    /// Distinct values with positive multiplicities, kept sorted by value.
    entries: Vec<(Value, u64)>,
}

/// Accumulates `(value, multiplicity)` entries in a hash map and produces a
/// canonical [`Bag`] in one sort at the end.
///
/// Equal values are merged by their structural hash (with equality confirmed
/// on collision), so building a bag of `n` insertions costs `n` hashes plus a
/// single `O(d log d)` sort over the `d` distinct values — instead of the
/// `O(n·d)` deep-comparison binary-search-and-shift of per-insert
/// canonicalization.
#[derive(Debug, Default)]
pub struct BagBuilder {
    // `Value`'s interior mutability is limited to its lazily cached
    // structural hash, which never changes its `Eq`/`Hash` identity.
    #[allow(clippy::mutable_key_type)]
    entries: HashMap<Value, u64>,
}

impl BagBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        BagBuilder { entries: HashMap::new() }
    }

    /// An empty builder with capacity for `n` distinct values.
    pub fn with_capacity(n: usize) -> Self {
        BagBuilder { entries: HashMap::with_capacity(n) }
    }

    /// Adds `mult` copies of `value`. Adding zero copies is a no-op.
    pub fn add(&mut self, value: Value, mult: u64) {
        if mult == 0 {
            return;
        }
        *self.entries.entry(value).or_insert(0) += mult;
    }

    /// Adds one copy of `value`.
    pub fn push(&mut self, value: Value) {
        self.add(value, 1);
    }

    /// Number of distinct values accumulated so far.
    pub fn distinct(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing has been added yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Sorts the accumulated entries into canonical order and returns the bag.
    pub fn finish(self) -> Bag {
        let mut entries: Vec<(Value, u64)> = self.entries.into_iter().collect();
        entries.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        Bag { entries }
    }
}

impl Extend<Value> for BagBuilder {
    fn extend<T: IntoIterator<Item = Value>>(&mut self, iter: T) {
        for v in iter {
            self.push(v);
        }
    }
}

impl Extend<(Value, u64)> for BagBuilder {
    fn extend<T: IntoIterator<Item = (Value, u64)>>(&mut self, iter: T) {
        for (v, m) in iter {
            self.add(v, m);
        }
    }
}

impl Bag {
    /// The empty bag `{{}}`.
    pub fn new() -> Self {
        Bag { entries: Vec::new() }
    }

    /// Builds a bag from an iterator of values (each contributing multiplicity 1).
    pub fn from_values<I>(values: I) -> Self
    where
        I: IntoIterator<Item = Value>,
    {
        let mut builder = BagBuilder::new();
        builder.extend(values);
        builder.finish()
    }

    /// Builds a bag from `(value, multiplicity)` pairs.
    pub fn from_entries<I>(entries: I) -> Self
    where
        I: IntoIterator<Item = (Value, u64)>,
    {
        let mut builder = BagBuilder::new();
        builder.extend(entries);
        builder.finish()
    }

    /// Inserts `mult` copies of `value`. Inserting zero copies is a no-op.
    ///
    /// Prefer [`BagBuilder`] when constructing a bag from many values; this
    /// per-insert path re-canonicalizes incrementally.
    pub fn insert(&mut self, value: Value, mult: u64) {
        if mult == 0 {
            return;
        }
        match self.entries.binary_search_by(|(v, _)| v.cmp(&value)) {
            Ok(idx) => self.entries[idx].1 += mult,
            Err(idx) => self.entries.insert(idx, (value, mult)),
        }
    }

    /// The multiplicity of `value` in the bag (`mult(R, t)`); zero if absent.
    pub fn mult(&self, value: &Value) -> u64 {
        match self.entries.binary_search_by(|(v, _)| v.cmp(value)) {
            Ok(idx) => self.entries[idx].1,
            Err(_) => 0,
        }
    }

    /// Whether the bag contains at least one copy of `value`.
    pub fn contains(&self, value: &Value) -> bool {
        self.mult(value) > 0
    }

    /// Total number of elements counting multiplicities (`|R|`).
    pub fn total(&self) -> u64 {
        self.entries.iter().map(|(_, m)| m).sum()
    }

    /// Number of *distinct* values.
    pub fn distinct(&self) -> usize {
        self.entries.len()
    }

    /// Whether the bag is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over `(value, multiplicity)` entries in canonical order.
    pub fn iter(&self) -> impl Iterator<Item = &(Value, u64)> {
        self.entries.iter()
    }

    /// Iterates over values, repeating each according to its multiplicity.
    pub fn iter_expanded(&self) -> impl Iterator<Item = &Value> {
        self.entries.iter().flat_map(|(v, m)| std::iter::repeat_n(v, *m as usize))
    }

    /// The `(value, multiplicity)` entries in canonical order.
    pub fn entries(&self) -> &[(Value, u64)] {
        &self.entries
    }

    /// Consumes the bag and returns its entries.
    pub fn into_entries(self) -> Vec<(Value, u64)> {
        self.entries
    }
}

impl PartialEq for Bag {
    fn eq(&self, other: &Self) -> bool {
        self.entries == other.entries
    }
}

impl Eq for Bag {}

impl PartialOrd for Bag {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Bag {
    fn cmp(&self, other: &Self) -> Ordering {
        self.entries.cmp(&other.entries)
    }
}

impl Hash for Bag {
    fn hash<H: Hasher>(&self, state: &mut H) {
        for (v, m) in &self.entries {
            v.hash(state);
            m.hash(state);
        }
    }
}

impl fmt::Display for Bag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{{{")?;
        let mut first = true;
        for (v, m) in &self.entries {
            if !first {
                write!(f, ", ")?;
            }
            first = false;
            if *m == 1 {
                write!(f, "{v}")?;
            } else {
                write!(f, "{v}^{m}")?;
            }
        }
        write!(f, "}}}}")
    }
}

impl FromIterator<Value> for Bag {
    fn from_iter<T: IntoIterator<Item = Value>>(iter: T) -> Self {
        Bag::from_values(iter)
    }
}

impl FromIterator<(Value, u64)> for Bag {
    fn from_iter<T: IntoIterator<Item = (Value, u64)>>(iter: T) -> Self {
        Bag::from_entries(iter)
    }
}

impl IntoIterator for Bag {
    type Item = (Value, u64);
    type IntoIter = std::vec::IntoIter<(Value, u64)>;

    fn into_iter(self) -> Self::IntoIter {
        self.entries.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(name: &str, n: i64) -> Value {
        Value::tuple([("name", Value::str(name)), ("n", Value::int(n))])
    }

    #[test]
    fn insert_aggregates_multiplicities() {
        let mut bag = Bag::new();
        bag.insert(Value::int(1), 2);
        bag.insert(Value::int(1), 3);
        bag.insert(Value::int(2), 1);
        bag.insert(Value::int(3), 0);
        assert_eq!(bag.mult(&Value::int(1)), 5);
        assert_eq!(bag.mult(&Value::int(2)), 1);
        assert_eq!(bag.mult(&Value::int(3)), 0);
        assert_eq!(bag.total(), 6);
        assert_eq!(bag.distinct(), 2);
    }

    #[test]
    fn builder_matches_insert_semantics() {
        let values =
            [t("Sue", 1), t("Peter", 2), t("Sue", 1), Value::int(7), Value::str("x"), t("Ann", 0)];
        let mut via_insert = Bag::new();
        for v in &values {
            via_insert.insert(v.clone(), 1);
        }
        let mut builder = BagBuilder::new();
        for v in &values {
            builder.push(v.clone());
        }
        assert_eq!(builder.distinct(), 5);
        assert!(!builder.is_empty());
        let via_builder = builder.finish();
        assert_eq!(via_builder, via_insert);
        // Canonical entry order is identical, not just bag equality.
        assert_eq!(via_builder.into_entries(), via_insert.into_entries());
        assert!(BagBuilder::with_capacity(4).finish().is_empty());
    }

    #[test]
    fn builder_zero_multiplicity_is_noop() {
        let mut builder = BagBuilder::new();
        builder.add(Value::int(1), 0);
        assert!(builder.is_empty());
        builder.extend([(Value::int(2), 3u64)]);
        let bag = builder.finish();
        assert_eq!(bag.mult(&Value::int(2)), 3);
    }

    #[test]
    fn equality_is_order_insensitive() {
        let a = Bag::from_values([Value::int(1), Value::int(2), Value::int(1)]);
        let b = Bag::from_values([Value::int(2), Value::int(1), Value::int(1)]);
        assert_eq!(a, b);
        let c = Bag::from_values([Value::int(1), Value::int(2)]);
        assert_ne!(a, c);
    }

    #[test]
    fn expanded_iteration_respects_multiplicities() {
        let bag = Bag::from_entries([(Value::int(7), 3)]);
        assert_eq!(bag.iter_expanded().count(), 3);
    }

    #[test]
    fn display_shows_multiplicities() {
        let bag = Bag::from_entries([(Value::int(1), 2)]);
        assert_eq!(bag.to_string(), "{{1^2}}");
        assert_eq!(Bag::new().to_string(), "{{}}");
    }
}
