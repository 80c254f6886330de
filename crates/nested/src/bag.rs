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
        Bag::from_vec(entries)
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
        Bag::from_vec(Vec::new())
    }

    /// Internal constructor: wraps already-canonical entries.
    fn from_vec(entries: Vec<(Value, u64)>) -> Self {
        Bag { entries }
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

    /// Consumes the bag and returns its entries.
    pub fn into_entries(self) -> Vec<(Value, u64)> {
        self.entries
    }

    /// Additive union `R ∪ S` (multiplicities add).
    pub fn union(&self, other: &Bag) -> Bag {
        // Both inputs are sorted: a linear merge preserves canonical order
        // without re-sorting.
        let mut entries = Vec::with_capacity(self.entries.len() + other.entries.len());
        let mut left = self.entries.iter().peekable();
        let mut right = other.entries.iter().peekable();
        loop {
            match (left.peek(), right.peek()) {
                (Some((lv, lm)), Some((rv, rm))) => match lv.cmp(rv) {
                    Ordering::Less => {
                        entries.push((lv.clone(), *lm));
                        left.next();
                    }
                    Ordering::Greater => {
                        entries.push((rv.clone(), *rm));
                        right.next();
                    }
                    Ordering::Equal => {
                        entries.push((lv.clone(), lm + rm));
                        left.next();
                        right.next();
                    }
                },
                (Some((lv, lm)), None) => {
                    entries.push((lv.clone(), *lm));
                    left.next();
                }
                (None, Some((rv, rm))) => {
                    entries.push((rv.clone(), *rm));
                    right.next();
                }
                (None, None) => break,
            }
        }
        Bag::from_vec(entries)
    }

    /// Bag difference `R − S` (multiplicities subtract, floored at zero).
    pub fn difference(&self, other: &Bag) -> Bag {
        let mut entries = Vec::new();
        for (v, m) in self.iter() {
            let other_m = other.mult(v);
            if *m > other_m {
                entries.push((v.clone(), m - other_m));
            }
        }
        Bag::from_vec(entries)
    }

    /// Duplicate elimination `δ(R)`: every distinct value with multiplicity 1.
    pub fn dedup(&self) -> Bag {
        Bag::from_vec(self.entries.iter().map(|(v, _)| (v.clone(), 1)).collect())
    }

    /// Maps every distinct value through `f`, preserving multiplicities.
    pub fn map_values<F>(&self, mut f: F) -> Bag
    where
        F: FnMut(&Value) -> Value,
    {
        let mut builder = BagBuilder::with_capacity(self.entries.len());
        for (v, m) in &self.entries {
            builder.add(f(v), *m);
        }
        builder.finish()
    }

    /// Retains only entries whose value satisfies the predicate.
    pub fn filter<F>(&self, mut pred: F) -> Bag
    where
        F: FnMut(&Value) -> bool,
    {
        Bag::from_vec(self.entries.iter().filter(|(v, _)| pred(v)).cloned().collect())
    }

    /// Groups the bag's elements by a key extracted from each value.
    ///
    /// Returns `(key, bag of values with that key)` pairs in canonical key
    /// order. Used by relation nesting and grouped aggregation.
    pub fn group_by<F>(&self, mut key: F) -> Vec<(Value, Bag)>
    where
        F: FnMut(&Value) -> Value,
    {
        // `Value` only carries interior mutability in its lazily cached
        // structural hash, which never changes its `Eq`/`Hash` identity.
        #[allow(clippy::mutable_key_type)]
        let mut groups: HashMap<Value, BagBuilder> = HashMap::new();
        for (v, m) in self.iter() {
            groups.entry(key(v)).or_default().add(v.clone(), *m);
        }
        let mut out: Vec<(Value, Bag)> = groups.into_iter().map(|(k, b)| (k, b.finish())).collect();
        out.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        out
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
    fn union_difference_dedup() {
        let a = Bag::from_entries([(Value::int(1), 2), (Value::int(2), 1)]);
        let b = Bag::from_entries([(Value::int(1), 1), (Value::int(3), 4)]);
        let u = a.union(&b);
        assert_eq!(u.mult(&Value::int(1)), 3);
        assert_eq!(u.mult(&Value::int(3)), 4);
        let d = a.difference(&b);
        assert_eq!(d.mult(&Value::int(1)), 1);
        assert_eq!(d.mult(&Value::int(2)), 1);
        assert_eq!(d.mult(&Value::int(3)), 0);
        let dd = u.dedup();
        assert_eq!(dd.total(), 3);
        assert!(dd.iter().all(|(_, m)| *m == 1));
    }

    #[test]
    fn union_merge_preserves_canonical_order() {
        let a = Bag::from_values([Value::int(5), Value::int(1), Value::int(3)]);
        let b = Bag::from_values([Value::int(4), Value::int(1), Value::int(0)]);
        let merged = a.union(&b);
        let mut expected = a.clone();
        for (v, m) in b.iter() {
            expected.insert(v.clone(), *m);
        }
        assert_eq!(merged.into_entries(), expected.into_entries());
    }

    #[test]
    fn expanded_iteration_respects_multiplicities() {
        let bag = Bag::from_entries([(Value::int(7), 3)]);
        assert_eq!(bag.iter_expanded().count(), 3);
    }

    #[test]
    fn group_by_key() {
        let bag = Bag::from_values([t("Sue", 1), t("Sue", 2), t("Peter", 3)]);
        let groups = bag.group_by(|v| v.as_tuple().unwrap().get("name").unwrap().clone());
        assert_eq!(groups.len(), 2);
        let (sue_key, sue_group) = groups.iter().find(|(k, _)| k == &Value::str("Sue")).unwrap();
        assert_eq!(sue_key, &Value::str("Sue"));
        assert_eq!(sue_group.total(), 2);
        // Group keys come back in canonical (sorted) order.
        assert!(groups.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn filter_and_map() {
        let bag = Bag::from_values([Value::int(1), Value::int(2), Value::int(3)]);
        let evens = bag.filter(|v| v.as_int().unwrap() % 2 == 0);
        assert_eq!(evens.total(), 1);
        let doubled = bag.map_values(|v| Value::int(v.as_int().unwrap() * 2));
        assert_eq!(doubled.mult(&Value::int(6)), 1);
    }

    #[test]
    fn display_shows_multiplicities() {
        let bag = Bag::from_entries([(Value::int(1), 2)]);
        assert_eq!(bag.to_string(), "{{1^2}}");
        assert_eq!(Bag::new().to_string(), "{{}}");
    }
}
