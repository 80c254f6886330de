//! Property-style tests for the nested data model: bag algebra laws, NIP
//! matching invariants, and tree-edit-distance metric properties.
//!
//! Inputs are generated with the workspace's deterministic PRNG instead of
//! `proptest` (hermetic builds have no external crates); each property is
//! checked over a few hundred seeded random cases.

use nested_data::{tree_distance, Bag, Nip, Value};
use whynot_rng::{Rng, SeedableRng, StdRng};

const CASES: usize = 200;

/// A small primitive value.
fn primitive(rng: &mut StdRng) -> Value {
    match rng.gen_range(0..4usize) {
        0 => Value::Null,
        1 => Value::Bool(rng.gen_bool(0.5)),
        2 => Value::Int(rng.gen_range(-50i64..50)),
        _ => {
            let len = rng.gen_range(0..=3usize);
            let s: String = (0..len).map(|_| *rng.choose(&['a', 'b', 'c'])).collect();
            Value::str(s)
        }
    }
}

/// A flat tuple over a fixed small schema.
fn flat_tuple(rng: &mut StdRng) -> Value {
    Value::tuple([("a", primitive(rng)), ("b", primitive(rng))])
}

/// A small bag of flat tuples.
fn small_bag(rng: &mut StdRng) -> Bag {
    let n = rng.gen_range(0..6usize);
    Bag::from_values((0..n).map(|_| flat_tuple(rng)))
}

/// Bag union is commutative and its totals add up.
#[test]
fn bag_union_commutative() {
    let mut rng = StdRng::seed_from_u64(0x6261_6775);
    for _ in 0..CASES {
        let a = small_bag(&mut rng);
        let b = small_bag(&mut rng);
        assert_eq!(a.union(&b), b.union(&a));
        assert_eq!(a.union(&b).total(), a.total() + b.total());
    }
}

/// Bag difference never yields negative multiplicities and is bounded by
/// the left operand.
#[test]
fn bag_difference_bounded() {
    let mut rng = StdRng::seed_from_u64(0x6261_6764);
    for _ in 0..CASES {
        let a = small_bag(&mut rng);
        let b = small_bag(&mut rng);
        let d = a.difference(&b);
        assert!(d.total() <= a.total());
        for (v, m) in d.iter() {
            assert!(*m <= a.mult(v));
        }
        // a = (a − b) ∪ (a ∩ b) in terms of totals.
        let kept: u64 = a.iter().map(|(v, m)| (*m).min(b.mult(v))).sum();
        assert_eq!(d.total() + kept, a.total());
    }
}

/// Deduplication keeps exactly the distinct values with multiplicity one.
#[test]
fn dedup_is_idempotent() {
    let mut rng = StdRng::seed_from_u64(0x6465_6475);
    for _ in 0..CASES {
        let a = small_bag(&mut rng);
        let d = a.dedup();
        assert_eq!(d.total() as usize, a.distinct());
        assert_eq!(d.dedup(), d);
    }
}

/// Bag equality is insensitive to insertion order.
#[test]
fn bag_equality_order_insensitive() {
    let mut rng = StdRng::seed_from_u64(0x6f72_6465);
    for _ in 0..CASES {
        let n = rng.gen_range(0..6usize);
        let values: Vec<Value> = (0..n).map(|_| flat_tuple(&mut rng)).collect();
        let forward = Bag::from_values(values.clone());
        let mut reversed_values = values;
        reversed_values.reverse();
        let reversed = Bag::from_values(reversed_values);
        assert_eq!(forward, reversed);
    }
}

/// The unconstrained NIP (all `?`) matches every tuple, and an exact-value
/// NIP matches exactly that value.
#[test]
fn nip_matching_extremes() {
    let mut rng = StdRng::seed_from_u64(0x6e69_706d);
    for _ in 0..CASES {
        let t = flat_tuple(&mut rng);
        let other = flat_tuple(&mut rng);
        let any = Nip::tuple([("a", Nip::Any), ("b", Nip::Any)]);
        assert!(any.matches(&t));
        let exact = Nip::Value(t.clone());
        assert!(exact.matches(&t));
        assert_eq!(exact.matches(&other), t == other);
    }
}

/// `{{ e, * }}` (bag-containing) matches iff some element matches `e`,
/// and matching implies compatibility.
#[test]
fn bag_containing_matches_iff_element_matches() {
    let mut rng = StdRng::seed_from_u64(0x6261_676e);
    for _ in 0..CASES {
        let bag = small_bag(&mut rng);
        let needle = flat_tuple(&mut rng);
        let nip = Nip::bag_containing(Nip::Value(needle.clone()));
        let value = Value::from_bag(bag.clone());
        let expected = bag.iter().any(|(v, _)| v == &needle);
        assert_eq!(nip.matches(&value), expected);
        if nip.matches(&value) {
            assert!(nip.compatible(&value));
        }
    }
}

/// The tree distance is a pseudo-metric on the values we generate:
/// identity, symmetry, and the triangle inequality hold.
#[test]
fn tree_distance_is_a_metric() {
    let mut rng = StdRng::seed_from_u64(0x7472_6565);
    for _ in 0..CASES {
        let a = flat_tuple(&mut rng);
        let b = flat_tuple(&mut rng);
        let c = flat_tuple(&mut rng);
        assert_eq!(tree_distance(&a, &a), 0);
        assert_eq!(tree_distance(&a, &b), tree_distance(&b, &a));
        assert!(tree_distance(&a, &c) <= tree_distance(&a, &b) + tree_distance(&b, &c));
        if a == b {
            assert_eq!(tree_distance(&a, &b), 0);
        }
    }
}

/// A tuple over a wider schema with the fields supplied in random order,
/// exercising the name-based (order-insensitive) equivalence classes.
fn shuffled_tuple(rng: &mut StdRng) -> (Value, Value) {
    let fields: Vec<(&str, Value)> = vec![
        ("delta", primitive(rng)),
        ("alpha", primitive(rng)),
        ("charlie", primitive(rng)),
        ("bravo", primitive(rng)),
    ];
    let mut shuffled = fields.clone();
    // Fisher–Yates with the deterministic PRNG.
    for i in (1..shuffled.len()).rev() {
        let j = rng.gen_range(0..=i);
        shuffled.swap(i, j);
    }
    (Value::tuple(fields), Value::tuple(shuffled))
}

/// Interning preserves name-based `Eq`/`Ord`/`Hash` for tuples: two tuples
/// with the same name→value mapping are equal with equal hashes regardless of
/// field order, and the order between random tuples agrees with comparing
/// their name-sorted `(name as string, value)` pairs — the reference semantics
/// of the previous `String`-keyed representation.
#[test]
fn interned_tuples_are_observation_equivalent_to_string_tuples() {
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};
    let hash_of = |v: &Value| {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    };
    let reference_key = |v: &Value| -> Vec<(String, Value)> {
        let mut fields: Vec<(String, Value)> = v
            .as_tuple()
            .unwrap()
            .fields()
            .iter()
            .map(|(n, val)| (n.as_str().to_string(), val.clone()))
            .collect();
        fields.sort_by(|a, b| a.0.cmp(&b.0));
        fields
    };
    let mut rng = StdRng::seed_from_u64(0x7379_6d65);
    for _ in 0..CASES {
        let (a, a_shuffled) = shuffled_tuple(&mut rng);
        let (b, _) = shuffled_tuple(&mut rng);
        // Field order is irrelevant for equality and hashing.
        assert_eq!(a, a_shuffled);
        assert_eq!(hash_of(&a), hash_of(&a_shuffled));
        // The total order matches the string-keyed reference order.
        let reference = reference_key(&a).cmp(&reference_key(&b));
        assert_eq!(a.cmp(&b), reference, "a={a} b={b}");
        assert_eq!(b.cmp(&a), reference.reverse());
    }
}

/// `BagBuilder::finish` produces the identical canonical entry sequence as
/// repeated `Bag::insert`, including merged multiplicities.
#[test]
fn bag_builder_is_equivalent_to_repeated_insert() {
    use nested_data::BagBuilder;
    let mut rng = StdRng::seed_from_u64(0x6275_696c);
    for _ in 0..CASES {
        let n = rng.gen_range(0..20usize);
        let entries: Vec<(Value, u64)> = (0..n)
            .map(|_| {
                let v = if rng.gen_bool(0.3) { primitive(&mut rng) } else { flat_tuple(&mut rng) };
                (v, rng.gen_range(0..3u64))
            })
            .collect();
        let mut via_insert = Bag::new();
        for (v, m) in &entries {
            via_insert.insert(v.clone(), *m);
        }
        let mut builder = BagBuilder::new();
        for (v, m) in &entries {
            builder.add(v.clone(), *m);
        }
        let via_builder = builder.finish();
        assert_eq!(via_builder, via_insert);
        // Entry *order* is identical, not just multiset equality.
        assert_eq!(via_builder.into_entries(), via_insert.into_entries());
    }
}

/// Structural sharing is semantically invisible: a value cloned (shared) many
/// times compares, hashes, and renders exactly like an independently rebuilt
/// deep copy.
#[test]
fn shared_values_are_indistinguishable_from_deep_copies() {
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};
    let mut rng = StdRng::seed_from_u64(0x7368_6172);
    for _ in 0..CASES {
        let inner = flat_tuple(&mut rng);
        // Shared: the same Arc twice. Rebuilt: structurally equal deep copies.
        let shared = Value::bag([inner.clone(), inner.clone()]);
        let rebuilt = Value::bag([
            Value::tuple(inner.as_tuple().unwrap().fields().iter().map(|(n, v)| (*n, v.clone()))),
            Value::tuple(inner.as_tuple().unwrap().fields().iter().map(|(n, v)| (*n, v.clone()))),
        ]);
        assert_eq!(shared, rebuilt);
        assert_eq!(shared.cmp(&rebuilt), std::cmp::Ordering::Equal);
        let hash_of = |v: &Value| {
            let mut h = DefaultHasher::new();
            v.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash_of(&shared), hash_of(&rebuilt));
        assert_eq!(shared.to_string(), rebuilt.to_string());
        assert_eq!(shared.node_count(), rebuilt.node_count());
    }
}
