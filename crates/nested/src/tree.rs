//! Tree views of nested values and the distance function `d` of Definition 9.
//!
//! Figure 2 of the paper depicts nested relations as unordered, labeled trees:
//! tuples become `⟨⟩` nodes whose children are their attributes, nested
//! relations become `{{}}` nodes whose children are their element tuples, and
//! primitive attributes become leaves labeled `attr: value`.
//!
//! The paper proposes the *tree edit distance for unordered trees* as the
//! side-effect metric, noting that it is NP-hard in general. We implement the
//! *constrained* edit distance (descendants must stay descendants, i.e. child
//! forests are matched one-to-one), which is polynomial, upper-bounds the
//! unconstrained distance, and coincides with it for the kinds of edits that
//! reparameterizations of NRAB operators induce (adding/removing/relabeling
//! whole subtrees). The heuristic explanation pipeline never computes this
//! distance — it uses the loose counting bounds of Section 5.4 — but the exact
//! MSR checker and several tests do.

use std::collections::BTreeMap;

use crate::bag::Bag;
use crate::value::Value;

/// Maximum number of children considered per bag node when building a tree
/// view; larger bags are truncated (with a synthetic `…` child standing in
/// for the remaining elements) to keep the cubic matching step tractable.
const MAX_BAG_CHILDREN: usize = 64;

/// An unordered, labeled tree view of a nested value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValueTree {
    /// Node label (e.g. `⟨⟩`, `{{}}`, or `city: NY`).
    pub label: String,
    /// Child subtrees (order is irrelevant for the distance).
    pub children: Vec<ValueTree>,
}

impl ValueTree {
    /// Builds the tree view of a value.
    pub fn from_value(value: &Value) -> ValueTree {
        match value {
            Value::Tuple(t) => ValueTree {
                label: "⟨⟩".to_string(),
                children: t
                    .fields()
                    .map(|(name, v)| match v {
                        Value::Tuple(_) | Value::Bag(_) => ValueTree {
                            label: name.as_str().to_string(),
                            children: vec![ValueTree::from_value(v)],
                        },
                        primitive => ValueTree {
                            label: format!("{name}: {primitive}"),
                            children: Vec::new(),
                        },
                    })
                    .collect(),
            },
            Value::Bag(bag) => ValueTree { label: "{{}}".to_string(), children: bag_children(bag) },
            primitive => ValueTree { label: primitive.to_string(), children: Vec::new() },
        }
    }

    /// Number of nodes in the tree (used as insertion/deletion cost).
    pub fn size(&self) -> u64 {
        1 + self.children.iter().map(ValueTree::size).sum::<u64>()
    }
}

fn bag_children(bag: &Bag) -> Vec<ValueTree> {
    let mut children = Vec::new();
    let mut truncated: u64 = 0;
    'outer: for (v, m) in bag.iter() {
        for _ in 0..*m {
            if children.len() >= MAX_BAG_CHILDREN {
                truncated += bag.total() - children.len() as u64;
                break 'outer;
            }
            children.push(ValueTree::from_value(v));
        }
    }
    if truncated > 0 {
        children.push(ValueTree { label: format!("…({truncated} more)"), children: Vec::new() });
    }
    children
}

/// The distance `d` between two nested values: constrained unordered tree
/// edit distance with unit relabeling cost and subtree-size
/// insertion/deletion costs.
pub fn tree_distance(a: &Value, b: &Value) -> u64 {
    let ta = ValueTree::from_value(a);
    let tb = ValueTree::from_value(b);
    tree_edit_distance(&ta, &tb)
}

/// Constrained unordered tree edit distance between two [`ValueTree`]s.
pub fn tree_edit_distance(a: &ValueTree, b: &ValueTree) -> u64 {
    let relabel = if a.label == b.label { 0 } else { 1 };
    relabel + forest_distance(&a.children, &b.children)
}

/// Minimum-cost matching between two child forests: each child of `a` is
/// either matched to a distinct child of `b` (cost = recursive distance) or
/// deleted (cost = its size); unmatched children of `b` are inserted
/// (cost = their size).
fn forest_distance(a: &[ValueTree], b: &[ValueTree]) -> u64 {
    if a.is_empty() {
        return b.iter().map(ValueTree::size).sum();
    }
    if b.is_empty() {
        return a.iter().map(ValueTree::size).sum();
    }
    let n = a.len();
    let m = b.len();
    let dim = n + m;
    const INF: u64 = u64::MAX / 4;
    // Square cost matrix: real node i matched to real node j, or to its own
    // "deletion slot" (i, m + i); insertion slots (n + j, j); the bottom-right
    // block is free (dummy-dummy pairings).
    let mut cost = vec![vec![INF; dim]; dim];
    for (i, ai) in a.iter().enumerate() {
        for (j, bj) in b.iter().enumerate() {
            cost[i][j] = tree_edit_distance(ai, bj);
        }
        cost[i][m + i] = ai.size();
    }
    for (j, bj) in b.iter().enumerate() {
        cost[n + j][j] = bj.size();
    }
    for row in cost.iter_mut().skip(n) {
        for cell in row.iter_mut().skip(m) {
            *cell = 0;
        }
    }
    hungarian_min_cost(&cost)
}

/// Hungarian algorithm (Jonker–Volgenant style O(n³) with potentials) for a
/// square cost matrix. Returns the minimum total assignment cost.
fn hungarian_min_cost(cost: &[Vec<u64>]) -> u64 {
    let n = cost.len();
    if n == 0 {
        return 0;
    }
    const INF: i128 = i128::MAX / 4;
    // 1-indexed potentials and matching, standard formulation.
    let mut u = vec![0i128; n + 1];
    let mut v = vec![0i128; n + 1];
    let mut p = vec![0usize; n + 1]; // p[j] = row matched to column j
    let mut way = vec![0usize; n + 1];
    for i in 1..=n {
        p[0] = i;
        let mut j0 = 0usize;
        let mut minv = vec![INF; n + 1];
        let mut used = vec![false; n + 1];
        loop {
            used[j0] = true;
            let i0 = p[j0];
            let mut delta = INF;
            let mut j1 = 0usize;
            for j in 1..=n {
                if used[j] {
                    continue;
                }
                let cur = cost[i0 - 1][j - 1] as i128 - u[i0] - v[j];
                if cur < minv[j] {
                    minv[j] = cur;
                    way[j] = j0;
                }
                if minv[j] < delta {
                    delta = minv[j];
                    j1 = j;
                }
            }
            for j in 0..=n {
                if used[j] {
                    u[p[j]] += delta;
                    v[j] -= delta;
                } else {
                    minv[j] -= delta;
                }
            }
            j0 = j1;
            if p[j0] == 0 {
                break;
            }
        }
        loop {
            let j1 = way[j0];
            p[j0] = p[j1];
            j0 = j1;
            if j0 == 0 {
                break;
            }
        }
    }
    let mut total: u64 = 0;
    for j in 1..=n {
        if p[j] != 0 {
            total += cost[p[j] - 1][j - 1];
        }
    }
    total
}

/// A cheap, coarse distance between two *relations* (top-level bags): the
/// number of top-level tuples that appear in exactly one of the two, weighted
/// by multiplicity. This is the `Δ⁺ + Δ⁻` count the side-effect bounds of
/// Section 5.4 reason about, and is usable on relations far too large for the
/// tree edit distance.
pub fn relation_symmetric_difference(a: &Bag, b: &Bag) -> u64 {
    // `Value` only carries interior mutability in its lazily cached
    // structural hash, which never changes its `Eq`/`Ord` identity.
    #[allow(clippy::mutable_key_type)]
    let mut keys: BTreeMap<&Value, (u64, u64)> = BTreeMap::new();
    for (v, m) in a.iter() {
        keys.entry(v).or_default().0 += m;
    }
    for (v, m) in b.iter() {
        keys.entry(v).or_default().1 += m;
    }
    keys.values().map(|(x, y)| x.abs_diff(*y)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn city_tuple(city: &str, names: &[&str]) -> Value {
        Value::tuple([
            ("city", Value::str(city)),
            ("nList", Value::bag(names.iter().map(|n| Value::tuple([("name", Value::str(*n))])))),
        ])
    }

    #[test]
    fn identical_values_have_zero_distance() {
        let v = city_tuple("LA", &["Sue", "Peter"]);
        assert_eq!(tree_distance(&v, &v), 0);
    }

    #[test]
    fn leaf_relabel_costs_one() {
        let a = Value::str("LA");
        let b = Value::str("NY");
        assert_eq!(tree_distance(&a, &b), 1);
        assert_eq!(tree_distance(&a, &a), 0);
    }

    #[test]
    fn figure_2_t2_is_farther_from_t1_than_t3() {
        // T1: {{⟨LA, {Sue}⟩}}
        // T2 (SRσ):  {{⟨LA, {Sue}⟩, ⟨NY, {Sue}⟩, ⟨SF, {Peter}⟩}}   — a whole extra tuple vs T3
        // T3 (SRFσ): {{⟨LA, {Sue, Peter}⟩, ⟨NY, {Sue}⟩}}
        let t1 = Value::bag([city_tuple("LA", &["Sue"])]);
        let t2 = Value::bag([
            city_tuple("LA", &["Sue"]),
            city_tuple("NY", &["Sue"]),
            city_tuple("SF", &["Peter"]),
        ]);
        let t3 = Value::bag([city_tuple("LA", &["Sue", "Peter"]), city_tuple("NY", &["Sue"])]);
        let d12 = tree_distance(&t1, &t2);
        let d13 = tree_distance(&t1, &t3);
        assert!(d12 > d13, "d(T1,T2)={d12} should exceed d(T1,T3)={d13}");
    }

    #[test]
    fn insertion_cost_equals_subtree_size() {
        let empty = Value::bag([]);
        let one = Value::bag([city_tuple("NY", &["Sue"])]);
        // tuple node + city leaf + nList node + bag node + name leaf... count via node structure
        let tree = ValueTree::from_value(&city_tuple("NY", &["Sue"]));
        assert_eq!(tree_distance(&empty, &one), tree.size());
    }

    #[test]
    fn unordered_matching_ignores_element_order() {
        let a = Value::bag([city_tuple("LA", &["Sue"]), city_tuple("NY", &["Peter"])]);
        let b = Value::bag([city_tuple("NY", &["Peter"]), city_tuple("LA", &["Sue"])]);
        assert_eq!(tree_distance(&a, &b), 0);
    }

    #[test]
    fn hungarian_solves_small_assignment() {
        // Classic 3x3 example: optimal assignment cost 5 (1+2+2).
        let cost = vec![vec![4, 1, 3], vec![2, 0, 5], vec![3, 2, 2]];
        assert_eq!(hungarian_min_cost(&cost), 5);
        assert_eq!(hungarian_min_cost(&[]), 0);
    }

    #[test]
    fn relation_symmetric_difference_counts_changes() {
        let a = Bag::from_values([Value::int(1), Value::int(2)]);
        let b = Bag::from_values([Value::int(2), Value::int(3), Value::int(3)]);
        // 1 removed, two 3s added
        assert_eq!(relation_symmetric_difference(&a, &b), 3);
        assert_eq!(relation_symmetric_difference(&a, &a), 0);
    }

    #[test]
    fn large_bags_are_truncated_not_exploded() {
        let big = Value::bag((0..500).map(Value::int));
        let tree = ValueTree::from_value(&big);
        assert!(tree.children.len() <= MAX_BAG_CHILDREN + 1);
        // Distance computation still terminates quickly.
        let other = Value::bag((0..500).map(|i| Value::int(i + 1)));
        let _ = tree_distance(&big, &other);
    }
}
