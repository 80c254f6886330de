//! Nested instances with placeholders (NIPs) and the matching relation `≃`.
//!
//! A NIP (Definition 3) is a nested instance in which
//!
//! * the *instance placeholder* `?` ([`Nip::Any`]) may stand in for any value
//!   of the expected type, and
//! * the *multiplicity placeholder* `*` ([`Nip::Star`]) may appear (at most
//!   once) as an element of a nested relation and stands in for zero or more
//!   tuples of the relation's tuple type.
//!
//! Matching (Definition 4) is structural for primitives and tuples; for bags it
//! requires an *assignment* of instance tuples (with multiplicities) to NIP
//! entries such that every instance tuple is fully assigned (4b), every
//! non-`*` entry receives exactly its own multiplicity (4c), and assignments
//! only pair equal values, `?`, or `*` (4a). We generalize bag entries from
//! "fully specified tuple, `?`, or `*`" to arbitrary NIPs, which is needed when
//! schema backtracing pushes partially-specified constraints (e.g.
//! `⟨city: NY, year: ?⟩`) below nesting operators; the paper's entries are the
//! special case. Feasibility of the assignment is decided with a small
//! max-flow computation.

use std::fmt;

use crate::error::{DataError, DataResult};
use crate::path::AttrPath;
use crate::sym::Sym;
use crate::types::{NestedType, TupleType};
use crate::value::Value;

/// A comparison constraint usable as a NIP leaf.
///
/// Strict NIPs per Definition 3 only contain values and placeholders, but the
/// paper's evaluation poses why-not questions such as `⟨avgDisc: > 0.45, ?⟩`
/// or `⟨revenue: > 0⟩` (Table 9); [`NipCmp`] captures these bounded leaves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum NipCmp {
    /// Strictly less than the bound.
    Lt,
    /// Less than or equal to the bound.
    Le,
    /// Strictly greater than the bound.
    Gt,
    /// Greater than or equal to the bound.
    Ge,
    /// Different from the bound.
    Ne,
}

impl NipCmp {
    /// Applies the comparison `value ⋄ bound`, numerically when possible.
    ///
    /// As a special case, `≠ ⊥` acts as a *not-null* test (used by schema
    /// backtracing to require that an attribute contributes an actual value to
    /// an aggregate or computed column).
    pub fn apply(self, value: &Value, bound: &Value) -> bool {
        if bound.is_null() {
            return self == NipCmp::Ne && !value.is_null();
        }
        if value.is_null() {
            return false;
        }
        let ord = match (value.as_float(), bound.as_float()) {
            (Some(a), Some(b)) => a.partial_cmp(&b),
            _ => Some(value.cmp(bound)),
        };
        let Some(ord) = ord else { return false };
        match self {
            NipCmp::Lt => ord == std::cmp::Ordering::Less,
            NipCmp::Le => ord != std::cmp::Ordering::Greater,
            NipCmp::Gt => ord == std::cmp::Ordering::Greater,
            NipCmp::Ge => ord != std::cmp::Ordering::Less,
            NipCmp::Ne => ord != std::cmp::Ordering::Equal,
        }
    }
}

impl fmt::Display for NipCmp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            NipCmp::Lt => "<",
            NipCmp::Le => "≤",
            NipCmp::Gt => ">",
            NipCmp::Ge => "≥",
            NipCmp::Ne => "≠",
        };
        write!(f, "{s}")
    }
}

/// A nested instance with placeholders.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Nip {
    /// The instance placeholder `?`: matches any value.
    Any,
    /// The multiplicity placeholder `*`: matches zero or more tuples of a
    /// nested relation. Only valid directly inside [`Nip::Bag`].
    Star,
    /// A fully specified value (matched by equality).
    Value(Value),
    /// A bounded leaf: matches any value satisfying `value ⋄ bound`.
    Pred(NipCmp, Value),
    /// A tuple whose attributes are themselves NIPs.
    Tuple(Vec<(Sym, Nip)>),
    /// A nested relation whose elements are NIPs (at most one `*`).
    Bag(Vec<Nip>),
}

impl Nip {
    /// Shorthand for an exact-value NIP.
    pub fn val(v: impl Into<Value>) -> Nip {
        Nip::Value(v.into())
    }

    /// Shorthand for a bounded leaf, e.g. `Nip::pred(NipCmp::Gt, 0i64)` for `> 0`.
    pub fn pred(op: NipCmp, bound: impl Into<Value>) -> Nip {
        Nip::Pred(op, bound.into())
    }

    /// Builds a tuple NIP from `(name, nip)` pairs.
    pub fn tuple<I, S>(fields: I) -> Nip
    where
        I: IntoIterator<Item = (S, Nip)>,
        S: Into<Sym>,
    {
        Nip::Tuple(fields.into_iter().map(|(n, v)| (n.into(), v)).collect())
    }

    /// Builds a bag NIP from element NIPs.
    pub fn bag<I>(elements: I) -> Nip
    where
        I: IntoIterator<Item = Nip>,
    {
        Nip::Bag(elements.into_iter().collect())
    }

    /// A bag NIP `{{ element, * }}`: "contains at least one element matching
    /// `element`" — the most common shape produced by schema backtracing.
    pub fn bag_containing(element: Nip) -> Nip {
        Nip::Bag(vec![element, Nip::Star])
    }

    /// An all-`?` tuple NIP over the attributes of `ty` — the "unconstrained"
    /// NIP that matches every tuple of that type.
    pub fn any_for_tuple_type(ty: &TupleType) -> Nip {
        Nip::Tuple(ty.fields().iter().map(|(name, _)| (*name, Nip::Any)).collect())
    }

    /// Validates the structural constraints of Definition 3: `*` may only
    /// appear directly inside a bag, and each bag contains at most one `*`.
    pub fn validate(&self) -> DataResult<()> {
        self.validate_inner(false)
    }

    fn validate_inner(&self, inside_bag: bool) -> DataResult<()> {
        match self {
            Nip::Star => {
                if inside_bag {
                    Ok(())
                } else {
                    Err(DataError::InvalidNip(
                        "`*` may only appear inside a nested relation".into(),
                    ))
                }
            }
            Nip::Any | Nip::Value(_) | Nip::Pred(..) => Ok(()),
            Nip::Tuple(fields) => {
                for (_, nip) in fields {
                    nip.validate_inner(false)?;
                }
                Ok(())
            }
            Nip::Bag(elements) => {
                let stars = elements.iter().filter(|e| matches!(e, Nip::Star)).count();
                if stars > 1 {
                    return Err(DataError::InvalidNip(
                        "a nested relation NIP may contain at most one `*`".into(),
                    ));
                }
                for e in elements {
                    if !matches!(e, Nip::Star) {
                        e.validate_inner(false)?;
                    }
                }
                Ok(())
            }
        }
    }

    /// Whether this NIP is completely unconstrained (matches every value of
    /// the right shape): `?`, a tuple of unconstrained NIPs, or `{{ * }}`.
    pub fn is_unconstrained(&self) -> bool {
        match self {
            Nip::Any => true,
            Nip::Star => true,
            Nip::Value(_) | Nip::Pred(..) => false,
            Nip::Tuple(fields) => fields.iter().all(|(_, n)| n.is_unconstrained()),
            Nip::Bag(elements) => elements.iter().all(|e| matches!(e, Nip::Star)),
        }
    }

    /// Access a field of a tuple NIP.
    pub fn field(&self, name: impl Into<Sym>) -> Option<&Nip> {
        let sym = name.into();
        match self {
            Nip::Tuple(fields) => fields.iter().find(|(n, _)| *n == sym).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Returns a copy of a tuple NIP with field `name` replaced (or added).
    pub fn with_field(&self, name: impl Into<Sym>, nip: Nip) -> Nip {
        let name = name.into();
        match self {
            Nip::Tuple(fields) => {
                let mut fields = fields.clone();
                if let Some(slot) = fields.iter_mut().find(|(n, _)| *n == name) {
                    slot.1 = nip;
                } else {
                    fields.push((name, nip));
                }
                Nip::Tuple(fields)
            }
            _ => Nip::Tuple(vec![(name, nip)]),
        }
    }

    /// Constrains the NIP at `path` (interpreted against the tuple type
    /// `schema`) to `leaf`.
    ///
    /// Navigation through a relation-typed attribute introduces a
    /// `{{ element, * }}` bag NIP ("contains at least one element ..."), and
    /// repeated constraints into the same relation refine the *same* element
    /// NIP, so that `address2.city = NY` and `address2.year = 2019` together
    /// require one nested tuple with both properties (cf. Example 7).
    pub fn constrain(&self, path: &AttrPath, leaf: Nip, schema: &TupleType) -> DataResult<Nip> {
        if path.is_empty() {
            return Ok(leaf);
        }
        let head = path.head().expect("non-empty path");
        let attr_ty = schema.attribute_required(head)?;
        let base = match self {
            Nip::Tuple(_) => self.clone(),
            _ => Nip::any_for_tuple_type(schema),
        };
        let existing = base.field(head).cloned().unwrap_or(Nip::Any);
        let rest = path.tail();
        let new_field = match attr_ty {
            NestedType::Prim(_) => {
                if !rest.is_empty() {
                    return Err(DataError::PathMismatch {
                        path: path.to_string(),
                        found: "primitive attribute".into(),
                    });
                }
                leaf
            }
            NestedType::Tuple(inner_ty) => {
                if rest.is_empty() {
                    leaf
                } else {
                    let inner = match existing {
                        Nip::Tuple(_) => existing,
                        _ => Nip::any_for_tuple_type(inner_ty),
                    };
                    inner.constrain(&rest, leaf, inner_ty)?
                }
            }
            NestedType::Relation(inner_ty) => {
                if rest.is_empty() {
                    leaf
                } else {
                    // Reuse the existing constrained element if there is one;
                    // the pushed-down NIP always keeps a trailing `*`
                    // ("contains at least one matching element").
                    let element = match existing {
                        Nip::Bag(mut elements) => {
                            elements.retain(|e| !matches!(e, Nip::Star));
                            elements
                                .into_iter()
                                .next()
                                .unwrap_or_else(|| Nip::any_for_tuple_type(inner_ty))
                        }
                        _ => Nip::any_for_tuple_type(inner_ty),
                    };
                    let constrained = element.constrain(&rest, leaf, inner_ty)?;
                    Nip::Bag(vec![constrained, Nip::Star])
                }
            }
        };
        Ok(base.with_field(head, new_field))
    }

    /// The matching relation `I ≃ I'` of Definition 4: does `value` match this
    /// NIP?
    pub fn matches(&self, value: &Value) -> bool {
        match self {
            Nip::Any => true,
            // `*` outside of bag-assignment context behaves like "zero or more
            // tuples", which any value trivially satisfies only when matched
            // as part of a bag; standalone it matches nothing but a bag.
            Nip::Star => matches!(value, Value::Bag(_)),
            Nip::Value(v) => v == value,
            Nip::Pred(op, bound) => op.apply(value, bound),
            Nip::Tuple(fields) => match value {
                Value::Tuple(t) => fields.iter().all(|(name, nip)| match t.get(*name) {
                    Some(v) => nip.matches(v),
                    None => false,
                }),
                Value::Null => false,
                _ => false,
            },
            Nip::Bag(entries) => match value {
                Value::Bag(bag) => bag_matches(bag, entries),
                _ => false,
            },
        }
    }

    /// Whether `value` could *contribute* to a match of this NIP: like
    /// [`Nip::matches`], but bag NIPs are satisfied as soon as the listed
    /// entries can be covered, even if the instance has additional tuples and
    /// no `*` is present, and missing tuple attributes are ignored. Used for
    /// compatibility checks on *input* tuples, where the rest of the query may
    /// still remove or restructure the extra data.
    pub fn compatible(&self, value: &Value) -> bool {
        match self {
            Nip::Any | Nip::Star => true,
            Nip::Value(v) => v == value,
            Nip::Pred(op, bound) => op.apply(value, bound),
            Nip::Tuple(fields) => match value {
                Value::Tuple(t) => fields.iter().all(|(name, nip)| match t.get(*name) {
                    Some(v) => nip.compatible(v),
                    None => true,
                }),
                _ => false,
            },
            Nip::Bag(entries) => match value {
                Value::Bag(bag) => entries
                    .iter()
                    .filter(|e| !matches!(e, Nip::Star))
                    .all(|entry| bag.iter().any(|(v, _)| entry.compatible(v))),
                _ => false,
            },
        }
    }

    /// Whether this NIP is a valid NIP of type `ty` (shape check).
    pub fn conforms_to(&self, ty: &NestedType) -> bool {
        match (self, ty) {
            (Nip::Any, _) => true,
            (Nip::Star, NestedType::Relation(_)) => true,
            (Nip::Star, _) => false,
            (Nip::Value(v), _) => v.conforms_to(ty),
            (Nip::Pred(_, v), _) => v.conforms_to(ty) || matches!(ty, NestedType::Prim(_)),
            (Nip::Tuple(fields), NestedType::Tuple(tt)) => fields.iter().all(|(name, nip)| {
                tt.attribute(*name).map(|t| nip.conforms_to(t)).unwrap_or(false)
            }),
            (Nip::Bag(elements), NestedType::Relation(tt)) => elements.iter().all(|e| match e {
                Nip::Star => true,
                other => other.conforms_to(&NestedType::Tuple(tt.clone())),
            }),
            _ => false,
        }
    }
}

/// Decides whether a bag instance matches a list of NIP entries via the
/// assignment semantics of Definition 4 (condition 4): a feasibility problem
/// solved with max-flow on a small bipartite network.
fn bag_matches(bag: &crate::bag::Bag, entries: &[Nip]) -> bool {
    let star_present = entries.iter().any(|e| matches!(e, Nip::Star));
    let demands: Vec<&Nip> = entries.iter().filter(|e| !matches!(e, Nip::Star)).collect();
    let total_supply: u64 = bag.iter().map(|(_, m)| *m).sum();
    let total_demand = demands.len() as u64;

    // Condition 4b: every instance tuple must be assigned. Without `*`, the
    // only sinks are the explicit entries, so the totals must agree.
    if !star_present && total_supply != total_demand {
        return false;
    }
    if total_demand == 0 {
        // Only `*` (or nothing): feasible iff the bag is empty or `*` absorbs it.
        return star_present || total_supply == 0;
    }
    if let [demand] = demands[..] {
        // One entry (`{{e, *}}`, the common pushed-down shape): feasible iff
        // some instance value matches it; no assignment search needed.
        return bag.iter().any(|(v, m)| *m > 0 && demand.matches(v));
    }

    // Bipartite matching with supply capacities: each demand entry (capacity
    // 1) must be matched to a supply value whose multiplicity is not yet
    // exhausted and which the entry NIP matches; `*` absorbs leftovers and
    // needs no node. This is Kuhn's augmenting-path algorithm, run from the
    // demand side, with supplies of capacity `mult`.
    let supplies: Vec<(&Value, u64)> = bag.iter().map(|(v, m)| (v, *m)).collect();
    let n_sup = supplies.len();
    let n_dem = demands.len();
    // adjacency: demand j -> supplies i whose value matches the entry NIP
    let mut edges: Vec<Vec<usize>> = vec![Vec::new(); n_dem];
    for (j, entry) in demands.iter().enumerate() {
        for (i, (value, _)) in supplies.iter().enumerate() {
            if entry.matches(value) {
                edges[j].push(i);
            }
        }
    }

    let capacity: Vec<u64> = supplies.iter().map(|(_, m)| *m).collect();
    // For each supply, the list of demands currently assigned to it.
    let mut assigned_to: Vec<Vec<usize>> = vec![Vec::new(); n_sup];
    // For each demand, the supply it is assigned to (if any).
    let mut assignment: Vec<Option<usize>> = vec![None; n_dem];

    fn try_assign(
        j: usize,
        edges: &[Vec<usize>],
        capacity: &[u64],
        assigned_to: &mut Vec<Vec<usize>>,
        assignment: &mut Vec<Option<usize>>,
        visited: &mut Vec<bool>,
    ) -> bool {
        for &i in &edges[j] {
            if visited[i] {
                continue;
            }
            visited[i] = true;
            if (assigned_to[i].len() as u64) < capacity[i] {
                assigned_to[i].push(j);
                assignment[j] = Some(i);
                return true;
            }
            // Supply i is full: try to move one of its demands elsewhere.
            let current: Vec<usize> = assigned_to[i].clone();
            for j2 in current {
                if try_assign(j2, edges, capacity, assigned_to, assignment, visited) {
                    // j2 moved to another supply; re-point bookkeeping.
                    assigned_to[i].retain(|&x| x != j2);
                    assigned_to[i].push(j);
                    assignment[j] = Some(i);
                    return true;
                }
            }
        }
        false
    }

    let mut matched = 0u64;
    for j in 0..n_dem {
        let mut visited = vec![false; n_sup];
        if try_assign(j, &edges, &capacity, &mut assigned_to, &mut assignment, &mut visited) {
            matched += 1;
        }
    }

    matched == total_demand
}

impl fmt::Display for Nip {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Nip::Any => write!(f, "?"),
            Nip::Star => write!(f, "*"),
            Nip::Value(v) => write!(f, "{v}"),
            Nip::Pred(op, bound) => write!(f, "{op} {bound}"),
            Nip::Tuple(fields) => {
                write!(f, "⟨")?;
                for (i, (name, nip)) in fields.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{name}: {nip}")?;
                }
                write!(f, "⟩")
            }
            Nip::Bag(elements) => {
                write!(f, "{{{{")?;
                for (i, nip) in elements.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{nip}")?;
                }
                write!(f, "}}}}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::NestedType;

    fn name_tuple(name: &str) -> Value {
        Value::tuple([("name", Value::str(name))])
    }

    /// The output tuple of the running example: ⟨city: NY, nList: {{Sue², Peter}}⟩.
    fn example_output_tuple() -> Value {
        Value::from_tuple(crate::tuple::Tuple::new([
            ("city", Value::str("NY")),
            (
                "nList",
                Value::from_bag(crate::bag::Bag::from_entries([
                    (name_tuple("Sue"), 2),
                    (name_tuple("Peter"), 1),
                ])),
            ),
        ]))
    }

    #[test]
    fn example_6_star_versus_two_any() {
        // t_ex = ⟨city: NY, nList: {{?, *}}⟩ matches, t'_ex = ⟨city: NY, nList: {{?, ?}}⟩ does not.
        let t_ex =
            Nip::tuple([("city", Nip::val("NY")), ("nList", Nip::bag([Nip::Any, Nip::Star]))]);
        let t_ex2 =
            Nip::tuple([("city", Nip::val("NY")), ("nList", Nip::bag([Nip::Any, Nip::Any]))]);
        let value = example_output_tuple();
        assert!(t_ex.matches(&value));
        assert!(!t_ex2.matches(&value));
    }

    #[test]
    fn example_7_matching_nested_input_tuple() {
        // Sue's tuple from Figure 1a matches
        // ⟨Name: Sue, address1: ?, address2: {{⟨city: ?, year: 2019⟩, *}}⟩.
        let sue = Value::tuple([
            ("name", Value::str("Sue")),
            (
                "address1",
                Value::bag([
                    Value::tuple([("city", Value::str("LA")), ("year", Value::int(2010))]),
                    Value::tuple([("city", Value::str("SF")), ("year", Value::int(2018))]),
                ]),
            ),
            (
                "address2",
                Value::bag([
                    Value::tuple([("city", Value::str("LA")), ("year", Value::int(2019))]),
                    Value::tuple([("city", Value::str("NY")), ("year", Value::int(2018))]),
                ]),
            ),
        ]);
        let nip = Nip::tuple([
            ("name", Nip::val("Sue")),
            ("address1", Nip::Any),
            (
                "address2",
                Nip::bag([
                    Nip::tuple([("city", Nip::Any), ("year", Nip::val(Value::int(2019)))]),
                    Nip::Star,
                ]),
            ),
        ]);
        assert!(nip.matches(&sue));
        // Peter's tuple does not match (no address2 entry with year 2019... actually
        // Peter has LA 2019 in address2? In Figure 1a Peter's address2 is
        // {(LA, 2010), (SF, 2018)}; build it accordingly).
        let peter = Value::tuple([
            ("name", Value::str("Peter")),
            ("address1", Value::bag([])),
            (
                "address2",
                Value::bag([
                    Value::tuple([("city", Value::str("LA")), ("year", Value::int(2010))]),
                    Value::tuple([("city", Value::str("SF")), ("year", Value::int(2018))]),
                ]),
            ),
        ]);
        assert!(!nip.matches(&peter));
    }

    #[test]
    fn bag_matching_multiplicities_exact_without_star() {
        // {{1, 1}} matches {{?, ?}} but {{1}} and {{1,1,1}} do not.
        let nip = Nip::bag([Nip::Any, Nip::Any]);
        assert!(nip.matches(&Value::bag([Value::int(1), Value::int(1)])));
        assert!(!nip.matches(&Value::bag([Value::int(1)])));
        assert!(!nip.matches(&Value::bag([Value::int(1), Value::int(1), Value::int(1)])));
    }

    #[test]
    fn single_entry_bags_need_one_matching_element() {
        let one = Value::tuple([("n", Value::int(1))]);
        let two = Value::tuple([("n", Value::int(2))]);
        let with_star = Nip::bag([Nip::val(one.clone()), Nip::Star]);
        assert!(with_star.matches(&Value::bag([two.clone(), one.clone()])));
        assert!(!with_star.matches(&Value::bag([two.clone(), two.clone()])));
        assert!(!with_star.matches(&Value::bag([])));
        let alone = Nip::bag([Nip::val(one.clone())]);
        assert!(alone.matches(&Value::bag([one.clone()])));
        assert!(!alone.matches(&Value::bag([two])));
        assert!(!alone.matches(&Value::bag([one.clone(), one])));
    }

    #[test]
    fn bag_matching_requires_distinct_assignment() {
        // {{⟨n:1⟩, ⟨n:2⟩}} against entries [val ⟨n:1⟩, val ⟨n:1⟩] must fail:
        // the second demand cannot be satisfied.
        let one = Value::tuple([("n", Value::int(1))]);
        let two = Value::tuple([("n", Value::int(2))]);
        let nip = Nip::bag([Nip::val(one.clone()), Nip::val(one.clone())]);
        assert!(!nip.matches(&Value::bag([one.clone(), two.clone()])));
        // But it matches a bag with two copies of ⟨n:1⟩ ... plus star to absorb ⟨n:2⟩.
        let nip_star = Nip::bag([Nip::val(one.clone()), Nip::val(one.clone()), Nip::Star]);
        assert!(nip_star.matches(&Value::bag([one.clone(), one.clone(), two])));
        assert!(!nip_star.matches(&Value::bag([one.clone()])));
    }

    #[test]
    fn rerouting_flow_finds_feasible_assignment() {
        // Entries: [val ⟨n:1⟩, ?]; bag {{⟨n:1⟩, ⟨n:2⟩}}.
        // A greedy assignment of ⟨n:1⟩ to `?` must be rerouted so that the
        // exact entry is still satisfiable.
        let one = Value::tuple([("n", Value::int(1))]);
        let two = Value::tuple([("n", Value::int(2))]);
        let nip = Nip::bag([Nip::Any, Nip::val(one.clone())]);
        assert!(nip.matches(&Value::bag([one, two])));
    }

    #[test]
    fn validation_rules() {
        assert!(Nip::Star.validate().is_err());
        assert!(Nip::tuple([("a", Nip::Star)]).validate().is_err());
        assert!(Nip::bag([Nip::Star, Nip::Star]).validate().is_err());
        assert!(Nip::bag([Nip::Any, Nip::Star]).validate().is_ok());
        assert!(Nip::tuple([("a", Nip::bag([Nip::Star]))]).validate().is_ok());
    }

    #[test]
    fn unconstrained_detection() {
        assert!(Nip::Any.is_unconstrained());
        assert!(Nip::tuple([("a", Nip::Any)]).is_unconstrained());
        assert!(Nip::bag([Nip::Star]).is_unconstrained());
        assert!(!Nip::val("x").is_unconstrained());
        assert!(!Nip::tuple([("a", Nip::val(1i64))]).is_unconstrained());
    }

    #[test]
    fn constrain_builds_nested_nip() {
        let address =
            TupleType::new([("city", NestedType::str()), ("year", NestedType::int())]).unwrap();
        let person = TupleType::new([
            ("name", NestedType::str()),
            ("address1", NestedType::Relation(address.clone())),
            ("address2", NestedType::Relation(address)),
        ])
        .unwrap();
        let nip = Nip::any_for_tuple_type(&person)
            .constrain(&AttrPath::parse("address2.city"), Nip::val("NY"), &person)
            .unwrap();
        // The NIP now requires an address2 element with city NY.
        let rendered = nip.to_string();
        assert!(rendered.contains("NY"));
        assert!(rendered.contains("*"));
        // A second constraint into the same nested relation refines the same element.
        let nip2 = nip
            .constrain(&AttrPath::parse("address2.year"), Nip::val(Value::int(2019)), &person)
            .unwrap();
        let sue_ok = Value::tuple([
            ("name", Value::str("Sue")),
            ("address1", Value::bag([])),
            (
                "address2",
                Value::bag([Value::tuple([
                    ("city", Value::str("NY")),
                    ("year", Value::int(2019)),
                ])]),
            ),
        ]);
        let sue_split = Value::tuple([
            ("name", Value::str("Sue")),
            ("address1", Value::bag([])),
            (
                "address2",
                Value::bag([
                    Value::tuple([("city", Value::str("NY")), ("year", Value::int(2018))]),
                    Value::tuple([("city", Value::str("LA")), ("year", Value::int(2019))]),
                ]),
            ),
        ]);
        assert!(nip2.matches(&sue_ok));
        // Both constraints must hold on the *same* nested tuple.
        assert!(!nip2.matches(&sue_split));
    }

    #[test]
    fn compatibility_is_weaker_than_matching() {
        let nip = Nip::bag([Nip::val(Value::tuple([("n", Value::int(1))]))]);
        let bag = Value::bag([
            Value::tuple([("n", Value::int(1))]),
            Value::tuple([("n", Value::int(2))]),
        ]);
        assert!(!nip.matches(&bag));
        assert!(nip.compatible(&bag));
        // Tuple compatibility ignores missing attributes.
        let tnip = Nip::tuple([("missing", Nip::val(1i64))]);
        assert!(tnip.compatible(&Value::tuple([("other", Value::int(5))])));
        assert!(!tnip.matches(&Value::tuple([("other", Value::int(5))])));
    }

    #[test]
    fn conforms_to_checks_shape() {
        let address =
            TupleType::new([("city", NestedType::str()), ("year", NestedType::int())]).unwrap();
        let rel = NestedType::Relation(address.clone());
        assert!(Nip::Any.conforms_to(&rel));
        assert!(Nip::bag([Nip::Star]).conforms_to(&rel));
        assert!(Nip::bag([Nip::tuple([("city", Nip::val("NY"))]), Nip::Star]).conforms_to(&rel));
        assert!(!Nip::val(3i64).conforms_to(&rel));
        assert!(!Nip::Star.conforms_to(&NestedType::int()));
    }

    #[test]
    fn display_renders_placeholders() {
        let nip =
            Nip::tuple([("city", Nip::val("NY")), ("nList", Nip::bag([Nip::Any, Nip::Star]))]);
        assert_eq!(nip.to_string(), "⟨city: \"NY\", nList: {{?, *}}⟩");
    }
}
