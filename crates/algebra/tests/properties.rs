//! Property-style tests for the NRAB evaluator: algebraic invariants that
//! must hold for every generated database.
//!
//! Inputs are generated with the workspace's deterministic PRNG instead of
//! `proptest` (hermetic builds have no external crates).

use nested_data::{Bag, NestedType, TupleType, Value};
use nrab_algebra::expr::{CmpOp, Expr};
use nrab_algebra::{evaluate, Database, JoinKind, PlanBuilder};
use whynot_rng::{Rng, SeedableRng, StdRng};

const CASES: usize = 60;

fn person_schema() -> TupleType {
    let address =
        TupleType::new([("city", NestedType::str()), ("year", NestedType::int())]).unwrap();
    TupleType::new([("name", NestedType::str()), ("addresses", NestedType::Relation(address))])
        .unwrap()
}

fn address(rng: &mut StdRng) -> Value {
    let city: String = (0..2).map(|_| *rng.choose(&['A', 'B', 'C'])).collect();
    Value::tuple([("city", Value::str(city)), ("year", Value::int(rng.gen_range(2000i64..2025)))])
}

fn person(rng: &mut StdRng) -> Value {
    let name_len = rng.gen_range(1..=4usize);
    let name: String = (0..name_len).map(|_| *rng.choose(&['a', 'b', 'c', 'd', 'e'])).collect();
    let n_addr = rng.gen_range(0..4usize);
    let addresses: Vec<Value> = (0..n_addr).map(|_| address(rng)).collect();
    Value::tuple([("name", Value::str(name)), ("addresses", Value::bag(addresses))])
}

fn database(rng: &mut StdRng) -> Database {
    let n = rng.gen_range(0..8usize);
    let people: Vec<Value> = (0..n).map(|_| person(rng)).collect();
    let mut db = Database::new();
    db.add_relation("person", person_schema(), Bag::from_values(people));
    db
}

/// Selection returns a sub-bag of its input; a tautological selection is
/// the identity and a contradictory one is empty.
#[test]
fn selection_is_a_filter() {
    let mut rng = StdRng::seed_from_u64(0x7365_6c65);
    for _ in 0..CASES {
        let db = database(&mut rng);
        let year = rng.gen_range(2000i64..2025);
        let base = PlanBuilder::table("person").inner_flatten("addresses", None);
        let all = evaluate(&base.clone().build().unwrap(), &db).unwrap();
        let selected = evaluate(
            &base.clone().select(Expr::attr_cmp("year", CmpOp::Ge, year)).build().unwrap(),
            &db,
        )
        .unwrap();
        assert!(selected.total() <= all.total());
        for (v, m) in selected.iter() {
            assert!(*m <= all.mult(v));
        }
        let everything =
            evaluate(&base.clone().select(Expr::lit(true)).build().unwrap(), &db).unwrap();
        assert_eq!(everything, all);
        let nothing = evaluate(&base.select(Expr::lit(false)).build().unwrap(), &db).unwrap();
        assert!(nothing.is_empty());
    }
}

/// Projection preserves the total number of tuples (bag semantics sum
/// multiplicities of collapsing tuples).
#[test]
fn projection_preserves_cardinality() {
    let mut rng = StdRng::seed_from_u64(0x7072_6f6a);
    for _ in 0..CASES {
        let db = database(&mut rng);
        let input = evaluate(&PlanBuilder::table("person").build().unwrap(), &db).unwrap();
        let projected =
            evaluate(&PlanBuilder::table("person").project_attrs(&["name"]).build().unwrap(), &db)
                .unwrap();
        assert_eq!(projected.total(), input.total());
    }
}

/// Outer flatten dominates inner flatten: it returns every inner-flatten
/// tuple plus one padded tuple per input with an empty nested collection.
#[test]
fn outer_flatten_dominates_inner() {
    let mut rng = StdRng::seed_from_u64(0x666c_6174);
    for _ in 0..CASES {
        let db = database(&mut rng);
        let inner = evaluate(
            &PlanBuilder::table("person").inner_flatten("addresses", None).build().unwrap(),
            &db,
        )
        .unwrap();
        let outer = evaluate(
            &PlanBuilder::table("person").outer_flatten("addresses", None).build().unwrap(),
            &db,
        )
        .unwrap();
        assert!(outer.total() >= inner.total());
        for (v, m) in inner.iter() {
            assert!(outer.mult(v) >= *m);
        }
        let empty_persons = evaluate(&PlanBuilder::table("person").build().unwrap(), &db)
            .unwrap()
            .iter_expanded()
            .filter(|p| {
                p.get_path(&"addresses".into())
                    .map(|a| a.as_bag().map(|b| b.is_empty()).unwrap_or(true))
                    .unwrap_or(true)
            })
            .count() as u64;
        assert_eq!(outer.total(), inner.total() + empty_persons);
    }
}

/// Flatten followed by relation nesting on the same attributes returns one
/// tuple per distinct remaining value (grouping invariant).
#[test]
fn nest_after_flatten_groups_by_name() {
    let mut rng = StdRng::seed_from_u64(0x6e65_7374);
    for _ in 0..CASES {
        let db = database(&mut rng);
        let nested = evaluate(
            &PlanBuilder::table("person")
                .inner_flatten("addresses", None)
                .project_attrs(&["name", "city"])
                .relation_nest(vec!["city"], "cities")
                .build()
                .unwrap(),
            &db,
        )
        .unwrap();
        let flat_names = evaluate(
            &PlanBuilder::table("person")
                .inner_flatten("addresses", None)
                .project_attrs(&["name"])
                .dedup()
                .build()
                .unwrap(),
            &db,
        )
        .unwrap();
        assert_eq!(nested.total(), flat_names.total());
    }
}

/// A self equi-join on a key attribute returns at least the "diagonal"
/// (every tuple joins with itself), and the left outer join never returns
/// fewer tuples than the inner join.
#[test]
fn join_variants_are_ordered() {
    let mut rng = StdRng::seed_from_u64(0x6a6f_696e);
    for _ in 0..CASES {
        let db = database(&mut rng);
        let left = PlanBuilder::table("person").project_attrs(&["name"]);
        let right = PlanBuilder::table("person")
            .project(vec![nrab_algebra::ProjColumn::renamed("rname", "name")]);
        let pred = Expr::cmp(Expr::attr("name"), CmpOp::Eq, Expr::attr("rname"));
        let inner = evaluate(
            &left.clone().join(right.clone(), JoinKind::Inner, pred.clone()).build().unwrap(),
            &db,
        )
        .unwrap();
        let outer = evaluate(&left.clone().join(right, JoinKind::Left, pred).build().unwrap(), &db)
            .unwrap();
        let input = evaluate(&left.build().unwrap(), &db).unwrap();
        assert!(outer.total() >= inner.total());
        // Every input tuple survives a left outer self-join in some form.
        assert!(outer.total() >= input.distinct() as u64);
    }
}

/// Union totals add and difference-with-self is empty.
#[test]
fn union_and_difference_laws() {
    let mut rng = StdRng::seed_from_u64(0x756e_696f);
    for _ in 0..CASES {
        let db = database(&mut rng);
        let table = PlanBuilder::table("person");
        let doubled =
            evaluate(&table.clone().union(PlanBuilder::table("person")).build().unwrap(), &db)
                .unwrap();
        let single = evaluate(&table.clone().build().unwrap(), &db).unwrap();
        assert_eq!(doubled.total(), single.total() * 2);
        let empty = evaluate(&table.difference(PlanBuilder::table("person")).build().unwrap(), &db)
            .unwrap();
        assert!(empty.is_empty());
    }
}

/// Two flat relations `r` and `s` of `⟨a, b⟩` rows, where `a` mixes `Int`
/// and `Float` over a small domain (so `2` and `2.0` are one value) and `b`
/// is a short string.
fn flat_database(rng: &mut StdRng) -> Database {
    let schema = TupleType::new([("a", NestedType::float()), ("b", NestedType::str())]).unwrap();
    let mut relation = || {
        let n = rng.gen_range(0..8usize);
        Bag::from_values((0..n).map(|_| {
            let a = rng.gen_range(0i64..4);
            let a = if rng.gen_bool(0.5) { Value::int(a) } else { Value::float(a as f64) };
            Value::tuple([("a", a), ("b", Value::str(*rng.choose(&["x", "y"])))])
        }))
    };
    let (r, s) = (relation(), relation());
    let mut db = Database::new();
    db.add_relation("r", schema.clone(), r);
    db.add_relation("s", schema, s);
    db
}

/// `π_a` of a table: rows that repeat `a` reach the next operator unmerged.
fn projected(table: &str) -> PlanBuilder {
    PlanBuilder::table(table).project_attrs(&["a"])
}

/// Bag union is commutative and its totals add up, also over unmerged
/// duplicate rows.
#[test]
fn bag_union_commutative() {
    let mut rng = StdRng::seed_from_u64(0x6261_6775);
    for _ in 0..CASES {
        let db = flat_database(&mut rng);
        let eval = |plan: PlanBuilder| evaluate(&plan.build().unwrap(), &db).unwrap();
        let rs = eval(projected("r").union(projected("s")));
        assert_eq!(*rs, *eval(projected("s").union(projected("r"))));
        assert_eq!(rs.total(), eval(projected("r")).total() + eval(projected("s")).total());
    }
}

/// Bag difference never yields negative multiplicities and is bounded by
/// the left operand, also over unmerged duplicate rows.
#[test]
fn bag_difference_bounded() {
    let mut rng = StdRng::seed_from_u64(0x6261_6764);
    for _ in 0..CASES {
        let db = flat_database(&mut rng);
        let eval = |plan: PlanBuilder| evaluate(&plan.build().unwrap(), &db).unwrap();
        let (a, b) = (eval(projected("r")), eval(projected("s")));
        let d = eval(projected("r").difference(projected("s")));
        assert!(d.total() <= a.total());
        for (v, m) in d.iter() {
            assert!(*m <= a.mult(v));
        }
        // a = (a − b) ∪ (a ∩ b) in terms of totals.
        let kept: u64 = a.iter().map(|(v, m)| (*m).min(b.mult(v))).sum();
        assert_eq!(d.total() + kept, a.total());
    }
}

/// Deduplication keeps exactly the distinct values with multiplicity one,
/// also over unmerged duplicate rows.
#[test]
fn dedup_is_idempotent() {
    let mut rng = StdRng::seed_from_u64(0x6465_6475);
    for _ in 0..CASES {
        let db = flat_database(&mut rng);
        let eval = |plan: PlanBuilder| evaluate(&plan.build().unwrap(), &db).unwrap();
        let d = eval(projected("r").dedup());
        assert_eq!(d.total() as usize, eval(projected("r")).distinct());
        assert_eq!(*eval(projected("r").dedup().dedup()), *d);
    }
}

/// The hash join is a pure physical optimization: for every predicate shape,
/// `join_matches` finds exactly the pairs, combined tuples and matched flags
/// of the reference nested loop. Keys are drawn from both sides of every
/// canonicalization case — `Int` against `Real`, `-0.0`, NaN, `⊥`, and two
/// `i64`s beyond 2⁵³ that `=` cannot tell apart — and some rows are absent,
/// as invalid tuples are under a schema alternative.
#[test]
fn hash_join_matches_nested_loop() {
    use nested_data::Tuple;
    use nrab_algebra::join::{join_matches, nested_loop_join};

    const BIG: i64 = 1 << 60;
    let keys = [
        Value::int(0),
        Value::int(1),
        Value::int(2),
        Value::float(1.0),
        Value::float(2.0),
        Value::float(-0.0),
        Value::float(f64::NAN),
        Value::Null,
        Value::int(BIG),
        Value::int(BIG + 1),
    ];
    let mut rng = StdRng::seed_from_u64(0x6a6f_696e);
    let left_ty = TupleType::new([("k", NestedType::int()), ("x", NestedType::int())]).unwrap();
    let right_ty = TupleType::new([("j", NestedType::float()), ("y", NestedType::int())]).unwrap();
    let predicates = [
        Expr::cmp(Expr::attr("k"), CmpOp::Eq, Expr::attr("j")),
        Expr::and(
            Expr::cmp(Expr::attr("k"), CmpOp::Eq, Expr::attr("j")),
            Expr::cmp(Expr::attr("x"), CmpOp::Lt, Expr::attr("y")),
        ),
        Expr::and(
            Expr::cmp(Expr::attr("k"), CmpOp::Eq, Expr::attr("j")),
            Expr::cmp(Expr::attr("y"), CmpOp::Eq, Expr::attr("x")),
        ),
        Expr::cmp(Expr::attr("x"), CmpOp::Le, Expr::attr("y")),
    ];
    let rows = |rng: &mut StdRng, key: &str, other: &str| -> Vec<Option<Tuple>> {
        (0..rng.gen_range(0..12usize))
            .map(|_| {
                let tuple = Tuple::new([
                    (key, rng.choose(&keys).clone()),
                    (other, Value::int(rng.gen_range(0i64..6))),
                ]);
                (!rng.gen_bool(0.15)).then_some(tuple)
            })
            .collect()
    };
    for _ in 0..CASES {
        let left = rows(&mut rng, "k", "x");
        let right = rows(&mut rng, "j", "y");
        let left: Vec<Option<&Tuple>> = left.iter().map(Option::as_ref).collect();
        let right: Vec<Option<&Tuple>> = right.iter().map(Option::as_ref).collect();
        for predicate in &predicates {
            let joined = join_matches(&left, &right, predicate, &left_ty, &right_ty).unwrap();
            let reference = nested_loop_join(&left, &right, predicate).unwrap();
            assert_eq!(joined, reference, "`{predicate}` diverges between hash and nested loop");
        }
    }
}
