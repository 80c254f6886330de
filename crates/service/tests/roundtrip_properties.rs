//! Property-style round-trip tests for the JSON wire format: randomly
//! generated values, schemas, NIPs, plans, and databases must survive
//! encode → print → parse → decode unchanged. (Explanation reports are
//! encode-only: the end-to-end benchmark pins their encoding by digest, and
//! the differential harness compares it across physical configurations.)
//!
//! Inputs are generated with the workspace's deterministic PRNG (hermetic
//! builds have no external crates).

use nested_data::{Bag, NestedType, Nip, NipCmp, TupleType, Value};
use nrab_algebra::expr::{CmpOp, Expr};
use nrab_algebra::{Database, FlattenKind, JoinKind, OpNode, Operator, ProjColumn, QueryPlan};
use whynot_rng::{Rng, SeedableRng, StdRng};
use whynot_service::json::Json;
use whynot_service::wire::{
    database_from_json, database_to_json, nip_from_json, nip_to_json, plan_from_json, plan_to_json,
    tuple_type_from_json, tuple_type_to_json, value_from_json, value_to_json,
};

const CASES: usize = 150;

fn random_string(rng: &mut StdRng) -> String {
    // Includes placeholder-colliding and escape-needing characters on purpose.
    let pool = ["NY", "LA", "?", "*", "a\"b", "nested\npath", "ünïcödé", "", "x"];
    (*rng.choose(&pool)).to_string()
}

fn random_value(rng: &mut StdRng, depth: usize) -> Value {
    let max = if depth == 0 { 5 } else { 7 };
    match rng.gen_range(0..max) {
        0 => Value::Null,
        1 => Value::Bool(rng.gen_bool(0.5)),
        2 => Value::Int(rng.gen_range(-1000i64..1000)),
        3 => {
            // Finite floats only; includes integral floats to stress the
            // int/float distinction.
            if rng.gen_bool(0.3) {
                Value::Float(rng.gen_range(-50i64..50) as f64)
            } else {
                Value::Float(rng.gen_range(-1000.0..1000.0))
            }
        }
        4 => Value::str(random_string(rng)),
        5 => {
            let n = rng.gen_range(0..3usize);
            Value::tuple((0..n).map(|i| (format!("f{i}"), random_value(rng, depth - 1))))
        }
        _ => {
            let n = rng.gen_range(0..3usize);
            Value::from_bag(Bag::from_values((0..n).map(|_| random_value(rng, depth - 1))))
        }
    }
}

fn random_nip(rng: &mut StdRng, depth: usize) -> Nip {
    let max = if depth == 0 { 4 } else { 6 };
    match rng.gen_range(0..max) {
        0 => Nip::Any,
        1 => Nip::Value(random_value(rng, depth.min(1))),
        2 => Nip::pred(
            *rng.choose(&[NipCmp::Lt, NipCmp::Le, NipCmp::Gt, NipCmp::Ge, NipCmp::Ne]),
            Value::Int(rng.gen_range(-100i64..100)),
        ),
        3 => Nip::Value(Value::str(random_string(rng))),
        4 => {
            let n = rng.gen_range(0..3usize);
            Nip::Tuple(
                (0..n)
                    .map(|i| {
                        (nested_data::Sym::intern(&format!("a{i}")), random_nip(rng, depth - 1))
                    })
                    .collect(),
            )
        }
        _ => {
            let n = rng.gen_range(0..3usize);
            let mut elements: Vec<Nip> = (0..n).map(|_| random_nip(rng, depth - 1)).collect();
            if rng.gen_bool(0.5) {
                elements.push(Nip::Star);
            }
            Nip::Bag(elements)
        }
    }
}

fn random_type(rng: &mut StdRng, depth: usize) -> NestedType {
    let max = if depth == 0 { 4 } else { 6 };
    match rng.gen_range(0..max) {
        0 => NestedType::int(),
        1 => NestedType::str(),
        2 => NestedType::bool(),
        3 => NestedType::float(),
        4 => NestedType::Tuple(random_tuple_type(rng, depth - 1)),
        _ => NestedType::Relation(random_tuple_type(rng, depth - 1)),
    }
}

fn random_tuple_type(rng: &mut StdRng, depth: usize) -> TupleType {
    let n = rng.gen_range(1..4usize);
    TupleType::new((0..n).map(|i| (format!("c{i}"), random_type(rng, depth)))).unwrap()
}

/// A random structurally valid plan over one or two base tables.
fn random_plan(rng: &mut StdRng) -> QueryPlan {
    let mut next_id = 0u32;
    let mut fresh = |rng: &mut StdRng| {
        let _ = rng;
        let id = next_id;
        next_id += 1;
        id
    };
    let mut node = OpNode::new(fresh(rng), Operator::TableAccess { table: "r".into() }, vec![]);
    let steps = rng.gen_range(0..5usize);
    for _ in 0..steps {
        let id = fresh(rng);
        node = match rng.gen_range(0..7usize) {
            0 => OpNode::new(
                id,
                Operator::Selection {
                    predicate: Expr::attr_cmp(
                        "year",
                        *rng.choose(&CmpOp::ALL),
                        rng.gen_range(1990i64..2030),
                    ),
                },
                vec![node],
            ),
            1 => OpNode::new(
                id,
                Operator::Projection {
                    columns: vec![
                        ProjColumn::passthrough("name"),
                        ProjColumn::renamed("c", "addr.city"),
                    ],
                },
                vec![node],
            ),
            2 => OpNode::new(
                id,
                Operator::Flatten {
                    kind: *rng.choose(&[FlattenKind::Inner, FlattenKind::Outer]),
                    attr: "xs".into(),
                    alias: if rng.gen_bool(0.5) { Some("x".into()) } else { None },
                },
                vec![node],
            ),
            3 => OpNode::new(
                id,
                Operator::RelationNest { attrs: vec!["name".into()], into: "ns".into() },
                vec![node],
            ),
            4 => OpNode::new(id, Operator::Dedup, vec![node]),
            5 => {
                let other =
                    OpNode::new(fresh(rng), Operator::TableAccess { table: "s".into() }, vec![]);
                OpNode::new(
                    id,
                    Operator::Join {
                        kind: *rng.choose(&JoinKind::ALL),
                        predicate: Expr::cmp(Expr::attr("a"), CmpOp::Eq, Expr::attr("b")),
                    },
                    vec![node, other],
                )
            }
            _ => {
                let other =
                    OpNode::new(fresh(rng), Operator::TableAccess { table: "s".into() }, vec![]);
                OpNode::new(id, Operator::Union, vec![node, other])
            }
        };
    }
    QueryPlan::new(node).unwrap()
}

#[test]
fn values_round_trip() {
    let mut rng = StdRng::seed_from_u64(0x7661_6c75);
    for _ in 0..CASES {
        let value = random_value(&mut rng, 3);
        let text = value_to_json(&value).to_pretty();
        let decoded = value_from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(decoded, value, "value round trip failed for {text}");
    }
}

#[test]
fn nips_round_trip() {
    let mut rng = StdRng::seed_from_u64(0x6e69_7072);
    for _ in 0..CASES {
        let nip = random_nip(&mut rng, 3);
        let json = match nip_to_json(&nip) {
            Ok(json) => json,
            // Only the documented, deliberately unsupported case may fail.
            Err(_) => continue,
        };
        let text = json.to_pretty();
        let decoded = nip_from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(decoded, nip, "NIP round trip failed for {text}");
    }
}

#[test]
fn schemas_round_trip() {
    let mut rng = StdRng::seed_from_u64(0x7363_6865);
    for _ in 0..CASES {
        let ty = random_tuple_type(&mut rng, 2);
        let text = tuple_type_to_json(&ty).to_pretty();
        let decoded = tuple_type_from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(decoded, ty, "schema round trip failed for {text}");
    }
}

#[test]
fn plans_round_trip() {
    let mut rng = StdRng::seed_from_u64(0x706c_616e);
    for _ in 0..CASES {
        let plan = random_plan(&mut rng);
        let text = plan_to_json(&plan).to_pretty();
        let decoded = plan_from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(decoded, plan, "plan round trip failed for {text}");
    }
}

#[test]
fn databases_round_trip() {
    let mut rng = StdRng::seed_from_u64(0x6462_7274);
    for _ in 0..40 {
        // Schema-conforming random databases: a flat relation plus a nested one.
        let flat_ty = TupleType::new([("x", NestedType::int()), ("s", NestedType::str())]).unwrap();
        let nested_ty = TupleType::new([
            ("name", NestedType::str()),
            ("items", NestedType::relation_of([("v", NestedType::float())]).unwrap()),
        ])
        .unwrap();
        let n = rng.gen_range(0..5usize);
        let flat_rows: Vec<Value> = (0..n)
            .map(|_| {
                Value::tuple([
                    ("x", Value::Int(rng.gen_range(-9i64..9))),
                    ("s", Value::str(random_string(&mut rng))),
                ])
            })
            .collect();
        let m = rng.gen_range(0..4usize);
        let nested_rows: Vec<Value> = (0..m)
            .map(|_| {
                let k = rng.gen_range(0..3usize);
                Value::tuple([
                    ("name", Value::str(random_string(&mut rng))),
                    (
                        "items",
                        Value::bag((0..k).map(|_| {
                            Value::tuple([("v", Value::Float(rng.gen_range(-5.0..5.0)))])
                        })),
                    ),
                ])
            })
            .collect();
        let mut db = Database::new();
        db.add_relation("flat", flat_ty, Bag::from_values(flat_rows));
        db.add_relation("nested", nested_ty, Bag::from_values(nested_rows));
        let text = database_to_json(&db).to_pretty();
        let decoded = database_from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(decoded, db, "database round trip failed");
    }
}

/// `Arc`-shared values (structural sharing from the value layer) round-trip
/// through the wire codecs unchanged: sharing is a representation detail the
/// wire format cannot observe.
#[test]
fn shared_values_round_trip() {
    let mut rng = StdRng::seed_from_u64(0x7761_7263);
    for _ in 0..CASES {
        let subtree = random_value(&mut rng, 1);
        // Build a value whose branches share one Arc'd subtree several times.
        let shared = Value::tuple([
            ("left", subtree.clone()),
            ("right", subtree.clone()),
            ("bag", Value::bag([subtree.clone(), subtree.clone(), random_value(&mut rng, 0)])),
        ]);
        let encoded = value_to_json(&shared);
        let reparsed = Json::parse(&encoded.to_compact()).expect("wire JSON parses");
        let decoded = value_from_json(&reparsed).expect("wire JSON decodes");
        assert_eq!(decoded, shared, "shared value changed across the wire");
    }
}
