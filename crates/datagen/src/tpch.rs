//! Synthetic nested TPC-H data (scenarios Q1–Q13 and their flat variants).
//!
//! Orders nest their lineitems into `o_lineitems` as in the nested TPC-H
//! variant of Pirzadeh et al. used by the paper; `tpch_flat_database`
//! additionally exposes a flat `flatlineitem` relation (order attributes
//! joined onto every lineitem) used by the Q1F–Q13F scenarios.

use nested_data::{Bag, NestedType, TupleType, Value};
use nrab_algebra::Database;
use whynot_rng::{Rng, StdRng};

use crate::row_rng;

/// Configuration of the TPC-H generator.
#[derive(Debug, Clone, Copy)]
pub struct TpchConfig {
    /// Number of customers (orders ≈ 2×, lineitems ≈ 6×).
    pub customers: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TpchConfig {
    fn default() -> Self {
        TpchConfig { customers: 150, seed: 42 }
    }
}

/// Planted keys used by the TPC-H scenarios.
pub mod planted {
    /// Q3: the missing order key.
    pub const Q3_ORDERKEY: i64 = 4_986_467;
    /// Q10: the missing customer key.
    pub const Q10_CUSTKEY: i64 = 61_402;
    /// Q13: the customer without any orders.
    pub const Q13_CUSTKEY: i64 = 70_001;
}

fn lineitem_type() -> TupleType {
    TupleType::new([
        ("l_orderkey", NestedType::int()),
        ("l_extendedprice", NestedType::float()),
        ("l_discount", NestedType::float()),
        ("l_tax", NestedType::float()),
        ("l_quantity", NestedType::int()),
        ("l_shipdate", NestedType::str()),
        ("l_commitdate", NestedType::str()),
        ("l_receiptdate", NestedType::str()),
        ("l_returnflag", NestedType::str()),
    ])
    .unwrap()
}

fn orders_type() -> TupleType {
    TupleType::new([
        ("o_orderkey", NestedType::int()),
        ("o_custkey", NestedType::int()),
        ("o_orderdate", NestedType::str()),
        ("o_shippriority", NestedType::str()),
        ("o_orderpriority", NestedType::str()),
        ("o_comment", NestedType::str()),
        ("o_lineitems", NestedType::Relation(lineitem_type())),
    ])
    .unwrap()
}

fn customer_type() -> TupleType {
    TupleType::new([
        ("c_custkey", NestedType::int()),
        ("c_name", NestedType::str()),
        ("c_acctbal", NestedType::float()),
        ("c_phone", NestedType::str()),
        ("c_address", NestedType::str()),
        ("c_comment", NestedType::str()),
        ("c_mktsegment", NestedType::str()),
        ("c_nationkey", NestedType::int()),
    ])
    .unwrap()
}

fn nation_type() -> TupleType {
    TupleType::new([("n_nationkey", NestedType::int()), ("n_name", NestedType::str())]).unwrap()
}

struct LineitemSpec {
    price: f64,
    discount: f64,
    tax: f64,
    quantity: i64,
    shipdate: String,
    commitdate: String,
    receiptdate: String,
    returnflag: String,
}

fn lineitem_value(orderkey: i64, spec: &LineitemSpec) -> Value {
    Value::tuple([
        ("l_orderkey", Value::int(orderkey)),
        ("l_extendedprice", Value::float(spec.price)),
        ("l_discount", Value::float(spec.discount)),
        ("l_tax", Value::float(spec.tax)),
        ("l_quantity", Value::int(spec.quantity)),
        ("l_shipdate", Value::str(spec.shipdate.clone())),
        ("l_commitdate", Value::str(spec.commitdate.clone())),
        ("l_receiptdate", Value::str(spec.receiptdate.clone())),
        ("l_returnflag", Value::str(spec.returnflag.clone())),
    ])
}

fn random_lineitem(rng: &mut StdRng, orderkey: i64) -> LineitemSpec {
    let year = 1993 + rng.gen_range(0..7);
    let month = rng.gen_range(1..=12);
    let day = rng.gen_range(1..=28);
    LineitemSpec {
        price: rng.gen_range(100.0..50_000.0),
        discount: (rng.gen_range(0..=10) as f64) / 100.0,
        tax: (rng.gen_range(0..=8) as f64) / 100.0,
        quantity: rng.gen_range(1..=50),
        shipdate: format!("{year}-{month:02}-{day:02}"),
        commitdate: format!("{year}-{month:02}-{:02}", (day % 27) + 1),
        receiptdate: format!("{year}-{:02}-{day:02}", (month % 12) + 1),
        returnflag: ["A", "N", "R"][rng.gen_range(0..3usize)].to_string(),
    }
    .tweak(orderkey)
}

impl LineitemSpec {
    fn tweak(self, _orderkey: i64) -> Self {
        self
    }
}

/// Maximum filler orders per customer; filler order keys are
/// `custkey * (MAX_ORDERS_PER_CUSTOMER + 1) + k`, which keeps them unique
/// and independent of any other customer.
const MAX_ORDERS_PER_CUSTOMER: i64 = 3;

/// Fixed order keys of the planted Q10 orders. Filler keys are
/// `custkey * 4 + k` with `k ≤ 2`, i.e. never ≡ 3 (mod 4) — these keys (and
/// `Q3_ORDERKEY`) are ≡ 3 (mod 4), so they cannot collide at any scale.
const Q10_ORDERKEY_IN_QUARTER: i64 = 9_000_003;
const Q10_ORDERKEY_LATE: i64 = 9_000_007;

const SEGMENTS: [&str; 5] = ["AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"];
const PRIORITIES: [&str; 5] = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"];
const NATIONS: [&str; 5] = ["GERMANY", "FRANCE", "BRAZIL", "JAPAN", "CANADA"];

fn customer_value(rng: &mut StdRng, custkey: i64, segment: &str) -> Value {
    let nationkey = custkey % NATIONS.len() as i64;
    Value::tuple([
        ("c_custkey", Value::int(custkey)),
        ("c_name", Value::str(format!("Customer#{custkey:09}"))),
        ("c_acctbal", Value::float(rng.gen_range(-999.0..9999.0))),
        ("c_phone", Value::str(format!("13-{custkey:07}"))),
        ("c_address", Value::str(format!("{custkey} Main Street"))),
        ("c_comment", Value::str("regular account")),
        ("c_mktsegment", Value::str(segment)),
        ("c_nationkey", Value::int(nationkey)),
    ])
}

fn order_value(
    orderkey: i64,
    custkey: i64,
    orderdate: &str,
    priority: &str,
    items: &[Value],
) -> Value {
    Value::tuple([
        ("o_orderkey", Value::int(orderkey)),
        ("o_custkey", Value::int(custkey)),
        ("o_orderdate", Value::str(orderdate)),
        ("o_shippriority", Value::str("0")),
        ("o_orderpriority", Value::str(priority)),
        ("o_comment", Value::str("standard order")),
        ("o_lineitems", Value::bag(items.iter().cloned())),
    ])
}

/// One filler customer plus their orders, generated from a per-customer RNG
/// so customers are independent under one seed.
fn filler_customer(seed: u64, i: usize) -> (Value, Vec<Value>) {
    let custkey = 1000 + i as i64;
    let segment = SEGMENTS[i % SEGMENTS.len()];
    let mut rng = row_rng(seed, 0, i as u64);
    let customer = customer_value(&mut rng, custkey, segment);
    let order_count = rng.gen_range(1..=MAX_ORDERS_PER_CUSTOMER);
    let mut orders = Vec::with_capacity(order_count as usize);
    for k in 0..order_count {
        let orderkey = custkey * (MAX_ORDERS_PER_CUSTOMER + 1) + k;
        let year = 1993 + rng.gen_range(0..5);
        let date = format!("{year}-{:02}-{:02}", rng.gen_range(1..=12), rng.gen_range(1..=28));
        let items: Vec<Value> = (0..rng.gen_range(1..=4))
            .map(|_| lineitem_value(orderkey, &random_lineitem(&mut rng, 0)))
            .collect();
        let priority = PRIORITIES[rng.gen_range(0..PRIORITIES.len())];
        orders.push(order_value(orderkey, custkey, &date, priority, &items));
    }
    (customer, orders)
}

/// Builds the nested TPC-H database: `customer`, `nestedOrders`, `nation`.
///
/// Filler customers (and their nested orders) generate with per-customer
/// RNGs; the planted Q3/Q10/Q13 rows are inserted afterwards.
pub fn tpch_nested_database(config: TpchConfig) -> Database {
    // Filler custkeys are 1000 + i; the planted Q3/Q10/Q13 customers start
    // at 60_000 and must stay unique.
    assert!(config.customers < 59_000, "scale would collide with planted customer keys");
    let (customer_rows, order_rows): (Vec<Value>, Vec<Vec<Value>>) =
        (0..config.customers).map(|i| filler_customer(config.seed, i)).unzip();
    let mut customers = Bag::from_values(customer_rows);
    let mut orders = Bag::from_values(order_rows.into_iter().flatten());

    // Q3: the missing order — a HOUSEHOLD-intended customer whose segment is
    // actually BUILDING, with lineitems whose commitdate is *before* the
    // (mistyped) constant of σ27 and whose orderdate is before 1995-03-15.
    {
        let items = [
            LineitemSpec {
                price: 30_000.0,
                discount: 0.05,
                tax: 0.04,
                quantity: 10,
                shipdate: "1995-03-20".into(),
                commitdate: "1995-03-10".into(),
                receiptdate: "1995-03-25".into(),
                returnflag: "N".into(),
            },
            LineitemSpec {
                price: 12_000.0,
                discount: 0.02,
                tax: 0.03,
                quantity: 5,
                shipdate: "1995-03-22".into(),
                commitdate: "1995-03-12".into(),
                receiptdate: "1995-03-28".into(),
                returnflag: "N".into(),
            },
        ];
        // Force the order key to the planted value.
        let orderkey = planted::Q3_ORDERKEY;
        let custkey = 60_000;
        customers.insert(
            Value::tuple([
                ("c_custkey", Value::int(custkey)),
                ("c_name", Value::str("Customer#household")),
                ("c_acctbal", Value::float(1234.5)),
                ("c_phone", Value::str("13-0000001")),
                ("c_address", Value::str("1 Household Way")),
                ("c_comment", Value::str("regular account")),
                ("c_mktsegment", Value::str("BUILDING")),
                ("c_nationkey", Value::int(0)),
            ]),
            1,
        );
        let lineitems: Vec<Value> = items.iter().map(|s| lineitem_value(orderkey, s)).collect();
        orders.insert(
            Value::tuple([
                ("o_orderkey", Value::int(orderkey)),
                ("o_custkey", Value::int(custkey)),
                ("o_orderdate", Value::str("1995-03-01")),
                ("o_shippriority", Value::str("0")),
                ("o_orderpriority", Value::str("1-URGENT")),
                ("o_comment", Value::str("standard order")),
                ("o_lineitems", Value::bag(lineitems)),
            ]),
            1,
        );
    }

    // Q10: the missing customer — their lineitems were returned with flag "R"
    // (the query erroneously filters on "A") within the queried quarter.
    {
        let custkey = planted::Q10_CUSTKEY;
        customers.insert(
            Value::tuple([
                ("c_custkey", Value::int(custkey)),
                ("c_name", Value::str("Customer#returned")),
                ("c_acctbal", Value::float(8_000.0)),
                ("c_phone", Value::str("13-0000002")),
                ("c_address", Value::str("2 Returns Road")),
                ("c_comment", Value::str("files many returns")),
                ("c_mktsegment", Value::str("MACHINERY")),
                ("c_nationkey", Value::int(1)),
            ]),
            1,
        );
        let orderkey = Q10_ORDERKEY_IN_QUARTER;
        let items = [
            LineitemSpec {
                price: 20_000.0,
                discount: 0.07,
                tax: 0.02,
                quantity: 7,
                shipdate: "1997-11-05".into(),
                commitdate: "1997-11-01".into(),
                receiptdate: "1997-11-10".into(),
                returnflag: "R".into(),
            },
            LineitemSpec {
                price: 5_000.0,
                discount: 0.01,
                tax: 0.05,
                quantity: 3,
                shipdate: "1998-02-01".into(),
                commitdate: "1998-01-20".into(),
                receiptdate: "1998-02-10".into(),
                returnflag: "R".into(),
            },
        ];
        let lineitems: Vec<Value> = items.iter().map(|s| lineitem_value(orderkey, s)).collect();
        orders.insert(
            Value::tuple([
                ("o_orderkey", Value::int(orderkey)),
                ("o_custkey", Value::int(custkey)),
                ("o_orderdate", Value::str("1997-11-02")),
                ("o_shippriority", Value::str("0")),
                ("o_orderpriority", Value::str("2-HIGH")),
                ("o_comment", Value::str("standard order")),
                ("o_lineitems", Value::bag(lineitems)),
            ]),
            1,
        );
        // A second returned order *outside* the queried quarter, so that the
        // orderdate selection (σ36) also stands between the customer and a
        // non-zero revenue.
        let orderkey2 = Q10_ORDERKEY_LATE;
        let late = LineitemSpec {
            price: 9_000.0,
            discount: 0.04,
            tax: 0.01,
            quantity: 2,
            shipdate: "1998-02-20".into(),
            commitdate: "1998-02-10".into(),
            receiptdate: "1998-02-28".into(),
            returnflag: "R".into(),
        };
        orders.insert(
            Value::tuple([
                ("o_orderkey", Value::int(orderkey2)),
                ("o_custkey", Value::int(custkey)),
                ("o_orderdate", Value::str("1998-02-15")),
                ("o_shippriority", Value::str("0")),
                ("o_orderpriority", Value::str("3-MEDIUM")),
                ("o_comment", Value::str("standard order")),
                ("o_lineitems", Value::bag([lineitem_value(orderkey2, &late)])),
            ]),
            1,
        );
    }

    // Q13: a customer without any orders at all (lost by the erroneous inner join).
    customers.insert(
        Value::tuple([
            ("c_custkey", Value::int(planted::Q13_CUSTKEY)),
            ("c_name", Value::str("Customer#noorders")),
            ("c_acctbal", Value::float(0.0)),
            ("c_phone", Value::str("13-0000003")),
            ("c_address", Value::str("3 Quiet Lane")),
            ("c_comment", Value::str("never ordered")),
            ("c_mktsegment", Value::str("FURNITURE")),
            ("c_nationkey", Value::int(2)),
        ]),
        1,
    );

    let mut nation = Bag::new();
    for (i, name) in NATIONS.iter().enumerate() {
        nation.insert(
            Value::tuple([("n_nationkey", Value::int(i as i64)), ("n_name", Value::str(*name))]),
            1,
        );
    }

    let mut db = Database::new();
    db.add_relation("customer", customer_type(), customers);
    db.add_relation("nestedOrders", orders_type(), orders);
    db.add_relation("nation", nation_type(), nation);
    db
}

/// Builds the flat TPC-H variant: same `customer` and `nation` relations plus
/// a `flatlineitem` relation in which every lineitem carries its order's
/// attributes (the result of pre-joining orders and lineitems).
pub fn tpch_flat_database(config: TpchConfig) -> Database {
    let nested = tpch_nested_database(config);
    let mut flat = Bag::new();
    for (order, mult) in nested.relation("nestedOrders").unwrap().iter() {
        let order_tuple = order.as_tuple().unwrap();
        let order_attrs = order_tuple.without(&["o_lineitems"]);
        if let Some(Value::Bag(items)) = order_tuple.get("o_lineitems") {
            for (item, item_mult) in items.iter() {
                if let Some(item_tuple) = item.as_tuple() {
                    let combined = order_attrs
                        .concat(&item_tuple.without(&["l_orderkey"]))
                        .expect("disjoint attribute names");
                    flat.insert(Value::from_tuple(combined), mult * item_mult);
                }
            }
        }
    }
    let flat_ty = orders_type()
        .without(&["o_lineitems"])
        .concat(&lineitem_type().without(&["l_orderkey"]))
        .expect("disjoint attribute names");
    let mut db = Database::new();
    db.add_relation("customer", customer_type(), nested.relation("customer").unwrap().clone());
    db.add_relation("nation", nation_type(), nested.relation("nation").unwrap().clone());
    db.add_relation("flatlineitem", flat_ty, flat);
    db
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_database_contains_planted_rows() {
        let db = tpch_nested_database(TpchConfig { customers: 20, seed: 1 });
        let custkeys = db.active_domain("customer", "c_custkey").unwrap();
        assert!(custkeys.contains(&Value::int(planted::Q10_CUSTKEY)));
        assert!(custkeys.contains(&Value::int(planted::Q13_CUSTKEY)));
        let orderkeys = db.active_domain("nestedOrders", "o_orderkey").unwrap();
        assert!(orderkeys.contains(&Value::int(planted::Q3_ORDERKEY)));
        // Orders nest at least one lineitem each.
        for (order, _) in db.relation("nestedOrders").unwrap().iter() {
            let items = order.get_path(&"o_lineitems".into()).unwrap();
            assert!(!items.as_bag().unwrap().is_empty());
        }
    }

    #[test]
    fn flat_database_joins_orders_and_lineitems() {
        let config = TpchConfig { customers: 15, seed: 3 };
        let nested = tpch_nested_database(config);
        let flat = tpch_flat_database(config);
        let nested_lineitems: u64 = nested
            .relation("nestedOrders")
            .unwrap()
            .iter()
            .map(|(o, m)| o.get_path(&"o_lineitems".into()).unwrap().as_bag().unwrap().total() * m)
            .sum();
        assert_eq!(flat.relation("flatlineitem").unwrap().total(), nested_lineitems);
        assert!(flat.schema("flatlineitem").unwrap().contains("o_orderdate"));
        assert!(flat.schema("flatlineitem").unwrap().contains("l_shipdate"));
    }

    #[test]
    fn generation_is_deterministic() {
        let a = tpch_nested_database(TpchConfig { customers: 10, seed: 5 });
        let b = tpch_nested_database(TpchConfig { customers: 10, seed: 5 });
        assert_eq!(a.relation("nestedOrders").unwrap(), b.relation("nestedOrders").unwrap());
    }
}
