//! The columnar ↔ row-oriented equivalence contract, end to end: for every
//! case of the shared harness and every thread count, query answers,
//! generalized traces, and rendered wire reports must be **bit-identical**
//! whether the wide-flat scans take the columnar path or the row-oriented
//! path. This is the property that makes the columnar layout a pure
//! performance knob, exactly like `WHYNOT_THREADS`.

mod harness;

use harness::{Aspect, Cases, Config, Suite, REFERENCE};
use nested_data::ColumnarBag;
use whynot_scenarios::{dblp, tpch};

static COLUMNAR: Suite = Suite::new(|| {
    [1, 2, 8].map(|threads| Config { columnar: true, threads, ..REFERENCE }).to_vec()
});

#[test]
fn query_answers_match_the_row_oriented_path() {
    COLUMNAR.assert_clean(Aspect::Answer, Cases::All);
}

#[test]
fn generalized_traces_match_the_row_oriented_path() {
    COLUMNAR.assert_clean(Aspect::Trace, Cases::All);
}

#[test]
fn wire_reports_match_the_row_oriented_path() {
    COLUMNAR.assert_clean(Aspect::Report, Cases::All);
}

/// The flat TPC-H base relation takes the columnar path; nested and narrow
/// relations never do.
#[test]
fn only_wide_flat_relations_take_the_columnar_path() {
    let flat = tpch::q6(15, true);
    let lineitem = flat.db.relation("flatlineitem").expect("flatlineitem exists");
    let cols = lineitem.columnar().expect("flatlineitem must be columnar");
    assert_eq!(cols.rows(), lineitem.distinct());
    assert!(cols.arity() >= nested_data::columnar::MIN_COLUMNAR_ARITY);

    let nested = tpch::q6(15, false);
    let orders = nested.db.relation("nestedOrders").expect("nestedOrders exists");
    assert!(orders.columnar().is_none(), "nested orders must stay row-oriented");
    assert!(ColumnarBag::from_flat_bag(orders).is_none());

    let d1 = dblp::d1(40);
    for name in d1.db.relation_names() {
        let relation = d1.db.relation(name).unwrap();
        assert!(relation.columnar().is_none(), "DBLP relation {name} must stay row-oriented");
    }
}
