//! Nested databases: named relations with their schemas.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use nested_data::{Bag, TupleType, Value};

use crate::error::{AlgebraError, AlgebraResult};
use crate::eval::evaluate;
use crate::plan::QueryPlan;

/// The last `(plan, ⟦plan⟧_D)` pair evaluated through
/// [`Database::evaluate_memoised`].
type ResultMemo = Option<(Arc<QueryPlan>, Arc<Bag>)>;

/// A nested database `D`: a set of named nested relations, each with its
/// relation schema (a tuple type).
///
/// Relation contents are stored behind [`Arc`]s so that table accesses during
/// evaluation and tracing share the base data instead of deep-copying it.
///
/// A database also remembers `⟦Q⟧_D` for the last plan evaluated through
/// [`Database::evaluate_memoised`]. The memo is not part of the database's
/// value: a clone (and a new database) starts with an empty one, adding a
/// relation clears it, and `==` and `Debug` ignore it.
#[derive(Default)]
pub struct Database {
    relations: BTreeMap<String, (TupleType, Arc<Bag>)>,
    results: Mutex<ResultMemo>,
}

impl Clone for Database {
    fn clone(&self) -> Self {
        Database { relations: self.relations.clone(), results: Mutex::default() }
    }
}

impl PartialEq for Database {
    fn eq(&self, other: &Self) -> bool {
        self.relations == other.relations
    }
}

impl fmt::Debug for Database {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Database").field("relations", &self.relations).finish()
    }
}

impl Database {
    /// Creates an empty database.
    pub fn new() -> Self {
        Database::default()
    }

    /// Adds (or replaces) a relation with an explicit schema.
    pub fn add_relation(
        &mut self,
        name: impl Into<String>,
        schema: TupleType,
        data: impl Into<Arc<Bag>>,
    ) {
        self.relations.insert(name.into(), (schema, data.into()));
        *self.results.get_mut().unwrap_or_else(PoisonError::into_inner) = None;
    }

    /// Adds a relation, inferring its schema from the first tuple.
    ///
    /// Panics if the bag is empty or its first element is not a tuple; use
    /// [`Database::add_relation`] for empty relations.
    pub fn add_relation_inferred(&mut self, name: impl Into<String>, data: Bag) {
        let schema = data
            .iter()
            .next()
            .and_then(|(v, _)| v.infer_type())
            .and_then(|t| match t {
                nested_data::NestedType::Tuple(t) => Some(t),
                _ => None,
            })
            .expect("add_relation_inferred requires a non-empty bag of tuples");
        self.add_relation(name, schema, data);
    }

    /// The names of all relations, sorted.
    pub fn relation_names(&self) -> Vec<&str> {
        self.relations.keys().map(String::as_str).collect()
    }

    /// The schema of a relation.
    pub fn schema(&self, name: &str) -> AlgebraResult<&TupleType> {
        self.relations
            .get(name)
            .map(|(schema, _)| schema)
            .ok_or_else(|| AlgebraError::UnknownTable(name.to_string()))
    }

    /// The contents of a relation.
    pub fn relation(&self, name: &str) -> AlgebraResult<&Bag> {
        self.relation_shared(name).map(Arc::as_ref)
    }

    /// The contents of a relation as a shared handle: cloning the result is
    /// O(1), which is how `TableAccess` avoids copying base relations.
    pub fn relation_shared(&self, name: &str) -> AlgebraResult<&Arc<Bag>> {
        self.relations
            .get(name)
            .map(|(_, data)| data)
            .ok_or_else(|| AlgebraError::UnknownTable(name.to_string()))
    }

    /// `⟦plan⟧_D`, evaluated once while `plan` is the last plan asked for.
    ///
    /// A hit is the same plan `Arc` as the remembered one (the memo holds that
    /// `Arc`, so its address cannot be reused by another plan) and returns the
    /// remembered result. A miss runs [`evaluate`] without holding the memo's
    /// lock and, if it succeeds, replaces the remembered pair. Two racing
    /// misses both evaluate and produce equal bags.
    pub fn evaluate_memoised(&self, plan: &Arc<QueryPlan>) -> AlgebraResult<Arc<Bag>> {
        let hit = self
            .memo()
            .as_ref()
            .filter(|(known, _)| Arc::ptr_eq(known, plan))
            .map(|(_, result)| Arc::clone(result));
        if let Some(hit) = hit {
            return Ok(hit);
        }
        let result = evaluate(plan, self)?;
        *self.memo() = Some((Arc::clone(plan), Arc::clone(&result)));
        Ok(result)
    }

    /// The result memo, locked. Every update leaves it valid, so a poisoned
    /// lock is recovered rather than propagated.
    fn memo(&self) -> MutexGuard<'_, ResultMemo> {
        self.results.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Whether the database contains a relation with this name.
    pub fn contains(&self, name: &str) -> bool {
        self.relations.contains_key(name)
    }

    /// Total number of top-level tuples across all relations (used to report
    /// dataset sizes in the benchmark harness).
    pub fn total_tuples(&self) -> u64 {
        self.relations.values().map(|(_, bag)| bag.total()).sum()
    }

    /// The *active domain* of a relation's attribute: all distinct primitive
    /// values appearing under the given top-level attribute (descending into
    /// nested relations). Used by the exact reparameterization enumerator,
    /// which only needs to consider constants from the active domain
    /// (cf. the PTIME argument in the proof of Theorem 1).
    pub fn active_domain(&self, relation: &str, attribute: &str) -> AlgebraResult<Vec<Value>> {
        let bag = self.relation(relation)?;
        let mut values = Vec::new();
        for (v, _) in bag.iter() {
            if let Some(t) = v.as_tuple() {
                if let Some(attr_value) = t.get(attribute) {
                    collect_primitives(attr_value, &mut values);
                }
            }
        }
        values.sort();
        values.dedup();
        Ok(values)
    }
}

fn collect_primitives(value: &Value, out: &mut Vec<Value>) {
    match value {
        Value::Tuple(t) => {
            for (_, v) in t.fields() {
                collect_primitives(v, out);
            }
        }
        Value::Bag(b) => {
            for (v, _) in b.iter() {
                collect_primitives(v, out);
            }
        }
        Value::Null => {}
        primitive => out.push(primitive.clone()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nested_data::NestedType;

    fn person_db() -> Database {
        let address =
            TupleType::new([("city", NestedType::str()), ("year", NestedType::int())]).unwrap();
        let person = TupleType::new([
            ("name", NestedType::str()),
            ("address2", NestedType::Relation(address)),
        ])
        .unwrap();
        let sue = Value::tuple([
            ("name", Value::str("Sue")),
            (
                "address2",
                Value::bag([Value::tuple([
                    ("city", Value::str("NY")),
                    ("year", Value::int(2018)),
                ])]),
            ),
        ]);
        let mut db = Database::new();
        db.add_relation("person", person, Bag::from_values([sue]));
        db
    }

    #[test]
    fn schema_and_relation_lookup() {
        let db = person_db();
        assert!(db.contains("person"));
        assert!(!db.contains("tweets"));
        assert_eq!(db.relation_names(), vec!["person"]);
        assert_eq!(db.schema("person").unwrap().arity(), 2);
        assert_eq!(db.relation("person").unwrap().total(), 1);
        assert!(db.schema("missing").is_err());
        assert_eq!(db.total_tuples(), 1);
    }

    #[test]
    fn inferred_schema() {
        let mut db = Database::new();
        let bag = Bag::from_values([Value::tuple([("x", Value::int(1))])]);
        db.add_relation_inferred("r", bag);
        assert_eq!(db.schema("r").unwrap().attribute_names().collect::<Vec<_>>(), vec!["x"]);
    }

    /// `person ⟶ flatten ⟶ σ year ≥ min_year`: a plan whose result is a new
    /// bag, not the base relation's `Arc`.
    fn plan_from(min_year: i64) -> Arc<QueryPlan> {
        let plan = crate::PlanBuilder::table("person")
            .inner_flatten("address2", None)
            .select(crate::Expr::attr_cmp("year", crate::CmpOp::Ge, min_year))
            .build()
            .unwrap();
        Arc::new(plan)
    }

    #[test]
    fn memo_keeps_the_last_plan_by_pointer() {
        let db = person_db();
        let first = plan_from(0);
        let result = db.evaluate_memoised(&first).unwrap();
        assert_eq!(result.total(), 1);
        assert!(Arc::ptr_eq(&result, &db.evaluate_memoised(&first).unwrap()));
        // A separately built plan, even an equal one, evaluates and takes the slot.
        let equal = plan_from(0);
        let again = db.evaluate_memoised(&equal).unwrap();
        assert!(!Arc::ptr_eq(&result, &again));
        assert!(Arc::ptr_eq(&db.memo().as_ref().unwrap().0, &equal));
        assert!(!Arc::ptr_eq(&result, &db.evaluate_memoised(&first).unwrap()));
    }

    #[test]
    fn memo_is_not_part_of_the_database_value() {
        let db = person_db();
        db.evaluate_memoised(&plan_from(0)).unwrap();
        let clone = db.clone();
        assert!(clone.memo().is_none());
        assert_eq!(clone, db);
        assert_eq!(format!("{clone:?}"), format!("{db:?}"));
        assert!(Database::new().memo().is_none());
    }

    #[test]
    fn active_domain_descends_into_nested_relations() {
        let db = person_db();
        let cities = db.active_domain("person", "address2").unwrap();
        assert!(cities.contains(&Value::str("NY")));
        assert!(cities.contains(&Value::int(2018)));
        let names = db.active_domain("person", "name").unwrap();
        assert_eq!(names, vec![Value::str("Sue")]);
        assert!(db.active_domain("missing", "x").is_err());
    }
}
