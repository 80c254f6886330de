//! Why-not questions (Definition 5).

use std::sync::Arc;

use nested_data::Nip;
use nrab_algebra::{Database, QueryPlan};

use crate::error::{WhyNotError, WhyNotResult};

/// A why-not question `Φ = ⟨Q, D, t⟩`: a query, a database, and a why-not
/// tuple `t` given as a NIP over the query's output schema.
///
/// Plan and database are held behind [`Arc`] so that serving layers can pose
/// many questions against one registered database without deep-copying it;
/// `WhyNotQuestion::new` still accepts owned values.
#[derive(Debug, Clone)]
pub struct WhyNotQuestion {
    /// The (possibly erroneous) query.
    pub plan: Arc<QueryPlan>,
    /// The input database.
    pub db: Arc<Database>,
    /// The missing answer of interest.
    pub why_not: Nip,
}

impl WhyNotQuestion {
    /// Creates a why-not question without validating it.
    pub fn new(
        plan: impl Into<Arc<QueryPlan>>,
        db: impl Into<Arc<Database>>,
        why_not: Nip,
    ) -> Self {
        WhyNotQuestion { plan: plan.into(), db: db.into(), why_not }
    }

    /// Validates the question:
    ///
    /// * the NIP is structurally valid (Definition 3),
    /// * the NIP conforms to the query's output schema,
    /// * no tuple of `⟦Q⟧_D` matches the NIP (otherwise the "missing" answer
    ///   is not actually missing — Definition 5 requires this).
    ///
    /// `⟦Q⟧_D` depends only on the plan and the database, so it comes from the
    /// database's memo ([`Database::evaluate_memoised`]): consecutive
    /// questions that share one database and one plan `Arc` evaluate the plan
    /// once. All three checks still run on every call.
    ///
    /// Returns the original query result so callers can reuse it.
    pub fn validate(&self) -> WhyNotResult<Arc<nested_data::Bag>> {
        self.why_not.validate()?;
        let output_schema = nrab_algebra::schema::plan_output_type(&self.plan, &self.db)?;
        if !self.why_not.conforms_to(&nested_data::NestedType::Tuple(output_schema.clone()))
            && !matches!(self.why_not, Nip::Any)
        {
            return Err(WhyNotError::InvalidQuestion(format!(
                "the why-not tuple {} does not conform to the output schema {}",
                self.why_not, output_schema
            )));
        }
        let result = self.db.evaluate_memoised(&self.plan)?;
        if let Some((matching, _)) = result.iter().find(|(v, _)| self.why_not.matches(v)) {
            return Err(WhyNotError::InvalidQuestion(format!(
                "the query result already contains a matching tuple: {matching}"
            )));
        }
        Ok(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nested_data::{Bag, NestedType, TupleType, Value};
    use nrab_algebra::expr::{CmpOp, Expr};
    use nrab_algebra::PlanBuilder;

    fn db() -> Database {
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
                Value::bag([
                    Value::tuple([("city", Value::str("LA")), ("year", Value::int(2019))]),
                    Value::tuple([("city", Value::str("NY")), ("year", Value::int(2018))]),
                ]),
            ),
        ]);
        let mut db = Database::new();
        db.add_relation("person", person, Bag::from_values([sue]));
        db
    }

    fn plan() -> QueryPlan {
        PlanBuilder::table("person")
            .inner_flatten("address2", None)
            .select(Expr::attr_cmp("year", CmpOp::Ge, 2019i64))
            .project_attrs(&["name", "city"])
            .build()
            .unwrap()
    }

    #[test]
    fn valid_question_for_missing_city() {
        let q = WhyNotQuestion::new(
            plan(),
            db(),
            Nip::tuple([("name", Nip::Any), ("city", Nip::val("NY"))]),
        );
        let result = q.validate().unwrap();
        assert_eq!(result.total(), 1);
    }

    #[test]
    fn question_matching_an_existing_tuple_is_rejected() {
        let q = WhyNotQuestion::new(
            plan(),
            db(),
            Nip::tuple([("name", Nip::Any), ("city", Nip::val("LA"))]),
        );
        let err = q.validate().unwrap_err();
        assert!(matches!(err, WhyNotError::InvalidQuestion(_)));
    }

    #[test]
    fn question_with_wrong_schema_is_rejected() {
        let q = WhyNotQuestion::new(plan(), db(), Nip::tuple([("nonexistent", Nip::val(1i64))]));
        assert!(q.validate().is_err());
    }

    #[test]
    fn structurally_invalid_nip_is_rejected() {
        let q = WhyNotQuestion::new(plan(), db(), Nip::tuple([("city", Nip::Star)]));
        assert!(q.validate().is_err());
    }

    fn city(city: &str) -> Nip {
        Nip::tuple([("name", Nip::Any), ("city", Nip::val(city))])
    }

    #[test]
    fn a_second_validation_reuses_the_query_result() {
        let q = WhyNotQuestion::new(plan(), db(), city("NY"));
        let first = q.validate().unwrap();
        assert!(Arc::ptr_eq(&first, &q.validate().unwrap()));
    }

    #[test]
    fn a_cloned_database_evaluates_the_query_again() {
        let q = WhyNotQuestion::new(plan(), db(), city("NY"));
        let first = q.validate().unwrap();
        let clone = WhyNotQuestion::new(Arc::clone(&q.plan), Database::clone(&q.db), city("NY"));
        let second = clone.validate().unwrap();
        assert!(!Arc::ptr_eq(&first, &second));
        assert_eq!(first, second);
    }

    #[test]
    fn adding_a_relation_forgets_the_query_result() {
        let mut q = WhyNotQuestion::new(plan(), db(), city("NY"));
        assert_eq!(q.validate().unwrap().total(), 1);
        let person = q.db.schema("person").unwrap().clone();
        let bob = Value::tuple([
            ("name", Value::str("Bob")),
            (
                "address2",
                Value::bag([Value::tuple([
                    ("city", Value::str("NY")),
                    ("year", Value::int(2020)),
                ])]),
            ),
        ]);
        Arc::get_mut(&mut q.db).unwrap().add_relation("person", person, Bag::from_values([bob]));
        // Bob now lives in NY after 2019, so NY is no longer missing.
        assert!(matches!(q.validate(), Err(WhyNotError::InvalidQuestion(_))));
    }

    #[test]
    fn a_remembered_result_still_rejects_a_matching_question() {
        let missing = WhyNotQuestion::new(plan(), db(), city("NY"));
        let result = missing.validate().unwrap();
        let present =
            WhyNotQuestion::new(Arc::clone(&missing.plan), Arc::clone(&missing.db), city("LA"));
        assert!(matches!(present.validate(), Err(WhyNotError::InvalidQuestion(_))));
        assert!(Arc::ptr_eq(&result, &missing.db.evaluate_memoised(&missing.plan).unwrap()));
    }

    #[test]
    fn a_failed_evaluation_is_not_remembered() {
        let q = WhyNotQuestion::new(plan(), db(), city("NY"));
        {
            let guard = whynot_guard::Guard::new(Some(0), None, None);
            let _armed = whynot_guard::arm(&guard);
            assert!(q.validate().is_err());
        }
        assert_eq!(q.validate().unwrap().total(), 1);
    }
}
