//! Quickstart: the paper's running example (Figure 1 / Examples 1–19).
//!
//! Builds the person table, runs the city/worker query, asks why NY is
//! missing, and prints the ranked explanations.

use whynot_nested::algebra::expr::{CmpOp, Expr};
use whynot_nested::algebra::{evaluate, PlanBuilder};
use whynot_nested::core::{AttributeAlternative, WhyNotEngine, WhyNotQuestion};
use whynot_nested::data::Nip;
use whynot_nested::datagen::person_database;
use whynot_nested::service::ExplanationReport;

fn main() {
    let db = person_database();
    // N^R_{name→nList}(π_{name,city}(σ_{year≥2019}(F^I_{address2}(person))))
    let plan = PlanBuilder::table("person")
        .inner_flatten("address2", None)
        .select(Expr::attr_cmp("year", CmpOp::Ge, 2019i64))
        .project_attrs(&["name", "city"])
        .relation_nest(vec!["name"], "nList")
        .build()
        .expect("plan builds");

    println!("query:\n{plan}");
    println!("result: {}", evaluate(&plan, &db).expect("query evaluates"));

    // Why is ⟨city: NY, nList: {{?, *}}⟩ missing?
    let why_not =
        Nip::tuple([("city", Nip::val("NY")), ("nList", Nip::bag([Nip::Any, Nip::Star]))]);
    println!("why-not question: {why_not}\n");

    let question = WhyNotQuestion::new(plan.clone(), db, why_not);
    let alternatives = [AttributeAlternative::new("person", "address2", "address1")];
    let answer = WhyNotEngine::rp().explain(&question, &alternatives).expect("explanation");
    print!("{}", ExplanationReport::from_answer(&answer).render_text());
}
