//! Debugging a bibliography query: why does an author with at least five
//! articles show up with none? (Scenario D2 — the flatten picked the
//! `title.bibtex` attribute, which is null for almost every record.)

use whynot_nested::core::WhyNotEngine;
use whynot_nested::scenarios::dblp;
use whynot_nested::service::ExplanationReport;

fn main() {
    let scenario = dblp::d2(150);
    println!("scenario {}: {}", scenario.name, scenario.description);
    println!("query:\n{}", scenario.plan);
    println!("why-not: {}\n", scenario.why_not);
    let answer = WhyNotEngine::rp()
        .explain(&scenario.question(), &scenario.alternatives)
        .expect("explanation");
    print!("{}", ExplanationReport::from_answer(&answer).render_text());
    println!("paper's expected explanations: {:?}", scenario.paper_rp);
}
