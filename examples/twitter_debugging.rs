//! Debugging a tweet-analytics query: why is a known US-based fan missing
//! from the BTS query? (Scenario T2 — the country lives in `user.location`,
//! not `place.country`.) Also compares against the lineage-based baseline.

use whynot_nested::baselines::wnpp_explanations;
use whynot_nested::core::WhyNotEngine;
use whynot_nested::scenarios::twitter;
use whynot_nested::service::ExplanationReport;

fn main() {
    let scenario = twitter::t2(200);
    println!("scenario {}: {}", scenario.name, scenario.description);
    println!("why-not: {}\n", scenario.why_not);

    let wnpp =
        wnpp_explanations(&scenario.plan, &scenario.db, &scenario.why_not).expect("baseline runs");
    println!("WN++ (lineage-based baseline) blames operator sets: {wnpp:?}\n");

    let answer = WhyNotEngine::rp()
        .explain(&scenario.question(), &scenario.alternatives)
        .expect("explanation");
    print!("{}", ExplanationReport::from_answer(&answer).render_text());
}
