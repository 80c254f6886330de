//! Regenerates the paper's tables and figures on the synthetic datasets.
//!
//! ```text
//! cargo run --release -p whynot-bench --bin figures            # everything
//! cargo run --release -p whynot-bench --bin figures -- fig8    # one artifact
//! ```
//!
//! Artifacts: `fig8`, `fig9`, `fig10`, `fig11`, `table3`, `table7`, `table8`,
//! `crime`, and the fast-path A/B pairs `join`, `pipeline`, `parallel`.
//!
//! Besides the stdout tables, the figures and pairs are merged into the
//! machine-readable `BENCH_figures.json` at the workspace root, one group
//! each (override the location with `WHYNOT_BENCH_REPORT`, the sample count
//! with `WHYNOT_BENCH_SAMPLES`).

use std::collections::BTreeSet;

use whynot_baselines::{conseil_explanations, wnpp_explanations};
use whynot_bench::microbench::BenchGroup;
use whynot_bench::{format_runtime_rows, measure_scenario, render_ops, table7, RuntimeRow};
use whynot_core::WhyNotEngine;
use whynot_scenarios::{all_scenarios, crime, dblp, tpch, twitter, Scenario};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let wanted = |name: &str| args.is_empty() || args.iter().any(|a| a == name);

    if wanted("fig8") {
        println!("{}", figure8());
    }
    if wanted("fig9") {
        println!("{}", figure9());
    }
    if wanted("fig10") {
        println!("{}", figure10());
    }
    if wanted("fig11") {
        println!("{}", figure11());
    }
    if wanted("table3") {
        println!("{}", table3());
    }
    if wanted("table7") || wanted("table8") {
        let (t7, t8) = tables_7_and_8();
        if wanted("table7") {
            println!("{t7}");
        }
        if wanted("table8") {
            println!("{t8}");
        }
    }
    if wanted("crime") {
        println!("{}", crime_comparison());
    }
    if wanted("join") {
        whynot_bench::join_group();
    }
    if wanted("pipeline") {
        whynot_bench::pipeline_group();
    }
    if wanted("parallel") {
        whynot_bench::parallel_group();
    }
}

/// Measures each scenario set of a scaling sweep into one group (cases
/// `{scenario}/{scale}/{metric}`) and renders one runtime table per scale.
fn scaling_figure(
    group: &str,
    scales: [usize; 5],
    title: impl Fn(usize) -> String,
    scenarios: impl Fn(usize) -> Vec<Scenario>,
) -> String {
    let mut group = BenchGroup::new(group);
    let mut out = String::new();
    for scale in scales {
        let rows: Vec<RuntimeRow> = scenarios(scale)
            .iter()
            .map(|s| measure_scenario(&mut group, &format!("{}/{scale}", s.name), s))
            .collect();
        out.push_str(&format_runtime_rows(&title(scale), &rows));
    }
    group.finish();
    out
}

/// Figure 8: RP runtime on the DBLP scenarios for growing dataset sizes.
fn figure8() -> String {
    scaling_figure(
        "fig08_dblp_runtime",
        [60, 120, 180, 240, 300],
        |scale| format!("Figure 8 — DBLP runtime, scale {scale} (≈{scale}×5 filler records)"),
        dblp::all_dblp,
    )
}

/// Figure 9: RP runtime on the Twitter scenarios for growing dataset sizes.
fn figure9() -> String {
    scaling_figure(
        "fig09_twitter_runtime",
        [75, 150, 225, 300, 375],
        |scale| format!("Figure 9 — Twitter runtime, scale {scale} tweets (+ planted)"),
        twitter::all_twitter,
    )
}

/// Figure 10: plain query vs. RPnoSA vs. RP on the TPC-H scenarios.
fn figure10() -> String {
    let mut group = BenchGroup::new("fig10_tpch_runtime");
    let rows: Vec<RuntimeRow> = tpch::all_tpch(whynot_scenarios::tpch_scale())
        .iter()
        .filter(|s| !s.name.ends_with('F'))
        .map(|s| measure_scenario(&mut group, &s.name, s))
        .collect();
    group.finish();
    format_runtime_rows("Figure 10 — TPC-H runtime (nested scenarios)", &rows)
}

/// Figure 11: runtime as a function of the number of schema alternatives.
fn figure11() -> String {
    let mut group = BenchGroup::new("fig11_schema_alternatives");
    let mut out = String::new();
    out.push_str("== Figure 11 — runtime vs. number of schema alternatives ==\n");
    out.push_str("scenario  #SA  rp_ms\n");
    let scenarios: Vec<Scenario> = vec![
        dblp::d1(whynot_scenarios::dblp_scale()),
        dblp::d4(whynot_scenarios::dblp_scale()),
        twitter::t_asd(whynot_scenarios::twitter_scale()),
        twitter::t3(whynot_scenarios::twitter_scale()),
        tpch::q3(whynot_scenarios::tpch_scale(), false),
    ];
    for scenario in scenarios {
        // Sweep the number of *offered* attribute alternatives from 0 to all.
        for k in 0..=scenario.alternatives.len().min(4) {
            let mut limited = scenario.clone();
            limited.alternatives = scenario.alternatives[..k].to_vec();
            let question = limited.question();
            let rp = || {
                WhyNotEngine::rp().explain(&question, &limited.alternatives).expect("RP succeeds")
            };
            let rp_ms = group.bench(&format!("{}/{k}", limited.name), &rp);
            out.push_str(&format!(
                "{:<9} {:>4} {:>8.2}\n",
                limited.name,
                rp().schema_alternatives.len(),
                rp_ms
            ));
        }
    }
    group.finish();
    out
}

/// Table 3: operator types that can appear in explanations per formalism.
fn table3() -> String {
    let mut out = String::new();
    out.push_str("== Table 3 — operators that can appear in explanations ==\n");
    out.push_str("algebra   lineage-based            reparameterization-based\n");
    out.push_str("SPC       σ, ⋈                     σ, π (map), ⋈\n");
    out.push_str("SPC+      σ, ⋈                     σ, π (map), ⋈\n");
    out.push_str("NRAB      σ, ⋈ variants, Fᴵ        σ, π, ⋈ variants, ρ, Fᵀ, Fᴵ, Fᴼ, Nᵀ, Nᴿ, γ\n");
    out
}

/// Tables 7 and 8: explanation counts and explanation sets per scenario.
fn tables_7_and_8() -> (String, String) {
    let scenarios = all_scenarios();
    let rows = table7(&scenarios);
    let mut t7 = String::new();
    t7.push_str("== Table 7 — number of explanations (measured vs. paper) ==\n");
    t7.push_str("scenario  WN++  RPnoSA  RP   gold-rank   paper(WN++, RP)\n");
    let mut t8 = String::new();
    t8.push_str("== Table 8 — explanation sets ==\n");
    for ((row, outcome), scenario) in rows.iter().zip(&scenarios) {
        t7.push_str(&format!(
            "{:<9} {:>4} {:>7} {:>4} {:>10} {:>14}\n",
            row.scenario,
            row.counts.0,
            row.counts.1,
            row.counts.2,
            row.gold_position.map(|p| p.to_string()).unwrap_or_else(|| "-".into()),
            format!("({}, {})", row.paper_counts.0, row.paper_counts.1),
        ));
        let render_all = |sets: &[BTreeSet<nrab_algebra::OpId>]| {
            sets.iter().map(|s| render_ops(scenario, s)).collect::<Vec<_>>().join(", ")
        };
        t8.push_str(&format!(
            "{}:\n  WN++   : {}\n  RPnoSA : {}\n  RP     : {}\n  paper RP: {}\n",
            row.scenario,
            render_all(&outcome.wnpp),
            render_all(&outcome.rp_no_sa),
            render_all(&outcome.rp),
            scenario
                .paper_rp
                .iter()
                .map(|labels| format!("{{{}}}", labels.join(", ")))
                .collect::<Vec<_>>()
                .join(", "),
        ));
    }
    (t7, t8)
}

/// The crime-scenario comparison of Section 6.4 (Why-Not vs. Conseil vs. RP).
fn crime_comparison() -> String {
    let mut out = String::new();
    out.push_str("== Crime scenarios C1–C3 — Why-Not vs. Conseil vs. RP ==\n");
    for scenario in crime::all_crime() {
        let question = scenario.question();
        let whynot = wnpp_explanations(&scenario.plan, &scenario.db, &scenario.why_not)
            .expect("Why-Not runs");
        let conseil = conseil_explanations(&scenario.plan, &scenario.db, &scenario.why_not)
            .expect("Conseil runs");
        let rp = WhyNotEngine::rp().explain(&question, &scenario.alternatives).expect("RP runs");
        let render_all = |sets: &[BTreeSet<nrab_algebra::OpId>]| {
            sets.iter().map(|s| render_ops(&scenario, s)).collect::<Vec<_>>().join(", ")
        };
        out.push_str(&format!(
            "{}:\n  Why-Not : {}\n  Conseil : {}\n  RP      : {}\n",
            scenario.name,
            render_all(&whynot),
            render_all(&conseil),
            render_all(&rp.operator_sets()),
        ));
    }
    out
}
