//! The differential contract of every physical execution choice, end to end:
//! every case of the shared harness gives the same answer, generalized trace,
//! and compact wire report with the hash join on and profiling active as the
//! reference run with the hash join off, unprofiled. Under both, every
//! case's lineage keeps the trace's lineage contract.
//!
//! The per-toggle suites (`join_equivalence`, `obs_equivalence`) check the
//! configurations that turn on one toggle; this suite checks the one that
//! turns on both, so the three together cover the 4-configuration product
//! (hash join × profiling) once. Beside them, every case's `⟦Q⟧_D` is
//! pinned by digest, so a change to the evaluator itself shows too.

mod harness;

use harness::{Aspect, Cases, Config, Suite};

/// The configuration that turns on both toggles.
static EVERY_COMBINATION: Suite = Suite::new(|| vec![Config { hash_join: true, profiled: true }]);

#[test]
fn every_option_combination_matches_the_reference() {
    for aspect in [
        Aspect::Answer,
        Aspect::Trace,
        Aspect::Report,
        Aspect::Annotation,
        Aspect::Lineage,
        Aspect::Profile,
    ] {
        EVERY_COMBINATION.assert_clean(aspect, Cases::All);
    }
}

/// `⟦Q⟧_D` of every harness case in `harness::scenarios()` order, pinned as
/// an FNV-1a digest of the answer bag's `Debug` rendering (canonical entry
/// order, every field and multiplicity, floats to the last bit). The
/// suites above compare configurations of one evaluator with each other;
/// this pins what that evaluator answers.
const ANSWER_DIGESTS: &[(&str, u64)] = &[
    ("RUN", 0x8622da745d9b2ef5),
    ("D1", 0xefb597f44da5d311),
    ("D2", 0x9d3cdbdf4948bb7a),
    ("D3", 0x357552eadb1d2acb),
    ("D4", 0xefb597f44da5d311),
    ("D5", 0xa17eb29ea5cbd15c),
    ("T1", 0xefb597f44da5d311),
    ("T2", 0xefb597f44da5d311),
    ("T3", 0xefb597f44da5d311),
    ("T4", 0xefb597f44da5d311),
    ("TASD", 0xdcf182ad4121e199),
    ("Q1", 0x85e7c862664d9dfe),
    ("Q3", 0x6a8a3f94e1c9540a),
    ("Q4", 0xefb597f44da5d311),
    ("Q6", 0x95ad81572f1b4dae),
    ("Q10", 0xefb597f44da5d311),
    ("Q13", 0xab746d3f5826abe8),
    ("Q1F", 0x85e7c862664d9dfe),
    ("Q3F", 0x6a8a3f94e1c9540a),
    ("Q4F", 0xefb597f44da5d311),
    ("Q6F", 0x95ad81572f1b4dae),
    ("Q10F", 0xefb597f44da5d311),
    ("Q13F", 0xc8b11c3197ff78e7),
    ("C1", 0x16605b47fe67cfd4),
    ("C2", 0x92e3224761f37741),
    ("C3", 0x0b29f2e47c4d983e),
    ("join Inner/equi", 0x4096df17187c6850),
    ("join Inner/mixed", 0xfdb074bf73f3f1eb),
    ("join Inner/nonequi", 0x4a14c834307cd519),
    ("join Left/equi", 0x94acc19b7f9ae6d8),
    ("join Left/mixed", 0x4965265341dfebfe),
    ("join Left/nonequi", 0xe075841336864734),
    ("join Right/equi", 0x4096df17187c6850),
    ("join Right/mixed", 0xef00469bb326b623),
    ("join Right/nonequi", 0x4a14c834307cd519),
    ("join Full/equi", 0x94acc19b7f9ae6d8),
    ("join Full/mixed", 0xcf640b7b4cf1c50c),
    ("join Full/nonequi", 0xe075841336864734),
];

/// FNV-1a over `text`.
fn fnv1a(text: &str) -> u64 {
    text.bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

#[test]
fn every_answer_matches_its_pinned_digest() {
    let found: Vec<(String, u64)> = harness::scenarios()
        .iter()
        .map(|case| {
            let (plan, db) = match case {
                harness::Case::WhyNot { question, .. } => (&*question.plan, &*question.db),
                harness::Case::Traced { plan, db, .. } => (plan, db),
            };
            let answer = nrab_algebra::evaluate(plan, db).expect("every harness plan evaluates");
            (case.name().to_string(), fnv1a(&format!("{answer:?}")))
        })
        .collect();
    let pinned: Vec<(String, u64)> =
        ANSWER_DIGESTS.iter().map(|(name, digest)| (name.to_string(), *digest)).collect();
    if found != pinned {
        let lines: Vec<String> =
            found.iter().map(|(name, digest)| format!("    ({name:?}, {digest:#018x}),")).collect();
        panic!("answers differ from the pinned digests; found:\n{}", lines.join("\n"));
    }
}
