//! The differential contract of every physical execution choice, end to end:
//! every case of the shared harness gives the same answer, generalized trace,
//! and compact wire report with the hash join on and profiling active as the
//! reference run with the hash join off, unprofiled. Under both, every
//! case's lineage keeps the trace's lineage contract.
//!
//! The per-toggle suites (`join_equivalence`, `obs_equivalence`) check the
//! configurations that turn on one toggle; this suite checks the one that
//! turns on both, so the three together cover the 4-configuration product
//! (hash join × profiling) once.

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
