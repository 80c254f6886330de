//! The differential contract of every physical execution choice, end to end:
//! every case of the shared harness gives the same answer, generalized trace,
//! and compact wire report with both the hash join and the tracer's fused
//! replay on as the reference run with both off.
//!
//! The per-knob suites (`join_equivalence`, `pipeline_equivalence`,
//! `obs_equivalence`) check the configurations that turn on at most one
//! toggle; this suite checks the rest, so the four together cover the
//! 4-configuration product (hash join × pipelining) once.

mod harness;

use harness::{Aspect, Cases, Config, Suite};

/// The configuration that turns on both toggles, profiled.
static EVERY_COMBINATION: Suite =
    Suite::new(|| vec![Config { hash_join: true, pipelining: true, profiled: true }]);

#[test]
fn every_option_combination_matches_the_reference() {
    for aspect in
        [Aspect::Answer, Aspect::Trace, Aspect::Report, Aspect::Annotation, Aspect::Profile]
    {
        EVERY_COMBINATION.assert_clean(aspect, Cases::All);
    }
}
