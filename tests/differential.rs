//! The differential contract of every physical execution choice, end to end:
//! every case of the shared harness gives the same answer, generalized trace,
//! and compact wire report under every combination of the partitioned hash
//! join and the tracer's fused replay, at `WHYNOT_THREADS` ∈ {1, 2, 8}, as
//! the reference run with both off at one thread.
//!
//! The per-knob suites (`join_equivalence`, `pipeline_equivalence`,
//! `parallel_determinism`, `obs_equivalence`) check the configurations that
//! turn on at most one toggle; this suite checks the rest, so the five
//! together cover the 12-configuration product (hash join × pipelining ×
//! {1, 2, 8} threads) once.

mod harness;

use harness::{Aspect, Cases, Config, Suite};

/// Every configuration that turns on both toggles, at every thread count.
/// These all-on runs are profiled, and their profile signatures must agree
/// across thread counts.
fn combinations() -> Vec<Config> {
    [1, 2, 8]
        .map(|threads| Config { hash_join: true, pipelining: true, threads, profiled: true })
        .to_vec()
}

static EVERY_COMBINATION: Suite = Suite::new(combinations);

#[test]
fn every_option_combination_matches_the_reference() {
    for aspect in [Aspect::Answer, Aspect::Trace, Aspect::Report, Aspect::Profile] {
        EVERY_COMBINATION.assert_clean(aspect, Cases::All);
    }
}
