//! The differential contract of every physical execution choice, end to end:
//! every case of the shared harness gives the same answer, generalized trace,
//! and compact wire report under every combination of the columnar layout,
//! the partitioned hash join, and the tracer's fused replay, at
//! `WHYNOT_THREADS` ∈ {1, 2, 8}, as the reference run with all three off at
//! one thread.
//!
//! The per-knob suites (`columnar_equivalence`, `join_equivalence`,
//! `pipeline_equivalence`, `parallel_determinism`, `obs_equivalence`) check
//! the configurations that turn on at most one toggle; this suite checks the
//! rest, so the six together cover the full cross product once.

mod harness;

use harness::{Aspect, Cases, Config, Suite};

/// Every configuration that turns on two or more toggles, at every thread
/// count. The all-on runs are profiled, and their profile signatures must
/// agree across thread counts.
fn combinations() -> Vec<Config> {
    let mut configs = Vec::new();
    for threads in [1, 2, 8] {
        for bits in [3u8, 5, 6, 7] {
            let (columnar, hash_join, pipelining) = (bits & 1 != 0, bits & 2 != 0, bits & 4 != 0);
            let profiled = bits == 7;
            configs.push(Config { columnar, hash_join, pipelining, threads, profiled });
        }
    }
    configs
}

static EVERY_COMBINATION: Suite = Suite::new(combinations);

#[test]
fn every_option_combination_matches_the_reference() {
    for aspect in [Aspect::Answer, Aspect::Trace, Aspect::Report, Aspect::Profile] {
        EVERY_COMBINATION.assert_clean(aspect, Cases::All);
    }
}
