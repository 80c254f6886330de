//! The observability contract, end to end: profiling is a pure *observer*.
//!
//! * **Determinism across thread counts** — the deterministic part of a
//!   profile report ([`whynot_obs::ProfileReport::signature`]: span structure,
//!   counts, counters; wall times and meta excluded) is byte-identical at
//!   `WHYNOT_THREADS` 1, 2, and 8.
//! * **Equivalence on/off** — query answers, generalized traces (and the
//!   trace-size counter), and rendered wire reports are bit-identical with
//!   profiling enabled vs disabled, over every case of the shared harness.

mod harness;

use harness::{run, scenario_case, Aspect, Cases, Config, Suite, REFERENCE};
use whynot_scenarios::running;

static PROFILED: Suite = Suite::new(|| {
    [1, 2, 8].map(|threads| Config { profiled: true, threads, ..REFERENCE }).to_vec()
});

#[test]
fn profile_signatures_are_identical_across_thread_counts() {
    PROFILED.assert_clean(Aspect::Profile, Cases::All);
}

#[test]
fn query_answers_are_unchanged_by_profiling() {
    PROFILED.assert_clean(Aspect::Answer, Cases::All);
}

#[test]
fn generalized_traces_are_unchanged_by_profiling() {
    PROFILED.assert_clean(Aspect::Trace, Cases::All);
}

#[test]
fn wire_reports_are_unchanged_by_profiling() {
    PROFILED.assert_clean(Aspect::Report, Cases::All);
}

/// Profiling sessions are scoped per thread: a fresh session right after a
/// profiled request starts from an empty collector.
#[test]
fn sessions_do_not_leak_spans() {
    let case = scenario_case(running::running_example());
    let (_, profile) = run(&case, Config { profiled: true, ..REFERENCE });
    assert!(profile.expect("profiled").root.span_nodes() > 0);
    let (_, empty) = whynot_obs::profile(|| ());
    assert_eq!(empty.root.span_nodes(), 0, "{}", empty.signature());
}
