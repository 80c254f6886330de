//! The observability contract, end to end: profiling is a pure *observer*.
//!
//! * **Determinism** — every case records spans, and the deterministic part
//!   of its profile report ([`whynot_obs::ProfileReport::signature`]: span
//!   structure, counts, counters; wall times and meta excluded) is
//!   byte-identical when the case runs again.
//! * **Equivalence on/off** — query answers, generalized traces (and the
//!   trace-size counter), and rendered wire reports are bit-identical with
//!   profiling enabled vs disabled, over every case of the shared harness.

mod harness;

use harness::{run, scenario_case, Aspect, Cases, Config, Suite, REFERENCE};
use whynot_scenarios::running;

static PROFILED: Suite = Suite::new(|| vec![Config { profiled: true, ..REFERENCE }]);

#[test]
fn profile_signatures_are_identical_across_runs() {
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
