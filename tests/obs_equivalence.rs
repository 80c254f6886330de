//! The observability contract, end to end: profiling is a pure *observer*.
//! Each test asserts one aspect of the shared harness's differences between
//! the unprofiled reference run and the profiled run of every case
//! (`tests/differential.rs` asserts all of them at once).
//!
//! * **Determinism** — every case records spans, and the deterministic part
//!   of its profile report ([`whynot_obs::ProfileReport::signature`]: span
//!   structure, counts, counters; wall times and meta excluded) is
//!   byte-identical when the case runs again.
//! * **Equivalence on/off** — query answers, generalized traces (and the
//!   trace-size counter), and rendered wire reports are bit-identical with
//!   profiling enabled vs disabled.

mod harness;

use harness::{assert_clean, Aspect};

#[test]
fn profile_signatures_are_identical_across_runs() {
    assert_clean(Aspect::Profile);
}

#[test]
fn query_answers_are_unchanged_by_profiling() {
    assert_clean(Aspect::Answer);
}

#[test]
fn generalized_traces_are_unchanged_by_profiling() {
    assert_clean(Aspect::Trace);
}

#[test]
fn wire_reports_are_unchanged_by_profiling() {
    assert_clean(Aspect::Report);
}
