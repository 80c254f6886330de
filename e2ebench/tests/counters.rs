//! The deterministic counters of a traced run repeat exactly: across two
//! runs of the same schedule and across pool widths 1 and 2.

use std::collections::BTreeMap;
use std::path::PathBuf;

use whynot_e2ebench::run::{self, Options};
use whynot_e2ebench::workload::Workload;

/// Runs a fixed, short traced schedule of `workload` at pool width `width`.
fn traced(workload: Workload, requests: usize, width: usize) -> run::RunResult {
    let exe = PathBuf::from(env!("CARGO_BIN_EXE_e2ebench"));
    let mut options = Options::new(workload, 7, 1.0, true, exe);
    options.requests = Some(requests);
    options.pool_width = Some(width);
    let result = run::run(&options).unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
    assert!(result.correct, "{}: {:?}", workload.name(), result.problems);
    assert_eq!(result.failed, 0, "{}", workload.name());
    result
}

fn metric(result: &run::RunResult, name: &str) -> f64 {
    result.metrics.iter().find(|m| m.name == name).map(|m| m.value).expect(name)
}

fn check(workload: Workload, requests: usize, hit_rate: f64) {
    let mut seen: Option<BTreeMap<&'static str, u64>> = None;
    for width in [1, 2, 1, 2] {
        let result = traced(workload, requests, width);
        assert_eq!(metric(&result, "service.cache.hit_rate"), hit_rate, "{}", workload.name());
        match &seen {
            None => seen = Some(result.counters),
            Some(first) => assert_eq!(
                &result.counters,
                first,
                "{} counters changed (pool width {width})",
                workload.name()
            ),
        }
    }
    let counters = seen.expect("four runs");
    for name in ["sas", "traced_tuples", "candidates", "explanations", "report_bytes"] {
        assert!(counters[name] > 0, "{}: {name} is 0", workload.name());
    }
    let (hits, misses) = (counters["cache_hits"], counters["cache_misses"]);
    if hit_rate == 1.0 {
        assert_eq!((hits, misses), (requests as u64, 0), "{}", workload.name());
    } else {
        assert_eq!((hits, misses), (0, requests as u64), "{}", workload.name());
    }
    // Only `http-dblp` requests carry a limit, so only they arm the guard.
    let armed = workload == Workload::HttpDblp;
    assert_eq!(counters["guard_checks"] > 0, armed, "{}", workload.name());
}

// The pool width is process-global, so the workloads run one after another
// in a single test.
#[test]
fn counters_repeat_across_runs_and_pool_widths() {
    check(Workload::HotDblp, 20, 1.0);
    check(Workload::ColdPaper, 32, 0.0);
    check(Workload::HttpDblp, 20, 1.0);
}
