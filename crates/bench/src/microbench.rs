//! A minimal, dependency-free micro-benchmark sampler.
//!
//! The workspace is built in hermetic environments without network access, so
//! the figure benchmarks cannot use `criterion`. This module provides the
//! small subset the harness needs: named groups, single cases, interleaved
//! A/B pairs, and a median/IQR report on stdout.
//!
//! Besides the stdout table, every finished group is merged into a
//! machine-readable report (`BENCH_figures.json` at the workspace root by
//! default, override with `WHYNOT_BENCH_REPORT`), so perf trajectories can be
//! tracked across commits. Merging is by group name: re-running one artifact
//! of the `figures` binary refreshes its group and leaves the others
//! untouched.

use std::time::Instant;

use whynot_service::json::Json;

/// Version of the report schema written by [`BenchGroup::finish`].
const REPORT_VERSION: i64 = 2;

/// Number of measured samples per case (override with `WHYNOT_BENCH_SAMPLES`).
fn sample_count() -> usize {
    std::env::var("WHYNOT_BENCH_SAMPLES").ok().and_then(|s| s.parse().ok()).unwrap_or(10).max(1)
}

/// Default location of the machine-readable report: the workspace root.
fn report_path() -> std::path::PathBuf {
    std::env::var_os("WHYNOT_BENCH_REPORT").map(std::path::PathBuf::from).unwrap_or_else(|| {
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_figures.json")
    })
}

/// One measured case of a benchmark group.
#[derive(Debug, Clone)]
struct CaseResult {
    /// Case name (unique within its group).
    pub name: String,
    /// Median wall-clock time over the measured samples, in milliseconds.
    pub median_ms: f64,
    /// First quartile of the samples, in milliseconds.
    pub q1_ms: f64,
    /// Third quartile of the samples, in milliseconds.
    pub q3_ms: f64,
}

impl CaseResult {
    fn from_samples(name: &str, times_ms: &[f64]) -> Self {
        let [q1_ms, median_ms, q3_ms] = quartiles(times_ms);
        let case = CaseResult { name: name.to_string(), median_ms, q1_ms, q3_ms };
        println!("{:<40} {median_ms:>10.3} {q1_ms:>10.3} {q3_ms:>10.3}", case.name);
        case
    }
}

/// The first quartile, median and third quartile of `samples`, by linear
/// interpolation between the closest ranks.
fn quartiles(samples: &[f64]) -> [f64; 3] {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let at = |p: f64| {
        let rank = p * (sorted.len() - 1) as f64;
        let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
        sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
    };
    [at(0.25), at(0.5), at(0.75)]
}

/// Wall-clock time of one call, in milliseconds. The result is dropped
/// inside the timed region, like every sample of the group.
fn time_ms<T>(f: &mut impl FnMut() -> T) -> f64 {
    let start = Instant::now();
    drop(f());
    start.elapsed().as_secs_f64() * 1e3
}

/// A named group of benchmark cases.
pub struct BenchGroup {
    name: String,
    samples: usize,
    cases: Vec<CaseResult>,
}

impl BenchGroup {
    /// Creates a group and prints its header.
    pub fn new(name: impl Into<String>) -> Self {
        let name = name.into();
        println!("== {name} ==");
        println!("{:<40} {:>10} {:>10} {:>10}", "case", "median_ms", "q1_ms", "q3_ms");
        BenchGroup { name, samples: sample_count(), cases: Vec::new() }
    }

    /// Measures one case: one warm-up call, then `samples` timed calls.
    /// Returns the median in milliseconds.
    pub fn bench<T>(&mut self, case: &str, mut f: impl FnMut() -> T) -> f64 {
        drop(f());
        let times: Vec<f64> = (0..self.samples).map(|_| time_ms(&mut f)).collect();
        let result = CaseResult::from_samples(case, &times);
        let median = result.median_ms;
        self.cases.push(result);
        median
    }

    /// Measures an A/B pair in one process: one warm-up call of each side,
    /// then `samples` rounds that alternate which side runs first (A,B, then
    /// B,A, then A,B, …), so drift in the machine's state hits both sides
    /// alike.
    pub fn pair<A, B>(
        &mut self,
        a: &str,
        mut fa: impl FnMut() -> A,
        b: &str,
        mut fb: impl FnMut() -> B,
    ) {
        drop(fa());
        drop(fb());
        let (mut times_a, mut times_b) = (Vec::new(), Vec::new());
        for round in 0..self.samples {
            if round % 2 == 0 {
                times_a.push(time_ms(&mut fa));
                times_b.push(time_ms(&mut fb));
            } else {
                times_b.push(time_ms(&mut fb));
                times_a.push(time_ms(&mut fa));
            }
        }
        self.cases.push(CaseResult::from_samples(a, &times_a));
        self.cases.push(CaseResult::from_samples(b, &times_b));
    }

    /// Prints the group footer and merges the group into the JSON report.
    pub fn finish(self) {
        println!("== end {} ==\n", self.name);
        let path = report_path();
        if let Err(err) = merge_into_report(&path, &self) {
            eprintln!("warning: could not update {}: {err}", path.display());
        }
    }
}

fn group_to_json(group: &BenchGroup) -> Json {
    let cpus = std::thread::available_parallelism().map(usize::from).unwrap_or(1);
    Json::object([
        ("name", Json::str(group.name.clone())),
        ("samples", Json::Int(group.samples as i64)),
        ("cpus", Json::Int(cpus as i64)),
        (
            "cases",
            Json::array(group.cases.iter().map(|c| {
                Json::object([
                    ("name", Json::str(c.name.clone())),
                    ("median_ms", Json::Float(c.median_ms)),
                    ("q1_ms", Json::Float(c.q1_ms)),
                    ("q3_ms", Json::Float(c.q3_ms)),
                ])
            })),
        ),
    ])
}

/// Merges a finished group into the report file: groups are keyed by name,
/// the incoming group replaces a stale one with the same name, and the group
/// list is kept sorted for stable diffs. Groups of an older report version
/// are dropped rather than mixed with this schema.
fn merge_into_report(path: &std::path::Path, group: &BenchGroup) -> std::io::Result<()> {
    let mut groups: Vec<(String, Json)> = Vec::new();
    if let Ok(existing) = std::fs::read_to_string(path) {
        if let Ok(json) = Json::parse(&existing) {
            let current = json.get("version").and_then(Json::as_i64) == Some(REPORT_VERSION);
            if let Some(list) = json.get("groups").and_then(Json::as_array).filter(|_| current) {
                for g in list {
                    if let Some(name) = g.get("name").and_then(Json::as_str) {
                        groups.push((name.to_string(), g.clone()));
                    }
                }
            }
        }
    }
    groups.retain(|(name, _)| name != &group.name);
    groups.push((group.name.clone(), group_to_json(group)));
    groups.sort_by(|a, b| a.0.cmp(&b.0));
    let report = Json::object([
        ("version", Json::Int(REPORT_VERSION)),
        ("groups", Json::array(groups.into_iter().map(|(_, g)| g))),
    ]);
    std::fs::write(path, report.to_pretty() + "\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    fn group(name: &str, samples: usize) -> BenchGroup {
        BenchGroup { name: name.to_string(), samples, cases: Vec::new() }
    }

    #[test]
    fn quartiles_interpolate_between_ranks() {
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), [2.0, 3.0, 4.0]);
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0]), [1.75, 2.5, 3.25]);
        assert_eq!(quartiles(&[7.0]), [7.0, 7.0, 7.0]);
    }

    #[test]
    fn pair_alternates_which_side_runs_first() {
        let calls = RefCell::new(Vec::new());
        let mut g = group("pair_order", 4);
        g.pair("a", || calls.borrow_mut().push('a'), "b", || calls.borrow_mut().push('b'));
        // Warm-up a, b; then rounds AB, BA, AB, BA.
        assert_eq!(
            String::from_iter(calls.into_inner()),
            "ab".to_owned() + "ab" + "ba" + "ab" + "ba"
        );
        let names: Vec<&str> = g.cases.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["a", "b"]);
    }

    #[test]
    fn bench_records_cases_and_merges_reports() {
        let dir = std::env::temp_dir().join(format!("whynot-bench-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("report.json");
        // A stale version-1 report is replaced, not merged into.
        std::fs::write(&path, r#"{"version": 1, "groups": [{"name": "stale", "cases": []}]}"#)
            .unwrap();

        let mut unit = group("unit_test_group", 3);
        let median = unit.bench("noop", || 1 + 1);
        assert!(median >= 0.0);
        unit.pair("left", || 1, "right", || 2);
        assert_eq!(unit.cases.len(), 3);
        merge_into_report(&path, &unit).unwrap();

        // Merging a second group keeps the first; re-merging replaces in place.
        let mut other = group("another_group", 1);
        other.bench("case", || ());
        merge_into_report(&path, &other).unwrap();
        merge_into_report(&path, &other).unwrap();

        let json = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(json.get("version").and_then(Json::as_i64), Some(REPORT_VERSION));
        let groups = json.get("groups").and_then(Json::as_array).unwrap();
        let names: Vec<&str> =
            groups.iter().filter_map(|g| g.get("name").and_then(Json::as_str)).collect();
        assert_eq!(names, vec!["another_group", "unit_test_group"]);
        let unit = &groups[1];
        assert_eq!(unit.get("samples").and_then(Json::as_i64), Some(3));
        assert!(unit.get("cpus").and_then(Json::as_i64).is_some_and(|c| c >= 1));
        let cases = unit.get("cases").and_then(Json::as_array).unwrap();
        assert_eq!(cases.len(), 3);
        for case in cases {
            let field = |key| case.get(key).and_then(Json::as_f64).unwrap();
            assert!(field("q1_ms") <= field("median_ms") && field("median_ms") <= field("q3_ms"));
        }

        std::fs::remove_dir_all(&dir).ok();
    }
}
