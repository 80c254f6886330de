#!/usr/bin/env python3
"""Validates a BENCH_figures.json report and enforces the CI perf gates.

Usage: validate_bench.py [REPORT [BASELINE]] [--profile FILE]

REPORT (default BENCH_figures.json) is the freshly measured report.
BASELINE, when given, is the *committed* report snapshotted before the bench
run; the perf-regression gate compares the re-measured `value_layer`,
`join`, and `pipeline` groups against it and fails on a >2x slowdown of any
case. End-to-end latency and throughput are not gated here: the `e2ebench`
job checks every answer, and `BENCHMARK.json` bounds its workloads.

--profile FILE, when given, is a profile report exported by
`whynot ... --profile-out FILE`; it is validated against the ProfileReport
wire schema (wall_ns / meta / recursive span tree).

Gates that compare two runs on the *same* machine are enforced everywhere;
gates that need real cores (the threads1-vs-threads4 parallel speedup) or
that compare against a baseline measured elsewhere (the regression gate) or
in a separate bench process (the obs instrumentation-overhead gate) are
only enforced on runners with >= 4 CPUs and print a notice otherwise.
"""

import json
import os
import sys


def load(path):
    with open(path) as f:
        return json.load(f)


def validate_span(span, path):
    """Checks one node of an exported profile span tree, recursively."""
    assert isinstance(span, dict), f"{path}: span must be an object"
    for key in ("name", "count", "total_ns", "counters", "children"):
        assert key in span, f"{path}: span lacks `{key}`: {sorted(span)}"
    assert isinstance(span["name"], str) and span["name"], f"{path}: bad span name"
    for key in ("count", "total_ns"):
        assert isinstance(span[key], int) and span[key] >= 0, (path, key, span[key])
    assert isinstance(span["counters"], dict), f"{path}: counters must be an object"
    for name, value in span["counters"].items():
        assert isinstance(value, int) and value >= 0, (path, name, value)
    assert isinstance(span["children"], list), f"{path}: children must be an array"
    nodes = 1 if span["count"] > 0 else 0
    for child in span["children"]:
        nodes += validate_span(child, f"{path}/{child.get('name', '?')}")
    return nodes


def validate_profile(path):
    """Validates an exported ProfileReport against the wire schema."""
    profile = load(path)
    for key in ("wall_ns", "meta", "root"):
        assert key in profile, f"profile lacks `{key}`: {sorted(profile)}"
    assert isinstance(profile["wall_ns"], int) and profile["wall_ns"] >= 0
    assert isinstance(profile["meta"], dict), "profile `meta` must be an object"
    for name, value in profile["meta"].items():
        assert isinstance(value, int) and value >= 0, f"meta `{name}` must be a u64"
    root = profile["root"]
    assert root["name"] == "profile", f"synthetic root must be named `profile`: {root['name']}"
    assert root["count"] == 0, "synthetic root must have count 0"
    nodes = validate_span(root, "root")
    assert nodes > 0, "exported profile recorded no spans"
    assert "threads" in profile["meta"], "profile meta lacks the thread count"
    print(
        f"profile {path} OK: {nodes} span nodes, "
        f"{profile['wall_ns'] / 1e6:.3f} ms wall, threads={profile['meta']['threads']}"
    )


def main():
    argv = sys.argv[1:]
    profile_path = None
    if "--profile" in argv:
        at = argv.index("--profile")
        profile_path = argv[at + 1]
        argv = argv[:at] + argv[at + 2 :]
    report_path = argv[0] if len(argv) > 0 else "BENCH_figures.json"
    baseline_path = argv[1] if len(argv) > 1 else None

    report = load(report_path)
    assert report["version"] == 1, "unexpected report version"
    groups = {g["name"]: g for g in report["groups"]}
    assert groups, "report has no groups"
    for name in (
        "value_layer",
        "parallel",
        "join",
        "pipeline",
        "obs",
        "guard",
    ):
        assert name in groups, f"{name} group missing: {sorted(groups)}"
    for group in report["groups"]:
        assert group["cases"], f"group {group['name']} has no cases"
        for case in group["cases"]:
            for key in ("mean_ms", "min_ms", "max_ms"):
                assert isinstance(case[key], (int, float)), (group["name"], case)
            assert case["min_ms"] <= case["max_ms"] + 1e-9, (group["name"], case)

    def cases(group_name):
        return {c["name"]: c for c in groups[group_name]["cases"]}

    cpus = os.cpu_count() or 1

    # Parallel speedup gate: threads4 must beat threads1 on multi-core
    # runners. The bit-identity of parallel and serial results is asserted
    # inside the bench itself on every machine.
    parallel = cases("parallel")
    for case in (
        "dblp_d4_trace/threads1",
        "dblp_d4_trace/threads4",
        "service_batch8/threads1",
        "service_batch8/threads4",
    ):
        assert case in parallel, f"parallel group lacks {case}: {sorted(parallel)}"
    for workload in ("dblp_d4_trace", "service_batch8"):
        serial = parallel[f"{workload}/threads1"]["min_ms"]
        threaded = parallel[f"{workload}/threads4"]["min_ms"]
        speedup = serial / threaded if threaded > 0 else float("inf")
        print(
            f"{workload}: {serial:.2f} ms serial / {threaded:.2f} ms "
            f"at 4 threads = {speedup:.2f}x (cpus={cpus})"
        )
        if cpus >= 4:
            assert speedup >= 1.5, (
                f"{workload}: expected >= 1.5x speedup at 4 threads "
                f"on a {cpus}-cpu runner, got {speedup:.2f}x"
            )
        else:
            print(f"NOTICE: parallel speedup gate skipped on a {cpus}-cpu runner (< 4)")

    # Hash-join speedup gate: the partitioned hash join must beat the block
    # nested loop (the physical plan the evaluator ran before the shared join
    # core) on the equi-join case. Both sides are measured in the same
    # process, so this holds regardless of core count. The traced equi join
    # is reported for information.
    join = cases("join")
    for case in (
        "equi_join/nested_loop",
        "equi_join/hash",
        "mixed_join/nested_loop",
        "mixed_join/hash",
        "nonequi_join/nested_loop",
        "equi_trace/nested_loop",
        "equi_trace/hash",
    ):
        assert case in join, f"join group lacks {case}: {sorted(join)}"
    loop_ms = join["equi_join/nested_loop"]["min_ms"]
    hash_ms = join["equi_join/hash"]["min_ms"]
    speedup = loop_ms / hash_ms if hash_ms > 0 else float("inf")
    print(f"equi_join: {loop_ms:.3f} ms nested loop / {hash_ms:.3f} ms hash = {speedup:.2f}x")
    assert speedup >= 1.5, f"equi_join: expected >= 1.5x over the nested loop, got {speedup:.2f}x"
    trace_loop = join["equi_trace/nested_loop"]["min_ms"]
    trace_hash = join["equi_trace/hash"]["min_ms"]
    trace_speedup = trace_loop / trace_hash if trace_hash > 0 else float("inf")
    print(
        f"equi_trace: {trace_loop:.3f} ms nested loop / {trace_hash:.3f} ms hash "
        f"= {trace_speedup:.2f}x (informational)"
    )

    # Pipeline pair: the tracer's fused replay of 1:1 operator runs against
    # its operator-at-a-time replay on the DBLP D4 whole-plan trace.
    # Byte-identity of the two traces is asserted inside the bench itself;
    # the speedup is reported for information, and both cases sit in the
    # 2x regression gate below.
    pipeline = cases("pipeline")
    for case in ("dblp_d4/fused", "dblp_d4/materialized"):
        assert case in pipeline, f"pipeline group lacks {case}: {sorted(pipeline)}"
    d4_fused = pipeline["dblp_d4/fused"]["min_ms"]
    d4_mat = pipeline["dblp_d4/materialized"]["min_ms"]
    d4_speedup = d4_mat / d4_fused if d4_fused > 0 else float("inf")
    print(
        f"pipeline dblp_d4: {d4_mat:.3f} ms materialized / {d4_fused:.3f} ms fused "
        f"= {d4_speedup:.2f}x (informational)"
    )

    # Instrumentation-overhead gate: the `obs` group re-measures the
    # value_layer lineitem and join hash workloads with the `whynot-obs` sites
    # compiled in but no profiling session active (one thread-local load per
    # site). Each `disabled` case must stay within 5% of the same workload's
    # case in the value_layer/join groups re-measured in the same CI run.
    # The comparison crosses bench processes, so it needs a quiet multi-core
    # runner: enforced on >= 4 CPUs, notice otherwise.
    obs = cases("obs")
    obs_gate = [
        ("lineitem_select/disabled", "value_layer", "lineitem_select"),
        ("lineitem_trace/disabled", "value_layer", "lineitem_trace"),
        ("equi_join/disabled", "join", "equi_join/hash"),
        ("equi_trace/disabled", "join", "equi_trace/hash"),
    ]
    for obs_case, _, _ in obs_gate:
        assert obs_case in obs, f"obs group lacks {obs_case}: {sorted(obs)}"
        profiled = obs_case.replace("/disabled", "/profiled")
        assert profiled in obs, f"obs group lacks {profiled}: {sorted(obs)}"
    # The timeline session twin (informational, bounds `--trace-out` cost) and
    # its deterministic event count: every span opening emits a balanced
    # begin/end pair, so the count is a positive even number.
    assert "lineitem_trace/timelined" in obs, f"obs group lacks the timelined case: {sorted(obs)}"
    timeline_events = obs.get("lineitem_trace/timeline_events")
    assert timeline_events, f"obs group lacks lineitem_trace/timeline_events: {sorted(obs)}"
    assert timeline_events["min_ms"] > 0, "timeline session recorded no events"
    assert timeline_events["min_ms"] % 2 == 0, "timeline events must pair up (begin/end)"
    for pseudo in (
        "lineitem_trace/trace_tuples",
        "lineitem_trace/span_nodes",
        "equi_trace/trace_tuples",
        "equi_trace/span_nodes",
        "dblp_d4/trace_tuples",
        "dblp_d4/span_nodes",
        "dblp_d4_stage/trace_provider",
    ):
        assert pseudo in obs, f"obs group lacks {pseudo}: {sorted(obs)}"
    for pseudo in ("lineitem_trace", "equi_trace", "dblp_d4"):
        # The deterministic figures: a trace was actually recorded.
        assert obs[f"{pseudo}/trace_tuples"]["min_ms"] > 0, pseudo
        assert obs[f"{pseudo}/span_nodes"]["min_ms"] > 0, pseudo
    obs_failures = []
    for obs_case, base_group, base_case in obs_gate:
        base_ms = cases(base_group)[base_case]["min_ms"]
        obs_ms = obs[obs_case]["min_ms"]
        ratio = obs_ms / base_ms if base_ms > 0 else float("inf")
        print(
            f"obs/{obs_case}: {obs_ms:.3f} ms vs {base_group}/{base_case} "
            f"{base_ms:.3f} ms ({ratio:.3f}x)"
        )
        if ratio > 1.05:
            obs_failures.append(f"obs/{obs_case} costs {ratio:.3f}x of {base_case} (> 1.05x)")
    if cpus >= 4:
        assert not obs_failures, "instrumentation overhead: " + "; ".join(obs_failures)
    elif obs_failures:
        print(f"NOTICE: obs overhead gate skipped on a {cpus}-cpu runner (< 4)")

    # Guard-overhead gate: the `guard` group re-measures the value_layer
    # lineitem and join hash workloads with the `whynot-guard` check sites
    # compiled in but no guard armed (one thread-local read per site — the
    # price every unlimited request pays). Each `unguarded` case must stay
    # within 5% of the same workload's case in the value_layer/join groups
    # re-measured in the same CI run; the `guarded` twins (armed, roomy limits) are
    # informational. Cross-process comparison: enforced on >= 4 CPUs.
    guard = cases("guard")
    guard_gate = [
        ("lineitem_select/unguarded", "value_layer", "lineitem_select"),
        ("lineitem_trace/unguarded", "value_layer", "lineitem_trace"),
        ("equi_join/unguarded", "join", "equi_join/hash"),
        ("equi_trace/unguarded", "join", "equi_trace/hash"),
    ]
    for guard_case, _, _ in guard_gate:
        assert guard_case in guard, f"guard group lacks {guard_case}: {sorted(guard)}"
        guarded = guard_case.replace("/unguarded", "/guarded")
        assert guarded in guard, f"guard group lacks {guarded}: {sorted(guard)}"
    for pseudo in ("lineitem_trace/guard_checks", "equi_trace/guard_checks"):
        # The deterministic figures: an armed run actually performed checks.
        assert pseudo in guard, f"guard group lacks {pseudo}: {sorted(guard)}"
        assert guard[pseudo]["min_ms"] > 0, pseudo
    guard_failures = []
    for guard_case, base_group, base_case in guard_gate:
        base_ms = cases(base_group)[base_case]["min_ms"]
        guard_ms = guard[guard_case]["min_ms"]
        ratio = guard_ms / base_ms if base_ms > 0 else float("inf")
        print(
            f"guard/{guard_case}: {guard_ms:.3f} ms vs {base_group}/{base_case} "
            f"{base_ms:.3f} ms ({ratio:.3f}x)"
        )
        if ratio > 1.05:
            guard_failures.append(
                f"guard/{guard_case} costs {ratio:.3f}x of {base_case} (> 1.05x)"
            )
    if cpus >= 4:
        assert not guard_failures, "guard overhead: " + "; ".join(guard_failures)
    elif guard_failures:
        print(f"NOTICE: guard overhead gate skipped on a {cpus}-cpu runner (< 4)")

    # Perf-regression gate: the re-measured value_layer, join, and pipeline
    # groups must not be more than 2x slower than the committed baseline.
    # Absolute times only transfer between comparable machines, so the gate
    # needs a real runner: enforced on >= 4 CPUs, notice otherwise.
    if baseline_path:
        baseline = load(baseline_path)
        baseline_cases = {
            g["name"]: {c["name"]: c for c in g["cases"]} for g in baseline["groups"]
        }
        if cpus >= 4:
            failures = []
            for group_name in ("value_layer", "join", "pipeline"):
                for case_name, case in cases(group_name).items():
                    base = baseline_cases.get(group_name, {}).get(case_name)
                    if base is None:
                        print(f"NOTICE: {group_name}/{case_name} has no baseline; skipped")
                        continue
                    ratio = case["min_ms"] / base["min_ms"] if base["min_ms"] > 0 else 0.0
                    print(
                        f"{group_name}/{case_name}: baseline {base['min_ms']:.3f} ms, "
                        f"measured {case['min_ms']:.3f} ms ({ratio:.2f}x)"
                    )
                    if ratio > 2.0:
                        failures.append(
                            f"{group_name}/{case_name} slowed down {ratio:.2f}x (> 2x)"
                        )
            assert not failures, "perf regression: " + "; ".join(failures)
        else:
            print(f"NOTICE: perf-regression gate skipped on a {cpus}-cpu runner (< 4)")

    if profile_path:
        validate_profile(profile_path)

    print(
        f"BENCH_figures.json OK: {len(groups)} groups, "
        f"{sum(len(g['cases']) for g in report['groups'])} cases"
    )


if __name__ == "__main__":
    main()
