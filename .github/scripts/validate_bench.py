#!/usr/bin/env python3
"""Validates a BENCH_figures.json report and enforces the CI perf gates.

Usage: validate_bench.py [REPORT] [--profile FILE]

REPORT (default BENCH_figures.json) is a report written by the `figures`
binary: version 2, one group per paper figure (Figs. 8-11) and per
fast-path A/B pair (`join`, `parallel`), each case carrying the
median and quartiles of its samples. Every gate is a ratio of two medians
measured in the same process as an interleaved pair, so it holds on any
machine; only the 4-wide batch speedup needs a group recorded with >= 4
CPUs.
End-to-end latency and throughput are not gated here: the `e2ebench` job
checks every answer, and `BENCHMARK.json` bounds its workloads.

--profile FILE, when given, is a profile report exported by
`whynot ... --profile-out FILE`; it is validated against the ProfileReport
wire schema (wall_ns / meta / recursive span tree).
"""

import json
import sys

GROUPS = {
    "fig08_dblp_runtime",
    "fig09_twitter_runtime",
    "fig10_tpch_runtime",
    "fig11_schema_alternatives",
    "join",
    "parallel",
}


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


def speedup(cases, slow, fast):
    """The median ratio slow/fast of two cases of one group."""
    for case in (slow, fast):
        assert case in cases, f"group lacks {case}: {sorted(cases)}"
    slow_ms, fast_ms = cases[slow]["median_ms"], cases[fast]["median_ms"]
    ratio = slow_ms / fast_ms if fast_ms > 0 else float("inf")
    print(f"{slow} {slow_ms:.3f} ms / {fast} {fast_ms:.3f} ms = {ratio:.2f}x")
    return ratio


def main():
    argv = sys.argv[1:]
    profile_path = None
    if "--profile" in argv:
        at = argv.index("--profile")
        profile_path = argv[at + 1]
        argv = argv[:at] + argv[at + 2 :]
    assert len(argv) <= 1, f"unexpected arguments: {argv}"
    report_path = argv[0] if argv else "BENCH_figures.json"

    report = load(report_path)
    assert report["version"] == 2, "unexpected report version"
    groups = {g["name"]: g for g in report["groups"]}
    assert set(groups) == GROUPS, f"expected groups {sorted(GROUPS)}, got {sorted(groups)}"
    for group in report["groups"]:
        for key in ("samples", "cpus"):
            assert isinstance(group[key], int) and group[key] >= 1, (group["name"], key)
        assert group["cases"], f"group {group['name']} has no cases"
        for case in group["cases"]:
            for key in ("median_ms", "q1_ms", "q3_ms"):
                assert isinstance(case[key], (int, float)), (group["name"], case)
            assert case["q1_ms"] <= case["median_ms"] <= case["q3_ms"], (group["name"], case)

    def cases(group_name):
        return {c["name"]: c for c in groups[group_name]["cases"]}

    # Hash-join gate: the partitioned hash join must beat the block nested
    # loop (the physical plan the evaluator ran before the shared join core)
    # on the equi join. The mixed and traced joins are informational.
    join = cases("join")
    assert "nonequi_join/nested_loop" in join, f"join group lacks the non-equi case: {sorted(join)}"
    equi = speedup(join, "equi_join/nested_loop", "equi_join/hash")
    assert equi >= 1.5, f"equi_join: expected >= 1.5x over the nested loop, got {equi:.2f}x"
    speedup(join, "mixed_join/nested_loop", "mixed_join/hash")
    speedup(join, "equi_trace/nested_loop", "equi_trace/hash")

    # Batch gate: four requests at once must beat one at a time, but only
    # where the group was recorded with the cores to do so. Each request runs
    # on one thread, so the batch is the only parallelism there is.
    # Byte-identity of the two batches is asserted inside the bench on every
    # machine.
    cpus = groups["parallel"]["cpus"]
    ratio = speedup(cases("parallel"), "service_batch8/threads1", "service_batch8/threads4")
    if cpus >= 4:
        assert ratio >= 1.5, (
            f"service_batch8: expected >= 1.5x at 4 threads with {cpus} cpus, got {ratio:.2f}x"
        )
    else:
        print(f"NOTICE: service_batch8 speedup not gated: recorded with {cpus} cpus (< 4)")

    if profile_path:
        validate_profile(profile_path)

    print(
        f"{report_path} OK: {len(groups)} groups, "
        f"{sum(len(g['cases']) for g in report['groups'])} cases"
    )


if __name__ == "__main__":
    main()
