#!/usr/bin/env python3
"""Validate bench --json baselines and metrics snapshots, or compare two.

Three modes:

  check_bench_json.py BENCH_*.json ...
      Validate each file against the bench results schema (EXPERIMENTS.md):
      a `meta` object with bench/git_rev/build_type/sanitizer/
      hardware_threads, and a `results` array whose rows carry the numeric
      per-benchmark fields.

  check_bench_json.py --metrics FILE --require SERIES [SERIES ...]
      Validate FILE as a metrics snapshot (obs::MetricsSnapshot::to_json)
      and fail unless every required series name is present among its
      counters/gauges/histograms.

  check_bench_json.py --compare BASE HEAD [--filter REGEX]
      Validate both bench files, then print each BASE row's ns_per_op next
      to HEAD's with the relative delta. Fails when a BASE row (restricted
      to names matching REGEX, searched like --benchmark_filter) is missing
      from HEAD, or when sim_us_per_op differs on a row whose name has no
      `threads:`. Single-agent rows are deterministic, so any difference
      there is a change to the simulated cost model; wall-clock deltas are
      reported only.

Exit code 0 on success; 1 with a message on the first violation.
"""

import argparse
import json
import re
import sys

META_FIELDS = {
    "bench": str,
    "git_rev": str,
    "build_type": str,
    "sanitizer": str,
    "hardware_threads": int,
}

RESULT_FIELDS = {
    "name": str,
    "iterations": int,
    "ns_per_op": (int, float),
    "bytes_per_s": (int, float),
    "sim_us_per_op": (int, float),
    "sim_p50_us": (int, float),
    "sim_p99_us": (int, float),
}


def fail(msg):
    print(f"check_bench_json: {msg}", file=sys.stderr)
    sys.exit(1)


def load(path):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{path}: {e}")


def check_bench_file(path):
    doc = load(path)
    if not isinstance(doc, dict):
        fail(f"{path}: top level is not an object")
    meta = doc.get("meta")
    if not isinstance(meta, dict):
        fail(f"{path}: missing meta object")
    for field, typ in META_FIELDS.items():
        if not isinstance(meta.get(field), typ):
            fail(f"{path}: meta.{field} missing or not {typ.__name__}")
    results = doc.get("results")
    if not isinstance(results, list) or not results:
        fail(f"{path}: results missing or empty")
    for i, row in enumerate(results):
        if not isinstance(row, dict):
            fail(f"{path}: results[{i}] is not an object")
        for field, typ in RESULT_FIELDS.items():
            if not isinstance(row.get(field), typ):
                fail(f"{path}: results[{i}].{field} missing or wrong type")
        if row["iterations"] <= 0:
            fail(f"{path}: results[{i}].iterations must be positive")
        if row["ns_per_op"] < 0:
            fail(f"{path}: results[{i}].ns_per_op must be non-negative")
    print(f"{path}: OK ({len(results)} results)")
    return results


def check_metrics_file(path, required):
    doc = load(path)
    if not isinstance(doc, dict):
        fail(f"{path}: top level is not an object")
    meta = doc.get("meta")
    if not isinstance(meta, dict) or meta.get("source") != "bsc-metrics":
        fail(f"{path}: meta.source != bsc-metrics")
    for section in ("counters", "gauges", "histograms"):
        if not isinstance(doc.get(section), dict):
            fail(f"{path}: missing {section} object")
    if not isinstance(doc.get("slow_ops"), list):
        fail(f"{path}: missing slow_ops array")
    present = set(doc["counters"]) | set(doc["gauges"]) | set(doc["histograms"])
    missing = [s for s in required if s not in present]
    if missing:
        fail(f"{path}: missing required series: {', '.join(missing)}")
    print(f"{path}: OK ({len(present)} series, {len(required)} required present)")


def compare_bench_files(base_path, head_path, pattern):
    base_rows = check_bench_file(base_path)
    head_rows = {row["name"]: row for row in check_bench_file(head_path)}
    selected = [row for row in base_rows if re.search(pattern or "", row["name"])]
    if not selected:
        fail(f"{base_path}: no rows match filter {pattern!r}")
    problems = []
    width = max(len(row["name"]) for row in selected)
    print(f"{'benchmark':<{width}}  {'base ns/op':>14}  {'head ns/op':>14}  {'delta':>8}")
    for row in selected:
        name = row["name"]
        head = head_rows.get(name)
        if head is None:
            problems.append(f"{name}: missing from {head_path}")
            continue
        base_ns, head_ns = row["ns_per_op"], head["ns_per_op"]
        delta = f"{(head_ns - base_ns) / base_ns:+.1%}" if base_ns else "n/a"
        print(f"{name:<{width}}  {base_ns:>14.1f}  {head_ns:>14.1f}  {delta:>8}")
        if "threads:" not in name and head["sim_us_per_op"] != row["sim_us_per_op"]:
            problems.append(f"{name}: sim_us_per_op {row['sim_us_per_op']} -> "
                            f"{head['sim_us_per_op']} (simulated cost model drifted)")
    if problems:
        fail("compare failed:\n  " + "\n  ".join(problems))
    print(f"compare: OK ({len(selected)} rows, sim_us_per_op unchanged)")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("files", nargs="*", help="bench BENCH_*.json files to validate")
    ap.add_argument("--metrics", help="metrics snapshot file to validate instead")
    ap.add_argument("--require", nargs="*", default=[],
                    help="series that must exist in the --metrics snapshot")
    ap.add_argument("--compare", nargs=2, metavar=("BASE", "HEAD"),
                    help="compare two bench json files row by row")
    ap.add_argument("--filter", help="with --compare: only BASE rows matching this regex")
    args = ap.parse_args()

    if args.compare:
        compare_bench_files(*args.compare, args.filter)
        return

    if args.metrics:
        check_metrics_file(args.metrics, args.require)
    if not args.metrics and not args.files:
        fail("nothing to check: pass bench json files or --metrics")
    for path in args.files:
        check_bench_file(path)


if __name__ == "__main__":
    main()
