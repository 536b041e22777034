#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload paper-apps|blob-put|blob-stripe|all \
        --seed N --seconds S --trace 0|1

The first run configures and builds `perfbench/` (which compiles ../src)
into `.bench_build/`; later runs only rebuild what changed. The benchmark's
report, with every metric the workload measures, goes to standard output.
Its last line is one JSON object with the keys correct, attempted, failed and
metrics, where metrics holds the ones BENCHMARK.json lists: `end_to_end` for
an untraced run, `per_layer` for a traced one (`--workload all` keeps every
metric, prefixed with its workload). Traced runs also write spans and the
per-layer table under `.bench_out/`. Exit code is non-zero when the build
fails, a check fails, or the output is malformed.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(ROOT, ".bench_out")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
TARGETS = ["perfbench", "perfbench_checks"]


def build():
    """Configure (once) and build the benchmark; build logs go to stderr."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs, "--target"] + TARGETS,
                   check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return os.path.join(BUILD, "perfbench")


def result_line(stdout):
    """The final JSON object, or None when it is missing or malformed."""
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        res = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    keys = {"correct", "attempted", "failed", "metrics"}
    if not isinstance(res, dict) or set(res) != keys or res["attempted"] < 1:
        return None
    return res


def listed_metrics(trace):
    """Metric names BENCHMARK.json lists for an untraced or a traced run."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace == "1" else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    args = ap.parse_args()

    try:
        binary = build()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 3
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace, "--out", OUT]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 4
    lines = proc.stdout.rstrip("\n").splitlines()
    res = result_line(proc.stdout)
    if res is None:
        sys.stdout.write("\n".join(lines) + "\n")
        print("perfbench: no valid result line", file=sys.stderr)
        return proc.returncode or 5
    if args.workload != "all":
        names = listed_metrics(args.trace)
        missing = [n for n in names if n not in res["metrics"]]
        if missing:
            sys.stdout.write("\n".join(lines) + "\n")
            print(f"perfbench: metrics missing from the result: {missing}", file=sys.stderr)
            return 5
        res["metrics"] = {n: res["metrics"][n] for n in names}
    # Report first, then the result as the very last line.
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    print(json.dumps(res))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
