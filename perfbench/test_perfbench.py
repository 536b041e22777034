#!/usr/bin/env python3
"""The benchmark's own tests: the content checker, and a short smoke pass of
every workload that must print every end-to-end and per-layer metric with its
unit, in the report and in the final JSON line; run.py must pass on exactly
the metrics BENCHMARK.json lists.

Run from anywhere: python3 perfbench/test_perfbench.py
"""
import json
import os
import re
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SMOKE_SECONDS = "2"
WORKLOADS = ["paper-apps", "blob-put", "blob-stripe"]
# Every end-to-end metric the report prints, gated in BENCHMARK.json or not.
END_TO_END = {
    "throughput_ops_s": "ops/s", "goodput_mb_s": "MB/s", "wall_p50_us": "us",
    "wall_p99_us": "us", "sim_p50_us": "sim_us", "sim_p99_us": "sim_us",
    "fail_ratio": "ratio", "setup_s": "s", "peak_rss_mb": "MiB", "space_amp": "ratio",
}
REPORT_LINE = re.compile(r"^\s+(\S+)\s+(-?[0-9.]+)\s+(\S+)")


def spec():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_all(binary, trace, out_dir):
    """One process running all three workloads; returns (report, result)."""
    proc = subprocess.run(
        [binary, "--workload", "all", "--seed", "7", "--seconds", SMOKE_SECONDS,
         "--trace", trace, "--out", out_dir],
        cwd=run.ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines[:-1], json.loads(lines[-1])


def printed(report):
    """{workload: {metric: unit}} from the report's metric lines."""
    out, current = {}, None
    for line in report:
        if line.startswith("== "):
            current = line.split()[1]
            out[current] = {}
        elif current and (m := REPORT_LINE.match(line)):
            out[current][m.group(1)] = m.group(3)
    return out


class Checks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()
        cls.out_dir = os.path.join(run.OUT, "smoke")

    def test_checker_rejects_corruption(self):
        proc = subprocess.run([os.path.join(run.BUILD, "perfbench_checks")],
                              stdout=subprocess.PIPE, text=True, timeout=60)
        self.assertEqual(proc.returncode, 0, proc.stdout)
        self.assertIn("one flipped byte is rejected", proc.stdout)

    def test_untraced_smoke_prints_end_to_end_metrics(self):
        code, report, res = run_all(self.binary, "0", self.out_dir)
        self.assertEqual(code, 0, "\n".join(report))
        self.assertTrue(res["correct"])
        self.assertEqual(res["failed"], 0)
        self.assertGreater(res["attempted"], 0)
        names = printed(report)
        self.assertEqual(sorted(names), sorted(WORKLOADS))
        for w in WORKLOADS:
            self.assertEqual(names[w], END_TO_END, w)
            self.assertEqual(res["metrics"][f"{w}.fail_ratio"]["value"], 0)
        for m in spec()["end_to_end"]:
            self.assertEqual(END_TO_END[m["name"]], m["unit"])
            for w in WORKLOADS:
                self.assertGreater(res["metrics"][f"{w}.{m['name']}"]["value"], 0, (w, m))

    def test_run_py_reports_the_listed_metrics(self):
        proc = subprocess.run(
            [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", "blob-put",
             "--seed", "3", "--seconds", "1", "--trace", "0"],
            stdout=subprocess.PIPE, text=True, timeout=300)
        self.assertEqual(proc.returncode, 0, proc.stdout)
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
        listed = {m["name"]: m["unit"] for m in spec()["end_to_end"]}
        self.assertEqual({k: v["unit"] for k, v in res["metrics"].items()}, listed)

    def test_traced_smoke_prints_per_layer_metrics(self):
        code, report, res = run_all(self.binary, "1", self.out_dir)
        self.assertEqual(code, 0, "\n".join(report))
        self.assertTrue(res["correct"])
        names = printed(report)
        layers = spec()["per_layer"]
        for w in WORKLOADS:
            self.assertEqual(len(names[w]), len(layers), w)
            for m in layers:
                self.assertEqual(names[w].get(m["name"]), m["unit"], (w, m["name"]))
                self.assertEqual(res["metrics"][f"{w}.{m['name']}"]["unit"], m["unit"])
            self.assertTrue(os.path.getsize(
                os.path.join(self.out_dir, f"spans-{w}.csv")) > 0)
            with open(os.path.join(self.out_dir, f"layers-{w}.txt")) as f:
                self.assertIn("obs.tracing_overhead", f.read())


if __name__ == "__main__":
    unittest.main()
