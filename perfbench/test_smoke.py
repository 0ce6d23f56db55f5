#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload at a tiny size.

    python3 perfbench/test_smoke.py

For each workload, an untraced and a traced run must print a result
whose metric names and units are exactly BENCHMARK.json's end_to_end
(untraced) or per_layer (traced) metrics, with every correctness check
of the workload run and passed. The traced run must also write a Chrome
trace whose layer self times add up to the traced wall time.
"""

import json
import os
import re
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)

# the correctness checks each workload must run
CHECKS = {
    "signoff_block200": {"invariant", "bound_ok", "sim_clean"},
    "bignet_delay800": {"invariant"},
    "power_curve": {"invariant", "budget", "monotone", "full_budget"},
    "serve_eco_block200": {"load", "reply_ok", "serve_scratch", "repeatable"},
}


def run(workload, trace):
    out = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {out.returncode}:\n{out.stderr}")
    return out.stdout.strip().splitlines()


class Smoke(unittest.TestCase):
    def test_workloads_match_spec(self):
        self.assertEqual({w["name"] for w in SPEC["workloads"]}, set(CHECKS))

    def check_result(self, workload, trace, lines):
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], lines)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        spec = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(
            {k: v["unit"] for k, v in result["metrics"].items()},
            {m["name"]: m["unit"] for m in spec})
        ran = {}
        for line in lines:
            if line.startswith("checks:"):
                ran = dict(kv.split("=") for kv in line.split()[1:])
        for kind in CHECKS[workload]:
            self.assertGreater(int(ran.get(kind, 0)), 0, f"{workload}: check {kind} did not run")
        return result["metrics"]

    def test_untraced(self):
        for workload in CHECKS:
            with self.subTest(workload=workload):
                metrics = self.check_result(workload, 0, run(workload, 0))
                for m in SPEC["end_to_end"]:
                    self.assertGreater(metrics[m["name"]]["value"], 0, m["name"])

    def test_traced(self):
        for workload in CHECKS:
            with self.subTest(workload=workload):
                lines = run(workload, 1)
                metrics = self.check_result(workload, 1, lines)
                layers = sum(v["value"] for k, v in metrics.items()
                             if k.endswith("_ms") and k != "trace.wall_ms")
                wall = metrics["trace.wall_ms"]["value"]
                self.assertAlmostEqual(layers, wall, delta=1e-6 * wall)
                path = next(m.group(1) for l in lines if (m := re.match(r"wrote (\S+)", l)))
                with open(os.path.join(ROOT, path)) as f:
                    trace = json.load(f)
                self.assertTrue(trace["traceEvents"])
                self.assertEqual({e["ph"] for e in trace["traceEvents"]}, {"X"})


if __name__ == "__main__":
    unittest.main()
