#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 -m unittest discover -s xbench -p 'test_*.py'

Run from the repository root. They check BENCHMARK.json against the
output of xbench (metric names and units), run every workload at tiny size
through its correctness gate, and repeat a seed to show the sim metrics
are bit-identical. The first test to run builds the benchmark.
"""

import json
import re
import subprocess
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TABLE = json.loads((BENCH_DIR / "metrics.json").read_text())["metrics"]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
HOST_E2E = {"setup_s", "host_cpu_us_per_op", "peak_rss_mb"}


def run(workload, seed, trace):
    """Tiny run through run.py; returns (exit code, parsed last line)."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None


class SpecTest(unittest.TestCase):
    def test_keys_and_limits(self):
        self.assertEqual(set(SPEC), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        self.assertEqual(SPEC["paths"], ["xbench"])
        self.assertTrue(1 <= SPEC["run_seconds"] <= 60)
        names = [w["name"] for w in SPEC["workloads"]]
        names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for n in names:
            self.assertRegex(n, NAME)
        for w in SPEC["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
        for m in SPEC["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
        for m in SPEC["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in SPEC["end_to_end"] + SPEC["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
        setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in SPEC["end_to_end"]))

    def test_metric_table_covers_every_metric(self):
        declared = {m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
        self.assertEqual(set(TABLE), declared)
        for name, row in TABLE.items():
            self.assertIn("layer", row, name)
            self.assertIn("help", row, name)


class RunTest(unittest.TestCase):
    def check_output(self, result, declared):
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        printed = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(printed, {m["name"]: m["unit"] for m in declared})

    def test_every_workload_passes_its_gate(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"], trace=0):
                code, result = run(w["name"], 7, 0)
                self.assertEqual(code, 0)
                self.check_output(result, SPEC["end_to_end"])
                for m in SPEC["end_to_end"]:
                    self.assertGreater(result["metrics"][m["name"]]["value"], 0)
            with self.subTest(workload=w["name"], trace=1):
                code, result = run(w["name"], 7, 1)
                self.assertEqual(code, 0)
                self.check_output(result, SPEC["per_layer"])
                m = result["metrics"]
                for gate in ("rnic.rnr_naks", "core.recoveries",
                             "core.retransmits", "core.health.suspect_grades",
                             "fail_frac"):
                    self.assertEqual(m[gate]["value"], 0, gate)

    def test_same_seed_gives_identical_sim_metrics_and_counts(self):
        def sim(result):
            # Everything but the host-clock numbers: the three host
            # end-to-end metrics and the per-layer times (ns, us, %).
            return {k: v["value"] for k, v in result["metrics"].items()
                    if k not in HOST_E2E and (
                        k.startswith("sim_")
                        or v["unit"] not in ("ns", "us", "%"))}
        for w in SPEC["workloads"]:
            for trace in (0, 1):
                with self.subTest(workload=w["name"], trace=trace):
                    a = run(w["name"], 11, trace)[1]
                    b = run(w["name"], 11, trace)[1]
                    self.assertEqual(sim(a), sim(b))

    def test_unknown_workload_fails_without_a_result(self):
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "nope",
             "--seed", "1", "--seconds", "1"],
            cwd=ROOT, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
