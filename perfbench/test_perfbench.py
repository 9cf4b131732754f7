#!/usr/bin/env python3
"""Tests of the end-to-end benchmark itself.

    python3 perfbench/test_perfbench.py

Runs every workload at test size (--tiny) through run.py, in both
modes, and checks that the result names every metric of BENCHMARK.json
with its unit; that the exact counts repeat for a seed; and that every
correctness gate fails the run when its expected output is corrupted.
The first test builds the benchmark if it is not built yet.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
CATALOGUE = json.loads((HERE / "metrics.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]

# The gates that compare against an expected output, per workload.
GATES = {
    "sweep-dense": ["sweep.jobs1", "sweep.slices"],
    "batch-unique": ["batch.workers", "batch.no_errors"],
    "serve-closed": ["serve.replies"],
    "fleet-open": ["fleet.replies"],
}

# Counts that must repeat exactly for a fixed seed (traced run).
EXACT = {
    "sweep-dense": ["sweep.units", "sweep.bytes_csv", "sweep.bytes_json"],
    "batch-unique": ["svc.cache_hit_ratio", "svc.out_bytes"],
    "serve-closed": ["svc.cache_hit_ratio"],
    "fleet-open": ["net.shard_imbalance"],
}


def run(workload, trace, seed=7, corrupt=""):
    """(exit status, report, result) of one tiny run."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace), "--tiny"]
    if corrupt:
        cmd += ["--corrupt", corrupt]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if len(lines) < 2:
        raise AssertionError("no result from %s (exit %d)" % (" ".join(cmd), done.returncode))
    return done.returncode, json.loads(lines[-2]), json.loads(lines[-1])


class CatalogueTest(unittest.TestCase):
    def test_every_layer_metric_has_an_owner_and_a_target(self):
        layers = [m["name"] for m in BENCH["per_layer"]]
        self.assertEqual(sorted(layers), sorted(CATALOGUE["per_layer"]))
        for name in layers:
            entry = CATALOGUE["per_layer"][name]
            self.assertTrue(entry["moves"], name)
            self.assertTrue(set(entry["workloads"]) <= set(WORKLOADS), name)

    def test_every_end_to_end_metric_is_defined_per_workload(self):
        for m in BENCH["end_to_end"]:
            self.assertEqual(sorted(CATALOGUE["end_to_end"][m["name"]]), sorted(WORKLOADS))


class MetricsTest(unittest.TestCase):
    def check(self, workload, trace):
        status, report, result = run(workload, trace)
        self.assertEqual(status, 0, report.get("gates"))
        self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        want = BENCH["per_layer"] if trace else BENCH["end_to_end"]
        self.assertEqual(sorted(result["metrics"]), sorted(m["name"] for m in want))
        for m in want:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            if not trace:
                self.assertGreater(got["value"], 0, m["name"])
        for m in want:
            if workload in CATALOGUE["per_layer"].get(m["name"], {"workloads": WORKLOADS})["workloads"]:
                self.assertIn("samples", report["metrics"][m["name"]], m["name"])
        return result

    def test_every_workload_reports_every_metric_with_its_unit(self):
        for workload in WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    self.check(workload, trace)

    def test_exact_counts_repeat_for_a_seed(self):
        for workload, names in EXACT.items():
            with self.subTest(workload=workload):
                first = run(workload, 1)[2]["metrics"]
                second = run(workload, 1)[2]["metrics"]
                for name in names:
                    self.assertEqual(first[name]["value"], second[name]["value"], name)


class GateTest(unittest.TestCase):
    def test_each_gate_fires_on_a_corrupted_expected_output(self):
        for workload, gates in GATES.items():
            for gate in gates:
                with self.subTest(workload=workload, gate=gate):
                    status, report, result = run(workload, 0, corrupt=gate)
                    self.assertEqual(status, 1)
                    self.assertFalse(result["correct"])
                    failed = [g["name"] for g in report["gates"] if not g["ok"]]
                    self.assertEqual(failed, [gate])


if __name__ == "__main__":
    unittest.main()
