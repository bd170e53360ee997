#!/usr/bin/env python3
"""Smoke tests of the benchmark itself, on tiny images (about a minute).

    python3 perfbench/test_perfbench.py

Checks that every workload runs in both modes, that the printed metric
names are exactly the ones BENCHMARK.json declares, that a corrupted label
is caught by verification (nonzero exit, "correct": false), and that the
compare mode reads two result sets.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = [sys.executable, str(HERE / "run.py")]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(*extra, out=None):
    cmd = RUN + list(extra) + ["--tiny"]
    if out:
        cmd += ["--out", out]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                          timeout=600)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return proc.returncode, result


class MetricNames(unittest.TestCase):
    def test_every_workload_prints_the_declared_metrics(self):
        end_to_end = [m["name"] for m in SPEC["end_to_end"]]
        per_layer = [m["name"] for m in SPEC["per_layer"]]
        with tempfile.TemporaryDirectory() as tmp:
            results = os.path.join(tmp, "results.jsonl")
            for w in SPEC["workloads"]:
                for trace, names in ((0, end_to_end), (1, per_layer)):
                    with self.subTest(workload=w["name"], trace=trace):
                        code, result = run("--workload", w["name"], "--seed",
                                           "3", "--seconds", "1", "--trace",
                                           str(trace), out=results)
                        self.assertEqual(code, 0)
                        self.assertTrue(result["correct"])
                        self.assertGreaterEqual(result["attempted"], 1)
                        self.assertEqual(list(result["metrics"]), names)
                        for m in result["metrics"].values():
                            self.assertEqual(set(m), {"value", "unit"})
            units = {m["name"]: m["unit"]
                     for m in SPEC["end_to_end"] + SPEC["per_layer"]}
            with open(results) as f:
                for line in f:
                    metrics = json.loads(line)["result"]["metrics"]
                    for name, m in metrics.items():
                        self.assertEqual(m["unit"], units[name], name)
            # A result set compared with itself has no regression.
            cmp = subprocess.run(RUN + ["--compare", results, results],
                                 stdout=subprocess.PIPE, text=True, cwd=ROOT)
            self.assertEqual(cmp.returncode, 0, cmp.stdout)
            self.assertIn("summary", cmp.stdout)


class Verification(unittest.TestCase):
    def test_corrupted_label_is_caught(self):
        for w in ("huge_noise", "service_mix"):
            with self.subTest(workload=w):
                code, result = run("--workload", w, "--seed", "5",
                                   "--seconds", "1", "--trace", "0",
                                   "--corrupt")
                self.assertNotEqual(code, 0)
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)

    def test_same_seed_same_inputs(self):
        # Work counts repeat exactly for one seed.
        counts = []
        for _ in range(2):
            code, result = run("--workload", "huge_landcover", "--seed", "7",
                               "--seconds", "1", "--trace", "1")
            self.assertEqual(code, 0)
            counts.append({k: v["value"] for k, v in result["metrics"].items()
                           if k.startswith("count.")})
        self.assertEqual(counts[0], counts[1])


if __name__ == "__main__":
    unittest.main()
