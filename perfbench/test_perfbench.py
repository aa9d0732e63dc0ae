#!/usr/bin/env python3
"""Self-test of the perfbench benchmark at small size.

    python3 perfbench/test_perfbench.py

Runs every workload in small mode (a 1-day window, a 2-cell grid)
through perfbench/run.py and checks that

  - an untraced run prints every end-to-end metric of BENCHMARK.json
    exactly once, with its unit, and ok_frac = 1;
  - a traced run prints every per-layer metric and writes span JSON;
  - a deliberately perturbed reference drops ok_frac below 1;
  - without the cebis sources the benchmark exits non-zero and prints
    no result.

The first run builds the harness (about a minute).
"""

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(workload, *extra, cwd=ROOT, trace=0):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), *extra]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600,
                          check=False)


def result_of(done):
    lines = done.stdout.strip().splitlines()
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(lines[-1])
    assert set(result) == RESULT_KEYS, result.keys()
    return result, lines


class PerfbenchSelfTest(unittest.TestCase):
    def check_metrics(self, result, lines, catalogue):
        expected = {m["name"]: m["unit"] for m in catalogue}
        self.assertEqual(set(result["metrics"]), set(expected))
        for name, unit in expected.items():
            self.assertEqual(result["metrics"][name]["unit"], unit, name)
            self.assertIsInstance(result["metrics"][name]["value"], (int, float))
            printed = [l for l in lines if l.split()[:2] == ["metric", name]]
            self.assertEqual(len(printed), 1, name)
            self.assertEqual(printed[0].split()[-1], unit, name)

    def test_untraced_runs_print_every_end_to_end_metric(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result, lines = result_of(run(workload, "--small"))
                self.check_metrics(result, lines, BENCH["end_to_end"])
                self.assertTrue(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)
                self.assertEqual(result["metrics"]["ok_frac"]["value"], 1.0)
                for name, m in result["metrics"].items():
                    self.assertGreater(m["value"], 0.0, name)

    def test_traced_runs_print_every_layer_metric_and_spans(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result, lines = result_of(run(workload, "--small", trace=1))
                self.check_metrics(result, lines, BENCH["per_layer"])
                self.assertTrue(result["correct"])
                spans = ROOT / ".bench_build" / "perfbench-out" / \
                    f"trace_{workload}.json"
                events = json.loads(spans.read_text())["traceEvents"]
                self.assertGreater(len(events), 0)
                self.assertTrue(all("parent" in e["args"] for e in events))
                self.assertTrue(any(l.startswith("self time under")
                                    for l in lines))

    def test_perturbed_reference_drops_ok_frac(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result, _ = result_of(run(workload, "--small",
                                          "--perturb-reference"))
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)
                self.assertLess(result["metrics"]["ok_frac"]["value"], 1.0)

    def test_fails_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            done = run("sweep", cwd=tmp)
            self.assertNotEqual(done.returncode, 0)
            last = done.stdout.strip().splitlines()[-1:] or [""]
            self.assertFalse(last[0].startswith("{"))


if __name__ == "__main__":
    unittest.main()
