#!/usr/bin/env python3
"""The benchmark's own tests. Run from the repository root:

    python3 perfbench/tests/test_bench.py

They build the benchmark like perfbench/run.py does, then:
  * run every workload at smoke size in both modes and check that the
    result line names exactly the metrics of BENCHMARK.json, with units;
  * break the traced paper_system loop on purpose (one pose upload
    skipped) and check that the identity check fails the run;
  * run the benchmark in a directory holding only BENCHMARK.json and
    perfbench/, where it must fail without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
SCRATCH = os.path.join(ROOT, ".bench_build", "tests")


def run(*args, cwd=ROOT):
    command = ["python3", "perfbench/run.py", "--seed", "3", "--seconds", "1"]
    return subprocess.run(command + list(args), cwd=cwd, capture_output=True,
                          text=True, timeout=900)


def result_of(done):
    return json.loads(done.stdout.strip().splitlines()[-1])


class SmokeRun(unittest.TestCase):
    def check_metrics(self, workload, trace, expected):
        done = run("--workload", workload, "--trace", str(trace), "--smoke", "1")
        self.assertEqual(done.returncode, 0, done.stderr)
        result = result_of(done)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        metrics = result["metrics"]
        self.assertEqual(list(metrics), [m["name"] for m in expected])
        for spec in expected:
            entry = metrics[spec["name"]]
            self.assertEqual(entry["unit"], spec["unit"], spec["name"])
            self.assertIsInstance(entry["value"], (int, float))

    def test_every_metric_is_emitted_with_its_unit(self):
        for workload in SPEC["workloads"]:
            with self.subTest(workload=workload["name"]):
                self.check_metrics(workload["name"], 0, SPEC["end_to_end"])
                self.check_metrics(workload["name"], 1, SPEC["per_layer"])


class IdentityCheck(unittest.TestCase):
    def test_perturbed_traced_loop_fails(self):
        done = run("--workload", "paper_system", "--trace", "1", "--smoke", "1",
                   "--perturb", "skip_upload_pose")
        self.assertNotEqual(done.returncode, 0)
        self.assertFalse(result_of(done)["correct"])
        self.assertIn("traced loop differs from SystemSim::run", done.stderr)


class BareDirectory(unittest.TestCase):
    def test_fails_without_the_library(self):
        bare = os.path.join(SCRATCH, "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(os.path.join(ROOT, "perfbench"),
                        os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            done = run("--workload", "paper_system", "--trace", "0", cwd=bare)
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"correct"', done.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(unittest.main(verbosity=2))
