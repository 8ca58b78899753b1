#!/usr/bin/env python3
"""Tests of the benchmark harness itself, at small DAG counts.

    python3 perfbench/test_harness.py

Run from the root of a checkout; builds perfbench_runner like run.py does.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

SMALL_DAGS = {"paper_panel": 8, "flat_scale": 40, "fault_recovery": 10}
assert sorted(SMALL_DAGS) == sorted(run.WORKLOADS)


def run_cli(workload, trace, seed=7):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--dags", str(SMALL_DAGS[workload])],
        capture_output=True, text=True)
    return done.returncode, json.loads(done.stdout.strip().splitlines()[-1])


class HarnessTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.exe = run.build()

    def test_traced_loop_reproduces_untraced_digest(self):
        for workload, dags in SMALL_DAGS.items():
            with self.subTest(workload=workload):
                plain = run.repetition(self.exe, workload, 3, "plain", dags)
                traced = run.repetition(self.exe, workload, 3, "traced", dags)
                self.assertEqual(plain["digest"], traced["digest"])
                self.assertEqual(plain["dags_finished"], plain["dags_submitted"])

    def test_every_named_metric_is_printed_with_its_unit(self):
        for trace, declared in ((0, run.END_TO_END), (1, run.PER_LAYER)):
            for workload in run.WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    code, result = run_cli(workload, trace)
                    self.assertEqual(code, 0)
                    self.assertEqual(set(result),
                                     {"correct", "attempted", "failed",
                                      "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    self.assertEqual(
                        {n: m["unit"] for n, m in result["metrics"].items()},
                        declared)
                    for metric in result["metrics"].values():
                        self.assertIsInstance(metric["value"], (int, float))

    def test_paper_panel_at_the_committed_seed_is_fig5(self):
        rep = run.repetition(self.exe, "paper_panel", run.COMMITTED_SEED,
                             "plain")
        checks = run.Checks()
        run.check_outcome(checks, [rep], "paper_panel", None)
        self.assertEqual(checks.failures, [])
        self.assertEqual(rep["tenant_completion_s"], run.FIG5_COMPLETION_S)
        self.assertEqual(rep["tenant_plans"], run.FIG5_PLANS)

    def test_checks_fail_on_a_double_run_or_a_changed_result(self):
        rep = run.repetition(self.exe, "fault_recovery", 3, "plain", 10)
        double = dict(rep, tenants_double_run=1)
        drifted = dict(rep, digest=rep["digest"] + "x")
        for bad in (double, drifted):
            checks = run.Checks()
            run.check_outcome(checks, [rep, bad], "fault_recovery", 10)
            self.assertNotEqual(checks.failures, [])


if __name__ == "__main__":
    unittest.main()
