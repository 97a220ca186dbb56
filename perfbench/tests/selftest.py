#!/usr/bin/env python3
"""Self-tests of the XRefine benchmark program.

Run from the root of a checkout (builds the program first if needed):

    python3 perfbench/tests/selftest.py

Each test runs the program in its fast mode (small corpus, short phases):
  * every workload, untraced and traced, prints every metric BENCHMARK.json
    names, with its unit and a finite value;
  * a deliberately perturbed reference answer makes every workload fail
    its answer check (non-zero exit, "correct": false);
  * the same seed gives the same answer digest and the same cg_at_3 twice.
"""
import json
import math
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
sys.dont_write_bytecode = True
import run  # noqa: E402  (the benchmark's own runner: build and paths)

WORKLOADS = ("engine_cold", "serve_store", "serve_hot")


def drive(workload, seed=7, trace=0, extra=()):
    """Runs the program in fast mode; returns (exit code, stdout lines)."""
    work_dir = os.path.join(run.BUILD_DIR, "selftest")
    os.makedirs(work_dir, exist_ok=True)
    cmd = [run.BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", "2", "--trace", str(trace), "--fast",
           "--work-dir", work_dir] + list(extra)
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=run.RUN_TIMEOUT_S)
    return proc.returncode, proc.stdout.rstrip("\n").split("\n")


class BenchmarkSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        if not run.build():
            raise RuntimeError("perfbench build failed")
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def test_every_metric_has_a_unit_and_a_finite_value(self):
        for workload in WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    code, lines = drive(workload, trace=trace)
                    self.assertEqual(code, 0, "\n".join(lines[-5:]))
                    result = json.loads(lines[-1])
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    for metric in self.spec[key]:
                        got = result["metrics"][metric["name"]]
                        self.assertEqual(got["unit"], metric["unit"])
                        self.assertTrue(math.isfinite(got["value"]))
                    self.assertIsNone(run.check_result(lines[-1], trace == 1))

    def test_perturbed_reference_trips_the_answer_check(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, lines = drive(workload, extra=["--perturb-reference"])
                self.assertNotEqual(code, 0)
                result = json.loads(lines[-1])
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)

    def test_same_seed_same_digest_and_quality(self):
        def fingerprint(workload):
            code, lines = drive(workload, seed=11)
            self.assertEqual(code, 0)
            digest = [l for l in lines if re.match(r"# digest [0-9a-f]+", l)]
            cg = json.loads(lines[-1])["metrics"]["cg_at_3"]["value"]
            return digest, cg

        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.assertEqual(fingerprint(workload), fingerprint(workload))
        digest, _ = fingerprint("engine_cold")
        self.assertEqual(len(digest), 1)


if __name__ == "__main__":
    unittest.main()
