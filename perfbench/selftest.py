"""Self-test of the benchmark: tracer arithmetic, oracle, and failure paths.

    python3 perfbench/selftest.py

Kept out of the repository's pytest run (the file name does not match
test_*.py) because two of the cases start full benchmark runs.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
import types
import unittest

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from oracle import agrees, lp_bounds, sparse_lp  # noqa: E402
from tracer import ROOT as ROOT_SPAN, Tracer  # noqa: E402


def run_bench(*args, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_line(stdout: str):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except ValueError:
        return None


class TracerTest(unittest.TestCase):
    def setUp(self):
        # a stand-in package whose functions call each other through module globals
        pkg = types.ModuleType("fakepkg")
        cascade = types.ModuleType("fakepkg.cascade")

        def cascade_down():
            time.sleep(0.02)

        def dual_value_and_subgradient():
            cascade.cascade_down()
            time.sleep(0.01)

        cascade.cascade_down = cascade_down
        cascade.dual_value_and_subgradient = dual_value_and_subgradient
        pkg.cascade = cascade
        self.modules = {"fakepkg": pkg, "fakepkg.cascade": cascade}
        sys.modules.update(self.modules)
        self.cascade = cascade

    def tearDown(self):
        for name in self.modules:
            sys.modules.pop(name, None)

    def test_self_times_sum_to_root_and_missing_targets_are_skipped(self):
        original = self.cascade.cascade_down
        tracer = Tracer()
        tracer.install("fakepkg")  # most targets do not exist here
        try:
            with tracer.span(ROOT_SPAN):
                self.cascade.dual_value_and_subgradient()
                self.cascade.dual_value_and_subgradient()
        finally:
            tracer.uninstall()
        self.assertIs(self.cascade.cascade_down, original)
        names = [s["name"] for s in tracer.spans]
        self.assertEqual(names.count("cascade.cascade_down"), 2)
        self.assertEqual(names.count("cascade.dual_value_and_subgradient"), 2)
        selfs = tracer.self_times()
        root = tracer.spans[0]["end"] - tracer.spans[0]["start"]
        self.assertAlmostEqual(sum(selfs), root, places=9)
        down = [t for s, t in zip(tracer.spans, selfs) if s["name"] == "cascade.cascade_down"]
        outer = [t for s, t in zip(tracer.spans, selfs)
                 if s["name"] == "cascade.dual_value_and_subgradient"]
        self.assertTrue(all(t >= 0.02 for t in down))
        self.assertTrue(all(0.01 <= t < 0.02 for t in outer))


class OracleTest(unittest.TestCase):
    def test_hand_solved_value(self):
        # E[(X2 - X1)^2] = E[X2^2] - E[X1^2] = 3 under every martingale coupling
        grids = [np.array([-1.0, 1.0]), np.array([-2.0, 2.0])]
        weights = [np.array([0.5, 0.5])] * 2
        out = lp_bounds("squared_increment", None, grids, weights)
        self.assertAlmostEqual(out["min"], 3.0, places=9)
        self.assertAlmostEqual(out["max"], 3.0, places=9)

    def test_rows_fix_marginals_and_drift(self):
        grids = [np.array([0.0]), np.array([-1.0, 1.0]), np.array([-2.0, 0.0, 2.0])]
        weights = [np.array([1.0]), np.array([0.5, 0.5]), np.array([0.25, 0.5, 0.25])]
        A, b = sparse_lp(grids, weights)
        self.assertEqual(A.shape, (1 + 2 + 3 + 1 + 2, 6))
        q = np.zeros((1, 2, 3))
        q[0, 0, [0, 1]] = 0.25
        q[0, 1, [1, 2]] = 0.25
        np.testing.assert_allclose(A @ q.ravel(), b, atol=1e-15)


class KnownDefectTest(unittest.TestCase):
    """A program defect that keeps desk_batch from drawing fresh instances per seed.

    Cycle 4 of the desk_batch stream drawn from seed 13, instance 23 (basket,
    n=3, 3/11/15 atoms): the dense simplex reports its lower LP optimal, but
    the coupling misses the marginals by 1.3e-3 and the martingale rows by
    0.12, so certify raises in verify_subhedge. Such instances turn up about
    once in 3,400. The test passes once the defect is fixed; until then it is
    an expected failure.
    """

    @unittest.expectedFailure
    def test_lower_lp_of_the_seed_13_instance(self):
        sys.path.insert(0, os.path.join(ROOT, "src"))
        import motbounds
        from workloads import DeskBatch

        _, _, (cost, ms) = DeskBatch(13, {}, "").cycle(4, 13)[23]
        lower = motbounds.solve_primal(cost, ms)
        self.assertEqual(lower.status, "optimal")
        self.assertTrue(motbounds.validate_coupling(lower.coupling, ms).ok)
        ref = lp_bounds(cost.form, cost.strike, ms.grids, [mu.weights for mu in ms])
        self.assertTrue(agrees(lower.value, ref["min"]), (lower.value, ref["min"]))


def copy_checkout(tmp: str, with_program: bool) -> None:
    """BENCHMARK.json and perfbench/, plus src/ when with_program, into tmp."""
    skip = shutil.ignore_patterns("out", "__pycache__", "*.egg-info")
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
    shutil.copytree(HERE, os.path.join(tmp, "perfbench"), ignore=skip)
    if with_program:
        shutil.copytree(os.path.join(ROOT, "src"), os.path.join(tmp, "src"), ignore=skip)


class CommandTest(unittest.TestCase):
    def setUp(self):
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)

    def test_wrong_reference_fails_the_run(self):
        with tempfile.TemporaryDirectory(dir=os.path.join(HERE, "out")) as tmp:
            copy_checkout(tmp, with_program=True)
            path = os.path.join(tmp, "perfbench", "references.json")
            with open(path) as fh:
                refs = json.load(fh)
            refs["showcase"]["min"] += 1e-6
            with open(path, "w") as fh:
                json.dump(refs, fh)
            proc = run_bench("--workload", "showcase", "--seed", "1", "--seconds", "1",
                             "--trace", "0", cwd=tmp)
        self.assertNotEqual(proc.returncode, 0, proc.stdout)
        result = result_line(proc.stdout)
        self.assertIsNotNone(result, proc.stdout)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])

    def test_checkout_without_the_program_fails_without_a_result(self):
        with tempfile.TemporaryDirectory(dir=os.path.join(HERE, "out")) as tmp:
            copy_checkout(tmp, with_program=False)
            proc = run_bench("--workload", "desk_batch", "--seed", "1", "--seconds", "1",
                             "--trace", "0", cwd=tmp)
        self.assertNotEqual(proc.returncode, 0)
        self.assertIsNone(result_line(proc.stdout), proc.stdout)

if __name__ == "__main__":
    unittest.main()
