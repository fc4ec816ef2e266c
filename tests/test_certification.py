"""certify's two LP sides: the long-lived LP worker, its threads and its failures."""

import json
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

import motbounds.cascade as cascade_module
import motbounds.certification as certification_module
from motbounds import (
    CostSpec,
    DiscreteMeasure,
    MarginalSequence,
    SizeCapError,
    certify,
    solve_primal,
    solve_primal_max,
)

from conftest import checkout_env, lognormal_showcase, random_instance

PM1 = DiscreteMeasure(np.array([-1.0, 1.0]), np.array([0.5, 0.5]))
PM2 = DiscreteMeasure(np.array([-2.0, 2.0]), np.array([0.5, 0.5]))
SQ2 = CostSpec(2, "squared_increment")


def report_values(rep) -> dict:
    """rep.as_dict() without the wall times, which differ between runs."""
    out = rep.as_dict()
    del out["timings"], out["elapsed_s"]
    for side in ("primal_lower", "primal_upper"):
        out[side]["stats"].pop("solve_s")
    return out


def lp_upper_threads() -> list:
    return [t for t in threading.enumerate() if t.name.startswith("motbounds-lp-upper")]


# certify in a parent, fork, certify in the child: the child drops the
# forking thread's HiGHS object and builds its own LP worker. The parent
# kills a child that does not finish.
FORKED_CERTIFY = """
import json, os, signal, sys, time
import motbounds
ms = motbounds.MarginalSequence([
    motbounds.quantize_lognormal(-s * s / 2, s, 15) for s in (0.1, 0.2, 0.3)
])
cost = motbounds.CostSpec(3, "basket", strike=1.0)

def values():
    rep = motbounds.certify(cost, ms)
    return [rep.passed, rep.primal_lower.value, rep.primal_upper.value,
            [c.dual_value for c in rep.certificates.values()]]

parent = values()
kept = hasattr(motbounds.primal._THREAD, "highs")  # this thread's HiGHS object
read, write = os.pipe()
pid = os.fork()
if pid == 0:
    dropped = not hasattr(motbounds.primal._THREAD, "highs")
    os.write(write, json.dumps([dropped, values()]).encode())
    os._exit(0)
os.close(write)
deadline = time.monotonic() + 60
while not os.waitpid(pid, os.WNOHANG)[0]:
    if time.monotonic() > deadline:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        sys.exit("the forked child's certify did not finish in 60 s")
    time.sleep(0.01)
dropped, child = json.loads(os.read(read, 1 << 16))
print(json.dumps({"parent": parent, "child": child, "kept": kept, "dropped": dropped}))
"""


class TestCertifyOverlap:
    """certify solves its two LP sides at the same time, the upper one on the
    long-lived LP worker, and checks the lower side while the upper one solves."""

    def test_sides_equal_the_sequential_solves(self):
        rng = np.random.default_rng(20261018)
        instances = [lognormal_showcase()]
        instances += [random_instance(rng, n=2 + k % 3, max_size=8) for k in range(20)]
        for cost, ms in instances:
            rep = certify(cost, ms)
            for got, want in ((rep.primal_lower, solve_primal(cost, ms)),
                              (rep.primal_upper, solve_primal_max(cost, ms))):
                assert got.status == want.status == "optimal"
                assert got.value == want.value
                assert got.duals.tobytes() == want.duals.tobytes()
                assert got.coupling.q.tobytes() == want.coupling.q.tobytes()

    @pytest.mark.parametrize("failing_sense", [-1, +1], ids=["upper", "lower"])
    def test_failed_side_reaches_the_caller(self, monkeypatch, failing_sense):
        ms = MarginalSequence([PM1, PM2])
        want = report_values(certify(SQ2, ms))  # the LP worker exists from here on
        solve = certification_module._solve

        def flaky(lp, sense):
            if sense == failing_sense:
                raise RuntimeError(f"solver failed for sense {sense}")
            return solve(lp, sense)

        # certify looks _solve up in its own module, on either thread
        monkeypatch.setattr(certification_module, "_solve", flaky)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match=f"sense {failing_sense}"):
            certify(SQ2, ms)
        monkeypatch.undo()
        assert report_values(certify(SQ2, ms)) == want  # the worker outlives the error
        assert threading.active_count() == before

    def test_one_worker_serves_every_call(self, monkeypatch):
        cost, ms = lognormal_showcase()
        certify(cost, ms)

        def no_thread(*args, **kwargs):
            raise AssertionError("certify started a thread")

        monkeypatch.setattr(threading, "Thread", no_thread)
        rng = np.random.default_rng(25)
        for k in range(50):
            assert certify(*random_instance(rng, n=2 + k % 2, max_size=6)).feasible
            assert len(lp_upper_threads()) == 1

    def test_concurrent_calls_equal_sequential_ones(self):
        # more callers than cores share the one worker, with frequent thread switches
        rng = np.random.default_rng(2025)
        batches = [[lognormal_showcase()] + [random_instance(rng, n=2 + k % 2, max_size=8)
                                             for k in range(4)] for _ in range(4)]
        want = [[report_values(certify(cost, ms)) for cost, ms in batch] for batch in batches]
        got = [None] * len(batches)
        barrier = threading.Barrier(len(batches))

        def run(k):
            barrier.wait()
            got[k] = [report_values(certify(cost, ms)) for cost, ms in batches[k]]

        threads = [threading.Thread(target=run, args=(k,)) for k in range(len(batches))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == want
        assert len(lp_upper_threads()) == 1

    def test_the_worker_only_solves(self, monkeypatch):
        # cascade._built, what every cascade of an instance shares, is built
        # and read on the thread that calls certify, never on the LP worker
        seen = []
        built = cascade_module._built

        def record(cost, ms):
            seen.append(threading.current_thread().name)
            return built(cost, ms)

        for module in (cascade_module, certification_module):
            monkeypatch.setattr(module, "_built", record)
        rng = np.random.default_rng(38)
        for cost, ms in (random_instance(rng, n=3, max_size=8), lognormal_showcase()):
            rep = certify(cost, ms)
            assert list(rep.certificates) == ["proposition", "remark_b", "remark_a"]
        assert seen and set(seen) == {threading.current_thread().name}
        assert len(lp_upper_threads()) == 1

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_builds_its_own_worker(self):
        done = subprocess.run([sys.executable, "-c", FORKED_CERTIFY], env=checkout_env(),
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        seen = json.loads(done.stdout.splitlines()[-1])
        assert seen["parent"][0] is True and seen["child"] == seen["parent"]
        assert seen["kept"] is True and seen["dropped"] is True

    def test_capped_instance_starts_no_thread(self, monkeypatch):
        def no_thread(*args, **kwargs):
            raise AssertionError("certify started a thread")

        monkeypatch.setattr(threading, "Thread", no_thread)
        with pytest.raises(SizeCapError):
            certify(SQ2, MarginalSequence([PM1, PM2]), var_cap=3)

    def test_each_side_times_its_solve(self, rng):
        cost, ms = random_instance(rng, n=3, max_size=6)
        rep = certify(cost, ms)
        for side in (rep.primal_lower, rep.primal_upper):
            assert side.stats["solve_s"] > 0
        payload = json.loads(json.dumps(rep.as_dict()))
        assert payload["primal_lower"]["stats"] == rep.primal_lower.stats
        assert payload["primal_upper"]["stats"] == rep.primal_upper.stats
