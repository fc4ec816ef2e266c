"""The benchmark's workloads: instances made from the seed, operations, checks.

Every workload is closed-loop: one caller, one operation at a time. It calls
only public motbounds functions, looked up on the modules at call time so a
traced run can wrap them. Work is grouped in units, and latency_s is the
median time of one unit: one certify on ``showcase``, the 24 certifies of
the batch on ``desk_batch`` and the three bounds on the ``dual_*`` workloads.
The operations of a unit run one at a time; a calibration sample may fall
between two of them, so each operation's time is scaled on its own. The
oracle module (and with it scipy.optimize) is imported only by the checks,
after the timed window, so it never counts as set-up.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import time
from statistics import median

import numpy as np

import motbounds
import motbounds.cli

FORMS = ("squared_increment", "abs_increment", "terminal_call", "basket")
VARIANTS = ("proposition", "remark_b", "remark_a")


def lognormal_scales(n: int) -> np.ndarray:
    return np.linspace(0.1, 0.3, n)


def lognormal_instance(n: int, m: int):
    """The shared family: quantized lognormals, basket call struck at 1."""
    ms = motbounds.MarginalSequence(
        [motbounds.quantize_lognormal(-s * s / 2, s, m) for s in lognormal_scales(n)]
    )
    return motbounds.CostSpec(n, "basket", strike=1.0), ms


def best_gap(lower: float, upper: float, ref: dict) -> float:
    """Larger of the lower-side and upper-side relative gaps to the LP optima."""
    return max(
        motbounds.relative_gap(lower, ref["min"]),
        motbounds.relative_gap(upper, ref["max"]),
    )


def weak_duality(lower: dict, upper: float, ref: dict) -> list:
    from oracle import above, below

    bad = [f"{v} dual {val!r} exceeds the LP minimum {ref['min']!r}"
           for v, val in lower.items() if not below(val, ref["min"])]
    if not above(upper, ref["max"]):
        bad.append(f"remark_a dual {upper!r} is below the LP maximum {ref['max']!r}")
    return bad


class Workload:
    name = ""
    unit_work = ""
    calibration = "interpreter"  # the calibration.py kernel whose slowdown its work follows

    def __init__(self, seed: int, references: dict, workdir: str):
        self.seed = seed
        self.references = references
        self.workdir = workdir

    def setup(self) -> None:
        """Build the inputs of the first unit; timed as part of setup_s."""

    def unit(self, k: int) -> list:
        """The operations of unit k, as (instance, zero-argument callable)."""
        raise NotImplementedError

    def check(self, items: list) -> tuple:
        """Oracle checks of (instance, result) pairs.

        Returns one list of failure messages per item, one dual gap per item,
        and a dict of counts worth reporting.
        """
        raise NotImplementedError


class Showcase(Workload):
    """The paper's showcase through the CLI: n=3, m=15, basket call."""

    name = "showcase"
    unit_work = "one motbounds certify through cli.main"
    calibration = "memory"
    n, m = 3, 15

    def setup(self):
        spec = {
            "marginals": [
                {"lognormal": {"location": -s * s / 2, "scale": float(s), "m": self.m}}
                for s in lognormal_scales(self.n)
            ],
            "cost": {"form": "basket", "strike": 1.0},
        }
        self.path = os.path.join(self.workdir, "showcase.json")
        self.out = os.path.join(self.workdir, "artifacts")
        with open(self.path, "w") as fh:
            json.dump(spec, fh)
        self.argv = ["--json", "--out", self.out, "certify", self.path]

    def _certify(self):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = motbounds.cli.main(self.argv)
        return code, buf.getvalue()

    def unit(self, k):
        return [(None, self._certify)]

    def check(self, items):
        from oracle import agrees, lp_bounds

        ref = self.references["showcase"]
        anchor_tol = ref["tol"]
        failures, gaps = [], []
        cost, ms = lognormal_instance(self.n, self.m)
        highs = lp_bounds("basket", 1.0, ms.grids, [mu.weights for mu in ms])
        oracle_bad = [f"HiGHS {side} {highs[side]!r} misses the anchor {ref[side]!r}"
                      for side in ("min", "max") if not agrees(highs[side], ref[side])]
        for _, (code, text) in items:
            bad = list(oracle_bad)
            if code != 0:
                bad.append(f"cli exit code {code}")
            try:
                report = json.loads(text)
                lower = report["primal_lower"]["value"]
                upper = report["primal_upper"]["value"]
                duals = {v: c["dual_value"] for v, c in report["certificates"].items()}
                passed = report["passed"]
            except (ValueError, KeyError, TypeError) as exc:
                failures.append(bad + [f"unreadable certify report: {exc!r}"])
                continue
            if not passed:
                bad.append("certify reported passed=false")
            if not agrees(lower, ref["min"], anchor_tol):
                bad.append(f"LP minimum {lower!r} misses the anchor {ref['min']!r}")
            if not agrees(upper, ref["max"], anchor_tol):
                bad.append(f"LP maximum {upper!r} misses the anchor {ref['max']!r}")
            lower_duals = {v: duals[v] for v in ("proposition", "remark_b")}
            bad += weak_duality(lower_duals, duals["remark_a"], ref)
            failures.append(bad)
            gaps.append(best_gap(max(lower_duals.values()), duals["remark_a"], ref))
        return failures, gaps, {}


class DeskBatch(Workload):
    """Small spread-built instances, certified one by one.

    The generator is the one of acceptance criterion 1: a point spread into
    three atoms, then random mean-preserving spreads per period, with one of
    the four named payoffs and a strike drawn around the mean. The number of
    spreads per period and the payoff are laid out on a fixed design of 24
    instances per cycle instead of drawn.

    A unit is the batch: the first cycle drawn from BATCH_SEED, in an order
    set by the run's seed and the unit's number. Every unit and every seed
    certifies the same instances, so the timing of a run depends on the
    code, not on the luck of the draw. A stream drawn afresh per seed would
    also reach, about once in 3,400 instances, a lower LP on which the dense
    simplex reports an infeasible vertex as optimal, and fail the run;
    selftest.py reproduces that defect on its own.
    """

    name = "desk_batch"
    unit_work = "certify of the 24 instances of the batch, one design cycle"
    # spreads applied to each later marginal; the first marginal has 3 atoms
    LEVELS = {2: ((3,), (7,), (11,)), 3: ((2, 3), (5, 4), (8, 4))}
    BATCH_SEED = 0

    def __init__(self, seed, references, workdir):
        super().__init__(seed, references, workdir)
        self._batch = []
        self._oracle = {}

    @staticmethod
    def _spread(rng, mu, splits):
        for _ in range(splits):
            i = int(rng.integers(len(mu)))
            mu = motbounds.split_atom(mu, i, 0.6 * (0.25 + rng.random()))
        return mu

    def _instance(self, rng, n, form, level):
        mu = self._spread(rng, motbounds.DiscreteMeasure.point(10.0 * (rng.random() - 0.5)), 2)
        marginals = [mu]
        for splits in self.LEVELS[n][level]:
            marginals.append(self._spread(rng, marginals[-1], splits))
        ms = motbounds.MarginalSequence(marginals)
        strike = None
        if form in ("terminal_call", "basket"):
            strike = ms[0].mean + ms.span * 0.4 * (rng.random() - 0.5)
        return motbounds.CostSpec(n, form, strike=strike), ms

    def cycle(self, k, seed):
        """Cycle k of the stream drawn from seed: (k, i, (cost, ms)) per instance."""
        rng = np.random.default_rng([seed, k])
        design = [(level, n, form) for level in range(3) for n in (2, 3) for form in FORMS]
        return [(k, i, self._instance(rng, n, form, level))
                for i, (level, n, form) in enumerate(design)]

    def setup(self):
        self._batch = self.cycle(0, self.BATCH_SEED)

    def unit(self, k):
        order = np.random.default_rng([self.seed, k]).permutation(len(self._batch))
        return [(inst, lambda cost=inst[2][0], ms=inst[2][1]: motbounds.certify(cost, ms))
                for inst in (self._batch[i] for i in order)]

    def check(self, items):
        from oracle import agrees, lp_bounds

        failures, gaps = [], []
        unpassed = 0
        for (k, i, (cost, ms)), report in items:
            if (k, i) not in self._oracle:
                self._oracle[(k, i)] = lp_bounds(cost.form, cost.strike, ms.grids,
                                                 [mu.weights for mu in ms])
            ref = self._oracle[(k, i)]
            bad = []
            if not report.feasible:
                bad.append("certify found the instance infeasible")
                failures.append(bad)
                continue
            lower, upper = report.primal_lower, report.primal_upper
            if lower.status != "optimal" or upper.status != "optimal":
                bad.append(f"LP status {lower.status}/{upper.status}")
                failures.append(bad)
                continue
            if not agrees(lower.value, ref["min"]):
                bad.append(f"LP minimum {lower.value!r} vs HiGHS {ref['min']!r}")
            if not agrees(upper.value, ref["max"]):
                bad.append(f"LP maximum {upper.value!r} vs HiGHS {ref['max']!r}")
            duals = {v: c.dual_value for v, c in report.certificates.items()}
            lower_duals = {v: duals[v] for v in ("proposition", "remark_b")}
            bad += weak_duality(lower_duals, duals["remark_a"], ref)
            unpassed += not report.passed
            failures.append([f"cycle {k} instance {i}: {msg}" for msg in bad])
            gaps.append(best_gap(max(lower_duals.values()), duals["remark_a"], ref))
        return failures, gaps, {"certify_unpassed": unpassed}


class DualOnly(Workload):
    """Reference-free bounds at a fixed iteration budget; the LP is never run.

    A unit is the three bounds (two lower variants, the upper one), so a
    change to any one of them moves latency_s. Each bound is its own
    operation, so calibration samples fall between the bounds: the machine
    speed changes within the seconds a unit takes. The median time of each
    bound is printed too, not gated.
    """

    unit_work = "the three reference-free bounds at a fixed budget"
    calibration = "python"
    n = m = budget = 0

    def setup(self):
        self.cost, self.ms = lognormal_instance(self.n, self.m)

    def _bound(self, variant):
        config = motbounds.AscentConfig(variant=variant, max_iters=self.budget)
        run = motbounds.descend_upper if variant == "remark_a" else motbounds.ascend
        start = time.perf_counter()
        value = run(self.cost, self.ms, config)[0].dual_value
        return value, time.perf_counter() - start

    def unit(self, k):
        return [((k, v), lambda v=v: self._bound(v)) for v in VARIANTS]

    def check(self, items):
        from oracle import above, below

        ref = self.references[self.name]
        fingerprint = [[float(mu.atoms[0]), float(mu.atoms[-1])] for mu in self.ms]
        stale = []
        if (ref["n"], ref["m"]) != (self.n, self.m) or not np.allclose(
                fingerprint, ref["atom_ends"], rtol=1e-12, atol=0.0):
            stale.append("the stored LP reference was computed for another instance")
        failures, units, seconds = [], {}, {}
        for (k, variant), (value, elapsed) in items:
            sound = above(value, ref["max"]) if variant == "remark_a" else below(value, ref["min"])
            failures.append(stale + ([] if sound else [
                f"unit {k}: {variant} bound {value!r} breaks weak duality against "
                f"[{ref['min']!r}, {ref['max']!r}]"]))
            units.setdefault(k, {})[variant] = value
            seconds.setdefault(variant, []).append(elapsed)
        gaps = [best_gap(max(u["proposition"], u["remark_b"]), u["remark_a"], ref)
                for u in units.values() if len(u) == 3]
        counts = {f"{v}_raw_s": median(t) for v, t in seconds.items()}
        return failures, gaps, counts


class DualWide(DualOnly):
    """n=2, m=400: 160k paths in 400 sections of 400 atoms."""

    name = "dual_wide"
    n, m, budget = 2, 400, 10


class DualDeep(DualOnly):
    """n=4, m=20: the same 160k paths in 8,420 sections of 20 atoms."""

    name = "dual_deep"
    n, m, budget = 4, 20, 100


WORKLOADS = {w.name: w for w in (Showcase, DeskBatch, DualWide, DualDeep)}
