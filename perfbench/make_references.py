"""Recompute the stored LP references of the dual-only workloads.

    PYTHONPATH=src python3 perfbench/make_references.py [dual_wide dual_deep]

Solves the minimum and maximum transport LP of each named workload with the
benchmark's sparse HiGHS oracle and rewrites perfbench/references.json. The
solves take minutes each, which is why the benchmark reads stored values
instead of solving during a run. The showcase entry holds the acceptance
criterion 10 anchors and is kept as it is.
"""

from __future__ import annotations

import json
import os
import platform
import sys

import numpy as np
import scipy

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from oracle import lp_bounds  # noqa: E402
from workloads import WORKLOADS, lognormal_instance  # noqa: E402

PATH = os.path.join(HERE, "references.json")


def main(names) -> None:
    with open(PATH) as fh:
        refs = json.load(fh)
    for name in names:
        wl = WORKLOADS[name]
        cost, ms = lognormal_instance(wl.n, wl.m)
        out = lp_bounds(cost.form, cost.strike, ms.grids, [mu.weights for mu in ms])
        refs[name] = {
            "n": wl.n,
            "m": wl.m,
            "atom_ends": [[float(mu.atoms[0]), float(mu.atoms[-1])] for mu in ms],
            "min": out["min"],
            "max": out["max"],
            "min_solve_s": round(out["min_s"], 1),
            "max_solve_s": round(out["max_s"], 1),
            "solver": f"scipy {scipy.__version__} linprog(method='highs')",
            "numpy": np.__version__,
            "python": platform.python_version(),
        }
        print(name, refs[name], flush=True)
        with open(PATH, "w") as fh:
            json.dump(refs, fh, indent=2)
            fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:] or ["dual_wide", "dual_deep"])
