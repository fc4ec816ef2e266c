"""Import footprint: scipy loads only with the LP; the dual path and coupling checks run without it."""

import json
import subprocess
import sys

from conftest import checkout_env

LAZY = ("scipy.optimize", "scipy.sparse", "scipy.special")

# Runs in a fresh interpreter and prints, after each step, which of LAZY are loaded.
SCRIPT = f"""
import json, sys
import numpy as np
loaded = {{}}
def mark(step):
    loaded[step] = sorted(m for m in {LAZY!r} if m in sys.modules)

import motbounds, motbounds.cli
mark("import")
ms = motbounds.MarginalSequence([
    motbounds.DiscreteMeasure(np.array([-1.0, 1.0]), np.array([0.5, 0.5])),
    motbounds.DiscreteMeasure(np.array([-2.0, 0.0, 2.0]), np.array([0.25, 0.5, 0.25])),
])
cost = motbounds.CostSpec(2, "squared_increment")
motbounds.ascend(cost, ms, motbounds.AscentConfig(max_iters=20))
mark("ascend")
try:
    motbounds.solve_primal(cost, ms, var_cap=1)
except motbounds.SizeCapError:
    mark("capped")
motbounds.quantize_lognormal(-0.02, 0.2, 15)
mark("quantize")
# a martingale coupling of the pair: each atom of mu_1 splits evenly to its two neighbours
coupling = motbounds.Coupling((2, 3), np.array([0, 1, 4, 5]), np.full(4, 0.25))
assert motbounds.verify_subhedge(cost, ms, motbounds.DualVariables.zeros(ms), coupling).ok
mark("verify")
assert not [m for m in sys.modules if m.split(".")[0] == "scipy"], "scipy loaded before the LP"
motbounds.solve_primal(cost, ms)
mark("solve")
print(json.dumps(loaded))
"""


def test_scipy_parts_load_on_first_use():
    done = subprocess.run([sys.executable, "-c", SCRIPT], env=checkout_env(),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    loaded = json.loads(done.stdout.splitlines()[-1])
    assert loaded["import"] == []
    assert loaded["ascend"] == []
    assert loaded["capped"] == []
    assert loaded["quantize"] == []
    assert loaded["verify"] == []  # a coupling is re-checked without the LP stack
    assert "scipy.optimize" in loaded["solve"]


# Runs the dual-side commands in an interpreter where any import of scipy fails.
WITHOUT_SCIPY = """
import json, sys
sys.modules["scipy"] = None
from motbounds.cli import main
path = sys.argv[1]
codes = [main(["quantize", "--location", "0", "--scale", "0.2", "--m", "15"]),
         main(["check", path]),
         main(["solve", path, "--method", "dual"])]
print(json.dumps(codes))
"""


def test_dual_path_runs_without_scipy(tmp_path):
    instance = {
        "marginals": [{"lognormal": {"location": -s * s / 2, "scale": s, "m": 15}}
                      for s in (0.1, 0.2)],
        "cost": {"form": "basket", "strike": 1.0},
        "options": {"max_iters": 50},
    }
    path = tmp_path / "lognormal.json"
    path.write_text(json.dumps(instance))
    done = subprocess.run([sys.executable, "-c", WITHOUT_SCIPY, str(path)], env=checkout_env(),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == [0, 0, 0]


# The first certify in a fresh interpreter: both of its LP threads import
# scipy.optimize on first use, at the same time.
FIRST_CERTIFY = """
import json, sys
import motbounds, motbounds.cli
seen = {"futures": "concurrent.futures" in sys.modules,
        "optimize_before": "scipy.optimize" in sys.modules}
ms = motbounds.MarginalSequence([
    motbounds.quantize_lognormal(-s * s / 2, s, 15) for s in (0.1, 0.2, 0.3)
])
rep = motbounds.certify(motbounds.CostSpec(3, "basket", strike=1.0), ms)
seen["passed"] = rep.passed
print(json.dumps(seen))
"""


def test_first_certify_passes_while_both_sides_import_the_solver():
    done = subprocess.run([sys.executable, "-c", FIRST_CERTIFY], env=checkout_env(),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    seen = json.loads(done.stdout.splitlines()[-1])
    assert seen == {"futures": False, "optimize_before": False, "passed": True}
