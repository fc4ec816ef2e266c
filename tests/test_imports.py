"""Import footprint: the LP stack and scipy.special load only when first used."""

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
    assert loaded["quantize"] == ["scipy.special"]
    assert "scipy.optimize" in loaded["solve"]


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
