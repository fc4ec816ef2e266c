"""Import footprint: the LP loads scipy's HiGHS extension alone, never scipy.optimize or
scipy.sparse; the dual path and coupling checks load no part of scipy. The package's
modules import each other in layers: only certification joins the LP and the cascade."""

import ast
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import motbounds
import motbounds.certification as certification_module

from conftest import checkout_env

# each module of the package and the package modules it imports
LAYERS = {
    "measures": set(),
    "envelope": set(),
    "primal": {"measures"},
    "cascade": {"envelope", "measures"},
    "ascent": {"cascade", "measures"},
    "certification": {"cascade", "measures", "primal"},
    "cli": {"ascent", "certification", "envelope", "measures", "primal"},
    "__init__": {"ascent", "cascade", "certification", "envelope", "measures", "primal"},
    "__main__": {"cli"},
}


def package_imports(path: Path) -> set:
    """The package modules that the module at path imports, anywhere in its body."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                found.add(node.module.split(".")[0])
            else:
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("motbounds."):
            found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("motbounds."))
    return found


def test_modules_import_in_layers():
    # neither the cascade nor the optimizer reads LP code, and certification,
    # which joins the two sides, does not read the optimizer
    src = Path(motbounds.__file__).parent
    graph = {path.stem: package_imports(path) for path in sorted(src.glob("*.py"))}
    assert graph == LAYERS


def test_certification_is_a_module():
    # a submodule named certify would be shadowed by the function motbounds.certify
    assert isinstance(certification_module, types.ModuleType)
    assert certification_module.certify is motbounds.certify

HIGHS = "scipy.optimize._highspy._core"
LAZY = ("scipy.optimize", "scipy.sparse", "scipy.special", HIGHS)

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
    assert loaded["solve"] == [HIGHS]  # the extension alone: no scipy.optimize, no scipy.sparse


# Runs the dual-side commands in an interpreter where any import of scipy fails.
WITHOUT_SCIPY = """
import json, sys
sys.modules["scipy"] = None
from motbounds.cli import main
path = sys.argv[1]
codes = [main(["quantize", "--location", "0", "--scale", "0.2", "--m", "15"]),
         main(["check", path]),
         main(["--max-iters", "50", "solve", path, "--method", "dual"])]
print(json.dumps(codes))
"""


def test_dual_path_runs_without_scipy(tmp_path):
    instance = {
        "marginals": [{"lognormal": {"location": -s * s / 2, "scale": s, "m": 15}}
                      for s in (0.1, 0.2)],
        "cost": {"form": "basket", "strike": 1.0},
    }
    path = tmp_path / "lognormal.json"
    path.write_text(json.dumps(instance))
    done = subprocess.run([sys.executable, "-c", WITHOUT_SCIPY, str(path)], env=checkout_env(),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == [0, 0, 0]


# The first certify in a fresh interpreter: both of its LP threads load the
# HiGHS extension on first use, at the same time.
FIRST_CERTIFY = f"""
import json, sys
import motbounds, motbounds.cli
seen = {{"futures": "concurrent.futures" in sys.modules,
        "optimize_before": "scipy.optimize" in sys.modules}}
ms = motbounds.MarginalSequence([
    motbounds.quantize_lognormal(-s * s / 2, s, 15) for s in (0.1, 0.2, 0.3)
])
rep = motbounds.certify(motbounds.CostSpec(3, "basket", strike=1.0), ms)
seen["passed"] = rep.passed
seen["after"] = sorted(m for m in ("scipy.optimize", "scipy.sparse", {HIGHS!r}) if m in sys.modules)
print(json.dumps(seen))
"""


def test_first_certify_passes_while_both_sides_import_the_solver():
    done = subprocess.run([sys.executable, "-c", FIRST_CERTIFY], env=checkout_env(),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    seen = json.loads(done.stdout.splitlines()[-1])
    assert seen == {"futures": False, "optimize_before": False, "passed": True, "after": [HIGHS]}


# One HiGHS extension per process, whichever loads first: linprog imported
# before the LP leaves the LP on scipy.optimize's core, and linprog imported
# after it finds the core the LP loaded.
SAME_CORE = f"""
import sys
import numpy as np
if sys.argv[1] == "linprog_first":
    from scipy.optimize import linprog
import motbounds
from motbounds.primal import _highs
ms = motbounds.MarginalSequence([
    motbounds.DiscreteMeasure(np.array([-1.0, 1.0]), np.array([0.5, 0.5])),
    motbounds.DiscreteMeasure(np.array([-2.0, 0.0, 2.0]), np.array([0.25, 0.5, 0.25])),
])
cost = motbounds.CostSpec(2, "squared_increment")
sol = motbounds.solve_primal(cost, ms)
from scipy.optimize import linprog
from scipy.optimize._highspy import _core
lp = motbounds.assemble_lp(cost, ms)
res = linprog(lp.c, A_eq=lp.A, b_eq=lp.b, bounds=(0, None), method="highs")
assert _highs() is _core is sys.modules[{HIGHS!r}]
assert res.status == 0 and sol.value == res.fun, (res.status, sol.value, res.fun)
print("same core")
"""


@pytest.mark.parametrize("order", ["linprog_first", "lp_first"])
def test_lp_and_linprog_share_one_core(order):
    done = subprocess.run([sys.executable, "-c", SAME_CORE, order], env=checkout_env(),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "same core"


def stub_scipy_env(tmp_path) -> dict:
    """A child environment whose scipy has no optimize/_highspy, as before 1.15.0."""
    (tmp_path / "scipy").mkdir()
    (tmp_path / "scipy" / "__init__.py").write_text('__version__ = "1.14.1"\n')
    env = checkout_env()
    env["PYTHONPATH"] = os.pathsep.join([str(tmp_path), env["PYTHONPATH"]])
    return env


FLOOR_MESSAGE = f"scipy 1.14.1 has no {HIGHS}; motbounds needs scipy >= 1.15.0"


def write_pair(tmp_path):
    """A two-period instance file whose certify needs the LP."""
    instance = tmp_path / "pair.json"
    instance.write_text(json.dumps({
        "marginals": [{"atoms": [-1.0, 1.0], "weights": [0.5, 0.5]},
                      {"atoms": [-2.0, 2.0], "weights": [0.5, 0.5]}],
        "cost": {"form": "squared_increment"}}))
    return instance


def test_scipy_without_the_extension_names_the_floor(tmp_path):
    script = ("from motbounds.primal import HighsMissingError, _highs\n"
              "try:\n    _highs()\nexcept HighsMissingError as exc:\n"
              "    print(isinstance(exc, ImportError), exc)\n")
    done = subprocess.run([sys.executable, "-c", script], env=stub_scipy_env(tmp_path),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == f"True {FLOOR_MESSAGE}\n"


@pytest.mark.parametrize("command", [["certify"], ["solve", "--method", "primal"]],
                         ids=["certify", "solve"])
def test_cli_without_the_extension_is_one_error_line(tmp_path, command):
    instance = write_pair(tmp_path)
    done = subprocess.run([sys.executable, "-m", "motbounds", command[0], str(instance)]
                          + command[1:], env=stub_scipy_env(tmp_path),
                          capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr == f"error: {FLOOR_MESSAGE}\n"


def test_cli_without_scipy_is_one_error_line(tmp_path):
    # None in sys.modules makes "import scipy" fail as an uninstalled scipy does
    instance = write_pair(tmp_path)
    script = ("import sys\nsys.modules['scipy'] = None\nfrom motbounds.cli import main\n"
              f"sys.exit(main(['certify', {str(instance)!r}]))\n")
    done = subprocess.run([sys.executable, "-c", script], env=checkout_env(),
                          capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr == ("error: motbounds needs scipy >= 1.15.0 for the LP, "
                           "and scipy cannot be imported\n")
