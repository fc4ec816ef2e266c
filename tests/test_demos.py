"""Every demo script runs to completion against this checkout and prints plain numbers."""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import checkout_env

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(tmp_path, demo):
    # run a copy so that artifacts such as demo 05's out/ land in tmp_path
    script = tmp_path / demo.name
    shutil.copy(demo, script)
    done = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=checkout_env(),
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert "Traceback" not in done.stdout + done.stderr
    assert "np.float64(" not in done.stdout  # numbers print plain, not as numpy reprs
